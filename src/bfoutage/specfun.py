"""Scalar special functions and combinatorial kernels shared by the outage evaluators.

Everything here is a pure function of its arguments and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special as _sc

__all__ = [
    "CapabilityError",
    "ConvergenceError",
    "DEFAULT_TOLERANCE",
    "SeriesTolerance",
    "bessel_j0",
    "expansion_coeffs",
    "lemma1_identity",
    "noncentral_chi2_cdf",
]


class ConvergenceError(ArithmeticError):
    """A series hit its term budget before meeting its tolerance.

    The sum accumulated so far is kept on the exception so callers can decide
    whether it is still usable.
    """

    def __init__(self, message: str, partial_sum):
        super().__init__(message)
        self.partial_sum = partial_sum


class CapabilityError(ValueError):
    """The request is valid mathematics but outside the supported range."""


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation control for the Poisson-mixture series."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_TOLERANCE = SeriesTolerance()


def bessel_j0(x: float) -> float:
    """J0(x), the zero-order Bessel function of the first kind."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0 needs a finite argument, got {x!r}")
    return float(_sc.j0(x))


def noncentral_chi2_cdf(
    half_dof: int,
    half_noncentrality: float,
    half_argument: float,
    tol: SeriesTolerance = DEFAULT_TOLERANCE,
) -> float:
    """CDF of a noncentral chi-square with 2*half_dof degrees of freedom and
    noncentrality 2*half_noncentrality, evaluated at 2*half_argument.

    Scalar form of :func:`_noncentral_chi2_cdf_grid`, which documents the
    series and its truncation.
    """
    return float(
        _noncentral_chi2_cdf_grid(half_dof, float(half_noncentrality), float(half_argument), tol)
    )


#: Entries of one (elements x k) block of series terms: bounds the kernel's
#: scratch memory (a few hundred kB) whatever the grid size.
_BLOCK_ENTRIES = 1 << 14
#: Elements are summed in bands of this width in delta, so the g_k table of a
#: band spans at most _DELTA_BAND + 3 * max_terms values of k.
_DELTA_BAND = 1 << 16
#: First window around the peak of each element's terms: this many times
#: sqrt(peak) on either side, plus _WINDOW_PAD terms for small peaks.
_WINDOW_SIGMAS = 10.0
_WINDOW_PAD = 16


def _noncentral_chi2_cdf_grid(
    half_dof: int,
    half_noncentralities: np.ndarray | float,
    half_argument: float,
    tol: SeriesTolerance = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """:func:`noncentral_chi2_cdf` over an array of half noncentralities delta
    at a shared half argument beta: the Poisson mixture

        F(delta) = sum_k t_k,    t_k = pois(k; delta) * g_k,    g_k = P(d + k, beta),

    summed over a window of k (Benton & Krishnamoorthy, CSDA 43, 2003; Ding,
    AS 275, 1992).  g_k is computed once per call.  Each element sums
    exp(k log delta - delta - log k!) * g_k over a window [lo, hi] centred on
    the peak of its terms, not on the Poisson mode: while delta <= beta,
    g_k stays near 1 up to k ~ delta and the peak is near delta; when
    delta >> beta, g_k falls like beta^k / (d + k)! and the peak is near
    sqrt(delta * beta).  The first window spans 10 sqrt(peak) + 16 terms
    on either side of min(delta, sqrt(delta * beta)).

    The unsummed terms are bounded rigorously.  Below the window, as g_k
    decreases in k, they are at most P(K < lo) * g_0.  Above it they are at
    most the smaller of two bounds:

    - P(K > hi) * g_{hi+1}, again because g_k decreases;
    - t_{hi+1} / (1 - r) when r < 1, with r = delta * beta / ((hi + 2) (d + hi + 2)).
      By the positive series P(a, x) = x^a e^-x sum_j x^j / Gamma(a + j + 1)
      (DLMF 8.7.1), P(a + 1, x) <= x / (a + 1) * P(a, x) term by term, so for
      k > hi, t_{k+1} / t_k = delta / (k + 1) * g_{k+1} / g_k <= r, and the
      wing is at most the geometric series t_{hi+1} (1 + r + r^2 + ...).

    A window widens, its lower edge straight toward k = 0, until the bounds
    are at most tol.rel_tol times its sum.  With no absolute stopping rule,
    deep-tail values keep their relative accuracy, and an element's value
    depends on its own arguments only.  Raises ConvergenceError, carrying
    the partial sums, when a window would need more than tol.max_terms
    terms.
    """
    if int(half_dof) != half_dof or half_dof < 1:
        raise ValueError(f"half_dof must be a positive integer, got {half_dof!r}")
    d = int(half_dof)
    deltas = np.asarray(half_noncentralities, dtype=float)
    beta = float(half_argument)
    if not np.all(np.isfinite(deltas) & (deltas >= 0)):
        raise ValueError("half noncentralities must be finite and >= 0")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"half_argument must be finite and >= 0, got {beta!r}")

    delta = deltas.reshape(-1)
    sums = np.zeros_like(delta)
    band = np.floor(delta / _DELTA_BAND)
    for b in np.unique(band):
        rows = np.flatnonzero(band == b)
        sums[rows], converged = _poisson_mixture(d, delta[rows], beta, tol)
        if not converged:
            raise ConvergenceError(
                f"noncentral chi-square series did not converge within {tol.max_terms} "
                f"terms (d={d}, max delta={float(delta[rows].max()):g}, beta={beta:g})",
                np.clip(sums, 0.0, 1.0).reshape(deltas.shape),
            )
    return np.clip(sums, 0.0, 1.0).reshape(deltas.shape)


def _poisson_mixture(d: int, delta: np.ndarray, beta: float, tol: SeriesTolerance):
    """Partial sums of the mixture series for each element, and whether
    every element met its bound within tol.max_terms terms."""
    log_delta = np.log(delta, out=np.zeros_like(delta), where=delta > 0)
    g0 = float(_sc.gammainc(d, beta))
    # The wing bounds hold wherever a window sits; capping the peak keeps
    # every k exact as a float.  sqrt(delta) * sqrt(beta) cannot overflow.
    peak = np.minimum(delta, np.sqrt(delta) * math.sqrt(beta))
    centre = np.floor(np.minimum(peak, 2.0**52)).astype(np.int64)
    half = np.ceil(_WINDOW_SIGMAS * np.sqrt(peak)) + _WINDOW_PAD
    half = np.minimum(half, (tol.max_terms - 1) // 2).astype(np.int64)
    lo = np.maximum(centre - half, 0)
    # delta = 0 is the central CDF: the k = 0 term alone, exp(0) * g_0.
    hi = np.where(delta > 0, centre + half, 0)
    partial = np.zeros_like(delta)
    todo = np.ones(delta.shape, dtype=bool)
    while True:
        k = np.arange(lo.min(), hi.max() + 2)
        g, log_fact = _sc.gammainc(d + k, beta), _sc.gammaln(k + 1.0)
        partial[todo] = _window_sums(
            lo[todo], hi[todo], delta[todo], log_delta[todo], k[0], g, log_fact
        )
        upper = _upper_wing_bound(d, delta, beta, hi, g[hi + 1 - k[0]])
        lower = np.where(lo > 0, _sc.pdtr(lo - 1, delta) * g0, 0.0)
        budget = tol.rel_tol * partial
        todo = upper + lower > budget
        if not todo.any():
            return partial, True
        grow_lo = todo & (lower > 0.5 * budget)
        new_lo = np.where(grow_lo, np.maximum(hi - tol.max_terms + 1, 0), lo)
        new_hi = np.where(todo & (upper > 0.5 * budget), 2 * hi - lo + 1, hi)
        new_hi = np.minimum(new_hi, new_lo + tol.max_terms - 1)
        if np.any(todo & (new_lo == lo) & (new_hi == hi)):
            return partial, False
        lo, hi = new_lo, new_hi


def _upper_wing_bound(d: int, delta: np.ndarray, beta: float, hi: np.ndarray, g_next):
    """Bound on sum_{k > hi} t_k for each element, given g_next = g_{hi+1}:
    the smaller of P(K > hi) * g_{hi+1} and, where r < 1, t_{hi+1} / (1 - r)
    (derived in :func:`_noncentral_chi2_cdf_grid`)."""
    upper = _sc.pdtrc(hi, delta) * g_next
    log_delta = np.log(delta, out=np.full_like(delta, -np.inf), where=delta > 0)
    log_beta = math.log(beta) if beta > 0 else -math.inf
    # r is formed in logs: delta * beta overflows for delta near 1e300
    log_r = log_delta + log_beta - np.log(hi + 2.0) - np.log(d + hi + 2.0)
    t_next = np.exp((hi + 1) * log_delta - delta - _sc.gammaln(hi + 2.0)) * g_next
    shrinks = log_r < 0
    upper[shrinks] = np.minimum(upper[shrinks], t_next[shrinks] / -np.expm1(log_r[shrinks]))
    return upper


def _window_sums(lo, hi, delta, log_delta, k0, g, log_fact) -> np.ndarray:
    """sum_{k=lo_i}^{hi_i} pois(k; delta_i) * g_k for each element i, summed
    in order of k; g and log_fact hold g_k and log k! from k = k0 on.
    Elements are taken longest window first, in blocks of at most
    _BLOCK_ENTRIES terms, so little of a block is padding."""
    lengths = hi - lo + 1
    sums = np.empty(lengths.shape)
    order = np.argsort(-lengths, kind="stable")
    start = 0
    while start < order.size:
        rows = order[start : start + max(1, _BLOCK_ENTRIES // lengths[order[start]])]
        n = lengths[rows, None]
        k = lo[rows, None] + np.minimum(np.arange(n[0, 0]), n - 1)  # padding repeats hi_i
        log_w = k * log_delta[rows, None] - delta[rows, None] - log_fact[k - k0]
        # A running sum read at the row's last term does not see the padding.
        running = np.cumsum(np.exp(log_w) * g[k - k0], axis=1)
        sums[rows] = running[np.arange(rows.size), n[:, 0] - 1]
        start += rows.size
    return sums


#: Largest supported degree k*(n_r - 1) of the truncated-exponential power.
MAX_EXPANSION_DEGREE = 64


def expansion_coeffs(n_r: int, k: int) -> list[float]:
    """Coefficients a_0..a_{k(n_r-1)} of (sum_{l<n_r} x^l / l!)^k.

    Computed by iterated convolution over exact rationals, then rounded once
    to float, and memoized: each call returns a fresh list.  a_0 = 1 for
    every valid input.
    """
    if int(n_r) != n_r or n_r < 1:
        raise ValueError(f"n_r must be a positive integer, got {n_r!r}")
    if int(k) != k or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    n_r, k = int(n_r), int(k)
    degree = k * (n_r - 1)
    if degree > MAX_EXPANSION_DEGREE:
        raise CapabilityError(
            f"requested degree {degree} exceeds the supported maximum {MAX_EXPANSION_DEGREE}"
        )
    return list(_expansion_coeffs(n_r, k))


@lru_cache(maxsize=256)
def _expansion_coeffs(n_r: int, k: int) -> tuple[float, ...]:
    base = [Fraction(1, math.factorial(l)) for l in range(n_r)]
    coeffs = [Fraction(1)]
    for _ in range(k):
        product = [Fraction(0)] * (len(coeffs) + n_r - 1)
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            for j, b in enumerate(base):
                product[i + j] += a * b
        coeffs = product
    return tuple(float(c) for c in coeffs)


def lemma1_identity(m: int, n: int, k: int) -> tuple[int, int]:
    """Both sides of the binomial convolution identity

        C(m+k, n+k) = sum_{i=0}^{min(k, m-n)} C(k, i) * C(m, i+n)

    returned as (lhs, rhs) so callers can assert equality.
    """
    for name, val in (("m", m), ("n", n), ("k", k)):
        if int(val) != val or val < 1:
            raise ValueError(f"{name} must be a positive integer, got {val!r}")
    if m < n:
        raise ValueError(f"identity requires m >= n, got m={m}, n={n}")
    lhs = math.comb(m + k, n + k)
    rhs = sum(math.comb(k, i) * math.comb(m, i + n) for i in range(min(k, m - n) + 1))
    return lhs, rhs
