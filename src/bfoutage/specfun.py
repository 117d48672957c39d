"""Scalar special functions and combinatorial kernels shared by the outage evaluators.

Every function here returns the same value for the same arguments, from any
number of threads at once.  The Poisson-mixture kernel keeps one scratch per
thread (:class:`_Scratch`), which no result it returns shares.

This is the one module that touches ``scipy.special``: the closed forms,
quadrature and verification read it through ``_sc`` here.  The handle imports
``scipy.special`` on its first attribute access, not at import time, because
that import costs about 0.3 s (its array-API layer pulls in ``numpy.f2py``),
more than the rest of the package together.  A process that never evaluates a
special function, such as a Monte Carlo run given rho directly, never pays it.
"""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "CapabilityError",
    "ConvergenceError",
    "bessel_j0",
    "expansion_coeffs",
    "lemma1_identity",
    "noncentral_chi2_cdf",
]


class _LazySpecial:
    """``scipy.special``, imported on the first attribute access.  Each name is
    then cached on the handle, so later lookups never reach __getattr__.  Safe
    from any thread: the import lock serializes the first import, and two
    threads caching the same function is harmless."""

    def __getattr__(self, name: str):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


_sc = _LazySpecial()


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


def bessel_j0(x: float) -> float:
    """J0(x), the zero-order Bessel function of the first kind."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0 needs a finite argument, got {x!r}")
    return float(_sc.j0(x))


def noncentral_chi2_cdf(half_dof: int, half_noncentrality: float, half_argument: float) -> float:
    """CDF of a noncentral chi-square with 2*half_dof degrees of freedom and
    noncentrality 2*half_noncentrality, evaluated at 2*half_argument.

    Scalar form of :func:`_noncentral_chi2_cdf_grid`, which documents the
    series and its truncation.
    """
    return float(
        _noncentral_chi2_cdf_grid(half_dof, float(half_noncentrality), float(half_argument))
    )


#: Truncation of the Poisson-mixture series: each window widens until its
#: unsummed wings are at most _REL_TOL times its sum, and holds at most
#: _MAX_TERMS terms.  The kernel reads both when it runs, so tests may
#: monkeypatch them to reach the window cap and ConvergenceError.
_REL_TOL = 1e-12
_MAX_TERMS = 10_000
#: Entries of one (k offset x element) gather block of series terms, which
#: bound the kernel's scratch memory whatever the grid size: with its
#: gathered copy of both tables, 24 bytes an entry (384 kB).  A window longer
#: than half a block fills a block alone; :func:`_column_sums` sums such a
#: lone element with a running sum.
_BLOCK_ENTRIES = 1 << 14
#: A window from k = 0 is summed by the recurrence of :func:`_recurrence_sums`
#: while its first weight exp(-delta) is a normal double, which holds for
#: delta below -log of the smallest normal double, about 708.4.
_RECURRENCE_DELTA = -math.log(sys.float_info.min)
#: A window whose largest log Poisson weight is below _UNDERFLOW_LOG, past
#: exp's underflow point at about -745.13, sums to exactly 0 and is skipped;
#: only windows with delta below _UNDERFLOW_DELTA are tested
#: (:func:`_underflowing`).
_UNDERFLOW_LOG = -746.0
_UNDERFLOW_DELTA = 2.0**30
#: Elements are summed in bands of this width in delta, so the g_k table of a
#: band spans at most _DELTA_BAND + 3 * _MAX_TERMS values of k.
_DELTA_BAND = 1 << 16
#: First window around the peak of each element's terms.  Below the peak g_k
#: is flat, so the terms fall only as fast as the Poisson weights: the lower
#: half spans _WINDOW_SIGMAS times sqrt(peak), plus _WINDOW_PAD terms for
#: small peaks.  Above it g_k falls too, so the terms fall at least that fast
#: and, when delta > beta, up to sqrt(2) faster: the upper edge lies
#: _UPPER_SIGMAS times their own spread above the peak, rounded up, plus
#: _UPPER_PAD terms, and one term more when delta <= beta, where the terms
#: fall only with the Poisson weights, whose right tail is heavier than a
#: Gaussian's for small peaks.  A 7.5-sigma one-sided Gaussian tail is about
#: 3e-14, below _REL_TOL.  The wing bounds still decide where a window
#: stops; a first window that falls short widens.
_WINDOW_SIGMAS = 10.0
_WINDOW_PAD = 16
_UPPER_SIGMAS = 7.5
_UPPER_PAD = 5
#: A thread's kernel scratch (:class:`_Scratch`) holds _SCRATCH_WORDS rows
#: of eight bytes an element, each read as float64 or as int64, and
#: _SCRATCH_FLAGS rows of bools, with one entry per element of the largest
#: call so far.  A row holds one grid-sized array at a time; arrays that are
#: never live together share it:
#:
#:   0       log delta, in :func:`_poisson_mixture`
#:   1       peak, in :func:`_first_window`; v, in :func:`_recurrence_sums`;
#:           then the budget
#:   2       below; exp(-delta); then log (hi + 1)!, and over it, once the
#:           wing bound has spent it, the upper bound
#:   3       above; delta of the recurrence windows; then g_{hi+1}
#:   4       lengths (int), in :func:`_block_sums`; then the index of hi + 1
#:           (int); log r, in :func:`_upper_wing_bound`; then upper + lower
#:   5       lengths of the recurrence windows (int); the wing bound's
#:           scratch, which ends as t_{hi+1}
#:   6, 7    lo and hi of the first window (int)
#:   flag 0  delta > 0; delta <= beta; lo == 0, in :func:`_block_plan`;
#:           r < 1; then the open windows
#:   flag 1  delta == 0; delta < _RECURRENCE_DELTA; the open test of the
#:           upper wing
_SCRATCH_WORDS = 8
_SCRATCH_FLAGS = 2
#: A thread keeps at most this many bytes of scratch between calls, enough
#: for about 127000 elements; a larger call frees its scratch on return.
_SCRATCH_BYTES = 1 << 23


class _Scratch(threading.local):
    """One thread's grid-sized scratch for the Poisson-mixture kernel, which
    persists across calls and grows only when a call is larger, so a big
    call reuses the pages of the last one instead of faulting freshly
    allocated ones in.  Each row is an array of its own: kept as one block,
    the rows still left the call's other temporaries faulting in afresh
    (with glibc, 1792 minor faults an analytic-grid pass against none).
    Growth leaves arrays handed out earlier on the old rows, which their
    views keep alive, so it never moves live data.  Arrays the kernel's
    helpers return are rows of it, which the thread's next call overwrites."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.size = self.n = 0
        self.words, self.flags, self.views = [], [], ((), (), ())

    def rows(self, n: int):
        """(floats, ints, flags), n entries of each row: floats[i] and
        ints[i] are word row i read as float64 and as int64."""
        if n != self.n:
            if n > self.size:
                self.size = n
                self.words = [np.empty(n) for _ in range(_SCRATCH_WORDS)]
                self.flags = [np.empty(n, dtype=bool) for _ in range(_SCRATCH_FLAGS)]
            floats = tuple(row[:n] for row in self.words)
            ints = tuple(row.view(np.int64) for row in floats)
            self.views = floats, ints, tuple(row[:n] for row in self.flags)
            self.n = n
        return self.views

    def nbytes(self) -> int:
        return self.size * (8 * _SCRATCH_WORDS + _SCRATCH_FLAGS)


_scratch = _Scratch()


def _noncentral_chi2_cdf_grid(
    half_dof: int, half_noncentralities: np.ndarray | float, half_argument: float
) -> np.ndarray:
    """:func:`noncentral_chi2_cdf` over an array of half noncentralities delta
    at a shared half argument beta: the Poisson mixture

        F(delta) = sum_k t_k,    t_k = pois(k; delta) * g_k,    g_k = P(d + k, beta),

    summed over a window of k (Benton & Krishnamoorthy, CSDA 43, 2003; Ding,
    AS 275, 1992).  g_k is computed once per call.  Each element sums its
    terms over a window [lo, hi] centred on their peak, not on the Poisson
    mode: while delta <= beta, g_k stays near 1 up to k ~ delta and the peak
    is near delta; when delta >> beta, g_k falls like beta^k / (d + k)! and
    the peak is near sqrt(delta * beta).  The first window, from
    :func:`_first_window`, is asymmetric about
    peak = min(delta, sqrt(delta * beta)).  Below the peak
    g_k is flat, so the terms fall only as fast as the Poisson weights, and
    the window spans 10 sqrt(peak) + 16 terms.  Above it both factors fall:
    log t_k has curvature -(1/k + 1/(d + k)) once g_k falls like
    beta^k / (d + k)!, so the terms spread over
    sigma^2 = peak (d + peak) / (d + 2 peak) when delta > beta, and over the
    Poisson sigma^2 = peak otherwise.  The upper edge lies 7.5 sigma above
    the peak, rounded up, plus 5 terms, and one more when delta <= beta:
    there the terms fall with the Poisson weights alone, whose right tail is
    heavier than a Gaussian's for small peaks.  Both halves are heuristics
    that only set where summing starts: the wing bounds below decide whether
    a window is done.

    The unsummed terms are bounded rigorously.  Below the window, as g_k
    decreases in k, they are at most P(K < lo) * g_0.  Above it they are at
    most the smaller of two bounds:

    - P(K > hi) * g_{hi+1}, again because g_k decreases;
    - t_{hi+1} / (1 - r) when r < 1, with r = delta * beta / ((hi + 2) (d + hi + 2)).
      By the positive series P(a, x) = x^a e^-x sum_j x^j / Gamma(a + j + 1)
      (DLMF 8.7.1), P(a + 1, x) <= x / (a + 1) * P(a, x) term by term, so for
      k > hi, t_{k+1} / t_k = delta / (k + 1) * g_{k+1} / g_k <= r, and the
      wing is at most the geometric series t_{hi+1} (1 + r + r^2 + ...).

    The Poisson tail P(K > hi) (scipy.special.pdtrc) is evaluated only for
    the elements whose geometric bound plus lower-wing bound exceeds their
    budget, which includes every element with r >= 1.  For the others the
    geometric bound alone meets the budget, so taking the smaller bound
    could not change whether the window stops.

    Each window is summed by one of two routes (:func:`_block_sums`) chosen
    from the element's own lo and delta.  A window from k = 0 whose first
    Poisson weight exp(-delta) is a normal double is summed from its top
    term down in the nested form exp(-delta) (g_0 + delta/1 (g_1 + ...)) of
    AS 275's recurrence p_k = p_{k-1} (delta / k), stepping every open
    window of the call at once (:func:`_recurrence_sums`).  Any other window
    forms its terms as exp(k log delta - delta - log k!) * g_k in blocks
    laid out (k offset, element), one element per column, where a reduce
    down the columns adds each element's terms in order of k while the adds
    of neighbouring elements run side by side.  A window whose every Poisson
    weight underflows to exactly 0 is not summed at all: its sum is exactly
    0.  No route depends on the rest of the call, and neither changes the
    order of any element's operations, so every element's value is the same,
    bit for bit, whatever grid it sits in, and equal to the scalar call.

    A window widens, its lower edge straight toward k = 0, until the bounds
    are at most _REL_TOL times its sum.  With no absolute stopping rule,
    deep-tail values keep their relative accuracy, and an element's value
    depends on its own arguments only.  Raises ConvergenceError, carrying
    the partial sums, when a window would need more than _MAX_TERMS
    terms.

    Each thread keeps its own scratch (:class:`_Scratch`) for the call's
    grid-sized temporaries, 66 bytes an element of its largest call so far
    (2.1 MiB at 32768 elements), so a later call of that size faults in no
    new pages.  It keeps at most _SCRATCH_BYTES (8 MiB); a larger call drops
    its scratch on return.  The returned sums, and the partial sums of a
    ConvergenceError, are new arrays that share no memory with it.
    """
    if int(half_dof) != half_dof or half_dof < 1:
        raise ValueError(f"half_dof must be a positive integer, got {half_dof!r}")
    d = int(half_dof)
    deltas = np.asarray(half_noncentralities, dtype=float)
    beta = float(half_argument)
    delta = deltas.reshape(-1)
    # min and max return nan if any element is nan, and need no grid-sized mask
    top = float(delta.max(initial=0.0))
    if not (delta.min(initial=0.0) >= 0 and math.isfinite(top)):
        raise ValueError("half noncentralities must be finite and >= 0")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"half_argument must be finite and >= 0, got {beta!r}")

    if not delta.size:
        return np.zeros(deltas.shape)
    try:
        if top < _DELTA_BAND:  # every delta in band 0: its partial sums are the result
            sums, converged = _poisson_mixture(d, delta, beta)
            rows = slice(None)
        else:
            sums = np.zeros_like(delta)
            band = np.floor(delta / _DELTA_BAND)
            for b in np.unique(band):
                rows = band == b
                sums[rows], converged = _poisson_mixture(d, delta[rows], beta)
                if not converged:
                    break
    finally:
        if _scratch.nbytes() > _SCRATCH_BYTES:
            _scratch.clear()
    np.clip(sums, 0.0, 1.0, out=sums)
    if not converged:
        raise ConvergenceError(
            f"noncentral chi-square series did not converge within {_MAX_TERMS} "
            f"terms (d={d}, max delta={float(delta[rows].max()):g}, beta={beta:g})",
            sums.reshape(deltas.shape),
        )
    return sums.reshape(deltas.shape)


def _first_window(d: int, delta: np.ndarray, beta: float):
    """(lo, hi), the first window of each element's terms, each half capped at
    (_MAX_TERMS - 1) // 2 terms from floor(peak) (sized in
    :func:`_noncentral_chi2_cdf_grid`)."""
    # The steps write into three float rows of the scratch in place.  The
    # window edges they form are integers below 2^53, so the float
    # arithmetic on them is exact.  sqrt(delta) * sqrt(beta) cannot overflow.
    floats, ints, (poisson, central) = _scratch.rows(delta.size)
    peak, below, above = floats[1:4]
    lo, hi = ints[6:8]
    np.sqrt(delta, out=peak)
    peak *= math.sqrt(beta)
    np.minimum(delta, peak, out=peak)
    _half_width(peak, _WINDOW_SIGMAS, _WINDOW_PAD, out=below)
    # peak (d + peak) / (d + 2 peak), in a form that cannot overflow
    np.add(peak, d, out=above)
    np.divide(peak, above, out=above)
    above += 1.0
    np.divide(peak, above, out=above)
    np.less_equal(delta, beta, out=poisson)
    np.copyto(above, peak, where=poisson)
    # The wing bounds hold wherever a window sits; capping the peak keeps
    # every k exact as a float.
    np.minimum(peak, 2.0**52, out=peak)
    # hi = ceil(peak + sigmas * sqrt(spread)) + pad, one more where
    # delta <= beta: measured from the peak itself and not from its floor,
    # so no window loses a term to rounding
    np.sqrt(above, out=above)
    above *= _UPPER_SIGMAS
    above += peak
    np.ceil(above, out=above)
    centre = np.floor(peak, out=peak)
    above -= centre
    above += _UPPER_PAD
    above += poisson
    np.minimum(above, (_MAX_TERMS - 1) // 2, out=above)
    np.subtract(centre, below, out=below)
    np.copyto(lo, np.maximum(below, 0.0, out=below), casting="unsafe")
    centre += above
    # delta = 0 is the central CDF: the k = 0 term alone, exp(0) * g_0.
    np.copyto(centre, 0.0, where=np.equal(delta, 0, out=central))
    np.copyto(hi, centre, casting="unsafe")
    return lo, hi


def _half_width(spread: np.ndarray, sigmas: float, pad: int, out: np.ndarray) -> np.ndarray:
    """ceil(sigmas * sqrt(spread)) + pad terms, capped at (_MAX_TERMS - 1) // 2,
    as floats formed in out."""
    width = np.sqrt(spread, out=out)
    width *= sigmas
    np.ceil(width, out=width)
    width += pad
    return np.minimum(width, (_MAX_TERMS - 1) // 2, out=width)


def _poisson_mixture(d: int, delta: np.ndarray, beta: float):
    """Partial sums of the mixture series for each element, and whether
    every element met its bound within _MAX_TERMS terms."""
    floats, _, bools = _scratch.rows(delta.size)
    log_delta = floats[0]
    log_delta.fill(0.0)
    np.log(delta, out=log_delta, where=np.greater(delta, 0, out=bools[0]))
    g0 = float(_sc.gammainc(d, beta))
    lo, hi = _first_window(d, delta, beta)
    # Each round sums, bounds and widens only the windows still open: rows
    # indexes them in partial, which is the first round's sums, and delta,
    # log_delta, lo and hi shrink to them.
    partial = rows = None
    while True:
        k0 = int(lo.min())
        tables = _series_tables(d, beta, np.arange(k0, hi.max() + 2))
        sums = _block_sums(lo, hi, delta, log_delta, k0, tables)
        if rows is None:
            partial = sums
        else:
            partial[rows] = sums
        # P(K < lo) g_0, which is 0 for a window from k = 0, and for all of
        # them at once when every window starts there
        inner = np.flatnonzero(lo)
        lower = 0.0
        if inner.size:
            lower = np.zeros_like(delta)
            lower[inner] = _sc.pdtr(lo[inner] - 1, delta[inner]) * g0
        floats, ints, bools = _scratch.rows(delta.size)
        budget, log_fact_next, g_next = floats[1:4]
        np.multiply(_REL_TOL, sums, out=budget)
        at_next = np.add(hi, 1 - k0, out=ints[4])
        _take(tables[0], at_next, log_fact_next)
        _take(tables[1], at_next, g_next)
        upper = _upper_wing_bound(d, delta, log_delta, beta, hi, log_fact_next, g_next,
                                  lower, budget)
        todo = np.greater(np.add(upper, lower, out=floats[4]), budget, out=bools[0])
        if not todo.any():
            return partial, True
        new_lo = np.where(lower > 0.5 * budget, np.maximum(hi - _MAX_TERMS + 1, 0), lo)
        new_hi = np.where(upper > 0.5 * budget, 2 * hi - lo + 1, hi)
        new_hi = np.minimum(new_hi, new_lo + _MAX_TERMS - 1)
        if np.any(todo & (new_lo == lo) & (new_hi == hi)):
            return partial, False
        rows = np.flatnonzero(todo) if rows is None else rows[todo]
        delta, log_delta = delta[todo], log_delta[todo]
        lo, hi = new_lo[todo], new_hi[todo]


def _take(values: np.ndarray, at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[at], written into out.  Every index the kernel takes is in
    range, so mode "clip" never acts; it lets take write straight into out,
    which the default mode "raise" would fill through a buffer."""
    return values.take(at, out=out, mode="clip")


def _series_tables(d: int, beta: float, k: np.ndarray) -> np.ndarray:
    """log k! and g_k = P(d + k, beta) over a run of k, the two rows of one
    array, each followed by as many padding entries with log k! = +inf and
    g_k = 0, whose terms are exactly exp(-inf) * 0 = 0.  A window inside the
    run is no longer than the run, so :func:`_block_sums` reads no further
    than the padding."""
    tables = np.empty((2, 2 * k.size))
    log_fact, g = tables
    _sc.gammaln(k + 1.0, out=log_fact[: k.size])
    _sc.gammainc(d + k, beta, out=g[: k.size])
    log_fact[k.size :], g[k.size :] = np.inf, 0.0
    return tables


def _upper_wing_bound(d: int, delta: np.ndarray, log_delta: np.ndarray, beta: float,
                      hi: np.ndarray, log_fact_next, g_next, lower: np.ndarray,
                      budget: np.ndarray) -> np.ndarray:
    """Bound on sum_{k > hi} t_k for each element, given log_fact_next =
    log (hi + 1)! and g_next = g_{hi+1}, read from :func:`_series_tables`:
    the smaller of P(K > hi) * g_{hi+1} and, where r < 1, t_{hi+1} / (1 - r)
    (derived in :func:`_noncentral_chi2_cdf_grid`).  Where the geometric
    bound plus the lower-wing bound already meets the budget, P(K > hi) is
    not evaluated and the geometric bound is returned: the stop test
    `upper + lower > budget` comes out the same for either bound.

    log_delta is the mixture's own, 0 where delta = 0.  There hi = 0 and
    P(K > 0) = 0, so any bound that does not meet the budget falls to 0.
    """
    log_beta = math.log(beta) if beta > 0 else -math.inf
    # r is formed in logs, as delta * beta overflows for delta near 1e300:
    # log delta + log beta - log(hi + 2) - log(d + hi + 2), with each log
    # formed in one array and every integer exact as a float
    floats, _, (shrinks, open_test) = _scratch.rows(delta.size)
    # upper takes the row of log_fact_next in the kernel, and is first
    # written once t_{hi+1} has spent log_fact_next
    upper, log_r, scratch = floats[2], floats[4], floats[5]
    np.add(log_delta, log_beta, out=log_r)
    np.add(hi, 2.0, out=scratch)
    log_r -= np.log(scratch, out=scratch)
    np.add(hi, d + 2.0, out=scratch)
    log_r -= np.log(scratch, out=scratch)
    # t_{hi+1} = exp((hi + 1) log delta - delta - log (hi + 1)!) g_{hi+1}
    t_next = np.add(hi, 1.0, out=scratch)
    t_next *= log_delta
    t_next -= delta
    t_next -= log_fact_next
    np.exp(t_next, out=t_next)
    t_next *= g_next
    # t_{hi+1} / (1 - r) where r < 1, and inf elsewhere
    np.less(log_r, 0, out=shrinks)
    upper.fill(np.inf)
    np.expm1(log_r, out=log_r, where=shrinks)
    np.negative(log_r, out=log_r, where=shrinks)
    np.divide(t_next, log_r, out=upper, where=shrinks)
    # log_r is spent
    open_ = np.flatnonzero(np.greater(np.add(upper, lower, out=log_r), budget, out=open_test))
    upper[open_] = np.minimum(_sc.pdtrc(hi[open_], delta[open_]) * g_next[open_], upper[open_])
    return upper


def _underflowing(lo, hi, delta, log_delta, k0, log_fact) -> np.ndarray:
    """Whether every Poisson weight exp(k log delta - delta - log k!) of each
    window [lo, hi] is exactly 0 as the gather blocks of :func:`_block_sums`
    form it, given log k! from k = k0 on.  A window of the recurrence holds
    k = 0, whose weight exp(-delta) is normal, so it never counts.

    The log weight rises up to the mode floor(delta) and falls after it, so
    its largest value on a window is at the mode clipped into the window;
    only that one log weight is formed.  exp is exactly 0 below about
    -745.13, and a window counts when that log weight is below
    _UNDERFLOW_LOG.  The kernel's windows end fewer than _MAX_TERMS terms
    past delta, so while delta < _UNDERFLOW_DELTA, k log delta, delta and
    log k! stay below 3e10 on every window, and each log weight the kernel
    forms is within 1e-4 of its exact value, far inside that margin; a
    larger delta never counts.  Subnormal weights are not 0 and still summed.
    """
    if not lo.any() and delta.max() < -_UNDERFLOW_LOG:
        # every window holds k = 0, whose log weight -delta is above the limit
        return np.zeros(lo.shape, dtype=bool)
    mode = np.floor(delta)
    np.clip(mode, lo, hi, out=mode)
    at_mode = mode.astype(np.intp)
    at_mode -= k0
    log_weight = np.multiply(mode, log_delta, out=mode)
    log_weight -= delta
    log_weight -= log_fact[at_mode]
    return (log_weight < _UNDERFLOW_LOG) & (delta < _UNDERFLOW_DELTA)


def _block_sums(lo, hi, delta, log_delta, k0, tables) -> np.ndarray:
    """sum_{k=lo_i}^{hi_i} pois(k; delta_i) * g_k for each element i, with
    tables from :func:`_series_tables` starting at k = k0.
    :func:`_block_plan` picks each window's route from its own lo, hi and
    delta: a window whose Poisson weights all underflow to exactly 0
    (:func:`_underflowing`) takes none and sums to 0.

    A window from k = 0 with delta below _RECURRENCE_DELTA is summed
    nested by :func:`_recurrence_sums`, with one exp and no log k! table.
    Every other window forms its terms as exp((k log delta - delta) -
    log k!) * g_k in gather blocks.  A block is laid out (k offset,
    element): column i holds element i's terms at k = lo_i + j for j = 0
    ... n0 - 1, where n0 is the block's longest window, its first; a shorter
    column runs on past hi_i into later table entries or the padding.  One
    gather reads both tables for every column from a read-only strided view,
    whose entry [:, j, m] is both tables at k = k0 + m + j, and the terms are
    formed in place in one scratch block of up to _BLOCK_ENTRIES terms.  k
    is lo_i + j, an integer below 2^52 and exact as a float.

    Each gather block is summed by :func:`_column_sums`: a reduce down the
    columns adds the rows that every column has, and a masked reduce
    continues from those sums over the ragged rows, leaving out each
    column's terms past hi_i.  With two or more columns, numpy adds a block
    row after row into the vector of sums, so each element gets 0 + t_lo +
    t_{lo+1} + ..., in order of k, however the block splits.  A lone column
    (a one-element call, a window longer than half a block, or a last
    element left alone in its block) would be summed pairwise by that
    reduce, so it takes a running sum instead, which adds in the same order.
    """
    lengths = np.subtract(hi, lo, out=_scratch.rows(lo.size)[1][4])
    lengths += 1
    sums = np.zeros(lengths.shape)
    zero = _underflowing(lo, hi, delta, log_delta, k0, tables[0])
    recur, blocks = _block_plan(lo, delta, lengths, zero)
    if recur.size:  # some window starts at k = 0, so the tables do too
        floats, ints, _ = _scratch.rows(recur.size)
        sums[recur] = _recurrence_sums(_take(delta, recur, floats[3]),
                                       _take(lengths, recur, ints[5]), tables[1])
    if not blocks:
        return sums
    width = int(lengths[blocks[0][0]])  # the blocks run longest window first
    at = lo - k0 if k0 else lo  # each window's first entry in the tables
    # runs[:, j, m] is both tables at k = k0 + m + j; the constructor checks
    # that the view stays inside the tables
    step = tables.strides[1]
    runs = np.ndarray((2, width, tables.shape[1] - width + 1), buffer=tables,
                      strides=(tables.strides[0], step, step))
    runs.flags.writeable = False
    j = np.arange(width, dtype=float)[:, None]
    scratch = np.empty(max(int(lengths[rows[0]]) * rows.size for rows in blocks))
    for rows in blocks:
        n0 = int(lengths[rows[0]])
        w = scratch[: n0 * rows.size].reshape(n0, rows.size)
        log_fact, g = runs[:, :n0, at[rows]]
        np.add(lo[rows], j[:n0], out=w)
        w *= log_delta[rows]
        w -= delta[rows]
        w -= log_fact
        np.exp(w, out=w)
        w *= g
        sums[rows] = _column_sums(w, lengths[rows], j)
    return sums


def _block_plan(lo, delta, lengths, zero):
    """The routes of :func:`_block_sums`, as (recur, blocks): recur indexes
    the windows summed by the recurrence, and blocks is a list of index
    arrays, one per gather block, for the rest but the underflowing ones
    that zero marks.  Each holds its elements longest window first, ties in
    input order.  An element takes the recurrence when its window starts at
    k = 0 and delta is below _RECURRENCE_DELTA, whatever else the call holds."""
    # a small unsigned key sorts by radix, and width - lengths fits it, so
    # it is formed in that type
    width = int(lengths.max())
    key = np.subtract(width, lengths, dtype=np.min_scalar_type(width), casting="unsafe")
    order = np.argsort(key, kind="stable")
    starts, low = _scratch.rows(lo.size)[2]
    np.equal(lo, 0, out=starts)
    starts &= np.less(delta, _RECURRENCE_DELTA, out=low)
    recur = starts[order]
    if recur.all():
        return order, []
    return order[recur], list(_blocks(order[~(recur | zero[order])], lengths, _BLOCK_ENTRIES))


def _recurrence_sums(delta, lengths, g) -> np.ndarray:
    """sum_{k < lengths_i} pois(k; delta_i) g_k for windows from k = 0, in
    the nested form exp(-delta_i) (g_0 + delta_i/1 (g_1 + delta_i/2 (...)))
    of the weights p_k = p_{k-1} (delta_i / k): from each window's top term
    down, v = (v + g_k) / k * delta_i, then g_0 and one exp.  No partial
    value exceeds e^delta_i, a double while delta_i < _RECURRENCE_DELTA;
    g holds g_k from k = 0 on.

    lengths descends, so the windows that hold k are a prefix, and a step
    of k is three in-place operations over it (v = 0 before a window
    opens).  A lone longest window's top steps take Python floats, which
    round as numpy does."""
    # open_[k] counts the windows longer than k terms
    open_ = (lengths.size - np.cumsum(np.bincount(lengths))).tolist()
    k, x, delta_0 = len(open_) - 2, 0.0, float(delta[0])
    g_k = g[: k + 1].tolist()
    while k > 0 and open_[k] == 1:
        x = (x + g_k[k]) / k * delta_0
        k -= 1
    v, first = _scratch.rows(delta.size)[0][1:3]
    v.fill(0.0)
    v[0] = x
    for k in range(k, 0, -1):
        w = v[: open_[k]]
        w += g_k[k]
        w /= k
        w *= delta[: open_[k]]
    v += g_k[0]
    v *= np.exp(np.negative(delta, out=first), out=first)
    return v


def _blocks(order, lengths, entries: int):
    """Consecutive runs of order, longest window first, each holding as many
    elements as entries terms of its first window allow, and at least one."""
    start = 0
    while start < order.size:
        stop = start + max(1, entries // int(lengths[order[start]]))
        yield order[start:stop]
        start = stop


def _column_sums(w, lengths, j) -> np.ndarray:
    """The sum of the first lengths[c] entries of each column c of w, added
    0 + w[0, c] + w[1, c] + ... in order of rows.  lengths is descending and
    w has lengths[0] rows; j is the float row index as a column.

    The rows up to the shortest length m are reduced unmasked, which starts
    from row 0 itself rather than 0 + row 0: the same floats, as no term is
    -0.  Those partial sums overwrite row m - 1, and the masked reduce over
    rows m - 1 on adds the ragged rest to them in order."""
    n, m = w.shape[0], int(lengths[-1])
    if w.shape[1] == 1:
        return np.cumsum(w[:, 0])[-1]
    if m == n:
        return np.add.reduce(w, axis=0)
    w[m - 1] = np.add.reduce(w[:m], axis=0)
    return np.add.reduce(w[m - 1 :], axis=0, where=j[m - 1 : n] < lengths, initial=0.0)


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
