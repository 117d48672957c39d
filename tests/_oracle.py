"""Scalar reference implementations that the vectorized package code is
checked against.

A trial-by-trial model of channel draws, aging and selection: the
independent implementation that TestPerTrialOracle checks the vectorized
simulator against, so the simulator must never call it.  The matched filter
needs no codebook here: its beam is h/||h||.

RVQ selection one trial at a time, which channel._select_rvq must match to
a few ulps: every candidate is normalised first.

The multiuser selection sum as a scalar (k, m, n) loop, which the array
form in bfoutage.analytic must equal bit for bit.

The Poisson-mixture window sums one element at a time, which both routes of
bfoutage.specfun must equal bit for bit: windows from k = 0 nested from
their top term down, the rest term by term in order of k.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from bfoutage.channel import RngStream
from bfoutage.codebook import Codebook
from bfoutage.specfun import expansion_coeffs


def complex_normal(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """i.i.d. CN(0,1) entries from shape + (2,) standard normal (re, im) pairs."""
    z = gen.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)


@dataclass(frozen=True)
class SelectionOutcome:
    beam_index: int
    gain: float
    user_index: int = 0
    tradeoff: float | None = None  # fraction of ||h||^2 captured; always <= 1


def draw_channel(rng: RngStream, n_t: int, n_r: int = 1) -> np.ndarray:
    """One (n_t, n_r) matrix of i.i.d. CN(0,1) entries."""
    if n_t < 1 or n_r < 1:
        raise ValueError("antenna counts must be >= 1")
    return complex_normal(rng.generator(), (int(n_t), int(n_r)))


def draw_user_channels(rng: RngStream, n_u: int, n_t: int, n_r: int = 1) -> np.ndarray:
    """Per-user channel stack of shape (n_u, n_t, n_r), i.i.d. CN(0,1)."""
    if n_u < 1 or n_t < 1 or n_r < 1:
        raise ValueError("user and antenna counts must be >= 1")
    return complex_normal(rng.generator(), (int(n_u), int(n_t), int(n_r)))


def age_channel(h: np.ndarray, rho: float, rng: RngStream) -> np.ndarray:
    """Apply one aging step: rho * h + sqrt(1 - rho^2) * e with fresh e."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    h = np.asarray(h)
    if rho == 1.0:
        return h.copy()
    e = complex_normal(rng.generator(), h.shape)
    return rho * h + math.sqrt(1.0 - rho * rho) * e


def tas_codebook(n_t: int) -> Codebook:
    return Codebook(scheme="TAS", n_t=int(n_t), vectors=np.eye(int(n_t), dtype=complex))


def select_beamformer(h: np.ndarray, cb: Codebook) -> SelectionOutcome:
    """Pick the codebook vector maximizing |<h, p>|^2; ties go to the lowest
    index.  The tradeoff field reports gain / ||h||^2."""
    h = np.asarray(h).reshape(-1)
    if h.shape[0] != cb.n_t:
        raise ValueError(f"channel has {h.shape[0]} entries but codebook expects {cb.n_t}")
    total = float(np.sum(np.abs(h) ** 2))
    gains = np.abs(cb.vectors @ h.conj()) ** 2
    idx = int(np.argmax(gains))
    gain = float(gains[idx])
    tradeoff = gain / total if total > 0 else None
    return SelectionOutcome(beam_index=idx, gain=gain, tradeoff=tradeoff)


def select_rvq(h: np.ndarray, vecs: np.ndarray) -> tuple[int, float, np.ndarray]:
    """RVQ selection for one channel h (n_t,) among the candidates vecs
    (N, n_t): normalise every candidate to v, take the first argmax of
    |<h, v>|^2 and return (its index, that power, the projection <h, v> v)."""
    unit = vecs / np.sqrt(np.sum(np.abs(vecs) ** 2, axis=1, keepdims=True))
    inner = unit.conj() @ h
    power = np.abs(inner) ** 2
    k = int(np.argmax(power))
    return k, float(power[k]), inner[k] * unit[k]


def select_user_antenna(channels: np.ndarray) -> SelectionOutcome:
    """Max per-antenna row norm over all (user, antenna) pairs.

    channels has shape (n_u, n_t, n_r); ties resolve to the lowest
    (user, antenna) pair in lexicographic order.
    """
    ch = np.asarray(channels)
    if ch.ndim != 3 or ch.shape[0] < 1:
        raise ValueError("channels must be a nonempty (n_u, n_t, n_r) stack")
    norms = np.sum(np.abs(ch) ** 2, axis=2)  # (n_u, n_t)
    flat = int(np.argmax(norms))  # first occurrence = lowest (user, antenna)
    user, antenna = divmod(flat, ch.shape[1])
    return SelectionOutcome(beam_index=antenna, user_index=user, gain=float(norms[user, antenna]))


def select_user_maxnorm(channels: np.ndarray) -> SelectionOutcome:
    """Max vector norm over users; channels has shape (n_u, n_t)."""
    ch = np.asarray(channels)
    if ch.ndim != 2 or ch.shape[0] < 1:
        raise ValueError("channels must be a nonempty (n_u, n_t) stack")
    norms = np.sum(np.abs(ch) ** 2, axis=1)
    user = int(np.argmax(norms))
    return SelectionOutcome(beam_index=0, user_index=user, gain=float(norms[user]))


def nu_cdf(nu, n: int, n_t: int):
    """CDF matching codebook.nu_pdf: (1 - (1-nu)^(n_t-1))^n."""
    if n < 1:
        raise ValueError("codebook cardinality must be >= 1")
    if n_t < 2:
        raise ValueError("nu_cdf needs n_t >= 2")
    nu_arr = np.asarray(nu, dtype=float)
    if np.any((nu_arr < 0) | (nu_arr > 1)):
        raise ValueError("nu must lie in [0, 1]")
    val = (1.0 - (1.0 - nu_arr) ** (n_t - 1)) ** n
    return float(val) if val.ndim == 0 else val


def selection_diversity_sum(pool: int, shape: int, mu, beta: float):
    """The multiuser selection sum as a scalar (k, m, n) triple loop: the
    reference that analytic._selection_diversity_sum must equal bit for bit."""
    mu = np.asarray(mu, dtype=float)
    total = np.zeros_like(mu)
    d = shape
    for k in range(pool):
        a = expansion_coeffs(d, k)
        arg = (1 + k) * beta / (1.0 + k + mu)
        gam = [sc.gammainc(d + n, arg) for n in range(len(a))]
        inner = np.zeros_like(mu)
        for m, a_m in enumerate(a):
            if a_m == 0.0:
                continue
            prefix = math.factorial(m) * a_m / (1.0 + k + mu) ** m
            s = np.zeros_like(mu)
            for n in range(m + 1):
                s = s + (
                    mu ** n
                    * math.factorial(d + n - 1)
                    / (math.factorial(n) * (1 + k) ** (d + n))
                    * math.comb(d + m - 1, d + n - 1)
                ) * gam[n]
            inner = inner + prefix * s
        total = total + math.comb(pool - 1, k) * (-1) ** k * inner
    return pool / math.factorial(d - 1) * total


#: A window from k = 0 forms its Poisson weights by recurrence while
#: exp(-delta) is a normal double.
RECURRENCE_DELTA = -math.log(sys.float_info.min)


def window_sums(d: int, beta: float, lo, hi, delta) -> np.ndarray:
    """sum_{k=lo_i}^{hi_i} pois(k; delta_i) * P(d + k, beta) for each element
    i: the reference that specfun._block_sums must equal bit for bit.  A
    window from k = 0 with delta_i below RECURRENCE_DELTA is summed nested,
    exp(-delta_i) (g_0 + delta_i/1 (g_1 + delta_i/2 (g_2 + ...))): from
    k = hi_i down, v = (v + g_k) / k * delta_i, then v + g_0, multiplied by
    exp(-delta_i) from numpy's exp on an array.  Any other forms each term
    by the same numpy ufuncs on a 1-D array as
    exp(k log delta_i - delta_i - log k!) * P(d + k, beta), and adds the
    terms one at a time in order of k."""
    sums = np.empty(len(lo))
    nested = []
    for i, (lo_i, hi_i, delta_i) in enumerate(zip(lo, hi, delta)):
        k = np.arange(lo_i, hi_i + 1)
        g = sc.gammainc(d + k, beta)
        if lo_i == 0 and delta_i < RECURRENCE_DELTA:
            total = 0.0
            for k_i in range(hi_i, 0, -1):
                total = (total + g[k_i]) / k_i * delta_i
            sums[i] = total + g[0]
            nested.append(i)
            continue
        log_delta = np.log(delta_i) if delta_i > 0 else 0.0
        total = 0.0
        for t in np.exp(k * log_delta - delta_i - sc.gammaln(k + 1.0)) * g:
            total = total + t
        sums[i] = total
    sums[nested] *= np.exp(-np.asarray(delta, dtype=float)[nested])
    return sums
