"""Closed-form outage evaluators, an independent quadrature engine, diversity
slopes, and codebook-size search.

Two deterministic evaluation paths are kept deliberately separate so they can
cross-check each other (with Monte Carlo as the third, fully independent
arbiter):

* closed forms: finite sums obtained by collapsing the Poisson-mixture
  integral over the selected-gain density analytically;
* quadrature: Gauss-Legendre integration of the conditional outage (a
  noncentral chi-square CDF) against the same gain density.

Known transcription defects in the single-user closed forms are kept
available as "verbatim" variants; the shipped default is the variant that
survives Monte Carlo arbitration (see the verification module).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import channel
from .channel import SystemConfig, db_to_linear, derive_params
from .codebook import nu_pdf
from .specfun import CapabilityError, _noncentral_chi2_cdf_grid, _sc, expansion_coeffs

__all__ = [
    "AccuracyError",
    "CodebookSizeResult",
    "GainDistribution",
    "OutageEstimate",
    "RangeError",
    "SCHEMES",
    "SchemeId",
    "SchemeRecord",
    "UnderflowError",
    "diversity_order",
    "gain_distribution",
    "min_codebook_size",
    "outage_closed",
    "outage_mupbf_closed",
    "outage_murvq_closed",
    "outage_mutas_closed",
    "outage_pbf_closed",
    "outage_rvq_closed",
    "outage_semianalytic",
    "outage_tas_closed",
    "scheme_uses_codebook",
    "validate_scheme",
]

_TAIL_TARGET = 1e-12  # gain-axis truncation leaves less mass than this
_TAIL_LIMIT = 1e-10  # hard accuracy bound on the truncated tail
_MASS_TOL = 1e-8  # quadrature must recover the density mass this well
_CLIP_MARGIN = 1e-9  # a corrected closed form further outside [0, 1] raises
# Gauss-Legendre nodes on the gain axis and on the captured-fraction axis.
# Each is read when an evaluation runs, so tests may monkeypatch it.
_GAIN_NODES = 256
_NU_NODES = 128
# Largest pool of the selection sum: C(pool - 1, k) overflows a float for
# some k from pool 1031 on.
_MAX_SELECTION_POOL = 1030
# Largest shape whose density is formed as x^(s-1) e^-x / (s-1)!: past it,
# x^(s-1) overflows at the quadrature's upper cut, so the density is formed
# in logs.
_POWER_PDF_SHAPE = 131
# The captured-fraction rule (nodes, weights, density) where nu is identically
# 1, without a codebook or with one transmit antenna: one node, read-only.
_ONE_NODE_RULE = (np.ones(1),) * 3
_ONE_NODE_RULE[0].flags.writeable = False


class AccuracyError(ArithmeticError):
    """An accuracy guard failed: a quadrature's tail mass or density mass,
    or a closed form that cancelled to a value outside [0, 1]."""


class RangeError(ArithmeticError):
    """A result underflowed past the representable range."""


class UnderflowError(AccuracyError, RangeError):
    """Quadrature returned zero for a delayed model, whose outage is positive:
    the gain nodes miss the integrand, which may itself lie below the range."""


class SchemeId(Enum):
    MISO_PBF = "miso-pbf"
    MISO_RVQ = "miso-rvq"
    MISO_TAS = "miso-tas"
    MU_TAS = "mu-tas"
    MU_PBF = "mu-pbf"
    MU_RVQ = "mu-rvq"


@dataclass(frozen=True)
class SchemeRecord:
    """What a scheme is, for every evaluation path.  Monte Carlo reads fixed,
    uses_codebook and link; quadrature reads law; the closed form reads
    ideal, aged, variants and flag."""

    fixed: tuple[str, ...]  # config fields the scheme fixes at 1
    uses_codebook: bool  # needs a codebook cardinality >= 1; the others ignore it
    link: Callable  # the simulator's link model (see the channel module)
    law: Callable[[SystemConfig], GainDistribution]  # selected-gain law
    ideal: Callable  # (config, gamma0) -> outage at rho = 1
    aged: Callable  # (config, mu, beta, variant) -> finite sum in the aging ratio mu
    variants: tuple[str, ...] = ("corrected",)  # formula variants of aged, default first
    flag: str = ""  # flag of an aged value; "{}" takes the variant


PBF_VARIANTS = ("corrected", "factorial", "verbatim")
TAS_VARIANTS = ("corrected", "verbatim")

# The multiuser closed forms model delayed selection feedback: the user (and
# antenna, for TAS) are picked on the stale estimate, while the effective
# aged gain keeps the full receive- or transmit-side combining diversity.
# With one user there is nothing to select, so mu-pbf reduces to ideal
# matched-filter beamforming (miso-pbf at rho = 1) and mu-rvq to the
# captured-fraction average of P(n_t, gamma0 / (1 - rho^2 (1 - nu))), which is
# miso-rvq at rho = 1; neither is the stale matched-filter MISO form when
# rho < 1.  Their aged values carry a flag saying which model they use.
_DUAL_FLAG = "selection-delay-dual"

# One closed-form body, outage_closed, reads ideal and aged.  The per-scheme
# names (outage_pbf_closed, ...) are entry points into it; they stay for
# their callers and for the benchmark tracer, which wraps them by name.
SCHEMES = {
    SchemeId.MISO_PBF: SchemeRecord(
        ("n_r", "n_u"), False, channel.link_miso_pbf, lambda c: GainDistribution(1, c.n_t, 1),
        ideal=lambda c, g: _sc.gammainc(c.n_t, g),
        aged=lambda c, mu, beta, v: _matched_filter_sum(c.n_t, mu, beta, v),
        variants=PBF_VARIANTS, flag="coefficient-{}"),
    SchemeId.MISO_RVQ: SchemeRecord(
        ("n_r", "n_u"), True, channel.link_miso_rvq, lambda c: GainDistribution(1, c.n_t, 1),
        ideal=lambda c, g: _sc.gammainc(c.n_t, g),
        aged=lambda c, mu, beta, v: _matched_filter_sum(c.n_t, mu, beta, v),
        flag="coefficient-{}"),
    SchemeId.MISO_TAS: SchemeRecord(
        ("n_r", "n_u"), False, channel.link_miso_tas, lambda c: GainDistribution(c.n_t, 1, 1),
        ideal=lambda c, g: (-math.expm1(-g)) ** c.n_t,
        aged=lambda c, mu, beta, v: _antenna_selection_sum(c.n_t, mu, beta, v),
        variants=TAS_VARIANTS, flag="exponent-{}"),
    SchemeId.MU_TAS: SchemeRecord(
        (), False, channel.link_mu_tas, lambda c: GainDistribution(c.n_u * c.n_t, c.n_r, c.n_r),
        ideal=lambda c, g: float(_sc.gammainc(c.n_r, g)) ** (c.n_u * c.n_t),
        aged=lambda c, mu, beta, v: _selection_diversity_sum(c.n_u * c.n_t, c.n_r, mu, beta)),
    SchemeId.MU_PBF: SchemeRecord(
        ("n_r",), False, channel.link_mu_pbf, lambda c: GainDistribution(c.n_u, c.n_t, c.n_t),
        ideal=lambda c, g: _sc.gammainc(c.n_t, g) ** c.n_u,
        aged=lambda c, mu, beta, v: _selection_diversity_sum(c.n_u, c.n_t, mu, beta),
        flag=_DUAL_FLAG),
    SchemeId.MU_RVQ: SchemeRecord(
        ("n_r",), True, channel.link_mu_rvq, lambda c: GainDistribution(c.n_u, c.n_t, c.n_t),
        ideal=lambda c, g: _sc.gammainc(c.n_t, g) ** c.n_u,
        aged=lambda c, mu, beta, v: _selection_diversity_sum(c.n_u, c.n_t, mu, beta),
        flag=_DUAL_FLAG),
}


def scheme_uses_codebook(scheme: SchemeId) -> bool:
    return SCHEMES[scheme].uses_codebook


def validate_scheme(
    scheme: SchemeId, config: SystemConfig, codebook_size: int | None = None
) -> SchemeRecord:
    """The scheme's record, once config has the shape the scheme fixes and,
    for a codebook scheme, codebook_size is at least 1."""
    record = SCHEMES[scheme]
    if any(getattr(config, name) != 1 for name in record.fixed):
        fixed = " and ".join(f"{name} = 1" for name in record.fixed)
        raise ValueError(f"{scheme.value} requires {fixed}")
    if record.uses_codebook and (codebook_size is None or codebook_size < 1):
        raise ValueError(f"{scheme.value} needs a codebook cardinality >= 1")
    return record


@dataclass(frozen=True)
class OutageEstimate:
    value: float
    method: str  # "closed_form" | "quadrature" | "monte_carlo"
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class GainDistribution:
    """Selected effective gain: the maximum of pool_size i.i.d. Gamma(shape, 1)
    candidates, paired with the conditional aged-gain half-dof d."""

    pool_size: int
    shape: int
    half_dof: int

    def pdf(self, x):
        s, z = self.shape, self.pool_size
        x = np.asarray(x, dtype=float)
        if s <= _POWER_PDF_SHAPE:
            base = x ** (s - 1) * np.exp(-x) / math.factorial(s - 1)
        else:
            base = np.exp((s - 1) * np.log(x) - x - math.lgamma(s))
        if z == 1:
            return base
        return z * base * _sc.gammainc(s, x) ** (z - 1)

    def cdf(self, x):
        return _sc.gammainc(self.shape, np.asarray(x, dtype=float)) ** self.pool_size

    def upper_cut(self) -> float:
        """The gain below which all but _TAIL_TARGET of the mass lies.  For
        a large pool the per-candidate level rounds to 1 and the cut would
        be infinite, which raises CapabilityError."""
        target = (1.0 - _TAIL_TARGET) ** (1.0 / self.pool_size)
        cut = float(_sc.gammaincinv(self.shape, target))
        if not math.isfinite(cut):
            raise CapabilityError(
                f"gain pool {self.pool_size} is too large for the quadrature's gain axis")
        return cut


def gain_distribution(
    scheme: SchemeId, config: SystemConfig, codebook_size: int | None = None
) -> GainDistribution:
    return validate_scheme(scheme, config, codebook_size).law(config)


@lru_cache(maxsize=16)
def _gl_base(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, since every
    call shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_nodes(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_base(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _nu_grid(n: int, n_t: int):
    """Gauss-Legendre nodes nu and weights w on [0, 1] and the
    captured-fraction density f at the nodes, once the rule recovers the
    density's unit mass to _MASS_TOL."""
    nu, w = _gl_nodes(_NU_NODES, 0.0, 1.0)
    f = nu_pdf(nu, n, n_t)
    mass = float(w @ f)
    if abs(mass - 1.0) > _MASS_TOL:
        raise AccuracyError(f"quantization-factor density mass {mass!r} deviates from 1")
    return nu, w, f


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


def outage_semianalytic(
    scheme: SchemeId, config: SystemConfig, codebook_size: int | None = None
) -> OutageEstimate:
    """Outage by numeric integration of the conditional outage against the
    selected-gain density, then against the captured-fraction density on a
    nu rule: _nu_grid for an RVQ scheme with n_t > 1, and for every other
    scheme, whose nu is identically 1, the one node nu = 1 of weight 1.  At
    rho = 1 the gain integral degenerates to the gain CDF at gamma0 / nu."""
    dist = gain_distribution(scheme, config, codebook_size)
    params = derive_params(config)
    nu, w_nu, f_nu = (_nu_grid(codebook_size, config.n_t)
                      if scheme_uses_codebook(scheme) and config.n_t > 1 else _ONE_NODE_RULE)

    if params.no_delay:
        value = float(w_nu @ (f_nu * dist.cdf(params.gamma0 / nu)))
        return OutageEstimate(value=min(max(value, 0.0), 1.0), method="quadrature")

    if not math.isfinite(params.beta):
        raise CapabilityError(
            f"aged threshold beta = gamma0 / (1 - rho^2) is past the float range "
            f"(gamma0 {params.gamma0:g}, rho {config.rho!r})")
    cut = dist.upper_cut()
    tail = 1.0 - float(dist.cdf(cut))
    if tail > _TAIL_LIMIT:
        raise AccuracyError(f"truncated gain tail mass {tail:g} exceeds {_TAIL_LIMIT:g}")
    x, w = _gl_nodes(_GAIN_NODES, 0.0, cut)
    pdf = dist.pdf(x)
    mass = float(w @ pdf)
    if abs(mass - (1.0 - tail)) > _MASS_TOL:
        raise AccuracyError(f"gain density mass {mass!r} deviates from {1.0 - tail!r}")

    cond = _noncentral_chi2_cdf_grid(dist.half_dof, params.mu * nu[:, None] * x, params.beta)
    value = float(w_nu @ (f_nu * (cond @ (w * pdf))))
    if value <= 0.0:
        raise UnderflowError(f"quadrature underflowed to 0 although rho < 1 (beta {params.beta:g})")
    return OutageEstimate(value=min(max(value, 0.0), 1.0), method="quadrature")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _matched_filter_sum(n_t: int, mu, beta: float, variant: str):
    """Finite-sum outage of the stale matched-filter beamformer with a
    Gamma(n_t) stale gain and aging ratio mu (vectorized over mu).

    The "corrected" coefficient mu^k is the Monte-Carlo-arbitrated form;
    "factorial" (mu^k / k!) and "verbatim" (mu^k / (k-1), evaluated under
    IEEE semantics) are retained as diagnostic variants.
    """
    mu = np.asarray(mu, dtype=float)
    arg = beta / (1.0 + mu)
    total = np.zeros_like(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_t):
            if variant == "corrected":
                coeff = mu ** k
            elif variant == "factorial":
                coeff = mu ** k / math.factorial(k)
            else:
                coeff = mu ** k / float(k - 1)
            total = total + math.comb(n_t - 1, k) * coeff * _sc.gammainc(k + 1, arg)
    return (1.0 + mu) ** (1 - n_t) * total


@lru_cache(maxsize=32)
def _selection_tables(d: int, pool: int):
    """The coefficients of :func:`_selection_diversity_sum` for shape d and a
    pool, each integer rounded once to float, on a (k, m) grid padded to the
    largest degree (pool - 1)(d - 1):

    - first[m]: the first k whose degree k (d - 1) reaches m;
    - cells: the (k, n) index arrays of the grid cells with n <= k (d - 1);
    - prefix[k, m]: m! a_m, a_m from expansion_coeffs(d, k) (0 where padded);
    - num[n]: (d + n - 1)!;
    - den[k, n]: n! (1 + k)^(d + n) (1 where padded);
    - binom[m, n]: C(d + m - 1, d + n - 1) (0 above n = m);
    - signed[k]: C(pool - 1, k) (-1)^k.

    A pool past _MAX_SELECTION_POOL raises CapabilityError before any
    table is built, and expansion_coeffs raises it at the first k past its
    degree limit, before any table is filled.  The arrays are read-only,
    since every call shares them.
    """
    if pool > _MAX_SELECTION_POOL:
        raise CapabilityError(
            f"selection pool {pool} exceeds the supported maximum {_MAX_SELECTION_POOL}")
    coeffs = [expansion_coeffs(d, k) for k in range(pool)]
    size = len(coeffs[-1])
    first = tuple(-(-m // max(d - 1, 1)) for m in range(size))
    cells = np.nonzero(np.arange(size) <= np.arange(pool)[:, None] * (d - 1))
    prefix, den = np.zeros((pool, size)), np.ones((pool, size))
    for k, a in enumerate(coeffs):
        prefix[k, : len(a)] = [math.factorial(m) * a_m for m, a_m in enumerate(a)]
        den[k, : len(a)] = [float(math.factorial(n) * (1 + k) ** (d + n)) for n in range(len(a))]
    num = tuple(float(math.factorial(d + n - 1)) for n in range(size))
    binom = np.array([[float(math.comb(d + m - 1, d + n - 1)) if n <= m else 0.0
                       for n in range(size)] for m in range(size)])
    signed = np.array([float(math.comb(pool - 1, k) * (-1) ** k) for k in range(pool)])
    for table in (*cells, prefix, den, binom, signed):
        table.flags.writeable = False
    return first, cells, prefix, num, den, binom, signed


def _selection_diversity_sum(pool: int, shape: int, mu, beta: float):
    """Finite-sum outage for max-of-pool Gamma(shape) selection followed by a
    2*shape-dof aged gain; vectorized over the aging ratio mu.

    With d = shape, a_m the coefficients of (sum_{l<d} x^l / l!)^k,
    b_k = 1 + k + mu and g_kn = P(d + n, (1 + k) beta / b_k),

        outage = pool / (d - 1)! * sum_k C(pool - 1, k) (-1)^k inner_k,
        inner_k = sum_m m! a_m / b_k^m * s_km,
        s_km = sum_{n<=m} mu^n (d + n - 1)! / (n! (1 + k)^(d + n)) * C(d + m - 1, d + n - 1) * g_kn.

    Evaluation order, the same for each element of mu: every integer is
    rounded once to float (see _selection_tables), each term is formed left
    to right as written, and each sum is a running sum from 0 that adds one
    term at a time: s_km in ascending n, inner_k in ascending m, the outage
    in ascending k.  np.add.accumulate keeps that order along any axis; no
    axis goes to np.sum, which may add pairwise.  So an element's value does
    not depend on the shape of mu.  The (k, m) grid is padded to the largest
    degree: a padded s_km is never formed and stays 0, so its term in
    inner_k is an exact 0, which leaves the sum unchanged.  mu^n is a power
    with a scalar exponent; b_k^m is the scalar power for a scalar mu and
    the array power for an array mu, which may round differently.  A degree
    (pool - 1)(d - 1) past MAX_EXPANSION_DEGREE raises CapabilityError
    before any term is formed.
    """
    d = shape
    first, (kk, nn), prefix, num, den, binom, signed = _selection_tables(d, pool)
    size = len(num)
    mu = np.asarray(mu, dtype=float)
    lead = (Ellipsis,) + (None,) * mu.ndim  # table axes ahead of mu's axes
    k = np.arange(pool)[lead]
    base = 1.0 + k + mu
    gam = np.zeros(prefix.shape + mu.shape)
    gam[kk, nn] = _sc.gammainc((d + nn)[lead], ((1 + k) * beta / base)[kk])
    weight = np.array([mu ** n * num[n] for n in range(size)]) / den[lead]
    s = np.zeros(prefix.shape + mu.shape)
    for m, lo in enumerate(first):
        terms = weight[lo:, : m + 1] * binom[m, : m + 1][lead] * gam[lo:, : m + 1]
        s[lo:, m] = _running_sum(terms, axis=1)
    if mu.ndim:
        power = np.stack([base ** m for m in range(size)], axis=1)
    else:
        power = np.array([[b ** m for m in range(size)] for b in base])
    inner = _running_sum(prefix[lead] / power * s, axis=1)
    total = _running_sum(signed[lead] * inner, axis=0)
    return pool / math.factorial(d - 1) * total


def _running_sum(terms: np.ndarray, axis: int):
    """The sum along axis as a loop of total = total + term forms it: from 0,
    one term at a time in order.  np.add.accumulate adds in sequence, where
    np.sum may add pairwise."""
    padded = np.zeros(terms.shape[:axis] + (terms.shape[axis] + 1,) + terms.shape[axis + 1 :])
    padded[(slice(None),) * axis + (slice(1, None),)] = terms
    return np.add.accumulate(padded, axis=axis)[(slice(None),) * axis + (-1,)]


def _antenna_selection_sum(n_t: int, mu: float, beta: float, variant: str) -> float:
    """Finite-sum outage of transmit antenna selection with aging ratio mu.

    The "corrected" exponent uses the scaled threshold beta; "verbatim" keeps
    the doubled exponent 2*beta of the known-defective transcription.
    """
    x = beta if variant == "corrected" else 2.0 * beta
    total = math.fsum(
        math.comb(n_t - 1, k) * (-1.0) ** k / (k + 1) * (-math.expm1(-(k + 1) * x / (k + 1 + mu)))
        for k in range(n_t)
    )
    return n_t * total


def outage_closed(
    scheme: SchemeId,
    config: SystemConfig,
    codebook_size: int | None = None,
    variant: str = "corrected",
) -> OutageEstimate:
    """Closed form of any scheme: its ideal-CSI formula at rho = 1, otherwise
    its finite sum in the aging ratio mu.  An RVQ scheme averages either one
    over the captured fraction nu, at gamma0 / nu or mu nu (nu is identically
    1 with one transmit antenna).  codebook_size is ignored by the schemes
    without a codebook.  A sum whose terms overflow a float raises
    CapabilityError.  The corrected variant is clipped to [0, 1], and raises
    AccuracyError if it is nan or lies more than _CLIP_MARGIN outside, where
    the sum cancelled; diagnostic variants are reported unclipped and
    unchecked."""
    record = validate_scheme(scheme, config, codebook_size)
    if variant not in record.variants:
        raise ValueError(f"variant must be one of {record.variants}, got {variant!r}")
    params = derive_params(config)
    mixed = record.uses_codebook and config.n_t > 1
    nu = 1.0  # dividing or scaling by it is exact
    if mixed:
        nu, w, f = _nu_grid(codebook_size, config.n_t)
    try:
        if params.no_delay:
            flags, value = (), record.ideal(config, params.gamma0 / nu)
        else:
            flags = (record.flag.format(variant),) if record.flag else ()
            value = record.aged(config, params.mu * nu, params.beta, variant)
    except OverflowError as exc:
        raise CapabilityError(f"{scheme.value} closed form overflows a float: {exc}") from exc
    if mixed:
        value = (w * f) @ value
    value = float(value)
    if variant == "corrected":
        if not -_CLIP_MARGIN <= value <= 1.0 + _CLIP_MARGIN:
            raise AccuracyError(f"{scheme.value} closed form cancelled to {value!r}, outside [0, 1]")
        value = min(max(value, 0.0), 1.0)
    return OutageEstimate(value=value, method="closed_form", flags=flags)


def outage_pbf_closed(config: SystemConfig) -> OutageEstimate:
    """Closed-form outage of unquantized (matched filter) beamforming on the
    stale channel estimate."""
    return outage_closed(SchemeId.MISO_PBF, config)


def outage_rvq_closed(config: SystemConfig, n: int) -> OutageEstimate:
    """Closed-form outage of an RVQ codebook of cardinality n."""
    return outage_closed(SchemeId.MISO_RVQ, config, n)


def outage_tas_closed(config: SystemConfig) -> OutageEstimate:
    """Closed-form outage of transmit antenna selection."""
    return outage_closed(SchemeId.MISO_TAS, config)


def outage_mutas_closed(config: SystemConfig) -> OutageEstimate:
    """Closed-form outage of multiuser transmit antenna selection with
    maximal ratio combining over n_r receive antennas."""
    return outage_closed(SchemeId.MU_TAS, config)


def outage_mupbf_closed(config: SystemConfig) -> OutageEstimate:
    """Closed-form outage of multiuser max-norm user selection with full
    transmit-side combining diversity (the selection/combining dual of the
    multiuser TAS form with n_r and n_t exchanged and a pool of n_u)."""
    return outage_closed(SchemeId.MU_PBF, config)


def outage_murvq_closed(config: SystemConfig, n: int) -> OutageEstimate:
    """Closed-form outage of multiuser RVQ: the dual multiuser sum with the
    aging ratio scaled by the captured fraction, averaged over its density."""
    return outage_closed(SchemeId.MU_RVQ, config, n)


# ---------------------------------------------------------------------------
# diversity order and codebook sizing
# ---------------------------------------------------------------------------


def diversity_order(
    scheme: SchemeId,
    config: SystemConfig,
    snr_grid_db: tuple[float, ...] = (40.0, 50.0),
    codebook_size: int | None = None,
) -> float:
    """Least-squares slope of -log10(P_out) against log10(SNR) over a high-SNR
    grid, using the quadrature engine."""
    if len(set(snr_grid_db)) < 2:
        raise ValueError("need at least two distinct SNR grid points")
    log_eps, log_p = [], []
    for db in snr_grid_db:
        eps = db_to_linear(db)
        est = outage_semianalytic(scheme, replace(config, snr_linear=eps), codebook_size)
        if est.value <= 0.0:
            raise RangeError(f"outage underflowed to zero at {db} dB; shrink the grid")
        log_eps.append(math.log10(eps))
        log_p.append(math.log10(est.value))
    slope = np.polyfit(log_eps, log_p, 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class CodebookSizeResult:
    size: int | None
    attainable: bool
    pbf_floor: float
    target: float


def min_codebook_size(
    target: float, config: SystemConfig, n_max: int = 4096
) -> CodebookSizeResult:
    """Smallest RVQ cardinality whose closed-form outage meets the target.

    The matched-filter value is the infimum over cardinalities, so a target
    below it is unattainable.  Search is doubling followed by bisection; the
    outage is monotone nonincreasing in the cardinality.  A doubling probe
    whose outage raises AccuracyError (the captured-fraction nodes no longer
    resolve its density) ends the doubling unverified: the bisection below
    it decides, and the error is raised again only if the answer would be
    that probe itself.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    floor = outage_pbf_closed(config).value
    if floor > target:
        return CodebookSizeResult(size=None, attainable=False, pbf_floor=floor, target=target)

    def outage(n: int) -> float:
        return outage_rvq_closed(config, n).value

    if outage(1) <= target:
        return CodebookSizeResult(size=1, attainable=True, pbf_floor=floor, target=target)
    hi, met, unverified = 1, False, None
    while hi < n_max and not met:
        hi = min(2 * hi, n_max)
        try:
            met = outage(hi) <= target
        except AccuracyError as exc:
            met, unverified = True, exc
    if not met:
        return CodebookSizeResult(size=None, attainable=False, pbf_floor=floor, target=target)
    lo = hi // 2  # fails the target; hi meets it, or is unverified
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outage(mid) <= target:
            hi, unverified = mid, None
        else:
            lo = mid
    if unverified is not None:
        raise unverified
    return CodebookSizeResult(size=hi, attainable=True, pbf_floor=floor, target=target)
