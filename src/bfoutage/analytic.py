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
from scipy import special as _sc

from .channel import SystemConfig, db_to_linear, derive_params
from .codebook import nu_pdf
from .specfun import _noncentral_chi2_cdf_grid, expansion_coeffs

__all__ = [
    "AccuracyError",
    "CodebookSizeResult",
    "GainDistribution",
    "OutageEstimate",
    "QuadratureSpec",
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


class AccuracyError(ArithmeticError):
    """A quadrature accuracy guard failed (tail mass or density mass)."""


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
    """What a scheme is, for every evaluation path."""

    fixed: tuple[str, ...]  # config fields the scheme fixes at 1
    uses_codebook: bool  # needs a codebook cardinality >= 1; the others ignore it
    law: Callable[[SystemConfig], GainDistribution]  # selected-gain law
    closed: Callable[[SystemConfig, int | None, QuadratureSpec], OutageEstimate]


# The closed-form entries call the evaluators by their module-level names, so
# a wrapper installed on one of those names sees every call.
SCHEMES = {
    SchemeId.MISO_PBF: SchemeRecord(
        ("n_r", "n_u"), False, lambda c: GainDistribution(1, c.n_t, 1),
        lambda c, n, quad: outage_pbf_closed(c)),
    SchemeId.MISO_RVQ: SchemeRecord(
        ("n_r", "n_u"), True, lambda c: GainDistribution(1, c.n_t, 1),
        lambda c, n, quad: outage_rvq_closed(c, n, quad)),
    SchemeId.MISO_TAS: SchemeRecord(
        ("n_r", "n_u"), False, lambda c: GainDistribution(c.n_t, 1, 1),
        lambda c, n, quad: outage_tas_closed(c)),
    SchemeId.MU_TAS: SchemeRecord(
        (), False, lambda c: GainDistribution(c.n_u * c.n_t, c.n_r, c.n_r),
        lambda c, n, quad: outage_mutas_closed(c)),
    SchemeId.MU_PBF: SchemeRecord(
        ("n_r",), False, lambda c: GainDistribution(c.n_u, c.n_t, c.n_t),
        lambda c, n, quad: outage_mupbf_closed(c)),
    SchemeId.MU_RVQ: SchemeRecord(
        ("n_r",), True, lambda c: GainDistribution(c.n_u, c.n_t, c.n_t),
        lambda c, n, quad: outage_murvq_closed(c, n, quad)),
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
class QuadratureSpec:
    """Node counts and optional gain-axis truncation for the engine."""

    node_count: int = 256
    upper_cut: float | None = None
    nu_node_count: int = 128

    def __post_init__(self) -> None:
        if self.node_count < 16:
            raise ValueError("node_count must be >= 16")
        if self.nu_node_count < 16:
            raise ValueError("nu_node_count must be >= 16")
        if self.upper_cut is not None and not self.upper_cut > 0:
            raise ValueError("upper_cut must be positive when given")


DEFAULT_QUADRATURE = QuadratureSpec()


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
        x = np.asarray(x, dtype=float)
        s, z = self.shape, self.pool_size
        base = x ** (s - 1) * np.exp(-x) / math.factorial(s - 1)
        if z == 1:
            return base
        return z * base * _sc.gammainc(s, x) ** (z - 1)

    def cdf(self, x):
        return _sc.gammainc(self.shape, np.asarray(x, dtype=float)) ** self.pool_size

    def upper_cut(self, tail: float = _TAIL_TARGET) -> float:
        target = (1.0 - tail) ** (1.0 / self.pool_size)
        return float(_sc.gammaincinv(self.shape, target))


def gain_distribution(
    scheme: SchemeId, config: SystemConfig, codebook_size: int | None = None
) -> GainDistribution:
    return validate_scheme(scheme, config, codebook_size).law(config)


@lru_cache(maxsize=16)
def _gl_base(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gl_nodes(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_base(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


def outage_semianalytic(
    scheme: SchemeId,
    config: SystemConfig,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    codebook_size: int | None = None,
) -> OutageEstimate:
    """Outage by numeric integration of the conditional outage against the
    selected-gain density (with an outer quantization-factor integral for the
    RVQ schemes).  At rho = 1 the integral degenerates to the gain CDF at the
    threshold."""
    dist = gain_distribution(scheme, config, codebook_size)
    # with one transmit antenna the captured fraction is identically 1
    mixed = scheme_uses_codebook(scheme) and config.n_t > 1
    params = derive_params(config)

    if mixed:
        nu, w_nu = _gl_nodes(quad.nu_node_count, 0.0, 1.0)
        f_nu = nu_pdf(nu, codebook_size, config.n_t)
        nu_mass = float(w_nu @ f_nu)
        if abs(nu_mass - 1.0) > _MASS_TOL:
            raise AccuracyError(
                f"quantization-factor density mass {nu_mass!r} deviates from 1"
            )

    if params.no_delay:
        if not mixed:
            value = float(dist.cdf(params.gamma0))
        else:
            value = float(w_nu @ (f_nu * dist.cdf(params.gamma0 / nu)))
        return OutageEstimate(value=min(max(value, 0.0), 1.0), method="quadrature")

    cut = quad.upper_cut if quad.upper_cut is not None else dist.upper_cut()
    tail = 1.0 - float(dist.cdf(cut))
    if tail > _TAIL_LIMIT:
        raise AccuracyError(f"truncated gain tail mass {tail:g} exceeds {_TAIL_LIMIT:g}")
    x, w = _gl_nodes(quad.node_count, 0.0, cut)
    pdf = dist.pdf(x)
    mass = float(w @ pdf)
    if abs(mass - (1.0 - tail)) > _MASS_TOL:
        raise AccuracyError(f"gain density mass {mass!r} deviates from {1.0 - tail!r}")

    if not mixed:
        cond = _noncentral_chi2_cdf_grid(dist.half_dof, params.mu * x, params.beta)
        value = float(w @ (pdf * cond))
    else:
        deltas = params.mu * nu[:, None] * x[None, :]
        cond = _noncentral_chi2_cdf_grid(dist.half_dof, deltas, params.beta)
        inner = cond @ (w * pdf)
        value = float(w_nu @ (f_nu * inner))
    if value <= 0.0:
        raise UnderflowError(f"quadrature underflowed to 0 although rho < 1 (beta {params.beta:g})")
    return OutageEstimate(value=min(max(value, 0.0), 1.0), method="quadrature")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

PBF_VARIANTS = ("corrected", "factorial", "verbatim")
TAS_VARIANTS = ("corrected", "verbatim")


def _matched_filter_sum(n_t: int, mu, beta: float, variant: str):
    """Finite-sum outage of the stale matched-filter beamformer with a
    Gamma(n_t) stale gain and aging ratio mu (vectorized over mu).

    The "corrected" coefficient mu^k is the Monte-Carlo-arbitrated form;
    "factorial" (mu^k / k!) and "verbatim" (mu^k / (k-1), evaluated under
    IEEE semantics) are retained as diagnostic variants.
    """
    if variant not in PBF_VARIANTS:
        raise ValueError(f"variant must be one of {PBF_VARIANTS}, got {variant!r}")
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


def _selection_diversity_sum(pool: int, shape: int, mu, beta: float):
    """Finite-sum outage for max-of-pool Gamma(shape) selection followed by a
    2*shape-dof aged gain; vectorized over the aging ratio mu."""
    mu = np.asarray(mu, dtype=float)
    total = np.zeros_like(mu)
    d = shape
    for k in range(pool):
        a = expansion_coeffs(d, k)
        arg = (1 + k) * beta / (1.0 + k + mu)
        gam = [_sc.gammainc(d + n, arg) for n in range(len(a))]
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


def _nu_grid(quad: QuadratureSpec, n: int, n_t: int):
    nu, w = _gl_nodes(quad.nu_node_count, 0.0, 1.0)
    return nu, w * nu_pdf(nu, n, n_t)


def _clip(value: float) -> float:
    return min(max(float(value), 0.0), 1.0)


def _variant_estimate(value: float, flag: str, variant: str) -> OutageEstimate:
    """The corrected variant clipped to [0, 1]; diagnostic variants may fall
    outside it and are reported unclipped."""
    if variant == "corrected":
        value = _clip(value)
    return OutageEstimate(value=value, method="closed_form", flags=(f"{flag}-{variant}",))


def outage_pbf_closed(config: SystemConfig, variant: str = "corrected") -> OutageEstimate:
    """Closed-form outage of unquantized (matched filter) beamforming on the
    stale channel estimate."""
    validate_scheme(SchemeId.MISO_PBF, config)
    params = derive_params(config)
    if params.no_delay:
        return OutageEstimate(
            value=float(_sc.gammainc(config.n_t, params.gamma0)), method="closed_form"
        )
    value = float(_matched_filter_sum(config.n_t, params.mu, params.beta, variant))
    return _variant_estimate(value, "coefficient", variant)


def outage_rvq_closed(
    config: SystemConfig,
    n: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    variant: str = "corrected",
) -> OutageEstimate:
    """Closed-form outage of an RVQ codebook of cardinality n: the conditional
    finite sum averaged over the captured-fraction density by quadrature."""
    validate_scheme(SchemeId.MISO_RVQ, config, n)
    if config.n_t == 1:
        return outage_pbf_closed(config, variant)
    params = derive_params(config)
    nu, w_f = _nu_grid(quad, n, config.n_t)
    if params.no_delay:
        value = float(w_f @ _sc.gammainc(config.n_t, params.gamma0 / nu))
        return OutageEstimate(value=_clip(value), method="closed_form")
    vals = _matched_filter_sum(config.n_t, params.mu * nu, params.beta, variant)
    return _variant_estimate(float(w_f @ vals), "coefficient", variant)


def outage_tas_closed(config: SystemConfig, variant: str = "corrected") -> OutageEstimate:
    """Closed-form outage of transmit antenna selection.

    The "corrected" exponent uses the scaled threshold beta; "verbatim" keeps
    the doubled exponent 2*beta of the known-defective transcription.
    """
    if variant not in TAS_VARIANTS:
        raise ValueError(f"variant must be one of {TAS_VARIANTS}, got {variant!r}")
    validate_scheme(SchemeId.MISO_TAS, config)
    params = derive_params(config)
    n_t = config.n_t
    if params.no_delay:
        return OutageEstimate(value=(-math.expm1(-params.gamma0)) ** n_t, method="closed_form")
    x = params.beta if variant == "corrected" else 2.0 * params.beta
    total = math.fsum(
        math.comb(n_t - 1, k)
        * (-1.0) ** k
        / (k + 1)
        * (-math.expm1(-(k + 1) * x / (k + 1 + params.mu)))
        for k in range(n_t)
    )
    return _variant_estimate(n_t * total, "exponent", variant)


# The multiuser evaluators model delayed selection feedback: the user (and
# antenna, for TAS) are picked on the stale estimate, while the effective
# aged gain keeps the full receive- or transmit-side combining diversity.
# With one user there is nothing to select, so mu-pbf reduces to ideal
# matched-filter beamforming (miso-pbf at rho = 1) and mu-rvq to the
# captured-fraction average of P(n_t, gamma0 / (1 - rho^2 (1 - nu))), which is
# miso-rvq at rho = 1; neither is the stale matched-filter MISO form when
# rho < 1.  Results carry a flag saying which model they use.
_DUAL_FLAG = "selection-delay-dual"


def outage_mutas_closed(config: SystemConfig) -> OutageEstimate:
    """Closed-form outage of multiuser transmit antenna selection with
    maximal ratio combining over n_r receive antennas."""
    validate_scheme(SchemeId.MU_TAS, config)
    params = derive_params(config)
    pool = config.n_u * config.n_t
    if params.no_delay:
        value = float(_sc.gammainc(config.n_r, params.gamma0)) ** pool
        return OutageEstimate(value=value, method="closed_form")
    value = float(_selection_diversity_sum(pool, config.n_r, params.mu, params.beta))
    return OutageEstimate(value=_clip(value), method="closed_form")


def outage_mupbf_closed(config: SystemConfig) -> OutageEstimate:
    """Closed-form outage of multiuser max-norm user selection with full
    transmit-side combining diversity (the selection/combining dual of the
    multiuser TAS form with n_r and n_t exchanged and a pool of n_u)."""
    validate_scheme(SchemeId.MU_PBF, config)
    params = derive_params(config)
    if params.no_delay:
        value = float(_sc.gammainc(config.n_t, params.gamma0)) ** config.n_u
        return OutageEstimate(value=value, method="closed_form")
    value = float(_selection_diversity_sum(config.n_u, config.n_t, params.mu, params.beta))
    return OutageEstimate(value=_clip(value), method="closed_form", flags=(_DUAL_FLAG,))


def outage_murvq_closed(
    config: SystemConfig, n: int, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> OutageEstimate:
    """Closed-form outage of multiuser RVQ: the dual multiuser sum with the
    aging ratio scaled by the captured fraction, averaged over its density."""
    validate_scheme(SchemeId.MU_RVQ, config, n)
    if config.n_t == 1:
        return outage_mupbf_closed(config)
    params = derive_params(config)
    nu, w_f = _nu_grid(quad, n, config.n_t)
    if params.no_delay:
        value = float(w_f @ _sc.gammainc(config.n_t, params.gamma0 / nu) ** config.n_u)
        return OutageEstimate(value=_clip(value), method="closed_form")
    vals = _selection_diversity_sum(config.n_u, config.n_t, params.mu * nu, params.beta)
    value = float(w_f @ vals)
    return OutageEstimate(value=_clip(value), method="closed_form", flags=(_DUAL_FLAG,))


def outage_closed(
    scheme: SchemeId,
    config: SystemConfig,
    codebook_size: int | None = None,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> OutageEstimate:
    """Closed form of any scheme; codebook_size is ignored by the schemes
    without a codebook."""
    return validate_scheme(scheme, config, codebook_size).closed(config, codebook_size, quad)


# ---------------------------------------------------------------------------
# diversity order and codebook sizing
# ---------------------------------------------------------------------------


def diversity_order(
    scheme: SchemeId,
    config: SystemConfig,
    snr_grid_db: tuple[float, ...] = (40.0, 50.0),
    codebook_size: int | None = None,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Least-squares slope of -log10(P_out) against log10(SNR) over a high-SNR
    grid, using the quadrature engine."""
    if len(snr_grid_db) < 2:
        raise ValueError("need at least two SNR grid points")
    log_eps, log_p = [], []
    for db in snr_grid_db:
        eps = db_to_linear(db)
        est = outage_semianalytic(scheme, replace(config, snr_linear=eps), quad, codebook_size)
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
    target: float,
    config: SystemConfig,
    n_max: int = 4096,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> CodebookSizeResult:
    """Smallest RVQ cardinality whose closed-form outage meets the target.

    The matched-filter value is the infimum over cardinalities, so a target
    below it is unattainable.  Search is doubling followed by bisection; the
    outage is monotone nonincreasing in the cardinality.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    floor = outage_pbf_closed(config).value
    if floor > target:
        return CodebookSizeResult(size=None, attainable=False, pbf_floor=floor, target=target)

    def outage(n: int) -> float:
        return outage_rvq_closed(config, n, quad).value

    if outage(1) <= target:
        return CodebookSizeResult(size=1, attainable=True, pbf_floor=floor, target=target)
    hi = 1
    while hi < n_max:
        hi = min(2 * hi, n_max)
        if outage(hi) <= target:
            break
    if outage(hi) > target:
        return CodebookSizeResult(size=None, attainable=False, pbf_floor=floor, target=target)
    lo = hi // 2  # fails the target; hi meets it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outage(mid) <= target:
            hi = mid
        else:
            lo = mid
    return CodebookSizeResult(size=hi, attainable=True, pbf_floor=floor, target=target)
