"""Cross-method agreement suite and formula-variant arbitration.

This is the backend of the CLI ``verify`` subcommand and of the acceptance
tests: every check compares independently computed quantities (closed form,
quadrature, Monte Carlo, or exhaustive enumeration) and reports a structured
pass/fail result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special as _sc

from . import analytic, montecarlo, specfun
from .analytic import SchemeId
from .channel import PersistenceSpec, RngStream, SystemConfig, db_to_linear, derive_params
from .codebook import nu_pdf, rvq_generate
from .montecarlo import McPoint, TrialPlan

__all__ = [
    "CheckResult",
    "GRID_RHO",
    "GRID_SNR_DB",
    "SCHEME_MATRIX",
    "arbitration_checks",
    "combinatorial_checks",
    "determinism_checks",
    "diversity_checks",
    "figure_shape_checks",
    "reduction_identity_checks",
    "run_all",
    "three_way_agreement_checks",
]

GRID_SNR_DB = (5.0, 10.0, 15.0, 20.0)
GRID_RHO = (0.8, 0.9, 1.0)
RATE = 2.0
CODEBOOK_SIZE = 8

#: scheme -> (n_t, n_r, n_u); the verification configurations.
SCHEME_MATRIX = {
    SchemeId.MISO_PBF: (4, 1, 1),
    SchemeId.MISO_RVQ: (4, 1, 1),
    SchemeId.MISO_TAS: (4, 1, 1),
    SchemeId.MU_TAS: (4, 2, 2),
    SchemeId.MU_PBF: (4, 1, 2),
    SchemeId.MU_RVQ: (4, 1, 2),
}

CLOSED_VS_QUAD_TOL = 1e-6
REDUCTION_TOL = 1e-9
#: Gauss-Legendre nodes of the single-user dual RVQ reference; deliberately
#: not the closed form's nu_node_count, so the two discretizations differ.
_DUAL_RVQ_NODES = 64
#: Rows per block of the empirical noncentral chi-square draws.
_SAMPLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + (
            f"  [{self.detail}]" if self.detail else ""
        )


def _cfg(scheme: SchemeId, snr_db: float, rho: float, rate: float = RATE) -> SystemConfig:
    n_t, n_r, n_u = SCHEME_MATRIX[scheme]
    return SystemConfig(
        n_t=n_t,
        rate_bits=rate,
        snr_linear=db_to_linear(snr_db),
        persistence=PersistenceSpec.from_rho(rho),
        n_r=n_r,
        n_u=n_u,
    )


# ---------------------------------------------------------------------------
# criterion 1: three-way agreement
# ---------------------------------------------------------------------------


def three_way_agreement_checks(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> list[CheckResult]:
    """Closed form and quadrature at every grid point, then one Monte Carlo
    batch over all points."""
    plan = TrialPlan(trials=trials, seed=seed, workers=workers)
    rows, points = [], []
    n = CODEBOOK_SIZE
    for scheme in SCHEME_MATRIX:
        for snr_db in GRID_SNR_DB:
            for rho in GRID_RHO:
                config = _cfg(scheme, snr_db, rho)
                closed = analytic.outage_closed(scheme, config, n).value
                quad = analytic.outage_semianalytic(scheme, config, codebook_size=n).value
                cb = None
                if analytic.scheme_uses_codebook(scheme):
                    cb = rvq_generate(RngStream(seed, 0), n, config.n_t)
                points.append(McPoint(scheme, config, cb, plan, stream_offset=len(points) << 32))
                rows.append((f"agreement {scheme.value} snr={snr_db:g}dB rho={rho:g}", closed, quad))
    out = []
    for (name, closed, quad), mc in zip(rows, montecarlo.simulate_outages(points, workers)):
        gap_cq = abs(closed - quad)
        dev_c = abs(closed - mc.p_hat)
        dev_q = abs(quad - mc.p_hat)
        bound = 3.0 * mc.std_err
        ok = gap_cq < CLOSED_VS_QUAD_TOL and dev_c <= bound and dev_q <= bound
        out.append(
            CheckResult(
                name=name,
                passed=ok,
                detail=(
                    f"closed={closed:.3e} quad={quad:.3e} mc={mc.p_hat:.3e} "
                    f"|c-q|={gap_cq:.1e} dev={max(dev_c, dev_q):.2e} 3se={bound:.2e}"
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 2: formula-variant arbitration
# ---------------------------------------------------------------------------


@dataclass
class ArbitrationReport:
    """Per-variant deviations from Monte Carlo on the single-user grid."""

    rows: list[tuple[str, str, float, float, float, float]] = field(default_factory=list)
    # (family, variant, snr_db, rho, value, |z| vs MC; inf when not finite)

    def max_abs_z(self, family: str, variant: str) -> float:
        zs = [r[5] for r in self.rows if r[0] == family and r[1] == variant]
        return max(zs) if zs else math.nan


def arbitration_report(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> ArbitrationReport:
    """Evaluate every closed-form variant of the single-user matched-filter
    and antenna-selection expressions against Monte Carlo on the delayed part
    of the standard grid (rho < 1; at rho = 1 no variant differs)."""
    rows, points = [], []
    for family, scheme in (("matched-filter-coefficient", SchemeId.MISO_PBF),
                           ("antenna-selection-exponent", SchemeId.MISO_TAS)):
        for snr_db in GRID_SNR_DB:
            for rho in (r for r in GRID_RHO if r < 1.0):
                config = _cfg(scheme, snr_db, rho)
                plan = TrialPlan(trials=trials, seed=seed + len(points), workers=workers)
                points.append(McPoint(scheme, config, None, plan))
                rows.append([
                    (family, v, snr_db, rho, analytic.outage_closed(scheme, config, variant=v).value)
                    for v in analytic.SCHEMES[scheme].variants
                ])
    report = ArbitrationReport()
    for row, mc in zip(rows, montecarlo.simulate_outages(points, workers)):
        for family, variant, snr_db, rho, value in row:
            if math.isfinite(value) and 0.0 <= value <= 1.0:
                z = abs(value - mc.p_hat) / mc.std_err
            else:
                z = math.inf
            report.rows.append((family, variant, snr_db, rho, value, z))
    return report


#: (family, variant, claim): the claim holds when the variant's max |z| <= 3
#: exactly for the corrected variant.
_ARBITRATION_CLAIMS = (
    ("matched-filter-coefficient", "corrected", "corrected variant consistent at all points"),
    ("matched-filter-coefficient", "verbatim", "verbatim variant inconsistent somewhere"),
    ("antenna-selection-exponent", "corrected", "corrected variant consistent at all points"),
    ("antenna-selection-exponent", "verbatim", "verbatim variant inconsistent somewhere"),
    ("matched-filter-coefficient", "factorial", "factorial variant rejected"),
)


def arbitration_checks(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> tuple[list[CheckResult], ArbitrationReport]:
    rep = arbitration_report(trials, seed, workers)
    checks = []
    for family, variant, claim in _ARBITRATION_CLAIMS:
        z = rep.max_abs_z(family, variant)
        checks.append(CheckResult(
            name=f"arbitration {family}: {claim}",
            passed=(z <= 3.0) == (variant == "corrected"),
            detail=f"max |z| = {z:.2f}",
        ))
    return checks, rep


# ---------------------------------------------------------------------------
# criterion 3: diversity orders
# ---------------------------------------------------------------------------


def diversity_checks() -> list[CheckResult]:
    cases = [
        ("miso-rvq rho=1 slope ~ n_t", SchemeId.MISO_RVQ, 1.0, CODEBOOK_SIZE, 4.0, 0.10),
        ("miso-rvq rho=0.9 slope ~ 1", SchemeId.MISO_RVQ, 0.9, CODEBOOK_SIZE, 1.0, 0.15),
        ("mu-tas rho=0.9 slope ~ n_r", SchemeId.MU_TAS, 0.9, None, 2.0, 0.15),
        ("mu-pbf rho=0.9 slope ~ n_t", SchemeId.MU_PBF, 0.9, None, 4.0, 0.15),
    ]
    out = []
    for name, scheme, rho, n, expect, rel in cases:
        config = _cfg(scheme, 10.0, rho)
        slope = analytic.diversity_order(scheme, config, (40.0, 50.0), codebook_size=n)
        ok = abs(slope - expect) <= rel * expect
        out.append(
            CheckResult(
                name=f"diversity {name}",
                passed=ok,
                detail=f"slope={slope:.3f} expected {expect:g} +-{rel * 100:.0f}%",
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 4: reduction identities and the duality swap
# ---------------------------------------------------------------------------


def _swap_config(config: SystemConfig) -> SystemConfig:
    """Exchange the roles of n_r and n_t: a single-antenna transmitter facing
    n_u users with n_t receive antennas each, at the SNR that preserves the
    outage threshold."""
    return replace(config, n_t=1, snr_linear=config.snr_linear / config.n_t, n_r=config.n_t)


def _dual_rvq_single_user(config: SystemConfig, n: int) -> float:
    """Outage of the dual multiuser RVQ model with one user, computed without
    the multiuser algebra.

    With nothing to select, the captured fraction nu depends only on the
    direction of h and the norm of h is independent of it, so the aged vector
    rho*sqrt(nu)*h + sqrt(1-rho^2)*e is CN(0, (1 - rho^2 (1 - nu)) I) given
    nu.  The outage is therefore E_nu[P(n_t, gamma0 / (1 - rho^2 (1 - nu)))],
    averaged here by Gauss-Legendre over the captured-fraction density.
    """
    gamma0 = derive_params(config).gamma0
    x, w = np.polynomial.legendre.leggauss(_DUAL_RVQ_NODES)
    nu = 0.5 * (x + 1.0)
    scale = 1.0 - config.rho ** 2 * (1.0 - nu)
    return float(0.5 * w @ (nu_pdf(nu, n, config.n_t) * _sc.gammainc(config.n_t, gamma0 / scale)))


def reduction_identity_checks() -> list[CheckResult]:
    """The multiuser evaluators specialized to one user versus independently
    computed single-user references, plus the n_r/n_t exchange identity, on
    the 12-point grid.

    The multiuser PBF and RVQ forms model stale selection with the full
    combining diversity of the aged gain (the selection-delay dual).  With
    one user there is nothing to select, so the aged gain depends only on the
    current channel:

    * mu-pbf: rho*h + sqrt(1-rho^2)*e is CN(0, I) for every rho, so the
      reference is ideal matched-filter beamforming, the miso-pbf closed form
      at rho = 1;
    * mu-rvq: the reference is E_nu[P(n_t, gamma0 / (1 - rho^2 (1 - nu)))]
      (see _dual_rvq_single_user), which equals miso-rvq at rho = 1.

    Neither reference shares algebra with the multiuser selection sum.  A
    stale-beamformer multiuser model, which would reduce to the stale
    matched-filter miso-pbf form, is a different scheme and is not checked
    here.
    """
    out = []
    for snr_db in GRID_SNR_DB:
        for rho in GRID_RHO:
            single = SystemConfig(n_t=4, rate_bits=RATE, snr_linear=db_to_linear(snr_db),
                                  persistence=PersistenceSpec.from_rho(rho))
            ideal = replace(single, persistence=PersistenceSpec.from_rho(1.0))
            mu_pbf = replace(single, n_t=3, n_u=2)
            for name, lhs, rhs in (
                ("reduction mu-tas(n_u=1,n_r=1) = miso-tas",
                 analytic.outage_mutas_closed(single).value,
                 analytic.outage_tas_closed(single).value),
                ("reduction mu-pbf(n_u=1) = miso-pbf(rho=1)",
                 analytic.outage_mupbf_closed(single).value,
                 analytic.outage_pbf_closed(ideal).value),
                ("reduction mu-rvq(n_u=1) = E_nu[P(n_t, gamma0/(1-rho^2(1-nu)))]",
                 analytic.outage_murvq_closed(single, CODEBOOK_SIZE).value,
                 _dual_rvq_single_user(single, CODEBOOK_SIZE)),
                ("duality swap mu-pbf(2,3) = mu-tas(n_t<->n_r)",
                 analytic.outage_mupbf_closed(mu_pbf).value,
                 analytic.outage_mutas_closed(_swap_config(mu_pbf)).value),
            ):
                gap = abs(lhs - rhs)
                out.append(CheckResult(
                    name=f"{name} snr={snr_db:g}dB rho={rho:g}",
                    passed=gap < REDUCTION_TOL,
                    detail=f"gap={gap:.2e}",
                ))
    return out


# ---------------------------------------------------------------------------
# criterion 5: figure-shape properties
# ---------------------------------------------------------------------------


def figure_shape_checks() -> list[CheckResult]:
    out = []

    # (a) RVQ approaches the matched-filter floor from above, monotonically in N
    sizes = [2 ** j for j in range(0, 9)]  # 1 .. 256
    ok_a = True
    detail_a = []
    for snr_db in (5.0, 10.0, 15.0):
        config = _cfg(SchemeId.MISO_RVQ, snr_db, 0.9)
        floor = analytic.outage_pbf_closed(config).value
        gaps = [analytic.outage_rvq_closed(config, n).value - floor for n in sizes]
        mono = all(g1 > g2 > 0 for g1, g2 in zip(gaps, gaps[1:]))
        ok_a &= mono
        detail_a.append(f"{snr_db:g}dB gap {gaps[0]:.2e}->{gaps[-1]:.2e}")
    out.append(
        CheckResult(
            name="shape rvq codebook-size convergence to matched filter (rho=0.9)",
            passed=ok_a,
            detail="; ".join(detail_a),
        )
    )

    # (b) matched filter dominates RVQ(8) and TAS across the SNR grid at rho=0.8
    ok_b = True
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
        config = _cfg(SchemeId.MISO_PBF, snr_db, 0.8)
        pbf = analytic.outage_pbf_closed(config).value
        rvq = analytic.outage_rvq_closed(config, CODEBOOK_SIZE).value
        tas = analytic.outage_tas_closed(config).value
        ok_b &= pbf <= rvq and pbf <= tas
    out.append(CheckResult(name="shape matched filter dominates rvq(8) and tas (rho=0.8)", passed=ok_b))

    # (c) multiuser TAS outage nonincreasing in the user count
    ok_c = True
    detail_c = []
    for snr_db in (5.0, 10.0):
        vals = []
        for n_u in (1, 2, 4):
            config = SystemConfig(
                n_t=4, rate_bits=RATE, snr_linear=db_to_linear(snr_db),
                persistence=PersistenceSpec.from_rho(0.9), n_r=2, n_u=n_u,
            )
            vals.append(analytic.outage_mutas_closed(config).value)
        ok_c &= vals[0] >= vals[1] >= vals[2]
        detail_c.append(f"{snr_db:g}dB: " + "->".join(f"{v:.3e}" for v in vals))
    out.append(
        CheckResult(
            name="shape mu-tas outage nonincreasing in users {1,2,4}",
            passed=ok_c,
            detail="; ".join(detail_c),
        )
    )

    # (d) minimum codebook size nondecreasing as persistence drops
    ok_d = True
    detail_d = []
    for target in (0.01, 0.1):
        sizes_d = []
        for rho in (0.995, 0.99, 0.98, 0.97):
            config = SystemConfig(
                n_t=4, rate_bits=RATE, snr_linear=db_to_linear(15.0),
                persistence=PersistenceSpec.from_rho(rho),
            )
            res = analytic.min_codebook_size(target, config, n_max=1 << 14)
            if not res.attainable:
                ok_d = False
                break
            sizes_d.append(res.size)
        mono = all(a <= b for a, b in zip(sizes_d[:-1], sizes_d[1:]))
        ok_d &= mono
        detail_d.append(f"target {target:g}: sizes {sizes_d}")
    out.append(
        CheckResult(
            name="shape min codebook size nondecreasing as rho drops",
            passed=ok_d,
            detail="; ".join(detail_d),
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 6: combinatorial and special-function suites
# ---------------------------------------------------------------------------


def combinatorial_checks(samples: int = 1_000_000, seed: int = 20260810) -> list[CheckResult]:
    out = []

    bad = [
        (m, n, k)
        for m in range(1, 13)
        for n in range(1, m + 1)
        for k in range(1, 13)
        if (lambda lr: lr[0] != lr[1])(specfun.lemma1_identity(m, n, k))
    ]
    out.append(
        CheckResult(
            name="binomial identity exhaustive over 1<=n<=m<=12, k<=12",
            passed=not bad,
            detail=f"{len(bad)} mismatches" if bad else "all equal",
        )
    )

    worst = 0.0
    for n_r in range(1, 6):
        base = np.zeros(n_r)
        for l in range(n_r):
            base[l] = 1.0 / math.factorial(l)
        for k in range(0, 9):
            coeffs = specfun.expansion_coeffs(n_r, k)
            brute = np.array([1.0])
            for _ in range(k):
                brute = np.convolve(brute, base)
            worst = max(worst, float(np.max(np.abs(np.array(coeffs) - brute))))
            for x in (0.1, 1.0, 3.0):
                direct = (sum(x ** l / math.factorial(l) for l in range(n_r))) ** k
                via = sum(c * x ** m for m, c in enumerate(coeffs))
                worst = max(worst, abs(direct - via) / max(direct, 1.0))
    out.append(
        CheckResult(
            name="power-series coefficients vs brute-force products (n_r<=5, k<=8)",
            passed=worst < 1e-12,
            detail=f"worst deviation {worst:.2e}",
        )
    )

    triples = [
        (1, 0.5, 0.7), (1, 2.0, 1.5), (1, 5.0, 4.0),
        (2, 1.0, 2.0), (2, 4.0, 3.0), (3, 0.3, 2.5),
        (4, 2.0, 5.0), (4, 8.0, 9.0), (6, 3.0, 7.0),
    ]
    gen = np.random.Generator(np.random.Philox(key=seed))
    worst_z = 0.0
    for d, delta, beta in triples:
        hits = 0
        # sequential draws in row blocks concatenate to one full draw exactly
        for lo in range(0, samples, _SAMPLE_BLOCK):
            z = gen.standard_normal((min(_SAMPLE_BLOCK, samples - lo), 2 * d))
            z[:, 0] += math.sqrt(2.0 * delta)  # the whole noncentrality on one component
            hits += np.count_nonzero(np.sum(z ** 2, axis=1) < 2.0 * beta)
        p_emp = hits / samples
        se = math.sqrt(max(p_emp * (1 - p_emp), 1e-12) / samples)
        p_val = specfun.noncentral_chi2_cdf(d, delta, beta)
        worst_z = max(worst_z, abs(p_val - p_emp) / se)
    out.append(
        CheckResult(
            name="noncentral chi-square CDF vs empirical CDF at 9 parameter triples",
            passed=worst_z <= 3.0,
            detail=f"worst |z| = {worst_z:.2f}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------


def determinism_checks(trials: int = 200_000, seed: int = 20260810) -> list[CheckResult]:
    config = _cfg(SchemeId.MU_TAS, 10.0, 0.9)
    counts = []
    for workers in (1, 4, 16):
        plan = TrialPlan(trials=trials, seed=seed, workers=workers)
        counts.append(montecarlo.simulate_outage(SchemeId.MU_TAS, config, None, plan).outage_count)
    return [
        CheckResult(
            name="determinism outage counts identical for workers {1,4,16}",
            passed=counts[0] == counts[1] == counts[2],
            detail=f"counts={counts}",
        )
    ]


def run_all(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> list[CheckResult]:
    checks: list[CheckResult] = []
    checks += three_way_agreement_checks(trials, seed, workers)
    arb, _ = arbitration_checks(trials, seed, workers)
    checks += arb
    checks += diversity_checks()
    checks += reduction_identity_checks()
    checks += figure_shape_checks()
    checks += combinatorial_checks(seed=seed)
    checks += determinism_checks(seed=seed)
    return checks
