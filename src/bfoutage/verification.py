"""Cross-method agreement suite and formula-variant arbitration.

This is the backend of the CLI ``verify`` subcommand and of the acceptance
tests: every check compares independently computed quantities (closed form,
quadrature, Monte Carlo, or exhaustive enumeration) and reports a structured
pass/fail result.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import analytic, montecarlo, specfun
from .analytic import AccuracyError, RangeError, SchemeId
from .channel import PersistenceSpec, RngStream, SystemConfig, db_to_linear, derive_params
from .codebook import nu_pdf
from .montecarlo import McPoint, McResult, TrialPlan
from .specfun import CapabilityError, ConvergenceError, _sc

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

#: What an evaluator raises past its accuracy or range (CLI exit code 2).
NUMERIC_ERRORS = (CapabilityError, ConvergenceError, AccuracyError, RangeError)

CLOSED_VS_QUAD_TOL = 1e-6
REDUCTION_TOL = 1e-9
#: Gauss-Legendre nodes of the single-user dual RVQ reference; deliberately
#: not the closed form's analytic._NU_NODES, so the two discretizations differ.
_DUAL_RVQ_NODES = 64
#: Rows per block of the empirical noncentral chi-square draws.
_SAMPLE_BLOCK = 1 << 14
#: Trials of each of criterion 7's determinism runs.
_DETERMINISM_TRIALS = 200_000


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


class _McFamily(NamedTuple):
    """A Monte Carlo check family after its analytic phase: the points it
    simulates, and judge(results) -> its checks, given one McResult per
    point in order."""

    points: list[McPoint]
    judge: Callable[[list[McResult]], list[CheckResult]]


def _agreement_family(trials: int, seed: int, workers: int) -> _McFamily:
    """Closed form and quadrature at every grid point; a scheme's points
    share one stream block, so each chunk is drawn once for all its SNRs and
    rhos."""
    plan = TrialPlan(trials=trials, seed=seed, workers=workers)
    rows, points = [], []
    n = CODEBOOK_SIZE
    for k, scheme in enumerate(SCHEME_MATRIX):
        for snr_db in GRID_SNR_DB:
            for rho in GRID_RHO:
                config = _cfg(scheme, snr_db, rho)
                closed = analytic.outage_closed(scheme, config, n).value
                quad = analytic.outage_semianalytic(scheme, config, codebook_size=n).value
                points.append(McPoint(scheme, config, n, plan, stream_offset=k << 32))
                rows.append((f"agreement {scheme.value} snr={snr_db:g}dB rho={rho:g}", closed, quad))

    def judge(results: list[McResult]) -> list[CheckResult]:
        out = []
        for (name, closed, quad), mc in zip(rows, results):
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

    return _McFamily(points, judge)


def three_way_agreement_checks(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> list[CheckResult]:
    """Closed form and quadrature at every grid point, then one Monte Carlo
    batch over all points, each judged within 3 standard errors of both."""
    family = _agreement_family(trials, seed, workers)
    return family.judge(montecarlo.simulate_outages(family.points, workers))


# ---------------------------------------------------------------------------
# criterion 2: formula-variant arbitration
# ---------------------------------------------------------------------------


#: (family, variant, claim): the claim holds when the variant's max |z| <= 3
#: exactly for the corrected variant.
_ARBITRATION_CLAIMS = (
    ("matched-filter-coefficient", "corrected", "corrected variant consistent at all points"),
    ("matched-filter-coefficient", "verbatim", "verbatim variant inconsistent somewhere"),
    ("antenna-selection-exponent", "corrected", "corrected variant consistent at all points"),
    ("antenna-selection-exponent", "verbatim", "verbatim variant inconsistent somewhere"),
    ("matched-filter-coefficient", "factorial", "factorial variant rejected"),
)


#: (family, scheme) of each arbitrated closed form, in stream-block order.
_ARBITRATION_FAMILIES = (
    ("matched-filter-coefficient", SchemeId.MISO_PBF),
    ("antenna-selection-exponent", SchemeId.MISO_TAS),
)


def _arbitration_family(trials: int, seed: int, workers: int) -> _McFamily:
    """Every closed-form variant at the delayed grid points; a family's
    points share one stream block, clear of the agreement checks' blocks."""
    plan = TrialPlan(trials=trials, seed=seed, workers=workers)
    rows, points = [], []
    for k, (family, scheme) in enumerate(_ARBITRATION_FAMILIES):
        block = (len(SCHEME_MATRIX) + k) << 32
        for snr_db in GRID_SNR_DB:
            for rho in (r for r in GRID_RHO if r < 1.0):
                config = _cfg(scheme, snr_db, rho)
                points.append(McPoint(scheme, config, None, plan, stream_offset=block))
                rows.append([
                    (family, v, analytic.outage_closed(scheme, config, variant=v).value)
                    for v in analytic.SCHEMES[scheme].variants
                ])

    def judge(results: list[McResult]) -> list[CheckResult]:
        max_z: dict[tuple[str, str], float] = {}
        for row, mc in zip(rows, results):
            for family, variant, value in row:
                if math.isfinite(value) and 0.0 <= value <= 1.0:
                    z = abs(value - mc.p_hat) / mc.std_err
                else:
                    z = math.inf
                max_z[family, variant] = max(max_z.get((family, variant), z), z)
        return [
            CheckResult(
                name=f"arbitration {family}: {claim}",
                passed=(max_z[family, variant] <= 3.0) == (variant == "corrected"),
                detail=f"max |z| = {max_z[family, variant]:.2f}",
            )
            for family, variant, claim in _ARBITRATION_CLAIMS
        ]

    return _McFamily(points, judge)


def arbitration_checks(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> list[CheckResult]:
    """Evaluate every closed-form variant of the single-user matched-filter
    and antenna-selection expressions against Monte Carlo on the delayed part
    of the standard grid (rho < 1; at rho = 1 no variant differs), and check
    each claim on a variant's largest |z| (inf where a value is not a
    probability)."""
    family = _arbitration_family(trials, seed, workers)
    return family.judge(montecarlo.simulate_outages(family.points, workers))


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


#: Empirical draws of the noncentral chi-square check.
_CHI2_SAMPLES = 1_000_000
#: (d, delta, beta) triples of the noncentral chi-square check, in order of d.
_CHI2_TRIPLES = (
    (1, 0.5, 0.7), (1, 2.0, 1.5), (1, 5.0, 4.0),
    (2, 1.0, 2.0), (2, 4.0, 3.0), (3, 0.3, 2.5),
    (4, 2.0, 5.0), (4, 8.0, 9.0), (6, 3.0, 7.0),
)
#: Stream of the chi-square draws: the first id of the block after the
#: arbitration families' blocks, so no Monte Carlo point reads its draws.
_CHI2_STREAM = (len(SCHEME_MATRIX) + len(_ARBITRATION_FAMILIES)) << 32


def _exact_checks() -> list[CheckResult]:
    """The binomial identity and the power-series coefficients, each against
    exhaustive or brute-force enumeration."""
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
    return out


def _chi2_hits(samples: int, seed: int) -> np.ndarray:
    """For each _CHI2_TRIPLES (d, delta, beta), how many of `samples` draws of
    a noncentral chi-square with 2d degrees of freedom and noncentrality
    2 delta fall below 2 beta, all drawn from stream (seed, _CHI2_STREAM)."""
    # one draw serves every triple: d reads columns 0 .. 2d - 1, noncentral on 0
    width = 2 * _CHI2_TRIPLES[-1][0]
    gen = RngStream(seed, _CHI2_STREAM).generator()
    hits = np.zeros(len(_CHI2_TRIPLES), dtype=np.int64)
    # sequential draws in row blocks concatenate to one full draw exactly
    for lo in range(0, samples, _SAMPLE_BLOCK):
        z = gen.standard_normal((min(_SAMPLE_BLOCK, samples - lo), width))
        sq = z[:, 1:] ** 2
        # tail = sq[:, 0] + ... + sq[:, 2d - 2], added column by column in
        # order; the triples come in order of d, so one pass serves them all
        tail, summed = np.zeros(sq.shape[0]), 0
        for t, (d, delta, beta) in enumerate(_CHI2_TRIPLES):
            for c in range(summed, 2 * d - 1):
                tail += sq[:, c]
            summed = 2 * d - 1
            stat = (z[:, 0] + math.sqrt(2.0 * delta)) ** 2 + tail
            hits[t] += np.count_nonzero(stat < 2.0 * beta)
    return hits


def _chi2_check(hits: np.ndarray, samples: int) -> CheckResult:
    worst_z = 0.0
    for (d, delta, beta), count in zip(_CHI2_TRIPLES, hits):
        p_emp = count / samples
        se = math.sqrt(max(p_emp * (1 - p_emp), 1e-12) / samples)
        p_val = specfun.noncentral_chi2_cdf(d, delta, beta)
        worst_z = max(worst_z, abs(p_val - p_emp) / se)
    return CheckResult(
        name="noncentral chi-square CDF vs empirical CDF at 9 parameter triples",
        passed=worst_z <= 3.0,
        detail=f"worst |z| = {worst_z:.2f}",
    )


def combinatorial_checks(samples: int = _CHI2_SAMPLES, seed: int = 20260810) -> list[CheckResult]:
    """The binomial identity and power-series coefficients by enumeration,
    then the noncentral chi-square CDF against an empirical CDF of `samples`
    draws.  The draws come from their own stream, (seed, _CHI2_STREAM),
    which no Monte Carlo point of verify reads; run_all draws them as the
    first job of its simulation phase."""
    return _exact_checks() + [_chi2_check(_chi2_hits(samples, seed), samples)]


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------


def determinism_checks(seed: int = 20260810) -> list[CheckResult]:
    config = _cfg(SchemeId.MU_TAS, 10.0, 0.9)
    counts = []
    for workers in (1, 4, 16):
        plan = TrialPlan(trials=_DETERMINISM_TRIALS, seed=seed, workers=workers)
        counts.append(montecarlo.simulate_outage(SchemeId.MU_TAS, config, None, plan).outage_count)
    return [
        CheckResult(
            name="determinism outage counts identical for workers {1,4,16}",
            passed=counts[0] == counts[1] == counts[2],
            detail=f"counts={counts}",
        )
    ]


def _guarded(criterion: str, run: Callable[[], object]):
    """run(), or one failed check naming criterion and the error it raised."""
    try:
        return run()
    except NUMERIC_ERRORS as exc:
        return [CheckResult(f"{criterion} raised", False, f"{type(exc).__name__}: {exc}")]


def run_all(
    trials: int = 1_000_000, seed: int = 20260810, workers: int = 1
) -> list[CheckResult]:
    """Every check of the seven families, in their order, each line equal to
    what the family's own function returns.

    Three phases: the closed forms and quadratures of criteria 1 and 2; one
    simulate_outages batch of all their Monte Carlo points on `workers`
    threads, with criterion 6's chi-square draws as its first job; then the
    judging of every check.  No closed form or quadrature runs while the
    batch does.  Criterion 7 runs its own simulations last.

    A criterion that raises a numeric error is one failed check, and the
    others still run, each on its own streams, so their lines do not change.
    """
    built = [_guarded(criterion, lambda f=family: f(trials, seed, workers))
             for criterion, family in (("criterion 1 three-way agreement", _agreement_family),
                                       ("criterion 2 variant arbitration", _arbitration_family))]
    families = [f if isinstance(f, _McFamily) else _McFamily([], lambda _, f=f: f) for f in built]
    sampled: list[np.ndarray] = []
    results = montecarlo.simulate_outages(
        [point for family in families for point in family.points], workers,
        first=lambda: sampled.append(_chi2_hits(_CHI2_SAMPLES, seed)),
    )
    checks: list[CheckResult] = []
    for family in families:
        checks += family.judge(results[:len(family.points)])
        results = results[len(family.points):]
    for criterion, run in (
        ("criterion 3 diversity orders", diversity_checks),
        ("criterion 4 reduction identities", reduction_identity_checks),
        ("criterion 5 figure shapes", figure_shape_checks),
        ("criterion 6 combinatorial",
         lambda: _exact_checks() + [_chi2_check(sampled[0], _CHI2_SAMPLES)]),
        ("criterion 7 determinism", lambda: determinism_checks(seed=seed)),
    ):
        checks += _guarded(criterion, run)
    return checks
