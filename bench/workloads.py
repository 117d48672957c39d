"""The benchmark workloads.

Each workload is a closed loop: one caller issues the next evaluation only
after the previous one returns.  Workloads drive the package only through its
public functions and ``bfoutage.cli.main``.  A workload is a function of the
seed that prepares the inputs (untimed) and returns the pass function, which
returns one Outcome per operation.  An operation fails when it raises a numeric or capability error
or misses its correctness gate; ``values`` holds what the program returned, so
repeated and traced passes can be compared exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
from scipy import special

from bfoutage import analytic, cli, montecarlo, verification
from bfoutage.analytic import SchemeId
from bfoutage.channel import PersistenceSpec, RngStream, SystemConfig, derive_params
from bfoutage.codebook import rvq_generate
from bfoutage.montecarlo import TrialPlan

MC_WORKERS = 2  # the benchmark machine has 2 cores
MC_TRIALS = 1_000_000
VERIFY_TRIALS = 200_000

#: Channel draws for the fixed-codebook reference, and its generator key.
REF_SAMPLES = 1_000_000
REF_CHUNK = 1 << 14
REF_STREAM = 0x5EED

#: The repository's closed-vs-quadrature tolerance, applied both absolutely
#: and relatively, so tiny probabilities cannot pass on the absolute bound.
QUAD_TOL = verification.CLOSED_VS_QUAD_TOL

#: Errors the evaluators raise on purpose (numeric and capability limits).
#: Anything else is a harness or program bug and aborts the run.
EVAL_ERRORS = (ArithmeticError, ValueError)


@dataclass(frozen=True)
class Outcome:
    name: str
    ok: bool
    values: tuple
    detail: str = ""


@dataclass
class PassResult:
    outcomes: list[Outcome]
    # Outputs that are malformed whatever the gates say; any entry makes the
    # run incorrect.
    errors: list[str] = field(default_factory=list)
    mc_trials: int = 0


def _config(n_t: int, n_r: int, n_u: int, snr_db: float, rho: float) -> SystemConfig:
    return SystemConfig(
        n_t=n_t,
        rate_bits=verification.RATE,
        snr_linear=10.0 ** (snr_db / 10.0),
        persistence=PersistenceSpec.from_rho(rho),
        n_r=n_r,
        n_u=n_u,
    )


def _matrix_config(scheme: SchemeId, snr_db: float, rho: float) -> SystemConfig:
    return _config(*verification.SCHEME_MATRIX[scheme], snr_db, rho)


def _codebook_size(scheme: SchemeId) -> int | None:
    return verification.CODEBOOK_SIZE if analytic.scheme_uses_codebook(scheme) else None


def _is_probability(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# mc-arbiter
# ---------------------------------------------------------------------------


def mc_points() -> list[tuple[str, SchemeId, SystemConfig, int | None, bool]]:
    """(label, scheme, config, codebook size, fixed codebook): the six
    verification configurations at 10 dB, rho 0.9 with a fresh codebook per
    trial, plus miso-rvq with one shared 64-vector codebook."""
    points = [
        (scheme.value, scheme, _matrix_config(scheme, 10.0, 0.9), _codebook_size(scheme), False)
        for scheme in verification.SCHEME_MATRIX
    ]
    points.append(("miso-rvq-fixed64", SchemeId.MISO_RVQ,
                   _matrix_config(SchemeId.MISO_RVQ, 10.0, 0.9), 64, True))
    return points


def fixed_codebook_reference(cb, config: SystemConfig, seed: int) -> tuple[float, float]:
    """(outage, standard error) of miso-rvq with one fixed codebook.

    The closed form averages over random codebooks, so it is no reference
    for a single codebook.  Given the stale channel, the aged gain on the
    selected beam is a scaled noncentral chi-square with 2 dof; its CDF is
    averaged over channels drawn from a generator the simulator never uses.
    """
    params = derive_params(config)
    gen = np.random.default_rng((seed, REF_STREAM))
    total = total_sq = 0.0
    for start in range(0, REF_SAMPLES, REF_CHUNK):
        n = min(REF_CHUNK, REF_SAMPLES - start)
        z = gen.standard_normal((n, config.n_t, 2))
        h = (z[..., 0] + 1j * z[..., 1]) * math.sqrt(0.5)
        gain = np.max(np.abs(h @ cb.vectors.conj().T) ** 2, axis=1)
        cond = special.chndtr(2.0 * params.beta, 2, 2.0 * params.mu * gain)
        total += float(cond.sum())
        total_sq += float(cond @ cond)
    mean = total / REF_SAMPLES
    return mean, math.sqrt(max(total_sq / REF_SAMPLES - mean * mean, 0.0) / REF_SAMPLES)


#: Two-sided chance of failing a correct point at 3 standard errors; the
#: mc-arbiter gate spreads it over all its points (Bonferroni), so a correct
#: pass fails a point no more often than a single 3-sigma test would.
FAMILY_ALPHA = 2.0 * NormalDist().cdf(-3.0)


def mc_arbiter(seed: int):
    """Each point's p_hat must lie within z_gate standard errors of its
    reference: the closed form, or for the fixed codebook the conditional
    average."""
    points = []
    for i, (label, scheme, config, n, fixed) in enumerate(mc_points()):
        # The codebook stream sits at the top of the point's stream block,
        # clear of the simulator's chunk streams.
        cb = rvq_generate(RngStream(seed, ((i + 1) << 32) - 1), n, config.n_t) if n else None
        ref = fixed_codebook_reference(cb, config, seed) if fixed else None
        points.append((i, label, scheme, config, n, fixed, cb, ref))
    z_gate = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * len(points)))

    def run(tracer, workers: int = MC_WORKERS) -> PassResult:
        result = PassResult(outcomes=[])
        for i, label, scheme, config, n, fixed, cb, ref in points:
            closed = analytic.outage_closed(scheme, config, n).value
            plan = TrialPlan(trials=MC_TRIALS, seed=seed, workers=workers)
            res = montecarlo.simulate_outage(
                scheme, config, cb, plan, fixed_codebook=fixed, stream_offset=i << 32
            )
            result.mc_trials += res.trials
            target, se = (closed, res.std_err) if ref is None else (
                ref[0], math.hypot(res.std_err, ref[1]))
            z = abs(res.p_hat - target) / se
            result.outcomes.append(Outcome(
                label, z <= z_gate, (res.outage_count, closed),
                f"p_hat={res.p_hat:.6e} reference={target:.6e} |z|={z:.2f} gate {z_gate:.2f}",
            ))
            if not _is_probability(closed):
                result.errors.append(f"{label}: closed form returned {closed!r}")
        return result

    return run


# ---------------------------------------------------------------------------
# analytic-grid
# ---------------------------------------------------------------------------

GRID_RHO = (0.8, 0.9, 0.97)
NON_RVQ = (SchemeId.MISO_PBF, SchemeId.MISO_TAS, SchemeId.MU_TAS, SchemeId.MU_PBF)

#: Known closed-form and quadrature limits at 10 dB, rho 0.9 unless the label
#: says otherwise; README.md lists the outcome of each.
EDGE_POINTS = (
    ("mu-tas.nr1.nu16.snr10.rho0.9", SchemeId.MU_TAS, _config(4, 1, 16, 10.0, 0.9), None),
    ("mu-tas.nr1.nu32.snr10.rho0.9", SchemeId.MU_TAS, _config(4, 1, 32, 10.0, 0.9), None),
    ("mu-tas.nr3.nu8.snr10.rho0.9", SchemeId.MU_TAS, _config(4, 3, 8, 10.0, 0.9), None),
    ("mu-pbf.nu32.snr10.rho0.9", SchemeId.MU_PBF, _config(4, 1, 32, 10.0, 0.9), None),
    ("miso-rvq.nt2.n16384.snr10.rho0.9", SchemeId.MISO_RVQ, _config(2, 1, 1, 10.0, 0.9), 16384),
    ("miso-pbf.snr30.rho0.999", SchemeId.MISO_PBF, _config(4, 1, 1, 30.0, 0.999), None),
)

#: The four slopes of verification.diversity_checks:
#: (label, scheme, rho, codebook size, expected slope, relative band).
DIVERSITY_CASES = (
    ("miso-rvq.rho1", SchemeId.MISO_RVQ, 1.0, verification.CODEBOOK_SIZE, 4.0, 0.10),
    ("miso-rvq.rho0.9", SchemeId.MISO_RVQ, 0.9, verification.CODEBOOK_SIZE, 1.0, 0.15),
    ("mu-tas.rho0.9", SchemeId.MU_TAS, 0.9, None, 2.0, 0.15),
    ("mu-pbf.rho0.9", SchemeId.MU_PBF, 0.9, None, 4.0, 0.15),
)


def grid_points() -> list[tuple[str, SchemeId, SystemConfig, int | None]]:
    points = [
        (f"{scheme.value}.snr10.rho{rho:g}", scheme, _matrix_config(scheme, 10.0, rho),
         _codebook_size(scheme))
        for scheme in verification.SCHEME_MATRIX
        for rho in GRID_RHO
    ]
    points += [
        (f"{scheme.value}.snr{snr:g}.rho0.99", scheme, _matrix_config(scheme, snr, 0.99), None)
        for scheme in NON_RVQ
        for snr in (10.0, 30.0)
    ]
    return points + list(EDGE_POINTS)


def _evaluate(fn, *args, **kwargs):
    """(value, error name): the returned value, or the error it raised."""
    try:
        return fn(*args, **kwargs).value, None
    except EVAL_ERRORS as exc:
        return None, type(exc).__name__


def _grid_point(label, scheme, config, n, tracer) -> tuple[Outcome, str | None]:
    with tracer.span("bench.point", point=label):
        closed, closed_err = _evaluate(analytic.outage_closed, scheme, config, n)
        quad, quad_err = _evaluate(analytic.outage_semianalytic, scheme, config, codebook_size=n)
    if closed_err or quad_err:
        detail = f"closed={closed_err or closed} quad={quad_err or quad}"
        return Outcome(label, False, (closed, closed_err, quad, quad_err), detail), None
    gap = abs(closed - quad)
    ok = gap < QUAD_TOL and gap <= QUAD_TOL * max(abs(closed), abs(quad))
    rel = gap / max(abs(closed), abs(quad)) if gap else 0.0
    outcome = Outcome(label, ok, (closed, None, quad, None),
                      f"closed={closed:.6e} quad={quad:.6e} |c-q|={gap:.2e} rel={rel:.2e}")
    bad = [v for v in (closed, quad) if not _is_probability(v)]
    return outcome, f"{label}: returned {bad!r}" if bad else None


def _slope(label, scheme, rho, n, expect, band) -> Outcome:
    config = _matrix_config(scheme, 10.0, rho)
    try:
        slope = analytic.diversity_order(scheme, config, (40.0, 50.0), codebook_size=n)
    except EVAL_ERRORS as exc:
        return Outcome(f"slope {label}", False, (None, type(exc).__name__), type(exc).__name__)
    ok = abs(slope - expect) <= band * expect
    return Outcome(f"slope {label}", ok, (slope, None),
                   f"slope={slope:.4f} expected {expect:g} +-{band:.0%}")


def analytic_grid(seed: int):
    """The seed fixes the evaluation order; the points themselves are fixed."""
    ops = [("point", p) for p in grid_points()] + [("slope", c) for c in DIVERSITY_CASES]
    random.Random(seed).shuffle(ops)

    def run(tracer, workers: int = MC_WORKERS) -> PassResult:
        result = PassResult(outcomes=[])
        for kind, op in ops:
            if kind == "point":
                outcome, error = _grid_point(*op, tracer)
                if error:
                    result.errors.append(error)
            else:
                outcome = _slope(*op)
            result.outcomes.append(outcome)
        result.outcomes.sort(key=lambda o: o.name)
        return result

    return run


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify(seed: int):
    """``bfoutage verify`` in-process; a check fails when its line says FAIL."""

    def run(tracer, workers: int = MC_WORKERS) -> PassResult:
        argv = ["verify", "--trials", str(VERIFY_TRIALS), "--workers", str(workers),
                "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines = out.getvalue().splitlines()
        result = PassResult(outcomes=[])
        for line in lines:
            if line.startswith(("PASS  ", "FAIL  ")):
                name, _, detail = line[6:].partition("  [")
                result.outcomes.append(
                    Outcome(name, line.startswith("PASS"), (line,), detail.rstrip("]")))
        passed = sum(o.ok for o in result.outcomes)
        total = len(result.outcomes)
        expected_code = cli.EXIT_OK if passed == total else cli.EXIT_VERIFY
        if not total or f"{passed}/{total} checks passed" not in lines[-1:]:
            result.errors.append(f"verify summary {lines[-1:]!r} does not match {passed}/{total}")
        if code != expected_code:
            result.errors.append(f"verify exited {code}, expected {expected_code}")
        return result

    return run


WORKLOADS = {
    "mc-arbiter": mc_arbiter,
    "analytic-grid": analytic_grid,
    "verify": verify,
}
