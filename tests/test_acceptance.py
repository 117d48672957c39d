"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Monte Carlo runs use a fixed seed so the suite is deterministic; it runs in
6-7 s on a 2-core x86-64 Xeon, criterion 1 taking about 6.5 s of that.

Criterion 4 (reduction identities) specializes the multiuser evaluators to a
single user.  The multiuser PBF/RVQ forms keep the full combining diversity of
the aged gain (that is what their Monte Carlo models, their high-SNR slopes,
and the n_t/n_r exchange identity all require), so with one user there is
nothing stale to select: mu-pbf reduces to ideal matched-filter beamforming
(miso-pbf at rho = 1), and mu-rvq to the captured-fraction average of an
n_t-dof gain with variance 1 - rho^2 (1 - nu), which equals miso-rvq at
rho = 1.  Both references are computed without the multiuser algebra.
"""

from bfoutage import verification
from bfoutage.cli import EXIT_OK, main

SEED = 20260810
TRIALS = 1_000_000
WORKERS = 4


def _report(num: int, name: str, checks) -> bool:
    passed = all(c.passed for c in checks)
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} "
          f"[{sum(c.passed for c in checks)}/{len(checks)} checks]")
    for c in checks:
        if not c.passed:
            print("   ", c.line())
    return passed


def test_criterion_1_three_way_agreement():
    checks = verification.three_way_agreement_checks(TRIALS, SEED, WORKERS)
    assert _report(1, "three-way agreement grid", checks)


def test_criterion_2_variant_arbitration():
    checks = verification.arbitration_checks(TRIALS, SEED, WORKERS)
    ok = _report(2, "formula-variant arbitration", checks)
    for c in checks:
        print("   ", c.line())
    assert ok


def test_criterion_3_diversity_orders():
    assert _report(3, "diversity orders", verification.diversity_checks())


def test_criterion_4_reduction_identities():
    checks = verification.reduction_identity_checks()
    ok = _report(4, "reduction identities and duality swap", checks)
    dual = [c for c in checks
            if c.name.startswith(("reduction mu-pbf(n_u=1)", "reduction mu-rvq(n_u=1)"))]
    other = [c for c in checks if c not in dual]
    print(f"    mu-tas reduction and duality swap: {sum(c.passed for c in other)}/{len(other)} "
          f"pass; dual single-user reductions: {sum(c.passed for c in dual)}/{len(dual)} pass")
    assert ok


def test_criterion_5_figure_shapes():
    assert _report(5, "figure-shape properties", verification.figure_shape_checks())


def test_criterion_6_combinatorial_suites():
    assert _report(6, "combinatorial and special-function suites",
                   verification.combinatorial_checks(seed=SEED))


def test_criterion_7_determinism(tmp_path):
    checks = list(verification.determinism_checks(seed=SEED))

    args = [
        "sweep", "--scheme", "mu-rvq", "--axis", "snr-db", "--values", "5,15",
        "--nu", "2", "--rho", "0.9", "--eval", "closed,mc",
        "--trials", "100000", "--seed", str(SEED),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok_a = main(args + ["--output", str(a)]) == EXIT_OK
    ok_b = main(args + ["--workers", "8", "--output", str(b)]) == EXIT_OK
    identical = ok_a and ok_b and a.read_bytes() == b.read_bytes()
    checks.append(
        verification.CheckResult(
            name="determinism CSV bytes identical across reruns and worker counts",
            passed=identical,
        )
    )
    assert _report(7, "determinism", checks)
