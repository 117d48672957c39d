"""Verify's Monte Carlo checks pinned to recorded counts and lines.

The engine is pinned first: the points of the agreement and arbitration
checks, in the layout that gave every point its own streams, must keep the
counts they had before points on one stream shared their draws.  The check
lines are then pinned in the current layout, where a scheme's agreement
points share one stream block and an arbitration family's points another,
whatever the worker count."""

import pytest

from bfoutage import analytic, montecarlo, verification
from bfoutage.montecarlo import McPoint, TrialPlan

SEED = 20260810
TRIALS = 30_000

#: Outage counts of the 72 agreement points (scheme, SNR, rho nesting of
#: three_way_agreement_checks; point k on stream offset k << 32), then of the
#: 16 arbitration points (point k on seed SEED + k, offset 0), recorded at
#: commit 90d0338, where every point ran on its own streams.
PARENT_AGREEMENT_COUNTS = (
    21807, 19118, 15866, 5393, 2834, 1018, 1009, 298, 23, 234, 47, 1,
    27463, 26871, 26414, 11943, 9389, 6365, 3208, 1612, 295, 793, 323, 3,
    27816, 27600, 27399, 12774, 10363, 7022, 3465, 1878, 315, 916, 347, 3,
    18593, 15897, 11966, 1830, 574, 4, 95, 12, 0, 3, 0, 0,
    11372, 9991, 8313, 354, 184, 38, 4, 3, 0, 0, 0, 0,
    20349, 21830, 23418, 1717, 1929, 1995, 42, 32, 13, 0, 1, 0,
)
PARENT_ARBITRATION_COUNTS = (
    21807, 19170, 5320, 2939, 899, 277, 197, 42,
    27819, 27553, 12779, 10483, 3386, 1855, 893, 321,
)


def _parent_layout_points() -> list[McPoint]:
    """The 88 points of the agreement and arbitration checks as laid out at
    commit 90d0338: one stream block per agreement point, one seed per
    arbitration point."""
    plan = TrialPlan(trials=TRIALS, seed=SEED)
    points = []
    for scheme in verification.SCHEME_MATRIX:
        for snr_db in verification.GRID_SNR_DB:
            for rho in verification.GRID_RHO:
                config = verification._cfg(scheme, snr_db, rho)
                n = verification.CODEBOOK_SIZE if analytic.scheme_uses_codebook(scheme) else None
                points.append(McPoint(scheme, config, n, plan, stream_offset=len(points) << 32))
    for k, (scheme, snr_db, rho) in enumerate(
        (scheme, snr_db, rho)
        for scheme in (analytic.SchemeId.MISO_PBF, analytic.SchemeId.MISO_TAS)
        for snr_db in verification.GRID_SNR_DB
        for rho in verification.GRID_RHO if rho < 1.0
    ):
        config = verification._cfg(scheme, snr_db, rho)
        points.append(McPoint(scheme, config, None, TrialPlan(trials=TRIALS, seed=SEED + k)))
    return points

#: three_way_agreement_checks lines, then arbitration_checks lines, recorded
#: once the checks' points shared stream blocks (two workers).  Seven |c-q|
#: fields were re-recorded when the kernel's first window got a narrower upper
#: half, and fourteen when windows from k = 0 took their Poisson weights by
#: recurrence and the first window's upper edge was measured from the peak
#: itself, and eight (by 1e-16 to 2e-16 absolute) when those windows were
#: summed nested from their top term down; the Monte Carlo fields did not
#: move.
PINNED_MC_LINES = (
    'PASS  agreement miso-pbf snr=5dB rho=0.8  [closed=7.284e-01 quad=7.284e-01 mc=7.269e-01 |c-q|=6.1e-15 dev=1.49e-03 3se=7.72e-03]',
    'PASS  agreement miso-pbf snr=5dB rho=0.9  [closed=6.373e-01 quad=6.373e-01 mc=6.397e-01 |c-q|=5.9e-15 dev=2.43e-03 3se=8.32e-03]',
    'PASS  agreement miso-pbf snr=5dB rho=1  [closed=5.254e-01 quad=5.254e-01 mc=5.287e-01 |c-q|=0.0e+00 dev=3.23e-03 3se=8.65e-03]',
    'PASS  agreement miso-pbf snr=10dB rho=0.8  [closed=1.787e-01 quad=1.787e-01 mc=1.781e-01 |c-q|=1.9e-15 dev=6.49e-04 3se=6.63e-03]',
    'PASS  agreement miso-pbf snr=10dB rho=0.9  [closed=9.740e-02 quad=9.740e-02 mc=9.810e-02 |c-q|=9.3e-16 dev=6.96e-04 3se=5.15e-03]',
    'PASS  agreement miso-pbf snr=10dB rho=1  [closed=3.377e-02 quad=3.377e-02 mc=3.537e-02 |c-q|=0.0e+00 dev=1.60e-03 3se=3.20e-03]',
    'PASS  agreement miso-pbf snr=15dB rho=0.8  [closed=3.191e-02 quad=3.191e-02 mc=3.203e-02 |c-q|=3.1e-16 dev=1.26e-04 3se=3.05e-03]',
    'PASS  agreement miso-pbf snr=15dB rho=0.9  [closed=9.999e-03 quad=9.999e-03 mc=1.020e-02 |c-q|=6.2e-17 dev=2.01e-04 3se=1.74e-03]',
    'PASS  agreement miso-pbf snr=15dB rho=1  [closed=6.390e-04 quad=6.390e-04 mc=6.333e-04 |c-q|=0.0e+00 dev=5.70e-06 3se=4.36e-04]',
    'PASS  agreement miso-pbf snr=20dB rho=0.8  [closed=7.049e-03 quad=7.049e-03 mc=6.633e-03 |c-q|=6.2e-17 dev=4.16e-04 3se=1.41e-03]',
    'PASS  agreement miso-pbf snr=20dB rho=0.9  [closed=1.462e-03 quad=1.462e-03 mc=1.500e-03 |c-q|=1.2e-17 dev=3.85e-05 3se=6.70e-04]',
    'PASS  agreement miso-pbf snr=20dB rho=1  [closed=7.851e-06 quad=7.851e-06 mc=0.000e+00 |c-q|=0.0e+00 dev=7.85e-06 3se=1.00e-04]',
    'PASS  agreement miso-rvq snr=5dB rho=0.8  [closed=9.117e-01 quad=9.117e-01 mc=9.116e-01 |c-q|=1.1e-14 dev=5.43e-05 3se=4.92e-03]',
    'PASS  agreement miso-rvq snr=5dB rho=0.9  [closed=8.958e-01 quad=8.958e-01 mc=8.948e-01 |c-q|=9.3e-15 dev=1.05e-03 3se=5.31e-03]',
    'PASS  agreement miso-rvq snr=5dB rho=1  [closed=8.799e-01 quad=8.799e-01 mc=8.768e-01 |c-q|=0.0e+00 dev=3.07e-03 3se=5.69e-03]',
    'PASS  agreement miso-rvq snr=10dB rho=0.8  [closed=3.993e-01 quad=3.993e-01 mc=3.949e-01 |c-q|=3.6e-15 dev=4.40e-03 3se=8.47e-03]',
    'PASS  agreement miso-rvq snr=10dB rho=0.9  [closed=3.141e-01 quad=3.141e-01 mc=3.113e-01 |c-q|=3.2e-15 dev=2.75e-03 3se=8.02e-03]',
    'PASS  agreement miso-rvq snr=10dB rho=1  [closed=2.102e-01 quad=2.102e-01 mc=2.090e-01 |c-q|=2.8e-17 dev=1.22e-03 3se=7.04e-03]',
    'PASS  agreement miso-rvq snr=15dB rho=0.8  [closed=1.050e-01 quad=1.050e-01 mc=1.047e-01 |c-q|=1.0e-15 dev=3.39e-04 3se=5.30e-03]',
    'PASS  agreement miso-rvq snr=15dB rho=0.9  [closed=5.488e-02 quad=5.488e-02 mc=5.367e-02 |c-q|=5.3e-16 dev=1.22e-03 3se=3.90e-03]',
    'PASS  agreement miso-rvq snr=15dB rho=1  [closed=9.697e-03 quad=9.697e-03 mc=9.200e-03 |c-q|=1.7e-18 dev=4.97e-04 3se=1.65e-03]',
    'PASS  agreement miso-rvq snr=20dB rho=0.8  [closed=2.798e-02 quad=2.798e-02 mc=2.807e-02 |c-q|=2.7e-16 dev=8.64e-05 3se=2.86e-03]',
    'PASS  agreement miso-rvq snr=20dB rho=0.9  [closed=1.042e-02 quad=1.042e-02 mc=1.047e-02 |c-q|=9.0e-17 dev=5.02e-05 3se=1.76e-03]',
    'PASS  agreement miso-rvq snr=20dB rho=1  [closed=1.792e-04 quad=1.792e-04 mc=1.333e-04 |c-q|=0.0e+00 dev=4.59e-05 3se=2.00e-04]',
    'PASS  agreement miso-tas snr=5dB rho=0.8  [closed=9.280e-01 quad=9.280e-01 mc=9.293e-01 |c-q|=9.4e-15 dev=1.33e-03 3se=4.44e-03]',
    'PASS  agreement miso-tas snr=5dB rho=0.9  [closed=9.193e-01 quad=9.193e-01 mc=9.207e-01 |c-q|=1.2e-14 dev=1.44e-03 3se=4.68e-03]',
    'PASS  agreement miso-tas snr=5dB rho=1  [closed=9.130e-01 quad=9.130e-01 mc=9.125e-01 |c-q|=0.0e+00 dev=5.67e-04 3se=4.90e-03]',
    'PASS  agreement miso-tas snr=10dB rho=0.8  [closed=4.289e-01 quad=4.289e-01 mc=4.309e-01 |c-q|=3.9e-15 dev=2.05e-03 3se=8.58e-03]',
    'PASS  agreement miso-tas snr=10dB rho=0.9  [closed=3.462e-01 quad=3.462e-01 mc=3.495e-01 |c-q|=3.3e-15 dev=3.34e-03 3se=8.26e-03]',
    'PASS  agreement miso-tas snr=10dB rho=1  [closed=2.385e-01 quad=2.385e-01 mc=2.445e-01 |c-q|=0.0e+00 dev=6.03e-03 3se=7.44e-03]',
    'PASS  agreement miso-tas snr=15dB rho=0.8  [closed=1.155e-01 quad=1.155e-01 mc=1.170e-01 |c-q|=1.2e-15 dev=1.42e-03 3se=5.57e-03]',
    'PASS  agreement miso-tas snr=15dB rho=0.9  [closed=6.118e-02 quad=6.118e-02 mc=6.113e-02 |c-q|=3.6e-16 dev=4.88e-05 3se=4.15e-03]',
    'PASS  agreement miso-tas snr=15dB rho=1  [closed=9.943e-03 quad=9.943e-03 mc=9.367e-03 |c-q|=6.9e-18 dev=5.77e-04 3se=1.67e-03]',
    'PASS  agreement miso-tas snr=20dB rho=0.8  [closed=3.098e-02 quad=3.098e-02 mc=3.073e-02 |c-q|=2.6e-16 dev=2.48e-04 3se=2.99e-03]',
    'PASS  agreement miso-tas snr=20dB rho=0.9  [closed=1.151e-02 quad=1.151e-02 mc=1.153e-02 |c-q|=1.6e-16 dev=2.17e-05 3se=1.85e-03]',
    'PASS  agreement miso-tas snr=20dB rho=1  [closed=1.635e-04 quad=1.635e-04 mc=1.333e-04 |c-q|=0.0e+00 dev=3.02e-05 3se=2.00e-04]',
    'PASS  agreement mu-tas snr=5dB rho=0.8  [closed=6.208e-01 quad=6.208e-01 mc=6.185e-01 |c-q|=1.5e-14 dev=2.27e-03 3se=8.41e-03]',
    'PASS  agreement mu-tas snr=5dB rho=0.9  [closed=5.290e-01 quad=5.290e-01 mc=5.274e-01 |c-q|=4.9e-15 dev=1.59e-03 3se=8.65e-03]',
    'PASS  agreement mu-tas snr=5dB rho=1  [closed=4.014e-01 quad=4.014e-01 mc=3.991e-01 |c-q|=0.0e+00 dev=2.34e-03 3se=8.48e-03]',
    'PASS  agreement mu-tas snr=10dB rho=0.8  [closed=6.131e-02 quad=6.131e-02 mc=6.053e-02 |c-q|=5.3e-15 dev=7.81e-04 3se=4.13e-03]',
    'PASS  agreement mu-tas snr=10dB rho=0.9  [closed=1.876e-02 quad=1.876e-02 mc=1.870e-02 |c-q|=4.7e-15 dev=5.84e-05 3se=2.35e-03]',
    'PASS  agreement mu-tas snr=10dB rho=1  [closed=1.678e-04 quad=1.678e-04 mc=6.667e-05 |c-q|=0.0e+00 dev=1.01e-04 3se=1.41e-04]',
    'PASS  agreement mu-tas snr=15dB rho=0.8  [closed=3.328e-03 quad=3.328e-03 mc=3.333e-03 |c-q|=1.7e-15 dev=5.25e-06 3se=9.98e-04]',
    'PASS  agreement mu-tas snr=15dB rho=0.9  [closed=2.979e-04 quad=2.979e-04 mc=4.000e-04 |c-q|=4.2e-16 dev=1.02e-04 3se=3.46e-04]',
    'PASS  agreement mu-tas snr=15dB rho=1  [closed=9.859e-11 quad=9.859e-11 mc=0.000e+00 |c-q|=0.0e+00 dev=9.86e-11 3se=1.00e-04]',
    'PASS  agreement mu-tas snr=20dB rho=0.8  [closed=2.240e-04 quad=2.240e-04 mc=3.333e-04 |c-q|=3.4e-16 dev=1.09e-04 3se=3.16e-04]',
    'PASS  agreement mu-tas snr=20dB rho=0.9  [closed=8.589e-06 quad=8.589e-06 mc=0.000e+00 |c-q|=2.7e-16 dev=8.59e-06 3se=1.00e-04]',
    'PASS  agreement mu-tas snr=20dB rho=1  [closed=3.820e-18 quad=3.820e-18 mc=0.000e+00 |c-q|=0.0e+00 dev=3.82e-18 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=5dB rho=0.8  [closed=3.775e-01 quad=3.775e-01 mc=3.774e-01 |c-q|=1.8e-15 dev=1.15e-04 3se=8.40e-03]',
    'PASS  agreement mu-pbf snr=5dB rho=0.9  [closed=3.324e-01 quad=3.324e-01 mc=3.324e-01 |c-q|=2.1e-15 dev=4.46e-05 3se=8.16e-03]',
    'PASS  agreement mu-pbf snr=5dB rho=1  [closed=2.761e-01 quad=2.761e-01 mc=2.739e-01 |c-q|=0.0e+00 dev=2.22e-03 3se=7.72e-03]',
    'PASS  agreement mu-pbf snr=10dB rho=0.8  [closed=1.196e-02 quad=1.196e-02 mc=1.197e-02 |c-q|=1.7e-16 dev=1.15e-05 3se=1.88e-03]',
    'PASS  agreement mu-pbf snr=10dB rho=0.9  [closed=6.071e-03 quad=6.071e-03 mc=6.400e-03 |c-q|=8.6e-17 dev=3.29e-04 3se=1.38e-03]',
    'PASS  agreement mu-pbf snr=10dB rho=1  [closed=1.140e-03 quad=1.140e-03 mc=1.167e-03 |c-q|=0.0e+00 dev=2.63e-05 3se=5.91e-04]',
    'PASS  agreement mu-pbf snr=15dB rho=0.8  [closed=1.443e-04 quad=1.443e-04 mc=1.000e-04 |c-q|=3.7e-18 dev=4.43e-05 3se=1.73e-04]',
    'PASS  agreement mu-pbf snr=15dB rho=0.9  [closed=4.212e-05 quad=4.212e-05 mc=3.333e-05 |c-q|=2.0e-19 dev=8.79e-06 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=15dB rho=1  [closed=4.084e-07 quad=4.084e-07 mc=0.000e+00 |c-q|=0.0e+00 dev=4.08e-07 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=20dB rho=0.8  [closed=1.470e-06 quad=1.470e-06 mc=0.000e+00 |c-q|=4.1e-20 dev=1.47e-06 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=20dB rho=0.9  [closed=3.156e-07 quad=3.156e-07 mc=0.000e+00 |c-q|=1.1e-20 dev=3.16e-07 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=20dB rho=1  [closed=6.163e-11 quad=6.163e-11 mc=0.000e+00 |c-q|=0.0e+00 dev=6.16e-11 3se=1.00e-04]',
    'PASS  agreement mu-rvq snr=5dB rho=0.8  [closed=6.796e-01 quad=6.796e-01 mc=6.827e-01 |c-q|=4.4e-15 dev=3.05e-03 3se=8.06e-03]',
    'PASS  agreement mu-rvq snr=5dB rho=0.9  [closed=7.273e-01 quad=7.273e-01 mc=7.271e-01 |c-q|=3.6e-15 dev=2.12e-04 3se=7.72e-03]',
    'PASS  agreement mu-rvq snr=5dB rho=1  [closed=7.842e-01 quad=7.842e-01 mc=7.819e-01 |c-q|=0.0e+00 dev=2.27e-03 3se=7.15e-03]',
    'PASS  agreement mu-rvq snr=10dB rho=0.8  [closed=5.755e-02 quad=5.755e-02 mc=5.683e-02 |c-q|=4.2e-16 dev=7.18e-04 3se=4.01e-03]',
    'PASS  agreement mu-rvq snr=10dB rho=0.9  [closed=6.358e-02 quad=6.358e-02 mc=6.197e-02 |c-q|=6.1e-16 dev=1.61e-03 3se=4.18e-03]',
    'PASS  agreement mu-rvq snr=10dB rho=1  [closed=6.554e-02 quad=6.554e-02 mc=6.433e-02 |c-q|=0.0e+00 dev=1.21e-03 3se=4.25e-03]',
    'PASS  agreement mu-rvq snr=15dB rho=0.8  [closed=1.162e-03 quad=1.162e-03 mc=1.067e-03 |c-q|=1.0e-17 dev=9.57e-05 3se=5.65e-04]',
    'PASS  agreement mu-rvq snr=15dB rho=0.9  [closed=1.136e-03 quad=1.136e-03 mc=9.667e-04 |c-q|=1.3e-17 dev=1.70e-04 3se=5.38e-04]',
    'PASS  agreement mu-rvq snr=15dB rho=1  [closed=3.722e-04 quad=3.722e-04 mc=5.000e-04 |c-q|=0.0e+00 dev=1.28e-04 3se=3.87e-04]',
    'PASS  agreement mu-rvq snr=20dB rho=0.8  [closed=1.445e-05 quad=1.445e-05 mc=6.667e-05 |c-q|=1.3e-19 dev=5.22e-05 3se=1.41e-04]',
    'PASS  agreement mu-rvq snr=20dB rho=0.9  [closed=1.290e-05 quad=1.290e-05 mc=0.000e+00 |c-q|=1.4e-19 dev=1.29e-05 3se=1.00e-04]',
    'PASS  agreement mu-rvq snr=20dB rho=1  [closed=4.006e-07 quad=4.006e-07 mc=0.000e+00 |c-q|=0.0e+00 dev=4.01e-07 3se=1.00e-04]',
    'PASS  arbitration matched-filter-coefficient: corrected variant consistent at all points  [max |z| = 1.66]',
    'PASS  arbitration matched-filter-coefficient: verbatim variant inconsistent somewhere  [max |z| = inf]',
    'PASS  arbitration antenna-selection-exponent: corrected variant consistent at all points  [max |z| = 1.54]',
    'PASS  arbitration antenna-selection-exponent: verbatim variant inconsistent somewhere  [max |z| = 139.46]',
    'PASS  arbitration matched-filter-coefficient: factorial variant rejected  [max |z| = 134.66]',
)

#: combinatorial_checks' empirical noncentral chi-square line at 200 000
#: samples, every triple reading one shared draw.  Re-recorded (1.55 -> 1.22)
#: when the draws moved from stream (seed, 0), the first chunk of the
#: agreement checks' miso-pbf block, to a stream of their own.
PINNED_CHI2_LINE = 'PASS  noncentral chi-square CDF vs empirical CDF at 9 parameter triples  [worst |z| = 1.22]'


@pytest.mark.parametrize("workers", [1, 3])
def test_engine_keeps_each_points_stream(workers):
    """Draw sharing inside simulate_outages leaves every point's count where
    it was when each point drew alone."""
    counts = [r.outage_count for r in montecarlo.simulate_outages(_parent_layout_points(), workers)]
    assert tuple(counts) == PARENT_AGREEMENT_COUNTS + PARENT_ARBITRATION_COUNTS


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_checks_match_recorded_lines(workers):
    checks = verification.three_way_agreement_checks(TRIALS, SEED, workers)
    checks += verification.arbitration_checks(TRIALS, SEED, workers)
    assert tuple(c.line() for c in checks) == PINNED_MC_LINES


def test_blocked_chi_square_draws_match_recorded_line():
    checks = verification.combinatorial_checks(samples=200_000, seed=SEED)
    assert checks[-1].line() == PINNED_CHI2_LINE
