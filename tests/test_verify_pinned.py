"""Verify's Monte Carlo checks pinned to lines recorded before the checks ran
their points as one batch (commit 1c5807a, one worker): the batch must keep
every point's streams, seeds and counts, whatever the worker count."""

import pytest

from bfoutage import verification

SEED = 20260810
TRIALS = 30_000

#: three_way_agreement_checks lines, then arbitration_checks lines.
PINNED_MC_LINES = (
    'PASS  agreement miso-pbf snr=5dB rho=0.8  [closed=7.284e-01 quad=7.284e-01 mc=7.269e-01 |c-q|=6.2e-15 dev=1.49e-03 3se=7.72e-03]',
    'PASS  agreement miso-pbf snr=5dB rho=0.9  [closed=6.373e-01 quad=6.373e-01 mc=6.373e-01 |c-q|=5.9e-15 dev=3.81e-05 3se=8.33e-03]',
    'PASS  agreement miso-pbf snr=5dB rho=1  [closed=5.254e-01 quad=5.254e-01 mc=5.289e-01 |c-q|=0.0e+00 dev=3.43e-03 3se=8.65e-03]',
    'PASS  agreement miso-pbf snr=10dB rho=0.8  [closed=1.787e-01 quad=1.787e-01 mc=1.798e-01 |c-q|=1.9e-15 dev=1.05e-03 3se=6.65e-03]',
    'PASS  agreement miso-pbf snr=10dB rho=0.9  [closed=9.740e-02 quad=9.740e-02 mc=9.447e-02 |c-q|=9.3e-16 dev=2.94e-03 3se=5.07e-03]',
    'PASS  agreement miso-pbf snr=10dB rho=1  [closed=3.377e-02 quad=3.377e-02 mc=3.393e-02 |c-q|=0.0e+00 dev=1.64e-04 3se=3.14e-03]',
    'PASS  agreement miso-pbf snr=15dB rho=0.8  [closed=3.191e-02 quad=3.191e-02 mc=3.363e-02 |c-q|=3.1e-16 dev=1.73e-03 3se=3.12e-03]',
    'PASS  agreement miso-pbf snr=15dB rho=0.9  [closed=9.999e-03 quad=9.999e-03 mc=9.933e-03 |c-q|=6.2e-17 dev=6.59e-05 3se=1.72e-03]',
    'PASS  agreement miso-pbf snr=15dB rho=1  [closed=6.390e-04 quad=6.390e-04 mc=7.667e-04 |c-q|=0.0e+00 dev=1.28e-04 3se=4.79e-04]',
    'PASS  agreement miso-pbf snr=20dB rho=0.8  [closed=7.049e-03 quad=7.049e-03 mc=7.800e-03 |c-q|=6.2e-17 dev=7.51e-04 3se=1.52e-03]',
    'PASS  agreement miso-pbf snr=20dB rho=0.9  [closed=1.462e-03 quad=1.462e-03 mc=1.567e-03 |c-q|=1.2e-17 dev=1.05e-04 3se=6.85e-04]',
    'PASS  agreement miso-pbf snr=20dB rho=1  [closed=7.851e-06 quad=7.851e-06 mc=3.333e-05 |c-q|=0.0e+00 dev=2.55e-05 3se=1.00e-04]',
    'PASS  agreement miso-rvq snr=5dB rho=0.8  [closed=9.117e-01 quad=9.117e-01 mc=9.154e-01 |c-q|=1.1e-14 dev=3.75e-03 3se=4.82e-03]',
    'PASS  agreement miso-rvq snr=5dB rho=0.9  [closed=8.958e-01 quad=8.958e-01 mc=8.957e-01 |c-q|=7.0e-15 dev=1.14e-04 3se=5.29e-03]',
    'PASS  agreement miso-rvq snr=5dB rho=1  [closed=8.799e-01 quad=8.799e-01 mc=8.805e-01 |c-q|=0.0e+00 dev=5.93e-04 3se=5.62e-03]',
    'PASS  agreement miso-rvq snr=10dB rho=0.8  [closed=3.993e-01 quad=3.993e-01 mc=3.981e-01 |c-q|=3.6e-15 dev=1.16e-03 3se=8.48e-03]',
    'PASS  agreement miso-rvq snr=10dB rho=0.9  [closed=3.141e-01 quad=3.141e-01 mc=3.130e-01 |c-q|=3.2e-15 dev=1.11e-03 3se=8.03e-03]',
    'PASS  agreement miso-rvq snr=10dB rho=1  [closed=2.102e-01 quad=2.102e-01 mc=2.122e-01 |c-q|=2.8e-17 dev=1.94e-03 3se=7.08e-03]',
    'PASS  agreement miso-rvq snr=15dB rho=0.8  [closed=1.050e-01 quad=1.050e-01 mc=1.069e-01 |c-q|=1.0e-15 dev=1.89e-03 3se=5.35e-03]',
    'PASS  agreement miso-rvq snr=15dB rho=0.9  [closed=5.488e-02 quad=5.488e-02 mc=5.373e-02 |c-q|=5.3e-16 dev=1.15e-03 3se=3.91e-03]',
    'PASS  agreement miso-rvq snr=15dB rho=1  [closed=9.697e-03 quad=9.697e-03 mc=9.833e-03 |c-q|=1.7e-18 dev=1.36e-04 3se=1.71e-03]',
    'PASS  agreement miso-rvq snr=20dB rho=0.8  [closed=2.798e-02 quad=2.798e-02 mc=2.643e-02 |c-q|=2.7e-16 dev=1.55e-03 3se=2.78e-03]',
    'PASS  agreement miso-rvq snr=20dB rho=0.9  [closed=1.042e-02 quad=1.042e-02 mc=1.077e-02 |c-q|=9.0e-17 dev=3.50e-04 3se=1.79e-03]',
    'PASS  agreement miso-rvq snr=20dB rho=1  [closed=1.792e-04 quad=1.792e-04 mc=1.000e-04 |c-q|=0.0e+00 dev=7.92e-05 3se=1.73e-04]',
    'PASS  agreement miso-tas snr=5dB rho=0.8  [closed=9.280e-01 quad=9.280e-01 mc=9.272e-01 |c-q|=9.2e-15 dev=8.05e-04 3se=4.50e-03]',
    'PASS  agreement miso-tas snr=5dB rho=0.9  [closed=9.193e-01 quad=9.193e-01 mc=9.200e-01 |c-q|=9.2e-15 dev=7.44e-04 3se=4.70e-03]',
    'PASS  agreement miso-tas snr=5dB rho=1  [closed=9.130e-01 quad=9.130e-01 mc=9.133e-01 |c-q|=0.0e+00 dev=2.66e-04 3se=4.87e-03]',
    'PASS  agreement miso-tas snr=10dB rho=0.8  [closed=4.289e-01 quad=4.289e-01 mc=4.258e-01 |c-q|=4.0e-15 dev=3.08e-03 3se=8.56e-03]',
    'PASS  agreement miso-tas snr=10dB rho=0.9  [closed=3.462e-01 quad=3.462e-01 mc=3.454e-01 |c-q|=3.3e-15 dev=7.60e-04 3se=8.24e-03]',
    'PASS  agreement miso-tas snr=10dB rho=1  [closed=2.385e-01 quad=2.385e-01 mc=2.341e-01 |c-q|=0.0e+00 dev=4.40e-03 3se=7.33e-03]',
    'PASS  agreement miso-tas snr=15dB rho=0.8  [closed=1.155e-01 quad=1.155e-01 mc=1.155e-01 |c-q|=1.2e-15 dev=4.85e-05 3se=5.54e-03]',
    'PASS  agreement miso-tas snr=15dB rho=0.9  [closed=6.118e-02 quad=6.118e-02 mc=6.260e-02 |c-q|=3.8e-16 dev=1.42e-03 3se=4.20e-03]',
    'PASS  agreement miso-tas snr=15dB rho=1  [closed=9.943e-03 quad=9.943e-03 mc=1.050e-02 |c-q|=6.9e-18 dev=5.57e-04 3se=1.77e-03]',
    'PASS  agreement miso-tas snr=20dB rho=0.8  [closed=3.098e-02 quad=3.098e-02 mc=3.053e-02 |c-q|=2.6e-16 dev=4.48e-04 3se=2.98e-03]',
    'PASS  agreement miso-tas snr=20dB rho=0.9  [closed=1.151e-02 quad=1.151e-02 mc=1.157e-02 |c-q|=1.6e-16 dev=5.50e-05 3se=1.85e-03]',
    'PASS  agreement miso-tas snr=20dB rho=1  [closed=1.635e-04 quad=1.635e-04 mc=1.000e-04 |c-q|=0.0e+00 dev=6.35e-05 3se=1.73e-04]',
    'PASS  agreement mu-tas snr=5dB rho=0.8  [closed=6.208e-01 quad=6.208e-01 mc=6.198e-01 |c-q|=1.5e-14 dev=1.04e-03 3se=8.41e-03]',
    'PASS  agreement mu-tas snr=5dB rho=0.9  [closed=5.290e-01 quad=5.290e-01 mc=5.299e-01 |c-q|=4.9e-15 dev=8.82e-04 3se=8.64e-03]',
    'PASS  agreement mu-tas snr=5dB rho=1  [closed=4.014e-01 quad=4.014e-01 mc=3.989e-01 |c-q|=0.0e+00 dev=2.54e-03 3se=8.48e-03]',
    'PASS  agreement mu-tas snr=10dB rho=0.8  [closed=6.131e-02 quad=6.131e-02 mc=6.100e-02 |c-q|=5.3e-15 dev=3.15e-04 3se=4.15e-03]',
    'PASS  agreement mu-tas snr=10dB rho=0.9  [closed=1.876e-02 quad=1.876e-02 mc=1.913e-02 |c-q|=4.7e-15 dev=3.75e-04 3se=2.37e-03]',
    'PASS  agreement mu-tas snr=10dB rho=1  [closed=1.678e-04 quad=1.678e-04 mc=1.333e-04 |c-q|=0.0e+00 dev=3.45e-05 3se=2.00e-04]',
    'PASS  agreement mu-tas snr=15dB rho=0.8  [closed=3.328e-03 quad=3.328e-03 mc=3.167e-03 |c-q|=1.7e-15 dev=1.61e-04 3se=9.73e-04]',
    'PASS  agreement mu-tas snr=15dB rho=0.9  [closed=2.979e-04 quad=2.979e-04 mc=4.000e-04 |c-q|=4.2e-16 dev=1.02e-04 3se=3.46e-04]',
    'PASS  agreement mu-tas snr=15dB rho=1  [closed=9.859e-11 quad=9.859e-11 mc=0.000e+00 |c-q|=0.0e+00 dev=9.86e-11 3se=1.00e-04]',
    'PASS  agreement mu-tas snr=20dB rho=0.8  [closed=2.240e-04 quad=2.240e-04 mc=1.000e-04 |c-q|=3.4e-16 dev=1.24e-04 3se=1.73e-04]',
    'PASS  agreement mu-tas snr=20dB rho=0.9  [closed=8.589e-06 quad=8.589e-06 mc=0.000e+00 |c-q|=2.7e-16 dev=8.59e-06 3se=1.00e-04]',
    'PASS  agreement mu-tas snr=20dB rho=1  [closed=3.820e-18 quad=3.820e-18 mc=0.000e+00 |c-q|=0.0e+00 dev=3.82e-18 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=5dB rho=0.8  [closed=3.775e-01 quad=3.775e-01 mc=3.791e-01 |c-q|=1.9e-15 dev=1.55e-03 3se=8.40e-03]',
    'PASS  agreement mu-pbf snr=5dB rho=0.9  [closed=3.324e-01 quad=3.324e-01 mc=3.330e-01 |c-q|=2.3e-15 dev=6.78e-04 3se=8.16e-03]',
    'PASS  agreement mu-pbf snr=5dB rho=1  [closed=2.761e-01 quad=2.761e-01 mc=2.771e-01 |c-q|=0.0e+00 dev=1.02e-03 3se=7.75e-03]',
    'PASS  agreement mu-pbf snr=10dB rho=0.8  [closed=1.196e-02 quad=1.196e-02 mc=1.180e-02 |c-q|=1.8e-16 dev=1.55e-04 3se=1.87e-03]',
    'PASS  agreement mu-pbf snr=10dB rho=0.9  [closed=6.071e-03 quad=6.071e-03 mc=6.133e-03 |c-q|=8.8e-17 dev=6.27e-05 3se=1.35e-03]',
    'PASS  agreement mu-pbf snr=10dB rho=1  [closed=1.140e-03 quad=1.140e-03 mc=1.267e-03 |c-q|=0.0e+00 dev=1.26e-04 3se=6.16e-04]',
    'PASS  agreement mu-pbf snr=15dB rho=0.8  [closed=1.443e-04 quad=1.443e-04 mc=1.333e-04 |c-q|=3.7e-18 dev=1.10e-05 3se=2.00e-04]',
    'PASS  agreement mu-pbf snr=15dB rho=0.9  [closed=4.212e-05 quad=4.212e-05 mc=1.000e-04 |c-q|=2.0e-19 dev=5.79e-05 3se=1.73e-04]',
    'PASS  agreement mu-pbf snr=15dB rho=1  [closed=4.084e-07 quad=4.084e-07 mc=0.000e+00 |c-q|=0.0e+00 dev=4.08e-07 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=20dB rho=0.8  [closed=1.470e-06 quad=1.470e-06 mc=0.000e+00 |c-q|=4.1e-20 dev=1.47e-06 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=20dB rho=0.9  [closed=3.156e-07 quad=3.156e-07 mc=0.000e+00 |c-q|=1.1e-20 dev=3.16e-07 3se=1.00e-04]',
    'PASS  agreement mu-pbf snr=20dB rho=1  [closed=6.163e-11 quad=6.163e-11 mc=0.000e+00 |c-q|=0.0e+00 dev=6.16e-11 3se=1.00e-04]',
    'PASS  agreement mu-rvq snr=5dB rho=0.8  [closed=6.796e-01 quad=6.796e-01 mc=6.783e-01 |c-q|=4.4e-15 dev=1.32e-03 3se=8.09e-03]',
    'PASS  agreement mu-rvq snr=5dB rho=0.9  [closed=7.273e-01 quad=7.273e-01 mc=7.277e-01 |c-q|=3.4e-15 dev=3.21e-04 3se=7.71e-03]',
    'PASS  agreement mu-rvq snr=5dB rho=1  [closed=7.842e-01 quad=7.842e-01 mc=7.806e-01 |c-q|=0.0e+00 dev=3.60e-03 3se=7.17e-03]',
    'PASS  agreement mu-rvq snr=10dB rho=0.8  [closed=5.755e-02 quad=5.755e-02 mc=5.723e-02 |c-q|=4.2e-16 dev=3.18e-04 3se=4.02e-03]',
    'PASS  agreement mu-rvq snr=10dB rho=0.9  [closed=6.358e-02 quad=6.358e-02 mc=6.430e-02 |c-q|=6.1e-16 dev=7.22e-04 3se=4.25e-03]',
    'PASS  agreement mu-rvq snr=10dB rho=1  [closed=6.554e-02 quad=6.554e-02 mc=6.650e-02 |c-q|=0.0e+00 dev=9.57e-04 3se=4.32e-03]',
    'PASS  agreement mu-rvq snr=15dB rho=0.8  [closed=1.162e-03 quad=1.162e-03 mc=1.400e-03 |c-q|=1.0e-17 dev=2.38e-04 3se=6.48e-04]',
    'PASS  agreement mu-rvq snr=15dB rho=0.9  [closed=1.136e-03 quad=1.136e-03 mc=1.067e-03 |c-q|=1.3e-17 dev=6.97e-05 3se=5.65e-04]',
    'PASS  agreement mu-rvq snr=15dB rho=1  [closed=3.722e-04 quad=3.722e-04 mc=4.333e-04 |c-q|=0.0e+00 dev=6.12e-05 3se=3.60e-04]',
    'PASS  agreement mu-rvq snr=20dB rho=0.8  [closed=1.445e-05 quad=1.445e-05 mc=0.000e+00 |c-q|=1.3e-19 dev=1.45e-05 3se=1.00e-04]',
    'PASS  agreement mu-rvq snr=20dB rho=0.9  [closed=1.290e-05 quad=1.290e-05 mc=3.333e-05 |c-q|=1.4e-19 dev=2.04e-05 3se=1.00e-04]',
    'PASS  agreement mu-rvq snr=20dB rho=1  [closed=4.006e-07 quad=4.006e-07 mc=0.000e+00 |c-q|=0.0e+00 dev=4.01e-07 3se=1.00e-04]',
    'PASS  arbitration matched-filter-coefficient: corrected variant consistent at all points  [max |z| = 1.97]',
    'PASS  arbitration matched-filter-coefficient: verbatim variant inconsistent somewhere  [max |z| = inf]',
    'PASS  arbitration antenna-selection-exponent: corrected variant consistent at all points  [max |z| = 1.47]',
    'PASS  arbitration antenna-selection-exponent: verbatim variant inconsistent somewhere  [max |z| = 136.04]',
    'PASS  arbitration matched-filter-coefficient: factorial variant rejected  [max |z| = 133.77]',
)

#: combinatorial_checks' empirical noncentral chi-square line at 200 000 samples.
PINNED_CHI2_LINE = 'PASS  noncentral chi-square CDF vs empirical CDF at 9 parameter triples  [worst |z| = 1.52]'


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_checks_match_recorded_lines(workers):
    checks = verification.three_way_agreement_checks(TRIALS, SEED, workers)
    checks += verification.arbitration_checks(TRIALS, SEED, workers)
    assert tuple(c.line() for c in checks) == PINNED_MC_LINES


def test_blocked_chi_square_draws_match_recorded_line():
    checks = verification.combinatorial_checks(samples=200_000, seed=SEED)
    assert checks[-1].line() == PINNED_CHI2_LINE
