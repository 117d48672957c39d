"""Special-function kernels against independent oracles."""

import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy.integrate import quad

from bfoutage import analytic, specfun
from bfoutage.analytic import SchemeId, outage_semianalytic
from bfoutage.specfun import (
    _BLOCK_ENTRIES,
    _RECURRENCE_DELTA,
    CapabilityError,
    ConvergenceError,
    _block_plan,
    _block_sums,
    _first_window,
    _noncentral_chi2_cdf_grid,
    _series_tables,
    _underflowing,
    _upper_wing_bound,
    bessel_j0,
    expansion_coeffs,
    lemma1_identity,
    noncentral_chi2_cdf,
)
from bfoutage.verification import CODEBOOK_SIZE, SCHEME_MATRIX

from _oracle import window_sums as reference_window_sums
from _util import cfg


@pytest.fixture
def windows(monkeypatch):
    """Records the (lo, hi) of every call of the kernel's window sums, as
    lists, in call order."""
    seen = []

    def recording(lo, hi, *args):
        seen.append((lo.tolist(), hi.tolist()))
        return _block_sums(lo, hi, *args)

    monkeypatch.setattr(specfun, "_block_sums", recording)
    return seen


def first_window(d, delta, beta):
    """The kernel's first window (lo, hi) for one element, as ints."""
    lo, hi = _first_window(d, np.array([float(delta)]), beta)
    return int(lo[0]), int(hi[0])


def j0_power_series(x: float) -> float:
    # sum_k (-x^2/4)^k / (k!)^2, summed to machine convergence
    term, total, k = 1.0, 1.0, 0
    z = -x * x / 4.0
    while abs(term) > 1e-20:
        k += 1
        term *= z / (k * k)
        total += term
    return total


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_series_oracle_at_one(self):
        oracle = j0_power_series(1.0)
        assert oracle == pytest.approx(0.765197686557967, abs=1e-14)
        assert bessel_j0(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_first_zero_by_bisection_on_series(self):
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j0_power_series(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j0(root)) < 1e-9

    def test_series_oracle_on_grid(self):
        for x in np.linspace(-10.0, 10.0, 41):
            assert bessel_j0(x) == pytest.approx(j0_power_series(x), abs=1e-12)

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                bessel_j0(bad)


def central_case(k, x):
    return noncentral_chi2_cdf(k, 0.0, x)


class TestRegularizedLowerGamma:
    """The kernel at zero noncentrality is P(k, x), the regularized lower
    gamma function."""

    def test_shape_one_closed_form(self):
        for x in (0.5, 1.0, 2.0):
            assert central_case(1, x) == pytest.approx(-math.expm1(-x), abs=1e-14)

    def test_zero_argument(self):
        for k in (1, 3, 9):
            assert central_case(k, 0.0) == 0.0

    def test_quadrature_oracle(self):
        oracle = quad(lambda t: t * math.exp(-t), 0.0, 1.0)[0] / math.factorial(1)
        assert oracle == pytest.approx(0.264241117657115, abs=1e-12)
        assert central_case(2, 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_quadrature_oracle_more_shapes(self):
        for k, x in [(3, 2.5), (5, 4.0), (8, 12.0)]:
            oracle = quad(lambda t: t ** (k - 1) * math.exp(-t), 0.0, x)[0] / math.factorial(k - 1)
            assert central_case(k, x) == pytest.approx(oracle, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            central_case(0, 1.0)
        with pytest.raises(ValueError):
            central_case(2, -0.5)

    @given(
        k=st.integers(min_value=1, max_value=30),
        x=st.floats(min_value=0.0, max_value=100.0),
        dx=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_monotone_and_bounded(self, k, x, dx):
        lo = central_case(k, x)
        hi = central_case(k, x + dx)
        assert 0.0 <= lo <= 1.0
        assert hi >= lo - 1e-15

    def test_limit_to_one(self):
        assert central_case(4, 200.0) == pytest.approx(1.0, abs=1e-12)


class TestNoncentralChi2Cdf:
    def test_central_case_half(self):
        assert noncentral_chi2_cdf(1, 0.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_zero_argument(self):
        assert noncentral_chi2_cdf(3, 2.5, 0.0) == 0.0

    def test_central_reduction_exact(self):
        for d in range(1, 11):
            for beta in (0.3, 1.0, 5.0, 20.0):
                assert noncentral_chi2_cdf(d, 0.0, beta) == float(sc.gammainc(d, beta))

    def test_sampling_oracle(self):
        # |sqrt(2*2) + sqrt(2) z|^2 < 3 with z standard complex Gaussian
        gen = np.random.Generator(np.random.Philox(key=1234))
        n = 1_000_000
        z = gen.standard_normal((n, 2))
        stat = (2.0 + z[:, 0]) ** 2 + z[:, 1] ** 2
        p_emp = float(np.mean(stat < 3.0))
        se = math.sqrt(p_emp * (1 - p_emp) / n)
        assert noncentral_chi2_cdf(1, 2.0, 1.5) == pytest.approx(p_emp, abs=3 * se)

    def test_large_noncentrality_mode_start(self):
        # exp(-delta) underflows; a window started at the peak of the terms,
        # here the Poisson mode, must still work
        val = noncentral_chi2_cdf(1, 800.0, 820.0)
        assert 0.0 < val < 1.0

    def test_convergence_error_carries_partial_sum(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as exc:
            noncentral_chi2_cdf(1, 50.0, 30.0)
        assert 0.0 <= exc.value.partial_sum <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(1, -1.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_chi2_cdf(1, 1.0, -1.0)

    @given(
        d=st.integers(min_value=1, max_value=6),
        delta=st.floats(min_value=0.0, max_value=50.0),
        beta=st.floats(min_value=0.0, max_value=40.0),
        db=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=150)
    def test_probability_and_monotone_in_argument(self, d, delta, beta, db):
        lo = noncentral_chi2_cdf(d, delta, beta)
        hi = noncentral_chi2_cdf(d, delta, beta + db)
        assert 0.0 <= lo <= 1.0
        assert hi >= lo - 1e-10


def ncx2_decimal_terms(d: int, delta: float, beta: float) -> list[Decimal]:
    """t_k = pois(k; delta) * P(d + k, beta) for k = 0 .. k_max in 50-digit
    decimal arithmetic.

    P(n, beta) = e^-beta * sum_{j >= n} beta^j / j! is summed from the top
    down, so every sum has positive terms only and no digits cancel.  Both
    sums run far past their last significant term.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        dl, b = Decimal(delta), Decimal(beta)
        k_max = int(delta + 40 * math.sqrt(delta)) + 100
        j_max = d + k_max + int(2 * beta) + 100
        power = [Decimal(1)]  # beta^j / j!
        for j in range(1, j_max + 1):
            power.append(power[-1] * b / j)
        upper = [Decimal(0)] * (j_max + 2)  # upper[n] = sum_{j >= n} beta^j / j!
        for j in range(j_max, -1, -1):
            upper[j] = upper[j + 1] + power[j]
        weight, terms = (-dl - b).exp(), []  # weight = pois(k; delta) * e^-beta
        for k in range(k_max + 1):
            terms.append(weight * upper[d + k])
            weight = weight * dl / (k + 1)
        return terms


def ncx2_decimal_oracle(d: int, delta: float, beta: float) -> float:
    """sum_k pois(k; delta) * P(d + k, beta), summed in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(sum(ncx2_decimal_terms(d, delta, beta)))


#: (d, delta, beta) in the deep lower tail, where the terms far below the
#: Poisson mode dominate and values reach down to 5e-204; then bulk points.
DEEP_TAIL_POINTS = [
    (2, 492.5, 0.603), (1, 499.0, 6.003), (4, 600.0, 60.0), (1, 200.0, 100.0),
    (1, 20000.0, 14743.0), (2, 30000.0, 24000.0),
]
BULK_POINTS = [
    (1, 0.5, 0.7), (1, 2.0, 1.5), (3, 2.5, 1.0), (2, 40.0, 35.0), (1, 50.0, 30.0),
    (6, 3.0, 7.0), (4, 120.0, 140.0), (1, 800.0, 820.0), (4, 710.0, 60.3), (1, 1500.0, 1400.0),
]


class TestNoncentralChi2Kernel:
    @pytest.mark.parametrize("d, delta, beta", DEEP_TAIL_POINTS + BULK_POINTS)
    def test_decimal_oracle(self, d, delta, beta):
        exact = ncx2_decimal_oracle(d, delta, beta)
        assert exact > 0.0
        assert noncentral_chi2_cdf(d, delta, beta) == pytest.approx(exact, rel=1e-10, abs=0)

    @given(
        d=st.integers(min_value=1, max_value=8),
        log_beta=st.floats(min_value=-4.0, max_value=math.log10(200.0)),
        log_ratio=st.floats(min_value=-3.0, max_value=3.0),
        others=st.lists(st.floats(min_value=0.0, max_value=2000.0), max_size=24),
        position=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=60)
    def test_decimal_oracle_over_the_domain(self, d, log_beta, log_ratio, others, position):
        # delta / beta log-uniform over 1e-3 .. 1e3; delta <= 2000 keeps the
        # 50-digit oracle fast.  Values below about 1e-290 are sums of
        # subnormal terms, which carry no relative accuracy: abs covers them.
        # The element keeps its bits inside any grid.
        beta = 10.0**log_beta
        delta = beta * 10.0**log_ratio
        assume(delta <= 2000.0)
        got = noncentral_chi2_cdf(d, delta, beta)
        assert got == pytest.approx(ncx2_decimal_oracle(d, delta, beta), rel=1e-10, abs=1e-300)
        position = min(position, len(others))
        grid = _noncentral_chi2_cdf_grid(d, np.insert(others, position, delta), beta)
        assert _bits(grid[position]) == _bits(got)

    def test_oracle_sums_the_central_case(self):
        for d, beta in [(1, 0.7), (3, 2.5), (5, 40.0)]:
            assert ncx2_decimal_oracle(d, 0.0, beta) == pytest.approx(
                float(sc.gammainc(d, beta)), rel=1e-14
            )

    def test_chndtr_bulk(self):
        deltas = np.linspace(0.0, 300.0, 61)
        for d in (1, 2, 4, 6):
            for beta in (0.5, 6.3, 60.3, 250.0):
                got = _noncentral_chi2_cdf_grid(d, deltas, beta)
                ref = sc.chndtr(2.0 * beta, 2.0 * d, 2.0 * deltas)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_scalar_equals_grid(self):
        # an element's value does not depend on the rest of the array
        near = np.array([[0.0, 0.3, 7.0, 55.0], [480.0, 900.0, 2500.0, 4000.0]])
        far = np.array([[5.0, 70000.0]])  # two bands of delta
        for d, beta, deltas in [(1, 6.3, near), (2, 0.603, near), (4, 60.3, near),
                                (1, 70000.0, far)]:
            grid = _noncentral_chi2_cdf_grid(d, deltas, beta)
            assert grid.shape == deltas.shape
            for idx, dv in np.ndenumerate(deltas):
                assert grid[idx] == noncentral_chi2_cdf(d, float(dv), beta)

    def test_window_capped_by_max_terms(self, monkeypatch, windows):
        # delta = 5's first window is [0, 28]; _MAX_TERMS = 36 caps each half
        # at 17 terms and cuts it to [0, 22], short of its upper wing, so it
        # widens once to [0, 35].  _MAX_TERMS = 21 cuts it to [0, 15], lets it
        # widen to [0, 20] and no further.
        assert first_window(1, 5.0, 30.0) == (0, 28)
        exact = ncx2_decimal_oracle(1, 5.0, 30.0)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 36)
        got = noncentral_chi2_cdf(1, 5.0, 30.0)
        assert got == pytest.approx(exact, rel=1e-12, abs=0)
        assert windows == [([0], [22]), ([0], [35])]
        windows.clear()
        monkeypatch.setattr(specfun, "_MAX_TERMS", 21)
        with pytest.raises(ConvergenceError):
            noncentral_chi2_cdf(1, 5.0, 30.0)
        assert windows == [([0], [15]), ([0], [20])]

    @pytest.mark.parametrize("d", [1, 4])
    def test_small_poisson_peaks_settle_in_one_round(self, d, windows):
        # Where delta <= beta the terms above a small peak fall only with the
        # Poisson weights, whose right tail is heavier than a Gaussian's; the
        # first window still reaches far enough, also for delta in [2.9, 4),
        # where an upper edge counted from floor(delta) fell one term short.
        for beta in (0.5, 3.0, 6.3, 60.3, 600.0, 5000.0):
            for delta in np.linspace(2.5, 4.5, 401):
                windows.clear()
                noncentral_chi2_cdf(d, float(delta), beta)
                assert len(windows) == 1, (delta, beta)

    def test_grid_convergence_error_carries_partial_sums(self, monkeypatch):
        deltas = np.array([0.5, 50.0])
        monkeypatch.setattr(specfun, "_MAX_TERMS", 30)
        with pytest.raises(ConvergenceError) as exc:
            _noncentral_chi2_cdf_grid(1, deltas, 30.0)
        partial = exc.value.partial_sum
        assert partial.shape == deltas.shape
        assert np.all((partial >= 0.0) & (partial <= 1.0))

    def test_underflowing_deep_tail_is_zero(self, windows):
        # F <= P(K < 10^4) + P(10^4 + 1, 60) < 1e-308.  The terms peak near
        # sqrt(delta * beta) ~ 1770, and at the window there every term and
        # both wing bounds underflow, so the first window settles the value.
        assert noncentral_chi2_cdf(1, 52258.5, 60.0) == 0.0
        assert windows == [([1333], [1999])]

    def test_huge_noncentrality(self):
        # every term and both wing bounds underflow, so the value is exactly 0
        assert noncentral_chi2_cdf(1, 1e300, 5.0) == 0.0
        with pytest.raises(ConvergenceError):  # here the upper wing bound stays 1
            noncentral_chi2_cdf(1, 1e300, 1e300)

    def test_empty_grid(self):
        assert _noncentral_chi2_cdf_grid(1, np.empty((0, 3)), 1.0).shape == (0, 3)

    def test_grid_domain_errors(self):
        for bad in (np.array([1.0, -1.0]), np.array([1.0, np.nan]), np.array([np.inf])):
            with pytest.raises(ValueError):
                _noncentral_chi2_cdf_grid(1, bad, 1.0)


def symmetric_first_window(d, delta, beta):
    """The first window as the kernel sized it before its upper half followed
    the terms' own spread: ceil(10 sqrt(peak)) + 16 terms on both sides of
    the peak, each half capped at (_MAX_TERMS - 1) // 2.  The term-count
    guard compares against it."""
    peak = np.minimum(delta, np.sqrt(delta) * math.sqrt(beta))
    centre = np.floor(np.minimum(peak, 2.0**52)).astype(np.int64)
    half = np.minimum(np.ceil(10.0 * np.sqrt(peak)) + 16, (specfun._MAX_TERMS - 1) // 2)
    half = half.astype(np.int64)
    return np.maximum(centre - half, 0), np.where(delta > 0, centre + half, 0)


def summed_terms(windows) -> int:
    return sum(h - l + 1 for lo, hi in windows for l, h in zip(lo, hi))


def sweep_grids():
    """(d, beta, deltas): 200 seeded grids of 256 elements over the kernel's
    domain, beta log-uniform over 1e-4 .. 1e4 and delta over 1e-3 .. 1e5."""
    rng = np.random.default_rng(2718)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        beta = float(10.0 ** rng.uniform(-4.0, 4.0))
        yield d, beta, 10.0 ** rng.uniform(-3.0, 5.0, 256)


class TestTermBudget:
    """Series terms the kernel sums: at most as many as recorded when the
    first window's upper half was sized from the spread of the terms above
    the peak, and never more than the symmetric window sums."""

    #: Recorded counts; the symmetric window sums 1 990 291 and 6 996 387.
    RVQ_GRID_TERMS = 1_214_342
    SWEEP_TERMS = 5_134_633

    def _both_rules(self, monkeypatch, windows, evaluate):
        counts = []
        for rule in (_first_window, symmetric_first_window):
            monkeypatch.setattr(specfun, "_first_window", rule)
            windows.clear()
            evaluate()
            counts.append(summed_terms(windows))
        return counts

    def test_rvq_quadrature_grid(self, monkeypatch, windows):
        # miso-rvq at 10 dB, rho 0.9: one kernel call over 128 x 256 elements
        config = cfg(nt=4, snr_db=10.0, rho=0.9)
        terms, symmetric = self._both_rules(
            monkeypatch, windows,
            lambda: outage_semianalytic(SchemeId.MISO_RVQ, config, codebook_size=8))
        assert len(windows) == 1 and len(windows[0][0]) == 32_768
        assert terms <= self.RVQ_GRID_TERMS
        assert terms < symmetric

    def test_domain_sweep(self, monkeypatch, windows):
        counts = np.array([
            self._both_rules(monkeypatch, windows,
                             lambda: _noncentral_chi2_cdf_grid(d, deltas, beta))
            for d, beta, deltas in sweep_grids()
        ])
        assert counts[:, 0].sum() <= self.SWEEP_TERMS
        assert np.all(counts[:, 0] <= counts[:, 1])


class TestScipyHandle:
    def test_first_lookups_from_many_threads(self):
        # a fresh handle, looked up at once by more threads than cores: each
        # thread gets scipy's own functions, and each name ends up cached
        handle = specfun._LazySpecial()
        names = ("gammainc", "gammaln", "pdtr", "pdtrc", "j0")
        threads = 8
        barrier = threading.Barrier(threads)

        def look_up():
            barrier.wait(timeout=10)
            return [getattr(handle, name) for name in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(look_up) for _ in range(threads)]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[getattr(sc, name) for name in names]] * threads
        assert set(vars(handle)) == set(names)


#: (d, delta, beta) with delta << beta, delta = beta and delta >> beta at
#: each d, and one large point near delta = beta.
WING_POINTS = [
    (d, delta, 60.0) for d in (1, 2, 4, 6) for delta in (3.0, 60.0, 600.0)
] + [(1, 20000.0, 14743.0)]


class TestUpperWingBound:
    """The unsummed terms above a window's top hi are at most t_{hi+1} / (1 - r),
    r = delta * beta / ((hi + 2) (d + hi + 2)), wherever r < 1."""

    @pytest.mark.parametrize("d, delta, beta", WING_POINTS)
    def test_geometric_bound_holds_and_is_used(self, d, delta, beta):
        terms = ncx2_decimal_terms(d, delta, beta)
        with localcontext() as ctx:
            ctx.prec = 50
            tails = [Decimal(0)] * (len(terms) + 1)  # tails[k] = sum_{j >= k} t_j
            for k in range(len(terms) - 1, -1, -1):
                tails[k] = tails[k + 1] + terms[k]
            product = Decimal(delta) * Decimal(beta)
            # twelve hi from the first with r < 1 to the top of the first window
            first = next(h for h in range(len(terms)) if (h + 2) * (d + h + 2) > product)
            top = first_window(d, delta, beta)[1]
            assert first < top
            his = np.unique(np.linspace(first, top, 12).astype(np.int64))
            geometric = [terms[h + 1] / (1 - product / ((h + 2) * (d + h + 2))) for h in his]
            assert all(tails[h + 1] <= g for h, g in zip(his, geometric))
        # with no budget to spare, every element takes the smaller of both bounds
        zero, deltas = np.zeros(his.shape), np.full(his.shape, delta)
        bound = _upper_wing_bound(
            d, deltas, np.log(deltas), beta, his, sc.gammaln(his + 2.0),
            sc.gammainc(d + his + 1, beta), zero, zero,
        )
        assert np.all(bound >= [float(tails[h + 1]) for h in his])
        # the kernel takes it wherever it beats P(K > hi) * g_{hi+1}; 1e-8
        # covers the log-space rounding of t_{hi+1} at delta = 20000
        assert np.all(bound <= np.array([float(g) for g in geometric]) * (1.0 + 1e-8))

    @pytest.mark.parametrize("d, delta, beta", [(1, 3.0, 600.0), (4, 300.0, 1000.0)])
    def test_poisson_tail_only_where_the_geometric_bound_falls_short(self, d, delta, beta):
        # hi from r >= 1 (no geometric bound) to r well below 1
        his = np.arange(10, 400, 13)
        deltas, g_next = np.full(his.shape, delta), sc.gammainc(d + his + 1, beta)
        args = (d, deltas, np.log(deltas), beta, his, sc.gammaln(his + 2.0), g_next)
        zero = np.zeros(his.shape)
        # the bound is returned in the thread's kernel scratch, which the
        # next call overwrites, so the two kept bounds are copied
        both = _upper_wing_bound(*args, zero, zero).copy()
        no_limit = np.full(his.shape, np.inf)
        geometric = _upper_wing_bound(*args, zero, no_limit).copy()
        assert np.isinf(geometric[0]) and np.isfinite(both).all()
        budget = np.geomspace(1e-300, 1.0, his.size)
        lower = 0.25 * budget
        got = _upper_wing_bound(*args, lower, budget)
        want = np.where(geometric + lower > budget, both, geometric)
        assert np.array_equal(got, want)
        assert (got + lower > budget).tolist() == (both + lower > budget).tolist()

    def test_first_window_settled_by_the_poisson_tail(self, windows):
        # The first window is [110, 436], where r = 1.56: only P(K > hi) * g_{hi+1}
        # bounds its upper wing.  The kernel sums that window alone, so the
        # Poisson tail settled it.
        d, delta, beta = 1, 300.0, 1000.0
        lo, hi = first_window(d, delta, beta)
        assert (lo, hi) == (110, 436)
        assert delta * beta / ((hi + 2) * (d + hi + 2)) > 1.5
        exact = ncx2_decimal_oracle(d, delta, beta)
        got = noncentral_chi2_cdf(d, delta, beta)
        assert got == pytest.approx(exact, rel=1e-12, abs=0)
        assert windows == [([lo], [hi])]


def _window_sums_and_reference(d, beta, lo, hi, delta):
    """The kernel's window sums on a block built by hand, with its tables
    and log delta made as _poisson_mixture makes them, and the reference."""
    lo, hi, delta = np.asarray(lo), np.asarray(hi), np.asarray(delta, dtype=float)
    log_delta = np.log(delta, out=np.zeros_like(delta), where=delta > 0)
    k = np.arange(lo.min(), hi.max() + 2)
    got = _block_sums(lo, hi, delta, log_delta, k[0], _series_tables(d, beta, k))
    return got, reference_window_sums(d, beta, lo, hi, delta)


def _bits(values):
    return np.asarray(values).view(np.int64).tolist()


def _set_block_entries(patch, entries):
    """Sets the kernel's gather blocks to up to entries terms."""
    patch.setattr(specfun, "_BLOCK_ENTRIES", entries)


def _plan(lo, hi, delta):
    """The kernel's routes for windows [lo, hi] at delta: the lengths of the
    windows summed by the recurrence, and those of each gather block.  A
    window whose Poisson weights all underflow is in neither."""
    lo, hi, delta = np.asarray(lo), np.asarray(hi), np.asarray(delta, dtype=float)
    lengths = hi - lo + 1
    log_delta = np.log(delta, out=np.zeros_like(delta), where=delta > 0)
    k0 = int(lo.min())
    log_fact = sc.gammaln(np.arange(k0, hi.max() + 1) + 1.0)
    zero = _underflowing(lo, hi, delta, log_delta, k0, log_fact)
    recur, blocks = _block_plan(lo, delta, lengths, zero)
    return lengths[recur].tolist(), [lengths[rows].tolist() for rows in blocks]


@st.composite
def start_groups(draw):
    """(d, beta, lo, hi, delta, entries): windows whose starts come from a
    few shared values, k = 0 among them half the time, or are drawn alone,
    of ragged lengths, at deltas on both sides of _RECURRENCE_DELTA, with
    gather blocks small enough that a start group can fill several, or the
    kernel's own budget."""
    common = draw(st.lists(st.integers(0, 2000), min_size=1, max_size=3))
    if draw(st.booleans()):
        common.append(0)
    count = draw(st.integers(1, 300))
    alone = draw(st.floats(0.0, 1.0))
    longest = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = np.where(rng.random(count) < alone, rng.integers(0, 2000, count),
                  rng.choice(common, count))
    hi = lo + rng.integers(0, longest, count)
    delta = rng.uniform(0.0, 3000.0, count)
    entries = draw(st.sampled_from([16, 128, 1024, _BLOCK_ENTRIES]))
    return draw(st.integers(1, 8)), draw(st.floats(0.0, 2000.0)), lo, hi, delta, entries


class TestWindowSums:
    """The blocked window sums equal the element-at-a-time loop of
    tests/_oracle.py bit for bit."""

    def test_rows_of_unequal_length(self, monkeypatch):
        # one block of four rows, and 400 rows of 1-300 terms over several blocks
        block = 1 << 14
        _set_block_entries(monkeypatch, block)
        got, want = _window_sums_and_reference(
            2, 30.0, [0, 5, 40, 3], [120, 30, 41, 3], [50.0, 12.0, 40.5, 2.0]
        )
        assert _bits(got) == _bits(want)
        rng = np.random.default_rng(5)
        lo = rng.integers(0, 500, 400)
        hi = lo + rng.integers(0, 300, 400)
        delta = rng.uniform(0.0, 800.0, 400)
        assert (hi - lo + 1).sum() > 3 * block
        got, want = _window_sums_and_reference(3, 60.3, lo, hi, delta)
        assert _bits(got) == _bits(want)

    def test_short_row_reads_into_the_padding(self):
        # the one-term row at k = 200 reads 201 terms from k = 200 on, 199
        # past the last true table entry (k = 201)
        tables = _series_tables(1, 6.3, np.arange(202))
        assert tables.shape == (2, 404)
        assert np.all(tables[0, 202:] == np.inf) and np.all(tables[1, 202:] == 0.0)
        got, want = _window_sums_and_reference(1, 6.3, [0, 200], [200, 200], [150.0, 199.5])
        assert _bits(got) == _bits(want)
        assert got[1] > 0.0

    def test_zero_noncentrality(self):
        # delta = 0 is the central CDF: the one k = 0 term, exp(0) * g_0
        got, want = _window_sums_and_reference(4, 6.3, [0, 0, 10], [0, 0, 70], [0.0, 0.0, 30.0])
        assert _bits(got) == _bits(want)
        assert got[0] == got[1] == sc.gammainc(4, 6.3)

    def test_one_term_window(self):
        got, want = _window_sums_and_reference(2, 60.3, [37], [37], [37.0])
        assert _bits(got) == _bits(want)

    def test_max_terms_window(self):
        # one row per block at _MAX_TERMS, beside a short row
        got, want = _window_sums_and_reference(
            1, 4000.0, [0, 4990], [specfun._MAX_TERMS - 1, 5010], [5000.0, 5000.0]
        )
        assert _bits(got) == _bits(want)

    def test_two_columns_of_very_unequal_length(self, monkeypatch):
        # one block of exactly two columns: 3000 terms beside one
        block = 1 << 14
        _set_block_entries(monkeypatch, block)
        lo, hi = [0, 2500], [2999, 2500]
        assert _plan(lo, hi, [1500.0, 2500.0]) == ([], [[3000, 1]])
        assert block // 3000 >= 2
        got, want = _window_sums_and_reference(2, 3000.0, lo, hi, [1500.0, 2500.0])
        assert _bits(got) == _bits(want)
        assert got[1] > 0.0

    def test_every_block_a_lone_column(self, monkeypatch):
        # with one entry per block every element is its own block: the
        # running-sum path, on the same 400 rows as the blocked test above
        _set_block_entries(monkeypatch, 1)
        rng = np.random.default_rng(5)
        lo = rng.integers(0, 500, 400)
        hi = lo + rng.integers(0, 300, 400)
        delta = rng.uniform(0.0, 800.0, 400)
        got, want = _window_sums_and_reference(3, 60.3, lo, hi, delta)
        assert _bits(got) == _bits(want)

    @given(
        d=st.integers(1, 8),
        beta=st.floats(min_value=0.0, max_value=2000.0),
        windows=st.lists(
            st.tuples(
                st.integers(0, 3000),
                st.integers(1, 400) | st.integers(8000, 9000),
                st.floats(min_value=0.0, max_value=5000.0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60)
    def test_any_windows_match_the_reference(self, d, beta, windows):
        lo, lengths, delta = (list(column) for column in zip(*windows))
        hi = [a + n - 1 for a, n in zip(lo, lengths)]
        got, want = _window_sums_and_reference(d, beta, lo, hi, delta)
        assert _bits(got) == _bits(want)

    @given(case=start_groups())
    @settings(max_examples=60)
    def test_shared_starts_match_the_reference(self, case):
        d, beta, lo, hi, delta, entries = case
        with pytest.MonkeyPatch.context() as patch:
            _set_block_entries(patch, entries)
            got, want = _window_sums_and_reference(d, beta, lo, hi, delta)
        assert _bits(got) == _bits(want)

    def test_start_group_over_several_blocks(self, monkeypatch):
        # 120 windows from k = 7 and 30 windows at distinct starts share
        # 256-entry gather blocks, several of them
        _set_block_entries(monkeypatch, 256)
        rng = np.random.default_rng(11)
        lo = np.concatenate([np.full(120, 7), rng.permutation(np.arange(40, 640, 20))])
        hi = lo + rng.integers(0, 30, lo.size)
        delta = rng.uniform(0.0, 700.0, lo.size)
        recur, blocks = _plan(lo, hi, delta)
        assert recur == [] and len(blocks) >= 4
        assert all(len(lengths) > 1 for lengths in blocks)
        got, want = _window_sums_and_reference(5, 80.0, lo, hi, delta)
        assert _bits(got) == _bits(want)

    def test_recurrence_windows_of_one_to_ninety_terms(self):
        # windows from k = 0 of 1 to 90 terms: stepping down from the top,
        # the longest starts alone and the open prefix grows by one window a
        # step
        lengths = np.arange(90, 0, -1)
        lo, hi = np.zeros(90, dtype=np.int64), lengths - 1
        delta = np.linspace(0.0, 80.0, 90)
        assert _plan(lo, hi, delta) == (lengths.tolist(), [])
        got, want = _window_sums_and_reference(3, 40.0, lo, hi, delta)
        assert _bits(got) == _bits(want)

    def test_windows_whose_weights_underflow(self):
        # Poisson weights exp(k log delta - delta - log k!) at delta = 1000
        # are exactly 0 up to k = 70, subnormal over k = 71 ... 85 and normal
        # from k = 86 on; g_k is near 1 at beta = 5000.  The first windows
        # have every weight 0: below the mode (delta 1000 and 5000) and far
        # above it (delta 2).  Next, windows whose weights run from 0 into
        # the subnormals only, and on into normal ones; one whose largest log
        # weight, -745.6, is past exp's underflow point but inside the
        # margin, so it is summed and comes to 0; and ordinary windows, most
        # of them sharing the start k = 0.
        lo = [0, 0, 600, 40, 0, 0, 0, 0, 950, 7]
        hi = [60, 50, 700, 80, 300, 70, 80, 40, 1050, 60]
        delta = [1000.0, 5000.0, 2.0, 1000.0, 1000.0, 998.6, 30.0, 5.0, 1000.0, 20.0]
        zero = [True, True, True] + [False] * 7
        for rows in (slice(0, 3), slice(3, 6), slice(None)):  # all zero, none, a mix
            got, want = _window_sums_and_reference(
                2, 5000.0, lo[rows], hi[rows], delta[rows])
            assert _bits(got) == _bits(want)
            recur, blocks = _plan(lo[rows], hi[rows], delta[rows])
            routed = sorted(recur + [n for block in blocks for n in block])
            kept = zip(lo[rows], hi[rows], zero[rows])
            assert routed == sorted(b - a + 1 for a, b, z in kept if not z)
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and got[5] == 0.0
        assert 0.0 < got[3] < np.finfo(float).tiny < got[4]
        log_delta = np.log(delta)
        log_fact = sc.gammaln(np.arange(0, 1052) + 1.0)
        flagged = specfun._underflowing(np.array(lo), np.array(hi), np.array(delta),
                                        log_delta, 0, log_fact)
        assert flagged.tolist() == zero

    def test_shared_lone_column(self, monkeypatch):
        # a window longer than half a block fills a gather block alone,
        # beside a start that two short windows share
        block = 1 << 14
        _set_block_entries(monkeypatch, block)
        lo, hi, delta = [0, 900, 900], [block // 2 + 1, 940, 905], [4500.0, 930.0, 910.0]
        assert _plan(lo, hi, delta) == ([], [[block // 2 + 2], [41, 6]])
        got, want = _window_sums_and_reference(2, 5000.0, lo, hi, delta)
        assert _bits(got) == _bits(want)


class TestRoutes:
    """A window from k = 0 with delta below _RECURRENCE_DELTA is summed by
    the recurrence and any other by exp terms, chosen from the element's
    own lo and delta, so a value has the same bits in any grid and in a
    scalar call, and both routes equal the reference bit for bit."""

    def test_bound_is_the_smallest_normal_double(self):
        assert _RECURRENCE_DELTA == -math.log(sys.float_info.min)
        below = np.nextafter(_RECURRENCE_DELTA, 0.0)
        assert np.exp(-below) >= sys.float_info.min
        above = np.nextafter(_RECURRENCE_DELTA, np.inf)
        assert _plan([0, 0, 0], [40, 40, 40], [below, _RECURRENCE_DELTA, above]) == (
            [41], [[41, 41]])

    @pytest.mark.parametrize("d, beta", [(1, 6.3), (4, 60.3), (2, 700.0), (1, 5000.0)])
    def test_scalar_equals_grid_around_the_bound(self, d, beta):
        # delta just below, at and just above the bound, at 0, and on either
        # side of it further out; each element also sits in a grid whose
        # other elements take the other route
        bound = _RECURRENCE_DELTA
        edge = [np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)]
        deltas = np.array(edge + [0.0, 1e-300, 3.0, 700.0, 716.0, 900.0])
        grid = _noncentral_chi2_cdf_grid(d, deltas, beta)
        scalar = [noncentral_chi2_cdf(d, float(x), beta) for x in deltas]
        assert _bits(grid) == _bits(scalar)
        assert grid[3] == sc.gammainc(d, beta)
        for rows in ([0, 2], [2, 0], [1, 4, 7]):
            assert _bits(_noncentral_chi2_cdf_grid(d, deltas[rows], beta)) == _bits(grid[rows])

    def test_windows_at_the_bound_match_the_reference(self):
        # one-term windows (hi = 0) and longer ones, on either side of the
        # bound and at delta = 0
        bound = _RECURRENCE_DELTA
        delta = [0.0, 0.0, np.nextafter(bound, 0.0), np.nextafter(bound, 0.0), bound, 720.0,
                 5.0, 5.0]
        lo = [0, 0, 0, 0, 0, 0, 0, 3]
        hi = [0, 12, 0, 900, 900, 900, 0, 40]
        got, want = _window_sums_and_reference(2, 700.0, lo, hi, delta)
        assert _bits(got) == _bits(want)
        assert _plan(lo, hi, delta) == ([901, 13, 1, 1, 1], [[901, 901, 38]])

    def test_window_that_reaches_k_zero_in_its_second_round(self, monkeypatch, windows):
        # A first window 80 terms above the kernel's own, [115, 269], leaves
        # a lower wing beyond budget, so the window widens straight to k = 0
        # and its second round takes the recurrence.
        first = _first_window

        def raised(d, delta, beta):
            lo, hi = first(d, delta, beta)
            return lo + 80, hi

        monkeypatch.setattr(specfun, "_first_window", raised)
        got = noncentral_chi2_cdf(4, 600.0, 60.0)
        assert windows == [([115], [269]), ([0], [269])]
        assert _bits([got]) == _bits(reference_window_sums(4, 60.0, [0], [269], [600.0]))
        assert got == pytest.approx(ncx2_decimal_oracle(4, 600.0, 60.0), rel=1e-12, abs=0)


class TestRecurrenceEdges:
    """The nested recurrence at the edges of its range, each against the
    reference bit for bit and the 50-digit oracle within 1e-13, with every
    RuntimeWarning an error."""

    @pytest.fixture(autouse=True)
    def _warnings_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @pytest.mark.parametrize("beta", [720.0, 750.0, 5000.0])
    def test_delta_just_below_the_bound(self, beta):
        # beta >= delta keeps g_k near 1, so the nested sum before its
        # factor exp(-delta) comes to about e^708, within 4x of the largest
        # double; the window holds every term above 1e-16 of the sum
        delta, hi = 708.3, 1400
        assert delta < _RECURRENCE_DELTA
        assert _plan([0], [hi], [delta]) == ([hi + 1], [])
        got, want = _window_sums_and_reference(2, beta, [0], [hi], [delta])
        assert _bits(got) == _bits(want)
        assert got[0] == pytest.approx(ncx2_decimal_oracle(2, delta, beta), rel=1e-13, abs=0)

    @pytest.mark.parametrize("delta", [30.0, 200.0, 600.0])
    def test_subnormal_top_terms(self, delta):
        # at beta = 5, g_242 and g_243 are subnormal (and g_244 on flushes to
        # 0), so the nested sum starts from subnormal values
        d, beta, hi = 1, 5.0, 243
        g = sc.gammainc(d + np.arange(hi - 1, hi + 2), beta)
        assert 0.0 < g[1] < g[0] < sys.float_info.min and g[2] == 0.0
        got, want = _window_sums_and_reference(d, beta, [0], [hi], [delta])
        assert _bits(got) == _bits(want)
        assert got[0] == pytest.approx(ncx2_decimal_oracle(d, delta, beta), rel=1e-13, abs=0)

    def test_lone_window_of_over_a_thousand_terms(self, monkeypatch, windows):
        # A one-term first window at k = 1000, far above the peak at delta =
        # 700, leaves both wings beyond its tiny budget: the second round
        # runs from k = 0 to 1001 and takes the recurrence as a lone window,
        # stepped in Python floats alone
        monkeypatch.setattr(specfun, "_first_window",
                            lambda d, delta, beta: (np.full(delta.shape, 1000),) * 2)
        got = noncentral_chi2_cdf(3, 700.0, 800.0)
        assert windows == [([1000], [1000]), ([0], [1001])]
        assert _bits([got]) == _bits(reference_window_sums(3, 800.0, [0], [1001], [700.0]))
        assert got == pytest.approx(ncx2_decimal_oracle(3, 700.0, 800.0), rel=1e-13, abs=0)


#: Real quadrature grids, and whether any of their terms are summed by the
#: recurrence and by gather blocks.  At 10 dB, rho 0.97 every RVQ element's
#: window starts at k = 0.  At 10 dB, rho 0.99 most miso-pbf elements have a
#: start of their own.  At 30 dB, rho 0.999 so do most miso-pbf elements,
#: but every Poisson weight of theirs underflows, so they are skipped; of
#: the windows from k = 0, a few have delta past the bound.  miso-rvq at
#: 30 dB and mu-rvq at 20 dB, rho 0.999, sum windows of up to 300 and 500
#: terms, on both routes.
GRID_POINTS = [
    (SchemeId.MISO_RVQ, 10.0, 0.97, True, False), (SchemeId.MU_RVQ, 10.0, 0.97, True, False),
    (SchemeId.MISO_PBF, 10.0, 0.99, True, True), (SchemeId.MISO_PBF, 30.0, 0.999, True, True),
    (SchemeId.MISO_RVQ, 30.0, 0.999, True, True), (SchemeId.MU_RVQ, 20.0, 0.999, True, True),
]
GRID_IDS = [f"{s.value}-{snr:g}dB-{rho:g}" for s, snr, rho, *_ in GRID_POINTS]


def _grid_run(scheme, snr_db, rho, entries=None):
    """(value, grids, calls, terms) of one quadrature: its value, the
    (d, deltas, beta, values) of every kernel call, the (args, sums) of every
    window-sum call, and the terms summed by the recurrence and in all.
    entries, if given, is the budget of every gather block."""
    nt, nr, nu = SCHEME_MATRIX[scheme]
    config = cfg(nt=nt, nr=nr, nu=nu, snr_db=snr_db, rho=rho)
    grids, calls, terms = [], [], [0, 0]

    def recording_grid(d, deltas, beta):
        grids.append((d, deltas, beta, _noncentral_chi2_cdf_grid(d, deltas, beta)))
        return grids[-1][-1]

    def recording_plan(lo, delta, lengths, zero):
        recur, blocks = _block_plan(lo, delta, lengths, zero)
        terms[0] += int(lengths[recur].sum())
        terms[1] += int(lengths[~zero].sum())
        return recur, blocks

    def recording_sums(*args):
        # lo, hi and log delta may be rows of the thread's kernel scratch,
        # which later kernel calls overwrite, so the record keeps copies
        kept = tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)
        calls.append((kept, _block_sums(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        if entries is not None:
            _set_block_entries(patch, entries)
        patch.setattr(analytic, "_noncentral_chi2_cdf_grid", recording_grid)
        patch.setattr(specfun, "_block_plan", recording_plan)
        patch.setattr(specfun, "_block_sums", recording_sums)
        n = CODEBOOK_SIZE if scheme in (SchemeId.MISO_RVQ, SchemeId.MU_RVQ) else None
        value = outage_semianalytic(scheme, config, codebook_size=n).value
    return value, grids, calls, terms


class TestSharedStartGrids:
    """On real grids, where the windows that share the start k = 0 take the
    recurrence: every element has the bits of its scalar call and of the
    reference, whatever the gather-block budget, and the recurrence carries
    almost all of an RVQ grid's terms."""

    @pytest.mark.parametrize("scheme, snr_db, rho, recurs, gathers", GRID_POINTS, ids=GRID_IDS)
    def test_grid_matches_the_oracle(self, scheme, snr_db, rho, recurs, gathers):
        _, grids, calls, terms = _grid_run(scheme, snr_db, rho)
        assert (terms[0] > 0) == recurs and (terms[0] < terms[1]) == gathers
        rng = np.random.default_rng(26)
        (d, deltas, beta, values), = grids
        flat, got = deltas.reshape(-1), values.reshape(-1)
        sample = rng.choice(flat.size, min(flat.size, 48), replace=False)
        assert _bits(got[sample]) == _bits([noncentral_chi2_cdf(d, flat[i], beta) for i in sample])
        for (lo, hi, delta, *_), sums in calls:
            rows = rng.choice(lo.size, min(lo.size, 24), replace=False)
            want = reference_window_sums(d, beta, lo[rows], hi[rows], delta[rows])
            assert _bits(sums[rows]) == _bits(want)

    @pytest.mark.parametrize("entries", [1 << 14, 1 << 10])
    @pytest.mark.parametrize("scheme, snr_db, rho, recurs, gathers", GRID_POINTS, ids=GRID_IDS)
    def test_grid_matches_other_block_budgets(self, scheme, snr_db, rho, recurs, gathers,
                                              entries):
        # the kernel's own 16384-entry gather blocks, and blocks of 1024 entries
        value, _, calls, _ = _grid_run(scheme, snr_db, rho)
        forced, _, forced_calls, _ = _grid_run(scheme, snr_db, rho, entries=entries)
        assert _bits([value]) == _bits([forced])
        assert [_bits(a[1]) for a in calls] == [_bits(b[1]) for b in forced_calls]

    def test_rvq_grid_sums_on_shared_columns(self):
        # the recurrence reads g_k as one column that all its windows share
        _, _, _, (recurred, total) = _grid_run(SchemeId.MISO_RVQ, 10.0, 0.97)
        assert recurred >= 0.95 * total


class TestRouteAccuracy:
    """Both routes stay within the kernel's _REL_TOL of the 50-digit oracle:
    seeded elements of real RVQ grids, whose windows all start at k = 0, and
    deltas on either side of _RECURRENCE_DELTA."""

    @pytest.mark.parametrize("scheme", [SchemeId.MISO_RVQ, SchemeId.MU_RVQ])
    def test_rvq_grid_elements(self, scheme, windows):
        _, ((d, deltas, beta, _),), _, _ = _grid_run(scheme, 10.0, 0.97)
        flat = deltas.reshape(-1)
        sample = flat[np.random.default_rng(26).choice(flat.size, 12, replace=False)]
        windows.clear()
        got = _noncentral_chi2_cdf_grid(d, sample, beta)
        assert all(lo == 0 for lows, _ in windows for lo in lows)
        assert sample.max() < _RECURRENCE_DELTA
        want = [ncx2_decimal_oracle(d, float(x), beta) for x in sample]
        np.testing.assert_allclose(got, want, rtol=specfun._REL_TOL, atol=0)

    @pytest.mark.parametrize("d, beta", [(1, 5.0), (4, 20.0)])
    def test_either_side_of_the_bound(self, d, beta, windows):
        bound = _RECURRENCE_DELTA
        deltas = np.array([700.0, np.nextafter(bound, 0.0), bound, 716.0])
        got = _noncentral_chi2_cdf_grid(d, deltas, beta)
        (lows, _), = windows
        assert lows == [0, 0, 0, 0]  # the first two take the recurrence, the rest exp terms
        want = [ncx2_decimal_oracle(d, float(x), beta) for x in deltas]
        np.testing.assert_allclose(got, want, rtol=specfun._REL_TOL, atol=0)


def rvq_grid(rho: float):
    """(d, deltas, beta) of the one kernel call of the miso-rvq quadrature at
    10 dB: a 32768-element grid of the quadrature's own deltas."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _noncentral_chi2_cdf_grid(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_noncentral_chi2_cdf_grid", recording)
        outage_semianalytic(SchemeId.MISO_RVQ, cfg(snr_db=10.0, rho=rho),
                            codebook_size=CODEBOOK_SIZE)
    (d, deltas, beta), = calls
    assert deltas.size == 1 << 15
    return d, deltas, beta


def scratch_rows():
    """The rows of the calling thread's kernel scratch."""
    return specfun._scratch.words + specfun._scratch.flags


def shares_scratch(array) -> bool:
    return any(np.shares_memory(array, row) for row in scratch_rows())


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose kernel scratch starts empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


class TestKernelMemory:
    """One big kernel call forms few grid-sized temporaries: the traced peak
    of a 32768-element miso-rvq grid (10 dB, rho 0.9, from the quadrature's
    own deltas), its scratch included, stays under PEAK_MB; a warm repeat
    of it faults in at most WARM_FAULTS pages; and the scratch a thread
    keeps stays under its cap."""

    #: traced peaks of that call: 4.32 MB while the kernel formed some
    #: twenty grid-sized temporaries in its first window, wing bounds and
    #: block plan, 2.71 MB with few, beside a 1 MiB shared block; the bound
    #: sits about halfway between
    PEAK_MB = 3.5
    #: minor page faults of a warm repeat of that call: about 960 while
    #: each call allocated its temporaries afresh and the allocator gave
    #: them back to the system after it
    WARM_FAULTS = 240

    def test_big_grid_peak(self):
        d, deltas, beta = rvq_grid(0.9)

        def traced_peak():
            # a fresh thread allocates its scratch in the call, so that
            # counts against the peak too
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _noncentral_chi2_cdf_grid(d, deltas, beta)
            return tracemalloc.get_traced_memory()[1] - base

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            peak = in_fresh_thread(traced_peak)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < self.PEAK_MB * 2**20

    def test_warm_call_faults(self):
        resource = pytest.importorskip("resource")
        d, deltas, beta = rvq_grid(0.9)
        _noncentral_chi2_cdf_grid(d, deltas, beta)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _noncentral_chi2_cdf_grid(d, deltas, beta)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= self.WARM_FAULTS

    def test_scratch_kept_under_its_cap(self, monkeypatch):
        d, deltas, beta = rvq_grid(0.9)
        want = _noncentral_chi2_cdf_grid(d, deltas, beta)
        kept = specfun._scratch.nbytes()
        assert kept == sum(row.nbytes for row in scratch_rows())
        assert 2**21 <= kept <= specfun._SCRATCH_BYTES  # 32768 elements or more

        def over_the_cap():
            got = _noncentral_chi2_cdf_grid(d, deltas, beta)
            return got, specfun._scratch.nbytes()

        # a cap below this call's 2.1 MiB: the call still gets its scratch,
        # and drops it on return
        monkeypatch.setattr(specfun, "_SCRATCH_BYTES", 1 << 20)
        got, kept = in_fresh_thread(over_the_cap)
        assert kept == 0
        assert got.tobytes() == want.tobytes()


class TestKernelScratch:
    """The scratch each thread keeps never reaches a caller: results and
    partial sums share no memory with it, a kept result survives later
    calls, every call equals the same call in a fresh thread bit for bit,
    and threads calling at once each get their serial results."""

    def test_results_never_share_the_scratch(self):
        d, deltas, beta = rvq_grid(0.9)
        flat = deltas.reshape(-1)
        kept = _noncentral_chi2_cdf_grid(d, deltas, beta)
        assert not shares_scratch(kept)
        bits = kept.tobytes()
        bigger = np.concatenate([flat, 1.5 * flat[::-1]])
        for grid in (bigger, flat[::97].copy()):
            got = _noncentral_chi2_cdf_grid(d, grid, beta)
            assert not shares_scratch(got)
            assert got.tobytes() == in_fresh_thread(_noncentral_chi2_cdf_grid, d, grid,
                                                    beta).tobytes()
        assert kept.tobytes() == bits
        assert bits == in_fresh_thread(_noncentral_chi2_cdf_grid, d, deltas, beta).tobytes()

    def test_partial_sums_never_share_the_scratch(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 30)
        deltas = np.array([0.5, 50.0])
        with pytest.raises(ConvergenceError) as exc:
            _noncentral_chi2_cdf_grid(1, deltas, 30.0)
        partial = exc.value.partial_sum
        assert not shares_scratch(partial)
        bits = partial.tobytes()
        with pytest.raises(ConvergenceError):
            _noncentral_chi2_cdf_grid(1, deltas[::-1].copy(), 30.0)
        assert partial.tobytes() == bits

    def test_threads_keep_their_own_scratch(self):
        grids = [rvq_grid(0.9), rvq_grid(0.97)]
        serial = [_noncentral_chi2_cdf_grid(*grid).tobytes() for grid in grids]
        barrier = threading.Barrier(len(grids))

        def repeat(grid):
            barrier.wait(timeout=10)
            return [_noncentral_chi2_cdf_grid(*grid).tobytes() for _ in range(20)]

        with ThreadPoolExecutor(len(grids)) as pool:
            runs = [f.result(timeout=120) for f in [pool.submit(repeat, g) for g in grids]]
        for want, got in zip(serial, runs):
            assert got == [want] * 20


class TestColumnReduceOrder:
    """The kernel's sums rest on numpy adding an (n, m >= 2) block, masked or
    not, into its output row after row, on cumsum adding one term at a time,
    and on Python floats rounding the recurrence's steps as numpy's array
    operations do.  If a numpy release changes any of these, this fails
    before any pinned value moves."""

    @pytest.mark.parametrize("n, m", [(2, 2), (9, 2), (300, 3), (2, 8192), (8192, 2), (128, 128)])
    def test_masked_reduce_down_columns_adds_in_row_order(self, n, m):
        rng = np.random.default_rng(n * m)
        # magnitudes over 30 decades, so that the order of the adds shows
        w = np.exp(rng.uniform(-35.0, 35.0, (n, m)))
        lengths = rng.integers(1, n + 1, m)
        lengths[0] = n
        keep = np.arange(n)[:, None] < lengths
        got = np.add.reduce(w, axis=0, where=keep, initial=0.0)
        want = np.zeros(m)
        for i in range(n):
            want = np.where(keep[i], want + w[i], want)
        assert _bits(got) == _bits(want)
        if n >= 300:
            # a pairwise sum of the same terms differs, so the check has teeth
            pairwise = [np.add.reduce(w[: lengths[c], c].copy()) for c in range(m)]
            assert _bits(pairwise) != _bits(want)

    @pytest.mark.parametrize("n, m", [(2, 2), (9, 2), (300, 3), (2, 8192), (8192, 2), (128, 128)])
    def test_reduce_down_columns_adds_in_row_order(self, n, m):
        # the unmasked reduce that sums the rows every column of a block has
        rng = np.random.default_rng(n + m)
        w = np.exp(rng.uniform(-35.0, 35.0, (n, m)))
        want = np.zeros(m)
        for row in w:
            want = want + row
        assert _bits(np.add.reduce(w, axis=0)) == _bits(want)
        if n >= 300:
            pairwise = [np.add.reduce(w[:, c].copy()) for c in range(m)]
            assert _bits(pairwise) != _bits(want)

    def test_cumsum_of_a_lone_column_adds_one_term_at_a_time(self):
        column = np.exp(np.random.default_rng(3).uniform(-35.0, 35.0, 5000))
        total = 0.0
        for t in column:
            total = total + t
        assert _bits([np.cumsum(column)[-1]]) == _bits([total])

    def test_python_float_steps_round_as_array_steps(self):
        # The recurrence steps v = (v + g_k) / k * delta down from k = 1999
        # in numpy's in-place array operations, and a lone window's top steps
        # in Python floats: both must give the same bits.
        rng = np.random.default_rng(4)
        g = np.exp(rng.uniform(-700.0, 0.0, 2000)).tolist()
        delta = rng.uniform(0.0, 708.0, 64)
        v = np.zeros_like(delta)
        for k in range(len(g) - 1, 0, -1):
            v += g[k]
            v /= k
            v *= delta
        steps, folded = [], []
        for d in delta.tolist():
            x = y = 0.0
            for k in range(len(g) - 1, 0, -1):
                x = (x + g[k]) / k * d
                y = (y + g[k]) * (d / k)
            steps.append(x)
            folded.append(y)
        assert _bits(v) == _bits(steps)
        # folding delta / k into one factor rounds differently, so the check has teeth
        assert _bits(folded) != _bits(steps)


class TestExpansionCoeffs:
    def test_zeroth_power(self):
        for n_r in (1, 2, 5):
            assert expansion_coeffs(n_r, 0) == [1.0]

    def test_known_squares(self):
        assert expansion_coeffs(2, 2) == pytest.approx([1.0, 2.0, 1.0], abs=0)
        assert expansion_coeffs(3, 2) == pytest.approx([1.0, 2.0, 2.0, 1.0, 0.25], abs=0)

    def test_brute_force_convolution_oracle(self):
        for n_r in range(1, 6):
            base = np.array([1.0 / math.factorial(l) for l in range(n_r)])
            brute = np.array([1.0])
            for k in range(0, 9):
                got = np.array(expansion_coeffs(n_r, k))
                assert got == pytest.approx(brute, abs=1e-12)
                brute = np.convolve(brute, base)

    def test_pointwise_power_identity(self):
        for n_r in range(2, 6):
            for k in range(0, 9):
                coeffs = expansion_coeffs(n_r, k)
                for x in (0.1, 1.0, 3.0):
                    direct = sum(x ** l / math.factorial(l) for l in range(n_r)) ** k
                    via = sum(c * x ** m for m, c in enumerate(coeffs))
                    assert via == pytest.approx(direct, rel=1e-12)

    def test_leading_coefficient_is_one(self):
        assert expansion_coeffs(4, 7)[0] == 1.0

    def test_degree_cap(self):
        with pytest.raises(CapabilityError):
            expansion_coeffs(10, 40)

    def test_memoized_result_is_a_fresh_list(self):
        first = expansion_coeffs(3, 4)
        first[0] = -1.0
        assert expansion_coeffs(3, 4)[0] == 1.0


class TestLemma1Identity:
    def test_collapsed_case(self):
        assert lemma1_identity(2, 2, 1) == (1, 1)

    def test_given_case(self):
        assert lemma1_identity(5, 2, 3) == (56, 56)

    def test_enumerated_case(self):
        lhs, rhs = lemma1_identity(10, 4, 6)
        assert lhs == rhs == math.comb(16, 10)

    def test_exhaustive(self):
        for m in range(1, 13):
            for n in range(1, m + 1):
                for k in range(1, 13):
                    lhs, rhs = lemma1_identity(m, n, k)
                    assert lhs == rhs

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lemma1_identity(2, 3, 1)

