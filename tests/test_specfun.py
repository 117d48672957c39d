"""Special-function kernels against independent oracles."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy.integrate import quad

from bfoutage.specfun import (
    CapabilityError,
    ConvergenceError,
    SeriesTolerance,
    _noncentral_chi2_cdf_grid,
    _upper_wing_bound,
    bessel_j0,
    expansion_coeffs,
    lemma1_identity,
    noncentral_chi2_cdf,
)


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

    def test_convergence_error_carries_partial_sum(self):
        with pytest.raises(ConvergenceError) as exc:
            noncentral_chi2_cdf(1, 50.0, 30.0, SeriesTolerance(rel_tol=1e-12, max_terms=3))
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

    def test_window_capped_by_max_terms(self):
        # max_terms = 36 cuts delta = 5's first window to [0, 22], short of its
        # upper wing; max_terms = 21 leaves the window no room to grow
        exact = ncx2_decimal_oracle(1, 5.0, 30.0)
        got = noncentral_chi2_cdf(1, 5.0, 30.0, SeriesTolerance(max_terms=36))
        assert got == pytest.approx(exact, rel=1e-12, abs=0)
        with pytest.raises(ConvergenceError):
            noncentral_chi2_cdf(1, 5.0, 30.0, SeriesTolerance(max_terms=21))

    def test_grid_convergence_error_carries_partial_sums(self):
        deltas = np.array([0.5, 50.0])
        with pytest.raises(ConvergenceError) as exc:
            _noncentral_chi2_cdf_grid(1, deltas, 30.0, SeriesTolerance(max_terms=30))
        partial = exc.value.partial_sum
        assert partial.shape == deltas.shape
        assert np.all((partial >= 0.0) & (partial <= 1.0))

    def test_underflowing_deep_tail_is_zero(self):
        # F <= P(K < 10^4) + P(10^4 + 1, 60) < 1e-308.  The terms peak near
        # sqrt(delta * beta) ~ 1770, and at the window there every term and
        # both wing bounds underflow, so the first window settles the value.
        assert noncentral_chi2_cdf(1, 52258.5, 60.0) == 0.0

    def test_huge_noncentrality(self):
        # every term and both wing bounds underflow, so the value is exactly 0
        assert noncentral_chi2_cdf(1, 1e300, 5.0) == 0.0
        with pytest.raises(ConvergenceError):  # here the upper wing bound stays 1
            noncentral_chi2_cdf(1, 1e300, 1e300)

    def test_grid_domain_errors(self):
        for bad in (np.array([1.0, -1.0]), np.array([1.0, np.nan]), np.array([np.inf])):
            with pytest.raises(ValueError):
                _noncentral_chi2_cdf_grid(1, bad, 1.0)


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
            peak = min(delta, math.sqrt(delta * beta))
            top = math.floor(peak) + math.ceil(10.0 * math.sqrt(peak)) + 16
            his = np.unique(np.linspace(first, top, 12).astype(np.int64))
            geometric = [terms[h + 1] / (1 - product / ((h + 2) * (d + h + 2))) for h in his]
            assert all(tails[h + 1] <= g for h, g in zip(his, geometric))
        bound = _upper_wing_bound(
            d, np.full(his.shape, delta), beta, his, sc.gammainc(d + his + 1, beta)
        )
        assert np.all(bound >= [float(tails[h + 1]) for h in his])
        # the kernel takes it wherever it beats P(K > hi) * g_{hi+1}; 1e-8
        # covers the log-space rounding of t_{hi+1} at delta = 20000
        assert np.all(bound <= np.array([float(g) for g in geometric]) * (1.0 + 1e-8))


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


def test_series_tolerance_validation():
    with pytest.raises(ValueError):
        SeriesTolerance(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesTolerance(max_terms=0)
