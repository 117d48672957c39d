"""Closed forms vs the quadrature engine vs sampling oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from bfoutage import analytic
from bfoutage.analytic import (
    AccuracyError,
    GainDistribution,
    RangeError,
    SchemeId,
    UnderflowError,
    _selection_diversity_sum,
    diversity_order,
    gain_distribution,
    min_codebook_size,
    outage_closed,
    outage_mupbf_closed,
    outage_murvq_closed,
    outage_mutas_closed,
    outage_pbf_closed,
    outage_rvq_closed,
    outage_semianalytic,
    outage_tas_closed,
    validate_scheme,
)
from bfoutage.channel import derive_params
from bfoutage.specfun import CapabilityError, noncentral_chi2_cdf
from bfoutage.verification import CLOSED_VS_QUAD_TOL

from _oracle import selection_diversity_sum
from _util import cfg


def conditional_outage(gain, params):
    """Outage given the selected stale gain: the kernel at 2 dof."""
    return noncentral_chi2_cdf(1, params.mu * gain, params.beta)


class TestConditionalOutage:
    def test_zero_gain_is_central_case(self):
        params = derive_params(cfg(rho=0.8))
        assert conditional_outage(0.0, params) == pytest.approx(
            sc.gammainc(1, params.beta), abs=1e-14
        )

    def test_zero_threshold_never_outages(self):
        config = cfg(rate=1e-300, rho=0.8)  # rate -> 0 drives beta -> 0
        params = derive_params(config)
        assert conditional_outage(2.0, params) == 0.0

    def test_sampling_oracle(self):
        params = derive_params(cfg(nt=4, rate=2.0, snr_db=10 * math.log10(12.0), rho=0.9))
        # mu = 4.2632, beta = gamma0 / (1 - rho^2) with gamma0 = 1
        assert params.mu == pytest.approx(0.81 / 0.19, rel=1e-12)
        gen = np.random.Generator(np.random.Philox(key=99))
        n = 1_000_000
        z = gen.standard_normal((n, 2))
        stat = (np.sqrt(2 * params.mu * 2.0) + z[:, 0]) ** 2 + z[:, 1] ** 2
        p_emp = float(np.mean(stat < 2 * params.beta))
        se = math.sqrt(p_emp * (1 - p_emp) / n)
        assert conditional_outage(2.0, params) == pytest.approx(p_emp, abs=3 * se)

    @given(
        gain=st.floats(min_value=0.0, max_value=20.0),
        rho=st.floats(min_value=0.0, max_value=0.99),
        scale=st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=100)
    def test_in_unit_interval_and_monotone_in_threshold(self, gain, rho, scale):
        lo = derive_params(cfg(rho=rho, snr_db=10.0))
        hi = derive_params(cfg(rho=rho, snr_db=10.0 - 10 * math.log10(scale)))
        a = conditional_outage(gain, lo)
        b = conditional_outage(gain, hi)  # larger beta
        assert 0.0 <= a <= 1.0
        assert b >= a - 1e-10


class TestGainDistribution:
    @pytest.mark.parametrize(
        "scheme,kw,n",
        [
            (SchemeId.MISO_PBF, {}, None),
            (SchemeId.MISO_TAS, {}, None),
            (SchemeId.MISO_RVQ, {}, 8),
            (SchemeId.MU_TAS, {"nr": 2, "nu": 2}, None),
            (SchemeId.MU_PBF, {"nu": 2}, None),
        ],
    )
    def test_density_mass(self, scheme, kw, n):
        dist = gain_distribution(scheme, cfg(**kw), n)
        cut = dist.upper_cut()
        x, w = np.polynomial.legendre.leggauss(512)
        x = 0.5 * cut * (x + 1.0)
        mass = float(0.5 * cut * (w @ dist.pdf(x)))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_cdf_limits(self):
        dist = gain_distribution(SchemeId.MU_TAS, cfg(nr=2, nu=2))
        assert float(dist.cdf(0.0)) == 0.0
        assert float(dist.cdf(dist.upper_cut())) == pytest.approx(1.0, abs=1e-11)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            validate_scheme(SchemeId.MISO_PBF, cfg(nu=2))
        with pytest.raises(ValueError):
            validate_scheme(SchemeId.MU_PBF, cfg(nr=2, nu=2))
        with pytest.raises(ValueError):
            gain_distribution(SchemeId.MISO_RVQ, cfg(), None)


class TestQuadratureEngine:
    def test_vanishing_rate(self):
        for scheme, kw, n in [
            (SchemeId.MISO_PBF, {}, None),
            (SchemeId.MU_TAS, {"nr": 2, "nu": 2}, None),
            (SchemeId.MISO_RVQ, {}, 8),
        ]:
            est = outage_semianalytic(scheme, cfg(rate=1e-9, **kw), codebook_size=n)
            assert est.value < 1e-6

    def test_no_delay_matched_filter_is_gain_cdf(self):
        config = cfg(rho=1.0)
        est = outage_semianalytic(SchemeId.MISO_PBF, config)
        gamma0 = derive_params(config).gamma0
        assert est.value == float(sc.gammainc(4, gamma0))

    def test_explicit_short_cut_rejected(self, monkeypatch):
        # a cut at tail mass 1e-3 leaves far more than the 1e-10 limit
        monkeypatch.setattr(analytic, "_TAIL_TARGET", 1e-3)
        with pytest.raises(AccuracyError, match="truncated gain tail mass"):
            outage_semianalytic(SchemeId.MISO_PBF, cfg())

    def test_underflow_to_zero_raises(self):
        # every gain node's conditional outage underflows here, while the
        # closed form is 1.05e-21
        config = cfg(rho=0.9999999, snr_db=60.0)
        assert outage_closed(SchemeId.MISO_PBF, config).value > 1e-21
        with pytest.raises(AccuracyError, match="underflowed"):
            outage_semianalytic(SchemeId.MISO_PBF, config)

    def test_cached_nodes_are_read_only(self):
        x, w = analytic._gl_base(16)
        for table in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert analytic._gl_base(16)[0] is x

    def test_rvq_nt1_collapses_to_pbf(self):
        config = cfg(nt=1)
        a = outage_semianalytic(SchemeId.MISO_RVQ, config, codebook_size=8)
        b = outage_semianalytic(SchemeId.MISO_PBF, config)
        assert a.value == pytest.approx(b.value, abs=1e-15)


CLOSED_TOL = 1e-6


class TestClosedVsQuadrature:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, 0.9, 0.95])
    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 15.0])
    def test_miso_pbf(self, rho, snr_db):
        config = cfg(rho=rho, snr_db=snr_db)
        closed = outage_pbf_closed(config).value
        quadr = outage_semianalytic(SchemeId.MISO_PBF, config).value
        assert closed == pytest.approx(quadr, abs=CLOSED_TOL)

    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.9])
    def test_miso_tas(self, rho):
        config = cfg(rho=rho)
        assert outage_tas_closed(config).value == pytest.approx(
            outage_semianalytic(SchemeId.MISO_TAS, config).value, abs=CLOSED_TOL
        )

    @pytest.mark.parametrize("n", [1, 4, 8, 32])
    def test_miso_rvq(self, n):
        config = cfg(rho=0.9)
        assert outage_rvq_closed(config, n).value == pytest.approx(
            outage_semianalytic(SchemeId.MISO_RVQ, config, codebook_size=n).value,
            abs=CLOSED_TOL,
        )

    @pytest.mark.parametrize("shape", [(2, 4, 2), (2, 2, 3), (4, 4, 2), (3, 2, 1)])
    def test_mu_tas(self, shape):
        nu, nt, nr = shape
        config = cfg(nt=nt, nr=nr, nu=nu, rho=0.9)
        assert outage_mutas_closed(config).value == pytest.approx(
            outage_semianalytic(SchemeId.MU_TAS, config).value, abs=CLOSED_TOL
        )

    @pytest.mark.parametrize("nu_users", [1, 2, 4])
    def test_mu_pbf(self, nu_users):
        config = cfg(nu=nu_users, rho=0.8)
        assert outage_mupbf_closed(config).value == pytest.approx(
            outage_semianalytic(SchemeId.MU_PBF, config).value, abs=CLOSED_TOL
        )

    @pytest.mark.parametrize("n", [2, 8])
    def test_mu_rvq(self, n):
        config = cfg(nu=2, rho=0.9)
        assert outage_murvq_closed(config, n).value == pytest.approx(
            outage_semianalytic(SchemeId.MU_RVQ, config, codebook_size=n).value,
            abs=CLOSED_TOL,
        )

    def test_miso_pbf_high_snr_rho_near_one(self, monkeypatch):
        # Noncentralities up to 1.8e4 at beta = 6, deep in the lower tail. The
        # 256 gain nodes leave a 6e-6 relative gap; 1024 resolve the density.
        config = cfg(rho=0.999, snr_db=30.0)
        closed = outage_pbf_closed(config).value
        assert outage_semianalytic(SchemeId.MISO_PBF, config).value > 0.0
        monkeypatch.setattr(analytic, "_GAIN_NODES", 1024)
        quadr = outage_semianalytic(SchemeId.MISO_PBF, config)
        assert quadr.value == pytest.approx(closed, rel=1e-9)

    def test_miso_rvq_rho_near_one(self):
        # noncentralities up to about 1.8e3 over the 128 x 256 (nu, gain) grid
        config = cfg(rho=0.99)
        assert outage_rvq_closed(config, 8).value == pytest.approx(
            outage_semianalytic(SchemeId.MISO_RVQ, config, codebook_size=8).value,
            abs=CLOSED_TOL,
        )


class TestLargePools:
    """Pools past what the closed form's binomials or the quadrature's gain
    axis can hold raise CapabilityError, not an overflow or a NaN."""

    def test_selection_pool_limit_is_the_float_range(self):
        pool = analytic._MAX_SELECTION_POOL
        assert math.isfinite(float(math.comb(pool - 1, (pool - 1) // 2)))
        with pytest.raises(OverflowError):
            float(math.comb(pool, pool // 2))

    @pytest.mark.parametrize("scheme, kw", [
        (SchemeId.MU_TAS, {"nt": 4, "nu": 258}),
        (SchemeId.MU_PBF, {"nt": 1, "nu": 1031}),
        (SchemeId.MU_RVQ, {"nt": 1, "nu": 25000}),
    ], ids=["mu-tas", "mu-pbf", "mu-rvq"])
    def test_closed_form_refuses_a_large_pool(self, scheme, kw):
        with pytest.raises(CapabilityError, match="selection pool"):
            outage_closed(scheme, cfg(**kw), 8)

    def test_quadrature_refuses_an_infinite_cut(self):
        # (1 - 1e-12)^(1 / 18016) rounds to 1, so the cut would be infinite
        with pytest.raises(CapabilityError, match="gain pool 18016"):
            outage_semianalytic(SchemeId.MU_TAS, cfg(nt=4, nu=4504))
        assert outage_semianalytic(SchemeId.MU_TAS, cfg(nt=4, nu=4504, rho=1.0)).value >= 0.0

    @pytest.mark.parametrize("nt", [132, 171])
    def test_quadrature_past_the_power_form(self, nt):
        # x^(nt - 1) overflows a float at the gain cut from shape 132 on, so
        # the density is formed in logs there
        config = cfg(nt=nt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quad = outage_semianalytic(SchemeId.MISO_PBF, config).value
        closed = outage_closed(SchemeId.MISO_PBF, config).value
        assert quad > 0.0
        assert abs(quad - closed) < CLOSED_VS_QUAD_TOL * max(closed, quad)

    @pytest.mark.parametrize("nt", [172, 256, 400])
    def test_quadrature_past_the_factorial_range(self, nt):
        # (shape - 1)! overflows a float from shape 172 on; the log-form
        # density never forms it
        config = cfg(nt=nt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quad = outage_semianalytic(SchemeId.MISO_PBF, config).value
        closed = outage_closed(SchemeId.MISO_PBF, config).value
        assert quad > 0.0
        assert abs(quad - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("scheme, config, value", [
        (SchemeId.MU_PBF, cfg(nt=172), 9.777521718219606e-40),
        (SchemeId.MU_TAS, cfg(nt=1, nr=200, nu=2, snr_db=-10.0), 5.712882046876937e-124),
    ], ids=["mu-pbf-nt172", "mu-tas-nr200"])
    def test_quadrature_answers_past_any_closed_form(self, scheme, config, value):
        with pytest.raises(CapabilityError):
            outage_closed(scheme, config)
        assert outage_semianalytic(scheme, config).value == pytest.approx(value, rel=1e-12)

    def test_quadrature_past_the_factorial_range_still_underflows(self):
        with pytest.raises(UnderflowError):
            outage_semianalytic(SchemeId.MU_TAS, cfg(nt=4, nr=172))

    @pytest.mark.parametrize("scheme, config, size", [
        (SchemeId.MISO_PBF, cfg(nt=120, rho=0.9999), None),
        (SchemeId.MU_TAS, cfg(nt=16, nr=2, nu=4, snr_db=120.0, rho=0.9999), None),
        (SchemeId.MU_RVQ, cfg(nt=64, nu=2, rho=0.99, rate=0.01), 1),
    ], ids=["miso-pbf", "mu-tas", "mu-rvq"])
    def test_closed_form_nan_raises(self, scheme, config, size):
        # a term overflows to inf and the sum to inf - inf = nan: an overflow,
        # not a cancellation, and no RuntimeWarning escapes (the suite makes
        # them errors)
        with pytest.raises(CapabilityError, match="overflows a float: its sum came to nan"):
            outage_closed(scheme, config, size)
        assert outage_semianalytic(scheme, config, size).value > 0.0

    @pytest.mark.parametrize("scheme, nt, size", [
        (SchemeId.MU_PBF, 172, None), (SchemeId.MU_RVQ, 172, 8),
        (SchemeId.MISO_PBF, 1031, None), (SchemeId.MISO_TAS, 1031, None),
    ], ids=["mu-pbf", "mu-rvq", "miso-pbf", "miso-tas"])
    def test_closed_form_overflow_raises(self, scheme, nt, size):
        # (d + n - 1)! or C(n_t - 1, k) is past the float range
        with pytest.raises(CapabilityError, match="overflows a float") as info:
            outage_closed(scheme, cfg(nt=nt), size)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_log_density_matches_the_power_form(self, monkeypatch):
        # at shape 131 both forms hold; the log form is the power form to
        # within the rounding of (s - 1) log x ~ 700
        dist = GainDistribution(pool_size=2, shape=131, half_dof=1)
        x = np.linspace(1.0, dist.upper_cut(), 400)
        power = dist.pdf(x)
        monkeypatch.setattr(analytic, "_POWER_PDF_SHAPE", 130)
        logs = dist.pdf(x)
        normal = power > 1e-290
        assert normal.sum() > 300
        np.testing.assert_allclose(logs[normal], power[normal], rtol=1e-12, atol=0)


class TestClosedFormLimits:
    def test_pbf_no_delay(self):
        config = cfg(rho=1.0)
        assert outage_pbf_closed(config).value == pytest.approx(
            float(sc.gammainc(4, derive_params(config).gamma0)), abs=1e-15
        )

    def test_pbf_nt1_is_exponential_tail(self):
        # a single antenna leaves nothing to beamform: outage is the plain
        # exponential CDF at the threshold, independent of persistence
        for rho in (0.0, 0.5, 0.9):
            config = cfg(nt=1, rho=rho)
            gamma0 = derive_params(config).gamma0
            assert outage_pbf_closed(config).value == pytest.approx(
                -math.expm1(-gamma0), rel=1e-12
            )

    def test_tas_no_delay_max_of_exponentials(self):
        config = cfg(rho=1.0)
        gamma0 = derive_params(config).gamma0
        assert outage_tas_closed(config).value == pytest.approx(
            (-math.expm1(-gamma0)) ** 4, rel=1e-12
        )

    def test_tas_nt1_equals_pbf_nt1(self):
        config = cfg(nt=1, rho=0.8)
        assert outage_tas_closed(config).value == pytest.approx(
            outage_pbf_closed(config).value, rel=1e-12
        )

    def test_rvq_nt1_equals_pbf(self):
        config = cfg(nt=1, rho=0.7)
        assert outage_rvq_closed(config, 16).value == outage_pbf_closed(config).value

    def test_rvq_monotone_to_pbf_floor_no_delay(self):
        config = cfg(rho=1.0)
        floor = outage_pbf_closed(config).value
        values = [outage_rvq_closed(config, 2 ** j).value for j in range(9)]
        gaps = [v - floor for v in values]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_mutas_reduces_to_miso_tas(self):
        for rho in (0.0, 0.8, 1.0):
            single = cfg(rho=rho)
            assert outage_mutas_closed(cfg(nr=1, nu=1, rho=rho)).value == pytest.approx(
                outage_tas_closed(single).value, abs=1e-9
            )

    def test_mutas_no_delay_is_selection_cdf(self):
        config = cfg(nr=2, nu=2, rho=1.0)
        gamma0 = derive_params(config).gamma0
        assert outage_mutas_closed(config).value == pytest.approx(
            float(sc.gammainc(2, gamma0)) ** 8, rel=1e-12
        )

    def test_mupbf_swap_identity(self):
        # the multiuser matched-filter form is the antenna-selection form with
        # the roles of n_t and n_r exchanged and a pool of n_u
        config = cfg(nt=3, nu=2, rho=0.85)
        swapped = cfg(nt=1, nr=3, nu=2, rho=0.85, snr_db=10.0 - 10 * math.log10(3.0))
        assert derive_params(config).gamma0 == pytest.approx(
            derive_params(swapped).gamma0, rel=1e-12
        )
        assert outage_mupbf_closed(config).value == pytest.approx(
            outage_mutas_closed(swapped).value, abs=1e-12
        )

    def test_murvq_nt1_equals_mupbf(self):
        config = cfg(nt=1, nu=2, rho=0.9)
        assert outage_murvq_closed(config, 8).value == outage_mupbf_closed(config).value

    def test_murvq_monotone_to_mupbf(self):
        config = cfg(nu=2, rho=0.9)
        floor = outage_mupbf_closed(config).value
        values = [outage_murvq_closed(config, 2 ** j).value for j in range(9)]
        gaps = [v - floor for v in values]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_rvq_average_guards_density_mass(self):
        # at n_t = 2 the 128 captured-fraction nodes recover 0.881 of the
        # density's mass for 16384 vectors: unguarded, the closed form read
        # 0.1626, 12% below the 0.1845 that 1024 nodes give; the quadrature
        # raises at the same point
        config = cfg(nt=2, rho=0.9)
        with pytest.raises(AccuracyError, match="density mass 0.88"):
            outage_rvq_closed(config, 16384)
        with pytest.raises(AccuracyError, match="density mass 0.88"):
            outage_semianalytic(SchemeId.MISO_RVQ, config, codebook_size=16384)

    @pytest.mark.parametrize("raw, clipped", [
        (-1e-9, 0.0), (1.0 + 1e-9, 1.0), (-1.1e-9, None), (1.0 + 1.1e-9, None),
    ])
    def test_clip_rounds_off_ulps_only(self, monkeypatch, raw, clipped):
        # a corrected value within 1e-9 of [0, 1] is clipped into it; further
        # out it raises, naming the scheme and the raw value; a diagnostic
        # variant is returned as it is
        record = analytic.SCHEMES[SchemeId.MISO_PBF]
        monkeypatch.setitem(analytic.SCHEMES, SchemeId.MISO_PBF,
                            replace(record, aged=lambda c, mu, beta, v: raw))
        if clipped is None:
            with pytest.raises(AccuracyError, match=f"miso-pbf closed form cancelled to {raw!r}"):
                outage_pbf_closed(cfg())
        else:
            assert outage_pbf_closed(cfg()).value == clipped
        assert outage_closed(SchemeId.MISO_PBF, cfg(), variant="factorial").value == raw

    def test_verbatim_variants_flagged_and_broken(self):
        config = cfg(rho=0.9)
        verbatim = outage_closed(SchemeId.MISO_PBF, config, variant="verbatim")
        assert "coefficient-verbatim" in verbatim.flags
        assert not (0.0 <= verbatim.value <= 1.0) or not math.isfinite(verbatim.value)
        tas = outage_closed(SchemeId.MISO_TAS, config, variant="verbatim")
        assert "exponent-verbatim" in tas.flags
        assert abs(tas.value - outage_tas_closed(config).value) > 0.1


class TestMonotonicity:
    def test_decreasing_in_snr(self):
        for scheme, kw, n in [
            (SchemeId.MISO_PBF, {}, None),
            (SchemeId.MISO_TAS, {}, None),
            (SchemeId.MISO_RVQ, {}, 8),
            (SchemeId.MU_TAS, {"nr": 2, "nu": 2}, None),
        ]:
            vals = [
                outage_semianalytic(scheme, cfg(snr_db=db, **kw), codebook_size=n).value
                for db in (0.0, 5.0, 10.0, 15.0, 20.0)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_rate(self):
        vals = [
            outage_semianalytic(SchemeId.MISO_TAS, cfg(rate=r)).value
            for r in (0.5, 1.0, 2.0, 3.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_rho(self):
        for scheme, kw, n in [
            (SchemeId.MISO_PBF, {}, None),
            (SchemeId.MISO_RVQ, {}, 8),
            (SchemeId.MU_TAS, {"nr": 2, "nu": 2}, None),
        ]:
            vals = [
                outage_semianalytic(scheme, cfg(rho=r, **kw), codebook_size=n).value
                for r in (0.0, 0.5, 0.8, 0.9, 0.99)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDiversityOrder:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            diversity_order(SchemeId.MISO_TAS, cfg(), (40.0,))

    def test_needs_two_distinct_points(self):
        # a repeated point leaves the slope undefined
        with pytest.raises(ValueError, match="distinct"):
            diversity_order(SchemeId.MISO_PBF, cfg(rho=0.9), (40.0, 40.0))

    def test_underflow_raises_range_error(self):
        with pytest.raises(RangeError):
            diversity_order(SchemeId.MU_PBF, cfg(nu=2, rho=0.9), (900.0, 1000.0))

    def test_zero_outage_at_rho_one_raises_range_error(self):
        # at rho = 1 the quadrature is the gain CDF, 0.0 at 40 dB for 128
        # candidates: the slope itself refuses it, not a quadrature guard
        with pytest.raises(RangeError, match="at 40.0 dB; shrink the grid") as exc:
            diversity_order(SchemeId.MU_TAS, cfg(nu=32, rho=1.0), (40.0, 50.0))
        assert type(exc.value) is RangeError

    def test_miso_tas_delayed_slope_one(self):
        slope = diversity_order(SchemeId.MISO_TAS, cfg(rho=0.9))
        assert 0.85 <= slope <= 1.15


class TestMinCodebookSize:
    def test_target_met_at_one(self):
        config = cfg(rho=0.95, snr_db=15.0)
        p1 = outage_rvq_closed(config, 1).value
        res = min_codebook_size(min(0.999, p1 * 1.5), config)
        assert res.size == 1 and res.attainable

    def test_unattainable_below_floor(self):
        config = cfg(rho=0.95, snr_db=15.0)
        floor = outage_pbf_closed(config).value
        res = min_codebook_size(floor * 0.5, config)
        assert not res.attainable
        assert res.size is None
        assert res.pbf_floor == pytest.approx(floor, rel=1e-12)

    def test_linear_scan_oracle(self):
        config = cfg(rho=0.95, snr_db=10.0)
        target = 0.1
        res = min_codebook_size(target, config, n_max=4096)
        assert res.attainable
        scan = next(
            n for n in range(1, 4097) if outage_rvq_closed(config, n).value <= target
        )
        assert res.size == scan

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            min_codebook_size(0.0, cfg())

    def test_bisects_below_an_unresolvable_probe(self):
        # at n_t = 2 the closed form raises from 3119 vectors on, so the
        # doubling probe 4096 is unverified; 3072 and 2414 meet the target
        config = cfg(nt=2, snr_db=20.0, rho=1.0)
        assert outage_rvq_closed(config, 2414).value <= 0.001731
        assert outage_rvq_closed(config, 2413).value > 0.001731
        with pytest.raises(AccuracyError):
            outage_rvq_closed(config, 4096)
        res = min_codebook_size(0.001731, config)
        assert (res.size, res.attainable) == (2414, True)

    def test_answer_past_the_resolvable_range_raises(self):
        # 3072 misses this target and 3584 raises, so no size is verified
        with pytest.raises(AccuracyError, match="density mass"):
            min_codebook_size(0.00173065, cfg(nt=2, snr_db=20.0, rho=1.0))

    def test_unverified_probe_as_answer_raises(self, monkeypatch):
        # n_max 3119 is the doubling's last probe and raises; every size the
        # bisection evaluates below it misses the target, so the answer would
        # be the unverified probe, and its error is raised again
        config = cfg(nt=2, snr_db=15.0, rho=0.999)
        below, floor = outage_rvq_closed(config, 3118).value, outage_pbf_closed(config).value
        with pytest.raises(AccuracyError, match="density mass"):
            outage_rvq_closed(config, 3119)
        evaluated = []

        def counted(config, n):
            evaluated.append(n)
            return outage_rvq_closed(config, n)

        monkeypatch.setattr(analytic, "outage_rvq_closed", counted)
        with pytest.raises(AccuracyError, match="density mass"):
            min_codebook_size(0.5 * (below + floor), config, n_max=3119)
        assert evaluated[-2:] == [3117, 3118]

    @pytest.mark.parametrize("target, snr_db, rho, n_max, size", [
        (0.01, 15.0, 0.995, 4096, 9), (0.05, 15.0, 0.995, 4096, 4),
        (0.01, 15.0, 0.995, 8, None), (0.01, 15.0, 0.995, 1, None),
    ])
    def test_one_evaluation_per_cardinality(self, monkeypatch, target, snr_db, rho, n_max, size):
        evaluated = []

        def counted(config, n, *args):
            evaluated.append(n)
            return outage_rvq_closed(config, n, *args)

        monkeypatch.setattr(analytic, "outage_rvq_closed", counted)
        res = min_codebook_size(target, cfg(snr_db=snr_db, rho=rho), n_max=n_max)
        assert res.size == size
        assert sorted(evaluated) == sorted(set(evaluated))


class TestDispatch:
    def test_outage_closed_covers_all_schemes(self):
        n = 8
        values = {
            SchemeId.MISO_PBF: outage_closed(SchemeId.MISO_PBF, cfg()),
            SchemeId.MISO_RVQ: outage_closed(SchemeId.MISO_RVQ, cfg(), n),
            SchemeId.MISO_TAS: outage_closed(SchemeId.MISO_TAS, cfg()),
            SchemeId.MU_TAS: outage_closed(SchemeId.MU_TAS, cfg(nr=2, nu=2)),
            SchemeId.MU_PBF: outage_closed(SchemeId.MU_PBF, cfg(nu=2)),
            SchemeId.MU_RVQ: outage_closed(SchemeId.MU_RVQ, cfg(nu=2), n),
        }
        for est in values.values():
            assert est.method == "closed_form"
            assert 0.0 <= est.value <= 1.0

    def test_rvq_requires_cardinality(self):
        with pytest.raises(ValueError):
            outage_closed(SchemeId.MISO_RVQ, cfg())


#: (shape, pool) of the selection sum: shape 1 up to a pool of 128, and for
#: shapes 2-4 the largest pool within the degree limit 64 and the first past
#: it, which must raise the same CapabilityError as the reference.
SELECTION_CASES = (
    [(1, pool) for pool in (1, 2, 7, 32, 128)]
    + [(2, pool) for pool in (2, 9, 65, 66)]
    + [(3, pool) for pool in (2, 8, 33, 34)]
    + [(4, pool) for pool in (2, 8, 22, 23)]
)
#: a scalar aging ratio, a zero one, and the 128 captured-fraction nodes of
#: the RVQ forms scaled to an aging ratio of 4.5
SELECTION_MU = (2.7, 0.0, 4.5 * 0.5 * (np.polynomial.legendre.leggauss(128)[0] + 1.0))


def _bits(value):
    return np.asarray(value).view(np.int64).tolist()


@pytest.mark.parametrize("shape, pool", SELECTION_CASES, ids=lambda v: str(v))
def test_selection_sum_equals_the_loop_bit_for_bit(shape, pool):
    # the scalar (k, m, n) loop of tests/_oracle.py, in the same float
    # operations and order, so the values are identical, not just close
    if (shape - 1) * (pool - 1) > 64:  # the message names the first degree past 64
        with pytest.raises(CapabilityError) as want:
            selection_diversity_sum(pool, shape, 2.7, 6.3)
        with pytest.raises(CapabilityError, match=f"^{want.value}$"):
            _selection_diversity_sum(pool, shape, 2.7, 6.3)
        return
    for beta in (0.5, 6.3, 60.3):
        for mu in SELECTION_MU:
            want = selection_diversity_sum(pool, shape, mu, beta)
            got = _selection_diversity_sum(pool, shape, mu, beta)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert _bits(got) == _bits(want)
