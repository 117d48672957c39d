"""Persistence resolution, derived parameters, and the oracle's channel draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfoutage import channel
from bfoutage.channel import (
    BeyondFirstZeroError,
    PersistenceSpec,
    RngStream,
    SystemConfig,
    derive_params,
    jakes_persistence,
)
from bfoutage.codebook import rvq_generate
from bfoutage.specfun import CapabilityError

from _oracle import age_channel, draw_channel, draw_user_channels, select_rvq
from _util import cfg


def j0_series(x: float) -> float:
    term, total, k = 1.0, 1.0, 0
    z = -x * x / 4.0
    while abs(term) > 1e-20:
        k += 1
        term *= z / (k * k)
        total += term
    return total


class TestJakesPersistence:
    def test_zero_delay(self):
        assert jakes_persistence(123.4, 0.0) == 1.0
        assert jakes_persistence(0.0, 5.0) == 1.0

    def test_small_product(self):
        # 2*pi*10*0.001 = 0.0628...; series oracle gives ~0.999013
        expected = j0_series(2 * math.pi * 10 * 1e-3)
        assert expected == pytest.approx(0.999013, abs=5e-7)
        assert jakes_persistence(10.0, 1e-3) == pytest.approx(expected, abs=1e-12)

    def test_accepted_below_first_zero(self):
        assert jakes_persistence(10.0, 5e-3) == pytest.approx(j0_series(0.1 * math.pi), abs=1e-12)

    def test_rejected_beyond_first_zero(self):
        # 2*pi*100*0.005 = pi, where the autocorrelation is ~ -0.3042
        assert j0_series(math.pi) == pytest.approx(-0.304242, abs=5e-7)
        with pytest.raises(BeyondFirstZeroError):
            jakes_persistence(100.0, 5e-3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            jakes_persistence(-1.0, 1e-3)

    @given(st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=100)
    def test_continuity_near_zero(self, product):
        # within the first lobe the value is positive and <= 1
        rho = jakes_persistence(product, 1.0 / (2 * math.pi))
        assert 0.0 < rho <= 1.0


class TestPersistenceSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            PersistenceSpec()
        with pytest.raises(ValueError):
            PersistenceSpec(rho=0.5, doppler_hz=1.0, delay_s=1.0)
        with pytest.raises(ValueError):
            PersistenceSpec(doppler_hz=1.0)

    def test_direct_rho_bounds(self):
        with pytest.raises(ValueError):
            PersistenceSpec.from_rho(1.5)
        assert PersistenceSpec.from_rho(0.25).resolve() == 0.25

    def test_jakes_resolution(self):
        spec = PersistenceSpec.from_jakes(10.0, 1e-3)
        assert spec.resolve() == pytest.approx(0.999013, abs=5e-7)


class TestDeriveParams:
    def test_gamma0(self):
        params = derive_params(
            SystemConfig(n_t=4, rate_bits=2.0, snr_linear=12.0,
                         persistence=PersistenceSpec.from_rho(0.5))
        )
        assert params.gamma0 == pytest.approx(1.0, abs=1e-15)

    def test_mu(self):
        params = derive_params(
            SystemConfig(n_t=4, rate_bits=2.0, snr_linear=12.0,
                         persistence=PersistenceSpec.from_rho(0.9))
        )
        assert params.mu == pytest.approx(0.81 / 0.19, rel=1e-12)

    def test_beta(self):
        params = derive_params(
            SystemConfig(n_t=4, rate_bits=2.0, snr_linear=12.0,
                         persistence=PersistenceSpec.from_rho(0.8))
        )
        assert params.beta == pytest.approx(1.0 / 0.36, rel=1e-12)

    def test_no_delay_flag(self):
        params = derive_params(
            SystemConfig(n_t=2, rate_bits=1.0, snr_linear=5.0,
                         persistence=PersistenceSpec.from_rho(1.0))
        )
        assert params.no_delay
        assert params.mu is None and params.beta is None

    # 2 ** rate overflows; gamma0 overflows; snr / n_t underflows to 0
    @pytest.mark.parametrize("rate, snr", [(1100.0, 10.0), (2.0, 1e-310), (2.0, 5e-324)])
    def test_gamma0_past_float_range(self, rate, snr):
        config = SystemConfig(n_t=4, rate_bits=rate, snr_linear=snr,
                              persistence=PersistenceSpec.from_rho(0.9))
        with pytest.raises(CapabilityError, match="gamma0"):
            derive_params(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(n_t=0, rate_bits=2.0, snr_linear=1.0,
                         persistence=PersistenceSpec.from_rho(0.9))
        with pytest.raises(ValueError):
            SystemConfig(n_t=2, rate_bits=-1.0, snr_linear=1.0,
                         persistence=PersistenceSpec.from_rho(0.9))


class TestDrawChannel:
    def test_determinism(self):
        stream = RngStream(seed=42, stream_id=3)
        a = draw_channel(stream, 4, 2)
        b = draw_channel(stream, 4, 2)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = draw_channel(RngStream(42, 0), 4, 1)
        b = draw_channel(RngStream(42, 1), 4, 1)
        assert not np.array_equal(a, b)

    def test_moments(self):
        h = draw_channel(RngStream(7), 1_000_000, 1).ravel()
        assert abs(h.mean()) < 0.004  # 3/sqrt(n) per component
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.005)

    def test_component_variance(self):
        h = draw_channel(RngStream(11), 500_000, 1).ravel()
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)

    def test_user_stack_shape(self):
        h = draw_user_channels(RngStream(1), 3, 4, 2)
        assert h.shape == (3, 4, 2)


class TestAgeChannel:
    def test_identity_at_rho_one(self):
        h = draw_channel(RngStream(5), 8, 2)
        aged = age_channel(h, 1.0, RngStream(6))
        assert np.array_equal(aged, h)

    def test_independent_at_rho_zero(self):
        h = draw_channel(RngStream(8), 1_000_000, 1).ravel()
        aged = age_channel(h, 0.0, RngStream(9, 1)).ravel()
        corr = np.mean(aged * h.conj())
        assert abs(corr) < 0.004

    def test_first_moment_at_rho(self):
        h = draw_channel(RngStream(10), 1_000_000, 1).ravel()
        aged = age_channel(h, 0.9, RngStream(10, 1)).ravel()
        assert np.mean(aged * h.conj()).real == pytest.approx(0.9, abs=0.01)

    def test_marginal_stationarity(self):
        h = draw_channel(RngStream(12), 1_000_000, 1)
        for rho in (0.0, 0.5, 0.95):
            aged = age_channel(h, rho, RngStream(13, int(rho * 100)))
            assert np.mean(np.abs(aged) ** 2) == pytest.approx(1.0, abs=0.005)

    def test_domain_error(self):
        h = draw_channel(RngStream(5), 2, 1)
        with pytest.raises(ValueError):
            age_channel(h, 1.5, RngStream(6))


def _pairs_to_complex(z: np.ndarray) -> np.ndarray:
    return z[..., 0] + 1j * z[..., 1]


def _candidates(gen, n: int, cb, fixed: bool) -> list[np.ndarray]:
    """Each trial's candidates as the selection sees them: the shared
    vectors, or the next fresh (N, n_t) draw from gen."""
    if fixed:
        return [cb.vectors] * n
    return list(_pairs_to_complex(gen.standard_normal((n, cb.cardinality, cb.n_t, 2))))


def _book(cb, fixed: bool):
    """The link's codebook argument: cb itself when fixed, else its cardinality."""
    return cb if fixed else cb.cardinality


class TestSelectRvq:
    """channel._select_rvq against the per-trial RVQ reference, which
    normalises every candidate before it projects."""

    #: 14 draw blocks of 7 and one of 3; 20 fixed search blocks of 5 and one of 1
    TRIALS = 101
    CASES = [(8, 4, False), (1, 2, False), (5, 3, False), (16, 4, True), (64, 3, True),
             (1, 2, True)]

    def _select(self, monkeypatch, size, n_t, fixed, project):
        """(h, the rows _select_rvq wrote over h, each trial's candidates),
        all complex, with the selection run in small blocks; checks that it
        leaves the stream where the reference's draws leave it."""
        monkeypatch.setattr(channel, "_BLOCK", 7)
        monkeypatch.setattr(channel, "_SEARCH_ROWS", 5)
        n = self.TRIALS
        stream = RngStream(29, 100 * size + n_t)
        cb = rvq_generate(RngStream(29, 1 << 40), size, n_t)
        gen = stream.generator()
        w = gen.standard_normal((n, n_t, 2))
        h = _pairs_to_complex(w)
        assert channel._select_rvq(gen, w, _book(cb, fixed), project) is None
        after = gen.standard_normal(4)

        ref = stream.generator()
        ref.standard_normal((n, n_t, 2))
        books = _candidates(ref, n, cb, fixed)
        assert np.array_equal(ref.standard_normal(4), after)
        return h, _pairs_to_complex(w), books

    @pytest.mark.parametrize("size, n_t, fixed", CASES)
    def test_matches_per_trial_reference(self, size, n_t, fixed, monkeypatch):
        h, proj, books = self._select(monkeypatch, size, n_t, fixed, project=True)
        eps = np.finfo(float).eps
        for t in range(self.TRIALS):
            k, power, beam = select_rvq(h[t], books[t])
            # the winner is the candidate the projection lies along
            assert select_rvq(proj[t], books[t])[0] == k
            # rounding of a product of h with a unit vector is a few ulps of |h|
            norm = np.linalg.norm(h[t])
            assert abs(np.vdot(proj[t], proj[t]).real - power) <= 8 * eps * norm ** 2
            assert np.max(np.abs(proj[t] - beam)) <= 8 * eps * norm

    @pytest.mark.parametrize("size, n_t, fixed", CASES)
    def test_scaled_winner_matches_per_trial_reference(self, size, n_t, fixed, monkeypatch):
        # without projection each row becomes sqrt(nu) h, nu = power / |h|^2
        # the fraction of h's power on the winning beam
        h, scaled, books = self._select(monkeypatch, size, n_t, fixed, project=False)
        eps = np.finfo(float).eps
        for t in range(self.TRIALS):
            power = select_rvq(h[t], books[t])[1]
            norm = np.linalg.norm(h[t])
            assert np.max(np.abs(scaled[t] - math.sqrt(power / norm ** 2) * h[t])) <= 8 * eps * norm

    def test_both_parts_carry_the_selected_power(self):
        # mu-rvq's scaled winner and miso-rvq's projection differ in
        # direction only: both hold the power h puts on the selected beam
        cb = rvq_generate(RngStream(31, 1 << 40), 16, 4)
        h = RngStream(31).generator().standard_normal((50, 4, 2))
        for fixed in (False, True):
            proj, scaled = h.copy(), h.copy()
            channel._select_rvq(RngStream(31, 1).generator(), proj, _book(cb, fixed), project=True)
            channel._select_rvq(RngStream(31, 1).generator(), scaled, _book(cb, fixed))
            assert np.allclose(channel._power(proj), channel._power(scaled), rtol=1e-13, atol=0.0)
            ratio = _pairs_to_complex(scaled) / _pairs_to_complex(h)
            assert np.allclose(ratio, ratio[:, :1].real, rtol=1e-13, atol=0.0)
            assert np.all(ratio.real < 1.0)

    @given(seed=st.integers(0, 2**63 - 1), rho=st.floats(0.0, 1.0), n_t=st.integers(1, 6),
           size=st.integers(1, 40), fixed=st.booleans())
    @settings(max_examples=60)
    def test_gain_on_projection_is_aged_gain_on_beam(self, seed, rho, n_t, size, fixed):
        # the identity the RVQ link rests on: with S = <h, p> p, the matched
        # gain |<aged, S>|^2 / |S|^2 of aged = rho S + d e is |<rho h + d e, p>|^2
        n, decay = 16, math.sqrt(1.0 - rho * rho)
        cb = rvq_generate(RngStream(seed, 1), size, n_t)
        stale, gain = channel.link_miso_rvq(
            RngStream(seed).generator(), cfg(nt=n_t, rho=rho), n, _book(cb, fixed))
        ref = RngStream(seed).generator()
        h = _pairs_to_complex(ref.standard_normal((n, n_t, 2)))
        books = _candidates(ref, n, cb, fixed)
        e = np.random.default_rng(seed).standard_normal((n, n_t, 2))
        got = gain(rho * stale + decay * e, slice(0, n))
        aged = rho * h + decay * _pairs_to_complex(e)
        for t in range(n):
            v = books[t][select_rvq(h[t], books[t])[0]]
            want = abs(np.vdot(v / np.linalg.norm(v), aged[t])) ** 2
            assert got[t] == pytest.approx(want, rel=1e-12, abs=0.0)
