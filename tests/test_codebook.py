"""Codebook construction, the oracle's selection rules, and the
quantization-factor law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from bfoutage.channel import RngStream
from bfoutage.codebook import Codebook, load_codebook, nu_pdf, rvq_generate, save_codebook

from _oracle import (
    draw_channel,
    draw_user_channels,
    nu_cdf,
    select_beamformer,
    select_user_antenna,
    select_user_maxnorm,
    tas_codebook,
)


def _sample_nu(seed, draws, n, n_t):
    gen = np.random.Generator(np.random.Philox(key=seed))
    z = gen.standard_normal((draws, n_t, 2))
    h = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
    zc = gen.standard_normal((draws, n, n_t, 2))
    raw = (zc[..., 0] + 1j * zc[..., 1]) * np.sqrt(0.5)
    vecs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    proj = np.abs(np.einsum("ij,ikj->ik", h, vecs.conj())) ** 2
    return np.max(proj, axis=1) / np.sum(np.abs(h) ** 2, axis=1), h


class TestCodebookConstruction:
    def test_rvq_unit_norms(self):
        cb = rvq_generate(RngStream(3), 64, 4)
        norms = np.sum(np.abs(cb.vectors) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_rvq_determinism(self):
        a = rvq_generate(RngStream(3, 5), 8, 4)
        b = rvq_generate(RngStream(3, 5), 8, 4)
        assert np.array_equal(a.vectors, b.vectors)

    def test_tas_is_standard_basis(self):
        cb = tas_codebook(4)
        assert np.array_equal(cb.vectors, np.eye(4, dtype=complex))

    def test_scalar_codebook(self):
        cb = rvq_generate(RngStream(1), 5, 1)
        assert np.allclose(np.abs(cb.vectors), 1.0)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            Codebook(scheme="RVQ", n_t=2, vectors=np.array([[1.0, 1.0]], dtype=complex))

    def test_rejects_nonfinite_entries(self):
        # nan > tolerance is False, so a norm test alone lets NaN through
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            vecs = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
            with pytest.raises(ValueError, match="finite"):
                Codebook(scheme="RVQ", n_t=2, vectors=vecs)

    def test_pbf_virtual(self):
        # the matched filter is no codebook kind, and every codebook has vectors
        for scheme in ("PBF", "RVQ"):
            with pytest.raises(ValueError):
                Codebook(scheme=scheme, n_t=4, vectors=None)


class TestSelectBeamformer:
    def test_tas_single_entry(self):
        out = select_beamformer(np.array([2.0, 0, 0, 0], dtype=complex), tas_codebook(4))
        assert out.beam_index == 0
        assert out.gain == pytest.approx(4.0, abs=0)

    def test_matched_vector_wins(self):
        gen = np.random.Generator(np.random.Philox(key=17))
        h = (gen.standard_normal(4) + 1j * gen.standard_normal(4)) / np.sqrt(2)
        cb8 = rvq_generate(RngStream(18), 7, 4)
        vecs = np.vstack([cb8.vectors, h / np.linalg.norm(h)])
        cb = Codebook(scheme="RVQ", n_t=4, vectors=vecs)
        out = select_beamformer(h, cb)
        assert out.beam_index == 7
        assert out.tradeoff == pytest.approx(1.0, rel=1e-12)

    def test_brute_force_scan(self):
        for seed in range(20):
            h = draw_channel(RngStream(seed, 1), 4, 1).ravel()
            cb = rvq_generate(RngStream(seed, 2), 8, 4)
            out = select_beamformer(h, cb)
            gains = [abs(np.vdot(p, h).conjugate()) ** 2 for p in cb.vectors]
            assert out.beam_index == int(np.argmax(gains))

    def test_pbf_gain_is_full_norm(self):
        # the matched filter h/||h|| alone captures all of ||h||^2
        h = draw_channel(RngStream(23), 4, 1).ravel()
        out = select_beamformer(h, Codebook("RVQ", 4, (h / np.linalg.norm(h))[None]))
        assert out.gain == pytest.approx(float(np.sum(np.abs(h) ** 2)), rel=1e-14)
        assert out.tradeoff == pytest.approx(1.0, rel=1e-14)

    def test_tas_gain_exact(self):
        for seed in range(10):
            h = draw_channel(RngStream(seed, 3), 4, 1).ravel()
            out = select_beamformer(h, tas_codebook(4))
            assert out.gain == float(np.max(np.abs(h) ** 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            select_beamformer(np.ones(3, dtype=complex), tas_codebook(4))

    @given(st.integers(min_value=0, max_value=100),
           st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False))
    @settings(max_examples=60)
    def test_scale_invariance(self, seed, scale):
        h = draw_channel(RngStream(seed, 4), 4, 1).ravel()
        cb = rvq_generate(RngStream(seed, 5), 8, 4)
        assert select_beamformer(h, cb).beam_index == select_beamformer(scale * h, cb).beam_index


class TestUserSelection:
    def test_single_user_reduces_to_tas(self):
        ch = draw_user_channels(RngStream(31), 1, 4, 1)
        out = select_user_antenna(ch)
        tas = select_beamformer(ch[0].ravel(), tas_codebook(4))
        assert out.beam_index == tas.beam_index
        assert out.gain == pytest.approx(tas.gain, rel=1e-14)
        assert out.user_index == 0

    def test_constructed_maximum(self):
        ch = np.zeros((2, 3, 2), dtype=complex)
        ch[1, 2, 0] = 3.0  # row norm 9 at user 1, antenna 2
        ch[0, 0, 0] = 1.0
        out = select_user_antenna(ch)
        assert (out.user_index, out.beam_index) == (1, 2)
        assert out.gain == pytest.approx(9.0, abs=0)

    def test_brute_force_scan(self):
        ch = draw_user_channels(RngStream(37), 2, 4, 2)
        out = select_user_antenna(ch)
        norms = np.sum(np.abs(ch) ** 2, axis=2)
        best = np.unravel_index(np.argmax(norms), norms.shape)
        assert (out.user_index, out.beam_index) == best

    def test_maxnorm_single_user(self):
        ch = draw_user_channels(RngStream(41), 1, 4, 1)[:, :, 0]
        assert select_user_maxnorm(ch).user_index == 0

    def test_maxnorm_constructed(self):
        ch = np.zeros((2, 3), dtype=complex)
        ch[0, 0] = 1.0
        ch[1, 0] = np.sqrt(2.5)
        assert select_user_maxnorm(ch).user_index == 1

    def test_maxnorm_brute_force(self):
        ch = draw_user_channels(RngStream(43), 4, 4, 1)[:, :, 0]
        out = select_user_maxnorm(ch)
        assert out.user_index == int(np.argmax(np.sum(np.abs(ch) ** 2, axis=1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_user_antenna(np.zeros((0, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            select_user_maxnorm(np.zeros((0, 2), dtype=complex))


class TestNuDistribution:
    def test_single_vector_two_antennas_uniform(self):
        for nu in (0.0, 0.3, 0.7, 1.0):
            assert nu_pdf(nu, 1, 2) == pytest.approx(1.0, abs=0)

    def test_density_integrates_to_one(self):
        val = quad(lambda v: nu_pdf(v, 8, 4), 0.0, 1.0, epsabs=1e-13)[0]
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nu_pdf(1.5, 4, 4)
        with pytest.raises(ValueError):
            nu_pdf(0.5, 4, 1)

    def test_array_in_array_out(self):
        got = nu_pdf([0.1, 0.2], 8, 4)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert got.tolist() == [nu_pdf(0.1, 8, 4), nu_pdf(0.2, 8, 4)]
        assert nu_pdf(np.array([0.3]), 8, 4).shape == (1,)
        for scalar in (0.3, np.float64(0.3), np.asarray(0.3)):
            assert type(nu_pdf(scalar, 8, 4)) is float

    def test_measured_nu_uniform_ks(self):
        nu, _ = _sample_nu(101, 100_000, 1, 2)
        stat = stats.kstest(nu, "uniform").statistic
        assert stat < 0.01

    def test_measured_nu_matches_density_chi2(self):
        nu, _ = _sample_nu(103, 100_000, 8, 4)
        # equal-probability bins through the exact CDF
        edges = np.linspace(0.0, 1.0, 51)
        inv = 1.0 - (1.0 - edges ** (1.0 / 8)) ** (1.0 / 3)  # CDF^-1 for n=8, nt=4
        counts, _ = np.histogram(nu, bins=inv)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_nu_independent_of_channel_power(self):
        nu, h = _sample_nu(107, 100_000, 8, 4)
        power = np.sum(np.abs(h) ** 2, axis=1)
        corr = np.corrcoef(nu, power)[0, 1]
        assert abs(corr) < 0.01

    def test_cdf_matches_pdf(self):
        for nu in (0.2, 0.5, 0.8):
            num = quad(lambda v: nu_pdf(v, 8, 4), 0.0, nu, epsabs=1e-13)[0]
            assert nu_cdf(nu, 8, 4) == pytest.approx(num, abs=1e-10)


class TestCodebookIO:
    def test_roundtrip(self, tmp_path):
        cb = rvq_generate(RngStream(51), 8, 4)
        path = tmp_path / "book.txt"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded.scheme == "RVQ"
        assert loaded.n_t == 4 and loaded.cardinality == 8
        assert np.array_equal(loaded.vectors, cb.vectors)

    def test_header_format(self, tmp_path):
        cb = tas_codebook(3)
        path = tmp_path / "tas.txt"
        save_codebook(cb, path)
        assert path.read_text().splitlines()[0] == "TAS 3 3"

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text in ("RVQ 4 2\n1.0,0.0 0.0,0.0 0.0,0.0 0.0,0.0\n",
                     "RVQ 2 2\nnan,0 0.0,0.0\n0.0,0.0 1.0,0.0\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                load_codebook(path)
