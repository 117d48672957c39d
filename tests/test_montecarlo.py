"""Link-level simulator against analytic oracles, plus determinism contracts."""

import ast
import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sc

from bfoutage.analytic import SchemeId, outage_rvq_closed
from bfoutage.channel import RngStream, derive_params
from bfoutage.codebook import Codebook, rvq_generate
from bfoutage import analytic, channel, montecarlo, verification
from bfoutage.montecarlo import (
    McPoint,
    McResult,
    TrialPlan,
    _count_chunk,
    simulate_outage,
    simulate_outages,
)

from _oracle import (
    complex_normal, select_beamformer, select_user_antenna, select_user_maxnorm, tas_codebook,
)
from _util import cfg


def _agree(a: McResult, b: McResult) -> bool:
    se = math.hypot(a.std_err, b.std_err)
    return abs(a.p_hat - b.p_hat) <= 3 * se


class TestMcResult:
    def test_fields(self):
        res = McResult(outage_count=25, trials=1000)
        assert res.p_hat == 0.025
        assert res.std_err == pytest.approx(math.sqrt(0.025 * 0.975 / 1000), rel=1e-12)

    def test_rule_of_three_fallback(self):
        res = McResult(outage_count=0, trials=10_000)
        assert res.std_err == 1.0 / 10_000  # 3*std_err spans the 3/n bound

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            McResult(outage_count=11, trials=10)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TrialPlan(trials=0, seed=1)
        with pytest.raises(ValueError):
            TrialPlan(trials=10, seed=1, workers=0)


class TestSimulateOutage:
    def test_near_zero_threshold(self):
        res = simulate_outage(
            SchemeId.MISO_PBF, cfg(rate=1e-12), None, TrialPlan(trials=10_000, seed=3)
        )
        assert res.p_hat == 0.0

    def test_pbf_no_delay_gamma_oracle(self):
        config = cfg(rho=1.0)
        res = simulate_outage(SchemeId.MISO_PBF, config, None, TrialPlan(trials=1_000_000, seed=5))
        expected = float(sc.gammainc(4, derive_params(config).gamma0))
        assert abs(res.p_hat - expected) <= 3 * res.std_err

    def test_tas_no_delay_max_exponential_oracle(self):
        config = cfg(rho=1.0)
        res = simulate_outage(SchemeId.MISO_TAS, config, None, TrialPlan(trials=1_000_000, seed=6))
        expected = (-math.expm1(-derive_params(config).gamma0)) ** 4
        assert abs(res.p_hat - expected) <= 3 * res.std_err

    def test_rvq_needs_codebook(self):
        with pytest.raises(ValueError):
            simulate_outage(SchemeId.MISO_RVQ, cfg(), None, TrialPlan(trials=100, seed=1))

    def test_scheme_config_mismatch(self):
        with pytest.raises(ValueError):
            simulate_outage(SchemeId.MISO_PBF, cfg(nu=2), None, TrialPlan(trials=100, seed=1))

    def test_selection_happens_before_aging(self):
        # at rho = 0 the codebook cannot matter: the aged projection is
        # independent of the stale selection
        config = cfg(rho=0.0)
        plan = TrialPlan(trials=400_000, seed=11)
        res_small = simulate_outage(
            SchemeId.MISO_RVQ, config, rvq_generate(RngStream(11), 1, 4), plan
        )
        res_large = simulate_outage(
            SchemeId.MISO_RVQ, config, rvq_generate(RngStream(11), 64, 4), plan, stream_offset=1 << 20
        )
        assert _agree(res_small, res_large)
        expected = -math.expm1(-derive_params(config).gamma0)
        assert abs(res_small.p_hat - expected) <= 3 * res_small.std_err

    def test_fixed_codebook_mode_differs_from_ensemble(self):
        # single fixed vector vs per-trial redraw with N=1 must agree in law
        config = cfg(rho=0.9)
        plan = TrialPlan(trials=400_000, seed=13)
        cb = rvq_generate(RngStream(13, 7), 1, 4)
        fixed = simulate_outage(SchemeId.MISO_RVQ, config, cb, plan, fixed_codebook=True)
        ensemble = simulate_outage(
            SchemeId.MISO_RVQ, config, cb, plan, stream_offset=1 << 20
        )
        # with one isotropic vector the fixed and ensemble laws coincide
        assert _agree(fixed, ensemble)
        assert abs(fixed.p_hat - outage_rvq_closed(config, 1).value) <= 3 * fixed.std_err

    @pytest.mark.parametrize("scheme, nu", [(SchemeId.MISO_RVQ, 1), (SchemeId.MU_RVQ, 2)])
    def test_unfixed_codebooks_of_one_cardinality_give_one_count(self, scheme, nu):
        # without fixed_codebook every trial draws its own vectors, so a
        # codebook lends the simulation only its cardinality
        config = cfg(rho=0.9, nu=nu)
        plan = TrialPlan(trials=5000, seed=13, chunk=2048)
        a, b = (rvq_generate(RngStream(13, k), 8, 4) for k in (1, 2))
        assert not np.array_equal(a.vectors, b.vectors)
        counts = [simulate_outage(scheme, config, cb, plan).outage_count for cb in (a, b)]
        assert counts[0] == counts[1] == _alone(McPoint(scheme, config, 8, plan)).outage_count


class TestDeterminism:
    def test_worker_invariance(self):
        config = cfg(nr=2, nu=2, rho=0.9)
        counts = [
            simulate_outage(
                SchemeId.MU_TAS, config, None,
                TrialPlan(trials=150_000, seed=17, workers=w),
            ).outage_count
            for w in (1, 4, 16)
        ]
        assert counts[0] == counts[1] == counts[2]

    def test_chunk_changes_results_but_workers_do_not(self):
        config = cfg(rho=0.9)
        a = simulate_outage(SchemeId.MISO_TAS, config, None,
                            TrialPlan(trials=100_000, seed=19, chunk=1 << 14))
        b = simulate_outage(SchemeId.MISO_TAS, config, None,
                            TrialPlan(trials=100_000, seed=19, chunk=1 << 14, workers=8))
        assert a.outage_count == b.outage_count

    def test_repeatability(self):
        config = cfg(rho=0.8)
        plan = TrialPlan(trials=50_000, seed=23)
        a = simulate_outage(SchemeId.MISO_PBF, config, None, plan)
        b = simulate_outage(SchemeId.MISO_PBF, config, None, plan)
        assert a.outage_count == b.outage_count


#: label -> (scheme, cfg keywords, codebook size, fixed codebook)
GOLDEN_VARIANTS = {
    "miso-pbf": (SchemeId.MISO_PBF, {}, None, False),
    "miso-rvq": (SchemeId.MISO_RVQ, {}, 8, False),
    "miso-rvq-fixed": (SchemeId.MISO_RVQ, {}, 16, True),
    "miso-rvq-nt2-n1": (SchemeId.MISO_RVQ, {"nt": 2}, 1, False),
    "miso-tas": (SchemeId.MISO_TAS, {}, None, False),
    "mu-tas": (SchemeId.MU_TAS, {"nr": 2, "nu": 3}, None, False),
    "mu-pbf": (SchemeId.MU_PBF, {"nu": 3}, None, False),
    "mu-rvq": (SchemeId.MU_RVQ, {"nu": 3}, 8, False),
    "mu-rvq-fixed": (SchemeId.MU_RVQ, {"nu": 3}, 16, True),
    "mu-rvq-nt2-n1": (SchemeId.MU_RVQ, {"nt": 2, "nu": 2}, 1, False),
}
GOLDEN_RHOS = (0.0, 0.9, 1.0)
GOLDEN_SMALL_TRIALS = (1, 2047, 2049)
GOLDEN_LARGE_TRIALS = 150_001
GOLDEN_SEED = 97


def _golden_codebook(size, fixed: bool, n_t: int):
    """What a point of a GOLDEN_VARIANTS label holds as its codebook: the
    recorded fixed codebook, or the fresh cardinality (None for no codebook)."""
    return rvq_generate(RngStream(GOLDEN_SEED, 1 << 40), size, n_t) if fixed else size


def _golden_count(label: str, rho: float, trials: int, workers: int) -> int:
    scheme, kwargs, size, fixed = GOLDEN_VARIANTS[label]
    config = cfg(rho=rho, **kwargs)
    cb = rvq_generate(RngStream(GOLDEN_SEED, 1 << 40), size, config.n_t) if size else None
    plan = TrialPlan(trials=trials, seed=GOLDEN_SEED, workers=workers)
    return simulate_outage(scheme, config, cb, plan, fixed_codebook=fixed).outage_count


class TestGoldenCounts:
    """Outage counts recorded from the complex-arithmetic kernel of commit
    aa4c2ac; any change to the random-stream consumption or to the selection
    and aging arithmetic beyond rounding shows up here.  The trial counts
    straddle the simulator's internal block edges and its chunk size."""

    # per label: counts at (rho, trials) for rho in GOLDEN_RHOS, trials in
    # GOLDEN_SMALL_TRIALS, in that nesting order
    GOLDEN_SMALL = {
        "miso-pbf": (0, 1422, 1405, 0, 203, 188, 0, 70, 70),
        "miso-rvq": (1, 1383, 1462, 0, 655, 651, 0, 440, 438),
        "miso-rvq-fixed": (1, 1433, 1397, 0, 537, 503, 0, 290, 290),
        "miso-rvq-nt2-n1": (1, 954, 900, 0, 940, 939, 0, 929, 928),
        "miso-tas": (0, 1447, 1427, 0, 722, 700, 0, 476, 477),
        "mu-tas": (0, 710, 716, 0, 21, 16, 0, 0, 0),
        "mu-pbf": (0, 64, 64, 0, 4, 6, 0, 0, 0),
        "mu-rvq": (0, 58, 62, 0, 78, 84, 0, 48, 56),
        "mu-rvq-fixed": (0, 64, 64, 0, 41, 39, 0, 14, 14),
        "mu-rvq-nt2-n1": (0, 238, 238, 0, 488, 470, 0, 598, 578),
    }
    # per label: counts at rho 0.9, GOLDEN_LARGE_TRIALS trials
    GOLDEN_LARGE = {
        "miso-pbf": 14732,
        "miso-rvq": 47134,
        "miso-rvq-fixed": 37400,
        "miso-rvq-nt2-n1": 67753,
        "miso-tas": 52030,
        "mu-tas": 1227,
        "mu-pbf": 267,
        "mu-rvq": 6048,
        "mu-rvq-fixed": 3343,
        "mu-rvq-nt2-n1": 35205,
    }

    @pytest.mark.parametrize("label", list(GOLDEN_VARIANTS))
    def test_small_trial_counts(self, label):
        counts = tuple(
            _golden_count(label, rho, trials, 1)
            for rho in GOLDEN_RHOS for trials in GOLDEN_SMALL_TRIALS
        )
        assert counts == self.GOLDEN_SMALL[label]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("label", list(GOLDEN_VARIANTS))
    def test_multi_chunk_counts(self, label, workers):
        count = _golden_count(label, 0.9, GOLDEN_LARGE_TRIALS, workers)
        assert count == self.GOLDEN_LARGE[label]


class TestArbiterIndependence:
    """The simulator reads a scheme record's fixed fields, codebook use and
    link model, never its gain law or closed form."""

    def test_golden_counts_without_law_or_closed_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Monte Carlo arbiter evaluated an analytic law")

        for scheme, record in list(analytic.SCHEMES.items()):
            monkeypatch.setitem(
                analytic.SCHEMES, scheme, replace(record, law=refuse, ideal=refuse, aged=refuse))
        k = GOLDEN_RHOS.index(0.9) * len(GOLDEN_SMALL_TRIALS) + GOLDEN_SMALL_TRIALS.index(2049)
        for label, counts in TestGoldenCounts.GOLDEN_SMALL.items():
            assert _golden_count(label, 0.9, 2049, 1) == counts[k]

    def test_link_module_imports_no_evaluation_layer(self):
        assert {r.link.__module__ for r in analytic.SCHEMES.values()} == {channel.__name__}
        names = []
        for node in ast.walk(ast.parse(inspect.getsource(channel))):
            if isinstance(node, ast.ImportFrom):
                names += [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names += [a.name for a in node.names]
        imported = {part for name in names for part in name.split(".")}
        assert not imported & {"analytic", "montecarlo", "verification", "cli"}

    def test_chunk_kernel_names_no_scheme(self):
        tree = ast.parse(inspect.getsource(montecarlo))
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id == "SchemeId"]


def _oracle_gain(scheme, h, e, book, rho):
    """Aged effective gain of one trial, by the oracle's selection rules; no
    book means the matched filter."""
    decay = math.sqrt(1.0 - rho * rho)
    if scheme is SchemeId.MU_TAS:
        sel = select_user_antenna(h)
        return np.sum(np.abs(rho * h[sel.user_index, sel.beam_index] + decay * e) ** 2)
    if scheme in (SchemeId.MU_PBF, SchemeId.MU_RVQ):
        win = h[select_user_maxnorm(h).user_index]
        nu = select_beamformer(win, book).tradeoff if book else 1.0
        return np.sum(np.abs(rho * math.sqrt(nu) * win + decay * e) ** 2)
    if book is None:
        beam = h / math.sqrt(np.sum(np.abs(h) ** 2))
    else:
        beam = book.vectors[select_beamformer(h, book).beam_index]
    return abs(np.vdot(beam, rho * h + decay * e)) ** 2


class TestPerTrialOracle:
    """A chunk draws, from its one stream: the stale channel of every trial,
    then every fresh codebook, then every innovation e.  Redrawing that
    stream and running the oracle's selection functions trial by trial must
    reproduce the simulator's outage counts at thresholds between the
    oracle's sorted gains, all counted from one chunk call."""

    TRIALS = 300

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("label", list(GOLDEN_VARIANTS))
    def test_counts_match_trial_by_trial_selection(self, label, rho):
        scheme, kwargs, size, fixed = GOLDEN_VARIANTS[label]
        config = cfg(rho=rho, **kwargs)
        n, n_t = self.TRIALS, config.n_t
        shape = {
            SchemeId.MU_TAS: (config.n_u, n_t, config.n_r),
            SchemeId.MU_PBF: (config.n_u, n_t),
            SchemeId.MU_RVQ: (config.n_u, n_t),
        }.get(scheme, (n_t,))
        book = _golden_codebook(size, fixed, n_t)
        stream = RngStream(GOLDEN_SEED, 5)

        gen = stream.generator()
        h = complex_normal(gen, (n,) + shape)
        if size and not fixed:
            raw = complex_normal(gen, (n, size, n_t))
            books = [Codebook("RVQ", n_t, v / np.linalg.norm(v, axis=1, keepdims=True))
                     for v in raw]
        else:
            books = [tas_codebook(n_t) if scheme is SchemeId.MISO_TAS else book] * n
        e = complex_normal(gen, (n, config.n_r if scheme is SchemeId.MU_TAS else n_t))
        gains = np.sort([_oracle_gain(scheme, h[i], e[i], books[i], rho) for i in range(n)])

        below = list(range(30, n, 30))
        targets = [(rho, 0.5 * (gains[k - 1] + gains[k])) for k in below]
        assert _count_chunk(scheme, config, n, stream, targets, book) == below

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("label", list(GOLDEN_VARIANTS))
    def test_counts_match_across_short_blocks(self, label, rho, monkeypatch):
        # 300 trials in blocks of 7 cross 42 block edges and end on a block
        # of 6, in the selections and in the chunk's draws of e alike
        monkeypatch.setattr(channel, "_BLOCK", 7)
        self.test_counts_match_trial_by_trial_selection(label, rho)


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while run() runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestChunkMemory:
    """A chunk holds its stale part at chunk size and forms e, the aged
    channel and the gains one block at a time, so its peak neither reaches
    the old full-chunk footprint nor grows with the number of targets."""

    TRIALS = 1 << 16
    #: per label, MB: traced peaks of one chunk are 2.32 (mu-rvq-nt2-n1) to
    #: 5.93 (miso-rvq), against 6.0 to 16.0 with e, aged and gains at chunk
    #: size; miso-rvq's were 10.41 (fresh) and 9.79 (fixed) while its link
    #: kept the selected beams beside the stale channels, miso-pbf's 4.89 with
    #: a chunk-sized norm array, and the RVQ labels' 0.5 to 1.2 MB above
    #: today's while the selection returned a chunk-sized power per trial
    #: (miso-rvq 6.43, mu-rvq 6.42, mu-rvq-fixed 5.50), so each RVQ bound
    #: sits about halfway between the two
    PEAK_MB = {
        "miso-pbf": 5.0,
        "miso-rvq": 6.2,
        "miso-rvq-fixed": 4.7,
        "miso-rvq-nt2-n1": 2.7,
        "miso-tas": 5.5,
        "mu-tas": 3.5,
        "mu-pbf": 5.0,
        "mu-rvq": 6.1,
        "mu-rvq-fixed": 5.0,
        "mu-rvq-nt2-n1": 3.0,
    }

    @pytest.mark.parametrize("label", list(GOLDEN_VARIANTS))
    def test_chunk_peak(self, label):
        scheme, kwargs, size, fixed = GOLDEN_VARIANTS[label]
        config = cfg(rho=0.9, **kwargs)
        book = _golden_codebook(size, fixed, config.n_t)
        stream = RngStream(GOLDEN_SEED, 9)

        def peak(targets):
            return _traced_peak(
                lambda: _count_chunk(scheme, config, self.TRIALS, stream, targets, book))

        one = peak([(0.9, 1.0)])
        twelve = peak([(0.5 + 0.04 * k, 1.0) for k in range(12)])
        row = analytic.SCHEMES[scheme].link(stream.generator(), config, 1, book)[0][0]
        assert one < self.PEAK_MB[label] * 2**20
        assert twelve <= one + channel._BLOCK * row.nbytes


def _batch_points() -> list[McPoint]:
    """One point per GOLDEN_VARIANTS label, each with its own seed and stream
    offset; chunks of 2048 leave a short last chunk of 1201 trials."""
    points = []
    for k, (label, (scheme, kwargs, size, fixed)) in enumerate(GOLDEN_VARIANTS.items()):
        config = cfg(rho=0.9, **kwargs)
        book = _golden_codebook(size, fixed, config.n_t)
        plan = TrialPlan(trials=5297, seed=GOLDEN_SEED + k, chunk=2048)
        points.append(McPoint(scheme, config, book, plan, stream_offset=3 * k))
    return points


def _streams_opened(monkeypatch, run) -> int:
    """Random streams opened (RngStream.generator calls) while run() runs."""
    opened = []
    generator = RngStream.generator
    with monkeypatch.context() as patch:
        patch.setattr(RngStream, "generator", lambda self: opened.append(self) or generator(self))
        run()
    return len(opened)


#: SNRs (dB) and rhos of the shared-stream grid; rho 1 draws no innovation.
SHARED_SNR_DB = (0.0, 5.0, 10.0, 20.0)
SHARED_RHOS = (0.0, 0.5, 0.9, 1.0)


def _shared_grid_points() -> list[McPoint]:
    """Per GOLDEN_VARIANTS label, the SHARED_SNR_DB x SHARED_RHOS grid on one
    seed, stream offset and codebook object; chunks of 2048 leave a short
    last chunk of 1201 trials."""
    plan = TrialPlan(trials=5297, seed=GOLDEN_SEED, chunk=2048)
    points = []
    for label, (scheme, kwargs, size, fixed) in GOLDEN_VARIANTS.items():
        book = _golden_codebook(size, fixed, cfg(**kwargs).n_t)
        points += [McPoint(scheme, cfg(snr_db=snr_db, rho=rho, **kwargs), book, plan, 7)
                   for snr_db in SHARED_SNR_DB for rho in SHARED_RHOS]
    return points


_PLAN = TrialPlan(trials=3000, seed=GOLDEN_SEED, chunk=2048)
_BOOK = rvq_generate(RngStream(GOLDEN_SEED, 1 << 40), 8, 4)
_PBF = McPoint(SchemeId.MISO_PBF, cfg(), None, _PLAN)
#: field -> two points that differ in that field alone
UNMERGED_PAIRS = {
    "seed": (_PBF, _PBF._replace(plan=replace(_PLAN, seed=GOLDEN_SEED + 1))),
    "stream_offset": (_PBF, _PBF._replace(stream_offset=1)),
    "trials": (_PBF, _PBF._replace(plan=replace(_PLAN, trials=3001))),
    "chunk": (_PBF, _PBF._replace(plan=replace(_PLAN, chunk=1024))),
    "n_u": (McPoint(SchemeId.MU_PBF, cfg(nu=2), None, _PLAN),
            McPoint(SchemeId.MU_PBF, cfg(nu=3), None, _PLAN)),
    "cardinality": (McPoint(SchemeId.MISO_RVQ, cfg(), 8, _PLAN),
                    McPoint(SchemeId.MISO_RVQ, cfg(), 16, _PLAN)),
    "codebook_object": (McPoint(SchemeId.MISO_RVQ, cfg(), _BOOK, _PLAN),
                        McPoint(SchemeId.MISO_RVQ, cfg(),
                                Codebook(_BOOK.scheme, _BOOK.n_t, _BOOK.vectors.copy()), _PLAN)),
    "fixed_or_fresh": (McPoint(SchemeId.MISO_RVQ, cfg(), _BOOK, _PLAN),
                       McPoint(SchemeId.MISO_RVQ, cfg(), _BOOK.cardinality, _PLAN)),
}


def _alone(point: McPoint) -> McResult:
    """point's result in a batch of its own."""
    return simulate_outages([point], 1)[0]


class TestBatch:
    """simulate_outages runs every chunk of every point on one pool; each
    point's count must equal its count in a batch of its own, also when
    points on the same streams share their draws."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_counts_equal_separate_calls(self, workers):
        points = _batch_points()
        separate = [_alone(p).outage_count for p in points]
        batch = simulate_outages(points, workers)
        assert [r.outage_count for r in batch] == separate
        assert [r.trials for r in batch] == [p.plan.trials for p in points]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_points_on_one_stream_share_draws(self, monkeypatch, workers):
        points = _shared_grid_points()
        separate = [_alone(p).outage_count for p in points]
        batch = []
        opened = _streams_opened(monkeypatch, lambda: batch.extend(simulate_outages(points, workers)))
        assert [r.outage_count for r in batch] == separate
        assert opened == len(GOLDEN_VARIANTS) * 3  # one draw per label and chunk

    @pytest.mark.parametrize("field", list(UNMERGED_PAIRS))
    def test_points_differing_in_stream_or_link_inputs_never_merge(self, monkeypatch, field):
        base, other = UNMERGED_PAIRS[field]
        separate = [_alone(p).outage_count for p in (base, other)]
        alone = sum(_streams_opened(monkeypatch, lambda p=p: _alone(p)) for p in (base, other))
        batch = []
        opened = _streams_opened(monkeypatch, lambda: batch.extend(simulate_outages([base, other], 2)))
        assert [r.outage_count for r in batch] == separate
        assert opened == alone

    def test_agreement_checks_draw_one_stream_per_scheme(self, monkeypatch):
        opened = _streams_opened(
            monkeypatch, lambda: verification.three_way_agreement_checks(30_000, GOLDEN_SEED, 2))
        # one chunk per scheme; a fresh codebook is drawn from the chunk's stream
        assert opened == len(verification.SCHEME_MATRIX)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_job_runs_once_and_moves_no_count(self, monkeypatch, workers):
        points = _batch_points()
        alone = simulate_outages(points, workers)
        order = []
        count_chunk = montecarlo._count_chunk
        monkeypatch.setattr(montecarlo, "_count_chunk", lambda *a: order.append("chunk") or count_chunk(*a))
        assert simulate_outages(points, workers, first=lambda: order.append("first")) == alone
        assert order.count("first") == 1
        if workers == 1:
            assert order[0] == "first"

    def test_empty_batch(self):
        assert simulate_outages([], 2) == []

    @pytest.mark.parametrize("position", [0, 5, 10])
    @pytest.mark.parametrize("bad", [
        McPoint(SchemeId.MISO_RVQ, cfg(), None, TrialPlan(trials=100, seed=1)),
        McPoint(SchemeId.MISO_PBF, cfg(nu=2), None, TrialPlan(trials=100, seed=1)),
        McPoint(SchemeId.MU_RVQ, cfg(nu=2), rvq_generate(RngStream(1, 0), 4, 3),
                TrialPlan(trials=100, seed=1)),
        McPoint(SchemeId.MISO_RVQ, cfg(), 0, TrialPlan(trials=100, seed=1)),
    ])
    def test_invalid_point_raises_before_any_chunk(self, monkeypatch, bad, position):
        calls = []
        monkeypatch.setattr(montecarlo, "_count_chunk",
                            lambda *a: calls.append(a) or [0] * len(a[4]))
        points = _batch_points()
        points.insert(position, bad)
        with pytest.raises(ValueError):
            simulate_outages(points, 2)
        assert calls == []

    @pytest.mark.parametrize("workers", [0, 1.5])
    def test_invalid_worker_count(self, workers):
        with pytest.raises(ValueError):
            simulate_outages(_batch_points(), workers)


class TestEstimatorCalibration:
    def test_coverage_of_known_bernoulli(self):
        # synthetic Bernoulli(0.1) event: the 3*std_err interval should cover
        # the truth in at least 99% of 1000 repeated runs at 1e4 trials
        p_true, runs, trials = 0.1, 1000, 10_000
        covered = 0
        for seed in range(runs):
            gen = RngStream(seed, 0).generator()
            count = int(np.count_nonzero(gen.random(trials) < p_true))
            res = McResult(outage_count=count, trials=trials)
            covered += abs(res.p_hat - p_true) <= 3 * res.std_err
        assert covered >= 0.99 * runs
