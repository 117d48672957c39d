"""verification.run_all in phases: the closed forms and quadratures of
criteria 1 and 2, one Monte Carlo batch that also runs criterion 6's
chi-square draws, then the judging.  The phases must not change a line, and
the batch must keep to its worker bound."""

import threading
import time

import pytest

from bfoutage import analytic, montecarlo, verification
from bfoutage.channel import RngStream

SEED = 20260810
TRIALS = 30_000


@pytest.fixture(scope="module")
def family_lines():
    """The seven families' lines, each family run on its own, at one worker."""
    checks = verification.three_way_agreement_checks(TRIALS, SEED, 1)
    checks += verification.arbitration_checks(TRIALS, SEED, 1)
    checks += verification.diversity_checks()
    checks += verification.reduction_identity_checks()
    checks += verification.figure_shape_checks()
    checks += verification.combinatorial_checks(seed=SEED)
    checks += verification.determinism_checks(seed=SEED)
    return [c.line() for c in checks]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_all_equals_the_families_run_alone(family_lines, workers):
    assert [c.line() for c in verification.run_all(TRIALS, SEED, workers)] == family_lines


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulation_phase_keeps_to_its_workers(monkeypatch, workers):
    """While the batch runs, at most `workers` jobs run at once, the chi-square
    draws run once, and no quadrature or simulate_outage call starts; with one
    worker every job runs on the calling thread, the chi-square draws first."""
    lock = threading.Lock()
    state = {"batch": False, "active": 0, "peak": 0}
    jobs, threads, overlaps = [], set(), []

    def job(name, fn):
        def run(*args, **kwargs):
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
                jobs.append(name)
                threads.add(threading.get_ident())
            try:
                time.sleep(0.005)  # long enough for jobs to overlap if they can
                return fn(*args, **kwargs)
            finally:
                with lock:
                    state["active"] -= 1
        return run

    def outside_batch(name, fn):
        def run(*args, **kwargs):
            if state["batch"] or state["active"]:
                overlaps.append(name)
            return fn(*args, **kwargs)
        return run

    simulate_outages = montecarlo.simulate_outages

    def batch(points, workers, first=None):
        if first is None:  # determinism_checks' own simulations
            return simulate_outages(points, workers)
        state["batch"] = True
        try:
            return simulate_outages(points, workers, first)
        finally:
            state["batch"] = False

    count_chunk = montecarlo._count_chunk
    monkeypatch.setattr(montecarlo, "simulate_outages", batch)
    monkeypatch.setattr(montecarlo, "_count_chunk",
                        lambda *a: (job("chunk", count_chunk) if state["batch"] else count_chunk)(*a))
    monkeypatch.setattr(verification, "_chi2_hits", job("chi2", verification._chi2_hits))
    for module, name in ((analytic, "outage_semianalytic"), (montecarlo, "simulate_outage")):
        monkeypatch.setattr(module, name, outside_batch(name, getattr(module, name)))

    verification.run_all(3000, SEED, workers)
    assert 1 <= state["peak"] <= workers
    assert jobs.count("chi2") == 1
    # one chunk per stream block: six agreement schemes and two arbitration families
    assert jobs.count("chunk") == len(verification.SCHEME_MATRIX) + 2
    assert len(threads) <= workers
    if workers == 1:
        assert jobs[0] == "chi2"
        assert threads == {threading.get_ident()}
    else:
        assert threading.get_ident() not in threads
    assert overlaps == []


def test_chi_square_draws_have_a_stream_of_their_own(monkeypatch):
    """The chi-square stream is opened once in all of run_all's Monte Carlo:
    no point of any family reads its draws."""
    opened = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: opened.append(self) or generator(self))
    monkeypatch.setattr(verification, "determinism_checks", lambda seed: [])
    verification.run_all(3000, SEED, 2)
    chi2 = RngStream(SEED, verification._CHI2_STREAM)
    assert opened.count(chi2) == 1
    assert RngStream(SEED, 0) in opened  # miso-pbf's first chunk, which it used to share


def test_negative_seed_folds_like_every_other_stream():
    """A negative seed names stream (seed mod 2**64, ...), as it does for the
    Monte Carlo points."""
    hits = verification._chi2_hits(50_000, -3)
    assert list(hits) == list(verification._chi2_hits(50_000, (1 << 64) - 3))
