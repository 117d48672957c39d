"""Chunked, counter-seeded Monte Carlo link simulation.

Each trial draws a fresh stale estimate, runs the scheme's selection on it,
ages the winner by one feedback step, and tests the aged effective gain
against the outage threshold.  The scheme's link model (its record's `link`,
defined in the channel module) makes the draws and the selection and returns
the finished stale part S with its gain; this module ages S as
rho * S + sqrt(1 - rho^2) * e and counts outages, the same way for every
scheme.

Trials are split into fixed-size chunks; chunk j consumes the counter-based
stream (seed, offset + j), so the outage count depends only on (trials, seed,
chunk) and never on how many workers execute the chunks, nor on which other
points share their batch.  A sweep is one batch, one point per axis value on
its own streams; the CLI builds it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import channel
from .analytic import SCHEMES, SchemeId, validate_scheme
from .channel import RngStream, SystemConfig, derive_params
from .codebook import Codebook

__all__ = ["McPoint", "McResult", "TrialPlan", "simulate_outage", "simulate_outages"]


@dataclass(frozen=True)
class TrialPlan:
    trials: int
    seed: int
    workers: int = 1
    chunk: int = 1 << 16

    def __post_init__(self) -> None:
        for name, val in (("trials", self.trials), ("workers", self.workers), ("chunk", self.chunk)):
            if int(val) != val or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")


@dataclass(frozen=True)
class McResult:
    outage_count: int
    trials: int

    def __post_init__(self) -> None:
        if not 0 <= self.outage_count <= self.trials:
            raise ValueError("outage_count must lie in [0, trials]")

    @property
    def p_hat(self) -> float:
        return self.outage_count / self.trials

    @property
    def std_err(self) -> float:
        # Degenerate counts get 1/trials so the +-3 std_err interval matches
        # the rule-of-three bound 3/trials.
        if self.outage_count in (0, self.trials):
            return 1.0 / self.trials
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.trials)


def _count_chunk(
    scheme: SchemeId,
    config: SystemConfig,
    n: int,
    rng: RngStream,
    targets: list[tuple[float, float]],
    codebook: Codebook | int | None,
) -> list[int]:
    """Outages in n trials drawn from one stream, one count per (rho, gamma0)
    target, in the order: the stale channel of every trial, then every fresh
    codebook vector, then the innovation e of every trial.  When all targets
    have rho = 1, e is not drawn: its weight sqrt(1 - rho^2) is 0.

    The link's stale part S is held for the whole chunk, finished by the
    selection, and aged as rho * S + sqrt(1 - rho^2) * e; e, the aged channel
    and the gains are formed one block of channel._BLOCK trials at a time, so
    a chunk holds S plus one block whatever the number of targets.  Block
    draws of e continue each other, as one draw of every trial's e would.

    Draws stay as unscaled (re, im) normal pairs, sqrt(2) times a CN(0, 1)
    entry, so every gain is twice the physical one and meets 2 * gamma0.
    """
    gen = rng.generator()
    stale, gain = SCHEMES[scheme].link(gen, config, n, codebook)
    levels: dict[float, list[tuple[int, float]]] = {}
    for i, (rho, gamma0) in enumerate(targets):
        levels.setdefault(rho, []).append((i, 2.0 * gamma0))
    block = channel._BLOCK
    buf = np.empty((min(n, block),) + stale.shape[1:]) if min(levels) < 1.0 else None
    counts = [0] * len(targets)
    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        part = stale[rows]
        e = None if buf is None else gen.standard_normal(out=buf[:len(part)])
        for rho, rho_levels in levels.items():
            aged, decay = rho * part, math.sqrt(1.0 - rho * rho)
            if decay:
                aged += decay * e
            gains = gain(aged, rows)
            for i, level in rho_levels:
                counts[i] += int(np.count_nonzero(gains < level))
    return counts


class McPoint(NamedTuple):
    """One point of a simulate_outages batch.  codebook is a Codebook held
    fixed in every trial, the int cardinality of a fresh codebook per trial,
    or None; a scheme without a codebook ignores it."""

    scheme: SchemeId
    config: SystemConfig
    codebook: Codebook | int | None
    plan: TrialPlan
    stream_offset: int = 0


def simulate_outages(
    points: list[McPoint], workers: int, first: Callable[[], object] | None = None
) -> list[McResult]:
    """One McResult per point, in input order, each equal to what
    simulate_outage returns for that point alone.

    Every chunk of every point runs on one pool of `workers` threads (each
    point's plan.workers is ignored), so the short last chunk of one point
    shares the workers with the chunks of the next.  `first`, if given, is
    one more job for the same pool, run once and submitted before every
    chunk (a long job started first leaves no worker idle at the end); its
    return value is discarded.  With one worker every job runs on the
    calling thread, in that order.  Every point is validated before any job
    runs, and the call returns only after every job has finished.
    """
    if int(workers) != workers or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    # points with the same streams and link inputs share one draw per chunk
    groups: dict[tuple, list[int]] = {}
    for i, (scheme, config, codebook, plan, stream_offset) in enumerate(points):
        fixed = isinstance(codebook, Codebook)
        size = codebook.cardinality if fixed else codebook
        record = validate_scheme(scheme, config, size)
        if record.uses_codebook and fixed and codebook.n_t != config.n_t:
            raise ValueError("codebook dimension does not match n_t")
        key = (plan.trials, plan.chunk, plan.seed, stream_offset, scheme, config.n_t, config.n_r,
               config.n_u, fixed, id(codebook) if fixed else size)
        groups.setdefault(key, []).append(i)
    targets = [(p.config.rho, derive_params(p.config).gamma0) for p in points]
    jobs = [(members, j, min(chunk, trials - lo)) for (trials, chunk, *_), members in groups.items()
            for j, lo in enumerate(range(0, trials, chunk))]

    def job(item):
        members, j, size = item
        scheme, config, codebook, plan, stream_offset = points[members[0]]
        return _count_chunk(
            scheme, config, size, RngStream(plan.seed, stream_offset + j),
            [targets[i] for i in members], codebook,
        )

    tasks = [first] if first is not None else []
    tasks += [partial(job, item) for item in jobs]
    if workers == 1:
        done = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(lambda task: task(), tasks))
    counts = done[len(tasks) - len(jobs):]
    totals = [0] * len(points)
    for (members, *_), chunk_counts in zip(jobs, counts):
        for i, count in zip(members, chunk_counts):
            totals[i] += count
    return [McResult(outage_count=total, trials=p.plan.trials) for total, p in zip(totals, points)]


def simulate_outage(
    scheme: SchemeId,
    config: SystemConfig,
    codebook: Codebook | None,
    plan: TrialPlan,
    fixed_codebook: bool = False,
    stream_offset: int = 0,
) -> McResult:
    """Empirical outage probability over plan.trials link realizations, on
    plan.workers threads: the one-point case of simulate_outages.

    RVQ schemes need a codebook argument; by default only its cardinality is
    used and a fresh codebook is drawn every trial, so the estimate averages
    over codebook realizations.  Pass fixed_codebook=True to reuse the given
    vectors in every trial.  The other schemes ignore the codebook.
    """
    if isinstance(codebook, Codebook) and not fixed_codebook:
        codebook = codebook.cardinality
    point = McPoint(scheme, config, codebook, plan, stream_offset)
    return simulate_outages([point], plan.workers)[0]
