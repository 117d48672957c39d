"""Chunked, counter-seeded Monte Carlo link simulation.

Each trial draws a fresh stale estimate, runs the scheme's selection on it,
ages the winner by one feedback step, and tests the aged effective gain
against the outage threshold.  Trials are split into fixed-size chunks; chunk
j consumes the counter-based stream (seed, offset + j), so the outage count
depends only on (trials, seed, chunk) and never on how many workers execute
the chunks, nor on which other points share their batch.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytic import SchemeId, scheme_uses_codebook, validate_scheme
from .channel import PersistenceSpec, RngStream, SystemConfig, db_to_linear, derive_params
from .codebook import Codebook, rvq_generate

__all__ = ["McPoint", "McResult", "TrialPlan", "simulate_outage", "simulate_outages", "sweep"]

#: Stream-id stride between sweep axis values; chunk indices stay below it.
_SWEEP_STRIDE = 1 << 32
#: Stream of a codebook drawn for a plan's seed (by the CLI, or per size in
#: a codebook-size sweep): the last id of the first stride, above every chunk.
_CODEBOOK_STREAM = _SWEEP_STRIDE - 1

#: Sweep axis -> the config at one value of that axis.
_SWEEP_AXES = {
    "snr_db": lambda config, v: replace(config, snr_linear=db_to_linear(float(v))),
    "rho": lambda config, v: replace(config, persistence=PersistenceSpec.from_rho(float(v))),
    "users": lambda config, v: replace(config, n_u=int(v)),
    "codebook_size": lambda config, v: config,
}


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


#: Trials per block when drawing fresh codebooks and projecting onto a codebook.
_BLOCK = 2048


def _power(z: np.ndarray, keep: int) -> np.ndarray:
    """Sum of squares over every axis of z after the first `keep`."""
    flat = z.reshape(z.shape[:keep] + (-1,))
    return np.einsum("...j,...j->...", flat, flat)


def _quadrature(z: np.ndarray) -> np.ndarray:
    """(..., n, 2) (re, im) pairs to (..., 2n, 2), z and i*z flattened: for a
    flattened alike, a @ _quadrature(z) holds (Re, Im) of sum(a * conj(z))."""
    iz = np.stack([-z[..., 1], z[..., 0]], axis=-1)
    return np.stack([z, iz], axis=-1).reshape(z.shape[:-2] + (-1, 2))


def _inner_power(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|sum(a * conj(z))|^2 per row of two (n, n_t, 2) arrays."""
    re = np.einsum("ij,ij->i", a.reshape(len(a), -1), z.reshape(len(z), -1))
    im = np.einsum("ij,ij->i", a[..., 1], z[..., 0]) - np.einsum("ij,ij->i", a[..., 0], z[..., 1])
    return re * re + im * im


def _select_rvq(gen, w: np.ndarray, cb: Codebook, fixed: bool):
    """Per row of w (n, n_t, 2): the unit codebook vector v maximizing
    |<w, v>|^2, and that maximum.

    Unless fixed, every row gets a fresh codebook of cb's cardinality, drawn
    block by block in row order, so the stream matches one (n, N, n_t, 2) draw.
    """
    n, n_t, _ = w.shape
    size = cb.cardinality
    best, top = np.empty_like(w), np.empty(n)
    if fixed:
        vecs = np.stack([cb.vectors.real, cb.vectors.imag], axis=-1)
        basis = _quadrature(vecs).transpose(1, 0, 2).reshape(2 * n_t, 2 * size)
    else:
        buf = np.empty((min(n, _BLOCK), size, n_t, 2))
    for lo in range(0, n, _BLOCK):
        rows = w[lo:lo + _BLOCK]
        m = len(rows)
        if fixed:
            part = (rows.reshape(m, -1) @ basis).reshape(m, size, 2)
        else:
            vecs = gen.standard_normal(out=buf[:m])
            vecs /= np.sqrt(_power(vecs, 2))[..., None, None]
            part = vecs.reshape(m, size, -1) @ _quadrature(rows)
        proj = part[..., 0] ** 2 + part[..., 1] ** 2
        k = np.argmax(proj, axis=1)
        i = np.arange(m)
        top[lo:lo + m] = proj[i, k]
        best[lo:lo + m] = vecs[k] if fixed else vecs[i, k]
    return best, top


def _count_chunk(
    scheme: SchemeId,
    config: SystemConfig,
    n: int,
    rng: RngStream,
    gamma0: float,
    rho: float,
    cb: Codebook | None,
    fixed_codebook: bool,
) -> int:
    """Outages in n trials drawn from one stream, in the order: the stale
    channel of every trial, then every fresh codebook vector, then the
    innovation e of every trial.

    Draws stay as unscaled (re, im) normal pairs, sqrt(2) times a CN(0, 1)
    entry, so every gain is twice the physical one and meets 2 * gamma0.
    """
    gen = rng.generator()
    decay = math.sqrt(1.0 - rho * rho)
    n_t = config.n_t
    idx = np.arange(n)

    if scheme is SchemeId.MISO_PBF:
        h = gen.standard_normal((n, n_t, 2))
        aged = rho * h + decay * gen.standard_normal((n, n_t, 2))
        gain = _inner_power(aged, h) / _power(h, 1)
    elif scheme is SchemeId.MISO_RVQ:
        h = gen.standard_normal((n, n_t, 2))
        best, _ = _select_rvq(gen, h, cb, fixed_codebook)
        aged = rho * h + decay * gen.standard_normal((n, n_t, 2))
        gain = _inner_power(aged, best)
    elif scheme is SchemeId.MISO_TAS:
        h = gen.standard_normal((n, n_t, 2))
        e = gen.standard_normal((n, n_t, 2))
        sel = np.argmax(h[..., 0] ** 2 + h[..., 1] ** 2, axis=1)
        gain = _power(rho * h[idx, sel] + decay * e[idx, sel], 1)
    elif scheme is SchemeId.MU_TAS:
        h = gen.standard_normal((n, config.n_u * n_t, config.n_r, 2))  # (user, antenna) rows
        rows = h[idx, np.argmax(_power(h, 2), axis=1)]
        gain = _power(rho * rows + decay * gen.standard_normal((n, config.n_r, 2)), 1)
    elif scheme in (SchemeId.MU_PBF, SchemeId.MU_RVQ):
        h = gen.standard_normal((n, config.n_u, n_t, 2))
        win = h[idx, np.argmax(_power(h, 2), axis=1)]
        scale = rho
        if scheme is SchemeId.MU_RVQ:
            _, top = _select_rvq(gen, win, cb, fixed_codebook)
            scale = rho * np.sqrt(top / _power(win, 1))[:, None, None]
        gain = _power(scale * win + decay * gen.standard_normal((n, n_t, 2)), 1)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return int(np.count_nonzero(gain < 2.0 * gamma0))


class McPoint(NamedTuple):
    """The arguments of one simulate_outage call, as one point of a batch."""

    scheme: SchemeId
    config: SystemConfig
    codebook: Codebook | None
    plan: TrialPlan
    fixed_codebook: bool = False
    stream_offset: int = 0


def simulate_outages(points: list[McPoint], workers: int) -> list[McResult]:
    """One McResult per point, in input order, each equal to what
    simulate_outage returns for that point alone.

    Every chunk of every point runs on one pool of `workers` threads (each
    point's plan.workers is ignored), so the short last chunk of one point
    shares the workers with the chunks of the next.  Every point is validated
    before any chunk runs, and the call returns only after every chunk has
    finished.
    """
    if int(workers) != workers or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    jobs = []
    for i, (scheme, config, codebook, plan, _, _) in enumerate(points):
        size = None if codebook is None else codebook.cardinality
        if validate_scheme(scheme, config, size).uses_codebook and codebook.n_t != config.n_t:
            raise ValueError("codebook dimension does not match n_t")
        gamma0 = derive_params(config).gamma0
        jobs += [(i, j, min(plan.chunk, plan.trials - lo), gamma0)
                 for j, lo in enumerate(range(0, plan.trials, plan.chunk))]

    def job(item):
        i, j, size, gamma0 = item
        scheme, config, codebook, plan, fixed_codebook, stream_offset = points[i]
        return _count_chunk(
            scheme, config, size, RngStream(plan.seed, stream_offset + j),
            gamma0, config.rho, codebook, fixed_codebook,
        )

    if workers == 1:
        counts = [job(item) for item in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(job, jobs))
    totals = [0] * len(points)
    for (i, *_), count in zip(jobs, counts):
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
    point = McPoint(scheme, config, codebook, plan, fixed_codebook, stream_offset)
    return simulate_outages([point], plan.workers)[0]


def sweep(
    scheme: SchemeId,
    config_template: SystemConfig,
    axis: str,
    values,
    plan: TrialPlan,
    codebook: Codebook | None = None,
    fixed_codebook: bool = False,
) -> list[tuple[float, McResult]]:
    """One batch of simulate_outages over the axis values, with
    stream-separated randomness.

    The first value reuses the unshifted streams, so a single-value sweep
    reproduces a direct simulate_outage call with the same plan.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    values = list(values)
    points = []
    for i, value in enumerate(values):
        cfg = _SWEEP_AXES[axis](config_template, value)
        cb = codebook
        if axis == "codebook_size" and scheme_uses_codebook(scheme):
            # only the cardinality matters unless the codebook is held fixed
            cb = rvq_generate(RngStream(plan.seed, _CODEBOOK_STREAM), int(value), cfg.n_t)
        points.append(McPoint(scheme, cfg, cb, plan, fixed_codebook, i * _SWEEP_STRIDE))
    return list(zip(values, simulate_outages(points, plan.workers)))
