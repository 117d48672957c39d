"""The channel model's parameters: persistence (direct or Jakes), the system
configuration, the thresholds derived from it, seeded random streams, and
the link model of every scheme.

The channel model: every entry of the estimated channel h and of the
innovation e is i.i.d. standard complex Gaussian CN(0,1), and the channel in
use at transmission time is

    h_aged = rho * h + sqrt(1 - rho^2) * e,

where rho in [0, 1] measures how well the fed-back estimate has persisted.

A scheme's link model, link(gen, config, n, codebook) -> (S, gain), draws
n trials' stale channels, and any fresh codebooks, from gen and runs the
scheme's selection on them.  An RVQ link searches a fixed Codebook in every
trial, or draws each trial a fresh one of int cardinality N.  S is the
selected stale part as unscaled (re, im) normal pairs, sqrt(2) times a
CN(0, 1) entry, and gain(aged, rows) is the effective gain of the trials at
the slice rows, where aged = rho * S[rows] + sqrt(1 - rho^2) * e holds just
those trials, with e drawn like S.  The simulator calls gain one block of
_BLOCK trials at a time, so a chunk holds S plus one block.  S is a link's
one chunk-sized array of channels (beside at most a number per trial),
finished by the selection: the matched-gain links (miso-pbf and miso-rvq)
beamform along S itself, and for miso-rvq S is the projection <h, p> p of
the stale channel onto the selected beam p, since the aged gain
|<rho h + sqrt(1 - rho^2) e, p>|^2 reads no other part of h; for mu-rvq S
is the selected user's channel scaled by the square root of the fraction of
its power on the beam.  The links read no gain law: the Monte Carlo arbiter
simulates, it never evaluates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .specfun import CapabilityError, bessel_j0

if TYPE_CHECKING:
    from .codebook import Codebook

__all__ = [
    "BeyondFirstZeroError",
    "DerivedParams",
    "PersistenceSpec",
    "RngStream",
    "SystemConfig",
    "db_to_linear",
    "derive_params",
    "jakes_persistence",
]

_U64 = 1 << 64


class BeyondFirstZeroError(ValueError):
    """The Doppler-delay product puts the autocorrelation past its first null.

    Negative correlation is not a meaningful persistence value, so it is
    rejected instead of clamped.
    """


def db_to_linear(db: float) -> float:
    """Linear power ratio of a level in dB."""
    return 10.0 ** (db / 10.0)


def jakes_persistence(doppler_hz: float, delay_s: float) -> float:
    """Channel persistence J0(2 pi f_d dt) for maximum Doppler f_d and delay dt."""
    if not (doppler_hz >= 0 and delay_s >= 0):
        raise ValueError("doppler_hz and delay_s must both be >= 0")
    rho = bessel_j0(2.0 * math.pi * doppler_hz * delay_s)
    if rho < 0:
        raise BeyondFirstZeroError(
            f"autocorrelation {rho:.4f} at f_d*dt={doppler_hz * delay_s:g} is negative; "
            "the delay exceeds the first zero of the Bessel autocorrelation"
        )
    return rho


@dataclass(frozen=True)
class PersistenceSpec:
    """Persistence given either directly as rho or as a Doppler/delay pair."""

    rho: float | None = None
    doppler_hz: float | None = None
    delay_s: float | None = None

    def __post_init__(self) -> None:
        direct = self.rho is not None
        jakes = self.doppler_hz is not None or self.delay_s is not None
        if direct == jakes:
            raise ValueError("give either rho or (doppler_hz, delay_s), not both")
        if jakes and (self.doppler_hz is None or self.delay_s is None):
            raise ValueError("doppler_hz and delay_s must be given together")
        if direct and not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")

    @classmethod
    def from_rho(cls, rho: float) -> "PersistenceSpec":
        return cls(rho=float(rho))

    @classmethod
    def from_jakes(cls, doppler_hz: float, delay_s: float) -> "PersistenceSpec":
        return cls(doppler_hz=float(doppler_hz), delay_s=float(delay_s))

    def resolve(self) -> float:
        if self.rho is not None:
            return self.rho
        return jakes_persistence(self.doppler_hz, self.delay_s)


@dataclass(frozen=True)
class SystemConfig:
    """Parameter record shared by every evaluator.

    snr_linear is the linear-scale SNR epsilon; the CLI converts from dB.
    """

    n_t: int
    rate_bits: float
    snr_linear: float
    persistence: PersistenceSpec
    n_r: int = 1
    n_u: int = 1

    def __post_init__(self) -> None:
        for name, val in (("n_t", self.n_t), ("n_r", self.n_r), ("n_u", self.n_u)):
            if int(val) != val or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if not (self.rate_bits > 0 and math.isfinite(self.rate_bits)):
            raise ValueError(f"rate_bits must be positive, got {self.rate_bits!r}")
        if not (self.snr_linear > 0 and math.isfinite(self.snr_linear)):
            raise ValueError(f"snr_linear must be positive and finite, got {self.snr_linear!r}")

    @property
    def rho(self) -> float:
        return self.persistence.resolve()


@dataclass(frozen=True)
class DerivedParams:
    """Scalars derived from a config.

    gamma0 is the outage threshold on the effective gain; mu and beta are the
    aging ratio and scaled threshold of the delayed model.  When rho = 1 they
    diverge, so that case is carried as the no_delay flag with mu = beta =
    None rather than as floating infinities.
    """

    gamma0: float
    mu: float | None
    beta: float | None
    no_delay: bool


def derive_params(config: SystemConfig) -> DerivedParams:
    """The config's thresholds; a gamma0 past the float range, which every
    evaluator needs, raises CapabilityError.  beta may still be infinite."""
    rho = config.rho
    try:
        gamma0 = (2.0 ** config.rate_bits - 1.0) / (config.snr_linear / config.n_t)
    except (OverflowError, ZeroDivisionError):
        gamma0 = math.inf
    if not math.isfinite(gamma0):
        raise CapabilityError(
            f"outage threshold gamma0 is past the float range at rate {config.rate_bits!r} "
            f"bits/s/Hz and linear SNR {config.snr_linear!r}")
    if rho == 1.0:
        return DerivedParams(gamma0=gamma0, mu=None, beta=None, no_delay=True)
    one_minus = 1.0 - rho * rho
    return DerivedParams(
        gamma0=gamma0,
        mu=rho * rho / one_minus,
        beta=gamma0 / one_minus,
        no_delay=False,
    )


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one random stream.

    The pair fully determines the stream: every call to generator() returns a
    fresh generator positioned at the start, so repeated draws from the same
    RngStream reproduce each other.  Seed and stream_id are each taken mod
    2^64 and packed into one 128-bit key, which a SeedSequence hashes into
    the state of an SFC64 generator, so distinct pairs give statistically
    independent streams.  The key is one integer rather than a (seed,
    stream_id) tuple because SeedSequence joins a tuple's entries as 32-bit
    words with no length prefix, which would give (7 + 2^32, 5) and
    (7, 1 + 5 * 2^32) one state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed % _U64) | ((self.stream_id % _U64) << 64)
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


# ---------------------------------------------------------------------------
# link models, one per scheme (see the module docstring)
# ---------------------------------------------------------------------------

#: Trials per block when drawing candidates and fresh codebooks and projecting.
_BLOCK = 2048
#: Rows per block of a fixed-codebook search, so that a block's Re and Im
#: projections (1 MB at 64 vectors) stay in L2.  At 64 vectors and n_t = 4,
#: 512, 1024 and 2048 rows ran alike on one worker; on two, 512 rows took
#: about a fifth longer, since each block's Python steps hold the interpreter
#: lock.
_SEARCH_ROWS = 1024


def _power(z: np.ndarray, keep: int = 1) -> np.ndarray:
    """Sum of squares over every axis of z after the first `keep`; with
    keep = 1, the total power of each trial."""
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


def _select_rvq(gen, w: np.ndarray, codebook: Codebook | int, project: bool = False) -> None:
    """Writes into each row h of w (n, n_t, 2) its selected stale part.  The
    selection takes the maximum over codebook vectors v of |<h, v>|^2 / |v|^2,
    the power h puts on the unit beam p = v / |v|; if project, h becomes
    <h, p> p for the winning p, and otherwise h scaled by the square root of
    that power over |h|^2.

    An int codebook N gives every row a fresh codebook of N vectors, drawn
    block by block in row order, so the stream matches one (n, N, n_t, 2)
    draw; the raw draws are ranked and only the winner is scaled.  A fixed
    Codebook's vectors are unit already; its search runs _SEARCH_ROWS rows
    at a time against contiguous Re and Im bases and squares in place.
    """
    n, n_t, _ = w.shape
    fixed = not isinstance(codebook, numbers.Integral)
    size = codebook.cardinality if fixed else codebook
    if fixed:
        vecs = np.stack([codebook.vectors.real, codebook.vectors.imag], axis=-1)
        quad = _quadrature(vecs)
        bases = [np.ascontiguousarray(quad[..., c].T) for c in (0, 1)]
        step = _SEARCH_ROWS
        parts = np.empty((2, min(n, step), size))
    else:
        step = _BLOCK
        buf = np.empty((min(n, step), size, n_t, 2))
    for lo in range(0, n, step):
        rows = w[lo:lo + step]
        m = len(rows)
        i = np.arange(m)
        if fixed:
            proj, im = parts[:, :m]
            flat = rows.reshape(m, -1)
            np.square(np.matmul(flat, bases[0], out=proj), out=proj)
            proj += np.square(np.matmul(flat, bases[1], out=im), out=im)
        else:
            v = gen.standard_normal(out=buf[:m])
            part = v.reshape(m, size, -1) @ _quadrature(rows)
            np.square(part, out=part)
            proj = np.add(part[..., 0], part[..., 1], out=part[..., 0])
            proj /= _power(v, 2)
        k = np.argmax(proj, axis=1)
        if not project:
            rows *= np.sqrt(proj[i, k] / _power(rows))[:, None, None]
            continue
        p = vecs[k] if fixed else v[i, k]
        norm = 1.0 if fixed else _power(p)
        # <h, p> p / |p|^2 into each row h, on complex views of the pairs
        h, u = rows.view(complex)[..., 0], p.view(complex)[..., 0]
        np.multiply((np.einsum("ij,ij->i", h, u.conj()) / norm)[:, None], u, out=h)


def _strongest(gen, n: int, rows: int, width: int) -> np.ndarray:
    """Per trial, the most powerful of `rows` drawn rows of `width` entries,
    drawn block by block so the stream matches one (n, rows, width, 2) draw."""
    best, buf = np.empty((n, width, 2)), np.empty((min(n, _BLOCK), rows, width, 2))
    for lo in range(0, n, _BLOCK):
        h = gen.standard_normal(out=buf[:n - lo])
        best[lo:lo + len(h)] = h[np.arange(len(h)), np.argmax(_power(h, 2), axis=1)]
    return best


def _aged_power(aged: np.ndarray, rows: slice) -> np.ndarray:
    """The gain of a link whose stale part is its effective channel."""
    return _power(aged)


def _matched(stale: np.ndarray):
    """A link that beamforms along its stale part S: the gain of each trial
    is |<aged, S>|^2 / |S|^2, the power of aged on the unit vector S / |S|."""
    return stale, lambda aged, rows: _inner_power(aged, stale[rows]) / _power(stale[rows])


def link_miso_pbf(gen, config: SystemConfig, n: int, codebook: Codebook | int | None):
    # the beam is the stale channel itself
    return _matched(gen.standard_normal((n, config.n_t, 2)))


def link_miso_rvq(gen, config: SystemConfig, n: int, codebook: Codebook | int | None):
    # The stale part is h's projection <h, p> p onto the selected beam p:
    # aged on p is then rho <h, p> + sqrt(1 - rho^2) <e, p>, as for aged h.
    h = gen.standard_normal((n, config.n_t, 2))
    _select_rvq(gen, h, codebook, project=True)
    return _matched(h)


def link_miso_tas(gen, config: SystemConfig, n: int, codebook: Codebook | int | None):
    # Every antenna ages and the gain reads the selected one: elementwise the
    # same as aging the selection, and e is drawn for all n_t antennas.
    h = gen.standard_normal((n, config.n_t, 2))
    sel = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _BLOCK):
        rows = h[lo:lo + _BLOCK]
        sel[lo:lo + len(rows)] = np.argmax(rows[..., 0] ** 2 + rows[..., 1] ** 2, axis=1)
    return h, lambda aged, rows: _power(aged[np.arange(len(aged)), sel[rows]])


def link_mu_tas(gen, config: SystemConfig, n: int, codebook: Codebook | int | None):
    # one row of n_r receive entries per (user, antenna) pair
    return _strongest(gen, n, config.n_u * config.n_t, config.n_r), _aged_power


def link_mu_pbf(gen, config: SystemConfig, n: int, codebook: Codebook | int | None):
    return _strongest(gen, n, config.n_u, config.n_t), _aged_power


def link_mu_rvq(gen, config: SystemConfig, n: int, codebook: Codebook | int | None):
    # the stale part is the winner scaled by sqrt(nu), nu its captured fraction
    win = _strongest(gen, n, config.n_u, config.n_t)
    _select_rvq(gen, win, codebook)
    return win, _aged_power
