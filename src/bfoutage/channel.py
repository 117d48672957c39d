"""The channel model's parameters: persistence (direct or Jakes), the system
configuration, the thresholds derived from it, and counter-based random
streams.

The channel model: every entry of the estimated channel h and of the
innovation e is i.i.d. standard complex Gaussian CN(0,1), and the channel in
use at transmission time is

    h_aged = rho * h + sqrt(1 - rho^2) * e,

where rho in [0, 1] measures how well the fed-back estimate has persisted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j0

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
    rho = config.rho
    gamma0 = (2.0 ** config.rate_bits - 1.0) / (config.snr_linear / config.n_t)
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
    """A (seed, stream_id) pair naming one counter-based random stream.

    The pair fully determines the stream: every call to generator() returns a
    fresh generator positioned at the start, so repeated draws from the same
    RngStream reproduce each other.  Distinct stream_ids give statistically
    independent streams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed % _U64) | ((self.stream_id % _U64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = gen.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
