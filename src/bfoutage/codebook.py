"""Beamforming codebooks and the quantization-factor density.

A codebook is a stack of unit vectors: an RVQ codebook holds N independent
isotropic unit vectors, and the receiver feeds back the index with the
largest projected power.  Files may also hold TAS codebooks, the n_t
standard basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import RngStream, _complex_normal

__all__ = [
    "Codebook",
    "load_codebook",
    "nu_pdf",
    "rvq_generate",
    "save_codebook",
]

_NORM_TOL = 1e-12
_SCHEMES = ("RVQ", "TAS")


@dataclass(frozen=True)
class Codebook:
    scheme: str
    n_t: int
    vectors: np.ndarray  # (N, n_t) unit-norm rows

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        vecs = np.asarray(self.vectors)
        if vecs.ndim != 2 or vecs.shape[1] != self.n_t or vecs.shape[0] < 1:
            raise ValueError(f"vectors must have shape (N, {self.n_t}) with N >= 1")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("codebook vectors must have finite entries")
        norms = np.sum(np.abs(vecs) ** 2, axis=1)
        if np.max(np.abs(norms - 1.0)) > _NORM_TOL:
            raise ValueError("codebook vectors must have unit squared norm within 1e-12")

    @property
    def cardinality(self) -> int:
        return int(self.vectors.shape[0])


def rvq_generate(rng: RngStream, n: int, n_t: int) -> Codebook:
    """N isotropic unit vectors, obtained by normalizing i.i.d. CN(0,1) draws."""
    if n < 1:
        raise ValueError("codebook cardinality must be >= 1")
    raw = _complex_normal(rng.generator(), (int(n), int(n_t)))
    vecs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return Codebook(scheme="RVQ", n_t=int(n_t), vectors=vecs)


def nu_pdf(nu, n: int, n_t: int):
    """Density of the captured-power fraction for an RVQ codebook of size n.

    f(nu) = n (n_t - 1) (1 - (1-nu)^(n_t-1))^(n-1) (1-nu)^(n_t-2) on [0, 1].
    Requires n_t >= 2; for n_t = 1 the fraction is identically 1.  A scalar
    nu gives a float, and an array or list of them an array.
    """
    if n < 1:
        raise ValueError("codebook cardinality must be >= 1")
    if n_t < 2:
        raise ValueError("nu_pdf needs n_t >= 2; n_t = 1 is a point mass at 1")
    nu_arr = np.asarray(nu, dtype=float)
    if np.any((nu_arr < 0) | (nu_arr > 1)):
        raise ValueError("nu must lie in [0, 1]")
    one_m = 1.0 - nu_arr
    val = n * (n_t - 1) * (1.0 - one_m ** (n_t - 1)) ** (n - 1) * one_m ** (n_t - 2)
    return float(val) if val.ndim == 0 else val


def save_codebook(cb: Codebook, path) -> None:
    """Write a codebook as text: header "SCHEME n_t N", then one vector per
    line with entries as "re,im" pairs separated by spaces."""
    lines = [f"{cb.scheme} {cb.n_t} {cb.cardinality}"]
    for row in cb.vectors:
        lines.append(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty codebook file")
    header = text[0].split()
    if len(header) != 3 or header[0] not in _SCHEMES:
        raise ValueError(f"{path}: header must be 'RVQ|TAS n_t N', got {text[0]!r}")
    scheme, n_t, n = header[0], int(header[1]), int(header[2])
    if len(text) - 1 != n:
        raise ValueError(f"{path}: header promises {n} vectors, found {len(text) - 1}")
    rows = []
    for line in text[1:]:
        entries = line.split()
        if len(entries) != n_t:
            raise ValueError(f"{path}: expected {n_t} entries per vector, got {len(entries)}")
        rows.append([complex(float(re), float(im)) for re, im in (e.split(",") for e in entries)])
    return Codebook(scheme=scheme, n_t=n_t, vectors=np.array(rows))
