"""Beamforming codebooks, selection rules, and the quantization-factor density.

Three codebook schemes share one selection interface:

* RVQ: N independent isotropic unit vectors; the receiver feeds back the index
  with the largest projected power.
* TAS: the n_t standard basis vectors, i.e. activate the single best antenna.
* PBF: a virtual codebook holding the matched filter h/||h||, the limit of
  RVQ as N grows without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import RngStream, _complex_normal

__all__ = [
    "Codebook",
    "SelectionOutcome",
    "load_codebook",
    "nu_cdf",
    "nu_pdf",
    "pbf_codebook",
    "rvq_generate",
    "save_codebook",
    "select_beamformer",
    "select_user_antenna",
    "select_user_maxnorm",
    "tas_codebook",
]

_NORM_TOL = 1e-12
_SCHEMES = ("RVQ", "TAS", "PBF")


@dataclass(frozen=True)
class Codebook:
    scheme: str
    n_t: int
    vectors: np.ndarray | None  # (N, n_t) unit-norm rows; None for virtual PBF

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if self.scheme == "PBF":
            if self.vectors is not None:
                raise ValueError("PBF is a virtual codebook and carries no vectors")
            return
        if self.vectors is None:
            raise ValueError(f"{self.scheme} codebook needs vectors")
        vecs = np.asarray(self.vectors)
        if vecs.ndim != 2 or vecs.shape[1] != self.n_t or vecs.shape[0] < 1:
            raise ValueError(f"vectors must have shape (N, {self.n_t}) with N >= 1")
        norms = np.sum(np.abs(vecs) ** 2, axis=1)
        if np.max(np.abs(norms - 1.0)) > _NORM_TOL:
            raise ValueError("codebook vectors must have unit squared norm within 1e-12")

    @property
    def cardinality(self) -> int:
        return 0 if self.vectors is None else int(self.vectors.shape[0])


@dataclass(frozen=True)
class SelectionOutcome:
    beam_index: int
    gain: float
    user_index: int = 0
    tradeoff: float | None = None  # fraction of ||h||^2 captured; always <= 1


def rvq_generate(rng: RngStream, n: int, n_t: int) -> Codebook:
    """N isotropic unit vectors, obtained by normalizing i.i.d. CN(0,1) draws."""
    if n < 1:
        raise ValueError("codebook cardinality must be >= 1")
    raw = _complex_normal(rng.generator(), (int(n), int(n_t)))
    vecs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return Codebook(scheme="RVQ", n_t=int(n_t), vectors=vecs)


def tas_codebook(n_t: int) -> Codebook:
    return Codebook(scheme="TAS", n_t=int(n_t), vectors=np.eye(int(n_t), dtype=complex))


def pbf_codebook(n_t: int) -> Codebook:
    return Codebook(scheme="PBF", n_t=int(n_t), vectors=None)


def select_beamformer(h: np.ndarray, cb: Codebook) -> SelectionOutcome:
    """Pick the codebook vector maximizing |<h, p>|^2; ties go to the lowest index.

    For the virtual PBF codebook the matched filter h/||h|| is 'selected',
    giving gain ||h||^2.  The tradeoff field reports gain / ||h||^2.
    """
    h = np.asarray(h).reshape(-1)
    if h.shape[0] != cb.n_t:
        raise ValueError(f"channel has {h.shape[0]} entries but codebook expects {cb.n_t}")
    total = float(np.sum(np.abs(h) ** 2))
    if cb.scheme == "PBF":
        return SelectionOutcome(beam_index=0, gain=total, tradeoff=1.0)
    gains = np.abs(cb.vectors @ h.conj()) ** 2
    idx = int(np.argmax(gains))
    gain = float(gains[idx])
    tradeoff = gain / total if total > 0 else None
    return SelectionOutcome(beam_index=idx, gain=gain, tradeoff=tradeoff)


def select_user_antenna(channels: np.ndarray) -> SelectionOutcome:
    """Max per-antenna row norm over all (user, antenna) pairs.

    channels has shape (n_u, n_t, n_r); ties resolve to the lowest
    (user, antenna) pair in lexicographic order.
    """
    ch = np.asarray(channels)
    if ch.ndim != 3 or ch.shape[0] < 1:
        raise ValueError("channels must be a nonempty (n_u, n_t, n_r) stack")
    norms = np.sum(np.abs(ch) ** 2, axis=2)  # (n_u, n_t)
    flat = int(np.argmax(norms))  # first occurrence = lowest (user, antenna)
    user, antenna = divmod(flat, ch.shape[1])
    return SelectionOutcome(beam_index=antenna, user_index=user, gain=float(norms[user, antenna]))


def select_user_maxnorm(channels: np.ndarray) -> SelectionOutcome:
    """Max vector norm over users; channels has shape (n_u, n_t)."""
    ch = np.asarray(channels)
    if ch.ndim != 2 or ch.shape[0] < 1:
        raise ValueError("channels must be a nonempty (n_u, n_t) stack")
    norms = np.sum(np.abs(ch) ** 2, axis=1)
    user = int(np.argmax(norms))
    return SelectionOutcome(beam_index=0, user_index=user, gain=float(norms[user]))


def nu_pdf(nu, n: int, n_t: int):
    """Density of the captured-power fraction for an RVQ codebook of size n.

    f(nu) = n (n_t - 1) (1 - (1-nu)^(n_t-1))^(n-1) (1-nu)^(n_t-2) on [0, 1].
    Requires n_t >= 2; for n_t = 1 the fraction is identically 1.
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
    return val if isinstance(nu, np.ndarray) else float(val)


def nu_cdf(nu, n: int, n_t: int):
    """CDF matching nu_pdf: (1 - (1-nu)^(n_t-1))^n."""
    if n < 1:
        raise ValueError("codebook cardinality must be >= 1")
    if n_t < 2:
        raise ValueError("nu_cdf needs n_t >= 2")
    nu_arr = np.asarray(nu, dtype=float)
    if np.any((nu_arr < 0) | (nu_arr > 1)):
        raise ValueError("nu must lie in [0, 1]")
    val = (1.0 - (1.0 - nu_arr) ** (n_t - 1)) ** n
    return val if isinstance(nu, np.ndarray) else float(val)


def save_codebook(cb: Codebook, path) -> None:
    """Write a codebook as text: header "SCHEME n_t N", then one vector per
    line with entries as "re,im" pairs separated by spaces."""
    if cb.scheme == "PBF":
        raise ValueError("the virtual PBF codebook has no vectors to save")
    lines = [f"{cb.scheme} {cb.n_t} {cb.cardinality}"]
    for row in cb.vectors:
        lines.append(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty codebook file")
    header = text[0].split()
    if len(header) != 3 or header[0] not in ("RVQ", "TAS"):
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
