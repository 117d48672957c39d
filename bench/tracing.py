"""In-memory span tracer for the traced benchmark run.

The tracer observes the seven bfoutage layer modules from outside: it replaces
module attributes with wrappers, so no source file of the package changes.
Every wrapped call records a span (name, start, end, parent span, attributes)
and a call count; spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

#: Verification family -> the function that runs it.
VERIFY_FAMILIES = {
    "three_way": "three_way_agreement_checks",
    "arbitration": "arbitration_checks",
    "diversity": "diversity_checks",
    "reduction": "reduction_identity_checks",
    "figure_shape": "figure_shape_checks",
    "combinatorial": "combinatorial_checks",
    "determinism": "determinism_checks",
}

#: Per-scheme closed-form evaluator -> scheme it evaluates.
CLOSED_FORMS = {
    "outage_pbf_closed": "miso-pbf",
    "outage_rvq_closed": "miso-rvq",
    "outage_tas_closed": "miso-tas",
    "outage_mutas_closed": "mu-tas",
    "outage_mupbf_closed": "mu-pbf",
    "outage_murvq_closed": "mu-rvq",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def rebind(original, replacement, undo: list) -> None:
    """Replace original with replacement in every bfoutage module, and append
    (module, name, original) to undo for each name replaced.  Modules import
    functions by name (``from .specfun import ...``), so each holds its own
    reference."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "bfoutage" and not mod_name.startswith("bfoutage."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))


class NullTracer:
    """Stand-in for untraced passes: spans cost one context-manager call."""

    def span(self, name: str, **attrs):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, attrs))
                self.counts[name] += 1

    def trace(self, module, attr: str, name: str, label=None) -> None:
        """Wrap module.attr so each call records a span; label(*args,
        **kwargs) returns the span's attributes.  A missing name raises, so a
        renamed layer function cannot silently move its time elsewhere."""
        original = vars(module)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = label(*args, **kwargs) if label else {}
            with self.span(name, **attrs):
                return original(*args, **kwargs)

        rebind(original, wrapper, self._undo)

    def count_method(self, cls, attr: str, name: str) -> None:
        """Count calls of a method without a span (it runs in worker threads
        and costs microseconds)."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return original(obj, *args, **kwargs)

        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def _mc_label(scheme, config, codebook, plan, fixed_codebook=False, stream_offset=0):
    label = scheme.value
    if fixed_codebook and codebook is not None:
        label += f"-fixed{codebook.cardinality}"
    return {"label": label, "workers": plan.workers, "trials": plan.trials}


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer functions for the duration of the block."""
    from bfoutage import analytic, channel, cli, codebook, montecarlo, specfun, verification

    # The quadrature path enters the kernel through the private grid helper.
    tracer.trace(specfun, "noncentral_chi2_cdf", "specfun.ncx2")
    tracer.trace(specfun, "_noncentral_chi2_cdf_grid", "specfun.ncx2")
    tracer.trace(specfun, "expansion_coeffs", "specfun.expansion_coeffs")
    tracer.count_method(channel.RngStream, "generator", "channel.rng_streams")
    tracer.trace(codebook, "rvq_generate", "codebook.rvq_generate")
    tracer.trace(codebook, "nu_pdf", "codebook.nu_pdf")
    tracer.trace(analytic, "outage_closed", "analytic.closed",
                 label=lambda scheme, *a, **k: {"scheme": scheme.value})
    for fn, scheme in CLOSED_FORMS.items():
        tracer.trace(analytic, fn, "analytic.closed",
                     label=lambda *a, _s=scheme, **k: {"scheme": _s})
    tracer.trace(analytic, "outage_semianalytic", "analytic.outage_semianalytic")
    tracer.trace(analytic, "diversity_order", "analytic.diversity_order")
    tracer.trace(analytic, "min_codebook_size", "analytic.min_codebook_size")
    tracer.trace(montecarlo, "simulate_outage", "montecarlo.simulate_outage", label=_mc_label)
    for family, fn in VERIFY_FAMILIES.items():
        tracer.trace(verification, fn, f"verification.{family}")
    tracer.trace(cli, "main", "cli.main")
    try:
        yield tracer
    finally:
        tracer.restore()


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def mc_rates(spans: list[Span]) -> dict[tuple[str, int], float]:
    """Trials per second of simulate_outage by (label, workers)."""
    trials: dict[tuple[str, int], int] = defaultdict(int)
    secs: dict[tuple[str, int], float] = defaultdict(float)
    for s in spans:
        if s.name == "montecarlo.simulate_outage":
            key = (s.attrs["label"], s.attrs["workers"])
            trials[key] += s.attrs["trials"]
            secs[key] += s.duration
    return {key: trials[key] / secs[key] for key in trials}


def layer_metrics(tracer: Tracer, mc_spans: list[Span], mc_labels, grid_labels) -> dict:
    """Per-layer figures from one traced pass.

    mc_spans are the simulate_outage spans of every traced pass (the
    mc-arbiter run adds a one-worker pass); grid_labels name the analytic-grid
    points whose quadrature time is reported.  A layer the workload never
    enters reports zero.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_by_name: dict[str, float] = defaultdict(float)
    for s in spans:
        self_by_name[s.name] += selfs[s.id]

    m: dict[str, float] = {
        "specfun.ncx2.calls": tracer.counts["specfun.ncx2"],
        "specfun.ncx2.self_s": self_by_name["specfun.ncx2"],
        "specfun.expansion_coeffs.calls": tracer.counts["specfun.expansion_coeffs"],
        "specfun.expansion_coeffs.self_s": self_by_name["specfun.expansion_coeffs"],
        "analytic.outage_semianalytic.calls": tracer.counts["analytic.outage_semianalytic"],
        "analytic.outage_semianalytic.self_s": self_by_name["analytic.outage_semianalytic"],
        "analytic.diversity_order.self_s": self_by_name["analytic.diversity_order"],
        "analytic.min_codebook_size.self_s": self_by_name["analytic.min_codebook_size"],
        "montecarlo.simulate_outage.calls": tracer.counts["montecarlo.simulate_outage"],
        "channel.rng_streams": tracer.counts["channel.rng_streams"],
        "codebook.rvq_generate.calls": tracer.counts["codebook.rvq_generate"],
        "codebook.rvq_generate.self_s": self_by_name["codebook.rvq_generate"],
        "codebook.nu_pdf.calls": tracer.counts["codebook.nu_pdf"],
        "cli.main.self_s": self_by_name["cli.main"],
        "trace.spans": len(spans),
    }

    quad_ms = dict.fromkeys(grid_labels, 0.0)
    closed_ms = dict.fromkeys(CLOSED_FORMS.values(), 0.0)
    for s in spans:
        parent = by_id.get(s.parent)
        if s.name == "analytic.outage_semianalytic" and parent and parent.name == "bench.point":
            quad_ms[parent.attrs["point"]] += 1e3 * s.duration
        elif s.name == "analytic.closed" and not (parent and parent.name == "analytic.closed"):
            closed_ms[s.attrs["scheme"]] += 1e3 * s.duration
    m.update({f"analytic.quad_ms.{k}": v for k, v in quad_ms.items()})
    m.update({f"analytic.closed_ms.{k}": v for k, v in closed_ms.items()})

    rates = mc_rates(mc_spans)
    for label in mc_labels:
        w1, w2 = rates.get((label, 1), 0.0), rates.get((label, 2), 0.0)
        m[f"montecarlo.trials_per_s.{label}.w1"] = w1
        m[f"montecarlo.trials_per_s.{label}.w2"] = w2
        # t1 / (2 t2) for equal trial counts
        m[f"montecarlo.scaling_eff.{label}"] = w2 / (2.0 * w1) if w1 and w2 else 0.0

    for family in VERIFY_FAMILIES:
        m[f"verification.{family}.self_s"] = self_by_name[f"verification.{family}"]
    return m


def span_rows(spans: list[Span]) -> list[list]:
    """Compact serialization: [id, name, start, end, parent, attrs]."""
    return [[s.id, s.name, s.start, s.end, s.parent, s.attrs] for s in spans]
