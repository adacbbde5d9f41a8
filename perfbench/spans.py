"""In-memory span tracing of orbifoldry, installed from outside the package.

Each traced function is replaced, in every orbifoldry module or class
namespace that binds it, by a wrapper that records a span: name, start,
end, thread CPU time, parent span and thread id.  Every thread keeps its
own parent stack, so claims running on the suite's thread pool nest
correctly.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "busy", "work")

    def __init__(self, name: str, parent: Span | None) -> None:
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.start = self.end = self.busy = 0.0
        self.work: Any = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             work: Callable[[tuple, Any], Any] | None = None) -> Callable:
        """fn recording one span per call; work(args, result) is stored
        on the span as the call's operation count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            busy = thread_time()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.busy = thread_time() - busy
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[s.name, s.start, s.end, s.busy,
                 index[id(s.parent)] if s.parent is not None else None,
                 s.tid] for s in self.spans]
        path.write_text(json.dumps(
            {"columns": ["name", "start", "end", "busy_s", "parent", "tid"],
             "spans": rows}))


# ----- what is traced -------------------------------------------------------


def _vectors(args: tuple, counts: dict[int, int]) -> int:
    return sum(counts.values())


def _term_pairs(args: tuple, product: Any) -> tuple[int, int]:
    left, right = args[0], args[1]
    n_right = len(right.coeffs) if hasattr(right, "coeffs") else 1
    return (len(left.coeffs) * n_right,
            max(len(left.coeffs), n_right, len(product.coeffs)))


# (span name, orbifoldry module, attribute path in it, work counter)
TARGETS = (
    ("lattice.enum", "lattice", "enumerate_vectors_by_norm", _vectors),
    ("lattice.snf", "lattice", "smith_normal_form", None),
    ("isometry.verify", "isometry", "Isometry.__post_init__", None),
    ("isometry.power", "isometry", "Isometry.power", None),
    ("isometry.profile", "isometry", "cyclotomic_profile", None),
    ("isometry.order", "isometry", "multiplicative_order", None),
    ("qseries.mul", "qseries", "FracSeries.__mul__", _term_pairs),
    ("qseries.inverse", "qseries", "FracSeries.inverse", None),
    ("qseries.grading_product", "qseries", "grading_product", None),
    ("sectors.invariants", "sectors", "sector_invariants", None),
    ("sectors.defect", "sectors", "defect_dimension", None),
    ("sectors.twisted", "sectors", "twisted_character", None),
    ("sectors.twined", "sectors", "twined_untwisted_character", None),
    ("sectors.eigencomponent", "sectors", "eigencomponent_character", None),
    ("fusion.orbifold", "fusion", "orbifold_character", None),
    ("fusion.weight_one", "fusion", "weight_one_dimension_H2", None),
    ("fusion.isotropic", "fusion", "maximal_isotropic_subgroups", None),
    ("modular.j", "modular", "moonshine_j", None),
    ("modular.theta", "modular", "unimodular_theta_rank24", None),
    ("ising.chars", "ising", "c12_character", None),
    ("datafiles.load", "datafiles", "load_leech", None),
    ("datafiles.load", "datafiles", "load_sigma", None),
    ("cli.suite", "cli", "run_verification_suite", None),
    ("report.emit", "report", "emit_report", None),
)

LAYER_SPANS = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def install(tracer: Tracer) -> Callable:
    """Wrap every target wherever orbifoldry binds it, and every claim
    body in the CLI registry.  Returns the unwrapped twisted-character
    cache, whose hit counts the run reads."""
    from orbifoldry import cli, sectors
    cache = sectors.twisted_character
    modules = [module for name, module in sys.modules.items()
               if name == "orbifoldry" or name.startswith("orbifoldry.")]
    for name, module, path, work in TARGETS:
        owner = importlib.import_module(f"orbifoldry.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, work)
        namespaces = [owner] if isinstance(owner, type) else modules
        bound = 0
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name}: {attr} is bound nowhere")
    # the registry holds the claim bodies by reference, not by module name
    cli.CLAIM_REGISTRY = tuple(
        dataclasses.replace(spec, computed=tracer.wrap(
            f"cli.claim.{spec.slug}", spec.computed))
        for spec in cli.CLAIM_REGISTRY)
    return cache


# ----- aggregation ----------------------------------------------------------


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    wall: float = 0.0   # spans not nested in a span of the same name
    busy: float = 0.0   # thread CPU time of those spans
    self_time: float = 0.0
    work: list = dataclasses.field(default_factory=list)


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.end - span.start
    stats: dict[str, LayerStats] = {}
    for span in spans:
        layer = stats.setdefault(span.name, LayerStats())
        duration = span.end - span.start
        layer.calls += 1
        layer.self_time += duration - child_time.get(id(span), 0.0)
        if span.work is not None:
            layer.work.append(span.work)
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            layer.wall += duration
            layer.busy += span.busy
    return stats
