"""Span tracing wrapped around the calls into each layer, from outside ``src/``.

:func:`install` replaces each traced function where its caller looks it up
(a class attribute for methods, the module attribute a call-time
``from ... import`` reads).  A wrapper records a span -- name, start, end,
parent, request id -- only while a request span is open, so the
benchmark's own reference replays are never counted.  Spans stay in memory
until the run ends; self time is a span's duration minus the part its
children cover (children of one thread never overlap, so the sum of child
durations is exactly that part).

Checker results are counted at the ``checker.check`` boundary, where the
search statistics are produced.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, owner attribute path, function attribute)
TRACE_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("api.resolve_design", "repro.api", "", "resolve_design"),
    ("hdl.compile_verilog", "repro.hdl", "", "compile_verilog"),
    ("properties.compile", "repro.properties.convert", "PropertyCompiler", "compile"),
    ("atpg.unroll", "repro.atpg.timeframe", "UnrolledModel", "__init__"),
    ("atpg.unroll", "repro.atpg.timeframe", "UnrolledModel", "extend_to"),
    ("atpg.justify", "repro.atpg.justify", "Justifier", "run"),
    ("implication.propagate", "repro.implication.engine", "ImplicationEngine", "propagate"),
    ("implication.propagate", "repro.implication.compiled", "CompiledEngine", "propagate"),
    ("modsolver.solve", "repro.modsolver.extract", "ArithmeticProblem", "solve"),
    ("simulation.trace_replay", "repro.simulation.simulator", "Simulator", "step"),
    ("checker.check", "repro.checker.engine", "AssertionChecker", "check"),
    ("kb.open", "repro.kb", "", "open_knowledge_base"),
    ("kb.attach", "repro.kb.store", "KnowledgeBase", "attach"),
    ("kb.flush", "repro.kb.store", "KnowledgeBase", "flush_model"),
)

#: CheckStatistics fields summed at the ``checker.check`` boundary
STAT_FIELDS = (
    "decisions", "backtracks", "conflicts", "implications", "frames_built",
    "justify_runs", "arithmetic_calls", "rule_cache_hits", "rule_cache_misses",
    "solver_core_hits", "cube_hits", "targets_skipped", "kb_hits",
    "kb_cubes_loaded", "models_reused",
)

# span fields
NAME, START, END, PARENT, REQUEST, CHILD = range(6)


class Tracer:
    """Collects spans and boundary counts for one traced run."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request_id: Optional[int] = None
        self.counts: Counter = Counter()
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request_id, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def request(self, request_id: int, call: Callable[[], object]):
        """Run one request inside a root span."""
        self.request_id = request_id
        index = self.open("request")
        try:
            return call()
        finally:
            self.close(index)
            self.request_id = None

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        count_stats = name == "checker.check"

        def traced(*args, **kwargs):
            if tracer.request_id is None:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if count_stats:
                stats = result.statistics
                for field in STAT_FIELDS:
                    tracer.counts[field] += getattr(stats, field)
            return result

        traced.__wrapped__ = function
        return traced

    # -- patching -------------------------------------------------------
    def install(self) -> "Tracer":
        import importlib

        for name, module_name, owner_name, attr in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            row = table[span[NAME]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - span[CHILD]
        return dict(table)

    def export(self) -> Dict[str, object]:
        """Spans and counts in a JSON-friendly form (for merging across processes)."""
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, exported: Dict[str, object], request_id: int) -> None:
        """Fold in the spans another process recorded, re-keyed to this run."""
        offset = len(self.spans)
        for span in exported["spans"]:
            span = list(span)
            span[PARENT] = span[PARENT] + offset if span[PARENT] >= 0 else -1
            span[REQUEST] = request_id
            self.spans.append(span)
        self.counts.update(exported["counts"])

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
