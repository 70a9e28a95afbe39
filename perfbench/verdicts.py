"""Judge every verdict against a reference the checker under test did not produce.

* Zoo cases are judged by the paper's answers (``expected_status`` in the
  :mod:`repro.circuits` registry); witness traces are replayed on a freshly
  built copy of the case circuit and the property is evaluated on the
  simulated values by this module's own expression evaluator.
* Generated designs are judged by their by-construction answers
  (:mod:`designs`): the status, the exact target frame, and a replay on a
  freshly elaborated circuit checked frame by frame with the design's
  Python predicate.

A request is judged by its verdicts, never by its exit code: exit 1 is the
right answer when an assertion is expected to fail.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.circuits import build_case
from repro.hdl import compile_verilog
from repro.properties import spec
from repro.simulation import Simulator

_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def evaluate(expr: spec.Expression, values: Mapping[str, int]) -> int:
    """Value of a combinational property expression on one frame's nets."""
    if isinstance(expr, spec.Signal):
        return values[expr.name]
    if isinstance(expr, spec.Const):
        return expr.value
    if isinstance(expr, spec.BinOp) and expr.op in _COMPARE:
        lhs, rhs = evaluate(expr.lhs, values), evaluate(expr.rhs, values)
        return int(_COMPARE[expr.op](lhs, rhs))
    if isinstance(expr, spec.Not):
        return int(not evaluate(expr.expr, values))
    if isinstance(expr, spec.And):
        return int(all(evaluate(t, values) for t in expr.terms))
    if isinstance(expr, spec.Or):
        return int(any(evaluate(t, values) for t in expr.terms))
    if isinstance(expr, spec.Implies):
        return int(not evaluate(expr.antecedent, values)
                   or bool(evaluate(expr.consequent, values)))
    if isinstance(expr, (spec.OneHot, spec.AtMostOneHot)):
        hot = sum(1 for t in expr.terms if evaluate(t, values))
        return int(hot == 1 if isinstance(expr, spec.OneHot) else hot <= 1)
    raise ValueError("reference evaluator does not support %r" % (expr,))


def replay(circuit, trace: Mapping[str, object], fixed_state: Mapping[str, int],
           environment=None) -> Sequence[Dict[str, int]]:
    """Simulate a trace; return each frame's net values by name.

    Registers whose start value is fixed (``fixed_state`` or a power-on
    value) must start where the trace says; every input vector must satisfy
    the environment.
    """
    initial = dict(trace.get("initial_state") or {})
    for ff in circuit.flip_flops:
        name = ff.q.name
        fixed = fixed_state.get(name, ff.init_value)
        if fixed is not None and name in initial and initial[name] != fixed:
            raise ValueError("trace starts %s at %s, design fixes %s"
                             % (name, initial[name], fixed))
    inputs = list(trace.get("inputs") or [])
    target = trace.get("target_frame")
    if not isinstance(target, int) or len(inputs) != target + 1:
        raise ValueError("trace has %d input frames for target frame %r"
                         % (len(inputs), target))
    sim = Simulator(circuit, initial_state=initial)
    frames = []
    for vector in inputs:
        if environment is not None and not environment.satisfied_by(vector):
            raise ValueError("input vector %r violates the environment" % (vector,))
        frames.append(sim.step(vector))
    return frames


class Judge:
    """Memoising verdict judge; one per run."""

    def __init__(self):
        self._memo: Dict[Tuple, Optional[str]] = {}
        self._zoo_expected: Dict[str, str] = {}

    def _memoised(self, key: Tuple, judge) -> Optional[str]:
        if key not in self._memo:
            try:
                self._memo[key] = judge()
            except (ValueError, KeyError) as exc:
                self._memo[key] = "replay failed: %s" % (exc,)
        return self._memo[key]

    # -- zoo ----------------------------------------------------------
    def expected_zoo(self, case_id: str) -> str:
        """The paper's answer for a case (read from the case registry)."""
        if case_id not in self._zoo_expected:
            self._zoo_expected[case_id] = build_case(case_id).expected_status.value
        return self._zoo_expected[case_id]

    def zoo(self, case_id: str, status: str, trace: Optional[Mapping]) -> Optional[str]:
        """``None`` when the verdict is right, else why it is wrong."""
        key = ("zoo", case_id, status, json.dumps(trace, sort_keys=True))
        return self._memoised(key, lambda: self._judge_zoo(case_id, status, trace))

    def _judge_zoo(self, case_id, status, trace) -> Optional[str]:
        expected = self.expected_zoo(case_id)
        if status != expected:
            return "%s: %s, paper says %s" % (case_id, status, expected)
        if expected == "holds":
            return None if trace is None else "%s: holds but carries a trace" % case_id
        if trace is None:
            return "%s: %s without a trace" % (case_id, status)
        case = build_case(case_id)  # a fresh circuit, no checker monitors in it
        frames = replay(case.circuit, trace, case.initial_state or {}, case.environment)
        value = evaluate(case.prop.expr, frames[-1])
        want = 1 if expected == "witness_found" else 0
        if value != want:
            return "%s: replayed trace ends with property value %d" % (case_id, value)
        return None

    # -- generated designs ----------------------------------------------
    def generated(self, design, prop_name: str, status: str,
                  trace: Optional[Mapping]) -> Optional[str]:
        key = ("gen", design.name, prop_name, status, json.dumps(trace, sort_keys=True))
        return self._memoised(
            key, lambda: self._judge_generated(design, prop_name, status, trace))

    def _judge_generated(self, design, prop_name, status, trace) -> Optional[str]:
        prop = design.prop(prop_name)
        where = "%s.%s" % (design.name, prop_name)
        if status != prop.status:
            return "%s: %s, by construction %s" % (where, status, prop.status)
        if prop.depth < 0:
            return None if trace is None else "%s: holds but carries a trace" % where
        if trace is None or trace.get("target_frame") != prop.depth:
            return "%s: trace target %r, by construction %d" % (
                where, None if trace is None else trace.get("target_frame"), prop.depth)
        frames = replay(compile_verilog(design.verilog), trace, {})
        for frame, values in enumerate(frames):
            holds = prop.predicate(values[design.register])
            # an assertion holds before its depth; a witness is absent before it
            want = (frame < prop.depth) == (prop.kind == "assertion")
            if holds != want:
                return "%s: replay disagrees at frame %d" % (where, frame)
        return None
