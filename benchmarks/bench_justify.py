"""Compiled vs. interpreted implication kernel on search-heavy sweeps.

The justification hot path was lowered onto flat slot-indexed lanes
(:mod:`repro.implication.compiled`): ternary cubes live in parallel
``known``/``value`` int arrays, watcher lists are indexed by slot, rule
refinements are memoised as int tuples, and savepoint/rollback walk a slot
trail.  The interpreted engine is kept as a bit-identical oracle behind
``CheckerOptions.compiled``.

This benchmark drives both engines through the two workloads that dominate
checker time on the p5/p12/p15 zoo cases, and gates the headline claim:
**>= 3x median speedup across the sweep suite**.

The per-mode rows time each configuration for the baseline file.  The gate
does not compare their minima: after every row has run, the report times
each sweep's warm interpreted and compiled objects in ``PAIRS`` interleaved
pairs, alternating which runs first, so a slow stretch of a shared machine
hits both sides of a pair alike.  A sweep's speedup is the median of its
per-pair ratios, and the gate is the median over the six sweeps.

* **search sweeps** -- the full branch-and-bound justification search,
  re-run on a warm incremental model with learning disabled so every round
  performs the complete decision/propagate/backtrack sweep (the
  daemon-warm-worker shape; FAIL memos would otherwise short-circuit it).
  p15, the wide-datapath certificate sweep, is where interpreted cube
  hashing hurts most.
* **fixpoint sweeps** -- enqueue every node and drain the worklist to a
  fixpoint on a warm model (the extend/resync shape: pure evaluation-loop
  throughput, memo-hit dominated).

Verdicts, frame counts and evaluation counters are asserted equal between
the modes in every sweep -- the speedup must never cost bit-identity.
"""

import gc
import statistics as stats_module
import time

import pytest
import reporting

from repro.atpg.timeframe import UnrolledModel
from repro.bitvector import BV3
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache
from repro.circuits import build_case

#: the warm sweeps are short; collector pauses from the cold interpreted
#: runs land disproportionately inside them (same rationale as
#: bench_incremental.py).
pytestmark = pytest.mark.benchmark(disable_gc=True)

#: (case_id, bound) for the full justification search sweeps.  Bounds keep
#: each warm round well under a second so the suite stays smoke-sized.
SEARCH_SWEEPS = [("p5", 6), ("p12", 3), ("p15", 3)]
#: (case_id, unroll depth) for the fixpoint propagation sweeps.
FIXPOINT_SWEEPS = [("p5", 12), ("p12", 6), ("p15", 6)]
#: worklist drains per timed round (single drains are sub-millisecond).
FIXPOINT_DRAINS = 50
#: headline acceptance threshold: median speedup across all six sweeps.
KERNEL_SPEEDUP = 3.0
#: timing rounds per configuration for the per-mode rows.
ROUNDS = 3
#: interleaved (interpreted, compiled) pairs per sweep for the gate.
PAIRS = 7

#: (sweep label, mode) -> digest tuple of the row's timed runs
_RESULTS = {}
#: (sweep label, mode) -> zero-argument warm run returning its digest
_SWEEPS = {}


# ----------------------------------------------------------------------
# Search sweeps: warm re-justification with learning off
# ----------------------------------------------------------------------
def _search_checker(case_id, bound, compiled):
    case = build_case(case_id)
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(
            max_frames=bound,
            compiled=compiled,
            learning=False,
        ),
        model_cache=UnrolledModelCache(),
    )
    return checker, case.prop


@pytest.mark.parametrize("case_id,bound", SEARCH_SWEEPS)
@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_search_sweep(benchmark, case_id, bound, mode):
    checker, prop = _search_checker(case_id, bound, mode == "compiled")
    # The cold check unrolls the model and fills the rule memos; the timed
    # rounds then measure the pure warm search sweep.
    cold = checker.check(prop)
    result = benchmark.pedantic(
        checker.check, args=(prop,), rounds=ROUNDS, iterations=1
    )
    assert result.status == cold.status
    label = "search %s@%d" % (case_id, bound)
    _RESULTS[(label, mode)] = _search_digest(result)
    _SWEEPS[(label, mode)] = lambda: _search_digest(checker.check(prop))


def _search_digest(result):
    return (result.status.value, result.frames_explored, result.statistics.decisions)


# ----------------------------------------------------------------------
# Fixpoint sweeps: enqueue-all worklist drains on a warm model
# ----------------------------------------------------------------------
def _fixpoint_model(case_id, depth, compiled):
    case = build_case(case_id)
    model = UnrolledModel(case.circuit, depth, compiled=compiled)
    engine = model.engine
    # Pin frame-0 inputs so the drains propagate real implications.
    for net in case.circuit.inputs:
        engine.assign(model.key(net, 0), BV3.from_int(net.width, 1))
    nodes = list(model.active_nodes())
    engine.enqueue(nodes)
    engine.propagate()  # warm the rule memos
    return engine, nodes


def _drain(engine, nodes):
    for _ in range(FIXPOINT_DRAINS):
        engine.enqueue(nodes)
        engine.propagate()


@pytest.mark.parametrize("case_id,depth", FIXPOINT_SWEEPS)
@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_fixpoint_sweep(benchmark, case_id, depth, mode):
    engine, nodes = _fixpoint_model(case_id, depth, mode == "compiled")
    before = engine.node_evaluations
    benchmark.pedantic(_drain, args=(engine, nodes), rounds=ROUNDS, iterations=1)
    evaluations = engine.node_evaluations - before
    label = "fixpoint %s@%d" % (case_id, depth)
    _RESULTS[(label, mode)] = (len(nodes), evaluations)

    def sweep():
        start = engine.node_evaluations
        _drain(engine, nodes)
        return (len(nodes), engine.node_evaluations - start)

    _SWEEPS[(label, mode)] = sweep


# ----------------------------------------------------------------------
# Report + acceptance assertion
# ----------------------------------------------------------------------
def _paired_times(label):
    """``PAIRS`` interleaved (interpreted, compiled) timings of one sweep.

    The pair order alternates, and every run's digest must match the other
    mode's: the speedup must never cost bit-identity.
    """
    modes = ("interpreted", "compiled")
    pairs = []
    for index in range(PAIRS):
        elapsed, digests = {}, {}
        gc.collect()
        gc.disable()  # as the rows' disable_gc: no collector pause in a run
        try:
            for mode in modes if index % 2 == 0 else modes[::-1]:
                started = time.perf_counter()
                digests[mode] = _SWEEPS[(label, mode)]()
                elapsed[mode] = time.perf_counter() - started
        finally:
            gc.enable()
        assert digests["interpreted"] == digests["compiled"], (label, digests)
        pairs.append((elapsed["interpreted"], elapsed["compiled"]))
    return pairs


def test_justify_speedup_report(benchmark):
    labels = ["search %s@%d" % pair for pair in SEARCH_SWEEPS]
    labels += ["fixpoint %s@%d" % pair for pair in FIXPOINT_SWEEPS]
    needed = [(label, mode) for label in labels for mode in ("interpreted", "compiled")]
    if any(key not in _RESULTS for key in needed):
        pytest.skip("not all justify benchmark rows ran")

    # Bit-identical behaviour is part of the contract: same verdict, frames
    # and decisions (search), same evaluation counts (fixpoint).
    for label in labels:
        digest_i = _RESULTS[(label, "interpreted")]
        digest_c = _RESULTS[(label, "compiled")]
        assert digest_i == digest_c, (label, digest_i, digest_c)
    # Timed outside the benchmark row, which covers only the formatting.
    paired = {label: _paired_times(label) for label in labels}

    def _format():
        lines = [
            "%-16s %10s %11s %8s %15s"
            % ("sweep", "interp(s)", "compiled(s)", "speedup", "pair range")
        ]
        lines.append("-" * len(lines[0]))
        speedups = []
        for label in labels:
            pairs = paired[label]
            ratios = [t_i / t_c if t_c > 0 else float("inf") for t_i, t_c in pairs]
            speedup = stats_module.median(ratios)
            speedups.append(speedup)
            lines.append(
                "%-16s %10.4f %11.4f %7.2fx %6.2fx-%5.2fx"
                % (label, stats_module.median(t for t, _ in pairs),
                   stats_module.median(t for _, t in pairs), speedup,
                   min(ratios), max(ratios))
            )
        median = stats_module.median(speedups)
        lines.append("")
        lines.append(
            "median kernel speedup: %.2fx (threshold %.1fx; each sweep the "
            "median of %d interleaved pairs)" % (median, KERNEL_SPEEDUP, PAIRS)
        )
        return "\n".join(lines), median

    table, median = benchmark.pedantic(_format, rounds=1, iterations=1)
    reporting.register_table(
        "[Justify] compiled vs interpreted implication kernel", table
    )
    print("\n[Justify] compiled vs interpreted implication kernel\n" + table)
    assert median >= KERNEL_SPEEDUP, (
        "compiled kernel regressed: median speedup %.2fx (expected >= %.1fx)"
        % (median, KERNEL_SPEEDUP)
    )
