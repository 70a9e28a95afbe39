"""Self-tests of the benchmark: references, determinism and the output contract.

Run from the repository root (the file is deliberately not named
``test_*.py``, so the repository's own test run does not collect it)::

    python3 -m pytest perfbench/selftest.py -q

* The by-construction answers of every generated design variant are
  cross-checked once against the SAT bounded model checker at the same bound.
* The verdict judge accepts the checker's correct traces and rejects
  tampered ones.
* Two short runs with one seed give identical verdicts and counts; a second
  seed changes the generated designs; no request fails.
* ``BENCHMARK.json`` matches what ``run.py`` prints, and the benchmark
  refuses to run where the program under test is missing.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import designs  # noqa: E402
import run  # noqa: E402
from verdicts import Judge  # noqa: E402


def _variant_props():
    """Every (design, property) the generator can emit, each answer once.

    The invariant does not depend on the depths, so it is checked once per
    (family, parameter); the failing and witness properties once per depth.
    """
    depths = range(2, designs.MAX_DEPTH + 1)
    for family, params in designs.PARAMS.items():
        for param in params:
            for depth in depths:
                design = designs.make_design(
                    "v_%s_%d_%d" % (family, param, depth), family, param, depth, depth)
                names = ("inv", "bad", "wit") if depth == depths[0] else ("bad", "wit")
                for name in names:
                    yield design, design.prop(name)


def test_generated_answers_agree_with_sat_checker():
    from repro.baselines import SATBoundedChecker
    from repro.hdl import compile_verilog
    from repro.properties.parse import parse_expression
    from repro.properties.spec import Assertion, Witness

    checked = 0
    for design, prop in _variant_props():
        kind = Assertion if prop.kind == "assertion" else Witness
        circuit = compile_verilog(design.verilog)
        result = SATBoundedChecker(circuit, max_frames=design.bound).check(
            kind(prop.name, parse_expression(prop.expr)))
        assert result.status.value == prop.status, (design.name, prop.name)
        if prop.depth >= 0:
            # the SAT checker deepens one frame at a time, so its first
            # satisfiable frame is the minimal depth
            assert result.frames_explored - 1 == prop.depth, (design.name, prop.name)
        checked += 1
    assert checked == 9 * (1 + 2 * (designs.MAX_DEPTH - 1))


def test_judge_accepts_right_and_rejects_tampered_traces():
    from repro import api

    judge = Judge()
    design = designs.make_design("judge_modcnt", "modcnt", 12, 3, 2)
    request = api.build_request(
        api.CircuitRef.source(design.verilog),
        [api.PropertySpec.assertion("bad", design.prop("bad").expr)],
        max_frames=design.bound)
    verdict = api.check(request).results[0]
    assert judge.generated(design, "bad", verdict.status, verdict.trace) is None

    stalled = copy.deepcopy(verdict.trace)
    stalled["inputs"][0] = {name: 0 for name in stalled["inputs"][0]}
    assert judge.generated(design, "bad", verdict.status, stalled) is not None
    shifted = dict(verdict.trace, target_frame=verdict.trace["target_frame"] - 1)
    assert judge.generated(design, "bad", verdict.status, shifted) is not None
    assert judge.generated(design, "bad", "holds", None) is not None

    case = api.check(api.build_request(api.CircuitRef.case("p8"))).results[0]
    assert judge.zoo("p8", case.status, case.trace) is None
    late = copy.deepcopy(case.trace)
    late["inputs"] = late["inputs"][:-1]
    late["target_frame"] -= 1
    assert judge.zoo("p8", case.status, late) is not None
    assert judge.zoo("p5", "fails", None) is not None


def test_second_seed_changes_generated_designs():
    first = [d.verilog for d in designs.generate(1, 12, "ck")]
    assert first == [d.verilog for d in designs.generate(1, 12, "ck")]
    assert first != [d.verilog for d in designs.generate(2, 12, "ck")]


def _short_run(workload, seed, requests):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0",
         "--min-requests", str(requests)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    path = os.path.join(ROOT, ".perfbench_out", "%s-seed%d-trace0.json" % (workload, seed))
    with open(path) as stream:
        return json.load(stream)


@pytest.mark.parametrize("workload,requests", [
    ("zoo_library", 15), ("daemon_warm", 8), ("cli_kb", 8)])
def test_same_seed_same_verdicts_and_counts(workload, requests):
    first = _short_run(workload, 7, requests)
    second = _short_run(workload, 7, requests)
    assert first["verdicts"] == second["verdicts"]
    assert first["counts"] == second["counts"]
    # another seed: another case order (zoo) or other generated designs
    assert _short_run(workload, 8, requests)["verdicts"] != first["verdicts"]


def test_benchmark_json_matches_run_output():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["zoo_library", "daemon_warm", "cli_kb"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_kb", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
