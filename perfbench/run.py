"""End-to-end benchmark of the three ways users run checks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zoo_library --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``zoo_library`` (``repro.api.check`` on the
bundled p1-p15 cases), ``daemon_warm`` (submits to one warm ``repro serve``)
and ``cli_kb`` (one-shot ``repro check --kb`` processes).  Every verdict is
judged against a reference the checker did not produce (``verdicts.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate traced
run reports the per-layer ones.  Spans, the per-layer table and per-run
details are written under ``.perfbench_out/``.

Runs are hermetic: every ``REPRO_*`` variable is removed from this process
and its children, sockets, stores and designs live in a per-run directory
under ``.perfbench_tmp/`` that is removed at exit, and a run that leaves a
process behind fails.  Exit status: 0 when every verdict was right, 1 when
not, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "cli.import_check_s", "cli.import_submit_s",
    "api.resolve_design_s", "hdl.compile_verilog_s",
    "properties.compile_s", "atpg.unroll_s", "atpg.frames_built",
    "atpg.justify_s", "atpg.justify_calls", "atpg.decisions",
    "atpg.backtracks", "atpg.conflicts",
    "implication.propagate_s", "implication.propagate_calls",
    "implication.implications", "implication.rule_cache_hit_rate",
    "modsolver.solve_s", "modsolver.solve_calls", "modsolver.core_replay_rate",
    "simulation.trace_replay_s", "checker.check_s",
    "atpg.cube_hits", "atpg.targets_skipped",
    "kb.open_s", "kb.attach_s", "kb.flush_s", "kb.hits", "kb.cubes_loaded",
    "service.transport_s", "service.queue_wait_s", "service.worker_run_s",
    "service.warm_hit_rate",
    "trace.overhead_frac", "trace.requests", "trace.request_s", "trace.unattributed_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_frac")):
        return "ratio"
    return "count"


class Context:
    """Everything one run shares: settings, hermetic environment, tallies."""

    def __init__(self, args):
        from verdicts import Judge

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.min_requests = args.min_requests
        self.root = ROOT
        self.bench_dir = BENCH_DIR
        self.python = sys.executable
        self.tmp_rel = os.path.join(".perfbench_tmp", "%d-%d" % (args.seed, os.getpid()))
        self.tmp = os.path.join(ROOT, self.tmp_rel)
        os.makedirs(os.path.join(self.tmp, "designs"))
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.tmp)
        self.judge = Judge()
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.counts: Counter = Counter()
        self.verdict_log: list = []
        self.details: dict = {}
        self.procs: list = []
        self.hermetic_errors: list = []

    # -- children -------------------------------------------------------
    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, **kwargs)
        self.procs.append(proc)
        return proc

    def run_child(self, argv):
        """Run a child to completion: (exit code, stdout, stderr)."""
        proc = self.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=120.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return -1, out, "timed out after 120 s\n" + err
        finally:
            self.procs.remove(proc)
        return proc.returncode, out, err

    def require_gone(self, pids, what: str) -> None:
        """Every listed process must end on its own within a grace period."""
        deadline = time.monotonic() + 10.0
        for pid in pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                self.hermetic_failure("%s %d left behind" % (what, pid))
                os.kill(pid, signal.SIGKILL)

    def hermetic_failure(self, message: str) -> None:
        self.hermetic_errors.append(message)

    def cleanup(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                self.hermetic_failure("process %d still running at exit" % proc.pid)
                proc.kill()
            proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass

    # -- inputs and outputs ----------------------------------------------
    def write_design(self, design) -> str:
        path = os.path.join(self.tmp, "designs", design.name + ".v")
        with open(path, "w") as stream:
            stream.write(design.verilog)
        return path

    def note(self, key: str, outcome, errors, expected: int) -> None:
        """Count one request; it failed on an error or any wrong verdict."""
        from workloads import stat_counts

        self.attempted += 1
        if outcome.error:
            errors = [outcome.error] + list(errors)
        elif len(outcome.verdicts) != expected:
            errors = ["%d verdicts, expected %d" % (len(outcome.verdicts), expected)
                      ] + list(errors)
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("%s: %s" % (key, "; ".join(errors)))
        self.counts.update(stat_counts(outcome.stats))
        self.verdict_log.append([key, [[n, s, (t or {}).get("target_frame")]
                                       for n, s, t in outcome.verdicts]])

    def out_path(self, suffix: str) -> str:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, "%s-seed%d-trace%d%s" % (
            self.workload, self.seed, int(self.trace), suffix))

    def write_trace(self, tracer) -> None:
        tracer.write(self.out_path(".spans.jsonl"))
        self.details["layers"] = tracer.layer_table()


def _alive(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid) as stream:
            return stream.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("zoo_library", "daemon_warm", "cli_kb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-requests", type=int, default=100,
                        help="timed-loop request floor (default: 100)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: the program under test (src/repro) is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # No REPRO_* setting may reach the program (REPRO_KB would turn cli_kb's
    # writes into reads, REPRO_SERVICE_ENDPOINTS would reroute submits), and
    # bytecode caching stays at Python's default, as on a user's machine.
    for name in [k for k in os.environ
                 if k.startswith("REPRO_") or k == "PYTHONDONTWRITEBYTECODE"]:
        del os.environ[name]
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    import workloads

    ctx = Context(args)
    os.environ["TMPDIR"] = tempfile.tempdir = ctx.tmp
    try:
        metrics = workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.cleanup()

    if ctx.trace:
        metrics = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        units = END_TO_END
    correct = ctx.failed == 0 and ctx.attempted > 0 and not ctx.hermetic_errors
    ctx.details.update(
        correct=correct, attempted=ctx.attempted, failed=ctx.failed,
        failed_frac=ctx.failed / max(1, ctx.attempted), errors=ctx.errors,
        hermetic_errors=ctx.hermetic_errors, counts=dict(ctx.counts),
        verdicts=ctx.verdict_log, metrics=metrics)
    with open(ctx.out_path(".json"), "w") as stream:
        json.dump(ctx.details, stream, indent=1, sort_keys=True)

    for message in ctx.errors + ctx.hermetic_errors:
        print("FAILED %s" % message)
    for name in units:
        print("%-34s %14.6f %s" % (name, metrics[name], units[name]))
    print("failed_frac %.6f (%d of %d requests)" % (
        ctx.failed / max(1, ctx.attempted), ctx.failed, ctx.attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
