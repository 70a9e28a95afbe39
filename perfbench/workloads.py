"""The three workloads: paper-zoo library checks, warm-daemon submits and
one-shot CLI checks with a knowledge base.

Each is a closed loop with one client: the next request is sent only after
the previous one answered.  A timed loop runs whole blocks until both
``--seconds`` have passed and at least ``--min-requests`` (default 100)
requests were made, so the 90th percentile always has ten samples beyond
it.  Verdicts are collected inside the loop and judged after it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import designs
from tracing import Tracer

SETUP_REPEATS = 3
CHILD_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def closed_loop(blocks: Iterable[list], send: Callable, seconds: float,
                min_requests: int) -> Tuple[list, float]:
    """Send blocks of requests until the time and count floors are both met.

    ``send(item)`` returns ``(latency_s, outcome)``.  Returns the records
    ``(item, latency_s, outcome)`` and the loop's wall time.
    """
    records = []
    started = time.perf_counter()
    for block in blocks:
        for item in block:
            latency, outcome = send(item)
            records.append((item, latency, outcome))
        if time.perf_counter() - started >= seconds and len(records) >= min_requests:
            break
    return records, time.perf_counter() - started


def latency_metrics(ctx, records: list, wall: float) -> Dict[str, float]:
    latencies = [latency for _, latency, _ in records]
    ctx.details["latencies_s"] = [round(latency, 6) for latency in latencies]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
        "requests_per_s": len(latencies) / wall,
    }


def timed(call: Callable) -> Tuple[float, object]:
    started = time.perf_counter()
    outcome = call()
    return time.perf_counter() - started, outcome


def verdicts_of_report(report) -> List[Tuple[str, str, Optional[dict]]]:
    """(property, status, trace) triples from a :class:`repro.api.CheckReport`."""
    return [(r.name, r.status, r.trace) for r in report.results]


def verdicts_of_json(payload) -> List[Tuple[str, str, Optional[dict]]]:
    """The same triples from ``repro check --json`` / ``repro submit --json`` output."""
    rows = payload["results"] if isinstance(payload, dict) else payload
    return [(r["property"], r["status"], r.get("trace")) for r in rows]


def stat_counts(rows: Iterable[dict]) -> Dict[str, int]:
    """Search and reuse counters summed over per-property stats blocks."""
    keys = ("decisions", "implications", "arithmetic_calls", "cube_hits",
            "targets_skipped", "kb_hits", "kb_cubes_loaded", "models_reused")
    totals = dict.fromkeys(keys, 0)
    for row in rows:
        for key in keys:
            totals[key] += int(row.get(key, 0) or 0)
    return totals


class Outcome:
    """A request's answer: verdict triples, stats rows, or a typed error."""

    def __init__(self, verdicts=None, stats=None, error=None, extra=None):
        self.verdicts = verdicts or []
        self.stats = stats or []
        self.error = error
        self.extra = extra or {}


def judge_generated(ctx, records, design_of: Callable) -> None:
    """Judge every verdict of generated-design requests and count the requests."""
    for item, _, outcome in records:
        design = design_of(item)
        errors = [ctx.judge.generated(design, name, status, trace)
                  for name, status, trace in outcome.verdicts]
        ctx.note(design.name, outcome, [e for e in errors if e], expected=len(design.props))


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------
LAYER_TIMES = {
    "api.resolve_design_s": "api.resolve_design",
    "hdl.compile_verilog_s": "hdl.compile_verilog",
    "properties.compile_s": "properties.compile",
    "atpg.unroll_s": "atpg.unroll",
    "atpg.justify_s": "atpg.justify",
    "implication.propagate_s": "implication.propagate",
    "modsolver.solve_s": "modsolver.solve",
    "simulation.trace_replay_s": "simulation.trace_replay",
    "checker.check_s": "checker.check",
    "kb.open_s": "kb.open",
    "kb.attach_s": "kb.attach",
    "kb.flush_s": "kb.flush",
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per traced request: self seconds per layer, counts and ratios."""
    table = tracer.layer_table()
    requests = max(1, int(table.get("request", {}).get("calls", 0)))
    counts = tracer.counts

    def self_s(span):
        return table.get(span, {}).get("self_s", 0.0) / requests

    def calls(span):
        return table.get(span, {}).get("calls", 0) / requests

    metrics = {name: self_s(span) for name, span in LAYER_TIMES.items()}
    hits, misses = counts["rule_cache_hits"], counts["rule_cache_misses"]
    solves, core_hits = calls("modsolver.solve") * requests, counts["solver_core_hits"]
    metrics.update({
        "atpg.frames_built": counts["frames_built"] / requests,
        "atpg.justify_calls": calls("atpg.justify"),
        "atpg.decisions": counts["decisions"] / requests,
        "atpg.backtracks": counts["backtracks"] / requests,
        "atpg.conflicts": counts["conflicts"] / requests,
        "atpg.cube_hits": counts["cube_hits"] / requests,
        "atpg.targets_skipped": counts["targets_skipped"] / requests,
        "implication.propagate_calls": calls("implication.propagate"),
        "implication.implications": counts["implications"] / requests,
        "implication.rule_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "modsolver.solve_calls": calls("modsolver.solve"),
        "modsolver.core_replay_rate": (
            core_hits / (core_hits + solves) if core_hits + solves else 0.0),
        "kb.hits": counts["kb_hits"] / requests,
        "kb.cubes_loaded": counts["kb_cubes_loaded"] / requests,
        "trace.requests": float(requests),
        "trace.request_s": table.get("request", {}).get("total_s", 0.0) / requests,
        "trace.unattributed_s": self_s("request"),
    })
    return metrics


def attributed_fraction(tracer: Tracer) -> float:
    """Sum of all layer self times over request wall time (must be <= 1)."""
    table = tracer.layer_table()
    wall = table.get("request", {}).get("total_s", 0.0)
    layers = sum(row["self_s"] for name, row in table.items() if name != "request")
    return layers / wall if wall else 0.0


def import_seconds(ctx, modules: str) -> float:
    """Median wall time a fresh interpreter spends importing ``modules``."""
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(time.perf_counter() - t)" % modules)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([ctx.python, "-c", code], env=ctx.env, cwd=ctx.root,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                             check=True).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_metrics(ctx) -> Dict[str, float]:
    # What `repro check --kb` and `repro submit` import before checking.
    return {
        "cli.import_check_s": import_seconds(ctx, "repro.cli, repro.kb"),
        "cli.import_submit_s": import_seconds(ctx, "repro.cli, repro.service"),
    }


# ----------------------------------------------------------------------
# zoo_library
# ----------------------------------------------------------------------
def zoo_library(ctx) -> Dict[str, float]:
    from repro import api
    from repro.circuits import all_case_ids, extended_case_ids

    cases = all_case_ids() + extended_case_ids()
    # What a library user waits for before the first check.  The import is
    # timed inside the fresh interpreter: the wall time of a whole child
    # process jumped between two modes 50 ms apart from run to run.
    setup = import_seconds(ctx, "repro.api, repro.circuits")

    rng = random.Random("zoo:%d" % ctx.seed)

    def passes():
        while True:
            order = list(cases)
            rng.shuffle(order)
            yield order

    def send(case_id):
        # Each request builds a fresh circuit (no design cache), at the
        # case's paper bound.
        latency, report = timed(
            lambda: api.check(api.build_request(api.CircuitRef.case(case_id))))
        return latency, Outcome(verdicts_of_report(report),
                                [r.stats for r in report.results])

    def judge(records):
        for case_id, _, outcome in records:
            errors = [ctx.judge.zoo(case_id, status, trace)
                      for _, status, trace in outcome.verdicts]
            ctx.note(case_id, outcome, [e for e in errors if e], expected=1)

    if ctx.trace:
        return _traced_in_process(ctx, passes(), send, judge)

    records, wall = closed_loop(passes(), send, ctx.seconds, ctx.min_requests)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    judge(records)
    per_case = {}
    for case_id in cases:
        rows = [latency for cid, latency, _ in records if cid == case_id]
        per_case[case_id] = {"requests": len(rows), "median_s": statistics.median(rows)}
    ctx.details["per_case"] = per_case
    metrics = latency_metrics(ctx, records, wall)
    metrics.update(setup_s=setup, peak_rss_mb=peak_kb / 1024.0)
    return metrics


def _traced_in_process(ctx, blocks, send, judge, extra=None) -> Dict[str, float]:
    """Run blocks untraced for a third of the time, then the same blocks traced."""
    untraced, _ = closed_loop(blocks, send, ctx.seconds / 3.0, 1)
    tracer = Tracer().install()
    try:
        traced, traced_wall = [], 0.0
        for index, (item, _, _) in enumerate(untraced):
            latency, outcome = tracer.request(index, lambda: send(item))
            traced.append((item, latency, outcome))
            traced_wall += latency
    finally:
        tracer.uninstall()
    judge(untraced)
    judge(traced)
    metrics = layer_metrics(tracer)
    metrics.update(import_metrics(ctx))
    metrics.update(extra or {})
    base = sum(latency for _, latency, _ in untraced)
    metrics["trace.overhead_frac"] = traced_wall / base - 1.0
    ctx.details["attributed_fraction"] = attributed_fraction(tracer)
    ctx.write_trace(tracer)
    return metrics


# ----------------------------------------------------------------------
# daemon_warm
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess with default flags."""

    def __init__(self, ctx, index: int):
        from repro.service.client import ServiceClient, ServiceUnavailable

        self.ctx = ctx
        self.socket = os.path.join(ctx.tmp_rel, "d%d.sock" % index)
        self.log = open(os.path.join(ctx.tmp, "daemon%d.log" % index), "w")
        self.proc = ctx.spawn(
            [ctx.python, "-m", "repro", "serve", "--socket", self.socket],
            stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with ServiceClient(self.socket) as client:
                    client.ping()
                return
            except ServiceUnavailable:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("daemon did not come up (see %s)" % self.log.name)
                time.sleep(0.02)

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.socket) as client:
            return client.stats()

    def peak_rss_mb(self, stats: dict) -> float:
        """Summed peak RSS of the supervisor and its workers (VmHWM)."""
        pids = [self.proc.pid] + [w["pid"] for w in stats["workers"] if w.get("pid")]
        total_kb = 0
        for pid in pids:
            with open("/proc/%d/status" % pid) as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def shutdown(self) -> None:
        """Shut down through the shutdown verb; every worker must be gone."""
        from repro.service.client import ServiceClient

        workers = [w["pid"] for w in self.stats()["workers"] if w.get("pid")]
        with ServiceClient(self.socket) as client:
            client.shutdown()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.ctx.hermetic_failure("daemon ignored the shutdown verb")
        finally:
            self.log.close()
        self.ctx.require_gone(workers, "daemon worker")


def _daemon_requests(ctx):
    """One request per design, carrying all three of its properties."""
    from repro import api

    requests = []
    for design in designs.generate_fixed_mix(ctx.seed, "dw"):
        path = ctx.write_design(design)
        specs = [(api.PropertySpec.assertion if prop.kind == "assertion" else
                  api.PropertySpec.witness)(prop.name, prop.expr) for prop in design.props]
        requests.append((design, path, api.build_request(
            api.CircuitRef.verilog(path), specs, max_frames=design.bound)))
    return requests


def daemon_warm(ctx) -> Dict[str, float]:
    from repro.service.client import ServiceError, check_via_service

    def setup(index):
        requests = _daemon_requests(ctx)
        daemon = Daemon(ctx, index)
        for _, _, request in requests:  # prime every request once
            check_via_service(request, socket_path=daemon.socket, fallback=False)
        return requests, daemon

    setup_times = []
    repeats = 1 if ctx.trace else SETUP_REPEATS
    for index in range(repeats):
        elapsed, (requests, daemon) = timed(lambda: setup(index))
        setup_times.append(elapsed)
        if index < repeats - 1:
            daemon.shutdown()

    rng = random.Random("daemon:%d" % ctx.seed)

    def blocks():
        # A block is the four requests in seeded order; one of them goes
        # through a fresh `repro submit` process.
        while True:
            order = list(range(len(requests)))
            rng.shuffle(order)
            cli_slot = rng.randrange(len(order))
            yield [(index, slot == cli_slot) for slot, index in enumerate(order)]

    def send(item):
        index, via_cli = item
        design, path, request = requests[index]
        if via_cli:
            argv = [ctx.python, "-m", "repro", "submit", path, *design.cli_args(),
                    "--socket", daemon.socket, "--no-fallback", "--json"]
            latency, (code, out, err) = timed(lambda: ctx.run_child(argv))
            try:
                payload = json.loads(out)
            except ValueError:
                return latency, Outcome(error="submit exit %d: %s" % (code, err[-300:]))
            return latency, Outcome(verdicts_of_json(payload),
                                    [r["stats"] for r in payload["results"]],
                                    extra={"job": (payload.get("service") or {}).get("job")})
        started = time.perf_counter()
        try:
            report = check_via_service(request, socket_path=daemon.socket, fallback=False)
        except ServiceError as exc:
            return (time.perf_counter() - started,
                    Outcome(error="%s: %s" % (type(exc).__name__, exc)))
        latency = time.perf_counter() - started
        return latency, Outcome(verdicts_of_report(report),
                                [r.stats for r in report.results],
                                extra={"job": (report.service or {}).get("job"),
                                       "in_process": True})

    try:
        seconds = ctx.seconds / 3.0 if ctx.trace else ctx.seconds
        records, wall = closed_loop(blocks(), send, seconds,
                                    1 if ctx.trace else ctx.min_requests)
        stats = daemon.stats()
        peak = daemon.peak_rss_mb(stats)
    finally:
        daemon.shutdown()
    design_of = lambda item: requests[item[0]][0]  # noqa: E731
    judge_generated(ctx, records, design_of)
    service = _service_metrics(records, stats, len(requests[0][0].props))
    ctx.details["service"] = service
    if ctx.trace:
        return _traced_daemon_replay(ctx, requests, records, design_of, service)
    metrics = latency_metrics(ctx, records, wall)
    metrics.update(setup_s=statistics.median(setup_times), peak_rss_mb=peak)
    return metrics


def _service_metrics(records, stats, checks_per_job: int) -> Dict[str, float]:
    """Daemon-path timings from the job blocks' timestamps and the stats verb.

    A worker counts one warm hit per property check that reused its model,
    so the hit rate's base is jobs done times the property checks per job.
    """
    transport, queue_wait, worker_run = [], [], []
    for _, latency, outcome in records:
        job = outcome.extra.get("job") or {}
        if "finished_at" not in job:
            continue
        queue_wait.append(job["started_at"] - job["submitted_at"])
        worker_run.append(job["finished_at"] - job["started_at"])
        if outcome.extra.get("in_process"):
            transport.append(latency - (job["finished_at"] - job["submitted_at"]))
    jobs = sum(int(w.get("jobs_done", 0)) for w in stats["workers"])
    warm = sum(int(w.get("warm_hits", 0)) for w in stats["workers"])
    mean = lambda values: sum(values) / len(values) if values else 0.0  # noqa: E731
    return {
        "service.transport_s": mean(transport),
        "service.queue_wait_s": mean(queue_wait),
        "service.worker_run_s": mean(worker_run),
        "service.warm_hit_rate": warm / (jobs * checks_per_job) if jobs else 0.0,
    }


def _traced_daemon_replay(ctx, requests, records, design_of, service) -> Dict[str, float]:
    """Replay the daemon stream in-process, warm like a resident worker."""
    from repro import api

    cache: dict = {}
    for _, _, request in requests:
        api.check(request, design_cache=cache)

    def send(item):
        request = requests[item[0]][2]
        latency, report = timed(lambda: api.check(request, design_cache=cache))
        return latency, Outcome(verdicts_of_report(report))

    return _traced_in_process(
        ctx, iter([[item] for item, _, _ in records]), send,
        lambda replayed: judge_generated(ctx, replayed, design_of), extra=service)


# ----------------------------------------------------------------------
# cli_kb
# ----------------------------------------------------------------------
CLI_DESIGNS = 120  # 40 blocks of three; a run uses about ten
CLI_READS = 3  # warm checks after each design's first (store-writing) check


def cli_kb(ctx) -> Dict[str, float]:
    warmup = designs.make_design("warmup", "modcnt", 12, 3, 2)

    def setup():
        generated = designs.generate(ctx.seed, CLI_DESIGNS, "ck")
        paths = [ctx.write_design(design) for design in generated]
        # One check without a store loads the interpreter's and the OS's
        # file caches, which a user's second run also finds warm.
        code, _, err = ctx.run_child([ctx.python, "-m", "repro", "check",
                                      ctx.write_design(warmup), *warmup.cli_args(),
                                      "--json"])
        if code not in (0, 1):
            raise RuntimeError("warm-up check failed: %s" % err[-300:])
        return list(zip(generated, paths))

    setup_times = []
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        elapsed, pairs = timed(setup)
        setup_times.append(elapsed)

    def blocks(store_dir):
        # A block is three designs, one per family (see designs.generate).
        os.makedirs(store_dir, exist_ok=True)
        for first in range(0, len(pairs), len(designs.FAMILIES)):
            yield [(design, path, os.path.join(store_dir, design.name + ".db"), read > 0)
                   for design, path in pairs[first:first + len(designs.FAMILIES)]
                   for read in range(1 + CLI_READS)]

    def send(item, launcher=("-m", "repro")):
        design, path, store, _ = item
        argv = [ctx.python, *launcher, "check", path, *design.cli_args(),
                "--kb", store, "--json"]
        latency, (code, out, err) = timed(lambda: ctx.run_child(argv))
        try:
            rows = json.loads(out)
        except ValueError:
            return latency, Outcome(error="check exit %d: %s" % (code, err[-300:]))
        return latency, Outcome(verdicts_of_json(rows), rows)

    def judge(records):
        judge_generated(ctx, records, lambda item: item[0])

    if ctx.trace:
        return _traced_cli(ctx, blocks, send, judge)

    records, wall = closed_loop(blocks(os.path.join(ctx.tmp, "kb")), send, ctx.seconds,
                                ctx.min_requests)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    judge(records)
    for mode, reads in (("cold", False), ("warm", True)):
        rows = [latency for item, latency, _ in records if item[3] == reads]
        ctx.details["%s_median_s" % mode] = statistics.median(rows)
    metrics = latency_metrics(ctx, records, wall)
    metrics.update(setup_s=statistics.median(setup_times), peak_rss_mb=peak_kb / 1024.0)
    return metrics


def _traced_cli(ctx, blocks, send, judge) -> Dict[str, float]:
    """Run CLI blocks plainly, then the same blocks in self-tracing processes.

    A child process cannot be wrapped from outside, so the traced copy runs
    ``traced_cli.py``, which installs the tracer inside the CLI process and
    writes its spans for this process to merge.
    """
    untraced, _ = closed_loop(blocks(os.path.join(ctx.tmp, "kb-plain")), send,
                              ctx.seconds / 3.0, 1)
    launcher_script = os.path.join(ctx.bench_dir, "traced_cli.py")
    tracer = Tracer()
    traced = []
    replay = blocks(os.path.join(ctx.tmp, "kb-traced"))
    while len(traced) < len(untraced):
        for item in next(replay):
            spans = os.path.join(ctx.tmp, "spans-%d.json" % len(traced))
            latency, outcome = send(item, launcher=(launcher_script, spans))
            with open(spans) as stream:
                tracer.merge(json.load(stream), len(traced))
            traced.append((item, latency, outcome))
    judge(untraced)
    judge(traced)
    metrics = layer_metrics(tracer)
    metrics.update(import_metrics(ctx))
    base = sum(latency for _, latency, _ in untraced[:len(traced)])
    metrics["trace.overhead_frac"] = sum(latency for _, latency, _ in traced) / base - 1.0
    ctx.details["attributed_fraction"] = attributed_fraction(tracer)
    ctx.write_trace(tracer)
    return metrics


WORKLOADS = {
    "zoo_library": zoo_library,
    "daemon_warm": daemon_warm,
    "cli_kb": cli_kb,
}
