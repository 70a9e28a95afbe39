"""The assertion checking framework (Fig. 1 of the paper).

:class:`AssertionChecker` ties everything together: it compiles the property
into monitor logic, unrolls the design over increasing numbers of time
frames, runs the word-level ATPG justification with the modular arithmetic
solver in the loop, validates any generated trace by simulation, and reports
the verdict together with run-time / memory statistics (Table 2).

Exports are lazy (PEP 562), so importing a light module such as
:mod:`repro.checker.result` does not load the engine.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AssertionChecker": "repro.checker.engine",
    "CheckerOptions": "repro.checker.engine",
    "UnrolledModelCache": "repro.checker.incremental",
    "shared_model_cache": "repro.checker.incremental",
    "CheckResult": "repro.checker.result",
    "CheckStatus": "repro.checker.result",
    "Counterexample": "repro.checker.result",
    "ResourceMeter": "repro.checker.stats",
    "CheckStatistics": "repro.checker.stats",
    "memory_tracing": "repro.checker.stats",
    "format_result": "repro.checker.report",
    "format_results_table": "repro.checker.report",
    "result_to_dict": "repro.checker.report",
    "results_to_json": "repro.checker.report",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
