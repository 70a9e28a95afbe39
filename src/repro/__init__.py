"""repro -- word-level ATPG + modular arithmetic assertion checking.

A from-scratch Python reproduction of

    Huang & Cheng, "Assertion Checking by Combined Word-level ATPG and
    Modular Arithmetic Constraint-Solving Techniques", DAC 2000.

The package provides:

* a word-level RTL netlist and builder API (:mod:`repro.netlist`),
* a Verilog-subset front end (:mod:`repro.hdl`),
* three-valued word-level implication (:mod:`repro.implication`) over the
  cube/interval domain of :mod:`repro.bitvector`,
* the branch-and-bound word-level ATPG (:mod:`repro.atpg`),
* the modular arithmetic constraint solver (:mod:`repro.modsolver`),
* assertion / witness properties and environments (:mod:`repro.properties`),
* the top-level checker (:mod:`repro.checker`),
* baseline engines for comparison (:mod:`repro.baselines`),
* a compiled bit-parallel simulation kernel (:mod:`repro.sim`),
* the paper's benchmark designs and properties (:mod:`repro.circuits`).

The supported import surface for library users is the facade
(:mod:`repro.api`), re-exported here: build one serialisable
:class:`CheckRequest`, run it with :func:`check` / :func:`check_batch`, and
read the unified :class:`CheckReport`.  Internal modules such as
``repro.checker.engine`` stay importable but are not a stability contract.

Quickstart::

    from repro import Circuit, Assertion, Signal, build_request, check

    c = Circuit("demo")
    a = c.input("a", 4)
    b = c.input("b", 4)
    c.output(c.add(a, b), name="total")

    request = build_request(c, Assertion("no_overflow", Signal("total") >= Signal("a")))
    report = check(request)

Exports are lazy (PEP 562): ``import repro`` loads nothing else until a
name is first read, so thin clients such as ``repro submit`` do not pay for
the checking engine.
"""

from repro._lazy import lazy_exports

__version__ = "0.3.0"

_API_NAMES = (
    "CheckReport", "CheckRequest", "CircuitRef", "PropertySpec",
    "PropertyVerdict", "RequestError", "build_request", "check", "check_batch",
)
_PROPERTY_NAMES = (
    "Assertion", "Witness", "Signal", "Const", "And", "Or", "Not", "Implies",
    "Delayed", "OneHot", "AtMostOneHot", "Environment",
)
_EXPORTS = {
    "api": "repro.api",
    **{name: "repro.api" for name in _API_NAMES},
    "BV3": "repro.bitvector",
    "ValueRange": "repro.bitvector",
    "Circuit": "repro.netlist",
    "NetKind": "repro.netlist",
    **{name: "repro.properties" for name in _PROPERTY_NAMES},
    "AssertionChecker": "repro.checker",
    "CheckerOptions": "repro.checker",
    "CheckResult": "repro.checker",
    "CheckStatus": "repro.checker",
    "Simulator": "repro.simulation",
    "BitParallelSim": "repro.sim",
    "compile_circuit": "repro.sim",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [*_EXPORTS, "__version__"]
