"""The paper's fourteen property cases (p1-p14) ready to run.

Each :class:`PropertyCase` bundles a circuit builder, the property, its
environment / initial-state configuration, the unrolling bound and the
verdict the paper reports (every assertion holds; every witness exists).
``build_case`` instantiates the circuit fresh so cases never share state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.checker.result import CheckResult, CheckStatus
from repro.circuits.addr_decoder import build_addr_decoder
from repro.circuits.alarm_clock import build_alarm_clock
from repro.circuits.arbiter import build_arbiter
from repro.circuits.industry import (
    build_industry_01,
    build_industry_02,
    build_industry_03,
    build_industry_04,
    build_industry_05,
    build_industry_06,
)
from repro.circuits.token_ring import build_token_ring
from repro.netlist.circuit import Circuit, CircuitStats
from repro.properties.environment import Environment
from repro.properties.spec import (
    And,
    Assertion,
    AtMostOneHot,
    Delayed,
    Implies,
    Not,
    OneHot,
    Property,
    Signal,
    Witness,
)


@dataclass
class PreparedCase:
    """A fully instantiated property case ready for the checker."""

    case_id: str
    design: str
    circuit: Circuit
    prop: Property
    environment: Environment
    initial_state: Optional[Dict[str, int]]
    max_frames: int
    expected_status: CheckStatus
    description: str


@dataclass
class PropertyCase:
    """Description of one paper property (builder + expected verdict)."""

    case_id: str
    design: str
    description: str
    expected_status: CheckStatus
    max_frames: int
    builder: Callable[[], PreparedCase] = field(repr=False, default=None)

    def build(self) -> PreparedCase:
        """Instantiate the circuit, property and environment for this case."""
        return self.builder()


# ----------------------------------------------------------------------
# Case builders
# ----------------------------------------------------------------------
def _case_p1() -> PreparedCase:
    ports = build_addr_decoder()
    target_cell, target_value = 3, 9
    prop = Witness(
        "p1",
        Signal("cell_%d" % target_cell) == target_value,
        description="a selected memory cell can be written with a chosen value",
    )
    return PreparedCase(
        "p1", "addr_decoder", ports.circuit, prop, Environment(), None, 4,
        CheckStatus.WITNESS_FOUND, prop.description,
    )


def _case_p2() -> PreparedCase:
    ports = build_addr_decoder()
    selects = [Signal(net.name) for net in ports.selects]
    prop = Assertion(
        "p2",
        AtMostOneHot(*selects),
        description="no two address select lines are active simultaneously",
    )
    return PreparedCase(
        "p2", "addr_decoder", ports.circuit, prop, Environment(), None, 3,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p3() -> PreparedCase:
    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    prop = Assertion("p3", OneHot(*grants), description="bus-select signals are one-hot")
    return PreparedCase(
        "p3", "token_ring", ports.circuit, prop, Environment(), None, 4,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p4() -> PreparedCase:
    ports = build_token_ring()
    last = len(ports.grants) - 1
    prop = Witness(
        "p4",
        Signal(ports.grants[last].name) == 1,
        description="the last client is granted the bus after a bounded wait",
    )
    return PreparedCase(
        "p4", "token_ring", ports.circuit, prop, Environment(), None,
        len(ports.grants) + 1, CheckStatus.WITNESS_FOUND, prop.description,
    )


def _case_p5() -> PreparedCase:
    ports = build_arbiter()
    grants = [Signal(net.name) for net in ports.grants]
    prop = Assertion("p5", OneHot(*grants), description="arbiter grants are one-hot")
    return PreparedCase(
        "p5", "arbiter", ports.circuit, prop, Environment(), None, 4,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p6() -> PreparedCase:
    ports = build_arbiter()
    target = len(ports.grants) - 1
    prop = Witness(
        "p6",
        And(Signal(ports.grants[target].name) == 1, Signal("req_%d" % target) == 1),
        description="a waiting client is eventually granted the bus",
    )
    return PreparedCase(
        "p6", "arbiter", ports.circuit, prop, Environment(), None,
        len(ports.grants) + 2, CheckStatus.WITNESS_FOUND, prop.description,
    )


def _case_p7() -> PreparedCase:
    ports = build_alarm_clock(free_initial_state=True)
    environment = Environment()
    # Any *valid* display state is allowed as the starting state.
    environment.assume(And(Signal("hour") >= 1, Signal("hour") <= 12))
    environment.assume(Signal("minute") <= 59)
    passed_1159 = And(
        Signal("hour") == 11,
        Signal("minute") == 59,
        Signal("tick") == 1,
        Signal("set_time") == 0,
    )
    prop = Assertion(
        "p7",
        Implies(Delayed(passed_1159), And(Signal("hour") == 12, Signal("minute") == 0)),
        description="after the clock passes 11:59 it resets to 12:00",
    )
    return PreparedCase(
        "p7", "alarm_clock", ports.circuit, prop, environment, None, 3,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p8() -> PreparedCase:
    ports = build_alarm_clock()
    prop = Witness(
        "p8",
        Signal("hour") == 2,
        description="the hour display reaches 2 after power-on",
    )
    return PreparedCase(
        "p8", "alarm_clock", ports.circuit, prop, Environment(), None, 5,
        CheckStatus.WITNESS_FOUND, prop.description,
    )


def _case_p9() -> PreparedCase:
    ports = build_alarm_clock()
    prop = Assertion(
        "p9",
        And(Signal("hour") >= 1, Signal("hour") <= 12),
        description="the hour display can never show 13 (or any invalid value)",
    )
    return PreparedCase(
        "p9", "alarm_clock", ports.circuit, prop, Environment(), None, 5,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p10() -> PreparedCase:
    ports = build_industry_01()
    prop = Assertion(
        "p10",
        Signal("mode") <= 4,
        description="the internal don't-care mode encodings are unreachable",
    )
    return PreparedCase(
        "p10", "industry_01", ports.circuit, prop, Environment(), None, 4,
        CheckStatus.HOLDS, prop.description,
    )


def _contention_expr(enables: List[str], data: List[str]):
    """No two enabled drivers present different data values."""
    terms = []
    for i in range(len(enables)):
        for j in range(i + 1, len(enables)):
            terms.append(
                Not(
                    And(
                        Signal(enables[i]) == 1,
                        Signal(enables[j]) == 1,
                        Signal(data[i]) != Signal(data[j]),
                    )
                )
            )
    return terms[0] if len(terms) == 1 else And(*terms)


def _case_p11() -> PreparedCase:
    ports = build_industry_02()
    prop = Assertion(
        "p11",
        _contention_expr([n.name for n in ports.enables], [n.name for n in ports.driver_data]),
        description="no bus contention: decoded enables are one-hot",
    )
    return PreparedCase(
        "p11", "industry_02", ports.circuit, prop, Environment(), None, 3,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p12() -> PreparedCase:
    ports = build_industry_03()
    prop = Assertion(
        "p12",
        _contention_expr([n.name for n in ports.enables], [n.name for n in ports.driver_data]),
        description="no bus contention: overlapping drivers carry consensus data",
    )
    return PreparedCase(
        "p12", "industry_03", ports.circuit, prop, Environment(), None, 3,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p13() -> PreparedCase:
    ports = build_industry_04()
    environment = Environment()
    environment.one_hot([net.name for net in ports.enables])
    prop = Assertion(
        "p13",
        _contention_expr([n.name for n in ports.enables], [n.name for n in ports.driver_data]),
        description="no bus contention under the one-hot enable environment",
    )
    return PreparedCase(
        "p13", "industry_04", ports.circuit, prop, environment, None, 3,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p14() -> PreparedCase:
    ports = build_industry_05()
    state_bits = [Signal("state_idle"), Signal("state_busy"), Signal("state_done")]
    prop = Assertion(
        "p14",
        OneHot(*state_bits),
        description="the controller's non-one-hot (don't-care) states are unreachable",
    )
    return PreparedCase(
        "p14", "industry_05", ports.circuit, prop, Environment(), None, 5,
        CheckStatus.HOLDS, prop.description,
    )


def _case_p15() -> PreparedCase:
    ports = build_industry_06()
    prop = Assertion(
        "p15",
        Not(
            And(
                Signal(ports.sum_direct.name) == 7,
                Signal(ports.sum_cross.name) == 9,
            )
        ),
        description="the cross-checked checksums never report the (7, 9) sentinel pair",
    )
    return PreparedCase(
        "p15", "industry_06", ports.circuit, prop, Environment(), None, 3,
        CheckStatus.HOLDS, prop.description,
    )


_CASE_BUILDERS: Dict[str, Tuple[str, str, CheckStatus, int, Callable[[], PreparedCase]]] = {
    "p1": ("addr_decoder", "write a selected memory cell", CheckStatus.WITNESS_FOUND, 4, _case_p1),
    "p2": ("addr_decoder", "address selects never overlap", CheckStatus.HOLDS, 3, _case_p2),
    "p3": ("token_ring", "bus selects are one-hot", CheckStatus.HOLDS, 4, _case_p3),
    "p4": ("token_ring", "every client gets the bus", CheckStatus.WITNESS_FOUND, 7, _case_p4),
    "p5": ("arbiter", "grants are one-hot", CheckStatus.HOLDS, 4, _case_p5),
    "p6": ("arbiter", "a waiting client is granted", CheckStatus.WITNESS_FOUND, 6, _case_p6),
    "p7": ("alarm_clock", "11:59 rolls over to 12:00", CheckStatus.HOLDS, 3, _case_p7),
    "p8": ("alarm_clock", "hour display reaches 2", CheckStatus.WITNESS_FOUND, 5, _case_p8),
    "p9": ("alarm_clock", "hour never shows 13", CheckStatus.HOLDS, 5, _case_p9),
    "p10": ("industry_01", "don't-care modes unreachable", CheckStatus.HOLDS, 4, _case_p10),
    "p11": ("industry_02", "no bus contention (decoded)", CheckStatus.HOLDS, 3, _case_p11),
    "p12": ("industry_03", "no bus contention (consensus)", CheckStatus.HOLDS, 3, _case_p12),
    "p13": ("industry_04", "no bus contention (one-hot env)", CheckStatus.HOLDS, 3, _case_p13),
    "p14": ("industry_05", "don't-care states unreachable", CheckStatus.HOLDS, 5, _case_p14),
}

#: cases beyond the paper's fourteen -- workloads grown by this repo.
#: ``p15`` is the datapath-certificate sweep: every justification leaf is
#: refuted by the modular solver, so it exercises infeasibility-certificate
#: learning (and is the workload of the datapath rows in bench_learning).
_EXTENDED_CASE_BUILDERS: Dict[str, Tuple[str, str, CheckStatus, int, Callable[[], PreparedCase]]] = {
    "p15": ("industry_06", "checksum sentinel pair unreachable", CheckStatus.HOLDS, 3, _case_p15),
}


def all_case_ids() -> List[str]:
    """The fourteen property identifiers in paper order."""
    return list(_CASE_BUILDERS.keys())


def extended_case_ids() -> List[str]:
    """Identifiers of the repo's extra (non-paper) property cases."""
    return list(_EXTENDED_CASE_BUILDERS.keys())


def all_cases() -> List[PropertyCase]:
    """Descriptors (without instantiating circuits) for all fourteen cases."""
    cases = []
    for case_id, (design, description, expected, frames, builder) in _CASE_BUILDERS.items():
        cases.append(
            PropertyCase(
                case_id=case_id,
                design=design,
                description=description,
                expected_status=expected,
                max_frames=frames,
                builder=builder,
            )
        )
    return cases


def build_case(case_id: str) -> PreparedCase:
    """Instantiate one property case (``"p1"`` .. ``"p14"``, or extended)."""
    entry = _CASE_BUILDERS.get(case_id)
    if entry is None:
        entry = _EXTENDED_CASE_BUILDERS.get(case_id)
    if entry is None:
        raise KeyError(
            "unknown property case %r (valid: p1..p14 and extended %s)"
            % (case_id, ", ".join(_EXTENDED_CASE_BUILDERS))
        )
    return entry[4]()


def table2_result(case_id: str) -> Tuple[PreparedCase, CheckResult]:
    """Check one case at its paper bound and return its Table 2 row.

    The case runs twice, each time on a freshly built circuit so neither
    run reuses the other's unrolled models or learned facts: once unmetered
    for the cpu column, and once under allocation tracing for the memory
    column (tracing slows a check several times over, so one metered run
    cannot honestly supply both).  The returned result is the unmetered one,
    carrying the metered run's peak memory.  Raises ``RuntimeError`` if the
    two runs disagree on the verdict.
    """
    from repro.checker.engine import AssertionChecker, CheckerOptions
    from repro.checker.stats import memory_tracing

    def run() -> Tuple[PreparedCase, CheckResult]:
        case = build_case(case_id)
        checker = AssertionChecker(
            case.circuit,
            environment=case.environment,
            initial_state=case.initial_state,
            options=CheckerOptions(max_frames=case.max_frames),
        )
        return case, checker.check(case.prop)

    case, timed = run()
    with memory_tracing():
        _, metered = run()
    if metered.status is not timed.status:
        raise RuntimeError(
            "%s: unmetered run says %s but metered run says %s"
            % (case_id, timed.status.value, metered.status.value)
        )
    timed.statistics.peak_memory_mb = metered.statistics.peak_memory_mb
    timed.statistics.memory_measured = metered.statistics.memory_measured
    return case, timed


def circuit_statistics() -> List[CircuitStats]:
    """Statistics of every benchmark design (the Table 1 reproduction)."""
    builders = [
        build_addr_decoder,
        build_token_ring,
        build_arbiter,
        build_alarm_clock,
        build_industry_01,
        build_industry_02,
        build_industry_03,
        build_industry_04,
        build_industry_05,
    ]
    return [builder().circuit.stats() for builder in builders]
