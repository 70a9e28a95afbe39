"""Differential testing: independent engines must agree on small designs.

The word-level ATPG checker (bounded) and the BDD symbolic reachability
checker (exact over the reachable state space) are run on the same randomly
generated small sequential circuits and the same properties.  With the
unrolling bound set beyond the state-space diameter the verdicts must
coincide; any disagreement indicates a soundness bug in one of the engines,
which is exactly what this suite is designed to surface.  The SAT bounded
model checker joins the comparison on the violation cases (where its DPLL
search is cheap); its exhaustive UNSAT proofs over deep unrollings are
exercised separately in ``test_baselines.py``.
"""

import random

import pytest

from repro.baselines import BddSymbolicChecker, SATBoundedChecker
from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.netlist import Circuit
from repro.properties import Assertion, Signal, Witness
from repro.simulation import Simulator


def build_random_circuit(seed: int) -> Circuit:
    """A small random sequential design with one 3-bit state register.

    The next-state logic mixes arithmetic, bit-wise and comparator/mux
    primitives so every implication rule family participates.
    """
    rng = random.Random(seed)
    circuit = Circuit("random_%d" % seed)
    a = circuit.input("a", 3)
    b = circuit.input("b", 3)
    state = circuit.state("state", 3)

    terms = [a, b, state]
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["add", "sub", "and", "or", "xor", "mux"])
        x = rng.choice(terms)
        y = rng.choice(terms)
        if kind == "add":
            terms.append(circuit.add(x, y))
        elif kind == "sub":
            terms.append(circuit.sub(x, y))
        elif kind == "and":
            terms.append(circuit.and_(x, y))
        elif kind == "or":
            terms.append(circuit.or_(x, y))
        elif kind == "xor":
            terms.append(circuit.xor(x, y))
        else:
            select = circuit.lt(x, rng.randint(1, 6))
            terms.append(circuit.mux(select, x, y))

    next_state = terms[-1]
    circuit.dff_into(state, next_state, init_value=rng.randint(0, 7))
    circuit.output(state)
    return circuit


def _normalise(status: CheckStatus) -> str:
    """Collapse the verdict to 'reachable' / 'unreachable' for comparison."""
    if status in (CheckStatus.FAILS, CheckStatus.WITNESS_FOUND):
        return "reachable"
    if status in (CheckStatus.HOLDS, CheckStatus.WITNESS_NOT_FOUND):
        return "unreachable"
    return "aborted"


#: Enough frames to cover the full diameter of a 3-bit state space.
BOUND = 9


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("target", [0, 3, 7])
def test_engines_agree_on_state_reachability(seed, target):
    prop = Assertion("never_%d" % target, Signal("state") != target)

    word = AssertionChecker(
        build_random_circuit(seed), options=CheckerOptions(max_frames=BOUND)
    ).check(prop)
    bdd = BddSymbolicChecker(build_random_circuit(seed)).check(prop)

    verdicts = {
        "word": _normalise(word.status),
        "bdd": _normalise(bdd.status),
    }
    assert "aborted" not in verdicts.values(), verdicts
    assert len(set(verdicts.values())) == 1, "engines disagree: %s (seed %d, target %d)" % (
        verdicts,
        seed,
        target,
    )

    if verdicts["word"] == "reachable":
        # The word-level engine's trace must really reach the value
        # (independent replay through the simulator).
        trace = word.counterexample
        assert trace is not None and trace.validated
        simulator = Simulator(build_random_circuit(seed), initial_state=trace.initial_state)
        values = [simulator.step(vector) for vector in trace.inputs]
        assert values[trace.target_frame]["state"] == target
        # The SAT bounded checker must also find the violation (SAT answers
        # on satisfiable instances are cheap even for the naive DPLL).
        sat = SATBoundedChecker(build_random_circuit(seed), max_frames=BOUND).check(prop)
        assert _normalise(sat.status) == "reachable"
        assert sat.trace_inputs is not None


@pytest.mark.parametrize("seed", range(6))
def test_witness_searches_agree(seed):
    prop = Witness("reach_five", Signal("state") == 5)
    word = AssertionChecker(
        build_random_circuit(seed), options=CheckerOptions(max_frames=BOUND)
    ).check(prop)
    bdd = BddSymbolicChecker(build_random_circuit(seed)).check(prop)
    assert _normalise(word.status) == _normalise(bdd.status)


@pytest.mark.parametrize("seed", [3, 15, 17, 38])
def test_shared_guided_checker_matches_fresh_checkers(seed):
    """One FSM-guided checker reused across properties gives every property
    the verdict a fresh default checker gives it: no pruning fact learned
    for one property may leak into another."""
    bound = 6
    shared = AssertionChecker(
        build_random_circuit(seed),
        options=CheckerOptions(max_frames=bound, use_local_fsm_guidance=True),
    )
    for target in range(8):
        for prop in (
            Witness("reach_%d" % target, Signal("state") == target),
            Assertion("never_%d" % target, Signal("state") != target),
        ):
            fresh = AssertionChecker(
                build_random_circuit(seed), options=CheckerOptions(max_frames=bound)
            ).check(prop)
            assert shared.check(prop).status is fresh.status, prop.name
