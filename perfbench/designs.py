"""Seeded generated designs whose verdicts are known by construction.

Every design is a single-register sequential module that starts at 0 and
moves at most one step per enabled cycle, so its reachable values and the
first frame at which each value appears follow from arithmetic alone:

* ``modcnt``  -- a mod-N counter: ``count`` visits 0, 1, ..., N-1, 0, ...
* ``credit``  -- a saturating credit counter: ``used`` climbs to C and stays.
* ``stride``  -- a modular accumulator ``acc <= acc + s`` with an even
  stride, so odd values are never reached.

Each design carries three properties checked at one bound:

* ``inv``  -- an invariant that holds on every reachable state;
* ``bad``  -- an assertion that first fails at a known depth;
* ``wit``  -- a witness first reachable at a known depth.

Both depths sit at least two frames inside the bound.  The Python
predicates in :class:`Prop` are the reference the benchmark judges replayed
traces by; they share no code with the checker or its property compiler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

BOUND = 6
#: the deepest frame a failing/witness target may sit at (two inside the bound)
MAX_DEPTH = BOUND - 3

FAMILIES = ("modcnt", "credit", "stride")


@dataclass(frozen=True)
class Prop:
    """One property of a generated design, with its answer by construction."""

    name: str
    kind: str  # "assertion" | "witness"
    expr: str  # property text as the CLI and the library accept it
    status: str  # expected CheckStatus value
    depth: int  # target frame of the expected trace (-1 for ``holds``)
    #: the property evaluated on one frame's simulated register value
    predicate: Callable[[int], bool]

    def cli_args(self) -> List[str]:
        flag = "--assert" if self.kind == "assertion" else "--witness"
        return [flag, "%s=%s" % (self.name, self.expr)]


@dataclass(frozen=True)
class Design:
    """A generated Verilog module plus its three properties."""

    name: str
    register: str
    verilog: str
    props: Tuple[Prop, ...]
    bound: int = BOUND

    def prop(self, name: str) -> Prop:
        for prop in self.props:
            if prop.name == name:
                return prop
        raise KeyError(name)

    def cli_args(self) -> List[str]:
        args: List[str] = []
        for prop in self.props:
            args += prop.cli_args()
        return args + ["--max-frames", str(self.bound)]


def _modcnt(name: str, n: int) -> str:
    return """module %s(input clk, input rst, input en, output [3:0] count);
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst)
      count <= 0;
    else if (en) begin
      if (count == %d)
        count <= 0;
      else
        count <= count + 1;
    end
  end
endmodule
""" % (name, n - 1)


def _credit(name: str, c: int) -> str:
    return """module %s(input clk, input rst, input take, output [3:0] used);
  reg [3:0] used;
  always @(posedge clk) begin
    if (rst)
      used <= 0;
    else if (take) begin
      if (used != %d)
        used <= used + 1;
    end
  end
endmodule
""" % (name, c)


def _stride(name: str, s: int) -> str:
    return """module %s(input clk, input rst, input en, output [4:0] acc);
  reg [4:0] acc;
  always @(posedge clk) begin
    if (rst)
      acc <= 0;
    else if (en)
      acc <= acc + %d;
  end
endmodule
""" % (name, s)


def make_design(name: str, family: str, param: int, bad_depth: int,
                wit_depth: int) -> Design:
    """Build one design; depths are frames (>= 1, <= :data:`MAX_DEPTH`)."""
    if not (1 <= bad_depth <= MAX_DEPTH and 1 <= wit_depth <= MAX_DEPTH):
        raise ValueError("depths must lie in 1..%d" % MAX_DEPTH)
    if family == "modcnt":
        # 0..N-1 in order; N > MAX_DEPTH so no wrap happens before a target.
        reg, text, top = "count", _modcnt(name, param), param - 1
        inv = ("%s <= %d" % (reg, top), lambda v, t=top: v <= t)
        value_at = lambda d: d  # noqa: E731
    elif family == "credit":
        # 0..C, saturating; C > MAX_DEPTH.
        reg, text, top = "used", _credit(name, param), param
        inv = ("%s <= %d" % (reg, top), lambda v, t=top: v <= t)
        value_at = lambda d: d  # noqa: E731
    elif family == "stride":
        # d * s, all distinct and below 32 for d <= MAX_DEPTH; s even.
        if param % 2 or param * MAX_DEPTH >= 32:
            raise ValueError("stride must be even and small")
        reg, text = "acc", _stride(name, param)
        inv = ("%s != 31" % reg, lambda v: v != 31)
        value_at = lambda d, s=param: d * s  # noqa: E731
    else:
        raise ValueError("unknown family %r" % (family,))
    bad_value, wit_value = value_at(bad_depth), value_at(wit_depth)
    props = (
        Prop("inv", "assertion", inv[0], "holds", -1, inv[1]),
        Prop("bad", "assertion", "%s != %d" % (reg, bad_value), "fails",
             bad_depth, lambda v, b=bad_value: v != b),
        Prop("wit", "witness", "%s == %d" % (reg, wit_value), "witness_found",
             wit_depth, lambda v, w=wit_value: v == w),
    )
    return Design(name, reg, text, props)


PARAMS: Dict[str, Tuple[int, ...]] = {
    "modcnt": (12, 13, 14),
    "credit": (12, 13, 14),
    "stride": (2, 4, 6),
}


def generate(seed: int, count: int, tag: str) -> List[Design]:
    """``count`` designs, the three families in equal share (seeded order).

    Every consecutive triple holds one design of each family, so any prefix
    of the list has the same family mix whatever the seed.
    """
    rng = random.Random("%s:%d" % (tag, seed))
    designs = []
    while len(designs) < count:
        families = list(FAMILIES)
        rng.shuffle(families)
        for family in families:
            if len(designs) == count:
                break
            designs.append(make_design(
                "%s_%s_%d" % (tag, family, len(designs)),
                family,
                rng.choice(PARAMS[family]),
                bad_depth=rng.randint(2, MAX_DEPTH),
                wit_depth=rng.randint(2, MAX_DEPTH),
            ))
    return designs


#: (family, parameter, bad depth, witness depth) of each daemon design.  A
#: warm daemon answers in milliseconds, and seeded parameters moved its
#: median latency by about a fifth from seed to seed, so they are fixed; the
#: seed names the designs and orders the request stream.
DAEMON_SLOTS = (("modcnt", 13, 3, 2), ("credit", 13, 2, 3), ("stride", 4, 3, 3),
                ("modcnt", 12, 2, 2))


def generate_fixed_mix(seed: int, tag: str) -> List[Design]:
    """One design per :data:`DAEMON_SLOTS` entry, named after the seed."""
    return [make_design("%s%d_%s_%d" % (tag, seed, family, index), family, param, bad, wit)
            for index, (family, param, bad, wit) in enumerate(DAEMON_SLOTS)]
