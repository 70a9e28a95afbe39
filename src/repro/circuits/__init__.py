"""The paper's benchmark designs and assertion properties (Table 1 / Table 2).

The four public designs (addr_decoder, token_ring, arbiter, alarm_clock) are
reimplemented from the paper's functional descriptions; the five industrial
designs are synthetic generators reproducing the published structure classes
(wide tri-state buses with one-hot or consensus drivers, internal don't-care
control blocks) at configurable scale.  See DESIGN.md for the substitution
rationale.

:mod:`repro.circuits.properties` defines the 14 property cases p1-p14 with
their environments, initial states and expected verdicts.
"""

from repro.circuits.addr_decoder import build_addr_decoder
from repro.circuits.token_ring import build_token_ring
from repro.circuits.arbiter import build_arbiter
from repro.circuits.alarm_clock import build_alarm_clock
from repro.circuits.industry import (
    build_industry_01,
    build_industry_02,
    build_industry_03,
    build_industry_04,
    build_industry_05,
    build_industry_06,
)
from repro.circuits.properties import (
    PropertyCase,
    all_case_ids,
    build_case,
    all_cases,
    circuit_statistics,
    extended_case_ids,
    table2_result,
)

__all__ = [
    "build_addr_decoder",
    "build_token_ring",
    "build_arbiter",
    "build_alarm_clock",
    "build_industry_01",
    "build_industry_02",
    "build_industry_03",
    "build_industry_04",
    "build_industry_05",
    "build_industry_06",
    "PropertyCase",
    "all_case_ids",
    "all_cases",
    "build_case",
    "circuit_statistics",
    "extended_case_ids",
    "table2_result",
]
