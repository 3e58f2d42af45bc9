"""Correctness line of defense: oracles, invariant audits, differential replay.

The paper frames cache servers as "strong lines of defense" against
origin traffic; this package is the analogous defense for the
*reproduction itself*.  Every optimization in the simulation core
(broadcast replay, alpha-collapsing, process pools, heap-ordered
eviction, EWMA virtual keys) is a way to be silently wrong, so each
online algorithm gets:

* an **oracle** (:mod:`repro.verify.oracles`) — a deliberately slow,
  transparent reference implementation derived straight from the
  paper's equations, using plain dicts and linear min-scans;
* an **invariant audit** (:mod:`repro.verify.audit`) — a wrapper
  enforcing per-request conservation laws on any
  :class:`~repro.core.base.VideoCache`;
* **differential replay** (:mod:`repro.verify.differential`) — fast
  implementation and oracle driven through the same trace, their
  decision/fill/evict streams and metric totals compared byte for
  byte, with greedy delta-debugging down to a minimal counterexample
  on divergence;
* **adversarial fuzzing** (:mod:`repro.verify.fuzz`) — seeded trace
  generators aimed at the historically bug-prone corners: timestamp
  ties, zero-gap bursts, oversized requests, 1-chunk disks, odd chunk
  sizes and alpha extremes;
* **fault fuzzing** (:mod:`repro.verify.faultcheck`) — seeded random
  fault schedules (outages, cold restarts, degraded links, brownouts)
  replayed over 1–3 server topologies with audited caches, checking
  the invariants hold under failover and that an empty schedule is
  byte-identical to no schedule at all.

The ``repro-verify`` CLI entry point wires these together.
"""

from repro.verify.audit import AuditedCache, InvariantViolation
from repro.verify.differential import (
    DifferentialResult,
    Divergence,
    diff_replay,
    dump_counterexample,
    load_counterexample,
    replay_counterexample,
    shrink_trace,
    verify_algorithm,
)
from repro.verify.faultcheck import (
    FaultCheckResult,
    FaultScenario,
    fault_scenarios,
    run_fault_fuzz,
    run_fault_scenario,
)
from repro.verify.fuzz import FuzzScenario, adversarial_trace, scenario_matrix
from repro.verify.oracles import ORACLE_FACTORIES, build_oracle

__all__ = [
    "AuditedCache",
    "InvariantViolation",
    "DifferentialResult",
    "Divergence",
    "diff_replay",
    "dump_counterexample",
    "load_counterexample",
    "replay_counterexample",
    "shrink_trace",
    "verify_algorithm",
    "FaultCheckResult",
    "FaultScenario",
    "fault_scenarios",
    "run_fault_fuzz",
    "run_fault_scenario",
    "FuzzScenario",
    "adversarial_trace",
    "scenario_matrix",
    "ORACLE_FACTORIES",
    "build_oracle",
]
