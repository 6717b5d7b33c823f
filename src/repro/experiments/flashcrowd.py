"""Flashcrowd: a traffic spike whose popularity shifts onto cold rows.

A flash crowd does not just add load — it changes *what* is popular.  This
scenario replays the router's spike trace, but from the spike onward every
query's Zipf head is rotated onto rows the cache never held
(``shift_items``), so the spike steps pay DRAM misses on top of the extra
traffic: per-query service inflates exactly when load peaks.

The policies decide from load alone (the router never sees the cache), yet
the headline holds: the online router's SLA-violation rate stays well below
the best-static baseline's, because switching off the saturating
top-quality path is the right call whether the extra latency comes from
queueing or from misses.  The headline note asserts the comparison
explicitly and CI gates on it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.cache_scenarios import BASE, build_table, hit_rate_notes
from repro.experiments.common import ExperimentResult
from repro.experiments.router_online import SLA_MS, compare_policies, result_row
from repro.serving.trace import spike_trace

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Flashcrowd: popularity shift onto cold rows during a traffic spike"
PAPER_REF = "Cache-aware serving extension (stochastic service times)"
TAGS = ("serving-online", "serving", "cache", "criteo")

#: Rows the Zipf head rotates onto from the spike onward.  14k of the 20k
#: pinned hot rows keeps the inflation moderate (~1.2x mean service): the
#: fast fallback path retains enough headroom to absorb the 5.5k QPS
#: plateau, so re-selection can still win — a full-head shift (>= hot_rows)
#: would saturate every path and leave nothing to route to.
SHIFT_ITEMS = 14_000

#: Spike-trace shape (the router experiment's spike, same seed semantics).
NUM_STEPS = 120
STEP_SECONDS = 60.0
BASE_QPS = 150.0
SPIKE_QPS = 5500.0
SPIKE_START = 40
SPIKE_STEPS = 20
NOISE = 0.03

#: Cache state of the spike steps: the same tier geometry, hot head rotated.
SHIFTED = replace(BASE, shift_items=SHIFT_ITEMS)


def build_trace(seed: int = 0):
    """The spike trace whose plateau carries the popularity shift."""
    return spike_trace(
        num_steps=NUM_STEPS,
        step_seconds=STEP_SECONDS,
        base_qps=BASE_QPS,
        spike_qps=SPIKE_QPS,
        spike_start=SPIKE_START,
        spike_steps=SPIKE_STEPS,
        noise=NOISE,
        seed=seed,
    )


def service_steps(num_steps: int = NUM_STEPS) -> list:
    """Per-step cache state: warm until the spike, shifted from it onward.

    The shift persists past the plateau — the new items stay popular after
    the crowd's load subsides, which is what lets the cache re-warm onto
    them in steady state.
    """
    return [BASE if t < SPIKE_START else SHIFTED for t in range(num_steps)]


def run(seed: int = 0) -> ExperimentResult:
    """Replay the flashcrowd under static/oracle/online; assert the headline."""
    table = build_table(seed)
    trace = build_trace(seed)
    policies = compare_policies(table, trace, service_steps=service_steps(trace.num_steps))
    result = ExperimentResult(name="flashcrowd")
    for routing in policies.values():
        result.add(**result_row(trace, routing))
    static, online = policies["static"], policies["online"]
    result.note(
        f"spike plateau {SPIKE_QPS:.0f} QPS with the Zipf head shifted onto "
        f"{SHIFT_ITEMS} cold rows from step {SPIKE_START}; sla {SLA_MS:.0f} ms"
    )
    beats_static = online.violation_rate < static.violation_rate
    result.note(
        "flashcrowd headline: online beats best-static on SLA violations "
        f"under the popularity shift: {beats_static} "
        f"(static {static.violation_rate:.3f} -> online {online.violation_rate:.3f}, "
        f"{online.num_switches} switches)"
    )
    for line in hit_rate_notes(table):
        result.note(line)
    return result


if __name__ == "__main__":
    print(run().format_table())
