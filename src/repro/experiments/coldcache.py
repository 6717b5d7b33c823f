"""Coldcache: a mid-trace deploy resets the embedding cache.

Rolling out a new model build flushes the pinned hot set: the first queries
after the deploy miss everything the cache used to hold and pay DRAM for
the whole Zipf head, then the cache re-warms as rows are touched.  This
scenario replays the diurnal trace with a deploy at ``DEPLOY_STEP``:
``warm_fraction`` drops to 0 and climbs back linearly over
``REWARM_STEPS`` steps, so every policy serves a window of inflated
service times on the descending shoulder of the daily peak.

Decisions stay load-driven; the scenario only changes what the chosen
paths *pay*.  The static baseline, pinned to the path provisioned for the
median load, eats the cold window at full quality-path service and
violates heavily; the online router is already on a faster path when the
deploy lands (the diurnal peak pushed it there), which is exactly the
provisioning slack a cold cache needs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.cache_scenarios import BASE, build_table, hit_rate_notes
from repro.experiments.common import ExperimentResult
from repro.experiments.router_online import SLA_MS, compare_policies, result_row
from repro.serving.trace import diurnal_trace

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Coldcache: post-deploy cache reset re-warming under diurnal load"
PAPER_REF = "Cache-aware serving extension (stochastic service times)"
TAGS = ("serving-online", "serving", "cache", "criteo")

#: Diurnal-trace shape (the router experiment's diurnal cycle).
NUM_STEPS = 96
STEP_SECONDS = 60.0
BASE_QPS = 150.0
PEAK_QPS = 5000.0
NOISE = 0.05

#: The deploy lands on the descending shoulder of the daily peak (~4k QPS)
#: and the cache re-warms linearly over the next REWARM_STEPS steps.
DEPLOY_STEP = 60
REWARM_STEPS = 12


def build_trace(seed: int = 0):
    """The diurnal trace the deploy interrupts."""
    return diurnal_trace(
        num_steps=NUM_STEPS,
        step_seconds=STEP_SECONDS,
        base_qps=BASE_QPS,
        peak_qps=PEAK_QPS,
        noise=NOISE,
        seed=seed,
    )


def service_steps(num_steps: int = NUM_STEPS) -> list:
    """Per-step cache state: warm, then a reset ramping back to warm.

    Step ``DEPLOY_STEP`` serves with ``warm_fraction = 0`` (every formerly
    pinned row misses); each following step restores ``1 / REWARM_STEPS``
    of the hot set until the cache is fully warm again.
    """
    steps = []
    for t in range(num_steps):
        if t < DEPLOY_STEP:
            steps.append(BASE)
        else:
            warm = min(1.0, (t - DEPLOY_STEP) / REWARM_STEPS)
            steps.append(replace(BASE, warm_fraction=warm))
    return steps


def run(seed: int = 0) -> ExperimentResult:
    """Replay the deploy window under static/oracle/online; report recovery."""
    table = build_table(seed)
    trace = build_trace(seed)
    policies = compare_policies(table, trace, service_steps=service_steps(trace.num_steps))
    result = ExperimentResult(name="coldcache")
    for routing in policies.values():
        result.add(**result_row(trace, routing))
    static, online = policies["static"], policies["online"]
    result.note(
        f"cache reset at step {DEPLOY_STEP} (load ~{trace.qps[DEPLOY_STEP]:.0f} QPS), "
        f"linear re-warm over {REWARM_STEPS} steps; sla {SLA_MS:.0f} ms"
    )
    result.note(
        "coldcache headline: online holds the SLA through the cold window "
        f"while static violates: static {static.violation_rate:.3f} -> "
        f"online {online.violation_rate:.3f} ({online.num_switches} switches); "
        "the oracle is clairvoyant about load only, so the reset costs it "
        f"{policies['oracle'].violation_rate:.3f}"
    )
    for line in hit_rate_notes(table):
        result.note(line)
    return result


if __name__ == "__main__":
    print(run().format_table())
