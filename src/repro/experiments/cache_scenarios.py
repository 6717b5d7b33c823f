"""Shared harness for the cache-state scenario experiments.

The two registry scenarios built on the stochastic service-time model
(:mod:`repro.serving.service_times`) share everything except the trace and
the per-step cache state:

* **flashcrowd** (:mod:`repro.experiments.flashcrowd`) — a traffic spike
  whose queries also shift popularity onto previously cold rows, so the
  spike steps pay DRAM/SSD misses on top of the extra load.
* **coldcache** (:mod:`repro.experiments.coldcache`) — a mid-trace deploy
  resets the on-chip cache, which then re-warms linearly over a few steps.

Both compile one :class:`~repro.serving.router.PathTable` whose default
service model is the warm baseline (``BASE``) and replay the trace through
:func:`~repro.experiments.router_online.compare_policies`, which evaluates
every policy's schedule under the scenario's per-step service configs
(``service_steps``): no policy gets a cleaner cache than another.  The
router stays purely load-driven — it never observes the cache state — so
any win it shows is earned by reacting to load, not by peeking at the
scenario script.  The oracle is likewise clairvoyant about *load only*: its per-step choices come
from the warm-baseline table, so a cold cache can cost it too.

Every scenario's notes report the *measured* hit rate of each sampled
(path, cache state) pair next to the Zipf closed form
(:meth:`~repro.serving.router.PathTable.service_stats`): the feedback loop
that replaces trusting the analytic rate.
"""

from __future__ import annotations

from repro.experiments import router_online
from repro.serving.router import PathTable
from repro.serving.service_times import CachedServiceConfig

#: The warm steady-state cache every table is compiled under.
BASE = CachedServiceConfig()


def build_table(seed: int = 0) -> PathTable:
    """Compile the router experiment's table under the warm cached model."""
    return router_online.build_table(seed, service=BASE)


def hit_rate_notes(table: PathTable) -> list[str]:
    """Measured-vs-closed-form hit rate per sampled cache state.

    The measured rate comes from counting simulated cache hits
    (:attr:`~repro.serving.service_times.ServiceTimeSampler.measured_hit_rate`),
    the analytic rate from the Zipf closed form — reporting both keeps any
    drift between the model and the formula visible.  Tallies of paths
    sharing a cache state are pooled into one line per state.
    """
    pooled: dict[tuple[int, float], tuple[int, int, float]] = {}
    for row in table.service_stats():
        config = row["service"]
        key = (config.shift_items, config.warm_fraction)
        accesses, hits, _ = pooled.get(key, (0, 0, 0.0))
        pooled[key] = (
            accesses + row["accesses"],
            hits + row["hits"],
            row["analytic_hit_rate"],
        )
    lines = []
    for (shift, warm), (accesses, hits, analytic) in sorted(pooled.items()):
        measured = hits / accesses if accesses else 0.0
        lines.append(
            f"hit rate [shift={shift}, warm={warm:.2f}]: measured {measured:.4f} "
            f"over {accesses} simulated lookups vs Zipf closed form {analytic:.4f}"
        )
    return lines
