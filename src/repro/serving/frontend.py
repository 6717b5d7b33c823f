"""Per-query streaming frontend: admission control, dynamic batching, routing.

The step router (:mod:`repro.serving.router`) decides once per dwell step —
the coarse version of MP-Rec's per-query dynamic scheduler that picks a
representation + hardware path *per query* under load.  This module closes
that gap without giving up the router's analysis machinery:

* :class:`QueryStream` — individual query arrivals realized from a
  :class:`~repro.serving.trace.LoadTrace` (Poisson by default, or a
  deterministic evenly-paced process for exact tests);
* :class:`StreamingFrontend` — the per-query serving loop.  Arrivals are
  grouped into fixed-width decision windows; each window's path comes from
  the *same* estimator + hysteresis + switch-cost state machine the step
  router runs (:meth:`~repro.serving.router.MultiPathRouter.decide_from_estimates`),
  which is what makes the frontend's equivalence guarantee structural
  rather than statistical: with the window width equal to the trace's
  dwell step, the frontend's per-window path choices reproduce
  :meth:`~repro.serving.router.MultiPathRouter.decide` bit-for-bit.

Within a window every query passes **admission control** with three
outcomes:

* *admit* — served this window.  The admission cap is
  ``floor(max_feasible_qps(path) * window_seconds)`` queries, so the
  admitted rate can never exceed the chosen path's feasible frontier;
* *defer* — queued (FIFO) for a later window when the cap is exhausted,
  up to ``defer_windows`` windows' worth of capacity.  Deferred queries
  are admitted ahead of newer arrivals;
* *shed* — rejected at the door when the queue is full too.  Shed queries
  count as SLA violations and deliver zero quality.

Admitted queries are grouped into **dynamically sized batches** under the
SLA: at estimated load ``λ`` a batch of ``b`` takes about ``b / λ`` seconds
to fill, so the largest batch whose fill time fits the predicted headroom
is ``b = floor((sla − p99(path, λ)) · λ)``, clamped to ``[1, max_batch]``
(and to 1 whenever the path has no predicted headroom).

The schedule is count-based: admission, batching and path choice are all
per *window*, so no step of it touches individual queries.  Path
candidates for all windows come from one
:meth:`~repro.serving.router.PathTable.best_path_batch` call, batch sizes
from array arithmetic, and per-window arrival counts from one binary
search of the window edges over the arrival-sorted stream.  Only the
inherently sequential hysteresis/backlog state machine remains a scalar
loop over windows; it keeps per-window counts plus the FIFO backlog as
contiguous query-index intervals, and records each drained interval as a
``(lo, hi, serve_window)`` row.  Per-query arrays
(:attr:`FrontendSchedule.query_state` and friends) are rebuilt from those
counts and rows only when a caller asks for them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.serving.metrics import weighted_percentile
from repro.serving.router import MultiPathRouter, PathTable, RoutingResult, _event_log
from repro.serving.trace import LoadTrace

__all__ = [
    "QUERY_ADMITTED",
    "QUERY_DEFERRED",
    "QUERY_SHED",
    "ARRIVAL_PROCESSES",
    "FrontendResult",
    "FrontendSchedule",
    "QueryStream",
    "StreamingFrontend",
]

#: Admission states recorded per query in :attr:`FrontendSchedule.query_state`.
QUERY_SHED = 0
QUERY_ADMITTED = 1
QUERY_DEFERRED = 2

#: Arrival processes :meth:`QueryStream.from_trace` can realize.
ARRIVAL_PROCESSES = ("poisson", "paced")


@dataclass(frozen=True)
class QueryStream:
    """Individual query arrivals realized from a load trace.

    Parameters
    ----------
    trace_name : str
        Name of the generating trace, carried into artifacts.
    duration_seconds : float
        Span the stream covers (the trace's duration).
    arrival_seconds : np.ndarray
        Arrival time of every query, non-decreasing, in ``[0, duration)``.
    """

    trace_name: str
    duration_seconds: float
    arrival_seconds: np.ndarray

    def __post_init__(self) -> None:
        """Validate values and ordering, then freeze the arrival array."""
        arrivals = np.asarray(self.arrival_seconds, dtype=np.float64)
        if arrivals.ndim != 1:
            raise ValueError("arrival_seconds must be one-dimensional")
        if not np.isfinite(arrivals).all():
            raise ValueError("arrival_seconds contains non-finite arrivals (NaN or inf)")
        if arrivals.size and (np.any(arrivals[1:] < arrivals[:-1]) or arrivals[0] < 0):
            raise ValueError("arrivals must be non-negative and non-decreasing")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        arrivals.setflags(write=False)
        object.__setattr__(self, "arrival_seconds", arrivals)

    @property
    def num_queries(self) -> int:
        """Number of queries in the stream."""
        return int(self.arrival_seconds.size)

    @classmethod
    def from_trace(cls, trace: LoadTrace, seed: int = 0, process: str = "poisson") -> "QueryStream":
        """Realize per-query arrivals from a trace's step-wise offered load.

        Parameters
        ----------
        trace : LoadTrace
            The generating load trace.
        seed : int
            Arrival-noise seed (ignored by the ``paced`` process); the
            same (trace, seed, process) triple reproduces the same stream.
        process : str
            ``"poisson"`` — per-step Poisson counts with uniform arrival
            offsets, the stochastic process the load model assumes; or
            ``"paced"`` — deterministic error-diffused counts
            (``diff(floor(cumsum(expected)))``) with evenly spaced
            arrivals, for tests that need exact, seed-free streams.

        Returns
        -------
        QueryStream
            The realized stream, sorted by arrival time.
        """
        expected = trace.queries_per_step()
        starts = np.arange(trace.num_steps) * trace.step_seconds
        if process == "poisson":
            rng = np.random.default_rng(seed)
            counts = rng.poisson(expected)
            times = np.repeat(starts, counts)
            times += trace.step_seconds * rng.random(times.size)
            # Each step's draws lie in [start, start + step), so sorting step
            # by step equals one global sort; the junction check catches the
            # draw rounding may carry past the next step's start.
            ends = np.cumsum(counts)
            for lo, hi in zip(ends - counts, ends):
                times[lo:hi].sort()
            junctions = ends[(counts > 0) & (ends < times.size)]
            if np.any(times[junctions] < times[junctions - 1]):
                times.sort()
        elif process == "paced":
            cumulative = np.floor(np.cumsum(expected) + 1e-9).astype(np.int64)
            counts = np.diff(np.concatenate(([0], cumulative)))
            offsets = np.arange(int(counts.sum())) - np.repeat(cumulative - counts, counts)
            spacing = np.divide(
                trace.step_seconds, counts, out=np.zeros(counts.size), where=counts > 0
            )
            times = np.repeat(starts, counts) + (offsets + 0.5) * np.repeat(spacing, counts)
        else:
            raise ValueError(
                f"unknown arrival process {process!r}; expected one of {ARRIVAL_PROCESSES}"
            )
        return cls(trace.name, trace.duration_seconds, times)


@dataclass(eq=False)
class FrontendSchedule:
    """Everything the frontend decided for one stream — no simulation yet.

    Produced by :meth:`StreamingFrontend.schedule` (the serving-time hot
    path the throughput benchmark measures); consumed by
    :meth:`StreamingFrontend.serve` to score the schedule on the analytic
    engine.  The record is count-based: per-window arrays plus the drained
    backlog intervals.  Queries are indexed in arrival order, window ``w``
    owns the contiguous index range ``[sum(window_arrivals[:w]),
    sum(window_arrivals[:w + 1]))``, and within it the first
    ``window_admitted[w] - window_from_queue[w]`` queries are admitted
    promptly, the next ``window_deferred[w]`` are queued and the rest are
    shed.  The per-query views (:attr:`query_state`, :attr:`query_path`,
    :attr:`query_serve_window`) are built from this record on first access.

    Attributes
    ----------
    trace_name : str
        Name of the served trace.
    window_seconds : float
        Decision-window width.
    estimates : np.ndarray
        Causal load estimate entering each window.
    window_paths : np.ndarray
        Chosen path index per window.
    window_switches : np.ndarray
        Whether each window starts a new dwell segment.
    window_batch : np.ndarray
        Dynamic batch size chosen per window.
    window_arrivals : np.ndarray
        Queries arriving in each window.
    window_admitted : np.ndarray
        Queries served in each window (fresh arrivals + drained backlog).
    window_from_queue : np.ndarray
        The drained-backlog share of ``window_admitted``.
    window_deferred : np.ndarray
        Fresh arrivals pushed to the backlog in each window.
    window_shed : np.ndarray
        Fresh arrivals rejected in each window.
    window_shed_reason : np.ndarray
        Why each window shed (``"none"`` when it shed nothing,
        ``"no-capacity"`` when the chosen path's admission cap was zero,
        ``"queue-full"`` when the defer queue had no room).  Always
        populated — batching on or off — so ``route_steps.*`` artifacts
        stay schema-identical across modes.
    drains : np.ndarray
        One ``(lo, hi, serve_window)`` row per drained backlog slice: the
        queries with indices ``[lo, hi)`` waited in the defer queue and
        were served in window ``serve_window``.  Rows are in ascending
        ``lo`` order (the queue is FIFO), shape ``(num_drains, 3)``.
    dropped : int
        Deferred queries still queued when the stream ended (never
        served, so counted as shed).
    max_queue_depth : int
        Deepest the defer queue ever grew, in queries.
    """

    trace_name: str
    window_seconds: float
    estimates: np.ndarray
    window_paths: np.ndarray
    window_switches: np.ndarray
    window_batch: np.ndarray
    window_arrivals: np.ndarray
    window_admitted: np.ndarray
    window_from_queue: np.ndarray
    window_deferred: np.ndarray
    window_shed: np.ndarray
    window_shed_reason: np.ndarray
    drains: np.ndarray
    dropped: int
    max_queue_depth: int

    @property
    def num_windows(self) -> int:
        """Number of decision windows in the schedule."""
        return int(self.window_paths.size)

    @property
    def offered_queries(self) -> int:
        """Total queries the stream offered."""
        return int(self.window_arrivals.sum())

    @property
    def served_queries(self) -> int:
        """Queries served (promptly or after deferral)."""
        return int(self.window_admitted.sum())

    @property
    def deferred_served_queries(self) -> int:
        """Queries that waited in the defer queue and were later served."""
        return int(self.window_from_queue.sum())

    @property
    def shed_queries(self) -> int:
        """Queries rejected by admission control (never served)."""
        return int(self.window_shed.sum()) + self.dropped

    def _per_query(self, dtype, fill: int, prompt_value, drained_value) -> np.ndarray:
        """A per-query array: ``fill`` for shed queries, else a per-window value.

        ``prompt_value[w]`` marks the queries window ``w`` admitted on
        arrival, ``drained_value[w]`` the backlog it drained.
        """
        out = np.full(self.offered_queries, fill, dtype=dtype)
        starts = np.cumsum(self.window_arrivals) - self.window_arrivals
        prompt = self.window_admitted - self.window_from_queue
        for w in np.flatnonzero(prompt):
            out[starts[w] : starts[w] + prompt[w]] = prompt_value[w]
        for lo, hi, w in self.drains:
            out[lo:hi] = drained_value[w]
        return out

    @cached_property
    def query_state(self) -> np.ndarray:
        """Admission outcome per query (int8).

        ``QUERY_ADMITTED`` (served on arrival), ``QUERY_DEFERRED`` (served
        after waiting in the queue) or ``QUERY_SHED`` (rejected, or still
        queued at stream end).
        """
        return self._per_query(
            np.int8,
            QUERY_SHED,
            np.full(self.num_windows, QUERY_ADMITTED),
            np.full(self.num_windows, QUERY_DEFERRED),
        )

    @cached_property
    def query_path(self) -> np.ndarray:
        """Path index that served each query (int32; ``-1``: shed)."""
        return self._per_query(np.int32, -1, self.window_paths, self.window_paths)

    @cached_property
    def query_serve_window(self) -> np.ndarray:
        """Window that served each query (int64; ``-1``: shed)."""
        windows = np.arange(self.num_windows)
        return self._per_query(np.int64, -1, windows, windows)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered queries shed."""
        return self.shed_queries / self.offered_queries if self.offered_queries else 0.0

    @property
    def defer_rate(self) -> float:
        """Fraction of offered queries served only after deferral."""
        return self.deferred_served_queries / self.offered_queries if self.offered_queries else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Served-query-weighted mean of the per-window batch sizes."""
        served = self.window_admitted.sum()
        if not served:
            return 0.0
        return float(np.sum(self.window_admitted * self.window_batch) / served)

    @property
    def num_switches(self) -> int:
        """Path switches committed across the schedule."""
        return int(np.sum(self.window_switches[1:]))


@dataclass(frozen=True, eq=False)
class FrontendResult:
    """A scored frontend schedule: routing metrics plus admission statistics.

    Attributes
    ----------
    routing : RoutingResult
        The router-comparable aggregate (policy ``"frontend"``); its
        ``path_steps``/``switch_steps`` are per *window*.  Shed queries
        count as SLA violations with zero delivered quality; deferred
        queries are served but their queueing delay busts the SLA, so they
        violate too.
    schedule : FrontendSchedule
        The full per-window / per-query decision record.
    """

    routing: RoutingResult
    schedule: FrontendSchedule


@dataclass
class StreamingFrontend:
    """The per-query serving loop: admission, dynamic batching, path routing.

    The frontend shares its decision core with the step router it wraps:
    load estimation goes through the router's estimator
    (:meth:`~repro.serving.router.MultiPathRouter.estimate_over` on the
    trace's per-window offered rates — the same observable the step router
    sees) and path selection through
    :meth:`~repro.serving.router.MultiPathRouter.decide_from_estimates`
    (hysteresis, switch cost, dwell forecasting included).  With
    ``window_seconds`` equal to the trace's step width the per-window path
    choices therefore reproduce the step router's bit-for-bit; smaller
    windows re-decide faster than the trace changes, larger ones smooth
    over it.

    Parameters
    ----------
    router : MultiPathRouter
        The decision core (table, estimator, hysteresis, switch cost).
    window_seconds : float, optional
        Decision-window width (default: the served trace's step width).
    max_batch : int
        Upper clamp on the dynamic batch size.
    batching : bool
        ``False`` pins every batch to size 1.
    defer_windows : float
        Defer-queue capacity, in multiples of the current window's
        admission cap; ``0`` disables deferral (admit or shed only).
    arrival_process : str
        Arrival process used when no explicit stream is supplied
        (``"poisson"`` or ``"paced"``).
    arrival_seed : int
        Seed for the implicit arrival draw.
    """

    router: MultiPathRouter
    window_seconds: float | None = None
    max_batch: int = 64
    batching: bool = True
    defer_windows: float = 1.0
    arrival_process: str = "poisson"
    arrival_seed: int = 0

    def __post_init__(self) -> None:
        """Validate the frontend knobs."""
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.defer_windows < 0:
            raise ValueError("defer_windows must be non-negative")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival_process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )

    @property
    def table(self) -> PathTable:
        """The compiled routing table decisions are read from."""
        return self.router.table

    def _window_width(self, trace: LoadTrace) -> float:
        """The effective decision-window width for one trace."""
        return float(self.window_seconds or trace.step_seconds)

    def _stream_for(self, trace: LoadTrace) -> QueryStream:
        """The implicit arrival stream used when none is supplied."""
        return QueryStream.from_trace(trace, seed=self.arrival_seed, process=self.arrival_process)

    def decide_windows(self, trace: LoadTrace) -> tuple[np.ndarray, list[int], list[bool]]:
        """Per-window estimates, path choices and switch flags for a trace.

        This is the window-granular decision record the equivalence suite
        compares against :meth:`MultiPathRouter.decide`: estimates come
        from the router's estimator over the trace's per-window offered
        rates, paths from the router's own state machine.

        Parameters
        ----------
        trace : LoadTrace
            The served load trace.

        Returns
        -------
        tuple[np.ndarray, list[int], list[bool]]
            The causal estimate entering each window, the chosen path per
            window, and the per-window switch markers.
        """
        rates = trace.window_rates(self._window_width(trace))
        estimates = self.router.estimate_over(rates)
        paths, switches = self.router.decide_from_estimates(estimates)
        return estimates, paths, switches

    def _batch_sizes(self, estimates: np.ndarray, paths: np.ndarray) -> np.ndarray:
        """Dynamic batch size per window: fill time must fit the headroom.

        At estimated load ``λ`` a batch of ``b`` takes ``b / λ`` seconds to
        fill, so the largest SLA-safe batch is
        ``floor((sla − p99(path, λ)) · λ)``, clamped to ``[1, max_batch]``
        and to 1 wherever the path predicts no headroom (or batching is
        disabled).
        """
        batch = np.ones(estimates.size, dtype=np.int64)
        if not self.batching or self.max_batch == 1:
            return batch
        p99 = np.empty(estimates.size)
        for index in np.unique(paths):
            mask = paths == index
            p99[mask] = self.table.p99_profile(int(index), estimates[mask])
        headroom = self.table.sla_seconds - p99
        open_windows = np.isfinite(p99) & (headroom > 0)
        batch[open_windows] = np.clip(
            np.floor(headroom[open_windows] * estimates[open_windows]), 1, self.max_batch
        ).astype(np.int64)
        return batch

    def schedule(self, trace: LoadTrace, stream: QueryStream | None = None) -> FrontendSchedule:
        """Route a whole query stream: the serving-time hot path.

        No engine work happens here — only the compiled table, the
        estimator and integer bookkeeping — so this is what the routed
        queries/s benchmark measures.  Nothing here is per query: window
        counts come from a binary search of the window edges, and the
        scalar loop runs once per *window*, keeping counts and the FIFO
        backlog's index intervals.

        Parameters
        ----------
        trace : LoadTrace
            The offered-load trace (drives estimation and windowing).
        stream : QueryStream, optional
            The realized arrivals (default: drawn from the trace with the
            frontend's ``arrival_process`` and ``arrival_seed``).

        Returns
        -------
        FrontendSchedule
            Per-window decisions plus the drained backlog intervals.
        """
        window = self._window_width(trace)
        if stream is None:
            stream = self._stream_for(trace)
        estimates, paths, switches = self.decide_windows(trace)
        num_windows = estimates.size
        paths_array = np.asarray(paths, dtype=np.intp)
        batch = self._batch_sizes(estimates, paths_array)

        arrivals = self._window_counts(stream, window, num_windows)
        window_ends = np.cumsum(arrivals)

        max_feasible = np.asarray(
            [self.table.max_feasible_qps(i) for i in range(len(self.table.paths))]
        )
        caps = np.floor(max_feasible[paths_array] * window).astype(np.int64)
        queue_limits = np.floor(self.defer_windows * caps).astype(np.int64)

        # The state machine runs on Python ints; the per-window outcome
        # arrays are assembled once it is done.
        admitted, from_queue, deferred, shed = [], [], [], []
        drains: list[tuple[int, int, int]] = []
        backlog: deque[tuple[int, int]] = deque()
        backlog_size = 0
        start = 0
        for w, (cap, limit, end) in enumerate(
            zip(caps.tolist(), queue_limits.tolist(), window_ends.tolist())
        ):
            remaining = cap
            # Drain the FIFO backlog ahead of this window's fresh arrivals.
            while backlog and remaining > 0:
                lo, hi = backlog[0]
                take = min(hi - lo, remaining)
                drains.append((lo, lo + take, w))
                remaining -= take
                if take == hi - lo:
                    backlog.popleft()
                else:
                    backlog[0] = (lo + take, hi)
            drained = cap - remaining
            backlog_size -= drained
            from_queue.append(drained)
            take = min(end - start, remaining)
            admitted.append(drained + take)
            overflow_lo = start + take
            defer = min(end - overflow_lo, max(limit - backlog_size, 0))
            if defer:
                backlog.append((overflow_lo, overflow_lo + defer))
                backlog_size += defer
            deferred.append(defer)
            shed.append(end - overflow_lo - defer)
            start = end
        admitted, from_queue, deferred, shed = (
            np.asarray(counts, dtype=np.int64) for counts in (admitted, from_queue, deferred, shed)
        )
        queue_depth = np.cumsum(deferred - from_queue)

        plan = FrontendSchedule(
            trace_name=trace.name,
            window_seconds=window,
            estimates=estimates,
            window_paths=paths_array,
            window_switches=np.asarray(switches, dtype=bool),
            window_batch=batch,
            window_arrivals=arrivals,
            window_admitted=admitted,
            window_from_queue=from_queue,
            window_deferred=deferred,
            window_shed=shed,
            window_shed_reason=np.where(
                shed == 0, "none", np.where(caps == 0, "no-capacity", "queue-full")
            ),
            drains=np.asarray(drains, dtype=np.int64).reshape(-1, 3),
            dropped=backlog_size,  # still queued at stream end: never served
            max_queue_depth=int(queue_depth.max()),
        )
        log = _event_log()
        if log is not None:
            self._emit_schedule(log, plan, queue_depth)
        return plan

    def _emit_schedule(self, log, plan: FrontendSchedule, queue_depth: np.ndarray) -> None:
        """Log a finished schedule: eventful windows, then the stream summary.

        Only eventful windows are logged (shed, deferred or switched):
        quiet windows dominate healthy streams and would swamp the log.
        Logging after the loop keeps the state machine free of log checks.
        """
        eventful = plan.window_shed | plan.window_deferred | plan.window_switches
        for w in np.flatnonzero(eventful).tolist():
            log.emit(
                "admission_window",
                window=w,
                path_name=self.table.paths[plan.window_paths[w]].name,
                arrivals=plan.window_arrivals[w],
                admitted=plan.window_admitted[w],
                deferred=plan.window_deferred[w],
                shed=plan.window_shed[w],
                shed_reason=str(plan.window_shed_reason[w]),
                queue_depth=queue_depth[w],
                switch=bool(plan.window_switches[w]),
            )
        log.emit(
            "stream_summary",
            trace=plan.trace_name,
            num_windows=plan.num_windows,
            offered=plan.offered_queries,
            admitted=plan.served_queries,
            deferred=int(plan.window_deferred.sum()),
            shed=plan.shed_queries,
            max_queue_depth=plan.max_queue_depth,
        )

    @staticmethod
    def _window_counts(stream: QueryStream, window: float, num_windows: int) -> np.ndarray:
        """Arrivals per window, equal to ``bincount(floor_divide(arrivals, window))``.

        One binary search of the edges ``fl(k * window)`` over the sorted
        arrivals replaces the per-query division.  Rounding can only
        misplace an arrival exactly equal to an edge, so each edge counts
        as the start of window ``k`` precisely when ``floor_divide`` puts
        the edge itself there; otherwise the search starts one ulp above.
        """
        times = stream.arrival_seconds
        if times.size and np.floor_divide(times[-1], window) >= num_windows:
            raise ValueError("stream extends past the trace duration")
        k = np.arange(1, num_windows)
        edges = k * window
        edges = np.where(np.floor_divide(edges, window) >= k, edges, np.nextafter(edges, np.inf))
        bounds = np.searchsorted(times, edges, side="left")
        return np.diff(bounds, prepend=0, append=times.size)

    def serve(self, trace: LoadTrace, stream: QueryStream | None = None) -> FrontendResult:
        """Schedule a stream and score the schedule on the analytic engine.

        Every window with admitted queries becomes a dwell cell: the
        chosen path serves a steady-state arrival window at the *admitted*
        rate (admission control means the engine never sees an infeasible
        load unless the table's frontier and the engine's utilization
        threshold disagree, in which case the cell counts as saturated,
        exactly as in :meth:`PathTable.evaluate_route`).  Switch windows
        charge the router's ``switch_penalty_seconds`` to every query.
        Shed queries count as SLA violations with ``inf`` latency mass and
        zero quality; deferred-then-served queries deliver their path's
        quality but violate the SLA through their queueing delay, which is
        pooled into the latency sample.

        Parameters
        ----------
        trace : LoadTrace
            The offered-load trace.
        stream : QueryStream, optional
            The realized arrivals (default: drawn from the trace).

        Returns
        -------
        FrontendResult
            Routing metrics plus the underlying schedule.
        """
        if stream is None:
            stream = self._stream_for(trace)
        if stream.num_queries == 0:
            raise ValueError("cannot serve an empty query stream")
        plan = self.schedule(trace, stream)
        table = self.table
        total = plan.offered_queries

        served_windows = np.flatnonzero(plan.window_admitted > 0)
        admitted_qps = plan.window_admitted[served_windows] / plan.window_seconds
        for index in np.unique(plan.window_paths[served_windows]):
            mask = plan.window_paths[served_windows] == index
            table.prefill_dwell(int(index), admitted_qps[mask])

        violations = 0.0
        quality_mass = 0.0
        effective_mass = 0.0
        occupancy: dict[str, float] = {}
        pooled_values: list[np.ndarray] = []
        pooled_weights: list[np.ndarray] = []
        penalty_base = self.router.switch_penalty_seconds
        for w, qps in zip(served_windows, admitted_qps):
            index = int(plan.window_paths[w])
            path = table.paths[index]
            weight = int(plan.window_admitted[w])
            prompt = weight - int(plan.window_from_queue[w])
            quality_mass += weight * path.quality
            occupancy[path.name] = occupancy.get(path.name, 0.0) + weight
            latencies = table.dwell_latencies(index, float(qps))
            if latencies is None:  # saturated: every query violates, none delivers
                violations += weight
                pooled_values.append(np.asarray([np.inf]))
                pooled_weights.append(np.asarray([float(weight)]))
                continue
            penalty = penalty_base if plan.window_switches[w] else 0.0
            observed = latencies + penalty if penalty else latencies
            violating = float(np.mean(observed > table.sla_seconds))
            violations += prompt * violating + (weight - prompt)
            effective_mass += prompt * path.quality * (1.0 - violating)
            pooled_values.append(observed)
            pooled_weights.append(np.full(observed.size, prompt / observed.size))
        # Deferred queries: their queueing delay is their latency story.
        if plan.drains.size:
            waits = np.concatenate(
                [
                    w * plan.window_seconds - stream.arrival_seconds[lo:hi]
                    for lo, hi, w in plan.drains
                ]
            )
            pooled_values.append(np.maximum(waits, 0.0))
            pooled_weights.append(np.ones(waits.size))
        shed_total = plan.shed_queries
        if shed_total:
            violations += shed_total
            pooled_values.append(np.asarray([np.inf]))
            pooled_weights.append(np.asarray([float(shed_total)]))

        p99 = weighted_percentile(
            np.concatenate(pooled_values), np.concatenate(pooled_weights), 99.0
        )
        routing = RoutingResult(
            policy="frontend",
            trace_name=trace.name,
            quality=quality_mass / total,
            effective_quality=effective_mass / total,
            p99_seconds=p99,
            violation_rate=violations / total,
            num_switches=plan.num_switches,
            total_queries=float(total),
            path_steps=tuple(int(i) for i in plan.window_paths),
            switch_steps=tuple(bool(s) for s in plan.window_switches),
            occupancy={name: mass / total for name, mass in occupancy.items()},
        )
        return FrontendResult(routing=routing, schedule=plan)
