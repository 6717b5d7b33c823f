"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The workloads are defined in ``perfbench/workloads.py``.  A run:

1. builds the inputs itself, then repeats rounds of the workload until
   ``--seconds`` have passed, timing each operation and checking its result
   outside the timed region.  ``items_per_s`` is one round's work over the
   sum of each operation's fastest untraced time;
2. (untraced runs only) times set-up in :data:`SETUP_PROBES` fresh child
   processes -- interpreter start, imports and input generation from the
   seed -- one between each two rounds, and reports the fastest as
   ``setup_s``.  The probes read and write bytecode only in a cache of their
   own under the scratch directory, filled by one uncounted warm-up probe,
   so ``__pycache__`` directories left in the checkout never count;
3. prints the environment, failed checks, a digest of the simulated outputs
   and, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.

Times are wall-clock.  Fastest-of figures are used because on a shared
host noise only ever adds time to a CPU-bound run.

With ``--trace 1`` the rounds alternate between untraced and traced.  The
metrics are then the per-layer numbers of ``perfbench/tracing.py`` (median
over traced rounds, set-up spans included), the share of the measured
operations covered by spans and the tracing overhead (untraced over traced
throughput).  Spans are written to ``.perfbench_out/``.  Scratch files live
under ``.perfbench_tmp/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One BLAS/OpenMP thread: steadier timings on a shared host, never above nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "route", "stream", "train")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import the workloads against this checkout's ``src``, never an installed copy."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    return workloads


def probe_setup(args, pycache: Path) -> float:
    """Time process spawn to inputs ready in one fresh child process.

    The child reads and writes bytecode only under ``pycache``.
    """
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "0",
        "--setup-probe",
    ]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}):\n{err}")
    return elapsed


def fingerprint(args) -> dict:
    """Describe the environment a result was measured in."""
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError, StopIteration), open("/proc/cpuinfo") as handle:
        model = next(line for line in handle if line.startswith("model name"))
        cpu = model.split(":", 1)[1].strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": 1,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def tree_size(path: Path) -> tuple[int, int]:
    """Count the files under ``path`` and their bytes."""
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_round(ops, tracer, traced: bool, first_op: int):
    """Run one round's ops, each timed, each result checked untimed.

    Returns
    -------
    tuple
        ``{op label: (work units, timed seconds)}`` of the ops that passed
        their check, summaries, ``{op label: failures}`` and the
        ``(start, end)`` of every timed op.
    """
    timed, summaries, failures, windows = {}, [], {}, []
    for offset, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + offset
            tracer.enabled = traced
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures[op.label] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
        windows.append((start, end))
        try:
            units, summary, failed = op.check(result)
        except Exception as exc:
            failures[op.label] = [f"check raised {type(exc).__name__}: {exc}"]
            continue
        summaries.append(summary)
        if failed:
            failures[op.label] = failed
        else:
            timed[op.label] = (units, end - start)
    return timed, summaries, failures, windows


def digest(summaries) -> str:
    """Hash the simulated outputs so two commits can be compared for identity."""
    return hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    """Run the benchmark; return the process exit code."""
    args = parse_args(argv)
    if args.setup_probe:
        load_workloads().WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    # Only the set-up probes write bytecode, and only to their own cache.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def measure(args, scratch: Path) -> int:
    """Set up, run rounds until the deadline, check and report."""
    pycache = scratch / "pycache"
    setup_times = []
    if not args.trace:
        probe_setup(args, pycache)  # warm-up: fills the probes' bytecode cache
    start = time.perf_counter()
    workloads = load_workloads()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    with tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            tracer.enabled = True
        wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_inproc = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
        setup_spans = list(tracer.spans)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("fingerprint " + json.dumps(fingerprint(args), sort_keys=True))

    rates = {False: [], True: []}
    best = {}  # op label -> (work units, fastest untraced seconds)
    layer_rounds, coverages, files = [], [], []
    attempted = failed = 0
    first_digest = None
    reported = set()
    round_index, next_op = 0, 1
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and round_index % 2 == 1
        outdir = scratch / f"round-{round_index}"
        ops = wl.round_ops(outdir, thorough=round_index == 0)
        mark = len(tracer.spans) if tracer is not None else 0
        # Untraced rounds run the program unwrapped, so the overhead ratio
        # includes the wrappers' own cost.
        with tracing.instrument(tracer) if traced else contextlib.nullcontext():
            timed, summaries, failures, windows = run_round(ops, tracer, traced, next_op)
        next_op += len(ops)
        attempted += len(ops)
        round_digest = digest(summaries)
        if first_digest is None:
            first_digest = round_digest
        else:  # a replay of identical inputs must reproduce the first round
            attempted += 1
            if round_digest != first_digest:
                failures["replay"] = [f"round {round_index} digest {round_digest}"]
        failed += len(failures)
        for label, lines in failures.items():
            for line in lines:
                if (label, line) not in reported:
                    reported.add((label, line))
                    print(f"FAILED {args.workload} {label}: {line}")
        work = sum(units for units, _ in timed.values())
        seconds = sum(t for _, t in timed.values())
        if seconds > 0 and work > 0:
            rates[traced].append(work / seconds)
        for label, (units, t) in timed.items():
            if not traced and (label not in best or t < best[label][1]):
                best[label] = (units, t)
        if traced:
            spans = tracer.spans[mark:]
            layer_rounds.append(tracing.layer_metrics(setup_spans + spans))
            coverages.append(tracing.coverage(spans, windows))
            files.append(tree_size(outdir))
        shutil.rmtree(outdir, ignore_errors=True)
        round_index += 1
        if not args.trace and len(setup_times) < SETUP_PROBES:
            # Probes sit between rounds, outside the measured time.
            probe_start = time.perf_counter()
            setup_times.append(probe_setup(args, pycache))
            deadline += time.perf_counter() - probe_start
        if not summaries:  # nothing completed: more rounds would fail the same way
            break
        if time.perf_counter() >= deadline and round_index >= 1 + args.trace:
            break

    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(args, pycache))

    for note in getattr(wl, "notes", []):
        print(f"note {args.workload}: {note}")
    print(f"digest {args.workload} {first_digest}")
    work = sum(units for units, _ in best.values())
    seconds = sum(t for _, t in best.values())
    throughput = work / seconds if seconds > 0 else 0.0
    rounds = ", ".join(f"{r:.6g}" for r in rates[False])
    print(
        f"{args.workload}: {wl.unit}_per_s {throughput:.6g} {wl.unit}/s "
        f"(fastest run of each op; whole rounds gave {rounds})"
    )
    print(f"{args.workload}: fail_rate {failed}/{attempted} = {failed / attempted:g}")
    print(f"{args.workload}: in-process set-up {setup_inproc:.4f} s")

    if args.trace:
        metrics = layer_summary(args.workload, layer_rounds, coverages, files, rates)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{args.workload}: set-up probes " + ", ".join(f"{t:.4f}" for t in setup_times))
        metrics = {
            "items_per_s": {"value": throughput, "unit": "1/s"},
            "setup_s": {"value": min(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def layer_summary(workload: str, layer_rounds, coverages, files, rates) -> dict:
    """Take the median of each per-layer metric over traced rounds, plus trace health."""
    metrics = {
        name: {"value": statistics.median(r[name][0] for r in layer_rounds), "unit": unit}
        for name, (_, unit) in layer_rounds[0].items()
    }
    metrics["artifacts.files"] = {"value": statistics.median(f for f, _ in files), "unit": "count"}
    metrics["artifacts.bytes"] = {"value": statistics.median(b for _, b in files), "unit": "bytes"}
    metrics["trace.coverage"] = {"value": statistics.median(coverages), "unit": "ratio"}
    overhead = statistics.median(rates[False]) / statistics.median(rates[True])
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    idle = sorted(name for name, m in metrics.items() if m["value"] == 0)
    print(f"{workload}: not applicable (layer not exercised): {', '.join(idle) or 'none'}")
    print(
        f"{workload}: span coverage {metrics['trace.coverage']['value']:.4f}, "
        f"tracing overhead {overhead:.4f}x"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
