"""Structured artifact output: per-experiment JSON + CSV and a run manifest.

Every ``recpipe run`` (and ``recpipe sweep``) invocation with ``--output-dir``
writes machine-readable artifacts so runs are diffable across PRs and
consumable by the benchmark suite:

* ``<id>.json``  -- the full :class:`~repro.experiments.common.ExperimentResult`
  (rows + notes) together with the experiment's spec metadata and seed,
* ``<id>.csv``   -- the rows alone, one column per table key,
* ``manifest.json`` -- the run configuration, seed, and per-experiment
  wall-clock and artifact paths.

Artifact contents are deterministic for a fixed seed except for the
``wall_clock_seconds`` fields, which record measured time; diff tooling (and
the test suite) compares manifests after dropping those fields.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult

MANIFEST_NAME = "manifest.json"

#: Manifest schema history: version 1 carried command/seed/config/experiments;
#: version 2 adds ``schema_version`` itself, the ``resolved`` knob record
#: (engine, estimator, service model, cluster mix actually used) and the
#: optional ``events`` entry (the run's JSONL event log).  Readers treat a
#: manifest without the field as version 1.
MANIFEST_SCHEMA_VERSION = 2


def _json_default(value):
    """Coerce numpy scalars/arrays so every row serializes cleanly."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _sanitize(value):
    """Replace non-finite floats with None so the output is strict RFC 8259
    JSON (json.dump would otherwise emit the bare ``Infinity``/``NaN``
    literals, which jq/JavaScript and other non-Python consumers reject)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _dump_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(_sanitize(payload), handle, indent=2, default=_json_default, allow_nan=False)
        handle.write("\n")


def _load_json(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def result_payload(
    meta: Mapping,
    result: ExperimentResult,
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
) -> dict:
    """The JSON document written for one experiment run."""
    payload = dict(meta)
    payload.update(
        seed=seed,
        wall_clock_seconds=wall_clock_seconds,
        name=result.name,
        rows=result.rows,
        notes=result.notes,
    )
    return payload


def payload_to_result(payload: Mapping) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a ``<id>.json`` document."""
    return ExperimentResult(
        name=payload["name"],
        rows=[dict(row) for row in payload["rows"]],
        notes=list(payload["notes"]),
    )


def write_result_json(path: Path, payload: dict) -> None:
    _dump_json(path, payload)


def load_result_json(path: Path) -> dict:
    return _load_json(path)


def write_result_csv(path: Path, result: ExperimentResult) -> None:
    """Rows as CSV; the header is the union of row keys in first-seen order."""
    fieldnames: list[str] = []
    for row in result.rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in result.rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    """The CSV artifact back as a list of string-valued dicts."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        return [dict(row) for row in csv.DictReader(handle)]


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.integer, np.floating)):
        return repr(value.item())
    return str(value)


def merge_json_section(path: Path, section: str, payload: Mapping) -> Path:
    """Merge one named section into a JSON document (read-modify-write).

    The benchmark suite appends sections to the ``BENCH_*.json`` trajectory
    files from independent tests; merging instead of overwriting keeps the
    writers from clobbering each other.  A missing file starts empty; an
    existing file that does not parse raises ``ValueError`` naming it rather
    than being overwritten, since rewriting it would drop every other
    section.  A legacy flat payload carrying a top-level ``benchmark`` name
    key is nested under that name before the new section lands, so old
    trajectory files migrate in place on the first merge.
    """
    path = Path(path)
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        existing = {}
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not valid JSON ({exc}); fix or remove it before merging "
            f"section {section!r}"
        ) from exc
    if "benchmark" in existing:  # legacy flat payload: nest it under its name
        existing = {existing.pop("benchmark"): existing}
    existing[section] = _sanitize(dict(payload))
    path.write_text(
        json.dumps(existing, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    return path


def write_experiment_artifacts(
    output_dir: Path,
    meta: Mapping,
    result: ExperimentResult,
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
) -> dict:
    """Write ``<id>.json`` + ``<id>.csv`` and return the manifest entry."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    exp_id = meta["id"]
    json_path = output_dir / f"{exp_id}.json"
    csv_path = output_dir / f"{exp_id}.csv"
    write_result_json(json_path, result_payload(meta, result, seed, wall_clock_seconds))
    write_result_csv(csv_path, result)
    return {
        "id": exp_id,
        "title": meta.get("title", ""),
        "paper_ref": meta.get("paper_ref", ""),
        "name": result.name,
        "num_rows": len(result.rows),
        "wall_clock_seconds": wall_clock_seconds,
        "json": json_path.name,
        "csv": csv_path.name,
    }


def write_sweep_artifacts(
    output_dir: Path,
    meta: Mapping,
    combined: ExperimentResult,
    per_platform: Mapping[str, ExperimentResult],
    frontier: ExperimentResult,
    seed: int | None = None,
    wall_clock_seconds: float | None = None,
) -> list[dict]:
    """Write the artifact set of one multi-platform sweep.

    Three kinds of artifacts, all derived from ``meta["id"]`` (``sweep`` by
    convention):

    * ``sweep.json`` / ``sweep.csv`` -- every (platform, pipeline, qps) row,
    * ``sweep_<platform>.json`` / ``.csv`` -- the per-platform breakdown,
    * ``sweep_frontier.json`` / ``.csv`` -- the combined cross-platform
      Pareto frontier per load (the Figure 10-style comparison).

    Returns the manifest entries in that order.
    """
    base_id = meta["id"]
    entries = [
        write_experiment_artifacts(
            output_dir, meta, combined, seed=seed, wall_clock_seconds=wall_clock_seconds
        )
    ]
    for platform, result in per_platform.items():
        platform_meta = dict(meta)
        platform_meta["id"] = f"{base_id}_{platform}"
        platform_meta["title"] = f"{meta.get('title', base_id)} — {platform} breakdown"
        entries.append(write_experiment_artifacts(output_dir, platform_meta, result, seed=seed))
    frontier_meta = dict(meta)
    frontier_meta["id"] = f"{base_id}_frontier"
    frontier_meta["title"] = (f"{meta.get('title', base_id)} — combined cross-platform frontier")
    entries.append(write_experiment_artifacts(output_dir, frontier_meta, frontier, seed=seed))
    return entries


def write_manifest(
    output_dir: Path,
    command: str,
    config: Mapping,
    entries: Sequence[Mapping],
    seed: int | None = None,
    resolved: Mapping | None = None,
    events: Mapping | None = None,
) -> Path:
    """Write ``manifest.json`` describing the whole run.

    ``config`` records the *requested* knobs (CLI flags, scenario axes);
    ``resolved`` records what the run actually used once defaults and
    fallbacks applied — engine, estimator, service model, cluster mix —
    so two manifests are comparable even when one leaned on defaults.
    ``events`` names the run's JSONL event log, when one was captured.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / MANIFEST_NAME
    payload = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": dict(config),
        "resolved": dict(resolved) if resolved else {},
        "experiments": [dict(entry) for entry in entries],
    }
    if events:
        payload["events"] = dict(events)
    _dump_json(path, payload)
    return path


def load_manifest(output_dir: Path) -> dict:
    return _load_json(Path(output_dir) / MANIFEST_NAME)


def manifest_schema_version(manifest: Mapping) -> int:
    """The schema version a loaded manifest was written under (1 if absent)."""
    return int(manifest.get("schema_version", 1))


def manifest_resolved(manifest: Mapping) -> dict:
    """The resolved-knob record, tolerating version-1 manifests (empty)."""
    return dict(manifest.get("resolved") or {})


def strip_timing(manifest: Mapping) -> dict:
    """A manifest with measured wall-clock removed (the deterministic part)."""
    stripped = dict(manifest)
    stripped["experiments"] = [
        {k: v for k, v in entry.items() if k != "wall_clock_seconds"}
        for entry in manifest.get("experiments", [])
    ]
    return stripped
