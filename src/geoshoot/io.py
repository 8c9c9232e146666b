"""File formats: template, result, distance and verdict JSON,
residual/trajectory/sweep CSV, manifests.  Every JSON and CSV file the
package writes goes through this module's one writer for its format.

Templates, match results and manifests carry a schema tag.  Readers
reject tags they do not know instead of guessing; documents without a
tag are read as the current version so hand-written files stay usable.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import DIVERGED, ClusterVerdict, DistanceRecord, SweepGrid
from .errors import ConfigurationError
from .shapes import LandmarkTemplate, _template
from .shooting import MatchResult, ShootingConfig

__all__ = [
    "TEMPLATE_SCHEMA",
    "RESULT_SCHEMA",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "save_template",
    "load_template",
    "template_to_dict",
    "template_from_dict",
    "match_result_to_dict",
    "save_match_result",
    "save_distance",
    "save_cluster_verdict",
    "write_residual_csv",
    "write_trajectory_csv",
    "write_sweep_csv",
    "config_echo",
    "sha256_digest",
    "write_manifest",
]

TEMPLATE_SCHEMA = "geoshoot.template/1"
RESULT_SCHEMA = "geoshoot.match-result/1"
MANIFEST_SCHEMA = "geoshoot.manifest/1"


def _write_json(doc: dict, path) -> Path:
    """The one JSON writer: two-space indent and a final newline."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _write_csv(header: list, rows, path) -> Path:
    """The one CSV writer: a header row, then ``rows``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _check_schema(doc: dict, expected: str, path) -> None:
    tag = doc.get("schema")
    if tag is not None and tag != expected:
        raise ConfigurationError(
            f"{path}: unknown schema {tag!r} (this tool reads {expected!r})"
        )


def template_to_dict(t: LandmarkTemplate) -> dict:
    return {
        "schema": TEMPLATE_SCHEMA,
        "label": t.label,
        "points": t.points.tolist(),
    }


def template_from_dict(doc: dict, path="<memory>") -> LandmarkTemplate:
    _check_schema(doc, TEMPLATE_SCHEMA, path)
    try:
        points = doc["points"]
    except KeyError:
        raise ConfigurationError(f"{path}: template JSON lacks 'points'") from None
    return _template(points, doc.get("label", ""), path)


def save_template(t: LandmarkTemplate, path) -> Path:
    return _write_json(template_to_dict(t), path)


def load_template(path) -> LandmarkTemplate:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read template {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, an integer past Python's digit limit, or
        # nesting past the recursion limit.
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: template JSON must be an object")
    return template_from_dict(doc, path)


def match_result_to_dict(result: MatchResult, cfg: ShootingConfig | None = None) -> dict:
    doc = {
        "schema": RESULT_SCHEMA,
        "p0": result.p0.tolist(),
        "H": result.hamiltonian,
        "iterations": result.iterations,
        "converged": result.converged,
        "residual_history": list(result.residual_history),
        "final_residual": result.final_residual,
        "final_label": result.final_template.label,
    }
    if result.diagnosis is not None:
        doc["diagnosis"] = result.diagnosis
    if result.warnings:
        doc["warnings"] = list(result.warnings)
    if cfg is not None:
        doc["config"] = config_echo(cfg)
    return doc


def save_match_result(
    result: MatchResult, path, cfg: ShootingConfig | None = None
) -> Path:
    return _write_json(match_result_to_dict(result, cfg), path)


def _distance_doc(record: DistanceRecord) -> dict:
    """The keys of ``distance.json`` and of each piece of a cluster
    verdict's evidence."""
    return {
        "reference": record.reference_label,
        "target": record.target_label,
        "H": record.H,
        "iterations": record.iterations,
        "converged": record.converged,
    }


def save_distance(record: DistanceRecord, path) -> Path:
    return _write_json(_distance_doc(record), path)


def save_cluster_verdict(verdict: ClusterVerdict, path) -> Path:
    doc = {
        "same_cluster": verdict.same_cluster,
        "evidence": [_distance_doc(r) for r in verdict.evidence],
    }
    return _write_json(doc, path)


def write_residual_csv(history, path) -> Path:
    rows = ([k, f"{value:.17g}"] for k, value in enumerate(history, start=1))
    return _write_csv(["iteration", "stopping_norm"], rows, path)


def write_trajectory_csv(frames, path) -> Path:
    """One row per (frame, landmark): t, i, qx, qy, px, py."""
    rows = (
        [f"{t:.17g}", i] + [f"{v:.17g}" for v in (*state.q[i], *state.p[i])]
        for t, state in frames
        for i in range(state.q.shape[0])
    )
    return _write_csv(["t", "i", "qx", "qy", "px", "py"], rows, path)


def write_sweep_csv(grid: SweepGrid, matrix: np.ndarray, path) -> Path:
    """Row-major cells as alpha2, h, iterations, converged.

    alpha2 and h are written as the shortest decimals that read back to
    the grid's values.  Diverged cells leave the iterations column empty
    rather than carrying the in-memory sentinel into the file.
    """

    def row(alpha2, h, cell):
        diverged = cell == DIVERGED
        return [
            np.format_float_positional(alpha2, trim="-"),
            np.format_float_positional(h, trim="-"),
            "" if diverged else cell,
            str(not diverged).lower(),
        ]

    rows = (
        row(alpha2, h, int(matrix[i, j]))
        for i, alpha2 in enumerate(grid.alpha2_values)
        for j, h in enumerate(grid.h_values)
    )
    return _write_csv(["alpha2", "h", "iterations", "converged"], rows, path)


def config_echo(cfg: ShootingConfig) -> dict:
    """Every knob of a run as nested dicts, ready for json: the package's
    enums are str subclasses, written as their values."""
    return dataclasses.asdict(cfg)


def sha256_digest(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record; every CLI run writes exactly one.

    ``inputs`` maps input paths to SHA-256 digests, ``config`` echoes
    every knob, ``extras`` holds per-command facts (e.g. which shape
    generator and parameters produced a template).
    """

    command: str
    version: str
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    outcome: str = ""
    extras: dict = field(default_factory=dict)


def write_manifest(manifest: RunManifest, path) -> Path:
    return _write_json({"schema": MANIFEST_SCHEMA, **dataclasses.asdict(manifest)}, path)
