"""Run manifests and deterministic report serialization.

Every CLI run emits a JSON report that embeds a RunManifest, plus optional
CSV and gnuplot-ready data files.  Determinism contract: identical config
and seed must reproduce every output byte for byte, so timestamps can be
pinned through the RIGIDITY_CLOCK environment variable, JSON keys are
sorted, and floats are serialized with repr (shortest round-trip form).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

CLOCK_ENV = "RIGIDITY_CLOCK"

# Fixed column set shared by every tabular output; the version string is
# recorded in the manifest so downstream plots can detect layout changes.
CSV_COLUMNS = (
    "scenario",
    "p",
    "n",
    "t",
    "epsilon",
    "zeta",
    "lhs",
    "osc_term",
    "stretch",
    "bend_scale",
    "constant",
    "residual",
    "modulus",
    "covered_fraction",
)
CSV_VERSION = "1"


def timestamp() -> str:
    """UTC time, overridable through RIGIDITY_CLOCK for reproducible runs."""
    pinned = os.environ.get(CLOCK_ENV)
    if pinned:
        return pinned
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    """Provenance block embedded in every emitted report."""

    command: str
    spec: dict
    seed: int
    created: str = field(default_factory=timestamp)
    outputs: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)

    def record_output(self, path) -> None:
        self.outputs.append(Path(path).name)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "spec": self.spec,
            "seed": self.seed,
            "tool_version": __version__,
            "created": self.created,
            "csv_version": CSV_VERSION,
            "csv_columns": list(CSV_COLUMNS),
            "outputs": list(self.outputs),
            "checks": dict(self.checks),
        }


def write_json_report(path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, rows: list[dict]) -> None:
    """Write rows under the fixed header; absent keys become empty cells."""
    for row in rows:
        unknown = set(row) - set(CSV_COLUMNS)
        if unknown:
            raise ValueError(f"row has columns outside the fixed layout: {sorted(unknown)}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row.get(name)) for name in CSV_COLUMNS])


def write_gnuplot_data(path, rows: list[dict], columns: tuple[str, ...]) -> None:
    """Whitespace table with a commented header; missing values become nan,
    which gnuplot skips natively."""
    lines = ["# " + " ".join(columns)]
    for row in rows:
        cells = []
        for name in columns:
            value = row.get(name)
            cells.append("nan" if value is None or value == "" else _cell(value))
        lines.append(" ".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
