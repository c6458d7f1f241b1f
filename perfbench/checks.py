"""Output checks for one benchmark op.

An op passes when the CLI returned the verdict its own report implies, every
number in the JSON report is finite, each rigidity `constant` equals the
guarded ratio of its reported sides, and, for ops recorded in
`reference.json`, the reported values match the recorded ones.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Reference comparison: floats agree to REL_TOL relative, with an absolute
# floor for values that are round-off zeros (lemma slacks of equalities);
# integers, strings and booleans (exit code, base_index, route) match exactly.
REL_TOL = 1e-8
ABS_TOL = 1e-12

# The guarded ratio in rigidkit.rigidity: both sides below the guard read 0,
# otherwise the denominator is clamped at the guard.
RHS_GUARD = 1e-14
CONSTANT_REL_TOL = 1e-12

REPORT_FILES = {"rigidity": "rigidity.json", "multiscale": "multiscale.json", "lemmas": "lemmas.json"}


class CheckFailed(Exception):
    """The op ran but its outputs are wrong."""


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _walk_numbers(node, path="$"):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _walk_numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _walk_numbers(value, f"{path}[{k}]")


def guarded_constant(lhs: float, rhs: float) -> float:
    if lhs < RHS_GUARD and rhs < RHS_GUARD:
        return 0.0
    return lhs / max(rhs, RHS_GUARD)


def expected_verdict(command: str, payload: dict) -> int:
    """Exit code the report's own numbers call for (0 pass, 1 fail)."""
    if command == "rigidity":
        return 0
    if command == "multiscale":
        ok = _strictly_decreasing(payload["residuals"]) and _strictly_decreasing(payload["moduli"])
        return 0 if ok else 1
    if command == "lemmas":
        ok = all(p["min_slack"] >= -p["tolerance"] for p in payload["properties"])
        return 0 if ok else 1
    raise ValueError(f"no verdict rule for {command!r}")


def summary(command: str, exit_code: int, payload: dict) -> dict:
    """The values compared against the reference run."""
    if command == "rigidity":
        return {"exit_code": exit_code, "route": payload["route"], **payload["report"]}
    if command == "multiscale":
        return {"exit_code": exit_code, "residuals": payload["residuals"], "moduli": payload["moduli"]}
    if command == "lemmas":
        return {
            "exit_code": exit_code,
            "properties": {
                p["name"]: {"samples": p["samples"], "min_slack": p["min_slack"], "passed": p["passed"]}
                for p in payload["properties"]
            },
        }
    raise ValueError(f"no summary rule for {command!r}")


def compare(expected, actual, path="$") -> list[str]:
    """Differences between two summaries, under the reference tolerances."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for key in expected for d in compare(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for k, (e, a) in enumerate(zip(expected, actual)) for d in compare(e, a, f"{path}[{k}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected)) + ABS_TOL:
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_op(op, exit_code: int, out_dir: Path, reference: dict) -> dict:
    """Raise CheckFailed unless the op's outputs are right; return its summary."""
    if exit_code in (2, 3):
        raise CheckFailed(f"exit code {exit_code}")
    report_path = Path(out_dir) / REPORT_FILES[op.command]
    try:
        payload = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"no readable report: {exc}") from exc
    if payload.get("manifest", {}).get("command") != op.command:
        raise CheckFailed("report manifest names another command")
    for path, value in _walk_numbers(payload):
        if not math.isfinite(value):
            raise CheckFailed(f"non-finite report number at {path}: {value!r}")
    try:
        verdict = expected_verdict(op.command, payload)
        if op.command == "rigidity":
            rep = payload["report"]
            want = guarded_constant(rep["lhs"], rep["osc_term"] + rep["stretch"] + rep["bend_scale"])
            if abs(rep["constant"] - want) > CONSTANT_REL_TOL * abs(want):
                raise CheckFailed(f"constant {rep['constant']!r} != guarded ratio {want!r}")
        result = summary(op.command, exit_code, payload)
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"report lacks an expected field: {exc!r}") from exc
    if exit_code != verdict:
        raise CheckFailed(f"exit code {exit_code}, report implies {verdict}")
    recorded = reference.get(op.workload, {}).get(str(op.seed), {}).get(str(op.index))
    if recorded is not None:
        diffs = compare(recorded, result)
        if diffs:
            raise CheckFailed("differs from reference: " + "; ".join(diffs[:3]))
    return result
