"""Check that two rigidkit checkouts produce the same reports.

Runs the CLI on the first N ops of a workload in each checkout and compares,
op by op, the exit code, the printed output and every file the op writes:
JSON reports with their `manifest` removed (it records output hashes and the
tool version), every other file byte for byte.  The `multiscale` reports
hold only sums over subcubes, so for those ops every subcube report that
`multiscale_fit` returned is compared as well.  Exits 1 on any difference,
0 when every op matches.

    python3 tools/same_reports.py TREE_A TREE_B --workload fit_mix --seed 5 --ops 96

The workload is one of the benchmark's, or `untimed`: a fixed list of 50
ops, seeded by `--seed`, for the runs no benchmark workload times.  Its
first 20 are one block of `multiscale_flat` ops, once with a random and
once with a linear metric, so the per-subcube oscillation search runs; then
four `scaling` sweeps and four `asymptotic` runs on `perturbed` families,
two with one member (d = 2 and d = 1) and two with three; then two p = 3
fits that no benchmark op makes, each on a random metric: a d = 3
`perturbed_identity` `rigidity` fit, whose rotation descent turns in three
planes, and a d = 2 `graph` `multiscale` sweep, with one descent per
subcube; then three `lemmas` runs off the default shapes:
`max_dim` 4, whose d = 4 instances take the LAPACK kernels, `max_ambient`
9, and `lam_max` 1e6; last, two p = 3 `rigidity` fits on a random metric
past 4096 cells, where the base cell is chosen from more candidates than
any benchmark op has: a 65 x 65 `graph` and a 4400-cell `latitude` arc;
then, on a linear metric, a d = 2 `perturbed` `multiscale` sweep and a
d = 2 `perturbed_identity` `rigidity` fit, each with a drawn `length` in
[0.3, 3], which no benchmark op sets, though the perturbation's probe
lattice and scale follow it; last, the two p = 3 fits again at p = 1.5,
the d = 3 fit now at d = 2 and n = 32: below p = 2 the rotation descent
scores every turn, and no benchmark op runs it; last, six runs on a flat
metric, which the benchmark only sweeps with `multiscale`: `rigidity` fits
on the local route (a d = 2 `graph` at p = 2 and a d = 1 `latitude` arc
at p = 3) and on the metric route (`perturbed_identity` at d = 2, p = 2,
and d = 3, p = 3), a d = 2 `scaling` sweep and a three-member d = 1
`asymptotic` run at p = 3, both on `perturbed`; last, two runs on a 32 x 32
`graph` at epsilon 3.4e11, whose rank test flags some cells as degenerate,
so the base-cell choice drops them: a p = 3 `rigidity` fit on a random
metric and a p = 2 `multiscale` sweep on a linear metric; last, three runs
with central differences, whose differentials and window rank tests no
other op builds: a p = 3 `rigidity` fit of a 32 x 32 `graph` on a random
metric, a `multiscale` sweep (`t_values` [4, 16, 64]) of a 512-cell
`latitude` arc on a flat metric, whose windows are 3 x 2, and a p = 2
`rigidity` fit of a 32 x 32 `perturbed_identity` on a linear metric, which
takes the metric route.

With `--rtol X` (and optionally `--atol Y`) floats x, y match when
|x - y| <= X max(|x|, |y|) + Y: JSON report floats, and the decimal numbers
in the printed output and the other files.  The absolute floor is for
values that are round-off zeros, such as the slack of a lemma that holds
with equality.  Everything else stays exact: exit codes, strings,
integers, booleans, the JSON structure, and every value under a
`base_index` key.  Such a run also prints the largest relative and the
largest absolute difference between compared floats, each with its op,
its file and its JSON path or line, so one run can state the tolerance
a round-off change needs.

Ops come from the `perfbench/workloads.py` of the checkout holding this
script, so both trees see the same configs.  Each tree runs in its own
Python process on its own `src/`, with one BLAS thread, a pinned
RIGIDITY_CLOCK and RIGIDITY_SEED unset, so both runs round alike.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLOCK = "1970-01-01T00:00:00+00:00"
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _subcube_reports(field) -> list[dict]:
    """Every term of each subcube report of a `RotationField`.  Older
    checkouts wrap each report in a `SubcubeFit`, as its `report`."""
    reports = (getattr(fit, "report", fit) for fit in field.fits)
    return [{k: v.tolist() if hasattr(v, "tolist") else v for k, v in vars(r).items()} for r in reports]


def run_tree(src: str, ops_path: str, work_dir: str, results_path: str) -> None:
    """Run every op of `ops_path` on the rigidkit in `src` and dump what each produced."""
    sys.path.insert(0, src)
    from rigidkit import cli

    subcubes = []
    multiscale_fit = cli.multiscale_fit

    def recorded_fit(*args, **kwargs):
        field = multiscale_fit(*args, **kwargs)
        subcubes.append(_subcube_reports(field))
        return field

    cli.multiscale_fit = recorded_fit
    results = []
    for index, (command, config) in enumerate(json.loads(Path(ops_path).read_text())):
        op_dir = Path(work_dir) / f"op{index}"
        op_dir.mkdir()
        (op_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        out = op_dir / "out"
        sink = io.StringIO()
        subcubes.clear()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([command, "--config", str(op_dir / "config.json"), "--out", str(out)])
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
        files = {}
        for path in sorted(out.rglob("*")) if out.is_dir() else ():
            if path.suffix == ".json":
                report = json.loads(path.read_text())
                report.pop("manifest", None)
                files[path.name] = json.dumps(report, sort_keys=True)
            elif path.is_file():
                files[path.name] = path.read_text()
        results.append({"code": code, "stdout": sink.getvalue(), "files": files, "subcubes": json.dumps(subcubes)})
    Path(results_path).write_text(json.dumps(results))


def _tree_results(tree: Path, ops_path: Path, scratch: Path) -> list:
    src = tree / "src"
    if not (src / "rigidkit").is_dir():
        sys.exit(f"error: {src / 'rigidkit'} not found; TREE must be a rigidkit checkout")
    work = Path(tempfile.mkdtemp(dir=scratch))
    results_path = work / "results.json"
    env = {k: v for k, v in os.environ.items() if k not in ("RIGIDITY_SEED", "PYTHONPATH")}
    env.update({name: "1" for name in _BLAS_THREADS}, RIGIDITY_CLOCK=CLOCK)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import same_reports; "
        "same_reports.run_tree(*sys.argv[2:])"
    )
    args = [str(Path(__file__).parent), str(src), str(ops_path), str(work), str(results_path)]
    subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=work, check=True)
    return json.loads(results_path.read_text())


# A decimal number, split out of printed text; only those with a point or an
# exponent count as floats.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


class _Largest:
    """The largest relative and absolute differences between compared
    floats, each as (difference, where)."""

    def __init__(self):
        self.relative = self.absolute = (0.0, None)

    def see(self, x: float, y: float, where: str) -> None:
        if x == y or math.isnan(x) or math.isnan(y):
            return
        diff = abs(x - y)
        if diff > self.absolute[0]:
            self.absolute = (diff, where)
        if math.isfinite(diff) and diff / max(abs(x), abs(y)) > self.relative[0]:
            self.relative = (diff / max(abs(x), abs(y)), where)


def _float_close(x: float, y: float, tol: tuple[float, float]) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    rtol, atol = tol
    return x == y or abs(x - y) <= rtol * max(abs(x), abs(y)) + atol


def _json_floats(a, b, exact: bool, path: str) -> list | None:
    """The float pairs (x, y, JSON path) of two JSON values outside
    `base_index`, or None where they differ otherwise."""
    if type(a) is not type(b):
        return None
    if isinstance(a, float) and not exact:
        return [(a, b, path)]
    if isinstance(a, dict) and a.keys() == b.keys():
        parts = [_json_floats(a[k], b[k], exact or k == "base_index", f"{path}.{k}" if path else k) for k in a]
    elif isinstance(a, list) and len(a) == len(b):
        parts = [_json_floats(x, y, exact, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return [] if a == b else None
    return None if None in parts else [pair for part in parts for pair in part]


def _text_floats(a: str, b: str) -> list | None:
    """The decimal float pairs (x, y, "line N") of two texts, or None where
    they differ otherwise."""
    parts_a, parts_b = _NUMBER.split(a), _NUMBER.split(b)
    if len(parts_a) != len(parts_b):
        return None
    pairs, line = [], 1
    for k, (x, y) in enumerate(zip(parts_a, parts_b)):
        if k % 2 == 1 and all(any(c in t for c in ".eE") for t in (x, y)):
            pairs.append((float(x), float(y), f"line {line}"))
        elif x != y:
            return None
        line += x.count("\n")
    return pairs


def _close(pairs: list | None, tol: tuple[float, float]) -> bool:
    return pairs is not None and all(_float_close(x, y, tol) for x, y, _ in pairs)


def _parts(a: dict, b: dict):
    """(name, a's, b's) for each compared part of two ops' results; a file
    that only one side wrote is None on the other."""
    yield "stdout", a["stdout"], b["stdout"]
    for name in sorted(set(a["files"]) | set(b["files"])):
        yield name, a["files"].get(name), b["files"].get(name)
    yield "subcube reports", a["subcubes"], b["subcubes"]


def _float_pairs(name: str, x: str | None, y: str | None) -> list | None:
    """The float pairs of one part (see `_json_floats` and `_text_floats`)."""
    if x is None or y is None:
        return None
    if name.endswith(".json") or name == "subcube reports":
        return _json_floats(json.loads(x), json.loads(y), False, "")
    return _text_floats(x, y)


def _differences(a: dict, b: dict, tol: tuple[float, float] | None = None) -> list[str]:
    """What differs between two ops' results: byte-exact, or floats within (rtol, atol) `tol`."""
    found = [] if a["code"] == b["code"] else ["code"]
    for name, x, y in _parts(a, b):
        if not (x == y if tol is None else _close(_float_pairs(name, x, y), tol)):
            found.append(name)
    return found


def untimed_ops(seed: int) -> list:
    """The `untimed` workload at `seed`, as `workloads.Op`s (see the module docstring)."""
    import workloads

    flat = workloads.first_ops("multiscale_flat", seed, workloads.block_size("multiscale_flat"))
    runs = [
        ("multiscale", op.config | {"scenario": op.config["scenario"] | {"metric_kind": kind}})
        for kind in ("random", "linear")
        for op in flat
    ]
    draw = random.Random(seed)
    # (command, family, dim, resolution, metric kind, p, number of epsilons);
    # curves take a drawn kappa, surfaces kappa = 0, the only one they admit
    for command, family, dim, n, kind, p, members in (
        ("scaling", "graph", 2, 32, "random", 2.0, 3),
        ("scaling", "perturbed_identity", 2, 32, "linear", 3.0, 3),
        ("scaling", "perturbed", 1, 512, "random", 3.0, 3),
        ("scaling", "perturbed", 2, 32, "linear", 2.0, 3),
        ("asymptotic", "perturbed", 2, 32, "random", 2.0, 1),
        ("asymptotic", "perturbed", 1, 512, "linear", 2.0, 1),
        ("asymptotic", "perturbed", 1, 256, "random", 2.0, 3),
        ("asymptotic", "perturbed", 2, 32, "random", 3.0, 3),
    ):
        scenario = {
            "family": family, "dim": dim, "resolution": n, "metric_kind": kind, "p": p,
            "seed": draw.randrange(2**31 - 1), "kappa": draw.uniform(0.5, 2.0) if dim == 1 else 0.0,
        }
        top = math.exp(draw.uniform(math.log(0.02), math.log(0.1)))
        runs.append((command, {"scenario": scenario, "epsilons": [top / 2**k for k in range(members)]}))

    def descents(p: float, dim: int, n: int) -> None:
        """A `perturbed_identity` `rigidity` fit on a d-cube and a d = 2 `graph`
        `multiscale` sweep, both on a random metric at `p`."""
        for command, grid, extra in (
            ("rigidity", {"family": "perturbed_identity", "dim": dim, "resolution": n}, {}),
            ("multiscale", {"family": "graph", "dim": 2, "resolution": 32}, {"t_values": [1, 2, 4]}),
        ):
            scenario = grid | {
                "metric_kind": "random", "p": p,
                "seed": draw.randrange(2**31 - 1), "epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1))),
            }
            runs.append((command, {"scenario": scenario, **extra}))

    descents(3.0, 3, 8)
    for shape in ({"max_dim": 4, "max_ambient": 6}, {"max_ambient": 9}, {"lam_max": 1e6}):
        runs.append(("lemmas", {"samples": 200, "seed": draw.randrange(2**31 - 1), "curve_resolution": 256, **shape}))
    for family, dim, n, shape in (
        ("graph", 2, 65, {"epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1)))}),
        ("latitude", 1, 4400, {"polar": draw.uniform(math.pi / 4, 3 * math.pi / 4)}),
    ):
        scenario = {
            "family": family, "dim": dim, "resolution": n, "metric_kind": "random", "p": 3.0,
            "seed": draw.randrange(2**31 - 1), **shape,
        }
        runs.append(("rigidity", {"scenario": scenario}))
    for command, family, shape, extra in (
        ("multiscale", "perturbed", {"kappa": 0.0}, {"t_values": [2, 4, 8]}),
        ("rigidity", "perturbed_identity", {"rotation": draw.uniform(-math.pi, math.pi)}, {}),
    ):
        scenario = {
            "family": family, "dim": 2, "resolution": 32, "metric_kind": "linear", "p": 2.0,
            "seed": draw.randrange(2**31 - 1), "length": draw.uniform(0.3, 3.0),
            "epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1))), **shape,
        }
        runs.append((command, {"scenario": scenario, **extra}))
    descents(1.5, 2, 32)
    # Flat-metric runs beyond the `multiscale` sweeps: `rigidity` fits on the
    # local route (a surface and an arc) and on the metric route (d = 2, 3),
    # then a `scaling` sweep and an `asymptotic` run on `perturbed`.
    for family, dim, n, p, shape in (
        ("graph", 2, 32, 2.0, {"epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1)))}),
        ("latitude", 1, 512, 3.0, {"polar": draw.uniform(math.pi / 4, 3 * math.pi / 4)}),
        ("perturbed_identity", 2, 32, 2.0, {"epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1)))}),
        ("perturbed_identity", 3, 8, 3.0, {"epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1)))}),
    ):
        scenario = {
            "family": family, "dim": dim, "resolution": n, "metric_kind": "flat", "p": p,
            "seed": draw.randrange(2**31 - 1), **shape,
        }
        runs.append(("rigidity", {"scenario": scenario}))
    for command, dim, n, p in (("scaling", 2, 32, 2.0), ("asymptotic", 1, 512, 3.0)):
        scenario = {
            "family": "perturbed", "dim": dim, "resolution": n, "metric_kind": "flat", "p": p,
            "seed": draw.randrange(2**31 - 1), "kappa": draw.uniform(0.5, 2.0) if dim == 1 else 0.0,
        }
        top = math.exp(draw.uniform(math.log(0.02), math.log(0.1)))
        runs.append((command, {"scenario": scenario, "epsilons": [top / 2**k for k in range(3)]}))
    # Last, a 32 x 32 `graph` at epsilon 3.4e11, whose rank test flags 88
    # cells as degenerate, at most 13 of the 64 in any t = 4 subcube: a p = 3
    # `rigidity` fit on a random metric, one ragged patch through the bound
    # filter, and a p = 2 `multiscale` sweep on a linear metric, whose ragged
    # subcubes split off the stack.
    for command, kind, p, extra in (
        ("rigidity", "random", 3.0, {}),
        ("multiscale", "linear", 2.0, {"t_values": [1, 2, 4]}),
    ):
        scenario = {
            "family": "graph", "dim": 2, "resolution": 32, "epsilon": 3.4e11, "metric_kind": kind, "p": p,
            "seed": draw.randrange(2**31 - 1),
        }
        runs.append((command, {"scenario": scenario, **extra}))
    # Last, three runs with central differences, which no earlier op takes:
    # a p = 3 `rigidity` fit of a graph on a random metric, a `multiscale`
    # sweep of a latitude arc on a flat metric, whose windows are 3 x 2, and
    # a p = 2 `perturbed_identity` fit on a linear metric (the metric route).
    for command, family, dim, n, kind, p, shape, extra in (
        (
            "rigidity", "graph", 2, 32, "random", 3.0,
            {"epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1)))}, {},
        ),
        (
            "multiscale", "latitude", 1, 512, "flat", 2.0,
            {"polar": draw.uniform(math.pi / 4, 3 * math.pi / 4)}, {"t_values": [4, 16, 64]},
        ),
        (
            "rigidity", "perturbed_identity", 2, 32, "linear", 2.0,
            {"epsilon": math.exp(draw.uniform(math.log(0.02), math.log(0.1)))}, {},
        ),
    ):
        scenario = {
            "family": family, "dim": dim, "resolution": n, "metric_kind": kind, "p": p, "mode": "central",
            "seed": draw.randrange(2**31 - 1), **shape,
        }
        runs.append((command, {"scenario": scenario, **extra}))

    def size(config: dict) -> int:
        """Grid cells of a scenario; for the lemma suite, its arc's cells."""
        if "scenario" not in config:
            return config["curve_resolution"]
        return config["scenario"]["resolution"] ** config["scenario"]["dim"]

    return [
        workloads.Op("untimed", seed, index, command, config, size(config))
        for index, (command, config) in enumerate(runs)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, help="a benchmark workload, or untimed")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--rtol", type=float, help="relative tolerance for floats (default: byte-exact)")
    parser.add_argument("--atol", type=float, help="absolute tolerance for floats (default: 0 with --rtol)")
    args = parser.parse_args(argv)
    exact = args.rtol is None and args.atol is None
    tol = None if exact else (args.rtol or 0.0, args.atol or 0.0)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload == "untimed":
        ops = untimed_ops(args.seed)[: args.ops]
    else:
        ops = workloads.first_ops(args.workload, args.seed, args.ops)
    with tempfile.TemporaryDirectory(prefix="same_reports-") as scratch:
        ops_path = Path(scratch) / "ops.json"
        ops_path.write_text(json.dumps([[op.command, op.config] for op in ops]))
        side_a = _tree_results(args.tree_a.resolve(), ops_path, Path(scratch))
        side_b = _tree_results(args.tree_b.resolve(), ops_path, Path(scratch))

    differing, largest = 0, _Largest()
    for op, a, b in zip(ops, side_a, side_b):
        for name, x, y in () if exact else _parts(a, b):
            for u, v, where in _float_pairs(name, x, y) or ():
                largest.see(u, v, f"op {op.index} {name} {where}")
        found = _differences(a, b, tol)
        if found:
            differing += 1
            print(f"op {op.index} ({op.command} {json.dumps(op.config)}): differs in {', '.join(found)}")
    within = "" if exact else f" beyond rtol {tol[0]:g}, atol {tol[1]:g}"
    print(f"{args.workload} seed {args.seed}: {differing} of {len(ops)} ops differ{within}")
    if not exact:
        for kind, (diff, where) in (("relative", largest.relative), ("absolute", largest.absolute)):
            print(f"largest {kind} float difference: {diff:.3e}" + (f" at {where}" if where else ""))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
