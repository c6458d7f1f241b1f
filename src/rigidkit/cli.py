"""Command-line front end: property suites and experiment drivers.

Subcommands: lemmas, rigidity, scaling, multiscale, asymptotic, snapshot.
Each run reads one JSON config file, applies flag overrides (flags win over
the file, and --seed wins over the RIGIDITY_SEED environment variable,
which wins over the file), writes reports under --out, and exits with:

    0  pass
    1  property or trend failure
    2  config error
    3  degenerate scenario

Every handler returns a `_Run` record, and `main` finishes each run the same
way: it checks the reports, writes them, then prints.  So exits 2 and 3
print nothing on stdout, and exit 1 always follows a printed FAIL line.
Reports embed a RunManifest echoing the resolved configuration, so a rerun
with the same config and seed (and a pinned RIGIDITY_CLOCK) reproduces
every output byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .fields import (
    DegenerateFieldError,
    GridMap,
    ReferenceShape,
    config_number,
    energies,
    snapshot_load,
    snapshot_save,
)
from .lemma_suite import LemmaConfig, run_all
from .reports import RunManifest, write_csv, write_gnuplot_data, write_json_report
from .rigidity import (
    _lebesgue_isometry_defect,
    asymptotic_sequence_run,
    local_rigidity,
    metric_rigidity,
    multiscale_fit,
    translation_modulus,
)
from .scenarios import ScenarioBundle, ScenarioSpec, build_scenario

SEED_ENV = "RIGIDITY_SEED"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

_SLOPE_FLOOR = 1e-15
# Rigidity report terms in printed order; the CSV row has all but plane_variation.
_REPORT_TERMS = ("lhs", "osc_term", "stretch", "bend_scale", "plane_variation", "constant")
_SNAPSHOT = "snapshot.json"


class ConfigError(ValueError):
    """Anything wrong with the config file or flag combination."""


@dataclasses.dataclass
class _Run:
    """What a handler hands `main`: the report stem `name` (None for
    `snapshot read`, which writes no report), the JSON `payload`, the CSV
    `rows` and their gnuplot `plot_columns`, the `lines` to print, the
    manifest's `spec`, `seed` and `checks`, and the `verdict` label of the
    closing PASS/FAIL line, which reads the checks and sets the exit code
    (None: exit 0 once written).  `snapshot write` also saves its bundle,
    `snapshot`, beside the report."""

    name: str | None
    payload: dict
    lines: list
    spec: dict = dataclasses.field(default_factory=dict)
    seed: int = 0
    checks: dict = dataclasses.field(default_factory=dict)
    rows: list | None = None
    plot_columns: tuple | None = None
    verdict: str | None = None
    snapshot: ScenarioBundle | None = None


def _load_config(args) -> dict:
    """The JSON object of `args.config` (empty without one), holding only the
    keys that `args.command` reads."""
    if args.config is None:
        return {}
    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _COMMANDS[args.command][2]
    if unknown:
        raise ConfigError(f"unknown {args.command} config keys: {sorted(unknown)}")
    return config


def _seed_override(flag_seed) -> int | None:
    """Flag wins, then the environment, then None (fall back to the file)."""
    if flag_seed is not None:
        return int(flag_seed)
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc


def _parse_eps(text: str) -> list[float]:
    """argparse type of --eps; argparse turns its errors into exit 2 with an `error:` line."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects comma-separated floats, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    return values


def _scenario_spec(config: dict, args) -> ScenarioSpec:
    raw = config.get("scenario")
    if not isinstance(raw, dict):
        raise ConfigError("config needs a 'scenario' object")
    raw = dict(raw)
    if args.p is not None:
        raw["p"] = args.p
    if args.n is not None:
        raw["resolution"] = args.n
    seed = _seed_override(args.seed)
    if seed is not None:
        raw["seed"] = seed
    try:
        return ScenarioSpec.from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _require_fit_exponent(p: float) -> None:
    """Rotation fits need a finite p > 1; scenarios also admit p = 1, which
    the energy-only commands (asymptotic, snapshot) accept."""
    if not 1.0 < p < np.inf:
        raise ConfigError(f"rigidity fits need an exponent p > 1 and finite, got {p}")


def _replace(spec: ScenarioSpec, **changes) -> ScenarioSpec:
    try:
        return spec.replace(**changes)
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _build(spec: ScenarioSpec):
    try:
        return build_scenario(spec)
    except ValueError as exc:
        raise ConfigError(f"scenario cannot be built: {exc}") from exc


def _load_snapshot(path):
    if not isinstance(path, str):
        raise ConfigError(f"'snapshot' must be a file path, got {path!r}")
    try:
        return snapshot_load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load snapshot: {exc}") from exc


def _sweep_list(config: dict, key: str, override, kind=float) -> list | None:
    if override is not None:
        return [kind(v) for v in override]
    raw = config.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"'{key}' must be a nonempty list")
    try:
        return [config_number(v, f"'{key}' entry", kind) for v in raw]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fit_report(bundle, p: float):
    """Dispatch on ambient dimension: equidimensional maps get the metric
    fit, codimension-one immersions the full local pipeline."""
    if isinstance(bundle.u, GridMap):
        return metric_rigidity(bundle.u, bundle.metric, p=p), "metric"
    return local_rigidity(bundle.u, bundle.metric, p=p), "local"


def _report_row(report, scenario: str, n: int, epsilon: float | None = None) -> dict:
    """CSV row of one rigidity report; snapshot rows carry no epsilon."""
    row = {"scenario": scenario, "p": float(report.p), "n": int(n)}
    if epsilon is not None:
        row["epsilon"] = float(epsilon)
    return row | {k: float(getattr(report, k)) for k in _REPORT_TERMS if k != "plane_variation"}


def _non_finite_term(value, name: str):
    """(name, value) of the first NaN or infinite float in a report value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (name, value)
    if isinstance(value, dict):
        items = ((f"{name}.{key}" if name else str(key), item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{name}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for item_name, item in items:
        found = _non_finite_term(item, item_name)
        if found is not None:
            return found
    return None


def _emit(out_dir: Path, command: str, run: _Run) -> None:
    """Check the run's reports, then write them: the snapshot, CSV and
    gnuplot data from `rows`, then the JSON payload with the manifest.  A
    report term that overflowed or lost its value stops the run, as a
    degenerate scenario, before any file is written."""
    bad = _non_finite_term(run.payload, "") or _non_finite_term(run.rows or [], "rows")
    if bad is not None:
        raise DegenerateFieldError(f"report term {bad[0]} is not finite ({float(bad[1])})")
    if run.name is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=command, spec=run.spec, seed=run.seed, checks=run.checks)
    if run.snapshot is not None:
        snapshot_save(out_dir / _SNAPSHOT, run.snapshot.u, run.snapshot.metric)
        manifest.record_output(out_dir / _SNAPSHOT)
    if run.rows is not None:
        csv_path = out_dir / f"{run.name}.csv"
        write_csv(csv_path, run.rows)
        manifest.record_output(csv_path)
        if run.plot_columns:
            dat_path = out_dir / f"{run.name}.dat"
            write_gnuplot_data(dat_path, run.rows, run.plot_columns)
            manifest.record_output(dat_path)
    json_path = out_dir / f"{run.name}.json"
    manifest.record_output(json_path)
    write_json_report(json_path, run.payload | {"manifest": manifest.to_dict()})


def _log_slope(xs, ys) -> float | None:
    """Least-squares slope of log ys against log xs, or None where a point is
    at the floor or not finite (the finite check then stops the run)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.isfinite([xs, ys]).all() or min(xs.min(), ys.min()) <= _SLOPE_FLOOR:
        return None
    if np.ptp(np.log(xs)) == 0.0:
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# --- subcommand handlers ---------------------------------------------------


def cmd_lemmas(args, config: dict) -> _Run:
    merged = dict(config)
    if args.n is not None:
        merged["samples"] = args.n
    seed = _seed_override(args.seed)
    if seed is not None:
        merged["seed"] = seed
    if args.p is not None or args.eps is not None:
        print("warning: --p/--eps have no effect on the lemma suite", file=sys.stderr)
    try:
        lemma_config = LemmaConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lemma config: {exc}") from exc

    lines = []
    if lemma_config.samples == 0:
        lines.append("warning: sample count is 0, every sampled property passes vacuously")
    results = run_all(lemma_config)
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        lines.append(f"{result.name:26s} {verdict}  min slack {result.min_slack:+.3e}  ({result.samples} samples)")
    return _Run(
        "lemmas",
        {"properties": [r.to_dict() for r in results], "passed": all(r.passed for r in results)},
        lines,
        spec={"lemma_config": dataclasses.asdict(lemma_config)},
        seed=lemma_config.seed,
        checks={r.name: r.passed for r in results},
        verdict="suite",
    )


def cmd_rigidity(args, config: dict) -> _Run:
    if "snapshot" in config:
        u, metric = _load_snapshot(config["snapshot"])
        p = args.p if args.p is not None else 2.0
        _require_fit_exponent(p)
        # The manifest echoes the seed; the fit itself draws nothing.
        seed = _seed_override(args.seed) or 0
        report = local_rigidity(u, metric, p=p)
        route = "local"
        row = _report_row(report, "snapshot", u.grid.resolution)
        spec_echo = {"snapshot": str(config["snapshot"])}
    else:
        spec = _scenario_spec(config, args)
        if args.eps is not None:
            if len(args.eps) != 1:
                raise ConfigError("rigidity takes a single --eps value")
            spec = _replace(spec, epsilon=args.eps[0])
        _require_fit_exponent(spec.p)
        bundle = _build(spec)
        seed = spec.seed
        report, route = _fit_report(bundle, spec.p)
        row = _report_row(report, spec.family, spec.resolution, spec.epsilon)
        spec_echo = {"scenario": spec.to_dict()}

    payload = {
        "route": route,
        "report": {
            "p": report.p,
            "base_index": list(report.base_index),
            **{name: getattr(report, name) for name in _REPORT_TERMS},
        },
    }
    lines = [f"route: {route}", *(f"{name:17s}{getattr(report, name):.6e}" for name in _REPORT_TERMS)]
    return _Run("rigidity", payload, lines, spec=spec_echo, seed=seed, checks={"completed": True}, rows=[row])


def cmd_scaling(args, config: dict) -> _Run:
    spec = _scenario_spec(config, args)
    _require_fit_exponent(spec.p)
    epsilons = _sweep_list(config, "epsilons", args.eps)
    if epsilons is None or len(epsilons) < 2:
        raise ConfigError("scaling needs at least two sweep points in 'epsilons' (or --eps)")
    if len(set(epsilons)) < 2:
        raise ConfigError("scaling sweep points must not be all equal")
    if min(epsilons) <= 0.0:
        raise ConfigError(f"scaling sweep points must be positive (its slopes take log epsilon), got {epsilons}")
    resolutions = _sweep_list(config, "resolutions", [args.n] if args.n is not None else None, kind=int)
    if resolutions is None:
        resolutions = [spec.resolution]
    if len(set(resolutions)) < len(resolutions):
        raise ConfigError("'resolutions' must not repeat a value")

    sweep = {n: [_replace(spec, epsilon=e, resolution=n) for e in epsilons] for n in resolutions}
    rows = []
    slopes = {}
    lines = []
    for n, members in sweep.items():
        lhs_roots = []
        defect_roots = []
        for member in members:
            bundle = _build(member)
            report, _ = _fit_report(bundle, member.p)
            rows.append(_report_row(report, member.family, n, member.epsilon))
            lhs_roots.append(report.lhs ** (1.0 / member.p))
            defect_roots.append(report.stretch ** (1.0 / member.p))
        slope_eps = _log_slope(epsilons, lhs_roots)
        slope_defect = _log_slope(defect_roots, lhs_roots)
        slopes[str(n)] = {"vs_epsilon": slope_eps, "vs_defect": slope_defect}
        if slope_eps is None:
            lines.append(f"warning: slope undefined at n={n} (flat or vanishing sweep)")
        else:
            lines.append(f"n={n}: slope vs epsilon {slope_eps:.4f}, slope vs defect {slope_defect}")

    return _Run(
        "scaling",
        {"slopes": slopes},
        lines,
        spec={"scenario": spec.to_dict(), "epsilons": epsilons, "resolutions": resolutions},
        seed=spec.seed,
        checks={"slope_defined": all(v["vs_epsilon"] is not None for v in slopes.values())},
        rows=rows,
        plot_columns=("n", "epsilon", "lhs", "stretch", "constant"),
    )


def cmd_multiscale(args, config: dict) -> _Run:
    spec = _scenario_spec(config, args)
    _require_fit_exponent(spec.p)
    t_values = _sweep_list(config, "t_values", None, kind=int) or [1, 2, 4, 8]
    if not _strictly_decreasing(t_values[::-1]):
        raise ConfigError("'t_values' must increase strictly")
    shifts = _sweep_list(config, "shifts", args.eps)
    if shifts is None:
        shifts = [spec.length / 4.0, spec.length / 8.0, spec.length / 16.0]
    # `modulus_decreasing` reads the moduli in this order.
    if not _strictly_decreasing([abs(shift) for shift in shifts]):
        raise ConfigError("'shifts' (or --eps) must decrease strictly in absolute value")
    bundle = _build(spec)
    if isinstance(bundle.u, GridMap):
        raise ConfigError("multiscale needs a codimension-one scenario")
    for t in t_values:
        if t < 1 or spec.resolution % t != 0:
            raise ConfigError(f"t={t} does not divide the resolution {spec.resolution}")

    rows = []
    residuals = []
    fields = {}
    lines = []
    head = {"scenario": spec.family, "p": float(spec.p), "n": int(spec.resolution)}
    for t in t_values:
        field = multiscale_fit(bundle.u, bundle.metric, t, p=spec.p)
        fields[t] = field
        residuals.append(field.residual)
        rows.append(head | {"t": int(t), "residual": float(field.residual)})
        lines.append(f"t={t}: residual {field.residual:.6e}")

    moduli = []
    for shift in shifts:
        zeta = np.zeros(spec.dim)
        zeta[0] = shift
        for t in t_values:
            tm = translation_modulus(fields[t], zeta)
            if t == t_values[-1]:
                moduli.append(tm.value)
            shifted = {"t": int(t), "zeta": float(shift), "modulus": float(tm.value)}
            rows.append(head | shifted | {"covered_fraction": float(tm.covered_fraction)})
        # `tm` is the modulus of the last (finest) t, which the loop just measured.
        # With no admissible subcube it reads 0 and the trend check says nothing.
        if tm.covered_fraction == 0.0:
            raise ConfigError(f"shift {shift:g} leaves no admissible subcube at t={t_values[-1]}")
        lines.append(f"zeta={shift:g}: modulus {tm.value:.6e} covered {tm.covered_fraction:.3f}")

    return _Run(
        "multiscale",
        {"residuals": residuals, "moduli": moduli},
        lines,
        spec={"scenario": spec.to_dict(), "t_values": t_values, "shifts": shifts},
        seed=spec.seed,
        checks={
            "residual_decreasing": _strictly_decreasing(residuals),
            "modulus_decreasing": _strictly_decreasing(moduli),
        },
        rows=rows,
        plot_columns=("t", "zeta", "residual", "modulus", "covered_fraction"),
        verdict="trends",
    )


def cmd_asymptotic(args, config: dict) -> _Run:
    spec = _scenario_spec(config, args)
    epsilons = _sweep_list(config, "epsilons", args.eps)
    if not epsilons:
        raise ConfigError("asymptotic needs an 'epsilons' schedule (or --eps)")
    reference = config.get("reference", "curvature")
    if reference not in ("curvature", "none"):
        raise ConfigError("'reference' must be 'curvature' or 'none'")
    try:
        threshold = config_number(config.get("threshold", 1e-4), "'threshold'")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if threshold <= 0.0:
        raise ConfigError("'threshold' must be positive")

    members = [_build(_replace(spec, epsilon=e)) for e in epsilons]
    first = members[0]
    if isinstance(first.u, GridMap):
        raise ConfigError("asymptotic needs a codimension-one scenario")
    ref = None
    if reference == "curvature":
        ref = ReferenceShape(first.u.grid, spec.kappa * first.metric.gram)

    if len(members) == 1:
        # Single-member schedule: the discretization oracle (typically eps=0).
        report = energies(first.u, first.metric, ref, p=spec.p)
        defect = _lebesgue_isometry_defect(first.u, first.metric, spec.p)
        recovery = report.bending_ref if ref is not None else None
        stretches = [report.stretch]
        recoveries = [recovery]
        gaps = [0.0]
        checks = {"final_defect": defect <= threshold}
        shape_norm = None if recovery is None else recovery ** (1.0 / spec.p)
    else:
        try:
            run = asymptotic_sequence_run(members, ref=ref, p=spec.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        stretches = [er.stretch for er in run.energy_reports]
        recoveries = [er.bending_ref for er in run.energy_reports]
        gaps = list(run.gaps)
        defect = run.final_defect
        shape_norm = run.shape_error_norm
        checks = {
            "stretch_decreasing": _strictly_decreasing(stretches),
            "final_defect": defect <= threshold,
        }
        if ref is not None:
            checks["recovery_decreasing"] = _strictly_decreasing(recoveries)

    rows = []
    for eps, stretch, recovery, gap in zip(epsilons, stretches, recoveries, gaps):
        row = {
            "scenario": spec.family,
            "p": float(spec.p),
            "n": int(spec.resolution),
            "epsilon": float(eps),
            "stretch": float(stretch),
            "residual": float(gap),
        }
        if recovery is not None:
            row["bend_scale"] = float(recovery)
        rows.append(row)

    lines = [f"final isometry defect {defect:.6e} (threshold {threshold:g})"]
    if shape_norm is not None:
        lines.append(f"shape recovery error  {shape_norm:.6e}")
    payload = {
        "stretch": stretches,
        "recovery": recoveries,
        "gaps": gaps,
        "final_defect": defect,
        "shape_error_norm": shape_norm,
    }
    return _Run(
        "asymptotic",
        payload,
        lines,
        spec={"scenario": spec.to_dict(), "epsilons": epsilons, "reference": reference, "threshold": threshold},
        seed=spec.seed,
        checks=checks,
        rows=rows,
        plot_columns=("epsilon", "stretch", "bend_scale", "residual"),
        verdict="asymptotic",
    )


def cmd_snapshot(args, config: dict) -> _Run:
    if args.mode == "read":
        if not args.path:
            raise ConfigError("snapshot read needs a path")
        u, metric = _load_snapshot(args.path)
        if u.degenerate.all():
            raise DegenerateFieldError("every cell of the snapshot is degenerate")
        report = energies(u, metric, p=2.0)
        lines = [
            f"grid: d={u.grid.dim} n={u.grid.resolution} l={u.grid.length:g}",
            f"target: {u.target.kind} (ambient {u.target.ambient_dim})",
            f"degenerate cells: {u.degenerate_count}",
            f"stretch {report.stretch:.6e}  bending {report.bending:.6e}",
        ]
        return _Run(None, {"stretch": report.stretch, "bending": report.bending}, lines)
    spec = _scenario_spec(config, args)
    bundle = _build(spec)
    if isinstance(bundle.u, GridMap):
        raise ConfigError("snapshots store codimension-one immersions only")
    return _Run(
        "snapshot_report",
        {"snapshot": _SNAPSHOT},
        [f"wrote {Path(args.out) / _SNAPSHOT}"],
        spec={"scenario": spec.to_dict()},
        seed=spec.seed,
        checks={"written": True},
        snapshot=bundle,
    )


# --- argument parsing and main --------------------------------------------

# Subcommand -> (help, handler, the top-level config keys it reads); any other
# key is a config error rather than a setting the run would silently ignore.
_COMMANDS = {
    "lemmas": ("run the random property suite", cmd_lemmas, {f.name for f in dataclasses.fields(LemmaConfig)}),
    "rigidity": ("one scenario, one rigidity fit", cmd_rigidity, {"scenario", "snapshot"}),
    "scaling": ("epsilon sweep with log-log slopes", cmd_scaling, {"scenario", "epsilons", "resolutions"}),
    "multiscale": ("partition sweep and translation modulus", cmd_multiscale, {"scenario", "t_values", "shifts"}),
    "asymptotic": (
        "shrinking-perturbation family run",
        cmd_asymptotic,
        {"scenario", "epsilons", "reference", "threshold"},
    ),
    "snapshot": ("write or read immersion snapshots", cmd_snapshot, {"scenario"}),
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--out", default=".", help="output directory (default: current)")
    shared.add_argument("--p", type=float, help="override the exponent p")
    shared.add_argument("--seed", type=int, help="override the seed (beats RIGIDITY_SEED and the file)")
    shared.add_argument("--n", type=int, help="override the resolution (sample count for lemmas)")
    shared.add_argument("--eps", type=_parse_eps, help="override epsilon(s), comma separated")

    parser = argparse.ArgumentParser(prog="rigidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=help_text)
    sub.choices["snapshot"].add_argument("mode", choices=("write", "read"))
    sub.choices["snapshot"].add_argument("path", nargs="?", help="snapshot file (read mode)")
    return parser


# The parser main reuses, built on the first call rather than at import.
# Parsing keeps no state in it: each call fills a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        run = _COMMANDS[args.command][1](args, _load_config(args))
        _emit(Path(args.out), args.command, run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateFieldError as exc:
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    for line in run.lines:
        print(line)
    if run.verdict is None:
        return EXIT_PASS
    passed = all(run.checks.values())
    print(f"{run.verdict}:", "PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
