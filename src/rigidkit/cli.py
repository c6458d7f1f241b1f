"""Command-line front end: property suites and experiment drivers.

Subcommands: lemmas, rigidity, scaling, multiscale, asymptotic, snapshot.
Each run reads one JSON config file, applies flag overrides (flags win over
the file, and --seed wins over the RIGIDITY_SEED environment variable,
which wins over the file), writes reports under --out, and exits with:

    0  pass
    1  property or trend failure
    2  config error
    3  degenerate scenario

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
from .scenarios import ScenarioSpec, build_scenario

SEED_ENV = "RIGIDITY_SEED"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

_SLOPE_FLOOR = 1e-15
# Rigidity report terms in printed order; the CSV row has all but plane_variation.
_REPORT_TERMS = ("lhs", "osc_term", "stretch", "bend_scale", "plane_variation", "constant")


class ConfigError(ValueError):
    """Anything wrong with the config file or flag combination."""


# The top-level config keys each subcommand reads; any other key is a config
# error rather than a setting the run would silently ignore.
_CONFIG_KEYS = {
    "lemmas": {f.name for f in dataclasses.fields(LemmaConfig)},
    "rigidity": {"scenario", "snapshot"},
    "scaling": {"scenario", "epsilons", "resolutions"},
    "multiscale": {"scenario", "t_values", "shifts"},
    "asymptotic": {"scenario", "epsilons", "reference", "threshold"},
    "snapshot": {"scenario"},
}


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
    unknown = set(config) - _CONFIG_KEYS[args.command]
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


def _sweep_list(config: dict, key: str, override, kind=float) -> list | None:
    if override is not None:
        return [kind(v) for v in override]
    raw = config.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"'{key}' must be a nonempty list")
    try:
        return [config_number(v, kind) for v in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        kinds = "integers" if kind is int else "finite numbers"
        raise ConfigError(f"'{key}' entries must be {kinds}, got {raw!r}") from exc


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


def _require_finite(payload: dict, rows=None) -> None:
    """Stop the run, as a degenerate scenario, on a report term that
    overflowed or lost its value."""
    bad = _non_finite_term(payload, "") or _non_finite_term(rows or [], "rows")
    if bad is not None:
        raise DegenerateFieldError(f"report term {bad[0]} is not finite ({float(bad[1])})")


def _emit(out_dir: Path, name: str, manifest: RunManifest, payload: dict, rows=None, plot_columns=None):
    """Write the run's reports: CSV and gnuplot data from `rows`, then the JSON
    payload with the manifest.  Every subcommand's reports go through here,
    so `_require_finite` stops the run before any file is written."""
    _require_finite(payload, rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    if rows is not None:
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, rows)
        manifest.record_output(csv_path)
        if plot_columns:
            dat_path = out_dir / f"{name}.dat"
            write_gnuplot_data(dat_path, rows, plot_columns)
            manifest.record_output(dat_path)
    json_path = out_dir / f"{name}.json"
    manifest.record_output(json_path)
    payload = dict(payload)
    payload["manifest"] = manifest.to_dict()
    write_json_report(json_path, payload)


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


def cmd_lemmas(args) -> int:
    config = _load_config(args)
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

    if lemma_config.samples == 0:
        print("warning: sample count is 0, every sampled property passes vacuously")
    results = run_all(lemma_config)
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        print(f"{result.name:26s} {verdict}  min slack {result.min_slack:+.3e}  ({result.samples} samples)")
    all_passed = all(r.passed for r in results)

    manifest = RunManifest(
        command="lemmas",
        spec={"lemma_config": dataclasses.asdict(lemma_config)},
        seed=lemma_config.seed,
        checks={r.name: r.passed for r in results},
    )
    _emit(
        Path(args.out),
        "lemmas",
        manifest,
        {"properties": [r.to_dict() for r in results], "passed": all_passed},
    )
    print("suite:", "PASS" if all_passed else "FAIL")
    return EXIT_PASS if all_passed else EXIT_FAIL


def cmd_rigidity(args) -> int:
    config = _load_config(args)
    if "snapshot" in config:
        try:
            u, metric = snapshot_load(config["snapshot"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load snapshot: {exc}") from exc
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

    manifest = RunManifest(
        command="rigidity",
        spec=spec_echo,
        seed=seed,
        checks={"completed": True},
    )
    payload = {
        "route": route,
        "report": {
            "p": report.p,
            "base_index": list(report.base_index),
            **{name: getattr(report, name) for name in _REPORT_TERMS},
        },
    }
    _emit(Path(args.out), "rigidity", manifest, payload, rows=[row])
    print(f"route: {route}")
    for name in _REPORT_TERMS:
        print(f"{name:17s}{getattr(report, name):.6e}")
    return EXIT_PASS


def cmd_scaling(args) -> int:
    config = _load_config(args)
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

    defined = all(v["vs_epsilon"] is not None for v in slopes.values())
    manifest = RunManifest(
        command="scaling",
        spec={"scenario": spec.to_dict(), "epsilons": epsilons, "resolutions": resolutions},
        seed=spec.seed,
        checks={"slope_defined": defined},
    )
    _emit(
        Path(args.out),
        "scaling",
        manifest,
        {"slopes": slopes},
        rows=rows,
        plot_columns=("n", "epsilon", "lhs", "stretch", "constant"),
    )
    for line in lines:
        print(line)
    return EXIT_PASS


def cmd_multiscale(args) -> int:
    config = _load_config(args)
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
    # Printed only once every fit and the finite check have passed.
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

    residual_ok = _strictly_decreasing(residuals) if len(residuals) > 1 else True
    modulus_ok = _strictly_decreasing(moduli) if len(moduli) > 1 else True
    manifest = RunManifest(
        command="multiscale",
        spec={"scenario": spec.to_dict(), "t_values": t_values, "shifts": shifts},
        seed=spec.seed,
        checks={"residual_decreasing": residual_ok, "modulus_decreasing": modulus_ok},
    )
    _emit(
        Path(args.out),
        "multiscale",
        manifest,
        {"residuals": residuals, "moduli": moduli},
        rows=rows,
        plot_columns=("t", "zeta", "residual", "modulus", "covered_fraction"),
    )
    for line in lines:
        print(line)
    passed = residual_ok and modulus_ok
    print("trends:", "PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_asymptotic(args) -> int:
    config = _load_config(args)
    spec = _scenario_spec(config, args)
    epsilons = _sweep_list(config, "epsilons", args.eps)
    if not epsilons:
        raise ConfigError("asymptotic needs an 'epsilons' schedule (or --eps)")
    if len(epsilons) > 1 and not _strictly_decreasing(epsilons):
        raise ConfigError("the epsilon schedule must decrease strictly")
    reference = config.get("reference", "curvature")
    if reference not in ("curvature", "none"):
        raise ConfigError("'reference' must be 'curvature' or 'none'")
    try:
        threshold = config_number(config.get("threshold", 1e-4))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'threshold' must be a number: {exc}") from exc
    if threshold <= 0.0:
        raise ConfigError("'threshold' must be positive")

    first = _build(_replace(spec, epsilon=epsilons[0]))
    if isinstance(first.u, GridMap):
        raise ConfigError("asymptotic needs a codimension-one scenario")
    ref = None
    if reference == "curvature":
        ref = ReferenceShape(first.u.grid, spec.kappa * first.metric.gram)

    rows = []
    if len(epsilons) == 1:
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
        specs = [_replace(spec, epsilon=e) for e in epsilons]
        try:
            run = asymptotic_sequence_run(specs, ref=ref, p=spec.p)
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

    print(f"final isometry defect {defect:.6e} (threshold {threshold:g})")
    if shape_norm is not None:
        print(f"shape recovery error  {shape_norm:.6e}")
    passed = all(checks.values())
    print("asymptotic:", "PASS" if passed else "FAIL")

    manifest = RunManifest(
        command="asymptotic",
        spec={
            "scenario": spec.to_dict(),
            "epsilons": epsilons,
            "reference": reference,
            "threshold": threshold,
        },
        seed=spec.seed,
        checks=checks,
    )
    payload = {
        "stretch": stretches,
        "recovery": recoveries,
        "gaps": gaps,
        "final_defect": defect,
        "shape_error_norm": shape_norm,
    }
    _emit(
        Path(args.out),
        "asymptotic",
        manifest,
        payload,
        rows=rows,
        plot_columns=("epsilon", "stretch", "bend_scale", "residual"),
    )
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_snapshot(args) -> int:
    if args.mode == "write":
        config = _load_config(args)
        spec = _scenario_spec(config, args)
        bundle = _build(spec)
        if isinstance(bundle.u, GridMap):
            raise ConfigError("snapshots store codimension-one immersions only")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "snapshot.json"
        snapshot_save(path, bundle.u, bundle.metric)
        manifest = RunManifest(
            command="snapshot",
            spec={"scenario": spec.to_dict()},
            seed=spec.seed,
            checks={"written": True},
        )
        manifest.record_output(path)
        _emit(out_dir, "snapshot_report", manifest, {"snapshot": path.name})
        print(f"wrote {path}")
        return EXIT_PASS
    try:
        u, metric = snapshot_load(args.path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load snapshot: {exc}") from exc
    if u.degenerate.all():
        raise DegenerateFieldError("every cell of the snapshot is degenerate")
    report = energies(u, metric, p=2.0)
    _require_finite({"stretch": report.stretch, "bending": report.bending})
    print(f"grid: d={u.grid.dim} n={u.grid.resolution} l={u.grid.length:g}")
    print(f"target: {u.target.kind} (ambient {u.target.ambient_dim})")
    print(f"degenerate cells: {u.degenerate_count}")
    print(f"stretch {report.stretch:.6e}  bending {report.bending:.6e}")
    return EXIT_PASS


# --- argument parsing ------------------------------------------------------


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

    sub.add_parser("lemmas", parents=[shared], help="run the random property suite").set_defaults(handler=cmd_lemmas)
    sub.add_parser("rigidity", parents=[shared], help="one scenario, one rigidity fit").set_defaults(handler=cmd_rigidity)
    sub.add_parser("scaling", parents=[shared], help="epsilon sweep with log-log slopes").set_defaults(handler=cmd_scaling)
    sub.add_parser("multiscale", parents=[shared], help="partition sweep and translation modulus").set_defaults(handler=cmd_multiscale)
    sub.add_parser("asymptotic", parents=[shared], help="shrinking-perturbation family run").set_defaults(handler=cmd_asymptotic)

    snap = sub.add_parser("snapshot", parents=[shared], help="write or read immersion snapshots")
    snap.add_argument("mode", choices=("write", "read"))
    snap.add_argument("path", nargs="?", help="snapshot file (read mode)")
    snap.set_defaults(handler=cmd_snapshot)
    return parser


# The parser main reuses, built on the first call rather than at import.
# Parsing keeps no state in it: each call fills a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "mode", None) == "read" and not args.path:
        print("error: snapshot read needs a path", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateFieldError as exc:
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
