import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rigidkit import cli
from rigidkit.cli import main
from rigidkit.fields import GridDomain, ImmersionField, TargetSpace, snapshot_save
from rigidkit.scenarios import FAMILIES, build_metric, build_scenario, latitude_circle


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("RIGIDITY_CLOCK", "1970-01-01T00:00:00+00:00")
    monkeypatch.delenv("RIGIDITY_SEED", raising=False)


class TestLemmas:
    def test_small_suite_passes(self, tmp_path, capsys):
        code = main(["lemmas", "--n", "150", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "suite: PASS" in out
        payload = json.loads((tmp_path / "lemmas.json").read_text())
        assert payload["passed"] is True
        assert len(payload["properties"]) == 7
        assert payload["manifest"]["command"] == "lemmas"

    def test_zero_samples_warns_and_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"samples": 0, "curve_resolution": 32})
        code = main(["lemmas", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert "vacuously" in capsys.readouterr().out

    def test_negative_tolerance_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"tolerance": -1})
        assert main(["lemmas", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"smaples": 10})
        assert main(["lemmas", "--config", cfg, "--out", str(tmp_path)]) == 2

    # Raw JSON text, so 1e400 (which JSON reads as infinity) can be written.
    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"max_dim": 3, "max_ambient": 3', "need 1 <= max_dim < max_ambient"),
            ('"samples": 1.5', "samples must be an integer, got 1.5"),
            ('"samples": true', "samples must be an integer, got True"),
            ('"max_dim": 2.5', "max_dim must be an integer, got 2.5"),
            ('"max_ambient": 6.5', "max_ambient must be an integer, got 6.5"),
            ('"seed": 1.5', "seed must be an integer, got 1.5"),
            ('"seed": -1', "seed must be nonnegative"),
            ('"curve_resolution": 64.5', "curve_resolution must be an integer, got 64.5"),
            ('"lam_max": 1e400', "lam_max must be a finite number, got inf"),
            ('"lam_max": 1e9', "lam_max must lie in [1, 1e6], got 1000000000.0"),
            ('"lam_max": 1e300', "lam_max must lie in [1, 1e6], got 1e+300"),
            ('"sphere_radius": 1e-3', "the latitude arc is longer than its circle of latitude"),
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, entry, message):
        path = tmp_path / "cfg.json"
        path.write_text('{"samples": 4, ' + entry + "}")
        assert main(["lemmas", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"error: bad lemma config: {message}" in capsys.readouterr().err
        assert not (tmp_path / "lemmas.json").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            ([], {"samples": 10**12}, "sample count must lie in [0, 100000], got 1000000000000"),
            (["--n", str(10**12)], {}, "sample count must lie in [0, 100000], got 1000000000000"),
            ([], {"samples": 100_001, "max_ambient": 2, "max_dim": 1}, "sample count must lie in [0, 100000]"),
            ([], {"samples": 55_556}, "samples * max_ambient * max_dim must be at most 1000000"),
            ([], {"samples": 1, "max_ambient": 10**12, "max_dim": 1}, "samples * max_ambient * max_dim must be"),
            ([], {"curve_resolution": 10**9}, "curve resolution must lie in [2, 500000], got 1000000000"),
        ],
    )
    def test_absurd_sizes_exit_2_before_anything_is_allocated(
        self, tmp_path, capsys, monkeypatch, argv, config, message
    ):
        def suite_must_not_run(config):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_all", suite_must_not_run)
        cfg = write_config(tmp_path, "cfg.json", config)
        tracemalloc.start()
        try:
            code = main(["lemmas", "--config", cfg, "--out", str(tmp_path / "out"), *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"error: bad lemma config: {message}" in capsys.readouterr().err
        assert peak < 1 << 20  # bytes: no array of the suite was made
        assert not (tmp_path / "out").exists()

    def test_integral_float_counts_are_integers(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"samples": 4.0, "curve_resolution": 32.0})
        assert main(["lemmas", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "lemmas.json").read_text())
        assert payload["manifest"]["spec"]["lemma_config"]["samples"] == 4
        assert [p["samples"] for p in payload["properties"]] == [4, 4, 4, 4, 4, 32, 4]


class TestNearlyEmptyFits:
    """One rule for both fitting subcommands: a patch (the grid for
    `rigidity`, each subcube for `multiscale`) that keeps fewer than half of
    its cells is a degenerate scenario."""

    MESSAGE = "degenerate scenario: a patch keeps 1 of its 64 cells; a fit needs at least half of them non-degenerate\n"

    @pytest.mark.parametrize("command", ["rigidity", "multiscale"])
    def test_fit_on_one_cell_in_64_exits_3_with_one_message(self, tmp_path, capsys, command):
        scenario = {"family": "graph", "dim": 2, "resolution": 8, "epsilon": 1e300}
        cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario})
        with np.errstate(all="ignore"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", self.MESSAGE)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, extra", [("rigidity", {}), ("multiscale", {"t_values": [1, 2, 4]})])
    def test_one_degenerate_cell_still_fits(self, tmp_path, capsys, monkeypatch, command, extra):
        def one_collapsed_cell(spec):
            bundle = build_scenario(spec)
            values = bundle.u.values.copy()
            values[11] = values[10]  # cell 10 has zero length
            u = ImmersionField(bundle.u.grid, bundle.u.target, values)
            assert u.degenerate_count == 1
            return type(bundle)(bundle.spec, u, bundle.metric)

        monkeypatch.setattr(cli, "_build", one_collapsed_cell)
        scenario = {"family": "curve", "dim": 1, "resolution": 64, "kappa": 1.0}
        cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario} | extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / f"{command}.json").exists()


class TestRigidity:
    def test_graph_scenario_reports_all_fields(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"scenario": {"family": "graph", "dim": 2, "resolution": 16, "epsilon": 0.03}},
        )
        code = main(["rigidity", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for label in ("lhs", "osc_term", "stretch", "bend_scale", "plane_variation", "constant"):
            assert label in out
        payload = json.loads((tmp_path / "rigidity.json").read_text())
        assert payload["route"] == "local"
        assert payload["report"]["lhs"] > 0.0
        csv_lines = (tmp_path / "rigidity.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    def test_equidimensional_scenario_uses_metric_route(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 12, "epsilon": 0.05}},
        )
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "rigidity.json").read_text())
        assert payload["route"] == "metric"
        assert payload["report"]["bend_scale"] == 0.0

    @pytest.mark.parametrize("command", ["rigidity", "snapshot-read"])
    @pytest.mark.parametrize("last, code", [([0.0, 1.0, 0.0], 0), ([1.0, 0.0, 0.0], 3)])
    def test_sphere_cell_at_the_centre_is_degenerate(self, tmp_path, capsys, command, last, code):
        # cell 0 joins antipodes, so its cell point is the sphere's centre; with
        # the last node back at (1, 0, 0) cell 1 does too and no cell is left
        grid = GridDomain(1, 1.0, 2)
        values = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], last])
        snap = tmp_path / "antipodes.json"
        snapshot_save(snap, ImmersionField(grid, TargetSpace.sphere(1, 1.0), values), build_metric(grid, "flat"))
        if command == "rigidity":
            argv = ["rigidity", "--config", write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})]
        else:
            argv = ["snapshot", "read", str(snap)]
        with np.errstate(all="raise"):
            assert main(argv + ["--out", str(tmp_path / "out")]) == code
        captured = capsys.readouterr()
        if code == 3:
            assert captured.err.startswith("degenerate scenario: ")
            assert not (tmp_path / "out").exists()
        elif command == "snapshot-read":
            assert "degenerate cells: 1" in captured.out

    def test_snapshot_read_with_overflowing_energies_is_degenerate(self, tmp_path, capsys):
        grid = GridDomain(1, 1.0, 4)
        values = np.stack([1e160 * grid.node_axis(), np.zeros(5)], axis=-1)
        snap = tmp_path / "huge.json"
        snapshot_save(snap, ImmersionField(grid, TargetSpace.euclidean(1), values), build_metric(grid, "flat"))
        with np.errstate(all="ignore"):
            assert main(["snapshot", "read", str(snap)]) == 3
        captured = capsys.readouterr()
        assert "degenerate scenario: report term stretch is not finite (inf)" in captured.err
        assert "stretch" not in captured.out

        # the fit overflows too: its terms are neither printed nor written
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        with np.errstate(all="ignore"):
            assert main(["rigidity", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert "degenerate scenario: report term report.lhs is not finite (inf)" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", [1.5, True, ["a.json"]])
    def test_snapshot_path_must_be_a_string(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": path})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"error: 'snapshot' must be a file path, got {path!r}" in capsys.readouterr().err

    def test_degenerate_snapshot_exits_3(self, tmp_path):
        grid = GridDomain(1, 1.0, 4)
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.ones((5, 2)))
        snap = tmp_path / "flatline.json"
        snapshot_save(snap, u, build_metric(grid, "flat"))
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"family": "perturbed", "seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"family": "curve", "seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"family": "curve", "resolution": 16.5}, "resolution must be an integer, got 16.5"),
            ({"family": "curve", "dim": 1.5}, "dim must be an integer, got 1.5"),
            ({"family": "curve", "dim": True}, "dim must be an integer, got True"),
        ],
    )
    def test_non_integral_scenario_field_is_config_error(self, tmp_path, capsys, scenario, message):
        cfg = write_config(tmp_path, "cfg.json", {"scenario": {"dim": 1, "resolution": 16, **scenario}})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"error: bad scenario: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rigidity.json").exists()

    # Raw JSON text: NaN and 1e400 (which JSON reads as infinity) are what a
    # hand-written config can hold.
    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"family": "curve", "metric_kind": "random", "metric_lam": NaN', "metric_lam must be a finite number, got nan"),
            ('"family": "perturbed", "epsilon": NaN', "epsilon must be a finite number, got nan"),
            ('"family": "perturbed", "kappa": NaN', "kappa must be a finite number, got nan"),
            ('"family": "curve", "length": 1e400', "length must be a finite number, got inf"),
            ('"family": "curve", "rho": true', "rho must be a finite number, got True"),
            ('"family": "curve", "length": "1"', "length must be a finite number, got '1'"),
        ],
    )
    def test_non_finite_scenario_field_is_config_error(self, tmp_path, capsys, entry, message):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": {"dim": 1, "resolution": 16, ' + entry + "}}")
        assert main(["rigidity", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"error: bad scenario: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rigidity.json").exists()

    def test_snapshot_with_nan_gram_is_config_error(self, tmp_path, capsys):
        grid = GridDomain(1, 1.0, 8)
        t = grid.node_axis()
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.stack([t, 0.1 * t**2], axis=-1))
        snap = tmp_path / "parabola.json"
        snapshot_save(snap, u, build_metric(grid, "flat"))
        doc = json.loads(snap.read_text())
        doc["gram"][3][0][0] = float("nan")
        snap.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot load snapshot: gram field is not finite and symmetric" in err
        assert not (tmp_path / "rigidity.json").exists()

    # Each of these once truncated to an integer and loaded.
    @pytest.mark.parametrize(
        "section, name, value", [("grid", "d", 1.9), ("grid", "d", True), ("grid", "n", 8.7), ("target", "D", 2.5)]
    )
    def test_non_integral_snapshot_field_is_config_error(self, tmp_path, capsys, section, name, value):
        grid = GridDomain(1, 1.0, 8)
        t = grid.node_axis()
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.stack([t, 0.1 * t**2], axis=-1))
        snap = tmp_path / "parabola.json"
        snapshot_save(snap, u, build_metric(grid, "flat"))
        doc = json.loads(snap.read_text())
        doc[section][name] = value
        snap.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
        message = f"error: cannot load snapshot: snapshot field {name} must be an integer, got {value!r}"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rigidity.json").exists()

    # Each of these once loaded as length or radius 1.0.
    @pytest.mark.parametrize(
        "section, name, value", [("grid", "l", True), ("target", "rho", True), ("grid", "l", "1")]
    )
    def test_non_numeric_snapshot_length_is_config_error(self, tmp_path, capsys, section, name, value):
        grid = GridDomain(1, 1.0, 8)
        snap = tmp_path / "arc.json"
        snapshot_save(snap, latitude_circle(grid, 1.0, np.pi / 2), build_metric(grid, "flat"))
        doc = json.loads(snap.read_text())
        doc[section][name] = value
        snap.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
        message = f"error: cannot load snapshot: snapshot field {name} must be a finite number, got {value!r}"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rigidity.json").exists()

    # 5e-324 is positive, but over 8 cells the spacing rounds to 0.
    @pytest.mark.parametrize("family, dim", [("perturbed_identity", 2), ("curve", 1), ("graph", 2)])
    def test_zero_spacing_is_config_error(self, tmp_path, capsys, family, dim):
        scenario = {"family": family, "dim": dim, "resolution": 8, "length": 5e-324}
        cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: scenario cannot be built: grid spacing 0.0 is not positive and finite" in err
        assert not (tmp_path / "rigidity.json").exists()

    # A huge spacing overflows the bend scale, and a larger one the cell
    # volume, so the fit (lhs inf); so does a huge perturbation.
    @pytest.mark.parametrize(
        "scenario, term",
        [
            ({"family": "graph", "dim": 2, "resolution": 8, "length": 1e100}, "report.bend_scale is not finite (inf)"),
            ({"family": "graph", "dim": 2, "resolution": 8, "length": 1e200}, "report.lhs is not finite (inf)"),
            (
                {"family": "perturbed", "dim": 2, "resolution": 8, "kappa": 0.0, "epsilon": 1e300},
                "report.lhs is not finite (inf)",
            ),
        ],
    )
    def test_non_finite_report_term_is_degenerate(self, tmp_path, capsys, scenario, term):
        cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario})
        with np.errstate(all="ignore"):
            assert main(["rigidity", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert f"degenerate scenario: report term {term}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_metric_ends_without_a_traceback(self, tmp_path):
        # Gram entries near 1e300: the 2 x 2 extremes and roots are taken on
        # a rescaled Gram, so nothing overflows on the way
        scenario = {"family": "graph", "dim": 2, "resolution": 8, "metric_kind": "linear", "metric_slope": 1e300}
        cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rigidity", "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 3)

    def test_nan_report_term_is_degenerate(self, tmp_path, capsys, monkeypatch):
        # A graph with a tiny spacing, whose bend scale is NaN, keeps 1 of its
        # 64 cells and stops at the half-cells rule first; the fit is patched
        # instead to lose one term's value.
        real = cli._fit_report

        def lost_bend_scale(bundle, p):
            report, route = real(bundle, p)
            return dataclasses.replace(report, bend_scale=float("nan")), route

        monkeypatch.setattr(cli, "_fit_report", lost_bend_scale)
        cfg = write_config(tmp_path, "cfg.json", {"scenario": {"family": "graph", "dim": 2, "resolution": 8}})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degenerate scenario: report term report.bend_scale is not finite (nan)" in captured.err
        assert not (tmp_path / "out").exists()

    def test_integral_float_dim_is_an_integer(self, tmp_path):
        scenario = {"family": "curve", "dim": 1.0, "resolution": 16}
        cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 0
        spec = json.loads((tmp_path / "rigidity.json").read_text())["manifest"]["spec"]["scenario"]
        assert spec["dim"] == 1 and isinstance(spec["dim"], int)

    def test_missing_scenario_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unit_exponent_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"scenario": {"family": "graph", "dim": 2, "resolution": 16}}
        )
        assert main(["rigidity", "--config", cfg, "--p", "1.0", "--out", str(tmp_path)]) == 2
        assert "error: rigidity fits need an exponent p > 1" in capsys.readouterr().err

    def test_unit_exponent_on_snapshot_is_config_error(self, tmp_path, capsys):
        grid = GridDomain(1, 1.0, 8)
        t = grid.node_axis()
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.stack([t, 0.1 * t**2], axis=-1))
        snap = tmp_path / "parabola.json"
        snapshot_save(snap, u, build_metric(grid, "flat"))
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        assert main(["rigidity", "--config", cfg, "--p", "1.0", "--out", str(tmp_path)]) == 2
        assert "error: rigidity fits need an exponent p > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_exponent_is_config_error(self, tmp_path, capsys, source):
        scenario = {"family": "graph", "dim": 2, "resolution": 16}
        if source == "config":
            # json reads 1e400 as inf
            path = tmp_path / "cfg.json"
            path.write_text('{"scenario": {"family": "graph", "dim": 2, "resolution": 16, "p": 1e400}}')
            argv = ["rigidity", "--config", str(path), "--out", str(tmp_path)]
        else:
            cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario})
            argv = ["rigidity", "--config", cfg, "--p", "inf", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "error: bad scenario: exponent p must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rigidity.json").exists()

    def test_infinite_exponent_on_snapshot_is_config_error(self, tmp_path, capsys):
        grid = GridDomain(1, 1.0, 8)
        t = grid.node_axis()
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.stack([t, 0.1 * t**2], axis=-1))
        snap = tmp_path / "parabola.json"
        snapshot_save(snap, u, build_metric(grid, "flat"))
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})
        assert main(["rigidity", "--config", cfg, "--p", "inf", "--out", str(tmp_path)]) == 2
        assert "error: rigidity fits need an exponent p > 1 and finite" in capsys.readouterr().err

    def test_non_object_snapshot_is_config_error(self, tmp_path, capsys):
        snap = write_config(tmp_path, "list.json", [1, 2, 3])
        cfg = write_config(tmp_path, "cfg.json", {"snapshot": snap})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: cannot load snapshot: snapshot must be a JSON object" in capsys.readouterr().err


class TestScaling:
    def base_config(self, tmp_path, **extra):
        payload = {
            "scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 16, "seed": 3},
            "epsilons": [0.1, 0.03, 0.01],
        }
        payload.update(extra)
        return write_config(tmp_path, "scaling.json", payload)

    def test_linear_slope_on_perturbed_identity(self, tmp_path):
        cfg = self.base_config(tmp_path)
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "scaling.json").read_text())
        slope = payload["slopes"]["16"]["vs_epsilon"]
        assert 0.9 <= slope <= 1.1
        dat = (tmp_path / "scaling.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 4

    def test_single_point_is_config_error(self, tmp_path):
        cfg = self.base_config(tmp_path, epsilons=[0.1])
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unit_exponent_is_config_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path)
        assert main(["scaling", "--config", cfg, "--p", "1.0", "--out", str(tmp_path)]) == 2
        assert "error: rigidity fits need an exponent p > 1" in capsys.readouterr().err

    def test_infinite_exponent_is_config_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path)
        assert main(["scaling", "--config", cfg, "--p", "inf", "--out", str(tmp_path)]) == 2
        assert "error: bad scenario: exponent p must be finite" in capsys.readouterr().err

    def test_single_cell_resolution_is_config_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, resolutions=[1, 16])
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: bad scenario: scenario grids need at least two cells" in capsys.readouterr().err
        assert not (tmp_path / "scaling.csv").exists()

    def test_constant_scenario_warns_but_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "scaling.json",
            {
                "scenario": {"family": "curve", "dim": 1, "resolution": 32, "kappa": 0.0},
                "epsilons": [0.1, 0.03],
            },
        )
        code = main(["scaling", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        # The straight line ignores epsilon and is exactly rigid, so the lhs
        # sits at the rounding floor and the slope is undefined.
        assert "slope undefined" in capsys.readouterr().out
        payload = json.loads((tmp_path / "scaling.json").read_text())
        assert payload["slopes"]["32"]["vs_epsilon"] is None

    def test_non_integral_resolution_is_config_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, resolutions=[8.7])
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: 'resolutions' entry must be an integer, got 8.7" in capsys.readouterr().err
        assert not (tmp_path / "scaling.csv").exists()

    def test_repeated_resolution_is_config_error(self, tmp_path, capsys):
        # The sweep is keyed by resolution, so [16, 16] would run one sweep
        # while the manifest recorded two.
        cfg = self.base_config(tmp_path, resolutions=[16, 16])
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "error: 'resolutions' must not repeat a value" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_non_positive_epsilon_is_config_error(self, tmp_path, capsys, source):
        # the slopes take log epsilon
        if source == "config":
            cfg, extra = self.base_config(tmp_path, epsilons=[0.1, -0.05]), []
        else:
            cfg, extra = self.base_config(tmp_path), ["--eps", "0.1,0"]
        assert main(["scaling", "--config", cfg, *extra, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "error: scaling sweep points must be positive" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_overflowing_sweep_is_degenerate(self, tmp_path, capsys):
        # the lhs is inf, so its slope is undefined rather than a LAPACK
        # error, and the run stops before it prints any slope line
        scenario = {"family": "graph", "dim": 2, "resolution": 8, "length": 1e200}
        cfg = write_config(tmp_path, "scaling.json", {"scenario": scenario, "epsilons": [0.1, 0.05]})
        with np.errstate(all="ignore"):
            assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert "degenerate scenario: report term rows[0].lhs is not finite (inf)" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_eps_flag_overrides_file(self, tmp_path):
        cfg = self.base_config(tmp_path, epsilons=[0.5])
        code = main(["scaling", "--config", cfg, "--eps", "0.1,0.03", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "scaling.json").read_text())
        assert payload["manifest"]["spec"]["epsilons"] == [0.1, 0.03]


class TestMultiscale:
    def test_circle_trends_pass(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {
                "scenario": {"family": "curve", "dim": 1, "resolution": 64, "kappa": 1.0},
                "t_values": [1, 2, 4, 8],
            },
        )
        assert main(["multiscale", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "trends: PASS" in capsys.readouterr().out
        payload = json.loads((tmp_path / "multiscale.json").read_text())
        residuals = payload["residuals"]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert payload["manifest"]["checks"] == {
            "residual_decreasing": True,
            "modulus_decreasing": True,
        }

    def test_non_dividing_t_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {
                "scenario": {"family": "curve", "dim": 1, "resolution": 64},
                "t_values": [3],
            },
        )
        assert main(["multiscale", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("t_values", [[1, 1, 2], [2, 1]])
    def test_t_values_that_do_not_increase_are_config_errors(self, tmp_path, capsys, t_values):
        # The residual trend is read along the sweep, so an unordered sweep
        # is a bad config, not a failed trend.
        scenario = {"family": "curve", "resolution": 64}
        cfg = write_config(tmp_path, "multi.json", {"scenario": scenario, "t_values": t_values})
        assert main(["multiscale", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "error: 't_values' must increase strictly" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shifts", [[0.1, 0.2], [0.1, 0.1], [0.2, -0.2]])
    @pytest.mark.parametrize("by_flag", [False, True])
    def test_shifts_that_do_not_shrink_are_config_errors(self, tmp_path, capsys, shifts, by_flag):
        # The modulus trend is read along the shifts, so a sweep whose shifts
        # do not shrink is a bad config, not a failed trend.
        config = {"scenario": {"family": "curve", "resolution": 64}, "t_values": [1, 2, 4]}
        flag = ["--eps", ",".join(map(str, shifts))] if by_flag else []
        cfg = write_config(tmp_path, "multi.json", config if by_flag else config | {"shifts": shifts})
        assert main(["multiscale", "--config", cfg, *flag, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "error: 'shifts' (or --eps) must decrease strictly in absolute value" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

        # the same sweep in shrinking order runs
        flag = ["--eps", ",".join(map(str, [0.2, 0.1]))] if by_flag else []
        cfg = write_config(tmp_path, "multi.json", config if by_flag else config | {"shifts": [0.2, 0.1]})
        assert main(["multiscale", "--config", cfg, *flag, "--out", str(tmp_path / "out")]) in (0, 1)
        assert (tmp_path / "out" / "multiscale.json").exists()

    def test_equidimensional_scenario_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {"scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 16}},
        )
        assert main(["multiscale", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unit_exponent_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {"scenario": {"family": "curve", "dim": 1, "resolution": 64}, "t_values": [1, 2]},
        )
        assert main(["multiscale", "--config", cfg, "--p", "1.0", "--out", str(tmp_path)]) == 2
        assert "error: rigidity fits need an exponent p > 1" in capsys.readouterr().err

    def test_infinite_exponent_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {"scenario": {"family": "curve", "dim": 1, "resolution": 64}, "t_values": [1, 2]},
        )
        assert main(["multiscale", "--config", cfg, "--p", "inf", "--out", str(tmp_path)]) == 2
        assert "error: bad scenario: exponent p must be finite" in capsys.readouterr().err


    # Written as raw JSON text: NaN and 1e400 (which JSON reads as infinity)
    # are what a hand-written config can hold.
    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"shifts": [NaN]', "'shifts' entry must be a finite number, got nan"),
            ('"shifts": [1e400]', "'shifts' entry must be a finite number, got inf"),
            ('"t_values": [2.5]', "'t_values' entry must be an integer, got 2.5"),
            ('"t_values": [true]', "'t_values' entry must be an integer, got True"),
        ],
    )
    def test_bad_sweep_entry_is_config_error(self, tmp_path, capsys, entry, message):
        path = tmp_path / "multi.json"
        path.write_text('{"scenario": {"family": "curve", "dim": 1, "resolution": 64}, ' + entry + "}")
        assert main(["multiscale", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "multiscale.json").exists()

    @pytest.mark.parametrize(
        "sweep, shift, t",
        [
            ({"t_values": [1, 2]}, "0.25", 2),  # no tripled subcube fits at t < 3
            ({"t_values": [1, 2, 4], "shifts": [0.9, 0.8]}, "0.9", 4),
            ({"t_values": [1, 2], "shifts": [0.25]}, "0.25", 2),
        ],
    )
    def test_shift_with_no_admissible_subcube_is_config_error(self, tmp_path, capsys, sweep, shift, t):
        cfg = write_config(tmp_path, "multi.json", {"scenario": {"family": "curve", "resolution": 64}} | sweep)
        assert main(["multiscale", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: shift {shift} leaves no admissible subcube at t={t}" in captured.err
        assert not (tmp_path / "out").exists()

    def test_nearly_degenerate_field_prints_nothing_before_it_exits(self, tmp_path, capsys):
        # The rank test flags 63 of the 64 cells, so the first fit already
        # keeps fewer than half of its patch's cells.
        scenario = {"family": "graph", "dim": 2, "resolution": 8, "epsilon": 1e300}
        cfg = write_config(tmp_path, "multi.json", {"scenario": scenario, "t_values": [1, 2]})
        with np.errstate(all="ignore"):
            assert main(["multiscale", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degenerate scenario: a patch keeps 1 of its 64 cells" in captured.err
        assert not (tmp_path / "out").exists()

        # a run that completes prints its lines in the order of its sweeps
        scenario = {"family": "curve", "dim": 1, "resolution": 64, "kappa": 1.0}
        cfg = write_config(tmp_path, "multi.json", {"scenario": scenario, "t_values": [1, 8], "shifts": [0.25, 0.125]})
        assert main(["multiscale", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["t=1", "t=8", "zeta=0.25", "zeta=0.125", "trends"]

    def test_non_finite_eps_flag_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {"scenario": {"family": "curve", "dim": 1, "resolution": 64}, "t_values": [1, 2]},
        )
        with pytest.raises(SystemExit) as exc:
            main(["multiscale", "--config", cfg, "--eps", "nan", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error: argument --eps: values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "multiscale.json").exists()


class TestAsymptotic:
    def base(self, tmp_path, **extra):
        payload = {
            "scenario": {"family": "perturbed", "dim": 1, "resolution": 96, "kappa": 1.0, "seed": 5},
            "epsilons": [0.5, 0.25, 0.125],
            "threshold": 0.01,
        }
        payload.update(extra)
        return write_config(tmp_path, "asym.json", payload)

    def test_shrinking_family_passes(self, tmp_path, capsys):
        cfg = self.base(tmp_path)
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "final isometry defect" in out
        assert "shape recovery error" in out
        payload = json.loads((tmp_path / "asymptotic.json").read_text())
        assert payload["manifest"]["checks"]["stretch_decreasing"] is True
        assert payload["gaps"][-1] == 0.0

    def test_unit_exponent_still_runs(self, tmp_path):
        # Only the rotation fits need p > 1; the energies are defined at p = 1.
        # At p = 1 the final defect is the unsquared one, about 0.019 here.
        cfg = self.base(tmp_path, threshold=0.05)
        assert main(["asymptotic", "--config", cfg, "--p", "1.0", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "asymptotic.json").read_text())
        assert payload["manifest"]["spec"]["scenario"]["p"] == 1.0

    def test_infinite_exponent_is_config_error(self, tmp_path, capsys):
        cfg = self.base(tmp_path)
        assert main(["asymptotic", "--config", cfg, "--p", "inf", "--out", str(tmp_path)]) == 2
        assert "error: bad scenario: exponent p must be finite" in capsys.readouterr().err

    def test_non_decreasing_schedule_is_config_error(self, tmp_path):
        cfg = self.base(tmp_path, epsilons=[0.125, 0.25])
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_single_zero_epsilon_measures_quadrature_floor(self, tmp_path, capsys):
        cfg = self.base(tmp_path, epsilons=[0.0], threshold=1e-6)
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "asymptotic.json").read_text())
        # The unperturbed member is the exact unit-speed circle arc; what is
        # left is the forward-difference chord error, far below the levels
        # the perturbed members produce.
        assert payload["final_defect"] < 1e-9

    def test_non_numeric_threshold_is_config_error(self, tmp_path, capsys):
        cfg = self.base(tmp_path, threshold="abc")
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: 'threshold' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["true", '"1e-3"', '"nan"', "1e400"])
    def test_threshold_must_be_a_finite_number(self, tmp_path, capsys, raw):
        # a boolean or a string is no number, and 1e400 reads as infinity
        cfg = self.base(tmp_path, threshold="@")
        (tmp_path / "asym.json").write_text((tmp_path / "asym.json").read_text().replace('"@"', raw))
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: 'threshold' must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "asymptotic.json").exists()

    @pytest.mark.parametrize("epsilons", [[0.0], [0.1, 0.05]])
    def test_equidimensional_scenario_is_config_error(self, tmp_path, capsys, epsilons):
        cfg = write_config(
            tmp_path,
            "asym.json",
            {"scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 8}, "epsilons": epsilons},
        )
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: asymptotic needs a codimension-one scenario" in capsys.readouterr().err
        assert not (tmp_path / "asymptotic.json").exists()

    def test_wrong_family_is_config_error(self, tmp_path):
        cfg = self.base(tmp_path)
        parsed = json.loads(open(cfg).read())
        parsed["scenario"]["family"] = "graph"
        parsed["scenario"]["dim"] = 2
        cfg = write_config(tmp_path, "asym2.json", parsed)
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 2


# Each subcommand with the sweep entries its config needs.
_SWEEP_COMMANDS = {
    "rigidity": (["rigidity"], {}),
    "scaling": (["scaling"], {"epsilons": [0.1, 0.05]}),
    "multiscale": (["multiscale"], {}),
    "asymptotic-one": (["asymptotic"], {"epsilons": [0.0]}),
    "asymptotic-two": (["asymptotic"], {"epsilons": [0.1, 0.05]}),
    "snapshot-write": (["snapshot", "write"], {}),
}


@pytest.mark.parametrize(
    "command, key",
    [
        ("rigidity", "p"),
        ("scaling", "resolution"),
        ("multiscale", "t_value"),
        ("asymptotic-two", "treshold"),
        ("snapshot-write", "epsilons"),
    ],
)
def test_unknown_top_level_key_is_config_error(tmp_path, capsys, command, key):
    """A misspelt or misplaced key would otherwise run with the default it
    meant to replace."""
    argv, extra = _SWEEP_COMMANDS[command]
    scenario = {"family": "perturbed", "dim": 1, "resolution": 16, "kappa": 1.0}
    cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario, **extra, key: 1e300})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown {argv[0]} config keys: ['{key}']\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", list(_SWEEP_COMMANDS))
def test_every_subcommand_exits_with_a_documented_code(tmp_path, command, family, dim):
    """Exit 1 means only that a checked property failed: on every family, in
    either dimension, each subcommand returns 0, 1, 2 or 3 and raises nothing."""
    argv, extra = _SWEEP_COMMANDS[command]
    cfg = write_config(
        tmp_path, "sweep.json", {"scenario": {"family": family, "dim": dim, "resolution": 16}, **extra}
    )
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) in (0, 1, 2, 3)


class TestSnapshotAndPlumbing:
    def test_snapshot_round_trip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "snap.json",
            {"scenario": {"family": "latitude", "dim": 1, "resolution": 24}},
        )
        assert main(["snapshot", "write", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["snapshot", "read", str(tmp_path / "snapshot.json")]) == 0
        out = capsys.readouterr().out
        assert "target: sphere" in out
        assert "degenerate cells: 0" in out

    @pytest.mark.parametrize("command", ["rigidity", "read"])
    @pytest.mark.parametrize(
        "entries, message",
        [
            ({3: float("nan")}, "node values are not finite"),
            # each value is finite, but their difference over the spacing is not
            ({3: 1e308, 4: -1e308}, "differential is not finite"),
        ],
    )
    def test_non_finite_snapshot_values_are_config_errors(self, tmp_path, capsys, command, entries, message):
        grid = GridDomain(1, 1.0, 8)
        t = grid.node_axis()
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.stack([t, 0.1 * t**2], axis=-1))
        snap = tmp_path / "parabola.json"
        snapshot_save(snap, u, build_metric(grid, "flat"))
        doc = json.loads(snap.read_text())
        for node, value in entries.items():
            doc["values"][node][1] = value
        snap.write_text(json.dumps(doc))
        if command == "rigidity":
            argv = ["rigidity", "--config", write_config(tmp_path, "cfg.json", {"snapshot": str(snap)})]
        else:
            argv = ["snapshot", "read", str(snap)]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"error: cannot load snapshot: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rigidity.json").exists()

    def test_central_mode_snapshot_reproduces_the_rigidity_report(self, tmp_path):
        scenario = {"family": "graph", "dim": 2, "resolution": 16, "mode": "central"}
        cfg = write_config(tmp_path, "graph.json", {"scenario": scenario})
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path / "direct")]) == 0
        assert main(["snapshot", "write", "--config", cfg, "--out", str(tmp_path)]) == 0
        snap = write_config(tmp_path, "snap.json", {"snapshot": str(tmp_path / "snapshot.json")})
        assert main(["rigidity", "--config", snap, "--out", str(tmp_path / "loaded")]) == 0
        direct, loaded = (json.loads((tmp_path / run / "rigidity.json").read_text()) for run in ("direct", "loaded"))
        assert loaded["report"] == direct["report"]

        doc = json.loads((tmp_path / "snapshot.json").read_text())
        (tmp_path / "snapshot.json").write_text(json.dumps(doc | {"mode": "backward"}))
        assert main(["rigidity", "--config", snap, "--out", str(tmp_path / "bad")]) == 2
        assert not (tmp_path / "bad").exists()

    def test_snapshot_fit_records_its_seed(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path, "snap.json", {"scenario": {"family": "perturbed", "dim": 2, "resolution": 8, "kappa": 0.0}}
        )
        assert main(["snapshot", "write", "--config", cfg, "--out", str(tmp_path)]) == 0
        rig = write_config(tmp_path, "rig.json", {"snapshot": str(tmp_path / "snapshot.json")})

        def manifest_seed(extra):
            assert main(["rigidity", "--config", rig, "--out", str(tmp_path)] + extra) == 0
            return json.loads((tmp_path / "rigidity.json").read_text())["manifest"]["seed"]

        assert manifest_seed([]) == 0
        assert manifest_seed(["--seed", "5"]) == 5
        monkeypatch.setenv("RIGIDITY_SEED", "4")
        assert manifest_seed([]) == 4

    def test_snapshot_read_missing_path(self, tmp_path):
        assert main(["snapshot", "read"]) == 2
        assert main(["snapshot", "read", str(tmp_path / "absent.json")]) == 2

    def test_consecutive_calls_share_no_arguments(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "rig.json", {"scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 8}}
        )

        def run(extra):
            out = tmp_path / "out"
            assert main(["rigidity", "--config", cfg, "--out", str(out)] + extra) == 0
            return (out / "rigidity.json").read_bytes(), capsys.readouterr().out

        plain = run([])
        assert json.loads(run(["--p", "3"])[0])["report"]["p"] == 3.0
        assert run([]) == plain
        with pytest.raises(SystemExit) as exc:
            main(["rigidity", "--config", cfg, "--p", "three"])
        assert exc.value.code == 2
        assert run([]) == plain
        assert main(["snapshot", "read", str(tmp_path / "absent.json")]) == 2
        assert main(["snapshot", "read"]) == 2
        assert "error: snapshot read needs a path" in capsys.readouterr().err

    def test_the_parser_is_built_on_the_first_call_only(self, tmp_path):
        # Counts the ArgumentParser objects made by importing the CLI, then by
        # each of two calls of `main`.
        code = (
            "import argparse, sys\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    made.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from rigidkit import cli\n"
            "counts = [len(made)]\n"
            "for _ in range(2):\n"
            "    cli.main(['snapshot', 'read'])\n"
            "    counts.append(len(made))\n"
            "print(counts)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        before, first, second = json.loads(done.stdout)
        assert before == 0
        assert first > 0 and second == first

    def test_snapshot_read_non_object_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "list.json", [1, 2, 3])
        assert main(["snapshot", "read", path]) == 2
        assert "error: cannot load snapshot: snapshot must be a JSON object" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "multi.json",
            {
                "scenario": {"family": "curve", "dim": 1, "resolution": 32, "kappa": 1.0},
                "t_values": [1, 8],
            },
        )
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["multiscale", "--config", cfg, "--out", str(out)]) == 0
            blob = b"".join(
                (out / name).read_bytes()
                for name in ("multiscale.json", "multiscale.csv", "multiscale.dat")
            )
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_seed_precedence_flag_beats_env_beats_file(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            "rig.json",
            {"scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 8, "seed": 1}},
        )

        def run_seed(extra, env=None):
            if env is not None:
                monkeypatch.setenv("RIGIDITY_SEED", env)
            else:
                monkeypatch.delenv("RIGIDITY_SEED", raising=False)
            assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)] + extra) == 0
            return json.loads((tmp_path / "rigidity.json").read_text())["manifest"]["seed"]

        assert run_seed([]) == 1
        assert run_seed([], env="7") == 7
        assert run_seed(["--seed", "3"], env="7") == 3

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIGIDITY_SEED", "not-a-number")
        cfg = write_config(
            tmp_path,
            "rig.json",
            {"scenario": {"family": "perturbed_identity", "dim": 2, "resolution": 8}},
        )
        assert main(["rigidity", "--config", cfg, "--out", str(tmp_path)]) == 2
