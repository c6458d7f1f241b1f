import json

import numpy as np
import pytest

from rigidkit.cli import main
from rigidkit.fields import GridDomain, ImmersionField, TargetSpace, snapshot_save
from rigidkit.scenarios import build_metric


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
            ('"sphere_radius": 1e-3', "the latitude arc is longer than its circle of latitude"),
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, entry, message):
        path = tmp_path / "cfg.json"
        path.write_text('{"samples": 4, ' + entry + "}")
        assert main(["lemmas", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"error: bad lemma config: {message}" in capsys.readouterr().err
        assert not (tmp_path / "lemmas.json").exists()

    def test_integral_float_counts_are_integers(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"samples": 4.0, "curve_resolution": 32.0})
        assert main(["lemmas", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "lemmas.json").read_text())
        assert payload["manifest"]["spec"]["lemma_config"]["samples"] == 4
        assert [p["samples"] for p in payload["properties"]] == [4, 4, 4, 4, 4, 32, 4]


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
        assert "error: 'resolutions' entries must be integers" in capsys.readouterr().err
        assert not (tmp_path / "scaling.csv").exists()

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
            ('"shifts": [NaN]', "'shifts' entries must be finite numbers"),
            ('"shifts": [1e400]', "'shifts' entries must be finite numbers"),
            ('"t_values": [2.5]', "'t_values' entries must be integers"),
            ('"t_values": [true]', "'t_values' entries must be integers"),
        ],
    )
    def test_bad_sweep_entry_is_config_error(self, tmp_path, capsys, entry, message):
        path = tmp_path / "multi.json"
        path.write_text('{"scenario": {"family": "curve", "dim": 1, "resolution": 64}, ' + entry + "}")
        assert main(["multiscale", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "multiscale.json").exists()

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
        assert "error: 'threshold' must be a number" in capsys.readouterr().err

    def test_wrong_family_is_config_error(self, tmp_path):
        cfg = self.base(tmp_path)
        parsed = json.loads(open(cfg).read())
        parsed["scenario"]["family"] = "graph"
        parsed["scenario"]["dim"] = 2
        cfg = write_config(tmp_path, "asym2.json", parsed)
        assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path)]) == 2


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

    def test_snapshot_read_missing_path(self, tmp_path):
        assert main(["snapshot", "read"]) == 2
        assert main(["snapshot", "read", str(tmp_path / "absent.json")]) == 2

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
