import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_reports  # noqa: E402


def _patched_tree(target: Path, old: str, new: str, module: str = "cli.py") -> Path:
    """A copy of this checkout's `src/` at `target`, with `old` replaced once in `module`."""
    shutil.copytree(ROOT / "src", target / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = target / "src" / "rigidkit" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return target


def test_same_tree_matches_and_a_changed_report_is_caught(tmp_path, capsys):
    argv = ["--workload", "fit_mix", "--seed", "3", "--ops", "2"]
    assert same_reports.main([str(ROOT), str(ROOT), *argv]) == 0
    assert "fit_mix seed 3: 0 of 2 ops differ" in capsys.readouterr().out

    # reorders the printed report lines only: JSON keys are sorted, CSV columns fixed
    changed = _patched_tree(tmp_path / "changed", '"lhs", "osc_term"', '"osc_term", "lhs"')
    assert same_reports.main([str(ROOT), str(changed), *argv]) == 1
    out = capsys.readouterr().out
    assert "fit_mix seed 3: 2 of 2 ops differ" in out
    assert out.count("): differs in stdout\n") == 2


@pytest.mark.parametrize(
    "workload, written",
    [("multiscale_flat", {"multiscale.json", "multiscale.csv", "multiscale.dat"}), ("lemmas", {"lemmas.json"})],
)
def test_same_tree_matches_on_multiscale_and_lemma_reports(tmp_path, capsys, workload, written):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    ops = workloads.first_ops(workload, 3, 1)
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps([[op.command, op.config] for op in ops]))
    (result,) = same_reports._tree_results(ROOT, ops_path, tmp_path)
    assert set(result["files"]) == written  # the reports the comparison covers

    assert same_reports.main([str(ROOT), str(ROOT), "--workload", workload, "--seed", "3", "--ops", "1"]) == 0
    assert f"{workload} seed 3: 0 of 1 ops differ" in capsys.readouterr().out


def test_untimed_catches_a_subcube_oscillation_that_multiscale_flat_never_measures(tmp_path, capsys):
    # Each subcube's oscillation over its first cell instead of its whole box:
    # only a non-constant metric runs the search, and only the subcube
    # reports carry the result.
    changed = _patched_tree(
        tmp_path / "changed", "(c, c + block) for c in corner", "(c, c + 1) for c in corner", "rigidity.py"
    )
    argv = ["--seed", "3", "--ops", "2"]
    assert same_reports.main([str(ROOT), str(changed), "--workload", "multiscale_flat", *argv]) == 0
    assert "multiscale_flat seed 3: 0 of 2 ops differ" in capsys.readouterr().out
    assert same_reports.main([str(ROOT), str(changed), "--workload", "untimed", *argv]) == 1
    out = capsys.readouterr().out
    assert "untimed seed 3: 2 of 2 ops differ" in out
    assert out.count("): differs in subcube reports\n") == 2


def test_untimed_runs_every_unbenchmarked_path(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    ops = same_reports.untimed_ops(3)
    fits, lemmas, large, lengths, below, flat = ops[:30], ops[30:33], ops[33:35], ops[35:37], ops[37:39], ops[39:]
    runs = [(op.command, op.config["scenario"]["metric_kind"], len(op.config.get("epsilons", ()))) for op in fits]
    assert runs == [
        *(("multiscale", kind, 0) for kind in ("random", "linear") for _ in range(10)),
        *(("scaling", kind, 3) for kind in ("random", "linear", "random", "linear")),
        *(("asymptotic", kind, members) for kind, members in (("random", 1), ("linear", 1), ("random", 3), ("random", 3))),
        ("rigidity", "random", 0),
        ("multiscale", "random", 0),
    ]
    # every asymptotic run is on the `perturbed` family, the only one it admits
    asymptotic = [(op.config["scenario"]["family"], op.config["scenario"]["dim"]) for op in fits[24:28]]
    assert asymptotic == [("perturbed", 2), ("perturbed", 1), ("perturbed", 1), ("perturbed", 2)]
    # the last two fits are at p = 3: three rotation planes, and a descent per subcube
    assert [(op.config["scenario"]["dim"], op.config["scenario"]["p"]) for op in fits[-2:]] == [(3, 3.0), (2, 3.0)]
    # then the lemma suite off its default shapes: d = 4 (LAPACK), R^9, lam_max 1e6
    defaults = {"max_dim": 3, "max_ambient": 6, "lam_max": 10.0}
    shapes = [tuple(op.config.get(key, value) for key, value in defaults.items()) for op in lemmas]
    assert [op.command for op in lemmas] == ["lemmas"] * 3 and shapes == [(4, 6, 10.0), (3, 9, 10.0), (3, 6, 1e6)]
    # last, the exact base-cell scan past 4096 cells: a 65^2 graph and a 4400-cell arc, p = 3, random metric
    shapes = [(op.command, op.config["scenario"]["family"], op.grid_cells, op.config["scenario"]["p"]) for op in large]
    assert shapes == [("rigidity", "graph", 65**2, 3.0), ("rigidity", "latitude", 4400, 3.0)]
    assert all(op.config["scenario"]["metric_kind"] == "random" for op in large)
    # then a perturbed sweep and a perturbed-identity fit at a drawn length
    shapes = [(op.command, op.config["scenario"]["family"], op.config["scenario"]["dim"]) for op in lengths]
    assert shapes == [("multiscale", "perturbed", 2), ("rigidity", "perturbed_identity", 2)]
    assert all(0.3 <= op.config["scenario"]["length"] <= 3.0 for op in lengths)
    # last, p = 1.5 descents on a random metric: a d = 2 fit and a d = 2 sweep
    shapes = [(op.command, op.config["scenario"]["family"], op.grid_cells, op.config["scenario"]["p"]) for op in below]
    assert shapes == [("rigidity", "perturbed_identity", 32**2, 1.5), ("multiscale", "graph", 32**2, 1.5)]
    assert all(op.config["scenario"]["metric_kind"] == "random" for op in below)
    # last, flat-metric fits on both routes, a scaling sweep and an asymptotic family
    shapes = [(op.command, op.config["scenario"]["family"], op.grid_cells, op.config["scenario"]["p"]) for op in flat]
    assert shapes == [
        ("rigidity", "graph", 32**2, 2.0),
        ("rigidity", "latitude", 512, 3.0),
        ("rigidity", "perturbed_identity", 32**2, 2.0),
        ("rigidity", "perturbed_identity", 8**3, 3.0),
        ("scaling", "perturbed", 32**2, 2.0),
        ("asymptotic", "perturbed", 512, 3.0),
    ]
    assert all(op.config["scenario"]["metric_kind"] == "flat" for op in flat)
    assert [len(op.config.get("epsilons", ())) for op in flat] == [0, 0, 0, 0, 3, 3]
    # the flat ops are drawn after every earlier draw, so ops 0-38 keep the
    # configs they had before the flat ops came: this digest of their list
    earlier = json.dumps([[op.command, op.config] for op in ops[:39]], sort_keys=True).encode()
    assert hashlib.sha256(earlier).hexdigest() == "b663104a09a24f4c4595fb8ba435fb7ce3140ccb04ed4e7b6f2c5eca208d95f3"
    assert [op.index for op in ops] == list(range(len(ops))) and len(ops) == 45

    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps([[op.command, op.config] for op in ops]))
    results = same_reports._tree_results(ROOT, ops_path, tmp_path)
    for op, result in zip(ops, results):
        # 1 is a failed trend or threshold check: its reports are written all the same
        assert result["code"] in (0, 1)
        written = {"rigidity": ("json", "csv"), "lemmas": ("json",)}.get(op.command, ("json", "csv", "dat"))
        assert set(result["files"]) == {f"{op.command}.{ext}" for ext in written}
        subcubes = json.loads(result["subcubes"])
        if op.command == "multiscale":
            t_values = op.config["t_values"]
            dim = op.config["scenario"]["dim"]
            assert [len(reports) for reports in subcubes] == [t**dim for t in t_values]
            assert max(report["osc_term"] for reports in subcubes for report in reports) > 0.0
        else:
            assert subcubes == []


def test_rtol_forgives_a_one_ulp_float_but_not_a_changed_base_index(tmp_path, capsys):
    fit = "        report, route = _fit_report(bundle, spec.p)\n"
    one_ulp = fit + '        report = __import__("dataclasses").replace(report, lhs=np.nextafter(report.lhs, np.inf))\n'
    ulp_tree = _patched_tree(tmp_path / "ulp", fit, one_ulp)
    index = '"base_index": list(report.base_index),'
    moved = '"base_index": [i + 1 for i in report.base_index],'
    index_tree = _patched_tree(tmp_path / "index", index, moved)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps([[op.command, op.config] for op in workloads.first_ops("fit_mix", 3, 1)]))
    trees = (ROOT, ulp_tree, index_tree)
    (base,), (ulp,), (index,) = (same_reports._tree_results(tree, ops_path, tmp_path) for tree in trees)
    lhs = json.loads(base["files"]["rigidity.json"])["report"]["lhs"]
    assert json.loads(ulp["files"]["rigidity.json"])["report"]["lhs"] == np.nextafter(lhs, np.inf)

    assert same_reports._differences(base, ulp) == ["rigidity.csv", "rigidity.json"]
    assert same_reports._differences(base, ulp, (1e-12, 0.0)) == []
    assert same_reports._differences(base, ulp, (0.0, 0.0)) == ["rigidity.csv", "rigidity.json"]
    # base_index is compared exactly whatever the tolerance
    assert same_reports._differences(base, index, (0.5, 1.0)) == ["rigidity.json"]

    argv = ["--workload", "fit_mix", "--seed", "3", "--ops", "1", "--rtol", "1e-12"]
    assert same_reports.main([str(ROOT), str(ulp_tree), *argv]) == 0
    out = capsys.readouterr().out
    assert "fit_mix seed 3: 0 of 1 ops differ beyond rtol 1e-12, atol 0" in out
    # the printed report rounds lhs to 7 digits; the CSV, read before the
    # JSON report, is the first to hold the moved float
    ulp = np.nextafter(lhs, np.inf) - lhs
    assert f"largest relative float difference: {ulp / (lhs + ulp):.3e} at op 0 rigidity.csv line 2\n" in out
    assert f"largest absolute float difference: {ulp:.3e} at op 0 rigidity.csv line 2\n" in out


def test_json_float_pairs_carry_their_path():
    a = {"report": {"lhs": 2.0, "base_index": [1]}, "fits": [{"rotation": [[1.0, 1e-7]]}]}
    b = {"report": {"lhs": 2.0 + 1e-12, "base_index": [1]}, "fits": [{"rotation": [[1.0, 1.5e-7]]}]}
    pairs = same_reports._json_floats(a, b, False, "")
    assert [where for _, _, where in pairs] == ["report.lhs", "fits[0].rotation[0][0]", "fits[0].rotation[0][1]"]
    largest = same_reports._Largest()
    for x, y, where in pairs:
        largest.see(x, y, where)
    assert largest.relative == (pytest.approx(1 / 3), "fits[0].rotation[0][1]")
    assert largest.absolute == (pytest.approx(5e-8), "fits[0].rotation[0][1]")
    # base_index is compared exactly, so it holds no float pair
    assert same_reports._json_floats(a, b | {"report": {"lhs": 2.0, "base_index": [2]}}, False, "") is None


def test_text_tolerance_keeps_integers_and_words_exact():
    tol = (1e-12, 0.0)

    def text_close(a, b, tol):
        return same_reports._close(same_reports._text_floats(a, b), tol)

    assert text_close("lhs,2,0.30000000000000004\n", "lhs,2,0.3\n", tol)
    assert not text_close("lhs,2,0.3\n", "lhs,3,0.3\n", tol)
    assert not text_close("lhs,2,0.3\n", "rhs,2,0.3\n", tol)
    assert not text_close("n 2\n", "n 2.0\n", tol)
    assert not text_close("0.3\n", "0.3000001\n", tol)
    assert text_close("slack -2.2e-15\n", "slack -1.8e-15\n", (1e-12, 1e-14))
    assert same_reports._text_floats("a 1.5\nb 2.5\n", "a 1.5\nb 2.25\n")[1] == (2.5, 2.25, "line 2")
