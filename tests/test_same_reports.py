import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_reports  # noqa: E402


def test_same_tree_matches_and_a_changed_report_is_caught(tmp_path, capsys):
    argv = ["--workload", "fit_mix", "--seed", "3", "--ops", "2"]
    assert same_reports.main([str(ROOT), str(ROOT), *argv]) == 0
    assert "fit_mix seed 3: 0 of 2 ops differ" in capsys.readouterr().out

    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "rigidkit" / "cli.py"
    text = cli.read_text()
    assert text.count('"lhs", "osc_term"') == 1
    # reorders the printed report lines only: JSON keys are sorted, CSV columns fixed
    cli.write_text(text.replace('"lhs", "osc_term"', '"osc_term", "lhs"'))
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
