import shutil
import sys
from pathlib import Path

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
