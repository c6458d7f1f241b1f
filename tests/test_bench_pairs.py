import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


def _tree(path: Path) -> Path:
    """A stand-in checkout: this one's `perfbench/` and `BENCHMARK.json`."""
    shutil.copytree(ROOT / "perfbench", path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


class StubRuns:
    """`subprocess.run` for the tool: each benchmark run reads the next
    op_p90_s of its tree's list; no benchmark runs."""

    def __init__(self, trees: dict[Path, list[float]], correct: bool = True):
        self.p90 = {tree.resolve(): list(values) for tree, values in trees.items()}
        self.correct = correct
        self.order = []

    def __call__(self, argv, cwd=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 128, "", "not a git repository")
        assert argv[1:3] == ["perfbench/run.py", "--workload"] and argv[-2:] == ["--trace", "0"]
        tree = Path(cwd).resolve()
        self.order.append(tree)
        p90 = self.p90[tree].pop(0)
        metrics = {
            "ops_per_s": {"value": 1.0 / p90, "unit": "1/s"},
            "op_p50_s": {"value": p90 / 2, "unit": "s"},
            "op_p90_s": {"value": p90, "unit": "s"},
            "ok_frac": {"value": 1.0, "unit": "ratio"},
        }
        details = {"details": {"machine": {"nproc": 2}}}
        result = {"correct": self.correct, "attempted": 100, "failed": 0, "metrics": metrics}
        stdout = f"fit_mix  op_p90_s {p90}\n{json.dumps(details)}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")


def _main(parent, change, out, pairs, seed=31):
    argv = [str(parent), str(change), "--workload", "fit_mix", "--seed", str(seed), "--pairs", str(pairs)]
    return bench_pairs.main([*argv, "--seconds", "30", "--metric", "op_p90_s", "--out", str(out)])


def test_alternates_the_order_and_writes_the_claim(tmp_path, monkeypatch):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    # the change is faster in 9 of 10 pairs
    stub = StubRuns({parent: [0.0115 + 0.0001 * k for k in range(10)], change: [0.0100] * 9 + [0.0200]})
    monkeypatch.setattr(bench_pairs.subprocess, "run", stub)
    out = tmp_path / "BENCH_stub.json"
    assert _main(parent, change, out, 10) == 0
    first = [parent.resolve(), change.resolve()]
    assert stub.order == (first + first[::-1]) * 5

    doc = json.loads(out.read_text())
    assert doc["label"] == "stub" and doc["machine"] == {"nproc": 2}
    section = doc["fit_mix_seed_31"]
    assert [pair["first"] for pair in section["pairs"]] == ["parent", "change"] * 5
    assert section["pairs"][0]["parent"]["op_p90_s"] == 0.0115
    claim = section["claim"]
    assert claim["change_wins"] == 9 and claim["pairs"] == 10
    assert claim["parent_median"] == pytest.approx(0.01195)
    assert claim["change_median"] == 0.0100
    assert claim["parent_iqr"] == pytest.approx(0.00045)
    assert claim["met"] is True
    summary = section["summary"]
    assert summary["ops_per_s"]["better"] == "higher" and summary["ops_per_s"]["change_wins"] == 9
    assert summary["ok_frac"]["ties"] == 10


@pytest.mark.parametrize(
    "change_p90, correct",
    [
        ([0.0100] * 8 + [0.0200] * 2, True),  # 8 wins of 10
        ([0.0118] * 10, True),  # 10 wins, but the gain is inside the parent's spread
        ([0.0100] * 10, False),  # a run's outputs were wrong
    ],
)
def test_claim_not_met(tmp_path, monkeypatch, change_p90, correct):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    stub = StubRuns({parent: [0.0115 + 0.0001 * k for k in range(10)], change: change_p90}, correct=correct)
    monkeypatch.setattr(bench_pairs.subprocess, "run", stub)
    out = tmp_path / "BENCH_stub.json"
    assert _main(parent, change, out, 10) == 1
    assert json.loads(out.read_text())["fit_mix_seed_31"]["claim"]["met"] is False


def test_another_seed_is_added_beside_the_claim(tmp_path, monkeypatch):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    stub = StubRuns({parent: [0.0115] * 13, change: [0.0100] * 13})
    monkeypatch.setattr(bench_pairs.subprocess, "run", stub)
    out = tmp_path / "BENCH_stub.json"
    assert _main(parent, change, out, 10) == 0
    assert _main(parent, change, out, 3, seed=61) == 0
    doc = json.loads(out.read_text())
    assert len(doc["fit_mix_seed_31"]["pairs"]) == 10
    assert len(doc["fit_mix_seed_61"]["pairs"]) == 3


def test_refuses_trees_with_different_benchmarks(tmp_path, monkeypatch, capsys):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    with (change / "perfbench" / "workloads.py").open("a") as f:
        f.write("\n")
    stub = StubRuns({})
    monkeypatch.setattr(bench_pairs.subprocess, "run", stub)
    out = tmp_path / "BENCH_stub.json"
    assert _main(parent, change, out, 10) == 2
    assert "differ; refusing to compare" in capsys.readouterr().err
    assert stub.order == [] and not out.exists()
    (change / "perfbench" / "extra.py").write_text("")
    (change / "perfbench" / "workloads.py").write_bytes((parent / "perfbench" / "workloads.py").read_bytes())
    assert _main(parent, change, out, 10) == 2
    assert stub.order == []
