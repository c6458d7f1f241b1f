"""Run the benchmark on two rigidkit checkouts in alternating pairs and judge a claim.

    python3 tools/bench_pairs.py PARENT CHANGE --workload fit_mix --seed 31 \\
        --pairs 10 --seconds 30 --metric op_p90_s --out BENCH_label.json

Each pair runs `perfbench/run.py --trace 0` once in each tree, each in its
own Python process with the tree as its working directory; the first pair
starts with the parent, the next with the change, and so on.  Each run's
last line of standard output is its result JSON (`correct`, `attempted`,
`failed` and `metrics`).  Both trees must hold byte-identical `perfbench/`
directories (`__pycache__` aside), or the tool exits 2 before running
anything: a claim is only measured with the same benchmark on both sides.

The output file gets one section, keyed `<workload>_seed_<seed>`, holding
`pairs` (each side's counts and end-to-end metrics, and which side ran
first), `summary` (per metric: each side's median, quartiles and
interquartile range, the change's wins and the ties) and `claim` for
`--metric`.  The claim is met when the change wins at least nine tenths
of the pairs, ties counting for neither, its median beats the parent's by
more than the parent's interquartile range, and every run was correct.  A
section of an existing file is replaced, and its other sections are kept,
so one file can hold a claim's pairs and the pairs of a seed not used
while writing the change.  Metric directions come from the change tree's
`BENCHMARK.json`.  Exits 0 when the claim is met, 1 when it is not.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

RULE = (
    "change wins >= 9 of 10 pairs (nine tenths of the pairs run), ties counting for neither, "
    "and the median gain exceeds the parent's interquartile range"
)


def _files(tree: Path) -> list[str]:
    root = tree / "perfbench"
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.is_file() and "__pycache__" not in path.relative_to(root).parts
    )


def same_benchmark(parent: Path, change: Path) -> bool:
    """Whether both trees hold the same `perfbench/` files, byte for byte."""
    names = _files(parent)
    if not names or names != _files(change):
        return False
    return all(filecmp.cmp(parent / "perfbench" / n, change / "perfbench" / n, shallow=False) for n in names)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run in `tree`: its last-line result JSON, and
    the `details` line before it (the machine facts among them)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark run in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2]).get("details", {})


def _run_record(result: dict) -> dict:
    record = {key: result[key] for key in ("attempted", "correct", "failed")}
    record.update({name: metric["value"] for name, metric in result["metrics"].items()})
    return record


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and the ties."""
    summary = {}
    for name, better in directions.items():
        if not all(name in pair[side] for pair in pairs for side in ("parent", "change")):
            continue
        sign = 1.0 if better == "higher" else -1.0
        gains = [sign * (pair["change"][name] - pair["parent"][name]) for pair in pairs]
        summary[name] = {
            "better": better,
            "parent": _spread([pair["parent"][name] for pair in pairs]),
            "change": _spread([pair["change"][name] for pair in pairs]),
            "change_wins": sum(gain > 0 for gain in gains),
            "ties": sum(gain == 0 for gain in gains),
        }
    return summary


def judge(pairs: list[dict], summary: dict, workload: str, metric: str) -> dict:
    """The claim block for `metric` under the rule in RULE."""
    row = summary[metric]
    sign = 1.0 if row["better"] == "higher" else -1.0
    gain = sign * (row["change"]["median"] - row["parent"]["median"])
    wins = row["change_wins"]
    correct = all(pair[side]["correct"] and not pair[side]["failed"] for pair in pairs for side in ("parent", "change"))
    return {
        "metric": f"{workload} {metric}",
        "rule": RULE,
        "pairs": len(pairs),
        "change_wins": wins,
        "parent_median": row["parent"]["median"],
        "change_median": row["change"]["median"],
        "parent_iqr": row["parent"]["iqr"],
        "median_gain": gain,
        "ratio": row["change"]["median"] / row["parent"]["median"] if row["parent"]["median"] else math.nan,
        "all_runs_correct": correct,
        "met": bool(wins >= math.ceil(0.9 * len(pairs)) and gain > row["parent"]["iqr"] and correct),
    }


def _commit(tree: Path) -> str | None:
    """The checked-out commit of `tree`, or None outside a git checkout."""
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if not same_benchmark(parent, change):
        print(f"error: {parent}/perfbench and {change}/perfbench differ; refusing to compare", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    directions = {row["name"]: row["better"] for row in spec["end_to_end"]}
    if args.metric not in directions:
        print(f"error: {args.metric} is not an end-to-end metric of BENCHMARK.json", file=sys.stderr)
        return 2

    trees = {"parent": parent, "change": change}
    pairs, machine = [], None
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            result, details = run_once(trees[side], args.workload, args.seed, args.seconds)
            pair[side] = _run_record(result)
            machine = machine or details.get("machine")
            print(f"pair {index + 1}/{args.pairs} {side}: {args.metric} {pair[side][args.metric]}", flush=True)
        pairs.append(pair)

    summary = summarize(pairs, directions)
    claim = judge(pairs, summary, args.workload, args.metric)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    label = args.out.stem.removeprefix("BENCH_")
    doc.update(
        label=label,
        parent={"tree": parent.name, "commit": _commit(parent)},
        change={"tree": change.name, "commit": _commit(change)},
        command=(
            "python3 perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0, run in each tree "
            "in turn; pairs alternate which side runs first"
        ),
        machine=machine,
    )
    doc[f"{args.workload}_seed_{args.seed}"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summary,
        "claim": claim,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    verdict = "met" if claim["met"] else "not met"
    print(
        f"{claim['metric']}: change wins {claim['change_wins']} of {claim['pairs']}, median "
        f"{claim['parent_median']:.6g} -> {claim['change_median']:.6g}, parent IQR {claim['parent_iqr']:.3g}: {verdict}"
    )
    return 0 if claim["met"] else 1


if __name__ == "__main__":
    sys.exit(main())
