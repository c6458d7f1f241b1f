"""Run every workload untraced and traced, and print one report.

Run from the root of a rigidkit checkout:

    python3 perfbench/report.py --seconds 30 --seed 1 [--write perfbench/baseline.json]

Prints each end-to-end metric with its unit and sample count (and the raw
wall-time figures behind the reference-speed ones), the per-layer self-time
table of the traced run with each layer's share, the tracing overhead, the
machine facts, and whether the benchmark's predictions about where time goes
hold.  --write saves all of it as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().with_name("run.py")
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details_line)["details"], json.loads(result_line)


def self_shares(metrics: dict) -> dict:
    """Each layer's share of the summed self time of all traced layers."""
    own = {name[: -len(".self_s")]: m["value"] for name, m in metrics.items() if name.endswith(".self_s")}
    total = sum(own.values())
    return {layer: value / total for layer, value in sorted(own.items(), key=lambda kv: -kv[1])}


def predictions(per_layer: dict) -> dict:
    checks = {}
    if "fit_mix" in per_layer:
        shares = self_shares(per_layer["fit_mix"])
        top = next(iter(shares))
        checks["fit_mix: oscillation has the largest self time"] = {
            "holds": top == "fields.oscillation_and_diameter",
            "observed": f"largest is {top} at {shares[top]:.1%}",
        }
    if "multiscale_flat" in per_layer:
        share = self_shares(per_layer["multiscale_flat"]).get("fields.oscillation_and_diameter", 0.0)
        checks["multiscale_flat: oscillation under 10% of self time"] = {
            "holds": share < 0.10,
            "observed": f"{share:.1%}",
        }
    if "lemmas" in per_layer:
        shares = self_shares(per_layer["lemmas"])
        share = sum(v for k, v in shares.items() if k.startswith(("metric_algebra.", "lemma_suite.")))
        checks["lemmas: metric_algebra + lemma_suite dominate self time"] = {
            "holds": share > 0.5,
            "observed": f"{share:.1%}",
        }
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", help="save the report as JSON to this path")
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "end_to_end": {}, "per_layer": {}, "overhead": {}}
    for workload in workloads.WORKLOADS:
        details, result = run_once(workload, args.seed, args.seconds, trace=0)
        report["machine"] = details["machine"]
        report["end_to_end"][workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "beyond_p90": details["beyond_p90"],
            "raw_wall": details["raw_wall"],
            "metrics": {
                name: {**m, "samples": details["samples"][name]} for name, m in result["metrics"].items()
            },
        }
        _, traced = run_once(workload, args.seed, args.seconds, trace=1)
        report["per_layer"][workload] = traced["metrics"]
        report["overhead"][workload] = {
            name: traced["metrics"][name]["value"]
            for name in ("trace.untraced_ops_per_s", "trace.ops_per_s", "trace.overhead_frac")
        }
    report["predictions"] = predictions(report["per_layer"])

    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"seed {args.seed}, {args.seconds:g} s per run\n")
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} {'unit':6s} samples")
    for workload, block in report["end_to_end"].items():
        for name, m in block["metrics"].items():
            print(f"{workload:16s} {name:12s} {m['value']:12.6g} {m['unit']:6s} {m['samples']}")
        failed_frac = block["failed"] / block["attempted"]
        print(f"{workload:16s} {'failed_frac':12s} {failed_frac:12.6g} {'ratio':6s} {block['attempted']}")
        raw = block["raw_wall"]
        print(
            f"{workload:16s} raw wall time: {raw['ops_per_s']:.4g} ops/s, p50 {raw['op_p50_s']:.4g} s, "
            f"p90 {raw['op_p90_s']:.4g} s, median speed factor {raw['speed_factor_median']:.3f}"
        )
        print(f"{workload:16s} ops beyond p90: {block['beyond_p90']}, outputs correct: {block['correct']}\n")

    for workload, metrics in report["per_layer"].items():
        over = report["overhead"][workload]
        print(
            f"{workload}: traced {over['trace.ops_per_s']:.3f} ops/s vs untraced "
            f"{over['trace.untraced_ops_per_s']:.3f} ops/s, overhead {over['trace.overhead_frac']:+.1%}"
        )
        for layer, share in self_shares(metrics).items():
            if share < 0.005:
                continue
            stats = "  ".join(
                f"{name[len(layer) + 1:]}={m['value']:.4g}"
                for name, m in metrics.items()
                if name.startswith(layer + ".") and not name.endswith(".self_s")
            )
            print(f"  {layer:52s} {metrics[layer + '.self_s']['value']:.3e} s/op {share:6.1%}  {stats}")
        print()

    for claim, verdict in report["predictions"].items():
        print(f"{'HOLDS' if verdict['holds'] else 'FAILS'}  {claim} ({verdict['observed']})")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
