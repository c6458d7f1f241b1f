"""rigidkit benchmark: seeded streams of CLI runs, end to end or traced per layer.

Run from the root of a rigidkit checkout:

    python3 perfbench/run.py --workload fit_mix --seed 1 --seconds 30 --trace 0

One client in one process drives `rigidkit.cli.main(argv)` in a closed loop:
each op (one `rigidkit rigidity|multiscale|lemmas` run on a config file the
benchmark writes) starts when the previous one has returned and its outputs
have been checked.  BLAS runs on one thread (see BLAS_THREADS below).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same op stream
untraced for half the time and traced for the other half, and prints the
per-layer metrics and the tracing overhead.  Times are reported at a fixed
reference machine speed (see speed.py); the raw wall-time figures go to the
`details` line.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import os  # noqa: E402

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per vCPU, op times on the shared 2-vCPU machine also depend on how
# busy the other vCPU is, which the single-threaded speed probe cannot see:
# speed-scaled multiscale_flat figures then spread 8-14% from run to run,
# against about 4% with one thread.  Speed-scaled throughput was the same for
# multiscale_flat and about 5% lower for fit_mix with one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import machine  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"
CLOCK = "2026-01-01T00:00:00+00:00"
SETUP_SAMPLES = 3  # set-ups per run (this process plus fresh interpreters)
SETUP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_UNITS = {
    "trace.ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit (used internally)")
    return parser.parse_args(argv)


def import_cli():
    """rigidkit's CLI module from this checkout's src/, never an installed copy."""
    if not (SRC / "rigidkit" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'rigidkit'} not found; run from the root of a rigidkit checkout")
    sys.path.insert(0, str(SRC))
    from rigidkit import cli

    if Path(cli.__file__).resolve().parent != (SRC / "rigidkit").resolve():
        sys.exit(f"error: imported rigidkit from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Runs ops through the CLI module and checks their outputs."""

    def __init__(self, cli, tmp_root: Path, reference: dict):
        self.cli = cli
        self.tmp_root = tmp_root
        self.reference = reference
        self.first_error = None

    def run(self, op) -> tuple[float, dict | None]:
        """Seconds inside cli.main, and the checked report summary (None on failure)."""
        op_dir = Path(tempfile.mkdtemp(prefix=f"op{op.index}-", dir=self.tmp_root))
        config = op_dir / "config.json"
        config.write_text(json.dumps(op.config, indent=2) + "\n")
        argv = [op.command, "--config", str(config), "--out", str(op_dir / "out")]
        sink = io.StringIO()
        error = result = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)  # looked up per call, so tracing can wrap it
        except Exception:
            error = traceback.format_exc()
        except SystemExit as exc:
            error = f"SystemExit({exc.code}): {sink.getvalue()[-500:]}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                result = checks.check_op(op, code, op_dir / "out", self.reference)
            except checks.CheckFailed as exc:
                error = f"{exc}\n{sink.getvalue()[-500:]}"
        shutil.rmtree(op_dir)
        if error is not None and self.first_error is None:
            self.first_error = f"{op.workload} seed {op.seed} op {op.index} {op.command} {json.dumps(op.config)}\n{error}"
        return elapsed, result


def make_runner(workload: str, reference: dict) -> Runner:
    """Runner on this checkout's rigidkit, with a pinned clock and a scratch directory."""
    cli = import_cli()
    os.environ["RIGIDITY_CLOCK"] = CLOCK
    os.environ.pop("RIGIDITY_SEED", None)
    TMP_ROOT.mkdir(exist_ok=True)
    return Runner(cli, Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)), reference)


def warm_up_ops(workload: str) -> list:
    """The reference block: one op of every class at the default seed."""
    return workloads.first_ops(workload, workloads.DEFAULT_SEED, workloads.block_size(workload))


def set_up(workload: str):
    """Import, config generation and warm-up on the reference block, checked.

    Returns the runner, whether the warm-up matched the reference, and the
    set-up time at reference speed.
    """
    runner = make_runner(workload, checks.load_reference())
    warm_ok = all([runner.run(op)[1] is not None for op in warm_up_ops(workload)])
    raw = time.perf_counter() - T0
    return runner, warm_ok, raw * speed.here_factor()


@dataclass
class Phase:
    """One closed-loop phase: raw per-op timings and their speed factors."""

    times: list  # seconds inside cli.main, per op
    iterations: list  # seconds per loop iteration (op, config write, checks), probe excluded
    oks: list
    factors: list  # per-op scale to reference speed
    cells: int  # grid cells named by the ops' configs
    whole: int  # ops in the complete blocks at the start of the phase

    def scaled(self, values) -> list:
        return [v * f for v, f in zip(values, self.factors)]

    @property
    def ops_per_s(self) -> float:
        return self.whole / sum(self.scaled(self.iterations[: self.whole]))


def closed_loop(runner: Runner, workload: str, seed: int, seconds: float, tracer=None) -> Phase:
    """Run ops back to back, each after a speed probe, until `seconds` have passed.

    Timing metrics use only the complete blocks, so every run weighs every
    op class the same; the ops of a trailing partial block still count as
    attempted and failed.
    """
    times, iterations, oks, probes, cells = [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    for op in workloads.op_stream(workload, seed):
        probes.append(speed.probe())
        if tracer is not None:
            tracer.op = op.index
        start = time.perf_counter()
        elapsed, result = runner.run(op)
        end = time.perf_counter()
        times.append(elapsed)
        iterations.append(end - start)
        oks.append(result is not None)
        cells += op.grid_cells
        if end >= deadline:
            break
    probes.append(speed.probe())
    block = workloads.block_size(workload)
    whole = len(times) - len(times) % block or len(times)
    return Phase(times, iterations, oks, speed.op_factors(probes, len(times)), cells, whole)


def child_set_up(args) -> tuple[float, bool]:
    """Set-up time and warm-up correctness of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["correct"]


def quantile(values, q: float) -> float:
    """Inclusive-method quantile at q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(args, runner, own_setup_s):
    phase = closed_loop(runner, args.workload, args.seed, args.seconds)
    scaled = phase.scaled(phase.times)[: phase.whole]
    good = [t for t, ok in zip(scaled, phase.oks) if ok]
    timed = good or scaled  # latency of failed ops only when nothing succeeded
    children = [child_set_up(args) for _ in range(SETUP_SAMPLES - 1)]
    setups = [own_setup_s] + [seconds for seconds, _ in children]
    values = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_s": quantile(timed, 0.5),
        "op_p90_s": quantile(timed, 0.9),
        "ok_frac": phase.oks.count(True) / len(phase.oks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    samples = {
        "ops_per_s": phase.whole,
        "op_p50_s": len(timed),
        "op_p90_s": len(timed),
        "ok_frac": len(phase.oks),
        "peak_rss_mb": 1,
        "setup_s": len(setups),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    details = {
        "samples": samples,
        "beyond_p90": sum(t > values["op_p90_s"] for t in timed),
        "setup_runs_s": setups,
        "raw_wall": {
            "ops_per_s": phase.whole / sum(phase.iterations[: phase.whole]),
            "op_p50_s": quantile(phase.times[: phase.whole], 0.5),
            "op_p90_s": quantile(phase.times[: phase.whole], 0.9),
            "speed_factor_median": statistics.median(phase.factors),
        },
    }
    details["children_correct"] = all(ok for _, ok in children)
    return metrics, len(phase.oks), phase.oks.count(False), details


def traced(args, runner):
    half = args.seconds / 2.0
    plain = closed_loop(runner, args.workload, args.seed, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = closed_loop(runner, args.workload, args.seed, half, tracer)
    finally:
        tracer.uninstall()
    # Overhead compares the two phases on the ops both completed.
    common = min(len(plain.times), len(phase.times))
    values = {
        "trace.ops": len(phase.times),
        "trace.ops_per_s": phase.ops_per_s,
        "trace.untraced_ops_per_s": plain.ops_per_s,
        "trace.overhead_frac": sum(phase.scaled(phase.times)[:common]) / sum(plain.scaled(plain.times)[:common]) - 1.0,
    }
    # The traced phase's op indices run 0, 1, ... like its factors.
    metrics = tracing.layer_metrics(tracer, len(phase.times), phase.cells, phase.factors)
    metrics.update({name: {"value": values[name], "unit": unit} for name, unit in TRACE_UNITS.items()})
    OUT_ROOT.mkdir(exist_ok=True)
    spans_path = OUT_ROOT / f"spans_{args.workload}_seed{args.seed}.json"
    tracer.write(spans_path)
    attempted = len(plain.times) + len(phase.times)
    failed = plain.oks.count(False) + phase.oks.count(False)
    details = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failed, details


def main(argv=None) -> int:
    args = parse_args(argv)
    runner, warm_ok, setup_s = set_up(args.workload)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "correct": warm_ok}))
            return 0
        if args.trace:
            metrics, attempted, failed, details = traced(args, runner)
        else:
            metrics, attempted, failed, details = end_to_end(args, runner, setup_s)
    finally:
        shutil.rmtree(runner.tmp_root, ignore_errors=True)
    if runner.first_error:
        print(f"first failure: {runner.first_error}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    details["machine"] = machine.machine_facts(ROOT)
    for name, metric in metrics.items():
        count = details.get("samples", {}).get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{args.workload:16s} {name:52s} {metric['value']:.6g} {metric['unit']}{suffix}")
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": warm_ok and details.get("children_correct", True) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
