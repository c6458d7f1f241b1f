"""Record the reference values the benchmark checks its warm-up block against.

Run from the root of a rigidkit checkout at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

For each workload it runs the first block of ops at the default seed (the
block every benchmark run warms up on) and writes each op's report summary
to perfbench/reference.json.
"""

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    reference = {}
    for workload in sorted(workloads.WORKLOADS):
        runner = run.make_runner(workload, {})
        try:
            recorded = {}
            for op in run.warm_up_ops(workload):
                _, result = runner.run(op)
                if result is None:
                    sys.exit(f"reference op failed: {runner.first_error}")
                recorded[str(op.index)] = result
        finally:
            shutil.rmtree(runner.tmp_root)
        reference[workload] = {str(workloads.DEFAULT_SEED): recorded}
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
