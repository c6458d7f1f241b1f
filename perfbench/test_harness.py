"""Self-test of the benchmark harness (not of rigidkit).

Run from the root of a rigidkit checkout:

    python3 perfbench/test_harness.py        # or: python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.first_ops(name, 7, 40)
        again = workloads.first_ops(name, 7, 40)
        other = workloads.first_ops(name, 8, 40)
        assert first == again
        assert [op.config for op in first] != [op.config for op in other]


def test_blocks_hold_every_class_once():
    for name in workloads.WORKLOADS:
        size = workloads.block_size(name)
        ops = workloads.first_ops(name, 3, 2 * size)
        for block in (ops[:size], ops[size:]):
            assert sorted(op.grid_cells for op in block) == sorted(
                op.grid_cells for op in workloads.first_ops(name, 4, size)
            )


def test_fit_mix_runs_a_third_of_ops_at_p3():
    ops = workloads.first_ops("fit_mix", 5, 6 * workloads.block_size("fit_mix"))
    p3 = [op for op in ops if op.config["scenario"]["p"] == 3.0]
    assert len(p3) * 3 == len(ops)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    # and an overlapping child [6.5, 8]; a second root [20, 21] stands alone.
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 6.0, 7.0, 2, 0),
        ("c", 6.5, 8.0, 2, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.5, 1.0]
    assert tracing.layer_self_seconds(spans) == {"root": 4.0, "a": 3.0, "b": 2.0, "c": 2.5}


def test_tracer_wraps_every_layer_and_uninstalls():
    run.import_cli()
    from rigidkit import fields, lemma_suite, metric_algebra

    originals = (dict(lemma_suite._RUNNERS), metric_algebra.spd_sqrt, fields.ImmersionField.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lemma_suite.run_all(lemma_suite.LemmaConfig(samples=3, curve_resolution=8))
    finally:
        tracer.uninstall()
    assert (dict(lemma_suite._RUNNERS), metric_algebra.spd_sqrt, fields.ImmersionField.__init__) == originals
    assert tracer.counts[("lemma_suite.normal_derivative_bound", "samples")] == 8
    assert tracer.counts[("lemma_suite.so_set_distance_bound", "samples")] == 3
    assert tracer.counts[("fields.ImmersionField", "cells")] == 8
    assert tracer.counts[("metric_algebra.spd_sqrt", "calls")] > 0
    roots = [span for span in tracer.spans if span[3] == -1]
    assert sorted(span[0] for span in roots) == sorted(f"lemma_suite.{p}" for p in lemma_suite.PROPERTY_ORDER)


def test_reference_comparison_tolerances():
    ref = {"exit_code": 0, "base_index": [3, 4], "lhs": 1.0, "slack": -1e-16}
    assert checks.compare(ref, {"exit_code": 0, "base_index": [3, 4], "lhs": 1.0 + 1e-10, "slack": 2e-16}) == []
    assert checks.compare(ref, {"exit_code": 0, "base_index": [3, 4], "lhs": 1.0 + 1e-6, "slack": 0.0})
    assert checks.compare(ref, {"exit_code": 0, "base_index": [3, 5], "lhs": 1.0, "slack": 0.0})
    assert checks.compare(ref, {"exit_code": 1, "base_index": [3, 4], "lhs": 1.0, "slack": 0.0})


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**tracing.metric_units(), **run.TRACE_UNITS}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok  {fn.__name__}")
    print(f"{len(tests)} passed")
