"""The CLI's exit-code contract, on drawn configs through `cli.main` in-process.

    0  pass
    1  a checked property or trend failed, after a printed FAIL line
    2  config error, with an `error:` line
    3  degenerate scenario, with a `degenerate scenario:` line

Exits 2 and 3 print nothing on stdout and write no file under --out.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rigidkit.cli import main
from rigidkit.scenarios import FAMILIES, METRIC_KINDS

KAPPA_1E200 = {"scenario": {"family": "perturbed", "dim": 1, "resolution": 16, "kappa": 1e200}, "epsilons": [0.1, 0.05]}
RADIUS_1E200 = {"samples": 0, "curve_resolution": 2, "sphere_radius": 1e200}
# a shift past 1.3e154, whose squared norm overflows; a diameter^p past 1e308
LENGTH_1E200 = {
    "scenario": {"family": "curve", "resolution": 64, "length": 1e200, "kappa": 1e-200},
    "t_values": [1, 4, 16],
}
LENGTH_1E300 = {"scenario": {"family": "curve", "resolution": 8, "length": 1e300, "kappa": 1e-300}}
# a 129^4 probe lattice (2.06 GiB) and a 10^12-cell grid (7.28 TiB)
OVERSIZE = [
    ({"family": "perturbed_identity", "dim": 4, "resolution": 2}, "perturbation fields cover d <= 3"),
    ({"family": "graph", "dim": 2, "resolution": 1000000}, "scenario grids have at most 2^20 cells"),
]

EXTREMES = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e12, 1e200, 1e300, -1e300, 1.7976931348623157e308]
# three in four plausible, the rest extreme, negative or not numbers at all
numbers = st.integers(0, 3).flatmap(
    lambda k: st.floats(0.05, 3.0)
    if k < 3
    else st.sampled_from(EXTREMES + [math.nan, math.inf, -math.inf, True, "1", None]) | st.floats(-4.0, 4.0)
)
# the dimensions each family is built for; any other draws a config error
DIMS = {"curve": [1], "latitude": [1], "graph": [2], "perturbed": [1, 2], "perturbed_identity": [1, 2, 3]}
SCENARIO_FLOATS = ("length", "p", "kappa", "wave_amplitude", "epsilon", "rho", "polar", "rotation")
SCENARIO_FLOATS += ("metric_slope", "metric_lam")
LEMMA_FLOATS = ("lam_max", "tolerance", "normal_tolerance", "sphere_radius", "polar_angle")
TYPOS = ("treshold", "t_value", "epsilon", "p", "seed", "scenarios", "samples")


def extras(names):
    """At most one of `names`, with a drawn number."""
    return st.dictionaries(st.sampled_from(names), numbers, max_size=1)


def with_extras(base, names):
    return st.tuples(base, extras(names)).map(lambda pair: pair[0] | pair[1])


scenarios = with_extras(
    st.sampled_from(sorted(DIMS)).flatmap(
        lambda family: st.fixed_dictionaries(
            {
                "family": st.just(family),
                "dim": st.integers(0, 4).flatmap(lambda k: st.integers(1, 4) if k == 4 else st.sampled_from(DIMS[family])),
                "resolution": st.sampled_from([8, 16, 12, 4, 6]) | st.integers(2, 16),
                "metric_kind": st.sampled_from(METRIC_KINDS),
            }
        )
    ),
    SCENARIO_FLOATS + ("kapa",),
)


def sweeps(least=1):
    """Lists of distinct numbers, the floats in decreasing size."""
    values = st.lists(numbers, min_size=least, max_size=3, unique_by=repr)
    return values.map(lambda values: sorted(values, key=lambda v: abs(v) if isinstance(v, float) else 0, reverse=True))


configs = {
    "lemmas": with_extras(
        st.fixed_dictionaries(
            {"samples": st.integers(0, 12), "curve_resolution": st.integers(2, 64)},
            optional={"max_dim": st.integers(1, 4), "max_ambient": st.integers(2, 6)},
        ),
        LEMMA_FLOATS,
    ),
    "rigidity": st.fixed_dictionaries({"scenario": scenarios}, optional={"snapshot": numbers}),
    "scaling": st.fixed_dictionaries(
        {"scenario": scenarios, "epsilons": sweeps(2)},
        optional={"resolutions": st.lists(st.integers(2, 16), min_size=1, max_size=2)},
    ),
    "multiscale": st.fixed_dictionaries(
        {"scenario": scenarios},
        optional={
            "t_values": st.lists(st.sampled_from([0, 1, 2, 3, 4, 8]), min_size=1, max_size=3, unique=True).map(sorted),
            "shifts": sweeps(),
        },
    ),
    "asymptotic": st.fixed_dictionaries(
        {"scenario": scenarios, "epsilons": sweeps()},
        optional={"reference": st.sampled_from(["curvature", "none", "other"]), "threshold": numbers},
    ),
    "snapshot": st.fixed_dictionaries({"scenario": scenarios}),
}


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(configs)))
    config = draw(configs[command])
    typo = draw(st.sampled_from([None] * 9 + list(TYPOS)))
    if typo is not None:
        config[typo] = draw(numbers)
    return command, config


def run_main(argv: list, out: Path) -> int:
    """Exit code of `main(argv)`, after checking the contract on it and the output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    printed, errors = stdout.getvalue(), stderr.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert printed.splitlines()[-1].endswith("FAIL")
    if code in (2, 3):
        prefix = "error: " if code == 2 else "degenerate scenario: "
        assert any(line.startswith(prefix) for line in errors), errors
        assert printed == ""
        assert not out.exists()
    return code


# About 6 s for the 500 runs on a 2-vCPU machine; the budget is 15 s.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
@example(run=("asymptotic", KAPPA_1E200))
@example(run=("multiscale", {"scenario": {"family": "graph", "dim": 2, "resolution": 8, "epsilon": 1e300}}))
@example(run=("scaling", {"scenario": {"family": "curve", "length": 1e200}, "epsilons": [0.1, 0.05]}))
@example(run=("lemmas", RADIUS_1E200))  # an OverflowError once
@example(run=("rigidity", {"scenario": OVERSIZE[0][0]}))
@example(run=("scaling", {"scenario": OVERSIZE[1][0], "epsilons": [0.1, 0.05]}))
def test_every_subcommand_keeps_the_exit_code_contract(run):
    command, config = run
    with tempfile.TemporaryDirectory() as scratch:
        path, out = Path(scratch) / "config.json", Path(scratch) / "out"
        path.write_text(json.dumps(config))
        if command != "snapshot":
            run_main([command, "--config", str(path), "--out", str(out)], out)
            return
        # write a snapshot of the drawn scenario, then read back what was written
        code = run_main(["snapshot", "write", "--config", str(path), "--out", str(out)], out)
        assert code in (0, 2)
        if code == 0:
            read = Path(scratch) / "read"
            run_main(["snapshot", "read", str(out / "snapshot.json"), "--out", str(read)], read)


@pytest.mark.parametrize(
    "command, config, code, err",
    [
        ("asymptotic", KAPPA_1E200, 3, "degenerate scenario: report term recovery[0] is not finite (inf)\n"),
        # the sphere's C = 1/radius^2 reads 0, which the bound allows
        ("lemmas", RADIUS_1E200, 0, ""),
        # every residual reads 8.665722e+170, so the trend check fails
        ("multiscale", LENGTH_1E200, 1, ""),
        ("rigidity", LENGTH_1E300, 3, "degenerate scenario: report term report.bend_scale is not finite (inf)\n"),
    ],
)
def test_overflow_prints_only_the_outcome(tmp_path, capsys, command, config, code, err):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (captured.out == "") == (code == 3)
    assert (tmp_path / "out").exists() == (code < 2)


@pytest.mark.parametrize("scenario, message", OVERSIZE)
def test_oversize_scenario_exits_2_under_a_memory_limit(tmp_path, scenario, message):
    # the run's address space is capped at 1.5 GB, as `ulimit -v 1500000` does
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)\n"
        "from rigidkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": scenario}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, "-c", code, "rigidity", "--config", str(path), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: bad scenario: {message}") and done.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()
