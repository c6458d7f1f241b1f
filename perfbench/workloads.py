"""Seeded op streams for the three benchmark workloads.

An op is one `rigidkit` CLI run: a subcommand plus the JSON config a user
would write for it.  Every workload is an endless sequence of blocks; a block
holds each of the workload's op classes once, in a seeded order, with seeded
scenario parameters.  Balancing the classes per block (and the p / metric
assignments over a few blocks) keeps the cost mix of a run the same from seed
to seed, so run-to-run spread measures the program rather than the draw.

Op i of a workload at a given seed is a pure function of (workload, seed, i).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    workload: str
    seed: int
    index: int
    command: str
    config: dict
    grid_cells: int


# --- fit_mix: one `rigidkit rigidity` fit per op ---------------------------

# (family, dim, resolution).  d=2 stays at n <= 64: random-metric fits grow
# with the square of the node count.
FIT_COMBOS = (
    ("graph", 2, 32),
    ("graph", 2, 48),
    ("graph", 2, 64),
    ("perturbed_identity", 2, 32),
    ("perturbed_identity", 2, 48),
    ("perturbed_identity", 2, 64),
    ("curve", 1, 512),
    ("curve", 1, 1024),
    ("curve", 1, 2048),
    ("latitude", 1, 512),
    ("latitude", 1, 1024),
    ("latitude", 1, 2048),
)
# Over six consecutive blocks every combo runs once at p=3 with each metric
# kind and twice at p=2 with each: a third of the ops run at p=3.
FIT_P3_GROUPS = 3
METRIC_KINDS = ("random", "linear")


def _scenario_params(rng: np.random.Generator, family: str) -> dict:
    if family in ("graph", "perturbed_identity", "perturbed"):
        params = {"epsilon": float(math.exp(rng.uniform(math.log(0.01), math.log(0.1))))}
        if family == "perturbed_identity":
            params["rotation"] = float(rng.uniform(-math.pi, math.pi))
        if family == "perturbed":
            params["kappa"] = 0.0
        return params
    if family == "curve":
        return {
            "kappa": float(rng.uniform(0.5, 2.0)),
            "profile": str(rng.choice(["constant", "wave"])),
        }
    if family == "latitude":
        return {"polar": float(rng.uniform(math.pi / 4, 3 * math.pi / 4))}
    raise ValueError(f"no parameter draw for family {family!r}")


def _fit_block(rng: np.random.Generator, block: int, plan: dict) -> list[tuple[str, dict, int]]:
    ops = []
    for combo in FIT_COMBOS:
        family, dim, n = combo
        p = 3.0 if plan["p3_group"][combo] == block % FIT_P3_GROUPS else 2.0
        kind = METRIC_KINDS[(block + plan["kind_offset"][combo]) % len(METRIC_KINDS)]
        scenario = {
            "family": family,
            "dim": dim,
            "resolution": n,
            "p": p,
            "metric_kind": kind,
            "seed": int(rng.integers(0, 2**31 - 1)),
            **_scenario_params(rng, family),
        }
        ops.append(("rigidity", {"scenario": scenario}, n**dim))
    return ops


def _fit_plan(rng: np.random.Generator) -> dict:
    order = rng.permutation(len(FIT_COMBOS))
    return {
        "p3_group": {FIT_COMBOS[k]: pos % FIT_P3_GROUPS for pos, k in enumerate(order)},
        "kind_offset": {combo: int(rng.integers(0, len(METRIC_KINDS))) for combo in FIT_COMBOS},
    }


# --- multiscale_flat: one `rigidkit multiscale` sweep per op --------------

# (family, dim, resolution, finest t).  The finest t stays at most n/4 and
# caps the subcube count so a sweep costs about 0.1-0.3 s; the sweep is
# (t/16, t/4, t) in d=1 and (t/4, t/2, t) in d=2.  The metric is flat.
MULTISCALE_COMBOS = (
    ("curve", 1, 256, 64),
    ("curve", 1, 512, 128),
    ("curve", 1, 1024, 128),
    ("latitude", 1, 256, 64),
    ("latitude", 1, 512, 128),
    ("latitude", 1, 1024, 128),
    ("graph", 2, 32, 8),
    ("graph", 2, 64, 8),
    ("perturbed", 2, 32, 8),
    ("perturbed", 2, 64, 8),
)


def _multiscale_block(rng: np.random.Generator, block: int, plan: dict) -> list[tuple[str, dict, int]]:
    ops = []
    for family, dim, n, t_max in MULTISCALE_COMBOS:
        steps = (16, 4, 1) if dim == 1 else (4, 2, 1)
        scenario = {
            "family": family,
            "dim": dim,
            "resolution": n,
            "seed": int(rng.integers(0, 2**31 - 1)),
            **_scenario_params(rng, family),
        }
        shifts = [float(rng.uniform(0.75, 1.0) / 2**k) / 4 for k in range(3)]
        config = {"scenario": scenario, "t_values": [t_max // s for s in steps], "shifts": shifts}
        ops.append(("multiscale", config, n**dim))
    return ops


# --- lemmas: one `rigidkit lemmas` run per op ------------------------------

LEMMA_SAMPLES = (50, 75, 100, 125, 150, 175, 200)
LEMMA_CURVE_RESOLUTION = 1024  # the suite's default arc for the sphere check


def _lemma_block(rng: np.random.Generator, block: int, plan: dict) -> list[tuple[str, dict, int]]:
    return [
        ("lemmas", {"samples": samples, "seed": int(rng.integers(0, 2**31 - 1))}, LEMMA_CURVE_RESOLUTION)
        for samples in LEMMA_SAMPLES
    ]


def _no_plan(rng: np.random.Generator) -> dict:
    return {}


WORKLOADS = {
    "fit_mix": (_fit_plan, _fit_block),
    "multiscale_flat": (_no_plan, _multiscale_block),
    "lemmas": (_no_plan, _lemma_block),
}


def op_stream(workload: str, seed: int):
    """Endless, deterministic sequence of ops for `workload` at `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    make_plan, make_block = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    plan = make_plan(rng)
    index = 0
    for block in itertools.count():
        ops = make_block(rng, block, plan)
        for k in rng.permutation(len(ops)):
            command, config, cells = ops[k]
            yield Op(workload, seed, index, command, config, cells)
            index += 1


def block_size(workload: str) -> int:
    """Number of ops in one block, i.e. one op of every class."""
    make_plan, make_block = WORKLOADS[workload]
    rng = np.random.default_rng(0)
    return len(make_block(rng, 0, make_plan(rng)))


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    return list(itertools.islice(op_stream(workload, seed), count))
