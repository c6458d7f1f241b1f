"""The public names of `rigidkit`, pinned.

Adding or removing a public name means editing `PUBLIC` here on purpose.
"""

import ast
import re
from pathlib import Path

import rigidkit
from rigidkit import fields, metric_algebra, rigidity

PUBLIC = [
    "AsymptoticReport",
    "DegenerateFieldError",
    "EnergyReport",
    "GridDomain",
    "GridMap",
    "ImmersionField",
    "LemmaConfig",
    "MetricField",
    "OrientedSubspace",
    "PropertyResult",
    "ReferenceShape",
    "RigidityReport",
    "RotationField",
    "RunManifest",
    "ScenarioBundle",
    "ScenarioSpec",
    "SpdMetric",
    "TargetSpace",
    "TranslationModulus",
    "__version__",
    "asymptotic_sequence_run",
    "build_metric",
    "build_scenario",
    "energies",
    "euclidean_best_rotation",
    "local_rigidity",
    "metric_rigidity",
    "multiscale_fit",
    "nearest_isometry",
    "nearest_isometry_into_plane",
    "oriented_complement",
    "projection_error_bound_check",
    "run_all",
    "snapshot_load",
    "snapshot_save",
    "so_set_distance",
    "spd_sqrt",
    "subspace_distance",
    "tangent_plane_field",
    "translation_modulus",
    "write_csv",
    "write_gnuplot_data",
    "write_json_report",
]

# Definitions that only their own tests called, and that were deleted.
DELETED = [
    (metric_algebra, "frobenius_norm"),
    (metric_algebra, "metric_distance"),
    (metric_algebra, "project_onto"),
    (metric_algebra, "orientation_preserved_under_projection"),
    (metric_algebra.SpdMetric, "sandwich_bound"),
    (metric_algebra.OrientedSubspace, "coordinate"),
    (fields.MetricField, "lipschitz"),
    (rigidity.PlaneField, "plane"),
    (rigidity.PlaneField, "complement"),
    (rigidity, "_as_cell_index"),
    (rigidity, "_base_cell"),
]


def test_all_is_the_pinned_list():
    assert sorted(rigidkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in rigidkit.__all__:
        assert getattr(rigidkit, name, None) is not None, name


def test_deleted_names_are_gone():
    for owner, name in DELETED:
        assert not hasattr(owner, name), name
        assert name not in rigidkit.__all__
        assert not hasattr(rigidkit, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rigidkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


# The Frobenius, sum-order and g^(-1/2)-product helpers, by the words their
# names are made of.  `metric_algebra` holds the one copy of each.
NORM_HELPER = re.compile(r"frobenius|flat_norm|entry_sum|times_inv_sqrt|repeats_one|metric_norm", re.IGNORECASE)
NORM_KERNELS = ["frobenius", "metric_norm", "_entry_sums", "_times_inv_sqrt", "_repeats_one"]


def _two_axis_reduction(node: ast.AST) -> bool:
    """Whether `node` calls a `norm`, `sum` or `reduce` over two axes, given
    as a two-entry tuple, by keyword or (for `norm`) as its third argument."""
    if not isinstance(node, ast.Call):
        return False
    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
    axes = [k.value for k in node.keywords if k.arg == "axis"] + (node.args[2:3] if name == "norm" else [])
    return name in ("norm", "sum", "reduce") and any(isinstance(a, ast.Tuple) and len(a.elts) == 2 for a in axes)


def test_metric_algebra_holds_the_only_matrix_norm():
    """No other module reduces a matrix stack over two axes, or defines a
    norm, summation-order or metric-product helper of its own: each would be
    a second rounding of the same number."""
    assert all(callable(getattr(metric_algebra, name)) for name in NORM_KERNELS)
    for path in sorted(Path(rigidkit.__file__).parent.glob("*.py")):
        if path.name == "metric_algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not any(NORM_HELPER.search(name) for name in names), (where, names)
            assert not _two_axis_reduction(node), where
