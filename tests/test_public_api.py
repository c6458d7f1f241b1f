"""The public names of `rigidkit`, pinned.

Adding or removing a public name means editing `PUBLIC` here on purpose.
"""

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
