"""Deterministic scenario families used by the experiments and the test suite.

Curves are generated at unit speed, so the flat metric makes them exact
discrete isometries up to chord shortening.  The prescribed curvature of the
plane-curve family is signed to match the shape operator the immersion
machinery recovers: positive values bend away from the oriented normal, and
the generated curve satisfies shape_operator = kappa up to O(h).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields as dataclass_fields

import numpy as np

from .fields import GridDomain, GridMap, ImmersionField, MetricField, TargetSpace, config_number

FAMILIES = ("curve", "graph", "latitude", "perturbed", "perturbed_identity")
METRIC_KINDS = ("flat", "linear", "random")


def config_field(config, name: str, kind=float):
    """Field `name` of a config dataclass through `config_number`, as a ValueError naming it."""
    value = getattr(config, name)
    try:
        return config_number(value, kind)
    except (TypeError, ValueError, OverflowError) as exc:
        kinds = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {kinds}, got {value!r}") from exc


def smooth_bump(s: np.ndarray) -> np.ndarray:
    """C-infinity bump supported on (-1, 1), normalized to 1 at the center."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def perturbation_field(dim: int, out_dim: int, length: float, seed: int):
    """Smooth compactly supported vector field on the cube, as a callable.

    The construction is seeded and grid independent: coefficients come from
    the seed and the normalization (unit maximum gradient) is probed on a
    fixed fine lattice, so evaluating on different resolutions samples the
    same continuum field.

    The probe evaluates the field's formula on the lattice without its
    general steps, with the same operations in the same order: the envelope
    is the product of one bump per axis, 1 b_0 b_1 ..., from the lattice's
    1-D axis; the squared gradients are added one component at a time, in
    the order the sum over (component, axis) of a stacked array takes; and
    one `sqrt` is taken, of the largest sum (sqrt is monotone and correctly
    rounded, so that is the largest root).
    """
    rng = np.random.default_rng(seed)
    waves = 3
    coeffs = rng.uniform(-1.0, 1.0, size=(out_dim, waves))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(out_dim, waves))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(out_dim, waves))

    def wave(points: np.ndarray, i: int) -> np.ndarray:
        """Component i before its envelope."""
        acc = np.zeros(points.shape[:-1])
        for k in range(waves):
            if dim == 1:
                ray = points[..., 0]
            else:
                direction = np.zeros(dim)
                direction[0] = np.cos(angles[i, k])
                direction[1] = np.sin(angles[i, k])
                ray = points @ direction
            acc += coeffs[i, k] * np.sin(np.pi * (k + 1) * ray / length + phases[i, k])
        return acc

    def raw(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        envelope = np.ones(points.shape[:-1])
        for axis in range(dim):
            envelope = envelope * smooth_bump(2.0 * points[..., axis] / length - 1.0)
        return np.stack([envelope * wave(points, i) for i in range(out_dim)], axis=-1)

    probe = GridDomain(dim, length, 2048 if dim == 1 else 128)
    bump = smooth_bump(2.0 * probe.node_axis() / length - 1.0)
    envelope = np.ones(())
    for _ in range(dim):
        envelope = envelope[..., None] * bump
    nodes = probe.node_coordinates()
    total = np.zeros(probe.node_shape)
    for i in range(out_dim):
        grads = np.gradient(envelope * wave(nodes, i), probe.spacing)
        for grad in [grads] if dim == 1 else grads:
            total += grad * grad
    scale = np.sqrt(np.max(total))
    if scale <= 0.0:
        raise ValueError("degenerate perturbation draw")

    def phi(points: np.ndarray) -> np.ndarray:
        return raw(points) / scale

    return phi


# Lattice steps per grid cell in the heading integration of wave curves.
_REFINE = 16


def _integrate_positions(theta_of, grid: GridDomain) -> np.ndarray:
    """Trapezoid integration of (cos theta, sin theta) from the origin on a
    lattice `_REFINE` times finer than the grid."""
    fine = np.arange(grid.resolution * _REFINE + 1) * (grid.spacing / _REFINE)
    theta = theta_of(fine)
    tangents = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    steps = 0.5 * (tangents[1:] + tangents[:-1]) * (grid.spacing / _REFINE)
    positions = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    return positions[::_REFINE]


def curvature_curve(
    grid: GridDomain,
    kappa: float,
    profile: str = "constant",
    wave_amplitude: float = 0.5,
    mode: str = "forward",
) -> ImmersionField:
    """Unit-speed plane curve from the origin whose shape operator is the
    prescribed profile.

    profile "constant" uses closed-form circle (or line) nodes; "wave"
    modulates the curvature by a sine and integrates the exact heading on a
    refined lattice, which keeps the quadrature error well below the chord
    error of the grid itself.
    """
    if grid.dim != 1:
        raise ValueError("plane curves need a one-dimensional grid")
    if profile == "constant":
        t = grid.node_axis()
        if abs(kappa) < 1e-15:
            values = np.stack([t, np.zeros_like(t)], axis=-1)
        else:
            theta = -kappa * t
            x = -np.sin(theta) / kappa
            y = (np.cos(theta) - 1.0) / kappa
            values = np.stack([x, y], axis=-1)
    elif profile == "wave":
        length = grid.length

        def theta_of(s):
            swing = wave_amplitude * (length / (2.0 * np.pi)) * (1.0 - np.cos(2.0 * np.pi * s / length))
            return -kappa * s - swing

        values = _integrate_positions(theta_of, grid)
    else:
        raise ValueError(f"unknown curvature profile {profile!r}")
    return ImmersionField(grid, TargetSpace.euclidean(1), values, mode)


def graph_surface(grid: GridDomain, epsilon: float, mode: str = "forward") -> ImmersionField:
    """Graph immersion (x, epsilon * sin(pi x1 / l) sin(pi x2 / l)) over the square."""
    if grid.dim != 2:
        raise ValueError("graph surfaces need a two-dimensional grid")
    coords = grid.node_coordinates()
    height = epsilon * np.sin(np.pi * coords[..., :1] / grid.length) * np.sin(
        np.pi * coords[..., 1:] / grid.length
    )
    values = np.concatenate([coords, height], axis=-1)
    return ImmersionField(grid, TargetSpace.euclidean(2), values, mode)


def latitude_arc_fits(length: float, rho: float, polar: float) -> bool:
    """Whether an arc of `length` fits on the circle of latitude at `polar` (up to 1e-12)."""
    return length <= 2.0 * np.pi * (rho * np.sin(polar)) + 1e-12


def latitude_circle(
    grid: GridDomain, rho: float, polar: float, mode: str = "forward"
) -> ImmersionField:
    """Unit-speed arc of a circle of latitude on the sphere of radius rho."""
    if grid.dim != 1:
        raise ValueError("latitude circles need a one-dimensional grid")
    if not 0.0 < polar < np.pi:
        raise ValueError("polar angle must lie strictly between 0 and pi")
    if not latitude_arc_fits(grid.length, rho, polar):
        raise ValueError("arc length exceeds the full circle of latitude")
    r = rho * np.sin(polar)
    t = grid.node_axis()
    values = np.stack(
        [r * np.cos(t / r), r * np.sin(t / r), np.full_like(t, rho * np.cos(polar))],
        axis=-1,
    )
    return ImmersionField(grid, TargetSpace.sphere(1, rho), values, mode)


def perturbed_inclusion(
    grid: GridDomain,
    epsilon: float,
    kappa: float = 0.0,
    seed: int = 0,
    mode: str = "forward",
) -> ImmersionField:
    """Isometric base immersion plus epsilon times a compactly supported field.

    The base is the flat inclusion for d = 2 and the constant-curvature curve
    (kappa = 0 giving a straight line) for d = 1.
    """
    if grid.dim == 1:
        base = curvature_curve(grid, kappa, mode=mode).values
    elif grid.dim == 2:
        if kappa != 0.0:
            raise ValueError("curved bases are only available for curves")
        coords = grid.node_coordinates()
        base = np.concatenate([coords, np.zeros(grid.node_shape + (1,))], axis=-1)
    else:
        raise ValueError("perturbed inclusions cover d = 1 and d = 2")
    out_dim = grid.dim + 1
    phi = perturbation_field(grid.dim, out_dim, grid.length, seed)
    values = base + epsilon * phi(grid.node_coordinates())
    return ImmersionField(grid, TargetSpace.euclidean(grid.dim), values, mode)


def perturbed_identity(
    grid: GridDomain,
    epsilon: float,
    rotation: float = 0.0,
    seed: int = 0,
    mode: str = "forward",
) -> GridMap:
    """Equidimensional map: a rigid rotation of the cube plus a compact bump."""
    coords = grid.node_coordinates()
    if grid.dim == 2 and rotation != 0.0:
        c, s = np.cos(rotation), np.sin(rotation)
        base = coords @ np.array([[c, s], [-s, c]])
    elif rotation != 0.0:
        raise ValueError("base rotations are only implemented for d = 2")
    else:
        base = coords.copy()
    phi = perturbation_field(grid.dim, grid.dim, grid.length, seed)
    return GridMap(grid, base + epsilon * phi(coords), mode)


def build_metric(
    grid: GridDomain,
    kind: str = "flat",
    slope: float = 0.3,
    lam: float = 2.0,
    seed: int = 0,
) -> MetricField:
    """Metric families: flat identity, linear ramp, or a seeded smooth field.

    The random family is built as identity plus a trigonometric symmetric
    perturbation scaled to respect the sandwich constant `lam` a priori.
    """
    d = grid.dim
    if kind == "flat":
        return MetricField.constant(grid, np.eye(d))
    if kind == "linear":
        if slope <= -1.0 / grid.length:
            raise ValueError("linear metric slope makes the metric degenerate")
        coords = grid.node_coordinates()
        grams = (1.0 + slope * coords[..., 0])[..., None, None] * np.eye(d)
        return MetricField(grid, grams)
    if kind == "random":
        if lam <= 1.0:
            raise ValueError("random metrics need a sandwich constant above 1")
        rng = np.random.default_rng(seed)
        terms = 3
        mats = rng.uniform(-1.0, 1.0, size=(terms, d, d))
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
        wavevecs = rng.integers(1, 4, size=(terms, d))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=terms)
        budget = sum(np.linalg.norm(m, ord=2) for m in mats)
        beta = 0.999 * (1.0 - 1.0 / lam) / budget
        coords = grid.node_coordinates()
        gram = np.broadcast_to(np.eye(d), grid.node_shape + (d, d)).copy()
        for m, k, psi in zip(mats, wavevecs, phases):
            wave = np.sin(np.pi * (coords @ k) / grid.length + psi)
            gram = gram + beta * wave[..., None, None] * m
        return MetricField(grid, gram)
    raise ValueError(f"unknown metric kind {kind!r}")


_FLOAT_FIELDS = (
    "length", "p", "kappa", "wave_amplitude", "epsilon", "rho", "polar", "rotation",
    "metric_slope", "metric_lam",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete, serializable description of one scenario instance.

    `dim`, `resolution` and `seed` must be integers (an integral float is
    taken as one, a boolean is not).  Every other numeric field must be a
    finite number; it is checked but kept as given, so the manifest echoes it.
    """

    family: str
    dim: int = 1
    length: float = 1.0
    resolution: int = 64
    p: float = 2.0
    seed: int = 0
    mode: str = "forward"
    kappa: float = 1.0
    profile: str = "constant"
    wave_amplitude: float = 0.5
    epsilon: float = 0.1
    rho: float = 1.0
    polar: float = np.pi / 3
    rotation: float = 0.0
    metric_kind: str = "flat"
    metric_slope: float = 0.3
    metric_lam: float = 2.0

    def __post_init__(self) -> None:
        for name in ("dim", "resolution", "seed"):
            object.__setattr__(self, name, config_field(self, name, int))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown scenario family {self.family!r}")
        if self.metric_kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        if self.resolution < 2:
            raise ValueError("scenario grids need at least two cells per axis")
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"exponent p must be finite and at least 1, got {self.p}")
        for name in _FLOAT_FIELDS:
            config_field(self, name, float)

    def replace(self, **changes) -> "ScenarioSpec":
        data = asdict(self)
        data.update(changes)
        return ScenarioSpec(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        if "family" not in data:
            raise ValueError("scenario needs a 'family' key")
        return cls(**data)


@dataclass(frozen=True)
class ScenarioBundle:
    spec: ScenarioSpec
    u: ImmersionField | GridMap
    metric: MetricField


def build_scenario(spec: ScenarioSpec) -> ScenarioBundle:
    """Materialize a scenario: the map and the metric field on its grid."""
    grid = GridDomain(spec.dim, spec.length, spec.resolution)
    if spec.family == "curve":
        u = curvature_curve(grid, spec.kappa, spec.profile, spec.wave_amplitude, mode=spec.mode)
    elif spec.family == "graph":
        u = graph_surface(grid, spec.epsilon, mode=spec.mode)
    elif spec.family == "latitude":
        u = latitude_circle(grid, spec.rho, spec.polar, mode=spec.mode)
    elif spec.family == "perturbed":
        u = perturbed_inclusion(grid, spec.epsilon, spec.kappa, spec.seed, mode=spec.mode)
    else:
        u = perturbed_identity(grid, spec.epsilon, spec.rotation, spec.seed, mode=spec.mode)
    metric = build_metric(grid, spec.metric_kind, spec.metric_slope, spec.metric_lam, spec.seed)
    return ScenarioBundle(spec, u, metric)
