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


def smooth_bump(s: np.ndarray) -> np.ndarray:
    """C-infinity bump supported on (-1, 1), normalized to 1 at the center."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


# Lattice nodes per chunk of the exact probe pass, which normally keeps a handful.
_PROBE_CHUNK = 1 << 14
_WAVES = 3


def _perturbation_draw(out_dim: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeded plane waves of a perturbation field: coefficients, phases
    and direction angles, each of shape (out_dim, 3)."""
    rng = np.random.default_rng(seed)
    shape = (out_dim, _WAVES)
    coeffs = rng.uniform(-1.0, 1.0, size=shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return coeffs, phases, angles


def perturbation_field(dim: int, out_dim: int, length: float, seed: int):
    """Smooth compactly supported vector field on the cube, as a callable.

    The construction is seeded and grid independent: coefficients come from
    the seed and the normalization (unit maximum gradient) is probed on a
    fixed fine lattice, so evaluating on different resolutions samples the
    same continuum field.

    Component i is the envelope 1 b(x_0) b(x_1) ... (b the smooth bump, one
    factor per axis) times a sum of three plane waves that read x_0 and x_1
    only.  The scale is sqrt(max t) over the probe lattice, t the sum over
    (component, axis) of the squared `np.gradient` quotients of the lattice
    values, added in that order: the full-lattice probe that
    `tests/oracles.py` keeps as `perturbation_scale_stacked`.  The maximum
    is found in two passes:

    - `_probe_estimate` computes t~ on the whole lattice, within a proven
      bound E of t at every node, without a sine per node: the waves split
      into per-axis factors, and a third axis enters as outer products;
    - `_probe_sums` reruns the full-lattice probe's own operations, in its
      order, at the nodes with t~ >= max t~ - 2E only.  With m a node where
      t is largest and m~ one where t~ is, t~(m) >= t(m) - E >= t(m~) - E
      >= t~(m~) - 2E, so m is among them, and the root of their largest sum
      is the full-lattice scale bit for bit.  After an overflow the
      threshold is NaN, and every node is kept.

    On 1500 random draws (d <= 2, lengths 1e-3 to 1e3) one node was kept
    each time, so the probe costs a few products of (n + 1, 6) factors
    instead of 6-9 sines at every lattice node.
    """
    coeffs, phases, angles = _perturbation_draw(out_dim, seed)

    def wave(points: np.ndarray, i: int) -> np.ndarray:
        """Component i before its envelope."""
        acc = np.zeros(points.shape[:-1])
        for k in range(_WAVES):
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
    estimate, slack = _probe_estimate(probe, coeffs, phases, angles)
    with np.errstate(invalid="ignore"):
        nodes = np.flatnonzero(~(estimate < estimate.max() - 2.0 * slack))
    scale = np.sqrt(np.max(_probe_sums(probe, wave, out_dim, nodes)))
    if scale <= 0.0:
        raise ValueError("degenerate perturbation draw")

    def phi(points: np.ndarray) -> np.ndarray:
        return raw(points) / scale

    return phi


def _probe_estimate(probe: GridDomain, coeffs, phases, angles) -> tuple[np.ndarray, float]:
    """The probe's summed squared gradients t~ on every lattice node, and a
    bound E >= |t~ - t| at every node (t as `_probe_sums` computes it).

    A wave sin(p x + q y + r) = sin(p x) cos(q y + r) + cos(p x) sin(q y + r)
    (a curve's waves read x alone: q = 0 and one y node), so component i on
    the (x, y) lattice is P_i Q_i^T, with P_i = b(x) [sin(p x), cos(p x)]
    and Q_i = b(y) [c cos(q y + r), c sin(q y + r)] of shape (n + 1, 6), c
    the waves' coefficients.  A difference quotient along x or y of
    P_i Q_i^T is then the quotient of P_i or Q_i along its one axis,
    multiplied out.  A third axis z enters as outer products: the quotients
    of g(x, y) b(z) are g's times b(z) along x and y, and g times b's
    quotient along z.  Curves share their rows P, since every wave of
    theirs runs along x.

    The bound.  Let u = 2^-53, h the spacing, S_i the sum of |coefficients|
    of component i, and F_i the field evaluated in exact arithmetic on the
    floats both passes share (lattice coordinates, bumps, coefficients,
    phases, cos and sin of the angles, pi (k + 1) and the length), so
    |F_i| <= S_i and b <= 1.  Every sine argument is below 20 in size and
    is computed to within 80 u of its exact value, and `np.sin` adds at most
    4 ulps; the wave sums, the six-term products and the envelope products
    add relative errors of a few u.  Each pass therefore computes every
    difference quotient of component i to within 2^9 u S_i / h + 3 u |X| of
    the exact quotient X of F_i with the same stencil: the exact pass's
    values are within 2^7 u S_i of F_i, and the entries of P_i, Q_i within
    2^6 u (times |c|), their quotients within 2^7 u / h, and every entry of
    P, Q, b is at most 1 in size, so its quotients at most 2 / h.  So the
    computed (component, axis) vectors x and x~ lie within eta + 3 u R of
    the exact one X, with eta = 2^9 u sqrt(dim sum_i S_i^2) / h and
    R = |X|.  With rho = R + eta + 3 u R, | |x~|^2 - |x|^2 | <=
    4 (eta + 3 u R) rho, and the (at most nine-term) sums and the products
    of the third axis round t and t~ by at most 16 u, so
    |t~ - t| <= 4 eta rho + 44 u rho^2; |x~| >= R - eta - 3 u R gives
    rho <= (1 + 16 u) sqrt(max t~) + 3 eta at every node.  E puts 4 eta in
    place of eta, doubles both coefficients, and adds 2^-1060 for the
    results below 2^-1022, each off by at most 2^-1075.  On those 1500
    draws |t~ - t| stayed below E / 800.
    """
    dim, h = probe.dim, probe.spacing
    axis = probe.node_axis()
    bump = smooth_bump(2.0 * axis / probe.length - 1.0)
    freq = np.pi * np.arange(1, _WAVES + 1) / probe.length
    if dim > 1:
        along_x, along_y, ys, y_bump = freq * np.cos(angles), freq * np.sin(angles), axis, bump
    else:
        along_x, along_y, ys, y_bump = freq[None], np.zeros_like(angles), axis[:1], np.ones(1)
    with np.errstate(all="ignore"):
        across = axis[:, None] * along_x[:, None, :]
        rows = bump[:, None] * np.concatenate([np.sin(across), np.cos(across)], axis=-1)
        shifted = ys[:, None] * along_y[:, None, :] + phases[:, None, :]
        cols = np.concatenate([np.cos(shifted), np.sin(shifted)], axis=-1) * np.tile(coeffs, 2)[:, None, :]
        cols = np.swapaxes(y_bump[:, None] * cols, -1, -2)
        grads = [np.gradient(rows, h, axis=1) @ cols]
        if dim > 1:
            grads.append(rows @ np.gradient(cols, h, axis=2))
        estimate = sum(np.einsum("i...,i...->...", g, g) for g in grads).reshape(probe.node_shape[: min(dim, 2)])
        if dim > 2:
            values = rows @ cols
            heights = np.einsum("i...,i...->...", values, values)
            bump_sq, slope_sq = bump * bump, np.gradient(bump, h) ** 2
            for _ in range(dim - 2):
                estimate = np.multiply.outer(estimate, bump_sq) + np.multiply.outer(heights, slope_sq)
                heights = np.multiply.outer(heights, bump_sq)
        eta = 2.0**-42 * np.sqrt(dim * np.sum(np.abs(coeffs).sum(axis=1) ** 2)) / h
        reach = np.sqrt(estimate.max()) + 3.0 * eta
        slack = 8.0 * eta * reach + 2.0**-46 * reach * reach + 2.0**-1060
    return estimate, float(slack)


def _probe_sums(probe: GridDomain, wave, out_dim: int, nodes: np.ndarray) -> np.ndarray:
    """The probe's summed squared gradients t at the flat lattice indices
    `nodes`, computed as the full-lattice probe computes them: `wave` on the
    node coordinates, times the envelope 1 b(x_0) b(x_1) ...; `np.gradient`'s
    quotients, (f[j + 1] - f[j - 1]) / 2h inside and (f[1] - f[0]) / h,
    (f[n] - f[n - 1]) / h at the edges; their squares added one at a time,
    component by component and axis by axis, to zeros."""
    dim, n, h = probe.dim, probe.resolution, probe.spacing
    axis = probe.node_axis()
    bump = smooth_bump(2.0 * axis / probe.length - 1.0)
    sums = []
    for start in range(0, len(nodes), _PROBE_CHUNK):
        centre = np.stack(np.unravel_index(nodes[start : start + _PROBE_CHUNK], probe.node_shape), axis=-1)
        # stencil[a, 0] and stencil[a, 1]: the nodes the quotient along axis a reads
        stencil = np.broadcast_to(centre, (dim, 2) + centre.shape).copy()
        for a in range(dim):
            stencil[a, 0, :, a] = np.maximum(centre[:, a] - 1, 0)
            stencil[a, 1, :, a] = np.minimum(centre[:, a] + 1, n)
        steps = np.where((centre > 0) & (centre < n), 2.0 * h, h).T
        points = axis[stencil]
        envelope = bump[stencil[..., 0]]
        for a in range(1, dim):
            envelope = envelope * bump[stencil[..., a]]
        total = np.zeros(len(centre))
        for i in range(out_dim):
            # one product of 2 d m >= 4 rows at d >= 2: numpy runs a one-row
            # matrix times a vector as a dot product, which rounds unlike the
            # rows of a larger matrix, and so unlike the lattice's rows
            values = envelope * wave(points.reshape(-1, dim), i).reshape(envelope.shape)
            for (lower, upper), step in zip(values, steps):
                grad = (upper - lower) / step
                total += grad * grad
        sums.append(total)
    return np.concatenate(sums)


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


# Size cap (see `ScenarioSpec`)
_MOST_CELLS = 1 << 20

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

    The size is capped so that an absurd scenario fails here, before
    anything is allocated: a grid has at most 2^20 cells, and the
    perturbation families cover d <= 3, since their probe lattice has 129^d
    nodes (2.06 GiB per float array at d = 4).  A `rigidity` fit at the cap
    on a random metric peaked at 126-646 MB of resident memory, the
    interpreter included: 126, 310 and 646 MB for
    `perturbed_identity` at d = 1, 2, 3 (101^3 cells), 225 MB for a
    curve, 230 and 480 MB for `perturbed` at d = 1, 2, 501 MB for a
    latitude arc and 519 MB for a graph.
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
            object.__setattr__(self, name, config_number(getattr(self, name), name, int))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown scenario family {self.family!r}")
        if self.metric_kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        if self.resolution < 2:
            raise ValueError("scenario grids need at least two cells per axis")
        # resolution >= 2, so past 20 axes the grid has more than 2^20 cells
        if self.dim > 20 or self.resolution**self.dim > _MOST_CELLS:
            raise ValueError(f"scenario grids have at most 2^20 cells, got {self.resolution}^{self.dim}")
        if self.family in ("perturbed", "perturbed_identity") and self.dim > 3:
            raise ValueError(f"perturbation fields cover d <= 3 (a 129^d probe lattice), got d = {self.dim}")
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"exponent p must be finite and at least 1, got {self.p}")
        for name in _FLOAT_FIELDS:
            config_number(getattr(self, name), name)

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


def build_map(spec: ScenarioSpec) -> ImmersionField | GridMap:
    """The scenario's map alone, from its family builder."""
    grid = GridDomain(spec.dim, spec.length, spec.resolution)
    if spec.family == "curve":
        return curvature_curve(grid, spec.kappa, spec.profile, spec.wave_amplitude, mode=spec.mode)
    if spec.family == "graph":
        return graph_surface(grid, spec.epsilon, mode=spec.mode)
    if spec.family == "latitude":
        return latitude_circle(grid, spec.rho, spec.polar, mode=spec.mode)
    if spec.family == "perturbed":
        return perturbed_inclusion(grid, spec.epsilon, spec.kappa, spec.seed, mode=spec.mode)
    return perturbed_identity(grid, spec.epsilon, spec.rotation, spec.seed, mode=spec.mode)


def build_scenario(spec: ScenarioSpec) -> ScenarioBundle:
    """Materialize a scenario: the map and the metric field on its grid."""
    u = build_map(spec)
    metric = build_metric(u.grid, spec.metric_kind, spec.metric_slope, spec.metric_lam, spec.seed)
    return ScenarioBundle(spec, u, metric)
