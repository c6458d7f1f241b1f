import tracemalloc

import numpy as np
import pytest

import oracles
from rigidkit import lemma_suite
from rigidkit.lemma_suite import (
    PROPERTY_ORDER,
    LemmaConfig,
    run_all,
    run_in_plane_equality,
    run_norm_equivalence,
    run_normal_derivative_bound,
    run_orientation_stability,
)
from rigidkit.metric_algebra import (
    OrientedSubspace,
    SpdMetric,
    nearest_isometry,
    nearest_isometry_into_plane,
    oriented_complement,
    projection_keeps_orientation,
    projection_error_bound_check,
    so_set_distance,
    subspace_distance,
)


class TestConfig:
    def test_defaults_match_documented_suite(self):
        cfg = LemmaConfig()
        assert cfg.samples == 10_000
        assert cfg.max_dim == 3
        assert cfg.max_ambient == 6
        assert cfg.lam_max == 10.0
        assert cfg.seed == 42
        assert cfg.tolerance == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": -1},
            {"samples": 100_001, "max_ambient": 2, "max_dim": 1},
            {"samples": 10**12},
            {"samples": 55_556},
            {"samples": 10, "max_ambient": 100_001, "max_dim": 1},
            {"curve_resolution": 500_001},
            {"tolerance": -1.0},
            {"tolerance": 0.0},
            {"normal_tolerance": -1e-8},
            {"lam_max": 0.5},
            {"lam_max": 1e9},
            {"lam_max": 1e300},
            {"max_dim": 7, "max_ambient": 6},
            {"max_dim": 6, "max_ambient": 6},
            {"max_dim": 0},
            {"samples": 1.5},
            {"samples": True},
            {"seed": -1},
            {"lam_max": np.inf},
            {"tolerance": np.nan},
            {"sphere_radius": 1e-3},
            {"curve_resolution": 1},
            {"sphere_radius": 0.0},
            {"polar_angle": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LemmaConfig(**kwargs)

    def test_sizes_at_their_caps_are_accepted(self):
        # constructed only: a run at these caps takes seconds (see the README)
        assert LemmaConfig(samples=100_000, max_dim=2, max_ambient=5).samples == 100_000
        assert LemmaConfig(samples=55_555).samples == 55_555
        assert LemmaConfig(samples=1, max_dim=1, max_ambient=1_000_000).max_ambient == 1_000_000
        assert LemmaConfig(curve_resolution=500_000).curve_resolution == 500_000

    def test_run_at_the_drawn_cap_in_a_wide_ambient_space_stays_small(self):
        # samples * max_ambient * max_dim = 1e6, one instance of each
        # dimension in R^250000: every kernel must stay linear in D (no
        # D x D or D(D - 1)/2 temporaries).
        tracemalloc.start()
        try:
            results = run_all(LemmaConfig(samples=2, max_dim=2, max_ambient=250_000, curve_resolution=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(result.passed for result in results)
        assert peak < 256 << 20  # bytes; each drawn array is 8 MB

    @pytest.mark.parametrize("samples", [1, 2])
    def test_fewer_samples_than_dimensions_runs(self, samples):
        results = run_all(LemmaConfig(samples=samples, curve_resolution=64))
        assert all(result.passed for result in results)

    @pytest.mark.parametrize("seed", range(20))
    def test_largest_allowed_lam_max_runs(self, seed):
        # At the cap u * lam_max^2 is about 1e-4, so every drawn Gram matrix
        # stays positive definite in floating point.
        assert len(run_all(LemmaConfig(samples=500, seed=seed, lam_max=1e6, curve_resolution=64))) == 7


class TestSuite:
    def test_full_suite_passes_and_keeps_order(self):
        results = run_all(LemmaConfig(samples=400, curve_resolution=128))
        assert tuple(r.name for r in results) == PROPERTY_ORDER
        for result in results:
            assert result.passed, f"{result.name}: slack {result.min_slack}"
            assert result.min_slack >= -result.tolerance

    def test_zero_samples_is_vacuous(self):
        results = run_all(LemmaConfig(samples=0, curve_resolution=64))
        by_name = {r.name: r for r in results}
        for name in PROPERTY_ORDER:
            if name == "normal_derivative_bound":
                continue  # the scenario check has its own cell count
            assert by_name[name].samples == 0
            assert by_name[name].passed
            assert "vacuous" in by_name[name].note
        assert by_name["normal_derivative_bound"].samples == 64

    def test_determinism_and_seed_sensitivity(self):
        cfg = LemmaConfig(samples=300, curve_resolution=64)
        first = run_norm_equivalence(cfg)
        second = run_norm_equivalence(cfg)
        assert first.min_slack == second.min_slack
        other = run_norm_equivalence(LemmaConfig(samples=300, seed=43, curve_resolution=64))
        assert other.min_slack != first.min_slack

    def test_result_dict_is_json_shaped(self):
        result = run_in_plane_equality(LemmaConfig(samples=50))
        payload = result.to_dict()
        assert set(payload) == {"name", "samples", "min_slack", "tolerance", "passed", "note"}
        assert isinstance(payload["min_slack"], float)
        assert payload["passed"] is True


class TestIndividualRunners:
    def test_normal_derivative_bound_visits_every_cell(self):
        result = run_normal_derivative_bound(LemmaConfig(samples=10, curve_resolution=96))
        assert result.samples == 96
        assert result.passed
        # On a unit-speed latitude arc the |du|^2 / rho^2 term alone is
        # order one, so the slack should be comfortably positive.
        assert result.min_slack > 0.1

    def test_normal_derivative_bound_respects_radius(self):
        small = run_normal_derivative_bound(
            LemmaConfig(samples=10, curve_resolution=96, sphere_radius=2.0, polar_angle=np.pi / 2)
        )
        assert small.passed

    def test_orientation_stability_reaches_quota_and_reports(self):
        result = run_orientation_stability(LemmaConfig(samples=150))
        assert result.samples == 150
        assert result.passed
        assert "orientation flips" in result.note

    def test_norm_equivalence_sample_budget_is_exact(self):
        result = run_norm_equivalence(LemmaConfig(samples=101))
        assert result.samples == 101


# --- batched runners against a per-sample reference -------------------------
#
# The references below are the runners' sequential loops as they were before
# the draws were grouped by shape: one instance drawn, built as objects and
# measured through the one-instance functions before the next is drawn.


def _ref_gram(rng, dim, lam_max):
    lo, hi = -np.log(lam_max), np.log(lam_max)
    w = np.exp(rng.uniform(lo, hi, size=(1, dim)))[0]
    q, r = np.linalg.qr(rng.standard_normal((1, dim, dim)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    q = q[0]
    gram = (q * w) @ q.T
    return 0.5 * (gram + gram.T), float(max(w.max(), 1.0 / w.min(), 1.0))


def _ref_plane(rng, ambient, dim):
    return OrientedSubspace.from_spanning(rng.standard_normal((ambient, dim)))


def ref_so_set_distance_bound(cfg, rng):
    worst = np.inf
    for _ in range(cfg.samples):
        dim = int(rng.integers(1, cfg.max_dim, endpoint=True))
        gram_x, lam_x = _ref_gram(rng, dim, cfg.lam_max)
        gram_y, lam_y = _ref_gram(rng, dim, cfg.lam_max)
        gx, gy = SpdMetric(gram_x), SpdMetric(gram_y)
        bound = 0.5 * np.sqrt(max(lam_x, lam_y)) * np.linalg.norm(gx.gram - gy.gram)
        worst = min(worst, bound - so_set_distance(gx, gy))
    return cfg.samples, worst, ""


def ref_projection_error_bound(cfg, rng):
    worst, ratio = np.inf, 0.0
    for _ in range(cfg.samples):
        dim = int(rng.integers(1, cfg.max_dim, endpoint=True))
        ambient = int(rng.integers(dim + 1, cfg.max_ambient, endpoint=True))
        base = _ref_plane(rng, ambient, dim)
        plane = _ref_plane(rng, ambient, dim)
        gram, _ = _ref_gram(rng, dim, cfg.lam_max)
        t = plane.frame @ rng.standard_normal((dim, dim))
        report = projection_error_bound_check(t, SpdMetric(gram), base, plane)
        worst = min(worst, report.projection_slack)
        if report.complement_gap > 1e-8:
            ratio = max(ratio, (report.oriented_lhs - report.unoriented_dist) / report.complement_gap)
    return cfg.samples, worst, f"oriented-bound constant observed <= {ratio:.3f} (reported, not asserted)"


def ref_volume_comparison(cfg, rng):
    worst = np.inf
    lo, hi = -np.log(cfg.lam_max), np.log(cfg.lam_max)
    for _ in range(cfg.samples):
        dim = int(rng.integers(1, cfg.max_dim, endpoint=True))
        cells = int(rng.integers(2, 32, endpoint=True))
        weights = rng.uniform(0.0, 1.0, size=cells)
        spectra = np.exp(rng.uniform(lo, hi, size=(cells, dim)))
        lam = max(spectra.max(), 1.0 / spectra.min(), 1.0)
        weighted = float(weights @ np.sqrt(np.prod(spectra, axis=-1)))
        scale = lam ** (dim / 2.0)
        worst = min(worst, scale * weights.sum() - weighted, weighted - weights.sum() / scale)
    return cfg.samples, worst, ""


def ref_in_plane_equality(cfg, rng):
    worst = np.inf
    for _ in range(cfg.samples):
        dim = int(rng.integers(1, cfg.max_dim, endpoint=True))
        ambient = int(rng.integers(dim, cfg.max_ambient, endpoint=True))
        plane = _ref_plane(rng, ambient, dim)
        coords = rng.standard_normal((dim, dim))
        if np.linalg.det(coords) < 0.0:
            coords[:, 0] *= -1.0
        g = SpdMetric(_ref_gram(rng, dim, cfg.lam_max)[0])
        t = plane.frame @ coords
        full = nearest_isometry(t, g, oriented=False)[1]
        planar = nearest_isometry_into_plane(t, g, plane, oriented=True)[1]
        worst = min(worst, -abs(full - planar))
    return cfg.samples, worst, ""


def ref_orientation_stability(cfg, rng):
    kept = flips = attempts = 0
    while kept < cfg.samples and attempts < 20 * cfg.samples:
        attempts += 1
        dim = int(rng.integers(1, cfg.max_dim, endpoint=True))
        ambient = int(rng.integers(dim + 1, cfg.max_ambient, endpoint=True))
        threshold = 0.5 / (2.0 * dim)
        base = _ref_plane(rng, ambient, dim)
        wiggle = rng.uniform(0.0, 0.4 * threshold)
        try:
            plane = OrientedSubspace.from_spanning(base.frame + wiggle * rng.standard_normal((ambient, dim)))
        except ValueError:
            continue
        if subspace_distance(oriented_complement(base), oriented_complement(plane)) >= threshold:
            continue
        kept += 1
        flips += not projection_keeps_orientation(base.frame, plane.frame)
    return kept, 0.0, f"{flips} orientation flips in {kept} pairs below gap 0.5/(2d); observational only"


# runner name -> (stream, reference); the stream is the runner's `_rng` stream.
REFERENCES = {
    "so_set_distance_bound": (2, ref_so_set_distance_bound),
    "projection_error_bound": (3, ref_projection_error_bound),
    "volume_comparison": (4, ref_volume_comparison),
    "in_plane_equality": (5, ref_in_plane_equality),
    "orientation_stability": (6, ref_orientation_stability),
}


@pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 6), (4, 6), (2, 9)])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_batched_runner_equals_per_sample_reference(monkeypatch, name, dims):
    stream, reference = REFERENCES[name]
    generators = []

    def recording_rng(config, stream):
        generators.append(np.random.default_rng([stream, config.seed]))
        return generators[-1]

    monkeypatch.setattr(lemma_suite, "_rng", recording_rng)
    for samples in (1, 2, 3, 50, 400):
        for seed in range(10):
            cfg = LemmaConfig(samples=samples, seed=seed, max_dim=dims[0], max_ambient=dims[1])
            result = lemma_suite._RUNNERS[name](cfg)
            rng = np.random.default_rng([stream, seed])
            ref_samples, ref_slack, ref_note = reference(cfg, rng)
            label = f"{name} samples={samples} seed={seed} dims={dims}"
            assert result.samples == ref_samples, label
            assert result.note == ref_note, label
            assert result.passed == (ref_slack >= -cfg.tolerance), label
            assert abs(result.min_slack - ref_slack) <= 1e-8 * abs(ref_slack) + 1e-12, label
            if name != "orientation_stability":
                # Same draws in the same order: the stream ends where the loop's did.
                assert generators[-1].random() == rng.random(), label


# --- the draws: flat buffers against the per-instance loops -----------------


class TestGeneratorIdentities:
    """The numpy `Generator` identities the runners' flat-buffer draws rest on.
    A numpy release that breaks one fails here, not only in the benchmark's
    reference check."""

    @pytest.mark.parametrize("seed", range(5))
    def test_two_normal_calls_equal_one_of_their_total_size(self, seed):
        split, whole = np.random.default_rng(seed), np.random.default_rng(seed)
        first, second = split.standard_normal((4, 3)), split.standard_normal((3, 3))
        np.testing.assert_array_equal(np.concatenate([first.ravel(), second.ravel()]), whole.standard_normal(21))
        assert split.random() == whole.random()

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_into_a_flat_slice_equals_a_sized_call(self, seed):
        sized, into = np.random.default_rng(seed), np.random.default_rng(seed)
        buffer = np.full(20, 7.0)
        into.standard_normal(out=buffer[3:15])
        np.testing.assert_array_equal(buffer[3:15], sized.standard_normal((4, 3)).ravel())
        assert (buffer[:3] == 7.0).all() and (buffer[15:] == 7.0).all()
        assert into.random() == sized.random()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_into_a_slice_equals_unit_uniform(self, seed):
        uniform, random = np.random.default_rng(seed), np.random.default_rng(seed)
        buffer = np.zeros(40)
        random.random(out=buffer[5:37])
        np.testing.assert_array_equal(buffer[5:37], uniform.uniform(0.0, 1.0, size=32))
        assert random.random() == uniform.random()

    @pytest.mark.parametrize("lam_max", [1.0, 10.0, 37.0, 1e6])
    def test_random_scaled_after_the_draw_equals_uniform(self, lam_max):
        # uniform(lo, hi) is lo + (hi - lo) u on the same u, rounded as numpy
        # rounds the product and the sum; uniform(0, s) is s u
        lo, hi = -np.log(lam_max), np.log(lam_max)
        uniform, random = np.random.default_rng(7), np.random.default_rng(7)
        np.testing.assert_array_equal(uniform.uniform(lo, hi, size=100_000), lo + (hi - lo) * random.random(100_000))
        scales = np.random.default_rng(8).uniform(0.0, 1.0, 1000)
        assert all(uniform.uniform(0.0, s) == s * random.random() for s in scales)
        assert random.random() == uniform.random()

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_integers_interleave_unchanged(self, seed):
        # The draw order of one instance, with its normal pair drawn as two
        # sized calls or as one call into a buffer: the integers, and every
        # draw after them, come out the same.
        calls, merged = np.random.default_rng(seed), np.random.default_rng(seed)
        buffer = np.empty(64)
        for _ in range(50):
            dim = int(calls.integers(1, 3, endpoint=True))
            assert int(merged.integers(1, 3, endpoint=True)) == dim
            ambient = int(calls.integers(dim + 1, 6, endpoint=True))
            assert int(merged.integers(dim + 1, 6, endpoint=True)) == ambient
            pair = np.concatenate([calls.standard_normal((ambient, dim)).ravel(), calls.standard_normal(dim)])
            merged.standard_normal(out=buffer[: (ambient + 1) * dim])
            np.testing.assert_array_equal(buffer[: (ambient + 1) * dim], pair)
            assert calls.uniform(-1.0, 2.0) == merged.uniform(-1.0, 2.0)
        assert calls.random() == merged.random()


# runner name -> (stream, its draw function, the per-instance loop it replaced)
DRAWS = {
    "so_set_distance_bound": (2, lemma_suite._so_set_draws, oracles.so_set_draws),
    "projection_error_bound": (3, lemma_suite._projection_draws, oracles.projection_draws),
    "volume_comparison": (4, lemma_suite._volume_draws, oracles.volume_draws),
    "in_plane_equality": (5, lemma_suite._in_plane_draws, oracles.in_plane_draws),
    "orientation_stability": (
        6,
        lambda cfg, rng: lemma_suite._orientation_draws(cfg, rng, cfg.samples),
        lambda cfg, rng: oracles.orientation_draws(cfg, rng, cfg.samples),
    ),
}


@pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 6), (4, 6), (2, 9)])
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_runner_draws_equal_the_per_instance_loop(name, dims):
    stream, draws, loop = DRAWS[name]
    for samples in (1, 2, 3, 50, 400):
        for seed in range(4):
            cfg = LemmaConfig(samples=samples, seed=seed, max_dim=dims[0], max_ambient=dims[1], lam_max=37.0)
            ours, theirs = np.random.default_rng([stream, seed]), np.random.default_rng([stream, seed])
            got, want = draws(cfg, ours), loop(cfg, theirs)
            label = f"{name} samples={samples} seed={seed} dims={dims}"
            assert len(got) == len(want), label
            for k, (x, y) in enumerate(zip(got, want)):
                assert x.shape == y.shape and np.array_equal(x, y), f"{label} array {k}"
            assert ours.random() == theirs.random(), label


def test_sampled_runners_evaluate_one_stack_per_dimension(monkeypatch):
    # Every ambient dimension of a dim shares its stack: one Gram stack per
    # dim, and one gap evaluation per dim and orientation chunk.
    counts = {"_grams": 0, "frame_distance": 0, "_orientation_attempts": 0}
    for name in counts:
        def counted(*args, real=getattr(lemma_suite, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(lemma_suite, name, counted)
    cfg = LemmaConfig(samples=300, max_dim=3, max_ambient=9)
    for runner in ("so_set_distance_bound", "projection_error_bound", "in_plane_equality"):
        counts["_grams"] = 0
        lemma_suite._RUNNERS[runner](cfg)
        assert counts["_grams"] == 3, runner
    run_orientation_stability(cfg)
    assert counts["frame_distance"] == 3 * counts["_orientation_attempts"]


def _attempt_stacks(draws, top, wide):
    """The per-dim collector's arrays for attempts (dim, vectors, wiggle, noise),
    vectors and noise zero-padded to (top, wide)."""
    dims, wiggles = np.array([d for d, *_ in draws]), np.array([w for *_, w, _ in draws], dtype=float)
    vectors, noise = np.zeros((len(draws), top, wide)), np.zeros((len(draws), top, wide))
    for attempt, (dim, base, _, moved) in enumerate(draws):
        vectors[attempt, : len(base), :dim] = base
        noise[attempt, : len(moved), :dim] = moved
    return dims, vectors, wiggles, noise


def test_orientation_attempts_equal_per_attempt_reference():
    # Attempts drawn as the runner draws them, judged one at a time by the
    # object path: the batched verdicts must agree attempt by attempt.
    rng = np.random.default_rng(113)
    draws = []
    for attempt in range(300):
        dim = int(rng.integers(1, 3, endpoint=True))
        ambient = int(rng.integers(dim + 1, 6, endpoint=True))
        base = rng.standard_normal((ambient, dim))
        # Wider wiggles than the runner's, so that both verdicts occur.
        wiggle = rng.uniform(0.0, 3.0 * lemma_suite._gap_threshold(dim))
        draws.append((dim, base, wiggle, rng.standard_normal((ambient, dim))))
    kept, flipped, failed = lemma_suite._orientation_attempts(*_attempt_stacks(draws, 6, 3))
    assert failed == {}
    for attempt, (dim, vectors, wiggle, noise) in enumerate(draws):
        base = OrientedSubspace.from_spanning(vectors)
        plane = OrientedSubspace.from_spanning(base.frame + wiggle * noise)
        gap = subspace_distance(oriented_complement(base), oriented_complement(plane))
        near = gap < 0.5 / (2.0 * dim)
        assert kept[attempt] == near, attempt
        assert flipped[attempt] == (near and not projection_keeps_orientation(base.frame, plane.frame)), attempt
    assert 0 < kept.sum() < len(draws)


def test_orientation_stops_at_attempt_budget(monkeypatch):
    # With every attempt rejected the loop makes exactly 20 * samples
    # attempts: the stream ends where that many sequential attempts end.
    def reject_all(dims, *draws):
        none = np.zeros(dims.size, dtype=bool)
        return none, none, {}

    generators = []

    def recording_rng(config, stream):
        generators.append(np.random.default_rng([stream, config.seed]))
        return generators[-1]

    monkeypatch.setattr(lemma_suite, "_orientation_attempts", reject_all)
    monkeypatch.setattr(lemma_suite, "_rng", recording_rng)
    cfg = LemmaConfig(samples=7, seed=3, max_dim=3, max_ambient=5)
    result = run_orientation_stability(cfg)
    assert result.samples == 0
    assert result.note.startswith("0 orientation flips in 0 pairs")
    rng = np.random.default_rng([6, cfg.seed])
    for _ in range(20 * cfg.samples):
        dim = int(rng.integers(1, cfg.max_dim, endpoint=True))
        ambient = int(rng.integers(dim + 1, cfg.max_ambient, endpoint=True))
        rng.standard_normal((ambient, dim))
        rng.uniform(0.0, 0.4 * (0.5 / (2.0 * dim)))
        rng.standard_normal((ambient, dim))
    assert generators[-1].random() == rng.random()


def test_orientation_raises_only_for_failed_bases_before_the_cut(monkeypatch):
    dependent = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    stacks = _attempt_stacks([(2, dependent, 0.01, np.zeros((3, 2)))], 3, 2)
    kept, flipped, failed = lemma_suite._orientation_attempts(*stacks)
    assert not kept[0] and not flipped[0]
    np.testing.assert_array_equal(failed[0], dependent)

    def failing_at(index):
        def verdicts(dims, *draws):
            kept = np.arange(dims.size) != index
            return kept, np.zeros(dims.size, dtype=bool), {index: dependent}

        return verdicts

    # Five samples draw a first chunk of seven attempts and every attempt but
    # the failed one is kept, so the loop stops within the first six: a
    # failure at attempt 6 lies past the cut, one at attempt 3 does not.
    cfg = LemmaConfig(samples=5, seed=1)
    monkeypatch.setattr(lemma_suite, "_orientation_attempts", failing_at(6))
    assert run_orientation_stability(cfg).samples == 5
    monkeypatch.setattr(lemma_suite, "_orientation_attempts", failing_at(3))
    with pytest.raises(ValueError, match="spanning columns are linearly dependent"):
        run_orientation_stability(cfg)
