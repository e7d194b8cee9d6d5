import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frames_from_array
import tpsdvqa.metric
from oracles import local_moments_direct, pipeline_direct, zeta_direct
from tpsdvqa.errors import (
    DimensionMismatch,
    FrameCountMismatch,
    NegativeBase,
    PlaneTooSmall,
)
from tpsdvqa.metric import (
    MetricConfig,
    assess,
    gaussian_window,
    local_moments,
    normalize_planes,
    tensor_score,
    video_score,
    zeta_map,
)
from tpsdvqa.synth import DistortionSpec, apply_distortion, make_moving_texture
from tpsdvqa.video_io import LumaFrame

# center weight of the default 11x11, sigma 1.5 window, frozen from exact
# rational/series arithmetic
CENTER_WEIGHT_11X11_S15 = 0.07076223776394698


class TestGaussianWindow:
    def test_default_window_center_weight(self):
        k = gaussian_window(5, 1.5)
        w = np.outer(k, k)
        assert w.shape == (11, 11)
        center = w[5, 5]
        assert center == pytest.approx(CENTER_WEIGHT_11X11_S15, abs=1e-15)
        assert center == np.max(w)

    def test_weights_sum_to_one(self):
        for radius, sigma in [(1, 0.5), (5, 1.5), (7, 3.0)]:
            w = gaussian_window(radius, sigma)
            assert abs(np.outer(w, w).sum() - 1.0) < 1e-12

    def test_circular_symmetry(self):
        k = gaussian_window(5, 1.5)
        w = np.outer(k, k)
        assert np.array_equal(w, w.T)
        assert np.array_equal(w, w[::-1, ::-1])

    def test_flat_limit(self):
        w = gaussian_window(1, 1e6)
        assert np.allclose(np.outer(w, w), 1.0 / 9.0, atol=1e-9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gaussian_window(0, 1.5)
        for sigma in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                gaussian_window(5, sigma)


class TestLocalStats:
    def test_constant_plane(self):
        w = gaussian_window(5, 1.5)
        plane = np.full((16, 16), 42.0)
        mu, _, sigma, _, cov = local_moments(plane, plane, w)
        assert np.allclose(mu, 42.0, atol=1e-10)
        assert np.allclose(sigma, 0.0, atol=1e-6)
        assert np.allclose(cov, 0.0, atol=1e-10)

    def test_impulse_with_flat_window(self):
        w = gaussian_window(1, 1e6)  # effectively a 3x3 box
        plane = np.zeros((16, 16))
        plane[8, 8] = 1.0
        mu, _, _, _, _ = local_moments(plane, np.zeros((16, 16)), w)
        assert mu[8, 8] == pytest.approx(1.0 / 9.0, abs=1e-9)

    @pytest.mark.parametrize("padding", ["mirror", "valid"])
    def test_matches_double_loop_oracle(self, rng, padding):
        w = gaussian_window(5, 1.5)
        x = rng.random((16, 16))
        y = rng.random((16, 16))
        want = local_moments_direct(x, y, np.outer(w, w), padding)
        got = local_moments(x, y, w, padding)
        for g, e in zip(got, want):
            assert np.max(np.abs(g - e)) < 1e-12

    def test_valid_padding_crops(self):
        w = gaussian_window(2, 1.0)
        moments = local_moments(np.ones((16, 12)), np.ones((16, 12)), w, padding="valid")
        assert all(m.shape == (12, 8) for m in moments)

    def test_plane_too_small(self):
        w = gaussian_window(5, 1.5)
        with pytest.raises(PlaneTooSmall):
            local_moments(np.ones((10, 16)), np.ones((10, 16)), w)

    @pytest.mark.parametrize(
        "window",
        [
            np.outer(gaussian_window(2, 1.0), gaussian_window(2, 1.0)),
            gaussian_window(2, 1.0)[:-1],
            np.ones(1),
        ],
    )
    def test_rejects_a_window_that_is_not_an_odd_1d_kernel(self, window):
        plane = np.ones((16, 16))
        with pytest.raises(ValueError, match="1D kernel of odd length"):
            local_moments(plane, plane, window)


class TestZetaMap:
    def test_identical_planes_give_one(self, rng):
        w = gaussian_window(5, 1.5)
        plane = rng.random((24, 24)) * 7.0
        z = zeta_map(plane, plane.copy(), w)
        assert np.max(np.abs(z - 1.0)) < 1e-12

    def test_constant_planes_stabilized_to_one(self):
        w = gaussian_window(5, 1.5)
        plane = np.full((16, 16), 9.0)
        z = zeta_map(plane, plane.copy(), w)
        assert np.allclose(z, 1.0, atol=1e-9)

    def test_sign_perturbed_region_dips(self, rng):
        w = gaussian_window(5, 1.5)
        ref = rng.random((32, 32)) + 0.5
        dist = ref.copy()
        dist[10:20, 10:20] *= -1.0
        z = zeta_map(ref, dist, w)
        oracle = zeta_direct(ref, dist, np.outer(w, w), 4.5e-4, "mirror")
        assert np.max(np.abs(z - oracle)) < 1e-12
        assert z[12:18, 12:18].mean() < 0.0
        # windows that never touch the perturbed block stay at 1
        untouched = z[:4, :4]
        assert np.allclose(untouched, 1.0, atol=1e-9)

    def test_bounded_for_random_pairs(self, rng):
        w = gaussian_window(5, 1.5)
        for scale in (1.0, 1e-8, 1e8):
            x = rng.random((16, 16)) * scale
            y = rng.random((16, 16)) * scale
            z = zeta_map(x, y, w)
            assert np.all(z <= 1.0 + 1e-9)
            assert np.all(z >= -1.0 - 1e-9)

    def test_dimension_mismatch(self):
        w = gaussian_window(2, 1.0)
        with pytest.raises(DimensionMismatch):
            zeta_map(np.ones((12, 12)), np.ones((12, 14)), w)

    @pytest.mark.parametrize("c", [0.0, np.nan, np.inf])
    def test_rejects_a_stabilizer_that_is_not_finite_and_positive(self, c):
        plane = np.ones((16, 16))
        with pytest.raises(ValueError, match="stability constant"):
            zeta_map(plane, plane, gaussian_window(2, 1.0), c)

    def test_valid_padding_shrinks_map(self, rng):
        w = gaussian_window(3, 1.5)
        x = rng.random((16, 16))
        z = zeta_map(x, x.copy(), w, padding="valid")
        assert z.shape == (10, 10)


class TestNormalizePlanes:
    def test_ref_max_maps_reference_into_unit_range(self, rng):
        ref = rng.random((8, 8)) * 1e9
        dist = rng.random((8, 8)) * 1e9
        nr, nd = normalize_planes(ref, dist, "ref-max")
        assert nr.max() == pytest.approx(1.0)
        assert np.array_equal(nd, dist / ref.max())

    def test_all_zero_reference_passes_through(self):
        ref = np.zeros((4, 4))
        dist = np.ones((4, 4))
        nr, nd = normalize_planes(ref, dist, "ref-max")
        assert np.array_equal(nr, ref)
        assert np.array_equal(nd, dist)

    def test_log10_mode(self):
        ref = np.array([[0.0, 9.0], [99.0, 999.0]])
        nr, _ = normalize_planes(ref, ref, "log10")
        assert np.allclose(nr, [[0.0, 1.0], [2.0, 3.0]])

    def test_none_mode_is_identity(self, rng):
        ref = rng.random((4, 4))
        dist = rng.random((4, 4))
        nr, nd = normalize_planes(ref, dist, "none")
        assert nr is ref and nd is dist


class TestPooling:
    def test_all_ones(self):
        assert tensor_score(np.ones((8, 8))) == 1.0

    def test_half_and_half(self):
        values = np.ones((4, 4))
        values[:2] = -1.0
        assert tensor_score(values) == 0.0

    def test_matches_plain_sum(self, rng):
        values = rng.uniform(-1, 1, size=(9, 7))
        expected = sum(float(v) for v in values.ravel()) / values.size
        assert tensor_score(values) == pytest.approx(expected, abs=1e-12)

    def test_clamps_float_excess(self):
        values = np.full((4, 4), 1.0 + 1e-13)
        assert tensor_score(values) == 1.0

    def test_non_finite_map_is_rejected_not_clamped(self):
        values = np.ones((4, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            tensor_score(values)

    def test_video_score_trivial_cases(self):
        assert video_score([1.0, 1.0, 1.0], beta=2.0) == 1.0
        assert video_score([0.5, 0.7], beta=1.0) == pytest.approx(0.6, abs=1e-12)
        assert video_score([0.25], beta=0.5) == pytest.approx(0.5, abs=1e-15)

    def test_video_score_negative_base(self):
        with pytest.raises(NegativeBase):
            video_score([-0.5, -0.7], beta=0.5)
        # integral exponents are fine for negative means
        assert video_score([-0.5], beta=2.0) == pytest.approx(0.25)
        assert video_score([-0.5], beta=3.0) == pytest.approx(-0.125)

    def test_video_score_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            video_score([], beta=1.0)
        for beta in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                video_score([0.5], beta=beta)


class TestAssess:
    def test_identity_video_scores_one(self):
        frames = make_moving_texture(32, 32, 9, seed=5)
        report = assess(frames, frames, MetricConfig(tensor_len=4))
        # 9 frames at tensor_len 4 -> depths 4, 4 and a dropped trailing frame
        assert report.tensor_depths == (4, 4)
        assert all(abs(s - 1.0) < 1e-12 for s in report.tensor_scores)
        assert abs(report.video_score - 1.0) < 1e-12

    def test_identity_with_partial_trailing_tensor(self):
        frames = make_moving_texture(32, 32, 7, seed=6)
        report = assess(frames, frames, MetricConfig(tensor_len=4))
        assert report.tensor_depths == (4, 3)
        assert abs(report.video_score - 1.0) < 1e-12

    @pytest.mark.parametrize("normalization", ["ref-max", "none", "log10"])
    @pytest.mark.parametrize("padding", ["mirror", "valid"])
    @pytest.mark.parametrize("center_dc", [False, True])
    def test_identity_holds_for_every_config(self, normalization, padding, center_dc):
        frames = make_moving_texture(24, 24, 4, seed=17)
        cfg = MetricConfig(
            tensor_len=4,
            window_radius=3,
            plane_normalization=normalization,
            padding=padding,
            center_dc=center_dc,
        )
        report = assess(frames, frames, cfg)
        assert abs(report.video_score - 1.0) < 1e-12

    def test_distortion_reduces_score(self):
        frames = make_moving_texture(32, 32, 6, seed=7)
        dist = apply_distortion(frames, DistortionSpec("gaussian-noise", 20.0, seed=8))
        report = assess(frames, dist, MetricConfig(tensor_len=6))
        assert report.video_score < 1.0

    def test_odd_frame_size(self):
        # the metric itself needs no even dimensions; only the YUV 4:2:0 file
        # format does
        frames = make_moving_texture(33, 33, 4, seed=5)
        dist = apply_distortion(frames, DistortionSpec("gaussian-noise", 20.0, seed=6))
        cfg = MetricConfig(tensor_len=4)
        assert assess(frames, frames, cfg).video_score == 1.0
        assert assess(frames, dist, cfg).video_score < 1.0

    def test_window_too_big_fails_before_kernel_and_distorted_transform(self, monkeypatch):
        # a huge radius must fail on the plane size, not on building its kernel
        calls = {"kernel": 0, "transform": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            tpsdvqa.metric, "gaussian_window", counted("kernel", tpsdvqa.metric.gaussian_window)
        )
        monkeypatch.setattr(
            tpsdvqa.metric, "tpsd_of_tensor", counted("transform", tpsdvqa.metric.tpsd_of_tensor)
        )
        frames = make_moving_texture(64, 48, 4, seed=1)
        with pytest.raises(PlaneTooSmall, match="plane 48x64 is smaller than the 81x81 window"):
            assess(frames, frames, MetricConfig(tensor_len=4, window_radius=40))
        assert calls == {"kernel": 0, "transform": 1}

    def test_frame_count_mismatch(self):
        frames = make_moving_texture(32, 32, 6, seed=1)
        with pytest.raises(FrameCountMismatch):
            assess(frames, frames[:-1], MetricConfig(tensor_len=4))

    def test_frame_shape_mismatch(self):
        a = make_moving_texture(32, 32, 4, seed=1)
        b = make_moving_texture(32, 16, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            assess(a, b, MetricConfig(tensor_len=4))

    def test_frame_range_is_honored(self):
        frames = make_moving_texture(32, 32, 20, seed=2)
        report = assess(frames, frames, MetricConfig(tensor_len=5), frame_range=(10, 19))
        assert report.tensor_depths == (5, 5)

    def test_zeta_callback_receives_each_tensor(self):
        frames = make_moving_texture(32, 32, 8, seed=3)
        seen = []
        assess(
            frames,
            frames,
            MetricConfig(tensor_len=4),
            zeta_callback=lambda i, z: seen.append((i, z.shape)),
        )
        assert seen == [(0, (32, 32)), (1, (32, 32))]

    def test_scale_invariance_under_ref_max(self):
        base = make_moving_texture(32, 32, 6, seed=9)
        dist = apply_distortion(base, DistortionSpec("gaussian-blur", 1.5, seed=4))
        # doubling is exact in binary floating point, so ref-max
        # normalization cancels the scale bit-for-bit
        ref2 = frames_from_array(np.stack([f.pixels for f in base]) * 2.0)
        dist2 = frames_from_array(np.stack([f.pixels for f in dist]) * 2.0)
        cfg = MetricConfig(tensor_len=6)
        assert assess(base, dist, cfg).video_score == assess(ref2, dist2, cfg).video_score

    def test_beta_preserves_ranking(self):
        ref = make_moving_texture(32, 32, 6, seed=11)
        means = []
        for level in (2.0, 8.0, 32.0):
            dist = apply_distortion(ref, DistortionSpec("gaussian-noise", level, seed=12))
            means.append(assess(ref, dist, MetricConfig(tensor_len=6)).video_score)
        assert all(m > 0 for m in means)
        orders = []
        for beta in (0.5, 1.0, 2.0):
            orders.append(tuple(np.argsort([m**beta for m in means])))
        assert orders[0] == orders[1] == orders[2]

    def test_video_score_applies_beta_to_mean(self):
        ref = make_moving_texture(32, 32, 8, seed=13)
        dist = apply_distortion(ref, DistortionSpec("block-quantize", 48.0, seed=14))
        cfg = MetricConfig(tensor_len=4, beta=2.0)
        report = assess(ref, dist, cfg)
        assert report.video_score == pytest.approx(
            float(np.mean(report.tensor_scores)) ** 2.0, abs=1e-12
        )

    @pytest.mark.parametrize("padding", ["mirror", "valid"])
    @pytest.mark.parametrize("center_dc", [False, True])
    def test_pipeline_matches_straight_line_oracle(self, rng, padding, center_dc):
        # 8x8 planes need a window no larger than 8: radius 3 keeps the
        # default sigma meaningful while fitting the plane
        cfg = MetricConfig(
            tensor_len=4,
            window_radius=3,
            window_sigma=1.5,
            center_dc=center_dc,
            padding=padding,
        )
        ref_stack = rng.integers(0, 256, size=(4, 8, 8), dtype=np.uint8)
        noise = rng.normal(0, 12, size=(4, 8, 8))
        dist_stack = np.clip(ref_stack.astype(np.float64) + noise, 0, 255)
        ref = frames_from_array(ref_stack)
        dist = frames_from_array(dist_stack)
        report = assess(ref, dist, cfg)

        expected = pipeline_direct(
            np.stack([f.pixels for f in ref], axis=-1).astype(np.float64),
            np.stack([f.pixels for f in dist], axis=-1),
            radius=3,
            sigma=1.5,
            c=cfg.stability_c,
            center_dc=center_dc,
            padding=padding,
        )
        assert report.video_score == pytest.approx(expected, abs=1e-9)


class TestBlindSpots:
    """What the time-aggregated plane cannot see.

    The plane is a sum of per-frame 2D periodograms: it carries no temporal
    order, and a periodogram ignores a circular shift of its frame.
    """

    FRAMES = make_moving_texture(64, 48, 8, seed=21)
    MODES = ("ref-max", "log10", "none")

    def _scores(self, dist):
        return [
            assess(self.FRAMES, dist, MetricConfig(tensor_len=8, plane_normalization=mode))
            .video_score
            for mode in self.MODES
        ]

    @settings(deadline=None, max_examples=20)
    @given(order=st.permutations(range(8)))
    def test_frame_order_is_invisible(self, order):
        dist = [self.FRAMES[i] for i in order]
        assert all(abs(s - 1.0) <= 1e-12 for s in self._scores(dist))

    @settings(deadline=None, max_examples=20)
    @given(t=st.integers(0, 7), dy=st.integers(0, 47), dx=st.integers(0, 63))
    def test_circular_shift_of_one_frame_is_invisible(self, t, dy, dx):
        dist = list(self.FRAMES)
        dist[t] = LumaFrame(np.roll(dist[t].pixels, (dy, dx), axis=(0, 1)))
        assert all(abs(s - 1.0) <= 1e-12 for s in self._scores(dist))

    def test_edge_replicated_shift_is_seen(self):
        dist = list(self.FRAMES)
        dist[3] = LumaFrame(np.pad(dist[3].pixels, ((0, 0), (7, 0)), mode="edge")[:, :-7])
        cfg = MetricConfig(tensor_len=8, plane_normalization="log10")
        assert assess(self.FRAMES, dist, cfg).video_score < 0.99


class TestMetricConfig:
    def test_defaults(self):
        cfg = MetricConfig()
        assert cfg.tensor_len == 30
        assert cfg.window_radius == 5
        assert cfg.window_sigma == 1.5
        assert cfg.stability_c == 4.5e-4
        assert cfg.beta == 1.0
        assert cfg.plane_normalization == "ref-max"
        assert cfg.center_dc is True
        assert cfg.padding == "mirror"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tensor_len": 1},
            {"window_radius": 0},
            {"window_sigma": 0.0},
            {"window_sigma": float("nan")},
            {"window_sigma": float("inf")},
            {"stability_c": -1.0},
            {"stability_c": float("nan")},
            {"stability_c": float("inf")},
            {"beta": 0.0},
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"plane_normalization": "max"},
            {"padding": "wrap"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MetricConfig(**kwargs)
