import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frames_from_array, random_frames
import tpsdvqa.metric
from oracles import local_moments_direct, pipeline_direct, zeta_direct, zeta_whole_plane
from tpsdvqa.errors import (
    DimensionMismatch,
    FrameCountMismatch,
    NegativeBase,
    PlaneTooSmall,
)
from tpsdvqa.evaluate import psnr
from tpsdvqa.metric import (
    PADDING_MODES,
    ZETA_BAND_ROWS,
    MetricConfig,
    assess,
    gaussian_window,
    local_moments,
    normalize_planes,
    tensor_score,
    video_score,
    zeta_map,
)
from tpsdvqa.spectral import tpsd_of_tensor
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

    @pytest.mark.parametrize("sigma", [1e-200, 1e-154, 5e-324])
    def test_tiny_sigma_raises_instead_of_a_broken_kernel(self, sigma):
        # 2*sigma^2 underflows to zero, or radius^2 / (2*sigma^2) overflows
        with pytest.raises(ValueError, match=f"window sigma {sigma} is too small"):
            gaussian_window(5, sigma)

    def test_smallest_usable_sigma_is_a_unit_impulse(self):
        assert np.array_equal(gaussian_window(5, 1e-153), np.eye(11)[5])


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

    @pytest.mark.parametrize("padding", PADDING_MODES)
    def test_moments_are_c_contiguous(self, rng, padding):
        # np.mean sums a strided view in another order than a contiguous copy
        x = rng.random((20, 17))
        y = x + 0.1 * rng.random((20, 17))
        moments = local_moments(x, y, gaussian_window(3, 1.5), padding)
        assert all(m.flags.c_contiguous for m in moments)

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


class TestZetaBands:
    """``zeta_map`` works in row bands; the map must not notice."""

    @settings(deadline=None, max_examples=80)
    @given(
        radius=st.integers(1, 6),
        padding=st.sampled_from(PADDING_MODES),
        bands=st.integers(0, 3),
        offset=st.sampled_from(["exact", "+d", "-d", "+2d", "short"]),
        short=st.integers(1, 12),
        width=st.integers(13, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bands_match_whole_plane_oracle(
        self, radius, padding, bands, offset, short, width, seed
    ):
        # heights on every band case: the band height's multiples, those
        # multiples +- the radius (and +2d, which makes the valid map an exact
        # multiple), and a last band shorter than the window
        d = radius
        size = 2 * d + 1
        extra = {"exact": 0, "+d": d, "-d": -d, "+2d": 2 * d, "short": 1 + short % (size - 1)}
        height = max(size, bands * ZETA_BAND_ROWS + extra[offset])
        rng = np.random.default_rng(seed)
        x = rng.random((height, width))
        y = x + 0.1 * rng.standard_normal((height, width))
        w = gaussian_window(radius, 1.5)
        got = zeta_map(x, y, w, 4.5e-4, padding)
        want = zeta_whole_plane(x, y, w, 4.5e-4, padding)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert tensor_score(got) == tensor_score(want)
        # valid is the mirror map cropped by the radius, as a contiguous copy
        if padding == "valid":
            assert np.array_equal(got, zeta_map(x, y, w, 4.5e-4, "mirror")[d:-d, d:-d])
        assert got.flags.c_contiguous

    @staticmethod
    def _point_symmetric(rng, m, n):
        """A random plane equal to its point mirror bit for bit, but in columns
        0 and N/2, which differ across the mirror as a real plane's do."""
        r = rng.random((m, n))
        plane = r + r[np.ix_(-np.arange(m) % m, -np.arange(n) % n)]
        plane[:, 0] += 1e-3 * rng.random(m)
        plane[:, n // 2] += 1e-3 * rng.random(m)
        return plane

    @settings(deadline=None, max_examples=80)
    @given(
        radius=st.integers(1, 6),
        padding=st.sampled_from(PADDING_MODES),
        bands=st.integers(0, 3),
        offset=st.sampled_from(["exact", "+d", "-d", "+1", "short"]),
        short=st.integers(1, 12),
        width=st.integers(13, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mirrored_map_matches_whole_plane_oracle(
        self, radius, padding, bands, offset, short, width, seed
    ):
        # point-symmetric planes at the band height's multiples, those
        # multiples +- the radius, odd heights and widths (which are computed
        # whole), and narrow widths whose column strips meet
        d = radius
        size = 2 * d + 1
        extra = {"exact": 0, "+d": d, "-d": -d, "+1": 1, "short": 1 + short % (size - 1)}
        height = max(size, bands * ZETA_BAND_ROWS + extra[offset])
        width = max(size, width)
        rng = np.random.default_rng(seed)
        x = self._point_symmetric(rng, height, width)
        y = self._point_symmetric(rng, height, width)
        w = gaussian_window(radius, 1.5)
        with pytest.MonkeyPatch.context() as mp:
            covered = self._record_coverage(mp, x)
            got = zeta_map(x, y, w, 4.5e-4, padding)
        assert np.array_equal(got, zeta_whole_plane(x, y, w, 4.5e-4, padding))
        assert got.flags.c_contiguous
        if height % 2 or width % 2:
            assert covered.all()

    @settings(deadline=None, max_examples=60)
    @given(
        radius=st.integers(1, 6),
        padding=st.sampled_from(PADDING_MODES),
        bands=st.integers(0, 3),
        offset=st.sampled_from(["exact", "+d", "-d", "+1"]),
        width=st.integers(13, 48),
        kinds=st.lists(st.sampled_from(["symmetric", "perturbed"]), min_size=3, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_shared_reference_store_keeps_every_bit(
        self, radius, padding, bands, offset, width, kinds, seed
    ):
        # one reference against several distorted planes, mirrored ones and
        # ones computed whole, so the store is read by blocks of both kinds
        d = radius
        size = 2 * d + 1
        extra = {"exact": 0, "+d": d, "-d": -d, "+1": 1}
        height = max(size, bands * ZETA_BAND_ROWS + extra[offset])
        width = max(size, width)
        rng = np.random.default_rng(seed)
        x = self._point_symmetric(rng, height, width)
        w = gaussian_window(radius, 1.5)
        store = {}
        for kind in kinds:
            y = self._point_symmetric(rng, height, width)
            if kind == "perturbed":
                # column 1 mirrors to column N-1, so this bin breaks the symmetry
                y[rng.integers(height), 1] += 1.0
            want = zeta_map(x, y, w, 4.5e-4, padding)
            assert np.array_equal(zeta_map(x, y, w, 4.5e-4, padding, ref_store=store), want)
        # each entry holds a block's bins of mu_x and sigma_x, nothing more
        for (start, stop, first, end), moments in store.items():
            assert [m.shape for m in moments] == [(stop - start, end - first)] * 2

    def test_a_store_filled_and_read_on_two_threads_keeps_every_bit(self, rng):
        # the caller and the worker fill and read the store's blocks; a short
        # switch interval makes their blocks interleave
        w = gaussian_window(4, 1.5)
        x = self._point_symmetric(rng, 8 * ZETA_BAND_ROWS, 16)
        store = {}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                y = self._point_symmetric(rng, 8 * ZETA_BAND_ROWS, 16)
                want = zeta_map(x, y, w)
                assert np.array_equal(zeta_map(x, y, w, ref_store=store), want)
        finally:
            sys.setswitchinterval(old)

    @staticmethod
    def _record_coverage(monkeypatch, plane):
        """The bins of ``plane`` that the slabs given to ``_moments`` span."""
        covered = np.zeros(plane.shape, dtype=bool)
        real = tpsdvqa.metric._moments

        def recording(x, *args):
            row, col = divmod((x.ctypes.data - plane.ctypes.data) // x.itemsize, plane.shape[1])
            covered[row : row + x.shape[0], col : col + x.shape[1]] = True
            return real(x, *args)

        monkeypatch.setattr(tpsdvqa.metric, "_moments", recording)
        return covered

    @pytest.mark.parametrize("center_dc", [True, False])
    def test_only_point_symmetric_planes_are_mirrored(self, monkeypatch, rng, center_dc):
        frames = random_frames(rng, 768, 432, 4)
        noise = rng.integers(-8, 9, (4, 432, 768))
        noisy = [LumaFrame(np.clip(f.pixels + e, 0, 255)) for f, e in zip(frames, noise)]
        ref, dist = normalize_planes(
            tpsd_of_tensor(frames, center_dc), tpsd_of_tensor(noisy, center_dc)
        )
        w = gaussian_window(5, 1.5)
        want = zeta_whole_plane(ref, dist, w, 4.5e-4, "mirror")
        covered = self._record_coverage(monkeypatch, ref)
        assert np.array_equal(zeta_map(ref, dist, w), want)
        assert covered.mean() <= 0.6
        # one interior bin off the mirror, and the map is computed whole
        dist[100, 200] = -dist[100, 200]
        want = zeta_whole_plane(ref, dist, w, 4.5e-4, "mirror")
        covered[...] = False
        assert np.array_equal(zeta_map(ref, dist, w), want)
        assert covered.all()

    def test_an_asymmetric_window_is_computed_whole(self, monkeypatch, rng):
        x = self._point_symmetric(rng, 2 * ZETA_BAND_ROWS, 40)
        y = self._point_symmetric(rng, 2 * ZETA_BAND_ROWS, 40)
        w = np.array([0.1, 0.2, 0.4, 0.2, 0.1, 0.0, 0.0])
        want = zeta_whole_plane(x, y, w, 4.5e-4, "mirror")
        covered = self._record_coverage(monkeypatch, x)
        assert np.array_equal(zeta_map(x, y, w), want)
        assert covered.all()

    def test_no_two_threads_write_one_bin(self, rng):
        # on planes this narrow the column strips of the lower rows meet; a
        # bin written by both threads would be divided twice when their
        # blocks interleave, which a short switch interval makes likely
        w = gaussian_window(4, 1.5)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                x = self._point_symmetric(rng, 8 * ZETA_BAND_ROWS, 16)
                y = self._point_symmetric(rng, 8 * ZETA_BAND_ROWS, 16)
                want = zeta_whole_plane(x, y, w, 4.5e-4, "mirror")
                assert np.array_equal(zeta_map(x, y, w), want)
        finally:
            sys.setswitchinterval(old)

    def test_mirrored_memory_is_a_few_bands(self, rng):
        m, n = 720, 1280
        ref = self._point_symmetric(rng, m, n)
        dist = self._point_symmetric(rng, m, n)
        w = gaussian_window(5, 1.5)
        plane_bytes = m * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            zeta_map(ref, dist, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * plane_bytes

    def test_memory_is_a_few_bands_not_five_planes(self, rng):
        m, n = 720, 1280
        ref = rng.random((m, n))
        dist = ref + 0.01 * rng.random((m, n))
        w = gaussian_window(5, 1.5)
        plane_bytes = m * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            zeta_map(ref, dist, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * plane_bytes

    @staticmethod
    def _record_bands(monkeypatch, fail_on=()):
        """Record the thread of every band's moments; raise on the named sides."""
        caller = threading.get_ident()
        seen = []
        real = tpsdvqa.metric._moments

        def recording(*args, **kwargs):
            side = "caller" if threading.get_ident() == caller else "worker"
            seen.append(threading.get_ident())
            if side in fail_on:
                raise RuntimeError(f"band failed on the {side}")
            return real(*args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "_moments", recording)
        return caller, seen

    @pytest.mark.parametrize(
        "height", [ZETA_BAND_ROWS + 1, 2 * ZETA_BAND_ROWS, 5 * ZETA_BAND_ROWS - 3]
    )
    def test_bands_run_on_the_caller_and_one_worker(self, monkeypatch, rng, height):
        caller, seen = self._record_bands(monkeypatch)
        x = rng.random((height, 20))
        before = threading.active_count()
        zeta_map(x, x + 0.1 * rng.random(x.shape), gaussian_window(2, 1.0))
        assert threading.active_count() == before
        assert len(seen) == -(-height // ZETA_BAND_ROWS)
        assert len(set(seen)) == 2
        assert caller in seen

    def test_one_band_starts_no_thread(self, monkeypatch, rng):
        caller, seen = self._record_bands(monkeypatch)
        x = rng.random((ZETA_BAND_ROWS, 20))
        before = threading.active_count()
        zeta_map(x, x.copy(), gaussian_window(2, 1.0))
        assert threading.active_count() == before
        assert seen == [caller]

    def test_one_mirrored_band_starts_no_thread(self, monkeypatch, rng):
        caller, seen = self._record_bands(monkeypatch)
        x = self._point_symmetric(rng, ZETA_BAND_ROWS, 20)
        before = threading.active_count()
        covered = self._record_coverage(monkeypatch, x)
        zeta_map(x, self._point_symmetric(rng, ZETA_BAND_ROWS, 20), gaussian_window(2, 1.0))
        assert threading.active_count() == before
        assert not covered.all()
        assert set(seen) == {caller}

    @pytest.mark.parametrize(
        "fail_on, raised",
        [(("worker",), "worker"), (("caller",), "caller"), (("caller", "worker"), "caller")],
    )
    def test_a_failing_band_leaves_no_thread(self, monkeypatch, rng, fail_on, raised):
        self._record_bands(monkeypatch, fail_on)
        x = rng.random((3 * ZETA_BAND_ROWS, 20))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^band failed on the {raised}$"):
            zeta_map(x, x.copy(), gaussian_window(2, 1.0))
        assert threading.active_count() == before

    def test_peak_memory_does_not_depend_on_thread_timing(self, rng):
        # each thread's slab workspace exists before the worker starts, so the
        # traced peak is the same however the two threads' bands interleave
        x = rng.random((ZETA_BAND_ROWS + 32, 160))
        y = x + 0.1 * rng.random(x.shape)
        w = gaussian_window(5, 1.5)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(20):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                zeta_map(x, y, w)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 1.01 * min(peaks), peaks

    def test_rejects_an_unknown_padding(self):
        plane = np.ones((16, 16))
        with pytest.raises(ValueError, match="padding must be one of"):
            zeta_map(plane, plane, gaussian_window(2, 1.0), padding="wrap")


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_video_score_rejects_a_non_finite_mean(self, value):
        with pytest.raises(ValueError, match="mean tensor score is not finite"):
            video_score([0.5, value])

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
        assert calls == {"kernel": 0, "transform": 0}

    def test_distorted_plane_runs_on_a_worker_thread(self, monkeypatch):
        threads = []
        real = tpsdvqa.metric.tpsd_of_tensor

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "tpsd_of_tensor", recording)
        frames = make_moving_texture(32, 32, 8, seed=3)
        dist = apply_distortion(frames, DistortionSpec("gaussian-noise", 20.0, seed=4))
        assess(frames, dist, MetricConfig(tensor_len=4))
        assert len(threads) == 4
        assert threads.count(threading.get_ident()) == 2

    def test_no_thread_outlives_assess(self):
        cfg = MetricConfig(tensor_len=4)
        frames = make_moving_texture(32, 32, 8, seed=3)
        # the distorted side fails on the third frame, the reference on the second
        bad_dist = list(frames)
        bad_dist[2] = LumaFrame(np.zeros((32, 16)))
        bad_ref = list(frames)
        bad_ref[1] = LumaFrame(np.zeros((16, 32)))
        before = threading.active_count()
        assess(frames, frames, cfg)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match=r"^tensor frames disagree on shape: \(32, 16\)"):
            assess(frames, bad_dist, cfg)
        assert threading.active_count() == before
        # with both sides bad, the reference's error is the one raised
        with pytest.raises(ValueError, match=r"^tensor frames disagree on shape: \(16, 32\)"):
            assess(bad_ref, bad_dist, cfg)
        assert threading.active_count() == before

    def test_a_failing_tensor_ends_the_walk(self, monkeypatch):
        # the distorted tensor 0 of 3 fails, so no later tensor is transformed
        calls = []
        real = tpsdvqa.metric.tpsd_of_tensor

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "tpsd_of_tensor", counting)
        frames = make_moving_texture(32, 32, 12, seed=3)
        bad_dist = list(frames)
        bad_dist[2] = LumaFrame(np.zeros((32, 16)))
        with pytest.raises(ValueError, match=r"^tensor frames disagree on shape"):
            assess(frames, bad_dist, MetricConfig(tensor_len=4))
        assert len(calls) == 2

    def test_two_planes_are_held_when_zeta_starts(self, monkeypatch):
        # the raw planes are freed once normalized, so zeta_map starts with
        # the two normalized planes of its tensor and no third
        width, height = 256, 192
        frames = make_moving_texture(width, height, 8, seed=3)
        dist = apply_distortion(frames, DistortionSpec("gaussian-noise", 20.0, seed=4))
        in_use = []
        real = tpsdvqa.metric.zeta_map

        def measuring(*args, **kwargs):
            in_use.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "zeta_map", measuring)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assess(frames, dist, MetricConfig(tensor_len=4))
        finally:
            tracemalloc.stop()
        assert len(in_use) == 2
        plane = width * height * 8
        assert max(in_use) - base < 2.5 * plane, [(m - base) / plane for m in in_use]

    def test_a_group_holds_two_planes_when_its_first_zeta_starts(self, monkeypatch):
        # the reference plane is normalized once per tensor and its raw plane
        # freed at once, so the first entry's zeta_map starts with the two
        # normalized planes however many entries share the reference
        width, height = 256, 192
        frames = make_moving_texture(width, height, 8, seed=3)
        dists = [
            apply_distortion(frames, DistortionSpec("gaussian-noise", level, seed=4))
            for level in (4.0, 12.0, 36.0)
        ]
        in_use = []
        real = tpsdvqa.metric.zeta_map

        def measuring(*args, **kwargs):
            in_use.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "zeta_map", measuring)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scored = tpsdvqa.metric._score_tensors(frames, dists, MetricConfig(tensor_len=4))
        finally:
            tracemalloc.stop()
        assert [exc for _, exc in scored] == [None] * 3
        assert len(in_use) == 2 * 3
        plane = width * height * 8
        assert in_use[0] - base < 2.5 * plane, (in_use[0] - base) / plane

    @pytest.mark.parametrize("mode", ["ref-max", "log10", "none"])
    def test_group_maps_equal_normalize_planes_then_zeta_map(self, mode):
        frames = make_moving_texture(48, 40, 8, seed=3)
        dists = [
            apply_distortion(frames, DistortionSpec("gaussian-noise", level, seed=4))
            for level in (4.0, 12.0, 36.0)
        ]
        cfg = MetricConfig(tensor_len=4, window_radius=3, plane_normalization=mode)
        seen = []
        scored = tpsdvqa.metric._score_tensors(
            frames, dists, cfg, zeta_callback=lambda i, z: seen.append((i, z))
        )
        assert [exc for _, exc in scored] == [None] * 3
        window = gaussian_window(cfg.window_radius, cfg.window_sigma)
        expected = []
        for index, lo in enumerate((0, 4)):
            plane_r = tpsd_of_tensor(frames[lo : lo + 4], cfg.center_dc)
            for dist in dists:
                plane_d = tpsd_of_tensor(dist[lo : lo + 4], cfg.center_dc)
                planes = normalize_planes(plane_r, plane_d, mode)
                expected.append((index, zeta_map(*planes, window, cfg.stability_c, cfg.padding)))
        assert [i for i, _ in seen] == [i for i, _ in expected]
        for (_, got), (_, want) in zip(seen, expected):
            assert got.tobytes() == want.tobytes()

    def test_reference_side_is_smoothed_once_per_block(self, monkeypatch):
        # a group of 3 entries smooths the reference's mu_x and E[x^2] once
        # per zeta block and each entry's 3 other passes; one entry alone
        # makes all 5 passes per block
        calls = []  # appended from both threads, as list.append is atomic

        def counted(name):
            real = getattr(tpsdvqa.metric, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return counting

        for name in ("_smooth", "_moments"):
            monkeypatch.setattr(tpsdvqa.metric, name, counted(name))
        frames = make_moving_texture(48, 3 * ZETA_BAND_ROWS, 4, seed=3)
        dists = [
            apply_distortion(frames, DistortionSpec("gaussian-noise", level, seed=4))
            for level in (4.0, 12.0, 36.0)
        ]
        cfg = MetricConfig(tensor_len=4)
        assess(frames, dists[0], cfg)
        assert calls.count("_moments") > 1
        assert calls.count("_smooth") == 5 * calls.count("_moments")
        calls.clear()
        scored = tpsdvqa.metric._score_tensors(frames, dists, cfg)
        assert [exc for _, exc in scored] == [None] * 3
        blocks = calls.count("_moments") // 3
        assert calls.count("_smooth") == 2 * blocks + 3 * 3 * blocks

    def test_reports_of_one_walk_share_its_stage_timings(self):
        # the walk's stage clock adds up transform, correlate and pool, in
        # that order, into one dict that every report of the walk holds
        frames = make_moving_texture(32, 32, 8, seed=3)
        dists = [
            apply_distortion(frames, DistortionSpec("gaussian-noise", level, seed=4))
            for level in (4.0, 12.0, 36.0)
        ]
        scored = tpsdvqa.metric._score_tensors(frames, dists, MetricConfig(tensor_len=4))
        reports = [report for report, _ in scored]
        assert [exc for _, exc in scored] == [None] * 3
        timings = reports[0].timings
        assert list(timings) == ["transform", "correlate", "pool"]
        assert all(np.isfinite(v) and v >= 0.0 for v in timings.values())
        assert all(report.timings is timings for report in reports)
        single = assess(frames, dists[0], MetricConfig(tensor_len=4)).timings
        assert list(single) == ["transform", "correlate", "pool"]
        assert all(np.isfinite(v) and v >= 0.0 for v in single.values())

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
    order, and a periodogram ignores a circular shift of its frame. The walk
    pairs tensors by position and sees only the frames its tensors take.
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

    @pytest.mark.parametrize("seed", range(5))
    def test_one_frame_offset_costs_more_than_visible_noise(self, seed):
        # tensors pair by position, so a lag that changes no frame is scored
        # as a distortion, and a worse one than noise of sigma 4
        clip = make_moving_texture(128, 128, 31, seed=seed)
        cfg = MetricConfig(tensor_len=30)
        lagged = 1.0 - assess(clip[:30], clip[1:31], cfg).video_score
        noisy = apply_distortion(clip[:30], DistortionSpec("gaussian-noise", 4.0, seed=500 + seed))
        noise = 1.0 - assess(clip[:30], noisy, cfg).video_score
        assert lagged > 10.0 * noise > 0.0, (lagged, noise)

    def test_the_dropped_trailing_frame_is_unseen(self):
        # 9 frames at tensor_len 4 make two tensors and drop frame 8, so
        # changing only that frame leaves the score at exactly 1.0, while
        # PSNR covers all 9 frames
        clip = make_moving_texture(64, 48, 9, seed=1)
        dist = list(clip)
        dist[8] = LumaFrame(np.zeros_like(clip[8].pixels))
        report = assess(clip, dist, MetricConfig(tensor_len=4))
        assert report.tensor_depths == (4, 4)
        assert report.video_score == 1.0
        assert np.isfinite(psnr(clip, dist))


class TestRefMaxFloor:
    """A visible blur whose ``ref-max`` deficit falls below float resolution."""

    @pytest.fixture(scope="class")
    def pair(self):
        ref = make_moving_texture(768, 432, 12, seed=0)
        return ref, apply_distortion(ref, DistortionSpec("gaussian-blur", 0.75, seed=0))

    def _score(self, pair, mode):
        return assess(*pair, MetricConfig(tensor_len=12, plane_normalization=mode)).video_score

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: 1 - mean(zeta) loses a deficit below 1.1e-16, so this reads 1.0",
    )
    def test_ref_max_scores_the_blur_below_one(self, pair):
        assert self._score(pair, "ref-max") < 1.0

    @pytest.mark.parametrize("mode", ["log10", "none"])
    def test_other_normalizations_score_the_blur_below_one(self, pair, mode):
        assert self._score(pair, mode) < 1.0


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
            {"tensor_len": 2.5},
            {"tensor_len": 4.0},
            {"window_radius": 2.5},
            {"window_radius": 5.0},
            {"center_dc": "false"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MetricConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = MetricConfig(tensor_len=np.int64(4), window_radius=np.int32(2))
        assert cfg.tensor_len == 4
        assert len(gaussian_window(cfg.window_radius, cfg.window_sigma)) == 5


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: normalize_planes(np.ones((4, 4)), np.ones((4, 4)), "bogus"),
            "unknown normalization 'bogus'",
        ),
        (
            lambda: zeta_map(np.ones((16, 16, 1)), np.ones((16, 16, 1)), gaussian_window(2, 1.0)),
            "plane must be 2D, got 3D",
        ),
        (lambda: MetricConfig(tensor_len=2.5), "tensor_len must be an integer, got 2.5"),
        (lambda: gaussian_window(2.5, 1.0), "window radius must be an integer, got 2.5"),
        (lambda: MetricConfig(center_dc="false"), "center_dc must be a bool, got 'false'"),
    ],
    ids=[
        "normalize-mode", "zeta-3d", "config-float-tensor-len", "window-float-radius",
        "config-string-center-dc",
    ],
)
def test_input_check_message(call, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == message
