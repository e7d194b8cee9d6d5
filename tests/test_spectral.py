import tracemalloc

import numpy as np
import pytest

from oracles import dft2_direct, dft3_direct, frames_of, tpsd_direct, tpsd_rfft2
import tpsdvqa.spectral
from tpsdvqa.spectral import _PowerSum, read_grid, tpsd_of_tensor, write_grid
from tpsdvqa.video_io import LumaFrame


def rel_err(actual, expected):
    """Max deviation relative to the largest expected magnitude."""
    scale = np.max(np.abs(expected))
    if scale == 0:
        return np.max(np.abs(actual))
    return np.max(np.abs(actual - expected)) / scale


class TestDft3:
    """The plane against the direct-sum 3D DFT route of ``tpsd_direct``."""

    def test_matches_direct_oracle_4x4x2(self, rng):
        x = rng.random((4, 4, 2)) * 255
        plane = tpsd_of_tensor(frames_of(x), center_dc=False)
        assert rel_err(plane, tpsd_direct(x, center_dc=False)) < 1e-12

    @pytest.mark.parametrize("shape", [(5, 7, 3), (8, 8, 4)])
    def test_matches_direct_oracle_other_sizes(self, rng, shape):
        x = rng.random(shape) * 255
        plane = tpsd_of_tensor(frames_of(x), center_dc=False)
        assert rel_err(plane, tpsd_direct(x, center_dc=False)) < 1e-12

    def test_accepts_luma_tensor(self, rng):
        pixels = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        tensor = (LumaFrame(pixels), LumaFrame(pixels.T.copy()))
        plane = tpsd_of_tensor(tensor, center_dc=False)
        assert plane.shape == (4, 4)
        samples = np.stack([pixels, pixels.T], axis=-1).astype(np.float64)
        assert rel_err(plane, tpsd_direct(samples, center_dc=False)) < 1e-12

    def test_rejects_a_single_frame(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            tpsd_of_tensor([LumaFrame(np.zeros((2, 2)))])
        with pytest.raises(ValueError, match="at least 2 frames"):
            tpsd_of_tensor(frames_of(np.zeros((4, 4, 1))))

    def test_rejects_mixed_frame_shapes(self):
        with pytest.raises(ValueError, match="disagree on shape"):
            tpsd_of_tensor([LumaFrame(np.zeros((2, 2))), LumaFrame(np.zeros((2, 4)))])


class TestPsd3:
    """The plane as the 3D periodogram |X|^2 / (M*N*O) summed over time."""

    def test_non_negative(self, rng):
        plane = tpsd_of_tensor(frames_of(rng.random((5, 4, 3)) * 255), center_dc=False)
        assert np.all(plane >= 0)

    def test_parseval(self, rng):
        x = rng.random((4, 4, 2)) * 255
        total = tpsd_of_tensor(frames_of(x), center_dc=False).sum()
        spec_energy = np.sum(np.abs(dft3_direct(x)) ** 2)
        assert total * x.size == pytest.approx(spec_energy, rel=1e-12)
        assert total == pytest.approx(np.sum(x * x), rel=1e-12)


class TestTpsd:
    def test_constant_tensor_dc_position(self):
        c, shape = 2.0, (6, 8, 3)
        x = np.full(shape, c)
        corner = tpsd_of_tensor(frames_of(x), center_dc=False)
        assert corner[0, 0] == pytest.approx(c * c * np.prod(shape), rel=1e-12)
        centered = tpsd_of_tensor(frames_of(x), center_dc=True)
        assert centered[3, 4] == pytest.approx(c * c * np.prod(shape), rel=1e-12)

    def test_aggregation_conserves_power(self, rng):
        x = rng.random((5, 7, 3)) * 255
        plane = tpsd_of_tensor(frames_of(x), center_dc=True)
        assert plane.sum() == pytest.approx(np.sum(x * x), rel=1e-9)
        assert np.all(plane >= 0)

    def test_static_tensor_reduces_to_2d_psd(self, rng):
        # O identical frames: all energy sits in temporal bin 0, and the
        # plane equals O times the single frame's 2D periodogram
        frame = rng.random((6, 4)) * 255
        o = 5
        x = np.stack([frame] * o, axis=-1)
        plane = tpsd_of_tensor(frames_of(x), center_dc=False)
        frame_psd = np.abs(dft2_direct(frame)) ** 2 / frame.size
        assert rel_err(plane, o * frame_psd) < 1e-9

    def test_point_symmetry_before_centering(self, rng):
        x = rng.random((6, 9, 4)) * 255
        plane = tpsd_of_tensor(frames_of(x), center_dc=False)
        m, n = plane.shape
        mirrored = plane[np.ix_((m - np.arange(m)) % m, (n - np.arange(n)) % n)]
        assert rel_err(mirrored, plane) < 1e-9

    @pytest.mark.parametrize("shape", [(6, 8, 3), (7, 8, 3), (6, 9, 3), (7, 9, 2)])
    def test_centering_is_exactly_fftshift(self, rng, shape):
        frames = frames_of(rng.random(shape) * 255)
        centered = tpsd_of_tensor(frames, center_dc=True)
        shifted = np.fft.fftshift(tpsd_of_tensor(frames, center_dc=False))
        assert np.array_equal(centered.view(np.int64), shifted.view(np.int64))

    @pytest.mark.parametrize("shape", [(6, 8, 3), (7, 8, 3), (6, 9, 3), (7, 9, 2), (1, 4, 2)])
    def test_point_mirror_is_exact_but_in_columns_0_and_n_half(self, rng, shape):
        # the columns the real-input transform computes on both sides of the
        # mirror: 0, and N/2 when N is even
        plane = tpsd_of_tensor(frames_of(rng.random(shape) * 255), center_dc=False)
        m, n = plane.shape
        mirrored = plane[np.ix_((m - np.arange(m)) % m, (n - np.arange(n)) % n)]
        other = [k for k in range(n) if k not in (0, n / 2)]
        assert np.array_equal(mirrored[:, other], plane[:, other])

    def test_scale_quadratic(self, rng):
        x = rng.random((4, 6, 3)) * 100
        s = 3.0
        t1 = tpsd_of_tensor(frames_of(x), center_dc=False)
        t2 = tpsd_of_tensor(frames_of(s * x), center_dc=False)
        assert rel_err(t2, s * s * t1) < 1e-12

    @pytest.mark.parametrize(
        "shape", [(5, 7, 3), (8, 8, 4), (6, 10, 5), (7, 4, 2), (6, 9, 2)]
    )
    @pytest.mark.parametrize("center", [False, True])
    def test_fast_path_matches_three_step_route(self, rng, shape, center):
        x = rng.random(shape) * 255
        # the same samples as uint8 frames, as a decoded clip holds them
        frames = tuple(LumaFrame(x[:, :, t].astype(np.uint8)) for t in range(shape[2]))
        luma_samples = x.astype(np.uint8).astype(np.float64)
        for tensor, samples in ((frames_of(x), x), (frames, luma_samples)):
            slow = tpsd_direct(samples, center_dc=center)
            fast = tpsd_of_tensor(tensor, center_dc=center)
            assert rel_err(fast, slow) < 1e-12

    def test_plane_memory_is_per_frame(self, rng):
        # the plane is accumulated frame by frame: its transient memory is a
        # few planes, not the float64 tensor and its 3D spectrum
        m = n = 256
        tensor = tuple(
            LumaFrame(rng.integers(0, 256, size=(m, n), dtype=np.uint8)) for _ in range(30)
        )
        plane_bytes = m * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tpsd_of_tensor(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * plane_bytes

    def test_plane_memory_at_720p_is_two_planes(self, rng):
        # one spectrum buffer of M*(N+2) floats that the plane is built in,
        # the half-plane sum and a row block, but no frame-sized copy
        m, n = 720, 1280
        tensor = tuple(
            LumaFrame(rng.integers(0, 256, size=(m, n), dtype=np.uint8)) for _ in range(2)
        )
        plane_bytes = m * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tpsd_of_tensor(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2 * plane_bytes

    def test_circular_shift_invariance(self, rng):
        # aggregating over temporal frequency discards per-frame circular
        # shifts: a rolling pattern and the static pattern share one plane
        frame = rng.random((8, 8)) * 255
        static = np.stack([frame] * 6, axis=-1)
        rolling = np.stack([np.roll(frame, (2 * t, t), axis=(0, 1)) for t in range(6)], axis=-1)
        a = tpsd_of_tensor(frames_of(static), center_dc=False)
        b = tpsd_of_tensor(frames_of(rolling), center_dc=False)
        assert rel_err(b, a) < 1e-9


class TestPowerSum:
    """The private frame accumulator that ``tpsd_of_tensor`` loops over."""

    @staticmethod
    def _frames(rng, shape):
        m, n, o = shape
        return [rng.integers(0, 256, size=(m, n), dtype=np.uint8) for _ in range(o)]

    @pytest.mark.parametrize("shape", [(6, 8, 3), (7, 9, 4), (6, 9, 2), (7, 8, 5)])
    @pytest.mark.parametrize("center", [False, True])
    def test_fold_then_close_is_the_tensor_plane(self, rng, shape, center):
        frames = self._frames(rng, shape)
        acc = _PowerSum(center)
        for pixels in frames:
            acc.fold(pixels)
        plane = tpsd_of_tensor([LumaFrame(p) for p in frames], center_dc=center)
        assert acc.close().tobytes() == plane.tobytes()

    @pytest.mark.parametrize("center", [False, True])
    def test_interleaved_accumulators_keep_their_own_clip(self, rng, center):
        # the caller owns the loop: one frame of each clip in turn
        clips = [self._frames(rng, (10, 12, 4)), self._frames(rng, (10, 12, 4))]
        accs = [_PowerSum(center), _PowerSum(center)]
        for frames in zip(*clips):
            for acc, pixels in zip(accs, frames):
                acc.fold(pixels)
        for acc, frames in zip(accs, clips):
            plane = tpsd_of_tensor([LumaFrame(p) for p in frames], center_dc=center)
            assert acc.close().tobytes() == plane.tobytes()

    def test_fold_rejects_another_shape(self):
        acc = _PowerSum()
        acc.fold(np.zeros((4, 6)))
        with pytest.raises(ValueError) as exc_info:
            acc.fold(np.zeros((6, 4)))
        assert str(exc_info.value) == "tensor frames disagree on shape: (6, 4) vs (4, 6)"


class TestSpectrumBuffer:
    """The fold's row blocks and reused spectrum buffer, against whole-frame ``rfft2``."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 64, 3), (97, 131, 2), (720, 1280, 2)],
        ids=["one-block", "rows-not-a-multiple-of-the-block", "720p"],
    )
    @pytest.mark.parametrize("center", [False, True])
    def test_matches_whole_frame_rfft2_byte_for_byte(self, rng, shape, center):
        x = rng.random(shape) * 255
        plane = tpsd_of_tensor(frames_of(x), center)
        assert plane.tobytes() == tpsd_rfft2(x, center).tobytes()

    def test_float32_frames_transform_in_float64(self, rng):
        x = (rng.random((97, 131, 3)) * 255).astype(np.float32)
        plane = tpsd_of_tensor(frames_of(x))
        assert plane.tobytes() == tpsd_of_tensor(frames_of(x.astype(np.float64))).tobytes()

    @pytest.mark.parametrize("center", [False, True])
    def test_plane_does_not_rely_on_overwrite_x(self, rng, monkeypatch, center):
        x = rng.random((48, 64, 3)) * 255
        expected = tpsd_of_tensor(frames_of(x), center)
        real_fft, asked = tpsdvqa.spectral._fft.fft, []

        def copying(a, *args, overwrite_x=False, **kwargs):
            # scipy may ignore overwrite_x: a new array, the input left as it was
            asked.append(overwrite_x)
            return real_fft(a, *args, **kwargs)

        monkeypatch.setattr(tpsdvqa.spectral._fft, "fft", copying)
        assert tpsd_of_tensor(frames_of(x), center).tobytes() == expected.tobytes()
        assert asked == [True] * 3


class TestGridFormat:
    def test_round_trip_exact(self, rng, tmp_path):
        values = rng.random((5, 7)) * 1e9
        path = tmp_path / "plane.grid"
        write_grid(values, path)
        back = read_grid(path)
        assert back.shape == (5, 7)
        assert np.array_equal(back, values)

    def test_file_round_trip(self, rng, tmp_path):
        values = rng.random((3, 4))
        path = tmp_path / "plane.grid"
        write_grid(values, path)
        assert np.array_equal(read_grid(path), values)
        header = path.read_text().splitlines()[0]
        assert header == "3 4"

    @pytest.mark.parametrize(
        "values, expected",
        [
            (
                np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e10, 0.1]]),
                "1 7\nnan inf -inf -0 4.9406564584124654e-324 10000000000 0.10000000000000001\n",
            ),
            (np.array([[1, -2, 0], [30, 400, -5000]]), "2 3\n1 -2 0\n30 400 -5000\n"),
        ],
        ids=["float-specials", "int"],
    )
    def test_golden_bytes(self, tmp_path, values, expected):
        path = tmp_path / "plane.grid"
        write_grid(values, path)
        assert path.read_bytes() == expected.encode("ascii")

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "plane.grid"
        path.write_text("1 2\n0 1\n")
        assert read_grid(path).shape == (1, 2)
        path.write_text("2 2\n0 1\n")
        with pytest.raises(ValueError):
            read_grid(path)


def _grid_file(directory, text):
    path = directory / "plane.grid"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: write_grid(np.zeros(3), d / "plane.grid"), "grid dump needs a 2D array, got 1D"),
        (lambda d: read_grid(_grid_file(d, "3\n")), "grid header must be '<rows> <cols>'"),
    ],
    ids=["write-1d", "read-one-field-header"],
)
def test_input_check_message(tmp_path, call, message):
    with pytest.raises(ValueError) as exc_info:
        call(tmp_path)
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == message
