import io
import tracemalloc

import numpy as np
import pytest

from oracles import dft2_direct, dft3_direct
from tpsdvqa.spectral import (
    dft3,
    psd3,
    read_grid,
    tpsd,
    tpsd_of_tensor,
    write_grid,
)
from tpsdvqa.video_io import LumaFrame, LumaTensor


def rel_err(actual, expected):
    """Max deviation relative to the largest expected magnitude."""
    scale = np.max(np.abs(expected))
    if scale == 0:
        return np.max(np.abs(actual))
    return np.max(np.abs(actual - expected)) / scale


class TestDft3:
    def test_constant_tensor(self):
        c = 13.0
        x = np.full((4, 6, 2), c)
        spec = dft3(x).values
        assert spec[0, 0, 0] == pytest.approx(c * 4 * 6 * 2, rel=1e-12)
        rest = spec.copy()
        rest[0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-9 * c * 4 * 6 * 2

    def test_impulse_tensor(self):
        x = np.zeros((4, 4, 2))
        x[0, 0, 0] = 1.0
        assert np.allclose(dft3(x).values, 1.0, atol=1e-12)

    def test_matches_direct_oracle_4x4x2(self, rng):
        x = rng.random((4, 4, 2)) * 255
        assert rel_err(dft3(x).values, dft3_direct(x)) < 1e-9

    @pytest.mark.parametrize("shape", [(5, 7, 3), (8, 8, 4)])
    def test_matches_direct_oracle_other_sizes(self, rng, shape):
        x = rng.random(shape) * 255
        assert rel_err(dft3(x).values, dft3_direct(x)) < 1e-9

    def test_conjugate_symmetry(self, rng):
        x = rng.random((5, 7, 3)) * 100
        spec = dft3(x).values
        m, n, o = spec.shape
        mirrored = spec[
            np.ix_((m - np.arange(m)) % m, (n - np.arange(n)) % n, (o - np.arange(o)) % o)
        ]
        assert rel_err(np.conj(mirrored), spec) < 1e-9

    def test_accepts_luma_tensor(self, rng):
        pixels = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        tensor = LumaTensor(
            frames=(LumaFrame(pixels), LumaFrame(pixels.T.copy())), index=0
        )
        spec = dft3(tensor)
        assert spec.values.shape == (4, 4, 2)

    def test_rejects_depth_one(self):
        with pytest.raises(ValueError):
            dft3(np.zeros((4, 4, 1)))


class TestPsd3:
    def test_constant_tensor_single_bin(self):
        c, shape = 3.0, (4, 6, 2)
        p = psd3(dft3(np.full(shape, c))).values
        mno = np.prod(shape)
        assert p[0, 0, 0] == pytest.approx(c * c * mno, rel=1e-12)
        rest = p.copy()
        rest[0, 0, 0] = 0
        assert np.max(rest) < 1e-15 * c * c * mno

    def test_impulse_flat_psd(self):
        x = np.zeros((4, 4, 2))
        x[0, 0, 0] = 1.0
        assert np.allclose(psd3(dft3(x)).values, 1.0 / 32, rtol=1e-12)

    def test_non_negative(self, rng):
        p = psd3(dft3(rng.random((5, 4, 3)) * 255)).values
        assert np.all(p >= 0)

    def test_parseval(self, rng):
        x = rng.random((4, 4, 2)) * 255
        spec = dft3(x)
        p = psd3(spec)
        mno = x.size
        total_psd = p.values.sum()
        assert total_psd * mno == pytest.approx(np.sum(np.abs(spec.values) ** 2), rel=1e-12)
        assert total_psd == pytest.approx(np.sum(x * x), rel=1e-12)


class TestTpsd:
    def test_constant_tensor_dc_position(self):
        c, shape = 2.0, (6, 8, 3)
        p = psd3(dft3(np.full(shape, c)))
        corner = tpsd(p, center_dc=False)
        assert not corner.dc_centered
        assert corner.values[0, 0] == pytest.approx(c * c * np.prod(shape), rel=1e-12)
        centered = tpsd(p, center_dc=True)
        assert centered.dc_centered
        assert centered.values[3, 4] == pytest.approx(c * c * np.prod(shape), rel=1e-12)

    def test_aggregation_conserves_power(self, rng):
        p = psd3(dft3(rng.random((5, 7, 3)) * 255))
        plane = tpsd(p, center_dc=False)
        assert plane.values.sum() == pytest.approx(p.values.sum(), rel=1e-9)
        assert np.all(plane.values >= 0)

    def test_static_tensor_reduces_to_2d_psd(self, rng):
        # O identical frames: all energy sits in temporal bin 0, and the
        # plane equals O times the single frame's 2D periodogram
        frame = rng.random((6, 4)) * 255
        o = 5
        x = np.stack([frame] * o, axis=-1)
        p = psd3(dft3(x))
        assert np.max(p.values[:, :, 1:]) < 1e-12 * np.max(p.values)
        plane = tpsd(p, center_dc=False).values
        frame_psd = np.abs(dft2_direct(frame)) ** 2 / frame.size
        assert rel_err(plane, o * frame_psd) < 1e-9

    def test_point_symmetry_before_centering(self, rng):
        x = rng.random((6, 9, 4)) * 255
        plane = tpsd(psd3(dft3(x)), center_dc=False).values
        m, n = plane.shape
        mirrored = plane[np.ix_((m - np.arange(m)) % m, (n - np.arange(n)) % n)]
        assert rel_err(mirrored, plane) < 1e-9

    def test_scale_quadratic(self, rng):
        x = rng.random((4, 6, 3)) * 100
        s = 3.0
        p1 = psd3(dft3(x)).values
        p2 = psd3(dft3(s * x)).values
        assert rel_err(p2, s * s * p1) < 1e-12
        t1 = tpsd(psd3(dft3(x)), center_dc=False).values
        t2 = tpsd(psd3(dft3(s * x)), center_dc=False).values
        assert rel_err(t2, s * s * t1) < 1e-12

    @pytest.mark.parametrize(
        "shape", [(5, 7, 3), (8, 8, 4), (6, 10, 5), (7, 4, 2), (6, 9, 2)]
    )
    @pytest.mark.parametrize("center", [False, True])
    def test_fast_path_matches_three_step_route(self, rng, shape, center):
        x = rng.random(shape) * 255
        # the same samples as uint8 frames take the LumaTensor branch
        frames = tuple(LumaFrame(x[:, :, t].astype(np.uint8)) for t in range(shape[2]))
        for tensor in (x, LumaTensor(frames=frames, index=0)):
            slow = tpsd(psd3(dft3(tensor)), center_dc=center)
            fast = tpsd_of_tensor(tensor, center_dc=center)
            assert fast.dc_centered == slow.dc_centered
            assert rel_err(fast.values, slow.values) < 1e-12

    def test_plane_memory_is_per_frame(self, rng):
        # the plane is accumulated frame by frame: its transient memory is a
        # few planes, not the float64 tensor and its 3D spectrum
        m = n = 256
        frames = tuple(
            LumaFrame(rng.integers(0, 256, size=(m, n), dtype=np.uint8)) for _ in range(30)
        )
        tensor = LumaTensor(frames=frames, index=0)
        plane_bytes = m * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tpsd_of_tensor(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 8 * plane_bytes

    def test_circular_shift_invariance(self, rng):
        # aggregating over temporal frequency discards per-frame circular
        # shifts: a rolling pattern and the static pattern share one plane
        frame = rng.random((8, 8)) * 255
        static = np.stack([frame] * 6, axis=-1)
        rolling = np.stack([np.roll(frame, (2 * t, t), axis=(0, 1)) for t in range(6)], axis=-1)
        a = tpsd_of_tensor(static, center_dc=False).values
        b = tpsd_of_tensor(rolling, center_dc=False).values
        assert rel_err(b, a) < 1e-9


class TestGridFormat:
    def test_round_trip_exact(self, rng):
        values = rng.random((5, 7)) * 1e9
        buf = io.StringIO()
        write_grid(values, buf)
        buf.seek(0)
        back = read_grid(buf)
        assert back.shape == (5, 7)
        assert np.array_equal(back, values)

    def test_file_round_trip(self, rng, tmp_path):
        values = rng.random((3, 4))
        path = tmp_path / "plane.grid"
        write_grid(values, path)
        assert np.array_equal(read_grid(path), values)
        header = path.read_text().splitlines()[0]
        assert header == "3 4"

    def test_header_mismatch_rejected(self):
        assert read_grid(io.StringIO("1 2\n0 1\n")).shape == (1, 2)
        with pytest.raises(ValueError):
            read_grid(io.StringIO("2 2\n0 1\n"))
