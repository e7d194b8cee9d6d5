import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_frames
from tpsdvqa.errors import EmptySelection, OddDimensions, TruncatedStream
from tpsdvqa.video_io import (
    FileFrames,
    LumaFrame,
    group_tensors,
    read_yuv420_file,
    write_yuv420,
)


def write_bytes(tmp_path, raw: bytes):
    path = tmp_path / "clip.yuv"
    path.write_bytes(raw)
    return path


class TestDescriptor:
    @pytest.mark.parametrize("w,h", [(3, 4), (4, 3), (5, 5)])
    def test_rejects_odd_dimensions(self, w, h):
        with pytest.raises(OddDimensions):
            FileFrames("clip.yuv", w, h, range(1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="dimensions must be positive, got 0x2"):
            FileFrames("clip.yuv", 0, 2, range(1))
        with pytest.raises(ValueError):
            FileFrames("clip.yuv", 2, -2, range(1))

    def test_from_byte_length(self, tmp_path):
        frames = read_yuv420_file(write_bytes(tmp_path, bytes(48)), 4, 4)
        assert len(frames) == 2

    def test_from_byte_length_rejects_remainder(self, tmp_path):
        with pytest.raises(TruncatedStream, match="47 bytes is not a multiple of the 24-byte"):
            read_yuv420_file(write_bytes(tmp_path, bytes(47)), 4, 4)


class TestReadYuv:
    def test_constant_fill_fixture(self, tmp_path):
        # 4x4, 2 frames, 48 bytes: frame 0 luma all 7, frame 1 luma 100..115
        frame0 = bytes([7] * 16) + bytes([1] * 8)
        frame1 = bytes(range(100, 116)) + bytes([200] * 8)
        frames = list(read_yuv420_file(write_bytes(tmp_path, frame0 + frame1), 4, 4))
        assert len(frames) == 2
        assert frames[0].pixels.shape == (4, 4)
        assert np.all(frames[0].pixels == 7)
        # row-major layout, chroma bytes not part of the luma plane
        assert np.array_equal(
            frames[1].pixels, np.arange(100, 116, dtype=np.uint8).reshape(4, 4)
        )

    def test_off_by_one_is_truncated(self, tmp_path):
        with pytest.raises(TruncatedStream):
            read_yuv420_file(write_bytes(tmp_path, bytes(49)), 4, 4)

    def test_frames_keep_only_luma_alive(self, tmp_path):
        # the buffers the frames hold, followed down to their owners, add up
        # to the luma bytes alone: no chroma plane outlives the read
        raw = bytes(i % 256 for i in range(5 * 72))
        frames = list(read_yuv420_file(write_bytes(tmp_path, raw), 8, 6))
        owners = {}
        for f in frames:
            assert not f.pixels.flags.writeable
            owner = f.pixels
            while isinstance(owner, np.ndarray) and owner.base is not None:
                owner = owner.base
            owners[id(owner)] = owner
        kept = sum(memoryview(o).nbytes for o in owners.values())
        assert kept == 5 * 48


class TestWriteRoundTrip:
    def test_round_trip_exact(self, rng, tmp_path):
        frames = random_frames(rng, width=6, height=4, count=5)
        buf = io.BytesIO()
        assert write_yuv420(frames, buf) == 5
        raw = buf.getvalue()
        assert len(raw) == 5 * 36
        # chroma planes are constant 128
        assert set(raw[24:36]) == {128}
        back = read_yuv420_file(write_bytes(tmp_path, raw), 6, 4)
        for a, b in zip(frames, back):
            assert np.array_equal(a.pixels, b.pixels)

    def test_write_rounds_float_frames(self):
        frame = LumaFrame(np.array([[1.4, 2.6], [300.0, -5.0]]))
        buf = io.BytesIO()
        write_yuv420([frame], buf)
        assert buf.getvalue()[:4] == bytes([1, 3, 255, 0])

    def test_write_rejects_odd_dims(self):
        with pytest.raises(OddDimensions):
            write_yuv420([LumaFrame(np.zeros((3, 4)))], io.BytesIO())

    def test_file_round_trip(self, rng, tmp_path):
        frames = random_frames(rng, width=16, height=8, count=3)
        path = tmp_path / "clip.yuv"
        write_yuv420(frames, path)
        back = read_yuv420_file(path, 16, 8)
        assert len(back) == 3
        for a, b in zip(frames, back):
            assert np.array_equal(a.pixels, b.pixels)

    def test_720p_300_frames_round_trip(self, tmp_path):
        # full-size synthetic file: 300 frames of 1280x720 is exactly
        # 414,720,000 bytes; stream the write to keep memory flat
        path = tmp_path / "big.yuv"
        row = (np.arange(1280, dtype=np.uint32) % 256).astype(np.uint8)

        def frame_pixels(i):
            pixels = np.tile(row, (720, 1))
            pixels[:, 0] = i % 256
            return pixels

        def gen():
            for i in range(300):
                yield LumaFrame(frame_pixels(i))

        assert write_yuv420(gen(), path) == 300
        assert path.stat().st_size == 414_720_000
        frames = read_yuv420_file(path, 1280, 720)
        assert len(frames) == 300
        for i in (0, 150, 299):
            assert np.array_equal(frames[i].pixels, frame_pixels(i))


class TestFileFrames:
    @pytest.fixture
    def clip(self, rng, tmp_path):
        frames = random_frames(rng, width=6, height=4, count=7)
        path = tmp_path / "clip.yuv"
        write_yuv420(frames, path)
        return frames, path

    def test_length_geometry_and_frames(self, clip):
        frames, path = clip
        lazy = read_yuv420_file(path, 6, 4)
        assert isinstance(lazy, FileFrames)
        assert len(lazy) == lazy.depth == 7
        assert (lazy.height, lazy.width) == (4, 6)
        for a, b in zip(frames, lazy):
            assert np.array_equal(a.pixels, b.pixels)
            assert not b.pixels.flags.writeable
        assert np.array_equal(lazy[-1].pixels, frames[-1].pixels)
        with pytest.raises(IndexError):
            lazy[7]

    def test_slices_are_lazy_and_nest(self, clip):
        frames, path = clip
        lazy = read_yuv420_file(path, 6, 4)
        part = lazy[2:6][1:]
        assert isinstance(part, FileFrames)
        assert (part.depth, part.height, part.width) == (3, 4, 6)
        for a, b in zip(frames[3:6], part):
            assert np.array_equal(a.pixels, b.pixels)
        assert len(lazy[5:2]) == 0 and list(lazy[5:2]) == []
        with pytest.raises(ValueError):
            lazy[::2]

    def test_file_shortened_after_open_is_truncated(self, clip):
        _, path = clip
        lazy = read_yuv420_file(path, 6, 4)
        with open(path, "r+b") as fh:
            fh.truncate(3 * 36 + 10)
        assert np.array_equal(lazy[2].pixels, next(iter(lazy[2:3])).pixels)
        with pytest.raises(TruncatedStream, match="frame 3: expected 36 bytes, got 10"):
            list(lazy)


class TestGroupTensors:
    def test_ten_full_tensors(self):
        bounds = group_tensors(300, 30)
        assert bounds == [(lo, lo + 29) for lo in range(0, 300, 30)]

    def test_last_210_frames(self):
        bounds = group_tensors(300, 30, frame_range=(90, 299))
        assert [hi - lo + 1 for lo, hi in bounds] == [30] * 7
        assert bounds[0] == (90, 119)

    def test_trailing_partial_kept(self):
        bounds = group_tensors(65, 30)
        assert bounds == [(0, 29), (30, 59), (60, 64)]

    def test_single_trailing_frame_dropped(self):
        bounds = group_tensors(61, 30)
        assert bounds == [(0, 29), (30, 59)]

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            group_tensors(10, 5, frame_range=(3, 3))
        with pytest.raises(EmptySelection):
            group_tensors(1, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            group_tensors(10, 1)
        with pytest.raises(ValueError):
            group_tensors(10, 5, frame_range=(0, 10))
        with pytest.raises(ValueError):
            group_tensors(10, 5, frame_range=(-1, 5))
        with pytest.raises(ValueError):
            group_tensors(10, 5, frame_range=(7, 3))

    @settings(deadline=None, max_examples=60)
    @given(
        count=st.integers(min_value=2, max_value=200),
        tensor_len=st.integers(min_value=2, max_value=40),
        data=st.data(),
    )
    def test_grouping_invariants(self, count, tensor_len, data):
        use_range = data.draw(st.booleans())
        if use_range:
            start = data.draw(st.integers(min_value=0, max_value=count - 2))
            end = data.draw(st.integers(min_value=start + 1, max_value=count - 1))
            frame_range = (start, end)
        else:
            frame_range = None
            start, end = 0, count - 1
        bounds = group_tensors(count, tensor_len, frame_range)

        depths = [hi - lo + 1 for lo, hi in bounds]
        # depths sum to the selection size, minus at most one dropped frame
        assert sum(depths) in (end - start + 1, end - start)
        # all full except possibly the last, which still has >= 2 frames
        assert all(d == tensor_len for d in depths[:-1])
        assert 2 <= depths[-1] <= tensor_len
        # order preserved: the tensors tile the selection from its first frame
        assert bounds[0][0] == start
        assert all(b[0] == a[1] + 1 for a, b in zip(bounds, bounds[1:]))
