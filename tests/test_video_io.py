import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_frames
from tpsdvqa.errors import EmptySelection, OddDimensions, TruncatedStream
from tpsdvqa.video_io import (
    LumaFrame,
    LumaTensor,
    VideoDescriptor,
    group_tensors,
    read_yuv420_file,
    read_yuv420_luma,
    write_yuv420,
)


def tiny_frames(count):
    """Cheap 2x2 frames carrying their index, for grouping tests."""
    return [LumaFrame(np.full((2, 2), i % 256, dtype=np.uint8)) for i in range(count)]


class TestDescriptor:
    def test_valid(self):
        d = VideoDescriptor(width=1280, height=720, frame_count=300)
        assert d.luma_size == 921_600
        assert d.frame_size == 1_382_400

    @pytest.mark.parametrize("w,h", [(3, 4), (4, 3), (5, 5)])
    def test_rejects_odd_dimensions(self, w, h):
        with pytest.raises(OddDimensions):
            VideoDescriptor(width=w, height=h, frame_count=1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VideoDescriptor(width=0, height=2, frame_count=1)
        with pytest.raises(ValueError):
            VideoDescriptor(width=2, height=2, frame_count=-1)

    def test_from_byte_length(self):
        d = VideoDescriptor.from_byte_length(4, 4, 48)
        assert d.frame_count == 2

    def test_from_byte_length_rejects_remainder(self):
        with pytest.raises(TruncatedStream):
            VideoDescriptor.from_byte_length(4, 4, 47)


class TestReadYuv:
    def test_constant_fill_fixture(self):
        # 4x4, 2 frames, 48 bytes: frame 0 luma all 7, frame 1 luma 100..115
        desc = VideoDescriptor(4, 4, 2)
        frame0 = bytes([7] * 16) + bytes([1] * 8)
        frame1 = bytes(range(100, 116)) + bytes([200] * 8)
        frames = read_yuv420_luma(frame0 + frame1, desc)
        assert len(frames) == 2
        assert frames[0].pixels.shape == (4, 4)
        assert np.all(frames[0].pixels == 7)
        # row-major layout, chroma bytes not part of the luma plane
        assert np.array_equal(
            frames[1].pixels, np.arange(100, 116, dtype=np.uint8).reshape(4, 4)
        )

    def test_off_by_one_is_truncated(self):
        desc = VideoDescriptor(4, 4, 2)
        with pytest.raises(TruncatedStream):
            read_yuv420_luma(bytes(47), desc)

    def test_stream_object_and_trailing_bytes(self):
        desc = VideoDescriptor(4, 4, 1)
        frames = read_yuv420_luma(io.BytesIO(bytes(24)), desc)
        assert len(frames) == 1
        with pytest.raises(TruncatedStream):
            read_yuv420_luma(io.BytesIO(bytes(25)), desc)

    def test_short_stream_object(self):
        desc = VideoDescriptor(4, 4, 2)
        with pytest.raises(TruncatedStream):
            read_yuv420_luma(io.BytesIO(bytes(30)), desc)

    @pytest.mark.parametrize("as_stream", [False, True])
    def test_frames_keep_only_luma_alive(self, as_stream):
        # the buffers the frames hold, followed down to their owners, add up
        # to the luma bytes alone: no chroma plane outlives the read
        desc = VideoDescriptor(8, 6, 5)
        raw = bytes(i % 256 for i in range(desc.frame_count * desc.frame_size))
        frames = read_yuv420_luma(io.BytesIO(raw) if as_stream else raw, desc)
        owners = {}
        for f in frames:
            assert not f.pixels.flags.writeable
            owner = f.pixels
            while isinstance(owner, np.ndarray) and owner.base is not None:
                owner = owner.base
            owners[id(owner)] = owner
        kept = sum(memoryview(o).nbytes for o in owners.values())
        assert kept == desc.frame_count * desc.luma_size


class TestWriteRoundTrip:
    def test_round_trip_exact(self, rng):
        frames = random_frames(rng, width=6, height=4, count=5)
        buf = io.BytesIO()
        assert write_yuv420(frames, buf) == 5
        raw = buf.getvalue()
        assert len(raw) == 5 * 36
        # chroma planes are constant 128
        assert set(raw[24:36]) == {128}
        desc = VideoDescriptor(6, 4, 5)
        back = read_yuv420_luma(raw, desc)
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
        desc, back = read_yuv420_file(path, 16, 8)
        assert desc.frame_count == 3
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
        desc, frames = read_yuv420_file(path, 1280, 720)
        assert desc.frame_count == 300
        assert len(frames) == 300
        for i in (0, 150, 299):
            assert np.array_equal(frames[i].pixels, frame_pixels(i))


class TestTensorTypes:
    def test_tensor_requires_two_frames(self):
        with pytest.raises(ValueError):
            LumaTensor(frames=(LumaFrame(np.zeros((2, 2))),), index=0)

    def test_tensor_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            LumaTensor(
                frames=(LumaFrame(np.zeros((2, 2))), LumaFrame(np.zeros((2, 4)))),
                index=0,
            )


class TestGroupTensors:
    def test_ten_full_tensors(self):
        tensors = group_tensors(tiny_frames(300), 30)
        assert [t.depth for t in tensors] == [30] * 10
        assert [t.index for t in tensors] == list(range(10))

    def test_last_210_frames(self):
        tensors = group_tensors(tiny_frames(300), 30, frame_range=(90, 299))
        assert [t.depth for t in tensors] == [30] * 7
        assert tensors[0].frames[0].pixels[0, 0] == 90

    def test_trailing_partial_kept(self):
        tensors = group_tensors(tiny_frames(65), 30)
        assert [t.depth for t in tensors] == [30, 30, 5]

    def test_single_trailing_frame_dropped(self):
        tensors = group_tensors(tiny_frames(61), 30)
        assert [t.depth for t in tensors] == [30, 30]

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            group_tensors(tiny_frames(10), 5, frame_range=(3, 3))
        with pytest.raises(EmptySelection):
            group_tensors(tiny_frames(1), 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            group_tensors(tiny_frames(10), 1)
        with pytest.raises(ValueError):
            group_tensors(tiny_frames(10), 5, frame_range=(0, 10))
        with pytest.raises(ValueError):
            group_tensors(tiny_frames(10), 5, frame_range=(-1, 5))
        with pytest.raises(ValueError):
            group_tensors(tiny_frames(10), 5, frame_range=(7, 3))

    @settings(deadline=None, max_examples=60)
    @given(
        count=st.integers(min_value=2, max_value=200),
        tensor_len=st.integers(min_value=2, max_value=40),
        data=st.data(),
    )
    def test_grouping_invariants(self, count, tensor_len, data):
        frames = tiny_frames(count)
        use_range = data.draw(st.booleans())
        if use_range:
            start = data.draw(st.integers(min_value=0, max_value=count - 2))
            end = data.draw(st.integers(min_value=start + 1, max_value=count - 1))
            frame_range = (start, end)
            selected = frames[start : end + 1]
        else:
            frame_range = None
            selected = frames
        tensors = group_tensors(frames, tensor_len, frame_range)

        depths = [t.depth for t in tensors]
        # depths sum to the selection size, minus at most one dropped frame
        assert sum(depths) in (len(selected), len(selected) - 1)
        # all full except possibly the last, which still has >= 2 frames
        assert all(d == tensor_len for d in depths[:-1])
        assert 2 <= depths[-1] <= tensor_len
        # order preserved: concatenation reproduces the selected prefix
        flattened = [f for t in tensors for f in t.frames]
        assert all(a is b for a, b in zip(flattened, selected))
        assert [t.index for t in tensors] == list(range(len(tensors)))
