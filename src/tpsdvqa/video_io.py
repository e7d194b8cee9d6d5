"""Raw planar YUV 4:2:0 parsing and tensor bounds.

File layout (bit-exact, no header): for each frame, ``width*height`` luma
bytes in row-major order with the origin at the top-left, followed by two
``width/2 x height/2`` chroma planes. Only the luma plane is kept; chroma
bytes are skipped on read and written as a constant 128 (neutral gray) so
synthetic fixtures round-trip exactly.

Only 8-bit planar 4:2:0 input is supported. Other pixel formats are
rejected rather than converted.
"""

from __future__ import annotations

import itertools
import numbers
import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptySelection, OddDimensions, TruncatedStream

__all__ = [
    "LumaFrame",
    "FileFrames",
    "read_yuv420_file",
    "write_yuv420",
    "group_tensors",
]


@dataclass(frozen=True, eq=False)
class LumaFrame:
    """One grayscale frame: a 2D height x width array with values in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.ndim != 2:
            raise ValueError(f"luma frame must be 2D, got {self.pixels.ndim}D")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class FileFrames(Sequence[LumaFrame]):
    """The frames ``indices`` of a raw YUV 4:2:0 file, decoded only when reached.

    ``width`` and ``height`` give the luma plane and must be positive and
    even. Slicing is lazy and needs a step of 1; iterating opens the file once,
    seeks to the first frame and yields one frame per step. ``depth``,
    ``height`` and ``width`` describe the frames without reading them.
    """

    path: str
    width: int
    height: int
    indices: range

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.width % 2 or self.height % 2:
            raise OddDimensions(
                f"YUV 4:2:0 requires even dimensions, got {self.width}x{self.height}"
            )

    def __len__(self) -> int:
        return len(self.indices)

    depth = property(__len__)

    @property
    def frame_size(self) -> int:
        """Bytes per frame: the luma plane and both chroma planes."""
        return self.width * self.height * 3 // 2

    def __getitem__(self, key: int | slice) -> LumaFrame | FileFrames:
        picked = self.indices[key]
        if isinstance(picked, int):
            return next(iter(replace(self, indices=range(picked, picked + 1))))
        if picked.step != 1:
            raise ValueError(f"file-backed frames slice with step 1 only, got {picked.step}")
        return replace(self, indices=picked)

    def __iter__(self) -> Iterator[LumaFrame]:
        # each frame is read into one reused chunk and its luma copied out,
        # so a frame keeps only its own luma bytes alive
        size = self.frame_size
        chunk = bytearray(size)
        luma = np.frombuffer(chunk, np.uint8, self.width * self.height).reshape(self.height, self.width)
        with open(self.path, "rb") as fh:
            fh.seek(self.indices.start * size)
            for i in self.indices:
                got = fh.readinto(chunk)
                if got != size:
                    raise TruncatedStream(f"frame {i}: expected {size} bytes, got {got}")
                pixels = luma.copy()
                pixels.flags.writeable = False
                yield LumaFrame(pixels)


def read_yuv420_file(path: str | os.PathLike, width: int, height: int) -> FileFrames:
    """Open a raw YUV 4:2:0 file lazily, deriving the frame count from the file size.

    The file must hold a whole number of frames.
    """
    # a path that cannot be opened, a directory included, fails here with the
    # OS error, before the geometry check and not mid-score
    with open(path, "rb") as fh:
        byte_length = os.fstat(fh.fileno()).st_size
    frames = FileFrames(os.fspath(path), width, height, range(0))
    if byte_length % frames.frame_size:
        raise TruncatedStream(
            f"{byte_length} bytes is not a multiple of the {frames.frame_size}-byte "
            f"frame size for {width}x{height}"
        )
    return replace(frames, indices=range(byte_length // frames.frame_size))


def _require_integral(name: str, value: object) -> None:
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")


def _luma_bytes(frame: LumaFrame) -> bytes:
    pixels = frame.pixels
    if pixels.dtype != np.uint8:
        pixels = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    return pixels.tobytes()


def write_yuv420(frames: Iterable[LumaFrame], dest: str | os.PathLike) -> int:
    """Write frames as raw YUV 4:2:0 with both chroma planes filled with 128.

    Non-uint8 pixel values are rounded to the nearest luma step and clamped
    to [0, 255]. A geometry that ``read_yuv420_file`` refuses is refused here,
    with its error. Returns the number of frames written.
    """
    frames = iter(frames)
    first = next(frames, None)
    # the geometry is checked by the reader's rules before the output exists,
    # and a write that fails later removes the file it created, so a rejected
    # write leaves no file behind; a destination that already existed is
    # never removed
    if first is not None:
        FileFrames(os.fspath(dest), first.width, first.height, range(0))
    created = not os.path.exists(dest)
    count = 0
    with open(dest, "wb") as fh:
        try:
            if first is not None:
                chroma = b"\x80" * (first.width * first.height // 2)
                for frame in itertools.chain([first], frames):
                    if frame.pixels.shape != first.pixels.shape:
                        raise ValueError(
                            f"frame {count} shape {frame.pixels.shape} differs from {first.pixels.shape}"
                        )
                    fh.write(_luma_bytes(frame))
                    fh.write(chroma)
                    count += 1
        except BaseException:
            fh.close()
            if created:
                os.remove(dest)
            raise
    return count


def group_tensors(
    frame_count: int,
    tensor_len: int,
    frame_range: tuple[int, int] | None = None,
) -> list[tuple[int, int]]:
    """Inclusive (first, last) frame bounds of consecutive tensors of ``tensor_len``.

    ``frame_range`` is an inclusive (start, end) pair restricting the frames
    considered among ``frame_count``. A trailing partial group keeps its
    actual depth when it has at least 2 frames; a single trailing frame is
    dropped, since a depth-1 tensor would degenerate to a purely spatial
    measurement. ``tensor_len`` and both range bounds must be integers, numpy
    integers included, and the bounds come back as Python ``int``.
    """
    _require_integral("tensor_len", tensor_len)
    tensor_len = int(tensor_len)  # numpy integers would make numpy bounds
    if tensor_len < 2:
        raise ValueError(f"tensor_len must be >= 2, got {tensor_len}")
    start, end = 0, frame_count - 1
    if frame_range is not None:
        for name, bound in zip(("frame range start", "frame range end"), frame_range):
            _require_integral(name, bound)
        start, end = map(int, frame_range)
        if start < 0 or end >= frame_count:
            raise ValueError(
                f"frame range {start}:{end} outside sequence of {frame_count} frames"
            )
        if start > end:
            raise ValueError(f"frame range {start}:{end} ends before it starts")
    selected = end - start + 1
    if selected < 2:
        raise EmptySelection(
            f"selection of {selected} frame(s) is too short to form a tensor"
        )
    return [
        (lo, min(lo + tensor_len, end + 1) - 1)
        for lo in range(start, end, tensor_len)
    ]
