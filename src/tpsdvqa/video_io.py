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
import os
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterable, Iterator, Sequence

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
    byte_length = os.path.getsize(path)
    frames = FileFrames(os.fspath(path), width, height, range(0))
    if byte_length % frames.frame_size:
        raise TruncatedStream(
            f"{byte_length} bytes is not a multiple of the {frames.frame_size}-byte "
            f"frame size for {width}x{height}"
        )
    open(path, "rb").close()  # an unreadable file fails here, not mid-score
    return replace(frames, indices=range(byte_length // frames.frame_size))


def _luma_bytes(frame: LumaFrame) -> bytes:
    pixels = frame.pixels
    if pixels.dtype != np.uint8:
        pixels = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    return pixels.tobytes()


def write_yuv420(frames: Sequence[LumaFrame] | Iterable[LumaFrame], dest: str | os.PathLike | BinaryIO) -> int:
    """Write frames as raw YUV 4:2:0 with both chroma planes filled with 128.

    Non-uint8 pixel values are rounded to the nearest luma step and clamped
    to [0, 255]. Returns the number of frames written.
    """
    frames = iter(frames)
    first = next(frames, None)
    # the geometry is checked before the output exists, so a rejected write
    # leaves no file behind
    if first is not None and (first.height % 2 or first.width % 2):
        raise OddDimensions(
            f"YUV 4:2:0 requires even dimensions, got {first.width}x{first.height}"
        )
    own = isinstance(dest, (str, os.PathLike))
    fh: BinaryIO = open(dest, "wb") if own else dest  # type: ignore[arg-type]
    count = 0
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
    finally:
        if own:
            fh.close()
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
    measurement.
    """
    if tensor_len < 2:
        raise ValueError(f"tensor_len must be >= 2, got {tensor_len}")
    start, end = 0, frame_count - 1
    if frame_range is not None:
        start, end = frame_range
        if start < 0 or end >= frame_count or start > end:
            raise ValueError(
                f"frame range {start}:{end} outside sequence of {frame_count} frames"
            )
    selected = end - start + 1
    if selected < 2:
        raise EmptySelection(
            f"selection of {selected} frame(s) is too short to form a tensor"
        )
    return [
        (lo, min(lo + tensor_len, end + 1) - 1)
        for lo in range(start, end, tensor_len)
    ]
