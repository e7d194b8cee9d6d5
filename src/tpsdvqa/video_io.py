"""Raw planar YUV 4:2:0 parsing and tensor grouping.

File layout (bit-exact, no header): for each frame, ``width*height`` luma
bytes in row-major order with the origin at the top-left, followed by two
``width/2 x height/2`` chroma planes. Only the luma plane is kept; chroma
bytes are skipped on read and written as a constant 128 (neutral gray) so
synthetic fixtures round-trip exactly.

Only 8-bit planar 4:2:0 input is supported. Other pixel formats are
rejected rather than converted.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .errors import EmptySelection, OddDimensions, TruncatedStream

__all__ = [
    "VideoDescriptor",
    "LumaFrame",
    "LumaTensor",
    "read_yuv420_luma",
    "read_yuv420_file",
    "write_yuv420",
    "group_tensors",
]


@dataclass(frozen=True)
class VideoDescriptor:
    """Geometry of a raw YUV 4:2:0 video: width x height pixels, frame_count frames."""

    width: int
    height: int
    frame_count: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.width % 2 or self.height % 2:
            raise OddDimensions(
                f"YUV 4:2:0 requires even dimensions, got {self.width}x{self.height}"
            )
        if self.frame_count < 0:
            raise ValueError(f"frame_count must be non-negative, got {self.frame_count}")

    @property
    def luma_size(self) -> int:
        """Bytes of luma per frame."""
        return self.width * self.height

    @property
    def frame_size(self) -> int:
        """Bytes per frame including both chroma planes."""
        return self.width * self.height * 3 // 2

    @classmethod
    def from_byte_length(cls, width: int, height: int, byte_length: int) -> "VideoDescriptor":
        """Derive the frame count from a total byte length; exact multiple required."""
        frame_size = cls(width, height, 0).frame_size
        if byte_length % frame_size:
            raise TruncatedStream(
                f"{byte_length} bytes is not a multiple of the {frame_size}-byte "
                f"frame size for {width}x{height}"
            )
        return cls(width=width, height=height, frame_count=byte_length // frame_size)


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


@dataclass(frozen=True, eq=False)
class LumaTensor:
    """A group of consecutive frames analyzed as one 3D signal.

    ``index`` is the tensor's position within the video's tensor sequence.
    """

    frames: tuple[LumaFrame, ...]
    index: int

    def __post_init__(self) -> None:
        if len(self.frames) < 2:
            raise ValueError(f"tensor needs at least 2 frames, got {len(self.frames)}")
        first = self.frames[0]
        for f in self.frames[1:]:
            if f.pixels.shape != first.pixels.shape:
                raise ValueError(
                    f"tensor frames disagree on shape: {f.pixels.shape} vs {first.pixels.shape}"
                )
        if self.index < 0:
            raise ValueError(f"tensor index must be non-negative, got {self.index}")

    @property
    def depth(self) -> int:
        """Number of frames in the tensor."""
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def width(self) -> int:
        return self.frames[0].width


def read_yuv420_luma(source: bytes | BinaryIO, desc: VideoDescriptor) -> list[LumaFrame]:
    """Parse luma frames from a raw YUV 4:2:0 byte stream.

    The stream must contain exactly ``desc.frame_count`` frames; any length
    mismatch raises TruncatedStream. Chroma bytes are skipped, and each frame
    keeps only its own luma bytes alive.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    frames = []
    for i in range(desc.frame_count):
        chunk = source.read(desc.frame_size)
        if len(chunk) != desc.frame_size:
            raise TruncatedStream(
                f"frame {i}: expected {desc.frame_size} bytes, got {len(chunk)}"
            )
        # a copy, so the chunk, chroma included, is freed after the read
        luma = np.frombuffer(chunk, dtype=np.uint8, count=desc.luma_size)
        pixels = luma.reshape(desc.height, desc.width).copy()
        pixels.flags.writeable = False
        frames.append(LumaFrame(pixels))
    if source.read(1):
        raise TruncatedStream(
            f"stream has trailing bytes beyond {desc.frame_count} frames"
        )
    return frames


def read_yuv420_file(
    path: str | os.PathLike, width: int, height: int
) -> tuple[VideoDescriptor, list[LumaFrame]]:
    """Read a raw YUV 4:2:0 file, deriving the frame count from the file size."""
    desc = VideoDescriptor.from_byte_length(width, height, os.path.getsize(path))
    with open(path, "rb") as fh:
        return desc, read_yuv420_luma(fh, desc)


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
    own = isinstance(dest, (str, os.PathLike))
    fh: BinaryIO = open(dest, "wb") if own else dest  # type: ignore[arg-type]
    count = 0
    try:
        chroma: bytes | None = None
        shape: tuple[int, int] | None = None
        for frame in frames:
            if frame.height % 2 or frame.width % 2:
                raise OddDimensions(
                    f"YUV 4:2:0 requires even dimensions, got {frame.width}x{frame.height}"
                )
            if shape is None:
                shape = frame.pixels.shape
                chroma = b"\x80" * (frame.width * frame.height // 2)
            elif frame.pixels.shape != shape:
                raise ValueError(
                    f"frame {count} shape {frame.pixels.shape} differs from {shape}"
                )
            fh.write(_luma_bytes(frame))
            fh.write(chroma)
            count += 1
    finally:
        if own:
            fh.close()
    return count


def group_tensors(
    frames: Sequence[LumaFrame],
    tensor_len: int,
    frame_range: tuple[int, int] | None = None,
) -> list[LumaTensor]:
    """Group frames into consecutive non-overlapping tensors of ``tensor_len``.

    ``frame_range`` is an inclusive (start, end) pair restricting the frames
    considered. A trailing partial group keeps its actual depth when it has
    at least 2 frames; a single trailing frame is dropped, since a depth-1
    tensor would degenerate to a purely spatial measurement.
    """
    if tensor_len < 2:
        raise ValueError(f"tensor_len must be >= 2, got {tensor_len}")
    if frame_range is not None:
        start, end = frame_range
        if start < 0 or end >= len(frames) or start > end:
            raise ValueError(
                f"frame range {start}:{end} outside sequence of {len(frames)} frames"
            )
        selected = frames[start : end + 1]
    else:
        selected = frames
    if len(selected) < 2:
        raise EmptySelection(
            f"selection of {len(selected)} frame(s) is too short to form a tensor"
        )

    tensors = []
    for t, offset in enumerate(range(0, len(selected), tensor_len)):
        group = tuple(selected[offset : offset + tensor_len])
        if len(group) < 2:
            break  # lone trailing frame: dropped
        tensors.append(LumaTensor(frames=group, index=t))
    return tensors
