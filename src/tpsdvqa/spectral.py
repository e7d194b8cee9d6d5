"""Time-aggregated power spectra of luma tensors.

A tensor of ``O`` frames of size ``M x N`` is treated as one 3D signal. Its
power spectral density is the squared magnitude of the unnormalized forward
3D DFT divided by ``M*N*O`` (the periodogram; total PSD equals the sum of
squared samples). Summing the PSD over the temporal frequency axis yields
the 2D time-aggregated plane that the quality metric correlates. By
Parseval's theorem along the time axis that plane is

    T[h, k] = (1/(M*N)) * sum_t |FFT2(frame_t)[h, k]|^2,

which :func:`tpsd_of_tensor` folds one frame at a time into a ``_PowerSum``,
so neither the 3D transform nor a stacked float64 tensor is needed. The
definitional route, a direct-sum 3D DFT summed over temporal frequency, is
``tests/oracles.py::tpsd_direct``, against which the tests check this one.

No window/taper is applied before the transform, and the mean (DC) is not
subtracted; the plain periodogram is the estimator. The DC bin can be
shifted to the plane center (``center_dc``) so that windowed neighborhoods
in the plane are frequency-contiguous instead of wrapping at the edges.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
import scipy.fft as _fft

from .video_io import LumaFrame

__all__ = [
    "tpsd_of_tensor",
    "write_grid",
    "read_grid",
]


# bytes of the float64 row block that each frame is copied into and
# transformed through; it keeps the block and its half spectrum in cache
_BLOCK_BYTES = 512 * 1024


class _PowerSum:
    """The plane of equally sized frames, folded in one at a time.

    The first ``fold`` makes one float64 row block, of at most ``_BLOCK_BYTES``
    and an eighth of the rows, one complex ``(M, N//2 + 1)`` spectrum buffer
    and one half-spectrum power sum: memory is O(frame) whatever the depth.
    Each frame runs ``rfft2`` as its two passes: its rows go a block at a time
    through ``rfft`` into the buffer, then the buffer's columns through an
    ``fft`` that may overwrite it, with the same bits as ``rfft2``. ``close``
    builds the plane inside the buffer, which holds M*(N+2) floats, by slice
    copies rotated by the DC shift, from the point symmetry
    T[h, k] == T[(M-h) % M, (N-k) % N], so the unshifted plane equals its
    point mirror bit for bit outside columns 0 and N/2; transient memory is
    about 1.5 planes.
    """

    def __init__(self, center_dc: bool = True) -> None:
        self._center_dc = center_dc
        self._shape = self._block = self._spec = self._sum = None

    def fold(self, pixels: np.ndarray) -> None:
        if self._shape is None:
            m, n = self._shape = pixels.shape
            rows = max(1, min(_BLOCK_BYTES // (8 * n), -(-m // 8)))
            self._block = np.empty((rows, n), dtype=np.float64)
            self._spec = np.empty((m, n // 2 + 1), dtype=np.complex128)
            self._sum = np.zeros((m, n // 2 + 1), dtype=np.float64)
        elif pixels.shape != self._shape:
            raise ValueError(f"tensor frames disagree on shape: {pixels.shape} vs {self._shape}")
        block, spec, m = self._block, self._spec, self._shape[0]
        for lo in range(0, m, len(block)):
            part = block[: m - lo]  # the last block may be short
            np.copyto(part, pixels[lo : lo + len(part)])
            spec[lo : lo + len(part)] = _fft.rfft(part, axis=1)
        # interleaved real and imaginary parts, squared in place: the same
        # products as re*re and im*im, without two more half planes; the fft
        # may ignore overwrite_x, so its result is read, not the buffer
        power = _fft.fft(spec, axis=0, overwrite_x=True).view(np.float64)
        np.multiply(power, power, out=power)
        self._sum += power[:, 0::2]
        self._sum += power[:, 1::2]

    def close(self) -> np.ndarray:
        (m, n), s_half, spec = self._shape, self._sum, self._spec
        self._shape = self._block = self._spec = self._sum = None
        n_half = n // 2 + 1
        s_half /= m * n
        # plane bin (h, k) lands at ((h + rs) % M, (k + cs) % N); it is half-plane
        # bin (h, k) for k < n_half, else ((M - h) % M, N - k) by symmetry: the
        # half plane reversed in rows and columns, landing one row further down
        rs, cs = (m // 2, n // 2) if self._center_dc else (0, 0)
        kept, start = min(n - cs, n_half), (n_half + cs) % n  # kept: columns before a wrap
        plane = spec.view(np.float64).reshape(-1)[: m * n].reshape(m, n)
        for cols, half, shift in (
            (slice(cs, cs + kept), s_half[:, :kept], rs),
            (slice(0, n_half - kept), s_half[:, kept:], rs),
            (slice(start, start + n - n_half), s_half[::-1, n - n_half : 0 : -1], rs + 1),
        ):
            plane[shift:, cols] = half[: m - shift]
            plane[:shift, cols] = half[m - shift :]
        return plane


def tpsd_of_tensor(tensor: Sequence[LumaFrame], center_dc: bool = True) -> np.ndarray:
    """Time-aggregated PSD plane straight from a tensor, one frame at a time.

    Returns the C-contiguous ``(M, N)`` float64 plane, with the
    zero-frequency bin moved to ``(M//2, N//2)`` when ``center_dc`` is set;
    it is built inside the ``_PowerSum``'s spectrum buffer, so no plane is
    allocated beside it. ``tensor`` is a sequence of at least 2 equally sized
    frames, iterated once into that accumulator; each frame is copied to
    float64 a row block at a time, so float32 frames keep float64 precision.
    """
    if len(tensor) < 2:
        raise ValueError(f"tensor needs at least 2 frames, got {len(tensor)}")
    acc = _PowerSum(center_dc)
    for frame in tensor:
        acc.fold(frame.pixels)
    return acc.close()


def write_grid(values: np.ndarray, dest: str | os.PathLike) -> None:
    """Dump a 2D array as a self-describing text grid.

    First line: ``<rows> <cols>``; then one line per row of full-precision
    row-major values. Meant for external plotting of TPSD planes and
    correlation maps.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"grid dump needs a 2D array, got {values.ndim}D")
    rows, cols = values.shape
    np.savetxt(dest, values, fmt="%.17g", header=f"{rows} {cols}", comments="")


def read_grid(source: str | os.PathLike) -> np.ndarray:
    """Load a grid written by :func:`write_grid`."""
    with open(source, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("grid header must be '<rows> <cols>'")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"grid body {data.shape} does not match header {(rows, cols)}")
    return data
