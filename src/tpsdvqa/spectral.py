"""Time-aggregated power spectra of luma tensors.

A tensor of ``O`` frames of size ``M x N`` is treated as one 3D signal. Its
power spectral density is the squared magnitude of the unnormalized forward
3D DFT divided by ``M*N*O`` (the periodogram; total PSD equals the sum of
squared samples). Summing the PSD over the temporal frequency axis yields
the 2D time-aggregated plane that the quality metric correlates. By
Parseval's theorem along the time axis that plane is

    T[h, k] = (1/(M*N)) * sum_t |FFT2(frame_t)[h, k]|^2,

which :func:`tpsd_of_tensor` computes one frame at a time, so neither the
3D transform nor a stacked float64 tensor is needed. The definitional
route, a direct-sum 3D DFT summed over temporal frequency, is
``tests/oracles.py::tpsd_direct``, against which the tests check this one.

No window/taper is applied before the transform, and the mean (DC) is not
subtracted; the plain periodogram is the estimator. The DC bin can be
shifted to the plane center (``center_dc``) so that windowed neighborhoods
in the plane are frequency-contiguous instead of wrapping at the edges.
"""

from __future__ import annotations

import io
import os
from typing import Iterator, Sequence, TextIO

import numpy as np
import scipy.fft as _fft

from .video_io import LumaFrame

__all__ = [
    "tpsd_of_tensor",
    "write_grid",
    "read_grid",
]


def _frame_arrays(tensor: Sequence[LumaFrame] | np.ndarray) -> Iterator[np.ndarray]:
    """The tensor's frames as 2D arrays, one at a time."""
    if isinstance(tensor, np.ndarray):
        if tensor.ndim != 3:
            raise ValueError(f"tensor array must be 3D, got {tensor.ndim}D")
        if tensor.shape[2] < 2:
            raise ValueError(f"tensor depth must be >= 2, got {tensor.shape[2]}")
        return (tensor[:, :, t] for t in range(tensor.shape[2]))
    if len(tensor) < 2:
        raise ValueError(f"tensor needs at least 2 frames, got {len(tensor)}")
    return (f.pixels for f in tensor)


def tpsd_of_tensor(
    tensor: Sequence[LumaFrame] | np.ndarray,
    center_dc: bool = True,
) -> np.ndarray:
    """Time-aggregated PSD plane straight from a tensor, one frame at a time.

    Returns the ``(M, N)`` float64 plane, with the zero-frequency bin moved
    to ``(M//2, N//2)`` when ``center_dc`` is set. ``tensor`` is a sequence
    of at least 2 equally sized frames, iterated once, or an array of shape
    ``(M, N, O)`` with ``O >= 2``. Each frame is copied into one float64
    buffer and its real-input half spectrum folded into one
    ``(M, N//2 + 1)`` accumulator, so memory is O(frame) whatever the depth,
    and the dropped columns are restored from the plane's point symmetry
    T[h, k] == T[(M-h) % M, (N-k) % N].
    """
    frame = s_half = None
    for pixels in _frame_arrays(tensor):
        if frame is None:
            m, n = pixels.shape
            n_half = n // 2 + 1
            frame = np.empty((m, n), dtype=np.float64)
            s_half = np.zeros((m, n_half), dtype=np.float64)
        elif pixels.shape != frame.shape:
            raise ValueError(f"tensor frames disagree on shape: {pixels.shape} vs {frame.shape}")
        np.copyto(frame, pixels)
        spec = _fft.rfft2(frame)
        s_half += spec.real * spec.real
        s_half += spec.imag * spec.imag
    s_half /= m * n

    plane = np.empty((m, n), dtype=np.float64)
    plane[:, :n_half] = s_half
    # column k >= n_half mirrors row (M-h) % M of column N-k, for k = n_half..N-1
    plane[:, n_half:] = s_half[(m - np.arange(m)) % m, n - n_half : 0 : -1]
    return np.fft.fftshift(plane) if center_dc else plane


def write_grid(values: np.ndarray, dest: str | os.PathLike | TextIO) -> None:
    """Dump a 2D array as a self-describing text grid.

    First line: ``<rows> <cols>``; then one line per row of full-precision
    row-major values. Meant for external plotting of TPSD planes and
    correlation maps.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"grid dump needs a 2D array, got {values.ndim}D")
    own = isinstance(dest, (str, os.PathLike))
    fh: TextIO = open(dest, "w", encoding="utf-8") if own else dest  # type: ignore[arg-type]
    try:
        fh.write(f"{values.shape[0]} {values.shape[1]}\n")
        for row in values:
            fh.write(" ".join(format(v, ".17g") for v in row))
            fh.write("\n")
    finally:
        if own:
            fh.close()


def read_grid(source: str | os.PathLike | TextIO) -> np.ndarray:
    """Load a grid written by :func:`write_grid`."""
    own = isinstance(source, (str, os.PathLike))
    fh: TextIO = open(source, "r", encoding="utf-8") if own else source  # type: ignore[arg-type]
    try:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("grid header must be '<rows> <cols>'")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(io.StringIO(fh.read()), ndmin=2)
    finally:
        if own:
            fh.close()
    if data.shape != (rows, cols):
        raise ValueError(f"grid body {data.shape} does not match header {(rows, cols)}")
    return data
