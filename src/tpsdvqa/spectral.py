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
from dataclasses import dataclass
from typing import TextIO

import numpy as np
import scipy.fft as _fft

from .video_io import LumaTensor

__all__ = [
    "TpsdPlane",
    "tpsd_of_tensor",
    "write_grid",
    "read_grid",
]


@dataclass(frozen=True, eq=False)
class TpsdPlane:
    """Time-aggregated PSD plane, shape (M, N).

    ``dc_centered`` records whether the zero-frequency bin has been shifted
    to (M//2, N//2).
    """

    values: np.ndarray
    dc_centered: bool = False

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"plane must be 2D, got {self.values.ndim}D")


def _frame_arrays(tensor: LumaTensor | np.ndarray) -> list[np.ndarray]:
    """The tensor's frames as 2D arrays, without stacking them."""
    if isinstance(tensor, LumaTensor):
        return [f.pixels for f in tensor.frames]
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"tensor array must be 3D, got {arr.ndim}D")
    if arr.shape[2] < 2:
        raise ValueError(f"tensor depth must be >= 2, got {arr.shape[2]}")
    return [arr[:, :, t] for t in range(arr.shape[2])]


def tpsd_of_tensor(
    tensor: LumaTensor | np.ndarray,
    center_dc: bool = True,
    workers: int | None = None,
) -> TpsdPlane:
    """Time-aggregated PSD plane straight from a tensor, one frame at a time.

    ``tensor`` is a :class:`LumaTensor` or an array of shape ``(M, N, O)``
    with ``O >= 2``. Each frame's real-input half spectrum is folded into
    one ``(M, N//2 + 1)`` accumulator, so memory is O(frame) whatever the
    depth, and the dropped columns are restored from the plane's point
    symmetry T[h, k] == T[(M-h) % M, (N-k) % N].
    """
    frames = _frame_arrays(tensor)
    m, n = frames[0].shape
    n_half = n // 2 + 1
    s_half = np.zeros((m, n_half), dtype=np.float64)
    for frame in frames:
        spec = _fft.rfft2(np.asarray(frame, dtype=np.float64), workers=workers)
        s_half += spec.real * spec.real
        s_half += spec.imag * spec.imag
    s_half /= m * n

    plane = np.empty((m, n), dtype=np.float64)
    plane[:, :n_half] = s_half
    # column k >= n_half mirrors row (M-h) % M of column N-k, for k = n_half..N-1
    plane[:, n_half:] = s_half[(m - np.arange(m)) % m, n - n_half : 0 : -1]
    if center_dc:
        plane = np.fft.fftshift(plane)
    return TpsdPlane(values=plane, dc_centered=center_dc)


def write_grid(plane: TpsdPlane | np.ndarray, dest: str | os.PathLike | TextIO) -> None:
    """Dump a 2D array as a self-describing text grid.

    First line: ``<rows> <cols>``; then one line per row of full-precision
    row-major values. Meant for external plotting of TPSD planes and
    correlation maps.
    """
    values = plane.values if isinstance(plane, TpsdPlane) else np.asarray(plane)
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
