"""3D spectral analysis of luma tensors.

A tensor of ``O`` frames of size ``M x N`` is treated as one 3D signal. Its
power spectral density is the squared magnitude of the unnormalized forward
3D DFT divided by ``M*N*O`` (the periodogram; total PSD equals the mean
squared sample energy). Summing the PSD over the temporal frequency axis
yields the 2D time-aggregated plane that the quality metric correlates.

:func:`dft3`, :func:`psd3` and :func:`tpsd` follow that definition step by
step. :func:`tpsd_of_tensor`, which the metric uses, computes the same plane
per frame: by Parseval's theorem along the time axis it equals
``(1/(M*N)) * sum_t |FFT2(frame_t)|^2``, so neither the 3D transform nor a
stacked float64 tensor is needed.

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
    "Spectrum3D",
    "Psd3D",
    "TpsdPlane",
    "dft3",
    "psd3",
    "tpsd",
    "tpsd_of_tensor",
    "write_grid",
    "read_grid",
]


@dataclass(frozen=True, eq=False)
class Spectrum3D:
    """Complex 3D DFT coefficients, shape (M, N, O): rows, columns, time."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 3:
            raise ValueError(f"spectrum must be 3D, got {self.values.ndim}D")


@dataclass(frozen=True, eq=False)
class Psd3D:
    """3D power spectral density: non-negative reals, shape (M, N, O)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 3:
            raise ValueError(f"PSD must be 3D, got {self.values.ndim}D")


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


def _tensor_array(tensor: LumaTensor | np.ndarray) -> np.ndarray:
    if isinstance(tensor, LumaTensor):
        return tensor.as_array()
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"tensor array must be 3D, got {arr.ndim}D")
    if arr.shape[2] < 2:
        raise ValueError(f"tensor depth must be >= 2, got {arr.shape[2]}")
    return arr


def _frame_arrays(tensor: LumaTensor | np.ndarray) -> list[np.ndarray]:
    """The tensor's frames as 2D arrays, without stacking them."""
    if isinstance(tensor, LumaTensor):
        return [f.pixels for f in tensor.frames]
    arr = _tensor_array(tensor)
    return [arr[:, :, t] for t in range(arr.shape[2])]


def dft3(tensor: LumaTensor | np.ndarray, workers: int | None = None) -> Spectrum3D:
    """Forward unnormalized 3D DFT of a tensor.

    No scale factor is applied inside the transform; the 1/(M*N*O)
    normalization lives entirely in :func:`psd3`.
    """
    arr = _tensor_array(tensor)
    return Spectrum3D(values=_fft.fftn(arr, workers=workers))


def psd3(spectrum: Spectrum3D) -> Psd3D:
    """Power spectral density: |X|^2 / (M*N*O) per bin."""
    x = spectrum.values
    m, n, o = x.shape
    power = (x.real * x.real + x.imag * x.imag) / (m * n * o)
    return Psd3D(values=power)


def tpsd(psd: Psd3D, center_dc: bool = True) -> TpsdPlane:
    """Aggregate the PSD over all temporal frequency bins into a 2D plane.

    With ``center_dc`` the plane is circularly shifted so the zero-frequency
    bin lands at (M//2, N//2). Aggregation conserves total power.
    """
    plane = psd.values.sum(axis=2)
    if center_dc:
        plane = np.fft.fftshift(plane)
    return TpsdPlane(values=plane, dc_centered=center_dc)


def tpsd_of_tensor(
    tensor: LumaTensor | np.ndarray,
    center_dc: bool = True,
    workers: int | None = None,
) -> TpsdPlane:
    """Time-aggregated PSD plane straight from a tensor, one frame at a time.

    Equal to ``tpsd(psd3(dft3(tensor)))``: by Parseval's theorem along the
    time axis, summing the 3D PSD over temporal frequency gives
    ``(1/(M*N)) * sum_t |FFT2(frame_t)|^2``. Each frame's real-input half
    spectrum is folded into one ``(M, N//2 + 1)`` accumulator, so memory is
    O(frame) whatever the depth, and the dropped columns are restored from
    the plane's point symmetry T[h, k] == T[(M-h) % M, (N-k) % N].
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
