"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: direct summation DFTs, double-loop
window statistics, per-pixel arithmetic. Nothing imports the library's fast
paths (scipy.fft / scipy.ndimage), so agreement between the two routes is
meaningful evidence. The one exception, ``zeta_whole_plane``, checks a
restructuring rather than the arithmetic and says so.
"""

from __future__ import annotations

import math

import numpy as np

from tpsdvqa.metric import local_moments
from tpsdvqa.video_io import LumaFrame


def frames_of(x: np.ndarray) -> list[LumaFrame]:
    """The ``O`` frames of an ``(M, N, O)`` sample array."""
    return [LumaFrame(x[:, :, t]) for t in range(x.shape[2])]


def dft3_direct(x: np.ndarray) -> np.ndarray:
    """Direct-sum forward 3D DFT: one explicit triple sum per output bin."""
    x = np.asarray(x, dtype=np.float64)
    m, n, o = x.shape
    mg = np.arange(m).reshape(m, 1, 1)
    ng = np.arange(n).reshape(1, n, 1)
    og = np.arange(o).reshape(1, 1, o)
    out = np.empty((m, n, o), dtype=np.complex128)
    for h in range(m):
        for k in range(n):
            for el in range(o):
                phase = -2j * np.pi * (h * mg / m + k * ng / n + el * og / o)
                out[h, k, el] = np.sum(x * np.exp(phase))
    return out


def dft2_direct(frame: np.ndarray) -> np.ndarray:
    """Direct-sum forward 2D DFT."""
    frame = np.asarray(frame, dtype=np.float64)
    m, n = frame.shape
    mg = np.arange(m).reshape(m, 1)
    ng = np.arange(n).reshape(1, n)
    out = np.empty((m, n), dtype=np.complex128)
    for h in range(m):
        for k in range(n):
            phase = -2j * np.pi * (h * mg / m + k * ng / n)
            out[h, k] = np.sum(frame * np.exp(phase))
    return out


def tpsd_direct(x: np.ndarray, center_dc: bool) -> np.ndarray:
    """Aggregated PSD plane via the direct DFT, with manual DC centering."""
    spectrum = dft3_direct(x)
    m, n, o = x.shape
    psd = np.abs(spectrum) ** 2 / (m * n * o)
    plane = psd.sum(axis=2)
    if not center_dc:
        return plane
    centered = np.empty_like(plane)
    for h in range(m):
        for k in range(n):
            centered[(h + m // 2) % m, (k + n // 2) % n] = plane[h, k]
    return centered


def _mirror(i: int, n: int) -> int:
    """Symmetric (edge-repeating) reflection of an out-of-range index."""
    if i < 0:
        return -i - 1
    if i >= n:
        return 2 * n - i - 1
    return i


def local_moments_direct(
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    padding: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Double-loop weighted window statistics: (mu_x, mu_y, sigma_x, sigma_y, cov).

    Deviations are accumulated in the subtract-then-multiply form, not via
    the E[x^2] - mu^2 identity the fast path uses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, n = x.shape
    d = (weights.shape[0] - 1) // 2
    if padding == "valid":
        centers = [(i, j) for i in range(d, m - d) for j in range(d, n - d)]
        shape = (m - 2 * d, n - 2 * d)
    else:
        centers = [(i, j) for i in range(m) for j in range(n)]
        shape = (m, n)

    mu_x = np.empty(shape)
    mu_y = np.empty(shape)
    sig_x = np.empty(shape)
    sig_y = np.empty(shape)
    cov = np.empty(shape)
    for idx, (i, j) in enumerate(centers):
        oi, oj = divmod(idx, shape[1])
        ax = ay = 0.0
        for u in range(-d, d + 1):
            for v in range(-d, d + 1):
                w = weights[u + d, v + d]
                ii = _mirror(i + u, m)
                jj = _mirror(j + v, n)
                ax += w * x[ii, jj]
                ay += w * y[ii, jj]
        mu_x[oi, oj] = ax
        mu_y[oi, oj] = ay
        vx = vy = cxy = 0.0
        for u in range(-d, d + 1):
            for v in range(-d, d + 1):
                w = weights[u + d, v + d]
                ii = _mirror(i + u, m)
                jj = _mirror(j + v, n)
                dx = x[ii, jj] - ax
                dy = y[ii, jj] - ay
                vx += w * dx * dx
                vy += w * dy * dy
                cxy += w * dx * dy
        sig_x[oi, oj] = math.sqrt(max(vx, 0.0))
        sig_y[oi, oj] = math.sqrt(max(vy, 0.0))
        cov[oi, oj] = cxy
    return mu_x, mu_y, sig_x, sig_y, cov


def zeta_direct(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, c: float, padding: str
) -> np.ndarray:
    """Straight-line correlation map from the double-loop moments."""
    _, _, sig_x, sig_y, cov = local_moments_direct(x, y, weights, padding)
    return (cov + c) / (sig_x * sig_y + c)


def zeta_whole_plane(
    x: np.ndarray, y: np.ndarray, window: np.ndarray, c: float, padding: str
) -> np.ndarray:
    """The correlation map from one whole-plane ``local_moments`` call.

    Unlike the rest of this module it uses the library's smoothing, so that
    a map built band by band can be required to equal it bit for bit.
    """
    _, _, sig_x, sig_y, cov = local_moments(x, y, window, padding)
    return (cov + c) / (sig_x * sig_y + c)


def gaussian_weights_direct(radius: int, sigma: float) -> np.ndarray:
    """Normalized circular Gaussian grid built from the scalar formula."""
    size = 2 * radius + 1
    w = np.empty((size, size))
    for u in range(-radius, radius + 1):
        for v in range(-radius, radius + 1):
            w[u + radius, v + radius] = math.exp(-(u * u + v * v) / (2.0 * sigma * sigma))
    return w / w.sum()


def pipeline_direct(
    ref: np.ndarray,
    dist: np.ndarray,
    radius: int,
    sigma: float,
    c: float,
    center_dc: bool,
    padding: str,
    normalization: str = "ref-max",
) -> float:
    """Full straight-line tensor score: direct DFT, loop windows, plain mean."""
    plane_r = tpsd_direct(ref, center_dc)
    plane_d = tpsd_direct(dist, center_dc)
    if normalization == "ref-max":
        scale = plane_r.max()
        if scale > 0:
            plane_r = plane_r / scale
            plane_d = plane_d / scale
    elif normalization == "log10":
        plane_r = np.log10(1.0 + plane_r)
        plane_d = np.log10(1.0 + plane_d)
    weights = gaussian_weights_direct(radius, sigma)
    zeta = zeta_direct(plane_r, plane_d, weights, c, padding)
    total = 0.0
    for row in zeta:
        for value in row:
            total += value
    return total / zeta.size


def psnr_direct(ref_frames, dist_frames) -> float:
    """Per-pixel loop PSNR for small fixtures."""
    total = 0.0
    count = 0
    for rf, df in zip(ref_frames, dist_frames):
        r = np.asarray(rf, dtype=np.float64)
        d = np.asarray(df, dtype=np.float64)
        for i in range(r.shape[0]):
            for j in range(r.shape[1]):
                e = r[i, j] - d[i, j]
                total += e * e
                count += 1
    if total == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / (total / count))


def average_ranks_direct(values) -> list[float]:
    """1-based ranks with ties averaged: each value's rank counted pairwise."""
    return [
        sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2.0
        for v in values
    ]
