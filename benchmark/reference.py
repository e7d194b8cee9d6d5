"""Independent route to the metric's scores and PSNR, in numpy alone.

Nothing here imports ``tpsdvqa.spectral`` or ``tpsdvqa.metric``. The plane
is built per frame from ``numpy.fft.fft2``: Parseval along the time axis
turns the sum of 3D power over temporal frequency into the sum of 2D power
over frames. The Gaussian window is applied as two 1D passes over an
explicitly padded array. Each tensor's deficit ``1 - score`` is computed
directly as ``mean((s_r s_d - cov) / (s_r s_d + C))`` rather than as one
minus a mean near 1, so it keeps its digits.

``fixtures.py`` runs it once per fixture set and caches the result beside
the fixtures as ``reference.json``.
"""

from __future__ import annotations

import math

import numpy as np

# The program's defaults: 11x11 window of sigma 1.5, C = 4.5e-4, ref-max
# normalization, DC centred, symmetric (mirror) borders, beta 1.
RADIUS = 5
SIGMA = 1.5
STABILITY_C = 4.5e-4


def read_luma(path: str, width: int, height: int) -> np.ndarray:
    """All luma planes of a raw YUV 4:2:0 file as a (frames, height, width) uint8 array."""
    frame_size = width * height * 3 // 2
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % frame_size:
        raise ValueError(f"{path}: {raw.size} bytes is not a whole number of frames")
    return raw.reshape(-1, frame_size)[:, : width * height].reshape(-1, height, width)


def plane(frames: np.ndarray) -> np.ndarray:
    """DC-centred time-aggregated power plane: sum_t |fft2(frame_t)|^2 / (M N)."""
    _, m, n = frames.shape
    acc = np.zeros((m, n))
    for f in frames:
        acc += np.abs(np.fft.fft2(f)) ** 2
    return np.fft.fftshift(acc / (m * n))


def gaussian_kernel(radius: int = RADIUS, sigma: float = SIGMA) -> np.ndarray:
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(u * u) / (2.0 * sigma * sigma))
    return g / g.sum()


def smooth(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable weighted local mean with edge-repeating (symmetric) padding."""
    r = len(g) // 2
    m, n = x.shape
    p = np.pad(x, ((r, r), (0, 0)), mode="symmetric")
    rows = sum(g[i] * p[i : i + m] for i in range(len(g)))
    p = np.pad(rows, ((0, 0), (r, r)), mode="symmetric")
    return sum(g[j] * p[:, j : j + n] for j in range(len(g)))


def deficit(ref_plane: np.ndarray, dist_plane: np.ndarray, c: float = STABILITY_C) -> float:
    """One tensor's ``1 - score`` under ref-max normalization, computed directly."""
    scale = ref_plane.max()
    x = ref_plane / scale
    y = dist_plane / scale
    g = gaussian_kernel()
    mu_x = smooth(x, g)
    mu_y = smooth(y, g)
    var_x = np.maximum(smooth(x * x, g) - mu_x * mu_x, 0.0)
    var_y = np.maximum(smooth(y * y, g) - mu_y * mu_y, 0.0)
    cov = smooth(x * y, g) - mu_x * mu_y
    s = np.sqrt(var_x) * np.sqrt(var_y)
    return float(np.mean((s - cov) / (s + c)))


def tensor_bounds(frame_count: int, tensor_len: int) -> list[tuple[int, int]]:
    """Inclusive frame ranges of the tensors; a lone trailing frame is dropped."""
    return [
        (start, min(start + tensor_len, frame_count) - 1)
        for start in range(0, frame_count, tensor_len)
        if min(start + tensor_len, frame_count) - start >= 2
    ]


def psnr_db(ref: np.ndarray, dist: np.ndarray) -> float:
    """PSNR over all luma samples, with the squared error summed exactly in integers."""
    diff = ref.astype(np.int64) - dist.astype(np.int64)
    sse = int(np.sum(diff * diff))
    if sse == 0:
        return math.inf
    return 10.0 * math.log10(255.0**2 * diff.size / sse)


def compute(pairs: list[dict], tensor_len: int) -> list[dict]:
    """Reference figures for each pair; each reference clip's planes are made once.

    ``pairs`` holds dicts with ``ref``, ``dist``, ``width`` and ``height``.
    """
    out = []
    ref_planes: dict[str, list[np.ndarray]] = {}
    for pair in pairs:
        ref = read_luma(pair["ref"], pair["width"], pair["height"])
        dist = read_luma(pair["dist"], pair["width"], pair["height"])
        bounds = tensor_bounds(ref.shape[0], tensor_len)
        if pair["ref"] not in ref_planes:
            ref_planes[pair["ref"]] = [plane(ref[lo : hi + 1]) for lo, hi in bounds]
        deficits = [
            deficit(ref_plane, plane(dist[lo : hi + 1]))
            for ref_plane, (lo, hi) in zip(ref_planes[pair["ref"]], bounds)
        ]
        out.append({"deficits": deficits, "psnr_db": psnr_db(ref, dist)})
    return out
