"""Local cross-correlation of time-aggregated power spectra.

The quality of a distorted tensor is judged by how well the local structure
of its aggregated PSD plane tracks the reference plane. Within a circular
Gaussian window centered on every frequency bin, the weighted cross
covariance between the two planes is divided by the product of their
weighted standard deviations; a small constant ``C`` is added to numerator
and denominator so near-zero-variance neighborhoods stay stable and the map
stays within [-1, 1]. Averaging the map gives the tensor score, and the mean
tensor score raised to ``beta`` gives the video score.

The raw aggregated planes of 8-bit video reach magnitudes around 1e10,
which would make any fixed stabilizer meaningless. With the default
``ref-max`` normalization both planes are divided by the reference plane's
maximum, mapping the reference into [0, 1], the range in which the default
``C = 4.5e-4`` is a sensible stabilizer. ``none`` and ``log10`` are offered
for experimentation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.ndimage import correlate1d

from .errors import DimensionMismatch, FrameCountMismatch, NegativeBase, PlaneTooSmall
from .spectral import tpsd_of_tensor
from .video_io import LumaFrame, group_tensors

__all__ = [
    "NORMALIZATION_MODES",
    "PADDING_MODES",
    "GaussianWindow",
    "MetricConfig",
    "QualityReport",
    "gaussian_window",
    "normalize_planes",
    "local_moments",
    "zeta_map",
    "tensor_score",
    "video_score",
    "tensor_bounds",
    "assess",
]

NORMALIZATION_MODES = ("ref-max", "none", "log10")
PADDING_MODES = ("mirror", "valid")


@dataclass(frozen=True, eq=False)
class GaussianWindow:
    """Normalized circular-symmetric Gaussian weights on a (2d+1) x (2d+1) grid.

    Built by :func:`gaussian_window`; ``weights`` is ``outer(kernel1d, kernel1d)``.
    """

    kernel1d: np.ndarray
    radius: int
    sigma: float

    @property
    def weights(self) -> np.ndarray:
        return np.outer(self.kernel1d, self.kernel1d)

    @property
    def size(self) -> int:
        return 2 * self.radius + 1


def gaussian_window(radius: int = 5, sigma: float = 1.5) -> GaussianWindow:
    """Build the circular Gaussian weighting window, normalized to sum 1."""
    if radius < 1:
        raise ValueError(f"window radius must be >= 1, got {radius}")
    if sigma <= 0:
        raise ValueError(f"window sigma must be positive, got {sigma}")
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(u * u) / (2.0 * sigma * sigma))
    g /= g.sum()
    return GaussianWindow(kernel1d=g, radius=radius, sigma=sigma)


@dataclass(frozen=True)
class MetricConfig:
    """All tunables of the metric with their defaults."""

    tensor_len: int = 30
    window_radius: int = 5
    window_sigma: float = 1.5
    stability_c: float = 4.5e-4
    beta: float = 1.0
    plane_normalization: str = "ref-max"
    center_dc: bool = True
    padding: str = "mirror"

    def __post_init__(self) -> None:
        if self.tensor_len < 2:
            raise ValueError(f"tensor_len must be >= 2, got {self.tensor_len}")
        if self.window_radius < 1:
            raise ValueError(f"window_radius must be >= 1, got {self.window_radius}")
        for name in ("window_sigma", "stability_c", "beta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.plane_normalization not in NORMALIZATION_MODES:
            raise ValueError(
                f"plane_normalization must be one of {NORMALIZATION_MODES}, "
                f"got {self.plane_normalization!r}"
            )
        if self.padding not in PADDING_MODES:
            raise ValueError(f"padding must be one of {PADDING_MODES}, got {self.padding!r}")


@dataclass(frozen=True)
class QualityReport:
    """Per-tensor scores and depths, the pooled video score, and stage timings."""

    tensor_scores: tuple[float, ...]
    video_score: float
    tensor_depths: tuple[int, ...] = ()
    timings: dict[str, float] = field(default_factory=dict)


def _plane_values(plane: np.ndarray) -> np.ndarray:
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"plane must be 2D, got {arr.ndim}D")
    return arr


def normalize_planes(
    ref: np.ndarray, dist: np.ndarray, mode: str = "ref-max"
) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference/distorted plane pair into the metric's working range.

    ``ref-max`` divides both planes by the reference plane's maximum entry
    (no-op when the reference is all zeros); ``log10`` applies
    ``log10(1 + plane)`` to each plane; ``none`` passes both through.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization {mode!r}")
    ref = _plane_values(ref)
    dist = _plane_values(dist)
    if ref.shape != dist.shape:
        raise DimensionMismatch(f"plane shapes differ: {ref.shape} vs {dist.shape}")
    if mode == "none":
        return ref, dist
    if mode == "ref-max":
        scale = float(ref.max())
        if scale <= 0.0:
            return ref, dist
        return ref / scale, dist / scale
    return np.log10(1.0 + ref), np.log10(1.0 + dist)


def _check_plane_size(shape: tuple[int, ...], window: GaussianWindow) -> None:
    if shape[0] < window.size or shape[1] < window.size:
        raise PlaneTooSmall(
            f"plane {shape[0]}x{shape[1]} is smaller than the "
            f"{window.size}x{window.size} window"
        )


def _smooth(values: np.ndarray, window: GaussianWindow, padding: str) -> np.ndarray:
    """Weighted local mean of ``values``: mirror keeps the full size, valid crops."""
    out = correlate1d(values, window.kernel1d, axis=0, mode="reflect")
    out = correlate1d(out, window.kernel1d, axis=1, mode="reflect")
    if padding == "valid":
        d = window.radius
        out = out[d:-d, d:-d]
    elif padding != "mirror":
        raise ValueError(f"padding must be one of {PADDING_MODES}, got {padding!r}")
    return out


def local_moments(
    x_plane: np.ndarray,
    y_plane: np.ndarray,
    window: GaussianWindow,
    padding: str = "mirror",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel Gaussian-weighted moments of two planes.

    Returns ``(mu_x, mu_y, sigma_x, sigma_y, cov)`` from five smoothing
    passes. Variances use the identity var = E[x^2] - E[x]^2; tiny negative
    results from float cancellation are clamped to zero before the square
    root.
    """
    x = _plane_values(x_plane)
    y = _plane_values(y_plane)
    if x.shape != y.shape:
        raise DimensionMismatch(f"plane shapes differ: {x.shape} vs {y.shape}")
    _check_plane_size(x.shape, window)
    mu_x = _smooth(x, window, padding)
    mu_y = _smooth(y, window, padding)
    var_x = _smooth(x * x, window, padding) - mu_x * mu_x
    var_y = _smooth(y * y, window, padding) - mu_y * mu_y
    np.maximum(var_x, 0.0, out=var_x)
    np.maximum(var_y, 0.0, out=var_y)
    cov = _smooth(x * y, window, padding) - mu_x * mu_y
    return mu_x, mu_y, np.sqrt(var_x), np.sqrt(var_y), cov


def zeta_map(
    ref: np.ndarray,
    dist: np.ndarray,
    window: GaussianWindow,
    c: float = 4.5e-4,
    padding: str = "mirror",
) -> np.ndarray:
    """Local cross-correlation map between reference and distorted planes.

    Returns a 2D array holding, per pixel, (cov + C) / (sigma_ref * sigma_dist
    + C). Cauchy-Schwarz bounds the result to [-1, 1] up to float rounding.
    Planes must agree in shape and DC placement and are expected to be
    already normalized.
    """
    if c <= 0:
        raise ValueError(f"stability constant must be positive, got {c}")
    _, _, sigma_x, sigma_y, cov = local_moments(ref, dist, window, padding)
    return (cov + c) / (sigma_x * sigma_y + c)


def tensor_score(zeta: np.ndarray) -> float:
    """Arithmetic mean of the correlation map.

    The exact mean lies in [-1, 1]; the float result is clamped into that
    interval so rounding cannot push a score past the bound.
    """
    return float(min(1.0, max(-1.0, np.asarray(zeta).mean())))


def video_score(tensor_scores: Sequence[float], beta: float = 1.0) -> float:
    """Mean-pool tensor scores, then raise to ``beta``.

    A negative mean with a non-integral exponent has no real power; that is
    surfaced as NegativeBase instead of a silent NaN.
    """
    if len(tensor_scores) == 0:
        raise ValueError("need at least one tensor score")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    mean = float(np.mean(tensor_scores))
    if mean < 0 and not float(beta).is_integer():
        raise NegativeBase(
            f"mean tensor score {mean:.6g} is negative; beta={beta} is not an integer"
        )
    return mean**beta


def tensor_bounds(
    ref_frames: Sequence[LumaFrame],
    dist_frames: Sequence[LumaFrame],
    tensor_len: int,
    frame_range: tuple[int, int] | None = None,
) -> list[tuple[int, int]]:
    """Inclusive (first, last) frame bounds of the tensors ``assess`` pairs up.

    Raises FrameCountMismatch when the sequences differ in length, then
    whatever ``group_tensors`` raises for the range.
    """
    if len(ref_frames) != len(dist_frames):
        raise FrameCountMismatch(
            f"reference has {len(ref_frames)} frames, distorted has {len(dist_frames)}"
        )
    return group_tensors(len(ref_frames), tensor_len, frame_range)


def assess(
    ref_frames: Sequence[LumaFrame],
    dist_frames: Sequence[LumaFrame],
    config: MetricConfig | None = None,
    frame_range: tuple[int, int] | None = None,
    workers: int | None = None,
    zeta_callback: Callable[[int, np.ndarray], None] | None = None,
    ref_planes: list[np.ndarray] | None = None,
) -> QualityReport:
    """Score a distorted sequence against its reference.

    Both sequences are grouped into tensors, each pair is reduced to its
    aggregated PSD planes, normalized, correlated, and pooled; tensors are
    paired strictly by position (temporal alignment is assumed). Each tensor
    is a slice of the input, so a ``FileFrames`` input is read frame by frame.
    ``zeta_callback`` receives each tensor's index and correlation map (the
    2D array ``zeta_map`` returns) as it is produced. ``workers`` is passed
    to the FFT backend.

    ``ref_planes``, when given, caches the reference's per-tensor planes
    across calls: a plane it already holds (by tensor index) is reused, and
    one it lacks is computed and appended. Pass the same list only to calls
    on the same reference frames, ``frame_range`` and ``config``. The list
    holds one plane per tensor of the range, so a cache over a whole clip
    grows with its length; ``score_manifest`` passes one tensor's range at a
    time and keeps one plane.
    """
    cfg = config or MetricConfig()
    bounds = tensor_bounds(ref_frames, dist_frames, cfg.tensor_len, frame_range)
    window = gaussian_window(cfg.window_radius, cfg.window_sigma)

    timings = {"transform": 0.0, "correlate": 0.0, "pool": 0.0}
    scores: list[float] = []
    depths: list[int] = []
    for index, (lo, hi) in enumerate(bounds):
        t0 = time.perf_counter()
        if ref_planes is not None and index < len(ref_planes):
            plane_r = ref_planes[index]
        else:
            plane_r = tpsd_of_tensor(ref_frames[lo : hi + 1], cfg.center_dc, workers=workers)
            if ref_planes is not None:
                ref_planes.append(plane_r)
        plane_d = tpsd_of_tensor(dist_frames[lo : hi + 1], cfg.center_dc, workers=workers)
        t1 = time.perf_counter()
        plane_r, plane_d = normalize_planes(plane_r, plane_d, cfg.plane_normalization)
        zeta = zeta_map(plane_r, plane_d, window, cfg.stability_c, cfg.padding)
        if zeta_callback is not None:
            zeta_callback(index, zeta)
        scores.append(tensor_score(zeta))
        del plane_r, plane_d, zeta  # so no uncached plane outlives its tensor
        t2 = time.perf_counter()
        depths.append(hi - lo + 1)
        timings["transform"] += t1 - t0
        timings["correlate"] += t2 - t1

    t3 = time.perf_counter()
    pooled = video_score(scores, cfg.beta)
    timings["pool"] += time.perf_counter() - t3

    return QualityReport(
        tensor_scores=tuple(scores),
        video_score=pooled,
        tensor_depths=tuple(depths),
        timings=timings,
    )
