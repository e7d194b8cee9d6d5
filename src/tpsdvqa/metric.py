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

import math
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


def _require_finite_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def gaussian_window(radius: int = 5, sigma: float = 1.5) -> np.ndarray:
    """The normalized 1D Gaussian kernel of length ``2*radius + 1``.

    The circular 2D window is its outer product with itself, so every
    smoothing pass correlates the plane with this kernel along each axis.
    """
    if radius < 1:
        raise ValueError(f"window radius must be >= 1, got {radius}")
    _require_finite_positive("window sigma", sigma)
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(u * u) / (2.0 * sigma * sigma))
    return g / g.sum()


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
            _require_finite_positive(name, getattr(self, name))
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


def _check_plane_size(shape: tuple[int, ...], size: int) -> None:
    """A ``size`` x ``size`` window must fit the plane."""
    if shape[0] < size or shape[1] < size:
        raise PlaneTooSmall(
            f"plane {shape[0]}x{shape[1]} is smaller than the {size}x{size} window"
        )


def _smooth(values: np.ndarray, window: np.ndarray, padding: str) -> np.ndarray:
    """Weighted local mean of ``values``: mirror keeps the full size, valid crops."""
    out = correlate1d(values, window, axis=0, mode="reflect")
    out = correlate1d(out, window, axis=1, mode="reflect")
    if padding == "valid":
        d = len(window) // 2
        out = out[d:-d, d:-d]
    elif padding != "mirror":
        raise ValueError(f"padding must be one of {PADDING_MODES}, got {padding!r}")
    return out


def local_moments(
    x_plane: np.ndarray,
    y_plane: np.ndarray,
    window: np.ndarray,
    padding: str = "mirror",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel Gaussian-weighted moments of two planes.

    ``window`` is the 1D kernel from :func:`gaussian_window`. Returns
    ``(mu_x, mu_y, sigma_x, sigma_y, cov)`` from five smoothing passes.
    Variances use the identity var = E[x^2] - E[x]^2; tiny negative results
    from float cancellation are clamped to zero before the square root.
    """
    x = _plane_values(x_plane)
    y = _plane_values(y_plane)
    if x.shape != y.shape:
        raise DimensionMismatch(f"plane shapes differ: {x.shape} vs {y.shape}")
    if np.ndim(window) != 1 or len(window) < 3 or len(window) % 2 == 0:
        raise ValueError(
            f"window must be a 1D kernel of odd length >= 3, got shape {np.shape(window)}"
        )
    _check_plane_size(x.shape, len(window))
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
    window: np.ndarray,
    c: float = 4.5e-4,
    padding: str = "mirror",
) -> np.ndarray:
    """Local cross-correlation map between reference and distorted planes.

    Returns a 2D array holding, per pixel, (cov + C) / (sigma_ref * sigma_dist
    + C). Cauchy-Schwarz bounds the result to [-1, 1] up to float rounding.
    Planes must agree in shape and DC placement and are expected to be
    already normalized.
    """
    _require_finite_positive("stability constant", c)
    _, _, sigma_x, sigma_y, cov = local_moments(ref, dist, window, padding)
    return (cov + c) / (sigma_x * sigma_y + c)


def tensor_score(zeta: np.ndarray) -> float:
    """Arithmetic mean of the correlation map.

    The exact mean lies in [-1, 1]; the float result is clamped into that
    interval so rounding cannot push a score past the bound. A non-finite
    mean raises ValueError instead of being clamped to a bound.
    """
    mean = float(np.asarray(zeta).mean())
    if not math.isfinite(mean):
        raise ValueError(f"correlation map mean is not finite: {mean}")
    return min(1.0, max(-1.0, mean))


def video_score(tensor_scores: Sequence[float], beta: float = 1.0) -> float:
    """Mean-pool tensor scores, then raise to ``beta``.

    A negative mean with a non-integral exponent has no real power; that is
    surfaced as NegativeBase instead of a silent NaN.
    """
    if len(tensor_scores) == 0:
        raise ValueError("need at least one tensor score")
    _require_finite_positive("beta", beta)
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
    zeta_callback: Callable[[int, np.ndarray], None] | None = None,
    ref_planes: list[np.ndarray] | None = None,
) -> QualityReport:
    """Score a distorted sequence against its reference.

    Both sequences are grouped into tensors, each pair is reduced to its
    aggregated PSD planes, normalized, correlated, and pooled; tensors are
    paired strictly by position (temporal alignment is assumed). Each tensor
    is a slice of the input, so a ``FileFrames`` input is read frame by frame.
    ``zeta_callback`` receives each tensor's index and correlation map (the
    2D array ``zeta_map`` returns) as it is produced.

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
    window: np.ndarray | None = None

    timings = {"transform": 0.0, "correlate": 0.0, "pool": 0.0}
    scores: list[float] = []
    depths: list[int] = []
    for index, (lo, hi) in enumerate(bounds):
        t0 = time.perf_counter()
        if ref_planes is not None and index < len(ref_planes):
            plane_r = ref_planes[index]
        else:
            plane_r = tpsd_of_tensor(ref_frames[lo : hi + 1], cfg.center_dc)
            if ref_planes is not None:
                ref_planes.append(plane_r)
        if window is None:
            # a window too big for the planes fails before its kernel is built
            _check_plane_size(plane_r.shape, 2 * cfg.window_radius + 1)
            window = gaussian_window(cfg.window_radius, cfg.window_sigma)
        plane_d = tpsd_of_tensor(dist_frames[lo : hi + 1], cfg.center_dc)
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
