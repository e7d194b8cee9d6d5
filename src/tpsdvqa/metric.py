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

from .errors import (
    CenteringMismatch,
    DimensionMismatch,
    FrameCountMismatch,
    NegativeBase,
    PlaneTooSmall,
)
from .spectral import TpsdPlane, tpsd_of_tensor
from .video_io import LumaFrame, VideoDescriptor, group_tensors

__all__ = [
    "NORMALIZATION_MODES",
    "PADDING_MODES",
    "GaussianWindow",
    "MetricConfig",
    "ZetaMap",
    "QualityReport",
    "gaussian_window",
    "normalize_planes",
    "local_moments",
    "zeta_map",
    "tensor_score",
    "video_score",
    "assess",
]

NORMALIZATION_MODES = ("ref-max", "none", "log10")
PADDING_MODES = ("mirror", "valid")


@dataclass(frozen=True, eq=False)
class GaussianWindow:
    """Normalized circular-symmetric Gaussian weights on a (2d+1) x (2d+1) grid.

    ``kernel1d`` is the separable 1D factor (weights == outer(kernel1d, kernel1d)).
    """

    weights: np.ndarray
    radius: int
    sigma: float
    kernel1d: np.ndarray

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError(f"window radius must be >= 1, got {self.radius}")
        if self.sigma <= 0:
            raise ValueError(f"window sigma must be positive, got {self.sigma}")
        size = 2 * self.radius + 1
        if self.weights.shape != (size, size):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match radius {self.radius}"
            )

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
    return GaussianWindow(weights=np.outer(g, g), radius=radius, sigma=sigma, kernel1d=g)


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


@dataclass(frozen=True, eq=False)
class ZetaMap:
    """Per-frequency local cross-correlation between two planes, in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"correlation map must be 2D, got {self.values.ndim}D")


@dataclass(frozen=True)
class QualityReport:
    """Per-tensor scores, the pooled video score, and run metadata."""

    tensor_scores: tuple[float, ...]
    video_score: float
    config: MetricConfig
    descriptor: VideoDescriptor
    tensor_depths: tuple[int, ...] = ()
    frame_range: tuple[int, int] | None = None
    timings: dict[str, float] = field(default_factory=dict)


def _plane_values(plane: TpsdPlane | np.ndarray) -> np.ndarray:
    if isinstance(plane, TpsdPlane):
        return plane.values
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"plane must be 2D, got {arr.ndim}D")
    return arr


def normalize_planes(
    ref: TpsdPlane, dist: TpsdPlane, mode: str = "ref-max"
) -> tuple[TpsdPlane, TpsdPlane]:
    """Map a reference/distorted plane pair into the metric's working range.

    ``ref-max`` divides both planes by the reference plane's maximum entry
    (no-op when the reference is all zeros); ``log10`` applies
    ``log10(1 + plane)`` to each plane; ``none`` passes both through.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization {mode!r}")
    if ref.values.shape != dist.values.shape:
        raise DimensionMismatch(
            f"plane shapes differ: {ref.values.shape} vs {dist.values.shape}"
        )
    if mode == "none":
        return ref, dist
    if mode == "ref-max":
        scale = float(ref.values.max())
        if scale <= 0.0:
            return ref, dist
        return (
            TpsdPlane(ref.values / scale, ref.dc_centered),
            TpsdPlane(dist.values / scale, dist.dc_centered),
        )
    return (
        TpsdPlane(np.log10(1.0 + ref.values), ref.dc_centered),
        TpsdPlane(np.log10(1.0 + dist.values), dist.dc_centered),
    )


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
    x_plane: TpsdPlane | np.ndarray,
    y_plane: TpsdPlane | np.ndarray,
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
    ref: TpsdPlane | np.ndarray,
    dist: TpsdPlane | np.ndarray,
    window: GaussianWindow,
    c: float = 4.5e-4,
    padding: str = "mirror",
) -> ZetaMap:
    """Local cross-correlation map between reference and distorted planes.

    Per pixel: (cov + C) / (sigma_ref * sigma_dist + C). Cauchy-Schwarz
    bounds the result to [-1, 1] up to float rounding. Planes must agree in
    shape and DC-centering and are expected to be already normalized.
    """
    if c <= 0:
        raise ValueError(f"stability constant must be positive, got {c}")
    if isinstance(ref, TpsdPlane) and isinstance(dist, TpsdPlane):
        if ref.dc_centered != dist.dc_centered:
            raise CenteringMismatch(
                f"dc_centered flags differ: ref={ref.dc_centered} dist={dist.dc_centered}"
            )
    _, _, sigma_x, sigma_y, cov = local_moments(ref, dist, window, padding)
    return ZetaMap(values=(cov + c) / (sigma_x * sigma_y + c))


def tensor_score(zeta: ZetaMap | np.ndarray) -> float:
    """Arithmetic mean of the correlation map.

    The exact mean lies in [-1, 1]; the float result is clamped into that
    interval so rounding cannot push a score past the bound.
    """
    values = zeta.values if isinstance(zeta, ZetaMap) else np.asarray(zeta)
    return float(min(1.0, max(-1.0, values.mean())))


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


def _check_frame_pairing(
    ref_frames: Sequence[LumaFrame], dist_frames: Sequence[LumaFrame]
) -> None:
    if len(ref_frames) != len(dist_frames):
        raise FrameCountMismatch(
            f"reference has {len(ref_frames)} frames, distorted has {len(dist_frames)}"
        )
    if ref_frames and ref_frames[0].pixels.shape != dist_frames[0].pixels.shape:
        raise DimensionMismatch(
            f"frame shapes differ: {ref_frames[0].pixels.shape} vs "
            f"{dist_frames[0].pixels.shape}"
        )


def assess(
    ref_frames: Sequence[LumaFrame],
    dist_frames: Sequence[LumaFrame],
    config: MetricConfig | None = None,
    frame_range: tuple[int, int] | None = None,
    workers: int | None = None,
    zeta_callback: Callable[[int, ZetaMap], None] | None = None,
) -> QualityReport:
    """Score a distorted sequence against its reference.

    Both sequences are grouped into tensors, each pair is reduced to its
    aggregated PSD planes, normalized, correlated, and pooled; tensors are
    paired strictly by position (temporal alignment is assumed).
    ``zeta_callback`` receives each tensor's correlation map as it is
    produced. ``workers`` is passed to the FFT backend.
    """
    cfg = config or MetricConfig()
    _check_frame_pairing(ref_frames, dist_frames)

    ref_tensors = group_tensors(ref_frames, cfg.tensor_len, frame_range)
    dist_tensors = group_tensors(dist_frames, cfg.tensor_len, frame_range)
    descriptor = VideoDescriptor(
        width=ref_frames[0].width, height=ref_frames[0].height, frame_count=len(ref_frames)
    )
    window = gaussian_window(cfg.window_radius, cfg.window_sigma)

    timings = {"transform": 0.0, "correlate": 0.0, "pool": 0.0}
    scores: list[float] = []
    depths: list[int] = []
    for ref_t, dist_t in zip(ref_tensors, dist_tensors):
        t0 = time.perf_counter()
        plane_r = tpsd_of_tensor(ref_t, cfg.center_dc, workers=workers)
        plane_d = tpsd_of_tensor(dist_t, cfg.center_dc, workers=workers)
        t1 = time.perf_counter()
        plane_r, plane_d = normalize_planes(plane_r, plane_d, cfg.plane_normalization)
        zeta = zeta_map(plane_r, plane_d, window, cfg.stability_c, cfg.padding)
        if zeta_callback is not None:
            zeta_callback(ref_t.index, zeta)
        scores.append(tensor_score(zeta))
        t2 = time.perf_counter()
        depths.append(ref_t.depth)
        timings["transform"] += t1 - t0
        timings["correlate"] += t2 - t1

    t3 = time.perf_counter()
    pooled = video_score(scores, cfg.beta)
    timings["pool"] += time.perf_counter() - t3

    return QualityReport(
        tensor_scores=tuple(scores),
        video_score=pooled,
        config=cfg,
        descriptor=descriptor,
        tensor_depths=tuple(depths),
        frame_range=frame_range,
        timings=timings,
    )
