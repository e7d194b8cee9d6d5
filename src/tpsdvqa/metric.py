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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
import scipy.fft
from scipy.ndimage import correlate1d

from .errors import DimensionMismatch, FrameCountMismatch, NegativeBase, PlaneTooSmall
from .spectral import tpsd_of_tensor
from .video_io import FileFrames, LumaFrame, group_tensors

__all__ = [
    "NORMALIZATION_MODES",
    "PADDING_MODES",
    "ZETA_BAND_ROWS",
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
# rows of the correlation map computed from one slab of moments
ZETA_BAND_ROWS = 64


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
    # the exponent's divisor must not underflow to zero, nor its largest value overflow
    two_var = 2.0 * sigma * sigma
    if two_var == 0.0 or math.isinf(radius * radius / two_var):
        raise ValueError(f"window sigma {sigma} is too small for a radius-{radius} window")
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(u * u) / two_var)
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


def _check_plane_size(shape: tuple[int, ...], size: int) -> None:
    """A ``size`` x ``size`` window must fit the plane."""
    if shape[0] < size or shape[1] < size:
        raise PlaneTooSmall(
            f"plane {shape[0]}x{shape[1]} is smaller than the {size}x{size} window"
        )


def _plane_pair(
    x_plane: np.ndarray, y_plane: np.ndarray, window: np.ndarray | None = None, padding="mirror"
) -> tuple[np.ndarray, np.ndarray, tuple[slice, slice]]:
    """Both planes as 2D float64 arrays of one shape, and the rows and columns
    that ``padding`` keeps. A ``window`` must be an odd 1D kernel that fits the
    planes; ``valid`` keeps the ``mirror`` result less the window radius at
    every edge, since no kept bin's window reaches a mirrored value.
    """
    x = np.asarray(x_plane, dtype=np.float64)
    y = np.asarray(y_plane, dtype=np.float64)
    for arr in (x, y):
        if arr.ndim != 2:
            raise ValueError(f"plane must be 2D, got {arr.ndim}D")
    if x.shape != y.shape:
        raise DimensionMismatch(f"plane shapes differ: {x.shape} vs {y.shape}")
    d = 0
    if window is not None:
        if np.ndim(window) != 1 or len(window) < 3 or len(window) % 2 == 0:
            raise ValueError(
                f"window must be a 1D kernel of odd length >= 3, got shape {np.shape(window)}"
            )
        _check_plane_size(x.shape, len(window))
        if padding not in PADDING_MODES:
            raise ValueError(f"padding must be one of {PADDING_MODES}, got {padding!r}")
        d = len(window) // 2 if padding == "valid" else 0
    m, n = x.shape
    return x, y, (slice(d, m - d), slice(d, n - d))


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
    ref, dist, _ = _plane_pair(ref, dist)
    if mode == "none":
        return ref, dist
    if mode == "ref-max":
        scale = float(ref.max())
        if scale <= 0.0:
            return ref, dist
        return ref / scale, dist / scale
    return np.log10(1.0 + ref), np.log10(1.0 + dist)


def _smooth(
    values: np.ndarray, window: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> None:
    """Weighted local mean of ``values`` into ``out``, mirrored at the edges."""
    correlate1d(values, window, axis=0, mode="reflect", output=scratch)
    correlate1d(scratch, window, axis=1, mode="reflect", output=out)


def _workspace(shape: tuple[int, int]) -> list[np.ndarray]:
    """The seven arrays ``_moments`` writes into: five moments and two scratch."""
    return [np.empty(shape) for _ in range(7)]


def _moments(
    x: np.ndarray, y: np.ndarray, window: np.ndarray, work: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The five mirror-padded moments of ``local_moments``, unchecked.

    They are computed in place in ``work`` (from ``_workspace(x.shape)``), so
    the call allocates no array; the results are its first five arrays.
    """
    mu_x, mu_y, sigma_x, sigma_y, cov, scratch, product = work
    _smooth(x, window, scratch, mu_x)
    _smooth(y, window, scratch, mu_y)
    for v, mu, sigma in ((x, mu_x, sigma_x), (y, mu_y, sigma_y)):
        _smooth(np.multiply(v, v, out=product), window, scratch, sigma)
        sigma -= np.multiply(mu, mu, out=product)
        np.maximum(sigma, 0.0, out=sigma)
        np.sqrt(sigma, out=sigma)
    _smooth(np.multiply(x, y, out=product), window, scratch, cov)
    cov -= np.multiply(mu_x, mu_y, out=product)
    return mu_x, mu_y, sigma_x, sigma_y, cov


def local_moments(
    x_plane: np.ndarray,
    y_plane: np.ndarray,
    window: np.ndarray,
    padding: str = "mirror",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel Gaussian-weighted moments of two planes.

    ``window`` is the 1D kernel from :func:`gaussian_window`. Returns
    ``(mu_x, mu_y, sigma_x, sigma_y, cov)`` as C-contiguous arrays.
    Variances use the identity var = E[x^2] - E[x]^2; tiny negative results
    from float cancellation are clamped to zero before the square root.
    """
    x, y, keep = _plane_pair(x_plane, y_plane, window, padding)
    moments = list(_moments(x, y, window, _workspace(x.shape)))
    # each whole-plane moment is freed once its kept part is copied
    return tuple(np.ascontiguousarray(moments.pop(0)[keep]) for _ in range(5))


def zeta_map(
    ref: np.ndarray,
    dist: np.ndarray,
    window: np.ndarray,
    c: float = 4.5e-4,
    padding: str = "mirror",
) -> np.ndarray:
    """Local cross-correlation map between reference and distorted planes.

    Returns a C-contiguous 2D array of (cov + C) / (sigma_ref * sigma_dist + C)
    per pixel. Cauchy-Schwarz bounds the result to [-1, 1] up to float rounding.
    Planes must agree in shape and DC placement and are expected to be already
    normalized.

    The map is built in bands of ``ZETA_BAND_ROWS`` rows, each from the
    moments of a slab that adds the window radius in rows on either side,
    clipped at the plane edges. Every band row's window then reads the same
    rows, or the same mirrored plane edge, as on the whole plane, so the map
    is bit-identical to one computed from whole-plane moments, while the
    transient memory is a few slabs instead of five planes.

    A plane of more than one band has its even bands computed on the
    calling thread and its odd ones on a worker, as ``_on_two_threads``
    runs them; each band writes only its own rows.
    """
    _require_finite_positive("stability constant", c)
    x, y, keep = _plane_pair(ref, dist, window, padding)
    m = x.shape[0]
    d = len(window) // 2
    zeta = np.empty(x.shape)
    starts = range(0, m, ZETA_BAND_ROWS)
    # one workspace per thread, made up front: the bands then add the same
    # memory whichever way the two threads interleave
    slab_shape = (min(m, ZETA_BAND_ROWS + 2 * d), x.shape[1])
    caller_work = _workspace(slab_shape)

    def bands(work: list[np.ndarray], band_starts: range) -> None:
        for start in band_starts:
            stop = min(start + ZETA_BAND_ROWS, m)
            lo, hi = max(0, start - d), min(m, stop + d)
            slab = [w[: hi - lo] for w in work]
            _, _, sigma_x, sigma_y, cov = _moments(x[lo:hi], y[lo:hi], window, slab)
            rows = slice(start - lo, stop - lo)
            # (cov + c) / (sigma_x * sigma_y + c), computed in place
            out = np.add(cov[rows], c, out=zeta[start:stop])
            den = np.multiply(sigma_x[rows], sigma_y[rows], out=sigma_x[rows])
            den += c
            out /= den

    if len(starts) == 1:
        bands(caller_work, starts)
    else:
        worker_work = _workspace(slab_shape)
        _on_two_threads(
            lambda: bands(caller_work, starts[::2]), lambda: bands(worker_work, starts[1::2])
        )
    # a copy, not a view: np.mean sums a strided view in another order
    return np.ascontiguousarray(zeta[keep])


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


def _on_two_threads(here: Callable[[], Any], there: Callable[[], Any]) -> tuple[Any, Any]:
    """``(here(), there())``, with ``there`` run on one worker thread meanwhile.

    ``here`` runs on the calling thread. The worker runs under the caller's
    ``scipy.fft`` worker count, which is per thread, and is joined before
    the call returns, so an error from ``here`` wins over one from ``there``.

    The benchmark's tracer keeps one span stack for all threads. It stays
    consistent only if each side makes at most one call to a function the
    tracer wraps, and that call makes no other: one ``tpsd_of_tensor`` or
    one ``psnr`` per side, or ``zeta_map``'s bands, which make none. A whole
    ``assess`` per side breaks it.
    """
    workers = scipy.fft.get_workers()

    def run_there() -> Any:
        with scipy.fft.set_workers(workers):
            return there()

    # leaving the pool joins the worker, also when here() raises
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(run_there)
        return here(), pending.result()


def _plane_score(
    planes: list[np.ndarray],
    window: np.ndarray,
    cfg: MetricConfig,
    on_zeta: Callable[[np.ndarray], None] | None = None,
) -> float:
    """One tensor's score from its raw ``[reference, distorted]`` planes:
    normalize, ``zeta_map``, then ``tensor_score``; ``on_zeta`` receives the
    map before it is pooled.

    The list is emptied, so a raw plane that nothing else holds is freed as
    soon as it is normalized.
    """
    plane_r, plane_d = planes
    planes.clear()
    plane_r, plane_d = normalize_planes(plane_r, plane_d, cfg.plane_normalization)
    zeta = zeta_map(plane_r, plane_d, window, cfg.stability_c, cfg.padding)
    if on_zeta is not None:
        on_zeta(zeta)
    return tensor_score(zeta)


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
    A tensor's reference plane is computed on the calling thread and its
    distorted plane on a worker, as ``_on_two_threads`` runs them. A tensor
    whose reference plane ``ref_planes`` already holds has its distorted
    plane computed on the calling thread, and starts no thread.
    ``zeta_callback`` receives each tensor's index and correlation map (the
    2D array ``zeta_map`` returns) as it is produced.

    ``ref_planes``, when given, caches the reference's per-tensor planes
    across calls: a plane it already holds (by tensor index) is reused, and
    one it lacks is appended as soon as it is computed, before the wait for
    the distorted plane, so a failing distorted plane does not lose it. Pass
    the same list only to calls on the same reference frames,
    ``frame_range`` and ``config``. The list holds one plane per tensor of
    the range, so a cache over a whole clip grows with its length;
    ``score_manifest`` passes one tensor's range at a time and keeps one
    plane.
    """
    cfg = config or MetricConfig()
    bounds = tensor_bounds(ref_frames, dist_frames, cfg.tensor_len, frame_range)
    # a window too big for the planes fails before any transform or its kernel;
    # a FileFrames knows its frame size, and a frame in memory costs nothing to index
    first = ref_frames if isinstance(ref_frames, FileFrames) else ref_frames[bounds[0][0]]
    _check_plane_size((first.height, first.width), 2 * cfg.window_radius + 1)
    window = gaussian_window(cfg.window_radius, cfg.window_sigma)

    timings = {"transform": 0.0, "correlate": 0.0, "pool": 0.0}
    scores: list[float] = []
    depths: list[int] = []
    for index, (lo, hi) in enumerate(bounds):
        t0 = time.perf_counter()
        dist_tensor = dist_frames[lo : hi + 1]
        if ref_planes is not None and index < len(ref_planes):
            # one plane is left to compute, so this thread computes it and
            # no worker starts
            planes = [ref_planes[index], tpsd_of_tensor(dist_tensor, cfg.center_dc)]
        else:

            def reference_plane() -> np.ndarray:
                plane = tpsd_of_tensor(ref_frames[lo : hi + 1], cfg.center_dc)
                # cached before the wait, so a failing distorted plane
                # leaves it to the next call
                if ref_planes is not None:
                    ref_planes.append(plane)
                return plane

            planes = list(_on_two_threads(
                reference_plane, lambda: tpsd_of_tensor(dist_tensor, cfg.center_dc)
            ))
        t1 = time.perf_counter()
        on_zeta = None if zeta_callback is None else lambda zeta: zeta_callback(index, zeta)
        # the call empties planes, so no uncached plane outlives its tensor
        scores.append(_plane_score(planes, window, cfg, on_zeta))
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
