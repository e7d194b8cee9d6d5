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

import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np
import scipy.fft
from scipy.ndimage import correlate1d

from .errors import (
    DimensionMismatch,
    FrameCountMismatch,
    NegativeBase,
    PlaneTooSmall,
    REPORTED_ERRORS,
)
from .spectral import tpsd_of_tensor
from .video_io import FileFrames, LumaFrame, _require_integral, group_tensors

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
    _require_integral("window radius", radius)
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
        for name in ("tensor_len", "window_radius"):
            _require_integral(name, getattr(self, name))
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
        if not isinstance(self.center_dc, (bool, np.bool_)):
            raise ValueError(f"center_dc must be a bool, got {self.center_dc!r}")


@dataclass(frozen=True)
class QualityReport:
    """Per-tensor scores and depths, the video score that ``_score_tensors``
    pools from them, and the stage timings of its walk (``transform``,
    ``correlate`` and ``pool`` seconds, in that order), which the reports of
    one ``evaluate`` group share."""

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


def _normalizer(ref: np.ndarray, mode: str) -> Callable[[np.ndarray], np.ndarray]:
    """The per-plane map of ``normalize_planes``, fixed by the reference plane.

    It writes into the float64 plane it is given and returns it, so the
    caller must own that plane; the walk's planes are its own.
    """
    if mode == "log10":
        return lambda plane: np.log10(np.add(plane, 1.0, out=plane), out=plane)
    scale = float(ref.max()) if mode == "ref-max" else 0.0
    # the map keeps the scale, not the plane; a NaN maximum still divides
    if scale <= 0.0:
        return lambda plane: plane
    return lambda plane: np.divide(plane, scale, out=plane)


def normalize_planes(
    ref: np.ndarray, dist: np.ndarray, mode: str = "ref-max"
) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference/distorted plane pair into the metric's working range.

    ``ref-max`` divides both planes by the reference plane's maximum entry
    (no-op when the reference is all zeros), ``log10`` maps each plane to
    ``log10(1 + plane)`` and ``none`` returns both as they are. The inputs are
    never written: the other modes map copies. Walks normalize each tensor's
    reference plane once by this map, in place, as they do each distorted plane.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization {mode!r}")
    ref, dist, _ = _plane_pair(ref, dist)
    if mode == "none":
        return ref, dist
    normalize = _normalizer(ref, mode)
    return normalize(ref.copy()), normalize(dist.copy())


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
    x: np.ndarray,
    y: np.ndarray,
    window: np.ndarray,
    work: list[np.ndarray],
    ref_side: tuple[np.ndarray, np.ndarray] | None = None,
    bins: tuple[slice, slice] = (slice(None), slice(None)),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The five mirror-padded moments of ``local_moments`` at ``bins``, unchecked.

    They are computed in place in ``work`` (from ``_workspace(x.shape)``), so
    the call allocates no array; the results are views of its first five
    arrays, or ``ref_side``, an earlier call's ``(mu_x, sigma_x)`` for this
    ``x``, in place of x's two, whose passes are then skipped.
    """
    mu_x, mu_y, sigma_x, sigma_y, cov, scratch, product = work
    for v, mu, sigma in [(x, mu_x, sigma_x), (y, mu_y, sigma_y)][ref_side is not None :]:
        _smooth(v, window, scratch, mu)
        _smooth(np.multiply(v, v, out=product), window, scratch, sigma)
        sigma -= np.multiply(mu, mu, out=product)
        np.maximum(sigma, 0.0, out=sigma)
        np.sqrt(sigma, out=sigma)
    mu_x, sigma_x = (mu_x[bins], sigma_x[bins]) if ref_side is None else ref_side
    _smooth(np.multiply(x, y, out=product), window, scratch, cov)
    cov = cov[bins]
    cov -= np.multiply(mu_x, mu_y[bins], out=product[bins])
    return mu_x, mu_y[bins], sigma_x, sigma_y[bins], cov


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


def _point_symmetric(a: np.ndarray) -> bool:
    """Whether ``a[i, j]`` and ``a[-i % M, -j % N]`` share their bits, so that
    -0.0 is not 0.0, in every column but 0 and N/2."""
    bits, q = a.view(np.int64), a.shape[1] // 2
    return np.array_equal(bits[0, 1:q], bits[0, :q:-1]) and np.array_equal(
        bits[1:, 1:q], bits[:0:-1, :q:-1]
    )


def zeta_map(
    ref: np.ndarray,
    dist: np.ndarray,
    window: np.ndarray,
    c: float = 4.5e-4,
    padding: str = "mirror",
    *,
    ref_store: dict | None = None,
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
    transient memory is a few slabs instead of the seven planes of a
    whole-plane ``_workspace``.

    When M and N are even, the window is symmetric and both planes equal
    their point mirror ``a[-i % M, -j % N]`` bit for bit outside columns 0
    and N/2, as ``tpsd_of_tensor`` planes do, so does the map wherever a
    window reaches neither those columns nor an edge: the smoothing adds
    mirrored taps before weighting them. Only rows 0..M/2 and the last ``d``
    rows, and elsewhere the columns within ``d`` of 0, N/2 and N, are then
    computed; the other bins are copied from the upper half reversed.

    A plane of more than one band has its even blocks computed on the
    calling thread and its odd ones on a worker, as ``_on_two_threads``
    runs them; each block writes only its own bins.

    ``ref_store``, a dict kept over calls with one ``ref`` and ``window``, keeps
    each block's ``mu_x`` and ``sigma_x`` by its bounds, so that a later call
    makes 3 of the 5 smoothing passes there, with the same bits.
    """
    _require_finite_positive("stability constant", c)
    x, y, keep = _plane_pair(ref, dist, window, padding)
    m, n = x.shape
    d, q, b = len(window) // 2, n // 2, ZETA_BAND_ROWS
    zeta = np.empty(x.shape)
    # one workspace per thread, made up front: the blocks then add the same
    # memory whichever way the two threads interleave
    slab_shape = (min(m, b + 2 * d), n)
    caller_work = _workspace(slab_shape)
    mirrored = m % 2 == n % 2 == 0 and np.array_equal(window, np.flip(window))
    mirrored = mirrored and _point_symmetric(x) and _point_symmetric(y)
    # (first row, end row, first column, end column) of each block of bins computed
    top = m // 2 + 1 if mirrored else m
    blocks = [(s, min(s + b, top), 0, n) for s in range(0, top, b)]
    if mirrored:
        # disjoint strips, so that no two blocks write one bin
        strips = ((0, d + 1), (max(d + 1, q - d), q + d + 1), (max(q + d + 1, n - d), n))
        blocks.append((m - d, m, 0, n))
        blocks += [(s, min(s + b, m - d), *cols) for s in range(top, m - d, b) for cols in strips]

    def bands(work: list[np.ndarray], band_blocks: list[tuple[int, int, int, int]]) -> None:
        for start, stop, first, end in band_blocks:
            lo, hi = max(0, start - d), min(m, stop + d)
            left, right = max(0, first - d), min(n, end + d)
            part = slice(lo, hi), slice(left, right)
            slab = [w[: hi - lo, : right - left] for w in work]
            bins = slice(start - lo, stop - lo), slice(first - left, end - left)
            key = (start, stop, first, end)
            shared = None if ref_store is None else ref_store.get(key)
            mu_x, _, sigma_x, sigma_y, cov = _moments(x[part], y[part], window, slab, shared, bins)
            if ref_store is not None and shared is None:
                ref_store[key] = mu_x.copy(), sigma_x.copy()
            # (cov + c) / (sigma_x * sigma_y + c), computed in place
            out = np.add(cov, c, out=zeta[start:stop, first:end])
            den = np.multiply(sigma_x, sigma_y, out=sigma_y)
            den += c
            out /= den

    if m <= b:
        bands(caller_work, blocks)
    else:
        worker_work = _workspace(slab_shape)
        _on_two_threads(
            lambda: bands(caller_work, blocks[::2]), lambda: bands(worker_work, blocks[1::2])
        )
    if mirrored:
        # the other lower bins: the upper half, reversed in rows and columns
        zeta[top : m - d, d + 1 : q - d] = zeta[top - 2 : d : -1, n - d - 1 : q + d : -1]
        zeta[top : m - d, q + d + 1 : n - d] = zeta[top - 2 : d : -1, q - d - 1 : d : -1]
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

    A non-finite mean raises ValueError, and a negative mean with a
    non-integral exponent, which has no real power, raises NegativeBase, so
    no NaN or infinity is returned in silence.
    """
    if len(tensor_scores) == 0:
        raise ValueError("need at least one tensor score")
    _require_finite_positive("beta", beta)
    mean = float(np.mean(tensor_scores))
    if not math.isfinite(mean):
        raise ValueError(f"mean tensor score is not finite: {mean}")
    if mean < 0 and not float(beta).is_integer():
        raise NegativeBase(
            f"mean tensor score {mean:.6g} is negative; beta={beta} is not an integer"
        )
    return mean**beta


def _on_two_threads(here: Callable[[], Any], there: Callable[[], Any]) -> tuple[Any, Any]:
    """``(here(), there())``, with ``there`` run on one worker thread meanwhile.

    It is the library's one thread split: ``zeta_map``'s row bands, and
    through ``_in_pairs`` the planes of ``_score_tensors`` and the PSNRs of
    ``evaluate.score_manifest``. ``here`` runs on the calling thread. The
    worker runs under the caller's ``scipy.fft`` worker count, which is per
    thread, and is joined before the call returns, so an error from ``here``
    wins over one from ``there``.

    The benchmark's tracer keeps one span stack for all threads. It stays
    consistent only if each side makes at most one call to a function the
    tracer wraps, and that call makes no other: one ``tpsd_of_tensor`` or
    one ``psnr`` per side, or ``zeta_map``'s bands, which make none. A whole
    ``assess`` per side breaks it. ``_score_tensors`` pools on the calling
    thread once its walk is done.
    """
    workers = scipy.fft.get_workers()

    def run_there() -> Any:
        with scipy.fft.set_workers(workers):
            return there()

    # leaving the pool joins the worker, also when here() raises
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(run_there)
        return here(), pending.result()


@contextlib.contextmanager
def _timed(seconds: dict[str, float], stage: str) -> Iterator[None]:
    """Add the wall time of the ``with`` body to ``seconds[stage]``."""
    start = time.perf_counter()
    yield
    seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start


def _attempt(fn: Callable[[], Any]) -> tuple[Any, Exception | None]:
    """``(fn(), None)``, or ``(None, error)`` for an error reported per sequence."""
    try:
        return fn(), None
    except REPORTED_ERRORS as exc:
        return None, exc


def _in_pairs(
    fn: Callable[[Any], Any], args: Sequence[Any]
) -> Iterator[tuple[Any, Exception | None]]:
    """``_attempt`` of ``fn(arg)`` for each of ``args``, two at a time.

    Of two, the first runs on the calling thread and the second on a worker,
    as ``_on_two_threads`` runs them, and each keeps its own failure; a lone
    last one runs on the calling thread. A pair's outcomes are yielded once
    it joins, and the next pair starts when the first of its outcomes is
    asked for.
    """
    for k in range(0, len(args), 2):
        calls = [lambda arg=arg: _attempt(lambda: fn(arg)) for arg in args[k : k + 2]]
        yield from (_on_two_threads(*calls) if len(calls) == 2 else [calls[0]()])


def _score_tensors(
    ref_frames: Sequence[LumaFrame],
    dists: Sequence[Sequence[LumaFrame] | Exception],
    cfg: MetricConfig,
    frame_range: tuple[int, int] | None = None,
    zeta_callback: Callable[[int, np.ndarray], None] | None = None,
) -> list[tuple[QualityReport | None, Exception | None]]:
    """Each of ``dists``' ``(QualityReport, None)`` or ``(None, error)``
    against ``ref_frames``, in the order of ``dists``. An error given in
    place of a sequence, such as a clip that could not be opened, fails it
    from the start. A length that differs from the reference fails its
    sequence alone; a bad range or window, checked before any transform or
    kernel, or a failing reference plane fails every live sequence.

    One list, indexed like ``dists``, holds each sequence's tensor scores
    while it is live, and else the error that ended it. Per tensor,
    ``_in_pairs`` transforms the reference and then each live sequence. The
    walk owns these planes and normalizes them in place: the reference plane
    once, and each distorted plane by the same map as its pair joins, before
    it is scored; the walk stops once nothing is live. Each sequence still
    live is then pooled with ``video_score``, whose error fails it alone. The
    reports share one dict of the walk's ``transform`` (the reference's
    division included), ``correlate`` and ``pool`` seconds, in that order.
    """
    slots: list[list[float] | Exception] = [
        dist if isinstance(dist, Exception)
        else [] if len(dist) == len(ref_frames)
        else FrameCountMismatch(f"reference has {len(ref_frames)} frames, distorted has {len(dist)}")
        for dist in dists
    ]

    def fail_live(exc: Exception) -> None:
        slots[:] = [exc if isinstance(slot, list) else slot for slot in slots]

    bounds: list[tuple[int, int]] = []
    try:
        bounds = group_tensors(len(ref_frames), cfg.tensor_len, frame_range)
        # a FileFrames knows its frame size, and a frame in memory costs nothing to index
        first = ref_frames if isinstance(ref_frames, FileFrames) else ref_frames[bounds[0][0]]
        _check_plane_size((first.height, first.width), 2 * cfg.window_radius + 1)
        window = gaussian_window(cfg.window_radius, cfg.window_sigma)
    except REPORTED_ERRORS as exc:
        fail_live(exc)

    def correlate(plane_r: np.ndarray, plane_d: np.ndarray) -> float:
        zeta = zeta_map(plane_r, plane_d, window, cfg.stability_c, cfg.padding, ref_store=ref_store)
        if zeta_callback is not None:
            zeta_callback(index, zeta)
        return tensor_score(zeta)

    seconds = dict.fromkeys(("transform", "correlate", "pool"), 0.0)
    for index, (lo, hi) in enumerate(bounds):
        order = [k for k, slot in enumerate(slots) if isinstance(slot, list)]
        if not order:
            break
        # with two or more live entries, their zeta maps share the reference side
        ref_store = {} if len(order) > 1 else None
        with _timed(seconds, "transform"):
            # each plane comes in a list that the scoring below takes it out of
            outcomes = _in_pairs(
                lambda frames: [tpsd_of_tensor(frames[lo : hi + 1], cfg.center_dc)],
                [ref_frames, *(dists[k] for k in order)],
            )
            ref, exc = next(outcomes)
            if exc is not None:
                fail_live(exc)  # its error wins over its partner's
                break
            normalize = _normalizer(ref[0], cfg.plane_normalization)
            ref = normalize(ref.pop())
        for k in order:
            with _timed(seconds, "transform"):
                plane, exc = next(outcomes)
            with _timed(seconds, "correlate"):
                if exc is None:
                    # popped from its list, the plane is freed once scored
                    score, exc = _attempt(lambda: correlate(ref, normalize(plane.pop())))
                slots[k] = slots[k] + [score] if exc is None else exc
        ref = ref_store = None  # before the next tensor's planes are computed
    depths = tuple(hi - lo + 1 for lo, hi in bounds)
    # the reports hold seconds itself, so they see the pool time the with adds
    with _timed(seconds, "pool"):
        return [
            (None, s) if isinstance(s, Exception)
            else _attempt(lambda: QualityReport(tuple(s), video_score(s, cfg.beta), depths, seconds))
            for s in slots
        ]


def assess(
    ref_frames: Sequence[LumaFrame],
    dist_frames: Sequence[LumaFrame],
    config: MetricConfig | None = None,
    frame_range: tuple[int, int] | None = None,
    zeta_callback: Callable[[int, np.ndarray], None] | None = None,
) -> QualityReport:
    """Score a distorted sequence against its reference.

    Both sequences are grouped into tensors, each pair is reduced to its
    aggregated PSD planes, normalized, correlated, and pooled; tensors are
    paired strictly by position (temporal alignment is assumed). This is
    ``_score_tensors`` run for one distorted sequence: each tensor is a slice
    of the input, so a ``FileFrames`` input is read frame by frame, and a
    tensor's reference plane is computed on the calling thread and its
    distorted plane on a worker. ``zeta_callback`` receives each tensor's
    index and correlation map (the 2D array ``zeta_map`` returns) as it is
    produced.
    """
    cfg = config or MetricConfig()
    ((report, exc),) = _score_tensors(ref_frames, [dist_frames], cfg, frame_range, zeta_callback)
    if exc is not None:
        raise exc
    return report
