"""Batch evaluation against subjective opinion scores.

A dataset manifest lists (reference, distorted) video pairs with their DMOS
labels. Each pair is scored with the spectral metric (and a PSNR baseline),
then Pearson and Spearman correlations between scores and DMOS are computed
overall and per distortion tag.

DMOS is inversely oriented to quality (higher DMOS = worse video), so a
well-behaved metric produces strongly *negative* raw correlations here.
Reports carry the raw signed values; display layers may show magnitudes as
long as they note the sign.

Manifest file format: UTF-8 comma-separated text, with or without a leading
byte-order mark (as spreadsheets write "CSV UTF-8"), with a required header row
``ref_path,dist_path,width,height,dmos,tag,frame_start,frame_end`` (the two
frame columns are optional and may be blank per row; indices are inclusive
and 0-based). Relative paths resolve against the manifest's directory.
Paths are compared by the file they resolve to, so ``ref.yuv`` and
``./ref.yuv`` name the same clip.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    ConstantInput,
    DimensionMismatch,
    EmptyManifest,
    FrameCountMismatch,
    LengthMismatch,
    REPORTED_ERRORS,
)
from . import metric
from .metric import MetricConfig, assess, tensor_bounds, video_score
from .video_io import LumaFrame, read_yuv420_file

__all__ = [
    "ManifestEntry",
    "TagStats",
    "CorrelationReport",
    "EntryResult",
    "load_manifest",
    "pearson",
    "spearman",
    "psnr",
    "score_manifest",
    "correlation_report",
]

_REQUIRED_COLUMNS = ("ref_path", "dist_path", "width", "height", "dmos", "tag")


def _clip_key(path: str) -> str:
    """The file ``path`` opens, so that two spellings of one clip compare equal.

    A path that opens nothing keeps its own text: the OS resolves ``..``
    after a symlink or a missing directory differently from plain text.
    """
    return os.path.realpath(path) if os.path.exists(path) else path


@dataclass(frozen=True)
class ManifestEntry:
    """One reference/distorted pair with its subjective label."""

    ref_path: str
    dist_path: str
    width: int
    height: int
    dmos: float
    tag: str
    frame_start: int | None = None
    frame_end: int | None = None

    def __post_init__(self) -> None:
        if _clip_key(self.ref_path) == _clip_key(self.dist_path):
            raise ValueError(f"entry paths must be distinct, both are {self.ref_path!r}")
        if not math.isfinite(self.dmos):
            raise ValueError(f"dmos must be finite, got {self.dmos}")

    def frame_range(self, frame_count: int) -> tuple[int, int] | None:
        """Resolve the optional frame columns against an actual frame count."""
        if self.frame_start is None and self.frame_end is None:
            return None
        start = 0 if self.frame_start is None else self.frame_start
        end = frame_count - 1 if self.frame_end is None else self.frame_end
        return (start, end)


@dataclass(frozen=True)
class TagStats:
    """Correlations within one distortion tag; None when undefined."""

    pcc: float | None
    scc: float | None
    n: int


@dataclass(frozen=True)
class EntryResult:
    """Outcome of scoring one manifest entry; exactly one of score/error is set."""

    index: int
    entry: ManifestEntry
    score: float | None = None
    psnr_db: float | None = None
    error: str | None = None
    error_message: str | None = None


@dataclass(frozen=True)
class CorrelationReport:
    """Raw signed correlations between metric scores and DMOS."""

    pcc: float | None
    scc: float | None
    n: int
    per_tag: dict[str, TagStats]
    failures: tuple[EntryResult, ...] = ()


def _optional_int(row: dict, key: str) -> int | None:
    raw = (row.get(key) or "").strip()
    return int(raw) if raw else None


def load_manifest(path: str | os.PathLike) -> tuple[ManifestEntry, ...]:
    """Parse a manifest CSV; relative video paths resolve next to the file.

    A row missing a required column, with extra fields, or with a value that
    does not convert or validate raises ValueError naming its line.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"manifest header is missing columns: {', '.join(missing)}")
        for row in reader:
            if None in row:
                raise ValueError(f"manifest line {reader.line_num} has fields past the header")
            if not any((v or "").strip() for v in row.values()):
                continue
            short = [c for c in _REQUIRED_COLUMNS if row[c] is None]
            if short:
                raise ValueError(
                    f"manifest line {reader.line_num} is missing columns: {', '.join(short)}"
                )
            try:
                entry = ManifestEntry(
                    ref_path=os.path.join(base, row["ref_path"].strip()),
                    dist_path=os.path.join(base, row["dist_path"].strip()),
                    width=int(row["width"]),
                    height=int(row["height"]),
                    dmos=float(row["dmos"]),
                    tag=row["tag"].strip(),
                    frame_start=_optional_int(row, "frame_start"),
                    frame_end=_optional_int(row, "frame_end"),
                )
            except ValueError as exc:
                raise ValueError(f"manifest line {reader.line_num}: {exc}") from exc
            entries.append(entry)
    return tuple(entries)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises LengthMismatch for unequal lengths and ConstantInput when the
    coefficient is undefined: fewer than 2 samples, a non-finite sample, or
    zero variance on either side.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise LengthMismatch(f"need equal-length 1D sequences, got {xa.shape} and {ya.shape}")
    if xa.size < 2:
        raise ConstantInput(f"need at least 2 samples, got {xa.size}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ConstantInput("correlation is undefined for a non-finite sample")
    # the float mean of equal values need not equal them, so exact
    # constancy is tested before any arithmetic
    if (xa == xa[0]).all() or (ya == ya[0]).all():
        raise ConstantInput("correlation is undefined for a constant input")
    # scaling each side by a power of two is exact and leaves r unchanged,
    # but keeps the dot products clear of overflow and underflow
    xa = np.ldexp(xa, -np.frexp(np.abs(xa).max())[1])
    ya = np.ldexp(ya, -np.frexp(np.abs(ya).max())[1])
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx2 = float(np.dot(dx, dx))
    sy2 = float(np.dot(dy, dy))
    if sx2 == 0.0 or sy2 == 0.0:
        raise ConstantInput("correlation is undefined for a constant input")
    r = float(np.dot(dx, dy)) / math.sqrt(sx2 * sy2)
    return min(1.0, max(-1.0, r))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on average-rank-transformed data."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise LengthMismatch(f"need equal-length 1D sequences, got {xa.shape} and {ya.shape}")
    # NaN has no rank; +-inf ranks as the extreme it is
    if np.isnan(xa).any() or np.isnan(ya).any():
        raise ConstantInput("rank correlation is undefined for a NaN sample")
    return pearson(_average_ranks(xa), _average_ranks(ya))


def psnr(ref: Sequence[LumaFrame], dist: Sequence[LumaFrame]) -> float:
    """Peak signal-to-noise ratio in dB over all luma samples of all frames.

    Returns +inf for bit-identical inputs.
    """
    if len(ref) != len(dist):
        raise FrameCountMismatch(f"{len(ref)} reference frames vs {len(dist)} distorted")
    if not ref:
        raise ValueError("need at least one frame")
    total = 0.0
    samples = 0
    for r, d in zip(ref, dist):
        if r.pixels.shape != d.pixels.shape:
            raise DimensionMismatch(f"frame shapes differ: {r.pixels.shape} vs {d.pixels.shape}")
        diff = np.subtract(r.pixels, d.pixels, dtype=np.float64)
        total += float(np.dot(diff.ravel(), diff.ravel()))
        samples += diff.size
    mse = total / samples
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def _failed(index: int, entry: ManifestEntry, exc: Exception) -> EntryResult:
    return EntryResult(index=index, entry=entry, error=type(exc).__name__, error_message=str(exc))


def score_manifest(
    entries: Sequence[ManifestEntry],
    config: MetricConfig | None = None,
) -> list[EntryResult]:
    """Score every manifest entry, collecting per-entry failures instead of aborting.

    Entries that share a reference clip, geometry and frame range form a
    group; groups run in the order of their first entries. A group opens its
    reference once and walks its tensors in order: each reference tensor is
    transformed once, by ``assess`` on the first entry that gets that far
    (its distorted plane on a worker thread), and every entry of the group
    is scored against that one plane before the next tensor. The other
    entries' distorted planes are computed two at a time, on the calling
    thread and one worker as ``metric._on_two_threads`` runs them, and each
    pair is scored on the calling thread after the join; the entries' PSNRs
    are then taken two at a time the same way. Memory thus holds one
    reference plane and two distorted ones, whatever the clip length or the
    group size. A failure fails only its own entry, and a reference that
    cannot be opened fails every entry of its group. Results come back in
    manifest order, equal to scoring each entry on its own. A manifest
    without entries raises EmptyManifest.
    """
    if not entries:
        raise EmptyManifest("manifest has no entries")
    cfg = config or MetricConfig()
    groups: dict[tuple, list[int]] = {}
    for i, e in enumerate(entries):
        key = (_clip_key(e.ref_path), e.width, e.height, e.frame_start, e.frame_end)
        groups.setdefault(key, []).append(i)
    results: dict[int, EntryResult] = {}
    for indices in groups.values():
        results.update(_score_group(entries, indices, cfg))
    return [results[i] for i in range(len(entries))]


def _attempt(fn: Callable[[], Any]) -> tuple[Any, Exception | None]:
    """``(fn(), None)``, or ``(None, error)`` for an error reported per entry."""
    try:
        return fn(), None
    except REPORTED_ERRORS as exc:
        return None, exc


def _two_at_once(fn: Callable[[Any], Any], args: Sequence[Any]) -> list[tuple[Any, Any]]:
    """``_attempt`` of ``fn(arg)`` for each of one or two ``args``.

    Of two, the first runs on the calling thread and the second on a worker,
    as ``metric._on_two_threads`` runs them; each keeps its own failure.
    """
    calls = [lambda arg=arg: _attempt(lambda: fn(arg)) for arg in args]
    return list(metric._on_two_threads(*calls)) if len(calls) == 2 else [calls[0]()]


def _pair_scores(
    ref_plane: np.ndarray, tensors: Sequence[Sequence[LumaFrame]], cfg: MetricConfig
) -> list[tuple[Any, Exception | None]]:
    """The outcomes of scoring one or two distorted tensors against a reference plane.

    Their planes are computed by ``_two_at_once``, then scored here one after
    the other, each freed once normalized: memory holds the reference plane
    and two distorted ones, whatever the group size.
    """
    window = metric.gaussian_window(cfg.window_radius, cfg.window_sigma)
    outcomes = _two_at_once(
        lambda tensor: [ref_plane, metric.tpsd_of_tensor(tensor, cfg.center_dc)], tensors
    )
    return [
        _attempt(lambda: metric._plane_score(planes, window, cfg))
        if exc is None else (None, exc)
        for planes, exc in outcomes
    ]


def _score_group(
    entries: Sequence[ManifestEntry],
    indices: list[int],
    cfg: MetricConfig,
) -> dict[int, EntryResult]:
    first = entries[indices[0]]
    try:
        ref_frames = read_yuv420_file(first.ref_path, first.width, first.height)
    except REPORTED_ERRORS as exc:
        return {i: _failed(i, entries[i], exc) for i in indices}
    frame_range = first.frame_range(len(ref_frames))
    done: dict[int, EntryResult] = {}
    live: dict[int, tuple[Sequence[LumaFrame], list[float]]] = {}
    bounds: list[tuple[int, int]] = []
    for i in indices:
        entry = entries[i]
        try:
            dist_frames = read_yuv420_file(entry.dist_path, entry.width, entry.height)
            bounds = tensor_bounds(ref_frames, dist_frames, cfg.tensor_len, frame_range)
            live[i] = (dist_frames, [])
        except REPORTED_ERRORS as exc:
            done[i] = _failed(i, entry, exc)

    def record(i: int, tensor_scores: Sequence[float], exc: Exception | None) -> None:
        if exc is None:
            live[i][1].extend(tensor_scores)
        else:
            done[i] = _failed(i, entries[i], exc)
            del live[i]

    # each tensor is scored on its own and pooled below with the real beta,
    # so a negative tensor score cannot raise NegativeBase on its own
    per_tensor = replace(cfg, beta=1.0)
    for lo, hi in bounds:
        ref_planes: list[np.ndarray] = []  # this tensor's plane, once computed
        queue = list(live)
        # assess brings in the reference plane with the first entry, and
        # with each next one for as long as that plane is missing
        while queue and not ref_planes:
            i = queue.pop(0)
            tensor_scores, exc = _attempt(lambda: assess(
                ref_frames, live[i][0], per_tensor, (lo, hi), ref_planes=ref_planes
            ).tensor_scores)
            record(i, tensor_scores, exc)
        # the rest go two at a time, each pair's planes on two threads
        for k in range(0, len(queue), 2):
            pair = queue[k : k + 2]
            tensors = [live[i][0][lo : hi + 1] for i in pair]
            for i, (score, exc) in zip(pair, _pair_scores(ref_planes[0], tensors, per_tensor)):
                record(i, [score], exc)
    lo, hi = frame_range or (0, len(ref_frames) - 1)
    ready = list(live)
    for k in range(0, len(ready), 2):
        pair = ready[k : k + 2]
        measured = _two_at_once(
            lambda i: psnr(ref_frames[lo : hi + 1], live[i][0][lo : hi + 1]), pair
        )
        for i, (psnr_db, psnr_exc) in zip(pair, measured):
            # the pooled score's error comes first, as it would one entry at a time
            score, exc = _attempt(lambda: video_score(live[i][1], cfg.beta))
            if exc is None:
                exc = psnr_exc
            done[i] = (
                _failed(i, entries[i], exc) if exc is not None
                else EntryResult(index=i, entry=entries[i], score=score, psnr_db=psnr_db)
            )
    return done


def _safe_corr(fn, scores: list[float], labels: list[float]) -> float | None:
    try:
        return fn(scores, labels)
    except (ConstantInput, LengthMismatch):
        return None


def correlation_report(
    results: Sequence[EntryResult], which: str = "tpsd"
) -> CorrelationReport:
    """Assemble overall and per-tag correlations from per-entry results.

    ``which`` selects the score column: 'tpsd' (the spectral metric) or
    'psnr' (the baseline). Groups too small or too degenerate for a defined
    coefficient report None.
    """
    if which not in ("tpsd", "psnr"):
        raise ValueError(f"which must be 'tpsd' or 'psnr', got {which!r}")
    ok = [r for r in results if r.error is None]
    failures = tuple(r for r in results if r.error is not None)

    def score_of(r: EntryResult) -> float:
        return r.score if which == "tpsd" else r.psnr_db  # type: ignore[return-value]

    scores = [score_of(r) for r in ok]
    labels = [r.entry.dmos for r in ok]
    per_tag: dict[str, TagStats] = {}
    for tag in sorted({r.entry.tag for r in results}):
        group = [r for r in ok if r.entry.tag == tag]
        g_scores = [score_of(r) for r in group]
        g_labels = [r.entry.dmos for r in group]
        per_tag[tag] = TagStats(
            pcc=_safe_corr(pearson, g_scores, g_labels),
            scc=_safe_corr(spearman, g_scores, g_labels),
            n=len(group),
        )
    return CorrelationReport(
        pcc=_safe_corr(pearson, scores, labels),
        scc=_safe_corr(spearman, scores, labels),
        per_tag=per_tag,
        n=len(ok),
        failures=failures,
    )
