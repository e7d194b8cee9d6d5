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
from dataclasses import dataclass
from typing import Sequence

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
from .metric import MetricConfig
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

    A row whose every field is blank is skipped. Any other row missing a
    required column, with extra fields, or with a value that does not convert
    or validate raises ValueError naming its physical line in the file.
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

    Returns +inf for bit-identical inputs. Two ``uint8`` frames add their squared
    error in integers, so 8-bit input is exact at any clip length; other frames
    add a float64 sum, exact only while the total stays below 2**53.
    """
    if len(ref) != len(dist):
        raise FrameCountMismatch(f"{len(ref)} reference frames vs {len(dist)} distorted")
    if not ref:
        raise ValueError("need at least one frame")
    total = 0
    samples = 0
    for r, d in zip(ref, dist):
        if r.pixels.shape != d.pixels.shape:
            raise DimensionMismatch(f"frame shapes differ: {r.pixels.shape} vs {d.pixels.shape}")
        if r.pixels.dtype == d.pixels.dtype == np.uint8:
            # |r - d| in uint8, its square in uint16, their sum in uint64
            err = np.maximum(r.pixels, d.pixels) - np.minimum(r.pixels, d.pixels)
            total += int(np.multiply(err, err, dtype=np.uint16).sum(dtype=np.uint64))
        else:
            diff = np.subtract(r.pixels, d.pixels, dtype=np.float64)
            total += float(np.einsum("ij,ij->", diff, diff))
        samples += r.pixels.size
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

    Entries that share a reference clip, geometry and frame range form a group;
    groups run in the order of their first entries. A group opens its reference
    once and its entries' clips in entry order, and scores them in one walk of
    its tensors, ``metric._score_tensors``, the loop ``assess`` runs for one
    clip. The walk takes the clips as one list in entry order, a clip that could
    not be opened going in as its error, and also pools each entry's tensor
    scores into its video score (the group's reports share the walk's stage
    timings, which no result keeps); the scored entries' PSNRs are then taken in
    entry order, two at a time on the calling thread and one worker. Memory
    thus holds one reference plane, normalized once per tensor with its raw
    plane freed at once, and two distorted ones, whatever the clip length or the
    group size. A failure fails only its own entry, and a reference that cannot
    be opened, or whose plane fails, fails every entry still live in its group.
    Results come back in manifest order, equal to scoring each entry on its own.
    A manifest without entries raises EmptyManifest.
    """
    if not entries:
        raise EmptyManifest("manifest has no entries")
    cfg = config or MetricConfig()
    groups: dict[tuple, list[tuple[int, ManifestEntry]]] = {}
    for i, e in enumerate(entries):
        key = (_clip_key(e.ref_path), e.width, e.height, e.frame_start, e.frame_end)
        groups.setdefault(key, []).append((i, e))
    results: list[EntryResult] = []
    for group in groups.values():
        results += _score_group(group, cfg)
    return sorted(results, key=lambda r: r.index)


def _score_group(group: list[tuple[int, ManifestEntry]], cfg: MetricConfig) -> list[EntryResult]:
    first = group[0][1]
    try:
        ref_frames = read_yuv420_file(first.ref_path, first.width, first.height)
    except REPORTED_ERRORS as exc:
        return [_failed(i, e, exc) for i, e in group]
    frame_range = first.frame_range(len(ref_frames))
    # each entry's clip, or the error that opening it raised, which fails it alone
    reads = [
        metric._attempt(lambda e=e: read_yuv420_file(e.dist_path, e.width, e.height))
        for _, e in group
    ]
    dists = [frames if exc is None else exc for frames, exc in reads]
    outcomes = metric._score_tensors(ref_frames, dists, cfg, frame_range)
    results = [None if exc is None else _failed(i, e, exc) for (i, e), (_, exc) in zip(group, outcomes)]
    # an entry whose score failed takes no PSNR, as it would one entry at a time
    scored = [k for k, result in enumerate(results) if result is None]
    lo, hi = frame_range or (0, len(ref_frames) - 1)
    measured = metric._in_pairs(
        lambda k: psnr(ref_frames[lo : hi + 1], dists[k][lo : hi + 1]), scored
    )
    for k, (psnr_db, exc) in zip(scored, measured):
        (i, e), (report, _) = group[k], outcomes[k]
        results[k] = (
            _failed(i, e, exc) if exc is not None
            else EntryResult(index=i, entry=e, score=report.video_score, psnr_db=psnr_db)
        )
    return results


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

    def stats(group: list[EntryResult]) -> TagStats:
        scores = [r.score if which == "tpsd" else r.psnr_db for r in group]
        labels = [r.entry.dmos for r in group]
        return TagStats(
            pcc=_safe_corr(pearson, scores, labels),
            scc=_safe_corr(spearman, scores, labels),
            n=len(group),
        )

    tags = sorted({r.entry.tag for r in results})
    per_tag = {tag: stats([r for r in ok if r.entry.tag == tag]) for tag in tags}
    overall = stats(ok)
    return CorrelationReport(overall.pcc, overall.scc, overall.n, per_tag, failures)
