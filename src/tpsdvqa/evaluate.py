"""Batch evaluation against subjective opinion scores.

A dataset manifest lists (reference, distorted) video pairs with their DMOS
labels. Each pair is scored with the spectral metric (and a PSNR baseline),
then Pearson and Spearman correlations between scores and DMOS are computed
overall and per distortion tag.

DMOS is inversely oriented to quality (higher DMOS = worse video), so a
well-behaved metric produces strongly *negative* raw correlations here.
Reports carry the raw signed values; display layers may show magnitudes as
long as they note the sign.

Manifest file format: UTF-8 comma-separated text with a required header row
``ref_path,dist_path,width,height,dmos,tag,frame_start,frame_end`` (the two
frame columns are optional and may be blank per row; indices are inclusive
and 0-based). Relative paths resolve against the manifest's directory.
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
    VqaError,
)
from .metric import MetricConfig, assess
from .video_io import LumaFrame, read_yuv420_file

__all__ = [
    "ManifestEntry",
    "DatasetManifest",
    "TagStats",
    "CorrelationReport",
    "EntryResult",
    "load_manifest",
    "pearson",
    "spearman",
    "psnr",
    "score_manifest",
    "correlation_report",
    "evaluate_dataset",
]

_REQUIRED_COLUMNS = ("ref_path", "dist_path", "width", "height", "dmos", "tag")


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
        if self.ref_path == self.dist_path:
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
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]


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
    per_tag: dict[str, TagStats]
    n: int
    failures: tuple[EntryResult, ...] = ()


def _optional_int(row: dict, key: str) -> int | None:
    raw = (row.get(key) or "").strip()
    return int(raw) if raw else None


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Parse a manifest CSV; relative video paths resolve next to the file."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"manifest header is missing columns: {', '.join(missing)}")
        for row in reader:
            if not any((v or "").strip() for v in row.values()):
                continue
            entries.append(
                ManifestEntry(
                    ref_path=os.path.join(base, row["ref_path"].strip()),
                    dist_path=os.path.join(base, row["dist_path"].strip()),
                    width=int(row["width"]),
                    height=int(row["height"]),
                    dmos=float(row["dmos"]),
                    tag=row["tag"].strip(),
                    frame_start=_optional_int(row, "frame_start"),
                    frame_end=_optional_int(row, "frame_end"),
                )
            )
    return DatasetManifest(entries=tuple(entries))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises LengthMismatch for unequal lengths and ConstantInput when either
    side has zero variance (the ratio is undefined).
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise LengthMismatch(f"need equal-length 1D sequences, got {xa.shape} and {ya.shape}")
    if xa.size < 2:
        raise ConstantInput(f"need at least 2 samples, got {xa.size}")
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
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on average-rank-transformed data."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise LengthMismatch(f"need equal-length 1D sequences, got {xa.shape} and {ya.shape}")
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
        diff = r.pixels.astype(np.float64) - d.pixels.astype(np.float64)
        total += float(np.dot(diff.ravel(), diff.ravel()))
        samples += diff.size
    mse = total / samples
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def score_manifest(
    manifest: DatasetManifest,
    config: MetricConfig | None = None,
    workers: int | None = None,
) -> list[EntryResult]:
    """Score every manifest entry, collecting per-entry failures instead of aborting.

    A manifest without entries raises EmptyManifest.
    """
    if not manifest.entries:
        raise EmptyManifest("manifest has no entries")
    cfg = config or MetricConfig()
    results = []
    for i, entry in enumerate(manifest.entries):
        try:
            _, ref_frames = read_yuv420_file(entry.ref_path, entry.width, entry.height)
            _, dist_frames = read_yuv420_file(entry.dist_path, entry.width, entry.height)
            frame_range = entry.frame_range(len(ref_frames))
            report = assess(ref_frames, dist_frames, cfg, frame_range, workers=workers)
            if frame_range is None:
                psnr_db = psnr(ref_frames, dist_frames)
            else:
                lo, hi = frame_range
                psnr_db = psnr(ref_frames[lo : hi + 1], dist_frames[lo : hi + 1])
            results.append(
                EntryResult(index=i, entry=entry, score=report.video_score, psnr_db=psnr_db)
            )
        except (VqaError, OSError, ValueError) as exc:
            results.append(
                EntryResult(
                    index=i, entry=entry, error=type(exc).__name__, error_message=str(exc)
                )
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


def evaluate_dataset(
    manifest: DatasetManifest,
    config: MetricConfig | None = None,
    scorer: str = "tpsd",
    workers: int | None = None,
) -> CorrelationReport:
    """Score a whole manifest and correlate the chosen scorer against DMOS."""
    results = score_manifest(manifest, config, workers=workers)
    return correlation_report(results, which=scorer)
