"""Layer spans for the traced run, recorded from outside the program.

Each public function of a layer is wrapped at the name its caller looks it
up by (``tpsd_of_tensor`` as ``tpsdvqa.metric`` sees it, ``assess`` as
``tpsdvqa.cli`` and ``tpsdvqa.evaluate`` see it, ...). A span holds its
name, start, end, parent span, the ``tracemalloc`` peak above the memory in
use at entry, and a work count. Spans are kept in memory; the caller writes
them out when the run ends. A wrapped name that a refactor removed is
listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

# (span name, "module:attribute path", work count taken from the call's arguments)
TARGETS = (
    ("cli.main", "tpsdvqa.cli:main", None),
    ("video_io.read", "tpsdvqa.cli:read_yuv420_file", "file_bytes"),
    ("video_io.read", "tpsdvqa.evaluate:read_yuv420_file", "file_bytes"),
    ("video_io.to_float", "tpsdvqa.video_io:LumaTensor.as_array", None),
    ("spectral.plane", "tpsdvqa.metric:tpsd_of_tensor", "tensor_pixels"),
    ("metric.normalize", "tpsdvqa.metric:normalize_planes", None),
    ("metric.zeta", "tpsdvqa.metric:zeta_map", None),
    ("metric.pool", "tpsdvqa.metric:tensor_score", None),
    ("metric.pool", "tpsdvqa.metric:video_score", None),
    ("metric.assess", "tpsdvqa.cli:assess", None),
    ("metric.assess", "tpsdvqa.evaluate:assess", None),
    ("evaluate.psnr", "tpsdvqa.evaluate:psnr", "frame_pairs"),
    ("evaluate.manifest", "tpsdvqa.cli:load_manifest", None),
    ("evaluate.correlate", "tpsdvqa.cli:correlation_report", None),
    ("evaluate.score_manifest", "tpsdvqa.cli:score_manifest", None),
)


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0])


def _tensor_pixels(args, kwargs) -> int:
    tensor = args[0]
    if hasattr(tensor, "depth"):
        return tensor.depth * tensor.height * tensor.width
    return int(getattr(tensor, "size", 0))


def _frame_pairs(args, kwargs) -> int:
    return len(args[0])


_WORK = {"file_bytes": _file_bytes, "tensor_pixels": _tensor_pixels, "frame_pairs": _frame_pairs}


class Tracer:
    """Records one span per wrapped call; nested calls name their parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; list the missing ones in ``absent``."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        for name, where, work in targets:
            module_name, _, path = where.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(where)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, _WORK.get(work)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = work(args, kwargs) if work else 0
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["peak"] = max(parent["peak"], peak)
            tracemalloc.reset_peak()
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "work": count,
                "entry_mem": current,
                "peak": current,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["peak"] = max(self._stack[-1]["peak"], span["peak"])
                tracemalloc.reset_peak()
                span["peak_bytes"] = span.pop("peak") - span.pop("entry_mem")

        return traced


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


MB = float(1 << 20)

# unit of every figure layer_metrics returns
LAYER_UNITS = {
    "video_io.read_s": "s", "video_io.read_calls": "count", "video_io.read_mb": "MB",
    "video_io.to_float_s": "s", "video_io.to_float_peak_mb": "MB",
    "spectral.plane_s": "s", "spectral.plane_calls": "count",
    "spectral.plane_peak_mb": "MB", "spectral.mpixels_per_s": "Mpx/s",
    "metric.normalize_s": "s", "metric.zeta_s": "s", "metric.zeta_calls": "count",
    "metric.zeta_peak_mb": "MB", "metric.pool_s": "s", "metric.assess_self_s": "s",
    "evaluate.psnr_s": "s", "evaluate.psnr_frame_pairs": "count",
    "evaluate.manifest_s": "s", "evaluate.correlate_s": "s",
    "evaluate.score_manifest_self_s": "s", "cli.self_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced run; a layer never called reads 0."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def work(name: str) -> int:
        return sum(s["work"] for s in by_name.get(name, []))

    def peak_mb(name: str) -> float:
        return max((s["peak_bytes"] for s in by_name.get(name, [])), default=0) / MB

    plane_s = self_total("spectral.plane")
    return {
        "video_io.read_s": total("video_io.read"),
        "video_io.read_calls": calls("video_io.read"),
        "video_io.read_mb": work("video_io.read") / MB,
        "video_io.to_float_s": total("video_io.to_float"),
        "video_io.to_float_peak_mb": peak_mb("video_io.to_float"),
        "spectral.plane_s": plane_s,
        "spectral.plane_calls": calls("spectral.plane"),
        "spectral.plane_peak_mb": peak_mb("spectral.plane"),
        "spectral.mpixels_per_s": work("spectral.plane") / plane_s / 1e6 if plane_s else 0.0,
        "metric.normalize_s": total("metric.normalize"),
        "metric.zeta_s": total("metric.zeta"),
        "metric.zeta_calls": calls("metric.zeta"),
        "metric.zeta_peak_mb": peak_mb("metric.zeta"),
        "metric.pool_s": total("metric.pool"),
        "metric.assess_self_s": self_total("metric.assess"),
        "evaluate.psnr_s": total("evaluate.psnr"),
        "evaluate.psnr_frame_pairs": work("evaluate.psnr"),
        "evaluate.manifest_s": total("evaluate.manifest"),
        "evaluate.correlate_s": total("evaluate.correlate"),
        "evaluate.score_manifest_self_s": self_total("evaluate.score_manifest"),
        "cli.self_s": self_total("cli.main"),
    }


def chrome_trace(spans: list[dict], pid: int = 1) -> dict:
    """Spans as Chrome trace-event JSON (complete events, microseconds)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    return {
        "traceEvents": [
            {
                "name": s["name"], "ph": "X", "pid": pid, "tid": 1,
                "ts": (s["start"] - t0) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], "work": s["work"],
                         "peak_mb": s["peak_bytes"] / MB},
            }
            for s in spans
        ],
        "displayTimeUnit": "ms",
    }
