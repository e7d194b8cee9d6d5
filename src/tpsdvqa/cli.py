"""Command-line interface.

Subcommands: ``score`` (one reference/distorted pair), ``evaluate`` (a
manifest against DMOS labels), ``generate`` (synthetic YUV fixtures), and
``dump-tpsd`` (aggregated PSD planes as grid files).

Structured output is line-delimited JSON on stdout with stable field names;
one record per tensor or entry plus a summary record, and separate timing
records (the only part allowed to differ between identical runs). The
human-readable summary goes to stderr. Domain failures exit nonzero with a
one-line ``error: <Class>: <detail>`` diagnostic naming the error class.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from typing import Sequence, TextIO

import numpy as np
import scipy.fft

from .errors import VqaError
from .evaluate import correlation_report, load_manifest, score_manifest
from .metric import (
    NORMALIZATION_MODES,
    PADDING_MODES,
    MetricConfig,
    assess,
)
from .spectral import tpsd_of_tensor, write_grid
from .synth import (
    DISTORTION_KINDS,
    DistortionSpec,
    apply_distortion,
    make_edge_sequence,
    make_moving_texture,
    make_noise_sequence,
)
from .video_io import group_tensors, read_yuv420_file, write_yuv420

PATTERNS = ("edge-static", "edge-moving", "noise", "texture")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_frames(text: str) -> tuple[int, int]:
    try:
        start_s, end_s = text.split(":")
        start, end = int(start_s), int(end_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:END, got {text!r}") from None
    return start, end


def _metric_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("metric options")
    g.add_argument("--tensor-frames", type=int, default=30, help="frames per tensor (default 30)")
    g.add_argument("--window-radius", type=int, default=5, help="correlation window radius d (default 5)")
    g.add_argument("--window-sigma", type=float, default=1.5, help="Gaussian window sigma (default 1.5)")
    g.add_argument("--stability-c", type=float, default=4.5e-4, help="stabilizer C (default 4.5e-4)")
    g.add_argument("--beta", type=float, default=1.0, help="pooling exponent (default 1.0)")
    g.add_argument("--normalize", choices=NORMALIZATION_MODES, default="ref-max",
                   help="plane normalization (default ref-max)")
    g.add_argument("--center-dc", type=_parse_bool, default=True, metavar="BOOL",
                   help="shift the zero-frequency bin to the plane center (default true)")
    g.add_argument("--padding", choices=PADDING_MODES, default="mirror",
                   help="window border policy (default mirror)")


def _config_from_args(args: argparse.Namespace) -> MetricConfig:
    return MetricConfig(
        tensor_len=args.tensor_frames,
        window_radius=args.window_radius,
        window_sigma=args.window_sigma,
        stability_c=args.stability_c,
        beta=args.beta,
        plane_normalization=args.normalize,
        center_dc=args.center_dc,
        padding=args.padding,
    )


def _emit(fh: TextIO, record: dict) -> None:
    fh.write(json.dumps(record) + "\n")


def _open_out(args: argparse.Namespace) -> tuple[TextIO, bool]:
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8"), True
    return sys.stdout, False


def _cmd_score(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    out, own = _open_out(args)
    try:
        t0 = time.perf_counter()
        ref_frames = read_yuv420_file(args.ref, args.width, args.height)
        dist_frames = read_yuv420_file(args.dist, args.width, args.height)
        read_seconds = time.perf_counter() - t0

        def dump_zeta(index: int, zeta: np.ndarray) -> None:
            write_grid(zeta, f"{args.dump_zeta}.tensor{index:03d}.grid")

        report = assess(
            ref_frames,
            dist_frames,
            cfg,
            frame_range=args.frames,
            zeta_callback=dump_zeta if args.dump_zeta else None,
        )

        start = args.frames[0] if args.frames else 0
        offset = start
        for i, (score, depth) in enumerate(zip(report.tensor_scores, report.tensor_depths)):
            _emit(out, {
                "record": "tensor",
                "index": i,
                "frame_start": offset,
                "frame_end": offset + depth - 1,
                "depth": depth,
                "score": score,
            })
            offset += depth
        _emit(out, {
            "record": "summary",
            "video_score": report.video_score,
            "tensor_count": len(report.tensor_scores),
            "width": args.width,
            "height": args.height,
            "frames_total": len(ref_frames),
            "frames_used": sum(report.tensor_depths),
            "ref": args.ref,
            "dist": args.dist,
            "config": dataclasses.asdict(cfg),
        })
        timings = {"read": read_seconds, **report.timings}
        for stage in ("read", "transform", "correlate", "pool"):
            _emit(out, {"record": "timing", "stage": stage, "seconds": timings[stage]})
        total = read_seconds + sum(report.timings.values())
        print(
            f"score {report.video_score:.6f} over {len(report.tensor_scores)} tensor(s) "
            f"in {total:.2f}s",
            file=sys.stderr,
        )
        return 0
    finally:
        if own:
            out.close()


def _report_dict(report) -> dict:
    return {
        "pcc": report.pcc,
        "scc": report.scc,
        "n": report.n,
        "per_tag": {
            tag: {"pcc": s.pcc, "scc": s.scc, "n": s.n} for tag, s in report.per_tag.items()
        },
    }


_ORIENTATION_NOTE = (
    "raw correlations on (score, dmos) pairs; higher DMOS means worse quality, "
    "so a good metric correlates negatively"
)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    entries = load_manifest(args.manifest)
    results = score_manifest(entries, cfg)
    metric_report = correlation_report(results, "tpsd")
    psnr_report = correlation_report(results, "psnr")

    summary = {
        "record": "summary",
        "n": metric_report.n,
        "entries": len(entries),
        "orientation": _ORIENTATION_NOTE,
        "metric": _report_dict(metric_report),
        "psnr_baseline": _report_dict(psnr_report),
        "config": dataclasses.asdict(cfg),
    }
    for r in results:
        _emit(sys.stdout, {
            "record": "entry",
            "index": r.index,
            "ref": r.entry.ref_path,
            "dist": r.entry.dist_path,
            "tag": r.entry.tag,
            "dmos": r.entry.dmos,
            "score": r.score,
            "psnr_db": r.psnr_db,
            "error": r.error,
            "error_message": r.error_message,
        })
    _emit(sys.stdout, summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    failed = len(metric_report.failures)
    pcc = "n/a" if metric_report.pcc is None else f"{metric_report.pcc:+.4f}"
    scc = "n/a" if metric_report.scc is None else f"{metric_report.scc:+.4f}"
    print(
        f"evaluated {metric_report.n}/{len(entries)} entries "
        f"({failed} failed): pcc {pcc} scc {scc} (see orientation note)",
        file=sys.stderr,
    )
    return 0 if metric_report.n > 0 else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.pattern == "edge-static":
        frames = make_edge_sequence(args.width, args.height, motion=False)
    elif args.pattern == "edge-moving":
        frames = make_edge_sequence(args.width, args.height, motion=True)
    elif args.pattern == "noise":
        frames = make_noise_sequence(args.width, args.height, args.count, args.seed)
    else:
        frames = make_moving_texture(args.width, args.height, args.count, args.seed)

    distortion = None
    if args.distort:
        if args.level is None:
            print("error: ValueError: --distort requires --level", file=sys.stderr)
            return 1
        distortion = DistortionSpec(kind=args.distort, level=args.level, seed=args.seed)
        frames = apply_distortion(frames, distortion)

    count = write_yuv420(frames, args.out)
    _emit(sys.stdout, {
        "record": "generated",
        "path": args.out,
        "width": args.width,
        "height": args.height,
        "frames": count,
        "pattern": args.pattern,
        "distortion": args.distort,
        "level": args.level,
        "seed": args.seed,
    })
    print(f"wrote {count} frame(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_dump_tpsd(args: argparse.Namespace) -> int:
    frames = read_yuv420_file(args.ref, args.width, args.height)
    bounds = group_tensors(len(frames), args.tensor_frames, args.frames)
    for index, (lo, hi) in enumerate(bounds):
        plane = tpsd_of_tensor(frames[lo : hi + 1], args.center_dc)
        path = f"{args.out}.tensor{index:03d}.grid"
        write_grid(plane, path)
        _emit(sys.stdout, {
            "record": "tpsd",
            "index": index,
            "depth": hi - lo + 1,
            "rows": plane.shape[0],
            "cols": plane.shape[1],
            "dc_centered": args.center_dc,
            "path": path,
        })
    print(f"wrote {len(bounds)} plane(s) with prefix {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpsdvqa",
        description="Full-reference video quality scoring from tempospatial power spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score one distorted video against its reference")
    score.add_argument("--ref", required=True, help="reference YUV 4:2:0 file")
    score.add_argument("--dist", required=True, help="distorted YUV 4:2:0 file")
    score.add_argument("--width", type=int, required=True)
    score.add_argument("--height", type=int, required=True)
    score.add_argument("--frames", type=_parse_frames, default=None, metavar="START:END",
                       help="inclusive frame range to score")
    score.add_argument("--threads", type=int, default=None, help="FFT worker threads")
    score.add_argument("--out", default=None, help="write structured records here instead of stdout")
    score.add_argument("--dump-zeta", default=None, metavar="PREFIX",
                       help="write each tensor's correlation map as PREFIX.tensorNNN.grid")
    _metric_flags(score)
    score.set_defaults(func=_cmd_score)

    ev = sub.add_parser("evaluate", help="batch-evaluate a manifest against DMOS labels")
    ev.add_argument("--manifest", required=True, help="CSV manifest path")
    ev.add_argument("--threads", type=int, default=None, help="FFT worker threads")
    ev.add_argument("--out", default=None, help="write the JSON report here")
    _metric_flags(ev)
    ev.set_defaults(func=_cmd_evaluate)

    gen = sub.add_parser("generate", help="write synthetic YUV 4:2:0 fixtures")
    gen.add_argument("--out", required=True, help="output YUV path")
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--height", type=int, required=True)
    gen.add_argument("--pattern", choices=PATTERNS, default="texture")
    gen.add_argument("--count", type=int, default=30,
                     help="frame count for noise/texture patterns (edges are 2 frames)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--distort", choices=DISTORTION_KINDS, default=None,
                     help="apply this distortion before writing")
    gen.add_argument("--level", type=float, default=None, help="distortion level")
    gen.set_defaults(func=_cmd_generate)

    dump = sub.add_parser("dump-tpsd", help="export aggregated PSD planes as grid files")
    dump.add_argument("--ref", required=True, help="input YUV 4:2:0 file")
    dump.add_argument("--width", type=int, required=True)
    dump.add_argument("--height", type=int, required=True)
    dump.add_argument("--tensor-frames", type=int, default=30)
    dump.add_argument("--center-dc", type=_parse_bool, default=True, metavar="BOOL")
    dump.add_argument("--frames", type=_parse_frames, default=None, metavar="START:END")
    dump.add_argument("--threads", type=int, default=None)
    dump.add_argument("--out", required=True, metavar="PREFIX",
                      help="grid files are written as PREFIX.tensorNNN.grid")
    dump.set_defaults(func=_cmd_dump_tpsd)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    threads = getattr(args, "threads", None)
    try:
        # scipy.fft's default worker count, which every rfft2 call reads
        with contextlib.nullcontext() if threads is None else scipy.fft.set_workers(threads):
            return args.func(args)
    except (VqaError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
