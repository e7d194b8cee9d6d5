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
import os
import sys
from typing import Sequence, TextIO

import numpy as np
import scipy.fft

from .errors import REPORTED_ERRORS
from .evaluate import correlation_report, load_manifest, score_manifest
from .metric import (
    NORMALIZATION_MODES,
    PADDING_MODES,
    MetricConfig,
    _timed,
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

# each --pattern and the frames it makes from the parsed arguments
PATTERNS = {
    "edge-static": lambda a: make_edge_sequence(a.width, a.height, motion=False),
    "edge-moving": lambda a: make_edge_sequence(a.width, a.height, motion=True),
    "noise": lambda a: make_noise_sequence(a.width, a.height, a.count, a.seed),
    "texture": lambda a: make_moving_texture(a.width, a.height, a.count, a.seed),
}


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


# each metric flag, the MetricConfig field it sets, its help, and its other
# add_argument keywords; the default is the field's
_METRIC_FLAGS = {
    "--tensor-frames": ("tensor_len", "frames per tensor", {"type": int}),
    "--window-radius": ("window_radius", "correlation window radius d", {"type": int}),
    "--window-sigma": ("window_sigma", "Gaussian window sigma", {"type": float}),
    "--stability-c": ("stability_c", "stabilizer C", {"type": float}),
    "--beta": ("beta", "pooling exponent", {"type": float}),
    "--normalize": ("plane_normalization", "plane normalization", {"choices": NORMALIZATION_MODES}),
    "--center-dc": ("center_dc", "shift the zero-frequency bin to the plane center",
                    {"type": _parse_bool, "metavar": "BOOL"}),
    "--padding": ("padding", "window border policy", {"choices": PADDING_MODES}),
}


def _metric_flags(parser: argparse._ActionsContainer, flags=tuple(_METRIC_FLAGS)) -> None:
    for flag in flags:
        name, text, kwargs = _METRIC_FLAGS[flag]
        default = getattr(MetricConfig(), name)
        parser.add_argument(flag, default=default, help=f"{text} (default %(default)s)", **kwargs)


def _config_from_args(args: argparse.Namespace) -> MetricConfig:
    # argparse's dest of "--tensor-frames" is "tensor_frames"
    dests = {name: flag[2:].replace("-", "_") for flag, (name, _, _) in _METRIC_FLAGS.items()}
    return MetricConfig(**{name: getattr(args, dest) for name, dest in dests.items()})


def _emit(fh: TextIO, record: dict) -> None:
    fh.write(json.dumps(record) + "\n")


def _cmd_score(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    timings: dict[str, float] = {}
    with _timed(timings, "read"):
        ref_frames = read_yuv420_file(args.ref, args.width, args.height)
        dist_frames = read_yuv420_file(args.dist, args.width, args.height)

    def dump_zeta(index: int, zeta: np.ndarray) -> None:
        write_grid(zeta, f"{args.dump_zeta}.tensor{index:03d}.grid")

    report = assess(
        ref_frames,
        dist_frames,
        cfg,
        frame_range=args.frames,
        zeta_callback=dump_zeta if args.dump_zeta else None,
    )
    timings.update(report.timings)

    # --out is opened only once scoring has succeeded, so a failure leaves it as it was
    dest = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with dest as out:
        offset = args.frames[0] if args.frames else 0
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
        for stage, seconds in timings.items():
            _emit(out, {"record": "timing", "stage": stage, "seconds": seconds})
    print(
        f"score {report.video_score:.6f} over {len(report.tensor_scores)} tensor(s) "
        f"in {sum(timings.values()):.2f}s",
        file=sys.stderr,
    )
    return 0


def _report_dict(report) -> dict:
    return {k: v for k, v in dataclasses.asdict(report).items() if k != "failures"}


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
    if args.level is not None and args.distort is None:
        raise ValueError("--level requires --distort")
    frames = PATTERNS[args.pattern](args)

    distortion = None
    if args.distort:
        if args.level is None:
            raise ValueError("--distort requires --level")
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
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=None,
                         help="FFT worker threads; the one extra worker thread is fixed")

    score = sub.add_parser("score", parents=[threads],
                           help="score one distorted video against its reference")
    score.add_argument("--ref", required=True, help="reference YUV 4:2:0 file")
    score.add_argument("--dist", required=True, help="distorted YUV 4:2:0 file")
    score.add_argument("--width", type=int, required=True)
    score.add_argument("--height", type=int, required=True)
    score.add_argument("--frames", type=_parse_frames, default=None, metavar="START:END",
                       help="inclusive frame range to score")
    score.add_argument("--out", default=None, help="write structured records here instead of stdout")
    score.add_argument("--dump-zeta", default=None, metavar="PREFIX",
                       help="write each tensor's correlation map as PREFIX.tensorNNN.grid")
    _metric_flags(score.add_argument_group("metric options"))
    score.set_defaults(func=_cmd_score)

    ev = sub.add_parser("evaluate", parents=[threads],
                        help="batch-evaluate a manifest against DMOS labels")
    ev.add_argument("--manifest", required=True, help="CSV manifest path")
    ev.add_argument("--out", default=None, help="write the JSON report here")
    _metric_flags(ev.add_argument_group("metric options"))
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

    dump = sub.add_parser("dump-tpsd", parents=[threads],
                          help="export aggregated PSD planes as grid files")
    dump.add_argument("--ref", required=True, help="input YUV 4:2:0 file")
    dump.add_argument("--width", type=int, required=True)
    dump.add_argument("--height", type=int, required=True)
    _metric_flags(dump, ("--tensor-frames", "--center-dc"))
    dump.add_argument("--frames", type=_parse_frames, default=None, metavar="START:END")
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
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone, which is no input error: say nothing,
        # and point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except REPORTED_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
