"""Workload definitions and their fixtures, synthesized by ``tpsdvqa.synth``.

A fixture set is keyed by workload, seed and geometry and cached under
``benchmark/.cache``. Next to the YUV files it holds ``fixture.json`` (what
was made and how) and ``reference.json`` (the independent route's figures,
see ``reference.py``). Synthesis and the reference are the benchmark's own
set-up: they run in this process, before and outside every timed run.

Make (or reuse) a fixture set and its reference::

    python3 benchmark/fixtures.py --workload evaluate-shared-refs --seed 1

Remake only the reference of an existing set::

    python3 benchmark/fixtures.py --workload evaluate-shared-refs --seed 1 --remake-reference
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
# Fixture sets kept per workload; older seeds are evicted (720p pairs are 332 MB).
KEEP_PER_WORKLOAD = 2

# Levels per synth family on evaluate-shared-refs, two each so that every
# reference carries 8 entries. On seeds 0-29 the score falls strictly with
# the level, the higher level's deficit is at least 15x the lower one's, and
# the smallest deficit is 1.5e-14, well clear of exact 1.0
# (gaussian-blur 0.75 scores exactly 1.0 on a 12-frame clip of seed 0).
EVALUATE_LEVELS = {
    "gaussian-noise": (8.0, 32.0),
    "gaussian-blur": (1.5, 6.0),
    "block-quantize": (8.0, 32.0),
    "frame-freeze": (2.0, 6.0),
}

WORKLOADS = {
    # criterion-10 pair: 2x2-tiled texture, block-quantize 24, 4 tensors of 30
    "score-720p": {
        "command": "score", "width": 1280, "height": 720, "frames": 120, "tile": 2,
        "family": "block-quantize", "level": 24.0, "tensor_frames": 30, "flags": [],
    },
    # one plane per 4 frames at 2.07 M bins: per-plane work dominates
    "score-1080p-short-tensors": {
        "command": "score", "width": 1920, "height": 1080, "frames": 24, "tile": 2,
        "family": "gaussian-noise", "level": 32.0, "tensor_frames": 4,
        "flags": ["--tensor-frames", "4"],
    },
    # LIVE VQA geometry, one full default tensor per clip; every reference
    # carries all four families at 2 levels
    "evaluate-shared-refs": {
        "command": "evaluate", "width": 768, "height": 432, "frames": 30, "tile": 1,
        "references": 2, "tensor_frames": 30, "flags": [],
    },
}


def set_dir(workload: str, seed: int) -> str:
    w = WORKLOADS[workload]
    return os.path.join(CACHE_DIR, workload, f"seed{seed}-{w['width']}x{w['height']}x{w['frames']}")


def _texture(width: int, height: int, frames: int, tile: int, seed: int):
    import numpy as np

    from tpsdvqa.synth import make_moving_texture
    from tpsdvqa.video_io import LumaFrame

    base = make_moving_texture(width // tile, height // tile, frames, seed)
    if tile == 1:
        return base
    return [LumaFrame(np.tile(f.pixels, (tile, tile))) for f in base]


def _distorted(frames, family: str, level: float, seed: int):
    from tpsdvqa.synth import DistortionSpec, apply_distortion

    return apply_distortion(frames, DistortionSpec(kind=family, level=level, seed=seed))


def _make_score_set(spec: dict, seed: int, out: str) -> dict:
    from tpsdvqa.video_io import write_yuv420

    ref = _texture(spec["width"], spec["height"], spec["frames"], spec["tile"], seed)
    write_yuv420(ref, os.path.join(out, "ref.yuv"))
    write_yuv420(_distorted(ref, spec["family"], spec["level"], seed), os.path.join(out, "dist.yuv"))
    pair = {"ref": "ref.yuv", "dist": "dist.yuv", "family": spec["family"], "level": spec["level"]}
    return {"pairs": [pair]}


def _make_evaluate_set(spec: dict, seed: int, out: str) -> dict:
    import numpy as np

    from tpsdvqa.video_io import write_yuv420

    rng = np.random.default_rng(seed)
    pairs = []
    for r in range(spec["references"]):
        ref_name = f"ref{r}.yuv"
        ref = _texture(spec["width"], spec["height"], spec["frames"], spec["tile"], seed * 16 + r)
        write_yuv420(ref, os.path.join(out, ref_name))
        for family, levels in EVALUATE_LEVELS.items():
            for rank, level in enumerate(levels):
                dist_name = f"ref{r}-{family}-{level:g}.yuv"
                write_yuv420(_distorted(ref, family, level, seed), os.path.join(out, dist_name))
                # synthetic DMOS: a 20-point step per level plus < 10 points of
                # seeded jitter, so it is monotone in the level within a family
                dmos = round(20.0 + 20.0 * rank + 10.0 * float(rng.random()), 3)
                pairs.append({
                    "ref": ref_name, "dist": dist_name, "family": family,
                    "level": level, "dmos": dmos, "reference_index": r,
                })
    with open(os.path.join(out, "manifest.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ref_path", "dist_path", "width", "height", "dmos", "tag",
                         "frame_start", "frame_end"])
        for p in pairs:
            writer.writerow([p["ref"], p["dist"], spec["width"], spec["height"], p["dmos"],
                             p["family"], "", ""])
    return {"pairs": pairs, "manifest": "manifest.csv"}


def _flush_to_disk(directory: str) -> None:
    """fsync the new files, so that their write-back does not overlap timed runs."""
    for name in os.listdir(directory):
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _evict(workload: str, keep: str) -> None:
    parent = os.path.join(CACHE_DIR, workload)
    if not os.path.isdir(parent):
        return
    entries = [os.path.join(parent, e) for e in os.listdir(parent)]
    entries = [e for e in entries if e != keep]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP_PER_WORKLOAD - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)


def _write_reference(workload: str, out: str, meta: dict) -> None:
    import reference

    spec = WORKLOADS[workload]
    pairs = [
        {"ref": os.path.join(out, p["ref"]), "dist": os.path.join(out, p["dist"]),
         "width": spec["width"], "height": spec["height"]}
        for p in meta["pairs"]
    ]
    figures = reference.compute(pairs, spec["tensor_frames"])
    tmp = os.path.join(out, "reference.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"tensor_frames": spec["tensor_frames"], "pairs": figures}, fh)
    os.replace(tmp, os.path.join(out, "reference.json"))


def prepare(workload: str, seed: int, remake_reference: bool = False) -> str:
    """Make the fixture set and its reference if missing; return the set's directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    out = set_dir(workload, seed)
    if not os.path.exists(os.path.join(out, "fixture.json")):
        spec = WORKLOADS[workload]
        tmp = out + ".partial"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        make = _make_score_set if spec["command"] == "score" else _make_evaluate_set
        meta = {"workload": workload, "seed": seed, **spec, **make(spec, seed, tmp)}
        with open(os.path.join(tmp, "fixture.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
        _flush_to_disk(tmp)
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    os.utime(out)
    _evict(workload, keep=out)
    if remake_reference or not os.path.exists(os.path.join(out, "reference.json")):
        with open(os.path.join(out, "fixture.json"), encoding="utf-8") as fh:
            _write_reference(workload, out, json.load(fh))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--remake-reference", action="store_true",
                        help="recompute reference.json even if it exists")
    args = parser.parse_args(argv)
    print(prepare(args.workload, args.seed, args.remake_reference))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
