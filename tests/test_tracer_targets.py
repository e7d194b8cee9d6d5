"""The benchmark's tracer must find every function it wraps in the program.

A traced benchmark run lists a wrapped name that no longer exists under
``absent`` and reads its layer metrics as 0, so a refactor that renames or
removes one of those functions would silently blank a layer.
"""

import os
import sys
import tracemalloc

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import tpsdvqa.cli  # noqa: E402
import tpsdvqa.metric  # noqa: E402
from tpsdvqa.synth import DistortionSpec, apply_distortion, make_moving_texture  # noqa: E402
from tpsdvqa.video_io import write_yuv420  # noqa: E402
from tracing import Tracer  # noqa: E402

# wrapped by the benchmark's video_io.to_float layer, deleted from the library
# with the 3D route; and assess as evaluate saw it, which no longer calls it
KNOWN_STALE = {"tpsdvqa.video_io:LumaTensor.as_array", "tpsdvqa.evaluate:assess"}


def test_every_traced_name_exists():
    was_tracing = tracemalloc.is_tracing()
    tracer = Tracer()
    try:
        tracer.install()
        assert set(tracer.absent) == KNOWN_STALE
    finally:
        tracer.uninstall()
        if not was_tracing:
            tracemalloc.stop()


def test_traced_evaluate_counts_work_in_every_layer(capsys, tmp_path):
    # a traced run calls the work counters on real arguments: psnr's frames
    # need len() and a plane's tensor needs depth, height and width
    ref = make_moving_texture(64, 48, 6, seed=1)
    rows = ["ref_path,dist_path,width,height,dmos,tag"]
    for i, level in enumerate((4.0, 12.0)):
        write_yuv420(ref, tmp_path / f"r{i}.yuv")
        write_yuv420(
            apply_distortion(ref, DistortionSpec("gaussian-noise", level, seed=2)),
            tmp_path / f"d{i}.yuv",
        )
        rows.append(f"r{i}.yuv,d{i}.yuv,64,48,{i + 1}.0,noise")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")

    was_tracing = tracemalloc.is_tracing()
    tracer = Tracer()
    try:
        tracer.install()
        code = tpsdvqa.cli.main(
            ["evaluate", "--manifest", str(manifest), "--tensor-frames", "3"]
        )
    finally:
        tracer.uninstall()
        if not was_tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    for name, calls in (("video_io.read", 4), ("spectral.plane", 8), ("evaluate.psnr", 2)):
        spans = [s for s in tracer.spans if s["name"] == name]
        assert len(spans) == calls, name
        assert all(s["work"] > 0 for s in spans), name


def test_traced_score_over_threaded_zeta_bands(capsys, tmp_path):
    # the tracer keeps one span stack, so the zeta worker thread must call no
    # wrapped function; 96 rows make two bands, one of them on the worker
    ref = make_moving_texture(160, 96, 8, seed=1)
    write_yuv420(ref, tmp_path / "ref.yuv")
    write_yuv420(
        apply_distortion(ref, DistortionSpec("gaussian-noise", 8.0, seed=2)),
        tmp_path / "dist.yuv",
    )
    assert 96 > tpsdvqa.metric.ZETA_BAND_ROWS

    was_tracing = tracemalloc.is_tracing()
    tracer = Tracer()
    try:
        tracer.install()
        code = tpsdvqa.cli.main(
            ["score", "--ref", str(tmp_path / "ref.yuv"), "--dist", str(tmp_path / "dist.yuv"),
             "--width", "160", "--height", "96", "--tensor-frames", "4"]
        )
    finally:
        tracer.uninstall()
        if not was_tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    zeta_ids = {s["id"] for s in tracer.spans if s["name"] == "metric.zeta"}
    assert len(zeta_ids) == 2
    # a wrapped call from the worker would nest under the caller's open zeta span
    assert [s["name"] for s in tracer.spans if s["parent"] in zeta_ids] == []
    # score runs its plane pairs as evaluate does: one wrapped call per side
    tensors = 2
    for name, calls in (("spectral.plane", 2 * tensors), ("metric.assess", 1)):
        assert len([s for s in tracer.spans if s["name"] == name]) == calls, name
    # every span was closed
    assert all("end" in s and "peak_bytes" in s for s in tracer.spans)


def test_traced_evaluate_over_entry_pairs(capsys, tmp_path):
    # the tracer keeps one span stack, so each side of a fork may make one
    # wrapped call that makes no other; 5 entries on one reference give three
    # plane pairs per tensor, the reference leading, and two PSNR pairs and a
    # lone PSNR, and evaluate calls no assess
    ref = make_moving_texture(64, 48, 6, seed=1)
    write_yuv420(ref, tmp_path / "ref.yuv")
    rows = ["ref_path,dist_path,width,height,dmos,tag"]
    for i in range(5):
        write_yuv420(
            apply_distortion(ref, DistortionSpec("gaussian-noise", 4.0 * (i + 1), seed=2)),
            tmp_path / f"d{i}.yuv",
        )
        rows.append(f"ref.yuv,d{i}.yuv,64,48,{i + 1}.0,noise")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")

    was_tracing = tracemalloc.is_tracing()
    tracer = Tracer()
    try:
        tracer.install()
        code = tpsdvqa.cli.main(
            ["evaluate", "--manifest", str(manifest), "--tensor-frames", "3"]
        )
    finally:
        tracer.uninstall()
        if not was_tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    tensors = 2
    for name, calls in (
        ("spectral.plane", 6 * tensors), ("evaluate.psnr", 5), ("metric.assess", 0),
    ):
        assert len([s for s in tracer.spans if s["name"] == name]) == calls, name
    # every span was closed
    assert all("end" in s and "peak_bytes" in s for s in tracer.spans)
