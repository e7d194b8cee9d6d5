"""The benchmark's own tests: its reference route, its output checks, its tracer.

Run from the repository root with ``python3 -m pytest benchmark/tests -q``.
"""

import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from oracles import pipeline_direct, psnr_direct  # noqa: E402


@pytest.mark.parametrize("shape", [(3, 16, 16), (4, 12, 18), (5, 14, 11)])
def test_reference_deficit_matches_direct_pipeline(shape):
    rng = np.random.default_rng(sum(shape))
    ref = rng.integers(0, 256, size=shape).astype(np.uint8)
    dist = np.clip(ref + rng.normal(0, 12, size=shape), 0, 255).astype(np.uint8)
    d = reference.deficit(reference.plane(ref), reference.plane(dist))
    # the oracles take (rows, columns, time)
    direct = pipeline_direct(ref.transpose(1, 2, 0), dist.transpose(1, 2, 0),
                             reference.RADIUS, reference.SIGMA, reference.STABILITY_C,
                             center_dc=True, padding="mirror")
    assert d > 0
    assert abs((1.0 - d) - direct) <= 1e-12


def test_reference_plane_is_parseval_of_direct_3d_dft():
    from oracles import tpsd_direct

    rng = np.random.default_rng(7)
    clip = rng.integers(0, 256, size=(4, 8, 6)).astype(np.uint8)
    want = tpsd_direct(clip.transpose(1, 2, 0).astype(np.float64), center_dc=True)
    np.testing.assert_allclose(reference.plane(clip), want, rtol=1e-10, atol=1e-6)


def test_reference_psnr_matches_direct_loop():
    rng = np.random.default_rng(3)
    ref = rng.integers(0, 256, size=(3, 10, 12)).astype(np.uint8)
    dist = np.clip(ref.astype(int) + rng.integers(-9, 10, size=ref.shape), 0, 255).astype(np.uint8)
    assert reference.psnr_db(ref, dist) == pytest.approx(psnr_direct(ref, dist), rel=1e-13)
    assert reference.psnr_db(ref, ref) == float("inf")


def test_tensor_bounds_drop_a_lone_trailing_frame():
    assert reference.tensor_bounds(120, 30) == [(0, 29), (30, 59), (60, 89), (90, 119)]
    assert reference.tensor_bounds(9, 4) == [(0, 3), (4, 7)]
    assert reference.tensor_bounds(10, 4) == [(0, 3), (4, 7), (8, 9)]


def _score_case():
    meta = {"frames": 8, "tensor_frames": 4, "width": 32, "height": 16}
    deficits = [2.5e-11, 4.0e-12]
    ref = {"pairs": [{"deficits": deficits}]}
    records = [
        {"record": "tensor", "index": i, "frame_start": 4 * i, "frame_end": 4 * i + 3,
         "depth": 4, "score": 1.0 - d}
        for i, d in enumerate(deficits)
    ]
    records.append({"record": "summary", "video_score": float(np.mean([r["score"] for r in records])),
                    "tensor_count": 2, "width": 32, "height": 16, "frames_total": 8,
                    "frames_used": 8})
    return meta, ref, records


def test_score_check_accepts_records_that_match_the_reference():
    meta, ref, records = _score_case()
    assert checks.check_score(records, meta, ref) == (set(), [])


def test_score_check_rejects_a_perturbed_score():
    meta, ref, records = _score_case()
    records[1]["score"] -= 1e-12
    failed, problems = checks.check_score(records, meta, ref)
    assert failed == {1}
    assert problems


def test_score_check_rejects_a_score_of_one():
    meta, ref, records = _score_case()
    ref["pairs"][0]["deficits"][0] = 0.0
    records[0]["score"] = 1.0
    failed, _ = checks.check_score(records, meta, ref)
    assert 0 in failed


def test_score_check_rejects_a_missing_tensor_record():
    meta, ref, records = _score_case()
    del records[0]
    failed, problems = checks.check_score(records, meta, ref)
    assert failed == {0, 1}
    assert problems


def test_timing_records_are_left_out_of_the_identity_check():
    text = '{"record": "tensor", "score": 0.5}\n{"record": "timing", "seconds": 1.25}\n'
    stable, records = checks.split_records(text)
    assert stable == ['{"record": "tensor", "score": 0.5}']
    assert len(records) == 2


def test_tracer_reports_a_missing_name_as_absent():
    import tpsdvqa.metric as metric

    original = metric.video_score
    tracer = tracing.Tracer()
    tracer.install([
        ("metric.pool", "tpsdvqa.metric:video_score", None),
        ("metric.gone", "tpsdvqa.metric:no_such_function", None),
        ("metric.gone", "tpsdvqa.no_such_module:anything", None),
    ])
    try:
        assert metric.video_score([0.5, 0.7]) == pytest.approx(0.6)
    finally:
        tracer.uninstall()
    assert metric.video_score is original
    assert tracer.absent == ["tpsdvqa.metric:no_such_function", "tpsdvqa.no_such_module:anything"]
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["metric.pool_s"] > 0
    assert layers["spectral.plane_calls"] == 0


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0,
         "work": 0, "peak_bytes": 0},
        {"id": 1, "name": "metric.assess", "parent": 0, "start": 1.0, "end": 7.0,
         "work": 0, "peak_bytes": 0},
        {"id": 2, "name": "spectral.plane", "parent": 1, "start": 2.0, "end": 5.0,
         "work": 6_000_000, "peak_bytes": 1 << 20},
    ]
    own = tracing.self_times(spans)
    assert own == {0: 4.0, 1: 3.0, 2: 3.0}
    layers = tracing.layer_metrics(spans)
    assert layers["spectral.mpixels_per_s"] == pytest.approx(2.0)
    assert layers["spectral.plane_peak_mb"] == pytest.approx(1.0)
    assert layers["cli.self_s"] == pytest.approx(4.0)


def test_a_launch_that_times_out_counts_as_failed(tmp_path, monkeypatch):
    import subprocess

    import run

    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run.subprocess, "run", hang)
    assert run.launch(["score"], False, "rep0") == {"exit_code": None, "records": ""}
