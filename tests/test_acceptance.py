"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the measured performance breakdown.
"""

import time

import numpy as np
import pytest

from oracles import local_moments_direct, tpsd_direct
from tpsdvqa.evaluate import pearson, spearman
from tpsdvqa.metric import (
    MetricConfig,
    assess,
    gaussian_window,
    local_moments,
    normalize_planes,
    tensor_score,
    zeta_map,
)
from tpsdvqa.spectral import tpsd_of_tensor
from tpsdvqa.synth import (
    DistortionSpec,
    apply_distortion,
    make_edge_sequence,
    make_moving_texture,
    make_noise_sequence,
)
from tpsdvqa.video_io import LumaFrame, read_yuv420_file, write_yuv420


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number:02d} {name}: {status}{suffix}")


def test_criterion_01_dft_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for shape in [(4, 4, 2), (5, 7, 3), (8, 8, 4), (16, 16, 8)]:
        x = rng.random(shape) * 255
        expected = tpsd_direct(x, center_dc=True)
        got = tpsd_of_tensor(x, center_dc=True)
        worst = max(worst, float(np.max(np.abs(got - expected)) / np.max(np.abs(expected))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "dft-oracle-equivalence", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_parseval_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        shape = tuple(int(rng.integers(2, 11)) for _ in range(3))
        x = rng.random(shape) * 255
        total = float(tpsd_of_tensor(x, center_dc=False).sum())
        sample_energy = float(np.sum(x * x))  # == mno * mean squared pixel energy
        worst = max(
            worst,
            abs(total - sample_energy) / sample_energy,
            abs(sample_energy - x.size * float(np.mean(x * x))) / sample_energy,
        )
    ok = worst <= 1e-6
    report(2, "parseval-identity", ok, f"max rel err {worst:.2e} over 100 tensors")
    assert worst <= 1e-6


def test_criterion_03_identity_score():
    cfg = MetricConfig()  # defaults, beta 1
    worst = 0.0
    cases = []
    for i in range(10):
        if i % 2:
            frames = make_moving_texture(32, 32, 30 + 7 * i, seed=300 + i)
        else:
            frames = make_noise_sequence(48, 32, 30 + 7 * i, seed=300 + i)
        rep = assess(frames, frames, cfg)
        worst = max(worst, abs(rep.video_score - 1.0))
        cases.append(rep.tensor_depths)
    # the mix must have exercised partial trailing tensors
    has_partial = any(depths[-1] < 30 for depths in cases)
    ok = worst <= 1e-12 and has_partial
    report(3, "identity-score", ok, f"max |score-1| {worst:.2e}, partial tensors {has_partial}")
    assert worst <= 1e-12
    assert has_partial


def test_criterion_04_boundedness():
    rng = np.random.default_rng(104)
    window = gaussian_window(5, 1.5)
    zeta_lo, zeta_hi = np.inf, -np.inf
    score_lo, score_hi = np.inf, -np.inf
    for trial in range(1000):
        shape = (int(rng.integers(11, 20)), int(rng.integers(11, 20)), int(rng.integers(2, 5)))
        scale = 10.0 ** rng.integers(-2, 3)
        ref = rng.random(shape) * scale
        dist = rng.random(shape) * scale
        center = bool(trial % 2)
        padding = "valid" if trial % 3 == 0 else "mirror"
        norm = ("ref-max", "none", "log10")[trial % 3]
        plane_r = tpsd_of_tensor(ref, center_dc=center)
        plane_d = tpsd_of_tensor(dist, center_dc=center)
        plane_r, plane_d = normalize_planes(plane_r, plane_d, norm)
        z = zeta_map(plane_r, plane_d, window, padding=padding)
        zeta_lo = min(zeta_lo, float(z.min()))
        zeta_hi = max(zeta_hi, float(z.max()))
        s = tensor_score(z)
        score_lo = min(score_lo, s)
        score_hi = max(score_hi, s)
    ok = (
        zeta_lo >= -1.0 - 1e-9
        and zeta_hi <= 1.0 + 1e-9
        and score_lo >= -1.0
        and score_hi <= 1.0
    )
    report(
        4,
        "boundedness",
        ok,
        f"zeta in [{zeta_lo:.6f}, {zeta_hi:.6f}], scores in [{score_lo:.6f}, {score_hi:.6f}]",
    )
    assert zeta_lo >= -1.0 - 1e-9 and zeta_hi <= 1.0 + 1e-9
    assert score_lo >= -1.0 and score_hi <= 1.0


LEVELS = {
    "gaussian-noise": (2.0, 5.0, 10.0, 20.0),
    "gaussian-blur": (0.5, 1.0, 2.0, 4.0),
    "block-quantize": (8.0, 16.0, 32.0, 64.0),
    "frame-freeze": (2.0, 5.0, 10.0, 20.0),
}


def monotonicity_scores():
    """Per-(family, reference) score curves at 128x128x30 scale, defaults."""
    cfg = MetricConfig()
    curves = {}
    for seed in range(5):
        ref = make_moving_texture(128, 128, 30, seed=seed)
        for kind, levels in LEVELS.items():
            scores = []
            for level in levels:
                dist = apply_distortion(ref, DistortionSpec(kind, level, seed=500 + seed))
                scores.append(assess(ref, dist, cfg).video_score)
            curves[(kind, seed)] = scores
    return curves


@pytest.fixture(scope="module")
def distortion_curves():
    return monotonicity_scores()


def test_criterion_05_monotonicity(distortion_curves):
    started = time.perf_counter()
    decreasing = sum(
        all(a > b for a, b in zip(scores, scores[1:]))
        for scores in distortion_curves.values()
    )
    trials = len(distortion_curves)
    elapsed = time.perf_counter() - started
    fraction = decreasing / trials
    ok = fraction >= 0.95
    report(
        5,
        "monotonicity",
        ok,
        f"strictly decreasing in {decreasing}/{trials} trials",
    )
    assert fraction >= 0.95
    assert elapsed < 300.0


def test_criterion_06_ranking_invariance_under_beta(distortion_curves):
    means = [float(np.mean(scores)) for scores in distortion_curves.values()]
    assert all(m >= 0 for m in means)
    assert len(set(means)) == len(means), "fixture means must be distinct"
    orders = [
        tuple(np.argsort([m**beta for m in means])) for beta in (0.5, 1.0, 2.0)
    ]
    ok = orders[0] == orders[1] == orders[2]
    report(6, "ranking-invariance-under-beta", ok, f"{len(means)} videos, beta 0.5/1/2")
    assert ok


def test_criterion_07_local_stats_oracle():
    rng = np.random.default_rng(107)
    window = gaussian_window(5, 1.5)
    worst = 0.0
    for padding in ("mirror", "valid"):
        for _ in range(3):
            x = rng.random((32, 32))
            y = rng.random((32, 32))
            want = local_moments_direct(x, y, np.outer(window, window), padding)
            got = local_moments(x, y, window, padding)
            for g, e in zip(got, want):
                worst = max(worst, float(np.max(np.abs(g - e))))
    ok = worst <= 1e-12
    report(7, "local-stats-oracle", ok, f"max abs err {worst:.2e}, both paddings")
    assert worst <= 1e-12


def test_criterion_08_edge_fixtures():
    # two-frame toy sequences; the wide dynamic range of the aggregated
    # planes is compressed with log10 so the stabilizer C stays negligible
    # and the correlation map reflects structure rather than saturating
    log_cfg = MetricConfig(tensor_len=2, plane_normalization="log10")
    default_cfg = MetricConfig(tensor_len=2)
    results = {}
    for name, motion in (("static", False), ("moving", True)):
        ref = make_edge_sequence(64, 64, motion)
        noisy = apply_distortion(ref, DistortionSpec("gaussian-noise", 12.0, seed=7))
        dist = [ref[0], noisy[1]]  # frame 1 degraded, frame 0 pristine

        identity = assess(ref, ref, log_cfg).video_score
        maps = []
        degraded = assess(ref, dist, log_cfg, zeta_callback=lambda i, z: maps.append(z))
        degraded_default = assess(ref, dist, default_cfg).video_score
        results[name] = {
            "identity": identity,
            "score": degraded.video_score,
            "score_default": degraded_default,
            "frac_below": float((maps[0] < 0.9).mean()),
        }
    static, moving = results["static"], results["moving"]
    ok = (
        static["identity"] == 1.0
        and moving["identity"] == 1.0
        and static["score"] < 1.0
        and moving["score"] < 1.0
        and static["score_default"] < 1.0
        and moving["score_default"] < 1.0
        and static["frac_below"] >= 0.10
    )
    report(
        8,
        "edge-fixtures",
        ok,
        f"static score {static['score']:.4f}, moving {moving['score']:.4f}, "
        f"{static['frac_below']:.1%} of map below 0.9",
    )
    assert static["identity"] == 1.0 and moving["identity"] == 1.0
    assert static["score"] < 1.0 and moving["score"] < 1.0
    assert static["score_default"] < 1.0 and moving["score_default"] < 1.0
    assert static["frac_below"] >= 0.10


def test_criterion_09_correlation_fixtures():
    checks = [
        (pearson([1, 2, 3], [1, 2, 3]), 1.0),
        (pearson([1, 2, 3], [3, 2, 1]), -1.0),
        # 10 / sqrt(148), frozen from exact rational arithmetic
        (pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 6]), 0.8219949365267865),
        (spearman([1, 5, 9, 40], [0.1, 0.2, 7.0, 7.5]), 1.0),
        # tied ranks [1.5, 1.5, 3]: sqrt(3)/2
        (spearman([1, 1, 2], [1, 2, 3]), 0.8660254037844386),
        # ties on both sides, crossing: ranks [3.5, 3.5, 2, 1] vs
        # [1, 2.5, 2.5, 4] give exactly -5/6
        (spearman([2, 2, 1, 0], [0, 1, 1, 2]), -5.0 / 6.0),
    ]
    worst = max(abs(got - expected) for got, expected in checks)
    ok = worst <= 1e-12
    report(9, "correlation-fixtures", ok, f"max abs err {worst:.2e} over {len(checks)} fixtures")
    assert worst <= 1e-12


def test_criterion_10_performance_720p(tmp_path):
    # soft criterion: 120 frames of 1280x720 with defaults in <= 60 s,
    # stage-by-stage times printed for the record
    block = make_moving_texture(128, 128, 120, seed=5)
    ref = [LumaFrame(np.tile(f.pixels, (6, 10))[:720, :1280]) for f in block]
    dist = apply_distortion(ref, DistortionSpec("block-quantize", 24.0, seed=6))
    ref_path = tmp_path / "ref_720p.yuv"
    dist_path = tmp_path / "dist_720p.yuv"
    write_yuv420(ref, ref_path)
    write_yuv420(dist, dist_path)
    assert ref_path.stat().st_size == 120 * 1280 * 720 * 3 // 2
    del ref, dist, block

    t0 = time.perf_counter()
    ref = read_yuv420_file(ref_path, 1280, 720)
    dist = read_yuv420_file(dist_path, 1280, 720)
    read_seconds = time.perf_counter() - t0
    result = assess(ref, dist, MetricConfig())
    stage_seconds = dict(result.timings)
    total = read_seconds + sum(stage_seconds.values())

    ok = total <= 60.0
    detail = (
        f"total {total:.2f}s: read {read_seconds:.2f}s"
        + "".join(f", {k} {v:.2f}s" for k, v in stage_seconds.items())
        + f"; score {result.video_score:.6f} over {len(result.tensor_scores)} tensors"
    )
    report(10, "performance-720p", ok, detail)
    assert len(result.tensor_scores) == 4
    assert total <= 60.0, (
        f"scoring took {total:.2f}s > 60s; per-stage: read {read_seconds:.2f}s, "
        f"{stage_seconds}"
    )
