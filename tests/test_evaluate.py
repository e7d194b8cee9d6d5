import math

import numpy as np
import pytest
import scipy.stats

from conftest import random_frames
from oracles import psnr_direct
from tpsdvqa.errors import (
    ConstantInput,
    DimensionMismatch,
    EmptyManifest,
    FrameCountMismatch,
    LengthMismatch,
)
from tpsdvqa.evaluate import (
    DatasetManifest,
    ManifestEntry,
    correlation_report,
    evaluate_dataset,
    load_manifest,
    pearson,
    psnr,
    score_manifest,
    spearman,
)
from tpsdvqa.metric import MetricConfig
from tpsdvqa.synth import DistortionSpec, apply_distortion, make_moving_texture
from tpsdvqa.video_io import write_yuv420

# pearson([1,2,3,4,5], [2,1,4,3,6]) = 10 / sqrt(148), frozen from exact
# rational arithmetic
PEARSON_5POINT = 0.8219949365267865
# spearman([1,1,2], [1,2,3]) with average ranks = sqrt(3)/2
SPEARMAN_TIED_3POINT = 0.8660254037844386


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == 1.0

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_five_point_fixture(self):
        assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 6]) == pytest.approx(
            PEARSON_5POINT, abs=1e-12
        )

    def test_affine_invariance(self, rng):
        x = rng.random(20)
        y = rng.random(20)
        r = pearson(x, y)
        assert pearson(2.5 * x + 3.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(x, 0.1 * y - 7.0) == pytest.approx(r, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ConstantInput):
            pearson([1, 2, 3], [5, 5, 5])
        with pytest.raises(ConstantInput):
            pearson([1], [2])


class TestSpearman:
    def test_monotone_increasing_is_one(self):
        assert spearman([1, 5, 9, 40], [0.1, 0.2, 7.0, 7.5]) == 1.0

    def test_tied_fixture(self):
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(
            SPEARMAN_TIED_3POINT, abs=1e-12
        )

    def test_matches_scipy_on_random_ten_points(self, rng):
        for _ in range(5):
            x = rng.random(10)
            y = rng.random(10)
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_ties_match_scipy(self, rng):
        x = rng.integers(0, 4, size=12).astype(float)
        y = rng.integers(0, 4, size=12).astype(float)
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        x = rng.random(15)
        y = rng.random(15)
        r = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(r, abs=1e-12)
        assert spearman(x, y**3) == pytest.approx(r, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman([1], [1, 2])


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        frames = random_frames(rng, 8, 8, 3)
        assert psnr(frames, frames) == math.inf

    def test_constant_offset_closed_form(self, rng):
        ref = random_frames(rng, 8, 8, 2)
        shifted = [
            type(f)(np.clip(f.pixels.astype(np.int16) - 16, 0, 255).astype(np.uint8))
            for f in ref
        ]
        # keep the offset exact: raise the floor so nothing clips
        ref = [type(f)(np.maximum(f.pixels, 16)) for f in ref]
        shifted = [type(f)(f.pixels - 16) for f in ref]
        value = psnr(ref, shifted)
        assert value == pytest.approx(24.048403955560608, abs=1e-9)

    def test_matches_loop_oracle(self, rng):
        ref = random_frames(rng, 6, 5, 3)
        dist = random_frames(rng, 6, 5, 3)
        expected = psnr_direct([f.pixels for f in ref], [f.pixels for f in dist])
        assert psnr(ref, dist) == pytest.approx(expected, abs=1e-9)

    def test_frame_count_mismatch(self, rng):
        frames = random_frames(rng, 4, 4, 3)
        with pytest.raises(FrameCountMismatch):
            psnr(frames, frames[:-1])

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            psnr(random_frames(rng, 4, 4, 2), random_frames(rng, 4, 6, 2))


class TestManifest:
    def test_parse_with_optional_columns(self, tmp_path):
        (tmp_path / "ref.yuv").write_bytes(bytes(24))
        (tmp_path / "dist.yuv").write_bytes(bytes(24))
        manifest_path = tmp_path / "set.csv"
        manifest_path.write_text(
            "ref_path,dist_path,width,height,dmos,tag,frame_start,frame_end\n"
            "ref.yuv,dist.yuv,4,4,1.25,compression,,\n"
            "ref.yuv,dist.yuv,4,4,2.5,freeze,90,299\n",
            encoding="utf-8",
        )
        manifest = load_manifest(manifest_path)
        assert len(manifest.entries) == 2
        first, second = manifest.entries
        assert first.ref_path == str(tmp_path / "ref.yuv")
        assert first.frame_start is None and first.frame_end is None
        assert first.frame_range(300) is None
        assert second.frame_range(300) == (90, 299)
        assert second.dmos == 2.5
        assert second.tag == "freeze"

    def test_partial_frame_columns_resolve_against_video(self):
        entry = ManifestEntry("a.yuv", "b.yuv", 4, 4, 1.0, "x", frame_start=90)
        assert entry.frame_range(300) == (90, 299)
        entry = ManifestEntry("a.yuv", "b.yuv", 4, 4, 1.0, "x", frame_end=99)
        assert entry.frame_range(300) == (0, 99)

    def test_missing_header_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ref_path,dist_path,width,height,dmos\na,b,4,4,1\n")
        with pytest.raises(ValueError, match="tag"):
            load_manifest(path)

    def test_identical_paths_rejected(self):
        with pytest.raises(ValueError):
            ManifestEntry("same.yuv", "same.yuv", 4, 4, 1.0, "x")

    def test_non_finite_dmos_rejected(self):
        with pytest.raises(ValueError):
            ManifestEntry("a.yuv", "b.yuv", 4, 4, math.nan, "x")

    def test_empty_manifest_raises_on_evaluate(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ref_path,dist_path,width,height,dmos,tag\n")
        manifest = load_manifest(path)
        assert manifest.entries == ()
        with pytest.raises(EmptyManifest):
            evaluate_dataset(manifest, MetricConfig())

    def test_empty_manifest_raises_on_score(self):
        with pytest.raises(EmptyManifest):
            score_manifest(DatasetManifest(entries=()), MetricConfig())


def _write_pair(tmp_path, name, ref_frames, dist_frames):
    ref_path = tmp_path / f"{name}_ref.yuv"
    dist_path = tmp_path / f"{name}_dist.yuv"
    write_yuv420(ref_frames, ref_path)
    write_yuv420(dist_frames, dist_path)
    return str(ref_path), str(dist_path)


@pytest.fixture(scope="module")
def small_config():
    return MetricConfig(tensor_len=4)


class TestEvaluateDataset:
    def test_rank_aligned_entries_give_perfect_negative_scc(self, tmp_path, small_config):
        ref = make_moving_texture(32, 32, 4, seed=21)
        entries = []
        for i, level in enumerate((2.0, 10.0, 40.0)):
            dist = apply_distortion(ref, DistortionSpec("gaussian-noise", level, seed=22))
            rp, dp = _write_pair(tmp_path, f"v{i}", ref, dist)
            entries.append(
                ManifestEntry(rp, dp, 32, 32, dmos=10.0 * (i + 1), tag="noise")
            )
        report = evaluate_dataset(DatasetManifest(tuple(entries)), small_config)
        # higher noise -> lower score and higher DMOS: perfect rank anticorrelation
        assert report.scc == -1.0
        assert report.n == 3
        assert -1.0 <= report.pcc < 0.0

    def test_twenty_entry_fixture_matches_recomputed_correlations(
        self, tmp_path, small_config
    ):
        kinds_levels = [
            ("gaussian-noise", (2.0, 6.0, 18.0, 54.0)),
            ("gaussian-blur", (0.5, 1.0, 2.0, 4.0)),
            ("block-quantize", (8.0, 16.0, 32.0, 64.0)),
            ("frame-freeze", (1.0, 2.0, 3.0, 4.0)),
        ]
        ref = make_moving_texture(32, 32, 8, seed=31)
        entries = []
        jitter = np.random.default_rng(99).normal(0, 0.4, size=20)
        idx = 0
        for kind, levels in kinds_levels:
            for j, level in enumerate(levels):
                dist = apply_distortion(ref, DistortionSpec(kind, level, seed=32))
                rp, dp = _write_pair(tmp_path, f"e{idx}", ref, dist)
                entries.append(
                    ManifestEntry(
                        rp, dp, 32, 32,
                        dmos=float(20 + 10 * j + jitter[idx]),
                        tag=kind,
                    )
                )
                idx += 1
        # four extra identity pairs under a fifth tag
        for j in range(4):
            other = make_moving_texture(32, 32, 8, seed=40 + j)
            rp, dp = _write_pair(tmp_path, f"id{j}", other, apply_distortion(
                other, DistortionSpec("gaussian-noise", 0.5 + j, seed=41)))
            entries.append(ManifestEntry(rp, dp, 32, 32, dmos=float(5 + j), tag="mild"))

        manifest = DatasetManifest(tuple(entries))
        results = score_manifest(manifest, small_config)
        assert all(r.error is None for r in results)
        report = correlation_report(results, "tpsd")

        # spreadsheet-style recomputation from the collected per-entry scores
        scores = np.array([r.score for r in results])
        dmos = np.array([r.entry.dmos for r in results])
        assert report.pcc == pytest.approx(
            scipy.stats.pearsonr(scores, dmos).statistic, abs=1e-12
        )
        assert report.scc == pytest.approx(
            scipy.stats.spearmanr(scores, dmos).statistic, abs=1e-12
        )
        for tag, stats in report.per_tag.items():
            mask = np.array([r.entry.tag == tag for r in results])
            assert stats.n == int(mask.sum())
            assert stats.pcc == pytest.approx(
                scipy.stats.pearsonr(scores[mask], dmos[mask]).statistic, abs=1e-12
            )
        # per-tag groups partition the entries
        assert sum(s.n for s in report.per_tag.values()) == report.n == 20

        # the PSNR baseline column works through the same harness
        psnr_report = correlation_report(results, "psnr")
        finite = np.isfinite([r.psnr_db for r in results])
        assert psnr_report.n == 20
        assert finite.all()

    def test_per_entry_failures_collected(self, tmp_path, small_config):
        ref = make_moving_texture(32, 32, 4, seed=51)
        dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 5.0, seed=52))
        rp, dp = _write_pair(tmp_path, "good0", ref, dist)
        dist2 = apply_distortion(ref, DistortionSpec("gaussian-noise", 15.0, seed=52))
        rp2, dp2 = _write_pair(tmp_path, "good1", ref, dist2)
        entries = (
            ManifestEntry(rp, dp, 32, 32, dmos=1.0, tag="a"),
            ManifestEntry(
                str(tmp_path / "missing_ref.yuv"), dp, 32, 32, dmos=2.0, tag="a"
            ),
            ManifestEntry(rp2, dp2, 32, 32, dmos=3.0, tag="a"),
        )
        results = score_manifest(DatasetManifest(entries), small_config)
        assert [r.error for r in results] == [None, "FileNotFoundError", None]
        report = correlation_report(results, "tpsd")
        assert report.n == 2
        assert len(report.failures) == 1
        assert report.failures[0].index == 1

    def test_frame_range_honored_per_entry(self, tmp_path):
        # distortion only in the first half; scoring the clean tail scores 1.0
        ref = make_moving_texture(32, 32, 12, seed=61)
        dist = [f for f in ref]
        noisy = apply_distortion(ref[:6], DistortionSpec("gaussian-noise", 30.0, seed=62))
        dist[:6] = noisy
        rp, dp = _write_pair(tmp_path, "ranged", ref, dist)
        cfg = MetricConfig(tensor_len=3)
        entry_full = ManifestEntry(rp, dp, 32, 32, dmos=1.0, tag="x")
        entry_tail = ManifestEntry(
            rp, dp, 32, 32, dmos=1.0, tag="x", frame_start=6, frame_end=11
        )
        full, tail = score_manifest(
            DatasetManifest((entry_full, entry_tail)), cfg
        )
        assert full.score < 1.0
        assert tail.score == pytest.approx(1.0, abs=1e-12)
        assert tail.psnr_db == math.inf

    def test_undefined_group_correlations_are_none(self, tmp_path, small_config):
        ref = make_moving_texture(32, 32, 4, seed=71)
        dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 5.0, seed=72))
        rp, dp = _write_pair(tmp_path, "solo", ref, dist)
        entries = (ManifestEntry(rp, dp, 32, 32, dmos=1.0, tag="only"),)
        report = evaluate_dataset(DatasetManifest(entries), small_config)
        assert report.n == 1
        assert report.pcc is None and report.scc is None
        assert report.per_tag["only"].pcc is None
