import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_frames
from oracles import average_ranks_direct, psnr_direct
import tpsdvqa.evaluate
import tpsdvqa.metric
from tpsdvqa.errors import (
    ConstantInput,
    DimensionMismatch,
    EmptyManifest,
    FrameCountMismatch,
    LengthMismatch,
    VqaError,
)
from tpsdvqa.evaluate import (
    EntryResult,
    ManifestEntry,
    TagStats,
    correlation_report,
    load_manifest,
    pearson,
    psnr,
    score_manifest,
    spearman,
)
from tpsdvqa.metric import MetricConfig, assess
from tpsdvqa.synth import DistortionSpec, apply_distortion, make_moving_texture
from tpsdvqa.video_io import LumaFrame, read_yuv420_file, write_yuv420

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

    @settings(deadline=None, max_examples=60)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_subnormal=False),
                st.floats(-1e3, 1e3, allow_subnormal=False),
            ),
            min_size=2,
            max_size=12,
        ),
        k=st.integers(-900, 900),
    )
    def test_label_scale_is_exact(self, pairs, k):
        # scaling by a power of two is exact while the labels stay normal, so
        # it must not change a single bit, nor turn a defined r undefined
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        assume(np.all((y == 0) | (np.abs(y) >= 1e-6)))
        try:
            r = pearson(x, y)
        except ConstantInput:
            with pytest.raises(ConstantInput):
                pearson(x, y * 2.0**k)
            return
        assert pearson(x, y * 2.0**k) == r

    def test_extreme_label_scales(self):
        assert pearson([0.9, 0.8, 0.7], [1e200, 2e200, 3e200]) == -1.0
        assert pearson([0.9, 0.8, 0.7], [1e-200, 2e-200, 3e-200]) == -1.0

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
        # the float mean of these 31 equal values is not the value itself
        with pytest.raises(ConstantInput):
            pearson([93.12651808120499] * 31, range(31))
        with pytest.raises(ConstantInput):
            pearson(range(31), [93.12651808120499] * 31)

    def test_non_finite_sample_is_undefined(self):
        # inf - inf is NaN, which a clamp into [-1, 1] would turn into -1.0
        with pytest.raises(ConstantInput):
            pearson([math.inf, 40.0, 30.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantInput):
            pearson([1.0, 2.0, 3.0], [1.0, math.nan, 3.0])
        assert spearman([math.inf, 40.0, 30.0], [1.0, 2.0, 3.0]) == -1.0
        # NaN has no rank, while +-inf ranks as an extreme
        with pytest.raises(ConstantInput):
            spearman([1.0, math.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ConstantInput):
            spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.nan, 4.0])

    def test_identical_copy_leaves_psnr_pcc_undefined(self):
        # a bit-identical entry scores psnr_db = +inf
        results = [
            EntryResult(i, ManifestEntry("r.yuv", f"d{i}.yuv", 4, 4, float(i), "x"),
                        score=1.0 - i / 10, psnr_db=db)
            for i, db in enumerate((math.inf, 40.0, 30.0, 20.0))
        ]
        report = correlation_report(results, "psnr")
        assert report.pcc is None and report.per_tag["x"].pcc is None
        assert report.scc == -1.0


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

    @settings(deadline=None, max_examples=100)
    @given(
        pairs=st.lists(
            st.tuples(
                st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 1.0, 7.0, math.inf]),
                st.floats(allow_nan=False),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_matches_pairwise_rank_oracle_exactly(self, pairs):
        # ties, signed zeros and +-inf all rank as the pairwise count says
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        try:
            expected = pearson(average_ranks_direct(x), average_ranks_direct(y))
        except ConstantInput:
            with pytest.raises(ConstantInput):
                spearman(x, y)
            return
        assert spearman(x, y) == expected


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

    def test_squared_error_is_exact(self, rng):
        # every partial sum of squared 8-bit differences is an integer below
        # 2**53, so the float64 total is exact and equals the integer one
        ref = random_frames(rng, 64, 48, 4)
        dist = random_frames(rng, 64, 48, 4)
        sse = sum(
            int(((r.pixels.astype(np.int64) - d.pixels) ** 2).sum()) for r, d in zip(ref, dist)
        )
        assert psnr(ref, dist) == 10.0 * math.log10(255.0**2 / (sse / (4 * 64 * 48)))

    @settings(deadline=None, max_examples=60)
    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        count=st.integers(1, 4),
        spread=st.sampled_from([0, 1, 8, 255]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_8_bit_frames_sum_an_exact_integer(self, height, width, count, spread, seed):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 256, (count, height, width), dtype=np.uint8)
        noise = rng.integers(-spread, spread + 1, ref.shape)
        dist = np.clip(ref + noise, 0, 255).astype(np.uint8)
        sse = int(((ref.astype(np.int64) - dist) ** 2).sum())
        got = psnr([LumaFrame(f) for f in ref], [LumaFrame(f) for f in dist])
        if sse == 0:
            assert got == math.inf
        else:
            assert got == 10.0 * math.log10(255.0**2 / (sse / ref.size))

    def test_other_dtypes_take_the_float_sum(self, rng):
        ref = random_frames(rng, 24, 16, 3)
        dist = [LumaFrame(f.pixels + rng.random(f.pixels.shape)) for f in ref]
        total = 0.0
        for r, d in zip(ref, dist):
            diff = np.subtract(r.pixels, d.pixels, dtype=np.float64)
            total += float(np.einsum("ij,ij->", diff, diff))
        assert psnr(ref, dist) == 10.0 * math.log10(255.0**2 / (total / (3 * 24 * 16)))
        assert psnr(dist, dist) == math.inf

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
        assert len(manifest) == 2
        first, second = manifest
        assert first.ref_path == str(tmp_path / "ref.yuv")
        assert first.frame_start is None and first.frame_end is None
        assert first.frame_range(300) is None
        assert second.frame_range(300) == (90, 299)
        assert second.dmos == 2.5
        assert second.tag == "freeze"

    def test_header_after_a_byte_order_mark(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a leading BOM
        path = tmp_path / "excel.csv"
        path.write_text(
            "ref_path,dist_path,width,height,dmos,tag\nref.yuv,dist.yuv,4,4,1.5,blur\n",
            encoding="utf-8-sig",
        )
        (entry,) = load_manifest(path)
        assert entry.ref_path == str(tmp_path / "ref.yuv")
        assert entry.tag == "blur"

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

    def test_short_row_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "ref_path,dist_path,width,height,dmos,tag\n"
            "a.yuv,b.yuv,32,32,1.0,x\n"
            "r.yuv,d.yuv,32\n"
        )
        with pytest.raises(ValueError, match="line 3 is missing columns: height, dmos, tag"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "header,row",
        [
            ("ref_path,dist_path,width,height,dmos,tag,frame_start,frame_end", ",,,,,,,,extra"),
            ("ref_path,dist_path,width,height,dmos,tag", "a.yuv,b.yuv,32,32,1.0,x,junk"),
        ],
    )
    def test_fields_past_the_header_rejected(self, tmp_path, header, row):
        path = tmp_path / "wide.csv"
        path.write_text(f"{header}\nr.yuv,d.yuv,32,32,1.0,x\n{row}\n")
        with pytest.raises(ValueError, match="manifest line 3 has fields past the header"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("r.yuv,d.yuv,abc,32,1.0,x,,", "invalid literal for int"),
            ("r.yuv,d.yuv,32,32,1.0,x,x,", "invalid literal for int"),
            ("r.yuv,d.yuv,32,32,nan,x,,", "dmos must be finite"),
            ("r.yuv,r.yuv,32,32,1.0,x,,", "entry paths must be distinct"),
            ("r.yuv,./r.yuv,32,32,1.0,x,,", "entry paths must be distinct"),
            ("sub/../r.yuv,r.yuv,32,32,1.0,x,,", "entry paths must be distinct"),
        ],
    )
    def test_bad_value_rejected_with_its_line(self, tmp_path, row, message):
        # paths are compared by the file they open, so that file must exist
        (tmp_path / "r.yuv").write_bytes(b"")
        (tmp_path / "sub").mkdir()
        path = tmp_path / "bad.csv"
        path.write_text(
            "ref_path,dist_path,width,height,dmos,tag,frame_start,frame_end\n"
            f"r.yuv,d.yuv,32,32,1.0,x,,\n{row}\n"
        )
        with pytest.raises(ValueError, match=f"^manifest line 3: {message}"):
            load_manifest(path)

    @pytest.mark.parametrize("blank", [",,,,,", " , ,  ,,, "])
    def test_blank_row_is_skipped_and_lines_stay_physical(self, tmp_path, blank):
        path = tmp_path / "gaps.csv"
        header = "ref_path,dist_path,width,height,dmos,tag\n"
        path.write_text(f"{header}r.yuv,d1.yuv,4,4,1.0,x\n{blank}\nr.yuv,d2.yuv,4,4,2.0,x\n")
        assert [e.dmos for e in load_manifest(path)] == [1.0, 2.0]
        path.write_text(f"{header}r.yuv,d1.yuv,4,4,1.0,x\n{blank}\nr.yuv,d2.yuv,4,4,bad,x\n")
        with pytest.raises(ValueError, match="^manifest line 4: could not convert"):
            load_manifest(path)

    def test_paths_keep_their_spelling(self, tmp_path):
        # paths are compared by the file they name, never rewritten
        path = tmp_path / "set.csv"
        path.write_text(
            "ref_path,dist_path,width,height,dmos,tag\n"
            "./ref.yuv,sub/../d1.yuv,4,4,2.0,x\n"
        )
        (entry,) = load_manifest(path)
        assert entry.ref_path == os.path.join(tmp_path, "./ref.yuv")
        assert entry.dist_path == os.path.join(tmp_path, "sub/../d1.yuv")

    def test_identical_paths_rejected(self):
        with pytest.raises(ValueError):
            ManifestEntry("same.yuv", "same.yuv", 4, 4, 1.0, "x")

    def test_spellings_of_a_missing_file_are_compared_as_text(self, tmp_path):
        # the OS cannot open sub/../r.yuv without sub, whatever r.yuv is
        (tmp_path / "r.yuv").write_bytes(b"")
        broken = os.path.join(tmp_path, "sub/../r.yuv")
        ManifestEntry(str(tmp_path / "r.yuv"), broken, 4, 4, 1.0, "x")

    def test_non_finite_dmos_rejected(self):
        with pytest.raises(ValueError):
            ManifestEntry("a.yuv", "b.yuv", 4, 4, math.nan, "x")

    def test_empty_manifest_raises_on_evaluate(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ref_path,dist_path,width,height,dmos,tag\n")
        manifest = load_manifest(path)
        assert manifest == ()
        with pytest.raises(EmptyManifest):
            correlation_report(score_manifest(manifest, MetricConfig()), "tpsd")

    def test_empty_manifest_raises_on_score(self):
        with pytest.raises(EmptyManifest):
            score_manifest((), MetricConfig())


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
        report = correlation_report(score_manifest(tuple(entries), small_config), "tpsd")
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

        manifest = tuple(entries)
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
        results = score_manifest(entries, small_config)
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
        full, tail = score_manifest((entry_full, entry_tail), cfg)
        assert full.score < 1.0
        assert tail.score == pytest.approx(1.0, abs=1e-12)
        assert tail.psnr_db == math.inf

    def test_undefined_group_correlations_are_none(self, tmp_path, small_config):
        ref = make_moving_texture(32, 32, 4, seed=71)
        dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 5.0, seed=72))
        rp, dp = _write_pair(tmp_path, "solo", ref, dist)
        entries = (ManifestEntry(rp, dp, 32, 32, dmos=1.0, tag="only"),)
        report = correlation_report(score_manifest(entries, small_config), "tpsd")
        assert report.n == 1
        assert report.pcc is None and report.scc is None
        assert report.per_tag["only"].pcc is None

    @pytest.mark.parametrize("which", ["tpsd", "psnr"])
    def test_a_single_tag_reports_the_overall_figures(self, which):
        # a lone tag's figures equal the overall ones, null rules included:
        # the infinite PSNR leaves only the PSNR Pearson undefined
        rows = [(0.9, 30.0, 1.0), (0.7, math.inf, 4.0), (0.8, 25.0, 2.0), (0.5, 20.0, 3.0)]
        results = [
            EntryResult(i, ManifestEntry(f"r{i}.yuv", f"d{i}.yuv", 4, 4, dmos, "t"), score, db)
            for i, (score, db, dmos) in enumerate(rows)
        ]
        failed = EntryResult(4, ManifestEntry("r.yuv", "d.yuv", 4, 4, 5.0, "t"), error="OSError")
        report = correlation_report(results + [failed], which)
        assert report.n == 4 and report.scc is not None
        assert report.per_tag == {"t": TagStats(report.pcc, report.scc, report.n)}


def _per_entry(index, entry, cfg):
    """One entry scored on its own, as score_manifest did before references were shared."""
    try:
        ref = read_yuv420_file(entry.ref_path, entry.width, entry.height)
        dist = read_yuv420_file(entry.dist_path, entry.width, entry.height)
        frame_range = entry.frame_range(len(ref))
        report = assess(ref, dist, cfg, frame_range)
        lo, hi = frame_range or (0, len(ref) - 1)
        db = psnr(ref[lo : hi + 1], dist[lo : hi + 1])
        return EntryResult(index=index, entry=entry, score=report.video_score, psnr_db=db)
    except (VqaError, OSError, ValueError) as exc:
        return EntryResult(
            index=index, entry=entry, error=type(exc).__name__, error_message=str(exc)
        )


@pytest.fixture
def count_planes(monkeypatch):
    """Count the planes computed, through the name the transform is looked up by."""
    calls = []
    real = tpsdvqa.metric.tpsd_of_tensor

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(tpsdvqa.metric, "tpsd_of_tensor", counting)
    return calls


@pytest.fixture(scope="module")
def shared_refs(tmp_path_factory):
    """Two 64x48x8 references, each with three noise levels and a 6-frame clip."""
    base = tmp_path_factory.mktemp("shared")
    clips = {}
    for r in "AB":
        ref = make_moving_texture(64, 48, 8, seed=ord(r))
        write_yuv420(ref, base / f"{r}.yuv")
        clips[r] = str(base / f"{r}.yuv")
        for k, level in enumerate((4.0, 12.0, 36.0)):
            dist = apply_distortion(ref, DistortionSpec("gaussian-noise", level, seed=k))
            write_yuv420(dist, base / f"{r}{k}.yuv")
            clips[f"{r}{k}"] = str(base / f"{r}{k}.yuv")
        write_yuv420(ref[:6], base / f"{r}short.yuv")
        clips[f"{r}short"] = str(base / f"{r}short.yuv")
    clips["missing"] = str(base / "missing.yuv")
    return clips


class TestReferenceReuse:
    CFG = MetricConfig(tensor_len=4)  # 8 frames: 2 tensors

    def entries(self, clips, *pairs, **frames):
        return tuple(
            ManifestEntry(clips[r], clips[d], 64, 48, dmos=float(i), tag="noise", **frames)
            for i, (r, d) in enumerate(pairs)
        )

    def test_each_reference_is_transformed_once_per_group(self, shared_refs, count_planes):
        pairs = [("A", "A0"), ("B", "B0"), ("A", "A1"), ("B", "B1"), ("A", "A2"), ("B", "B2")]
        results = score_manifest(self.entries(shared_refs, *pairs), self.CFG)
        assert all(r.error is None for r in results)
        assert len(count_planes) == (2 + 6) * 2

    def test_results_match_per_entry_assess_in_manifest_order(self, shared_refs):
        pairs = [("A", "A0"), ("B", "B0"), ("A", "A1"), ("B", "B2"), ("A", "A2"), ("B", "B1")]
        entries = self.entries(shared_refs, *pairs)
        results = score_manifest(entries, self.CFG)
        assert [r.index for r in results] == list(range(6))
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_missing_reference_fails_its_group_alone(self, shared_refs):
        pairs = [("missing", "A0"), ("B", "B0"), ("missing", "A1")]
        entries = self.entries(shared_refs, *pairs)
        results = score_manifest(entries, self.CFG)
        assert [r.error for r in results] == ["FileNotFoundError", None, "FileNotFoundError"]
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_short_distorted_clip_fails_alone(self, shared_refs, count_planes):
        # the failing entry comes first, so the next one computes the planes
        pairs = [("A", "Ashort"), ("A", "A0"), ("A", "A1")]
        entries = self.entries(shared_refs, *pairs)
        results = score_manifest(entries, self.CFG)
        assert [r.error for r in results] == ["FrameCountMismatch", None, None]
        assert len(count_planes) == (1 + 2) * 2
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_frame_ranges_on_one_reference_group_apart(self, shared_refs, count_planes):
        entries = (
            *self.entries(shared_refs, ("A", "A0"), ("A", "A1")),
            *self.entries(shared_refs, ("A", "A0"), ("A", "A2"), frame_start=2, frame_end=7),
        )
        results = score_manifest(entries, self.CFG)
        assert len(count_planes) == (1 + 2) * 2 + (1 + 2) * 2
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]
        assert results[0].score != results[2].score

    def test_two_spellings_of_a_reference_share_its_planes(self, shared_refs, count_planes):
        spelled = shared_refs["A"].replace("/A.yuv", "/./A.yuv")
        entries = (
            ManifestEntry(shared_refs["A"], shared_refs["A0"], 64, 48, 1.0, "noise"),
            ManifestEntry(spelled, shared_refs["A1"], 64, 48, 2.0, "noise"),
        )
        results = score_manifest(entries, self.CFG)
        assert len(count_planes) == (1 + 2) * 2
        assert results[1].entry.ref_path == spelled
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_reference_through_a_missing_directory_fails_alone(self, shared_refs):
        broken = shared_refs["A"].replace("/A.yuv", "/absent/../A.yuv")
        entries = (
            ManifestEntry(shared_refs["A"], shared_refs["A0"], 64, 48, 1.0, "noise"),
            ManifestEntry(broken, shared_refs["A1"], 64, 48, 2.0, "noise"),
        )
        results = score_manifest(entries, self.CFG)
        assert [r.error for r in results] == [None, "FileNotFoundError"]
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_negative_tensor_score_pools_with_the_real_beta(self, shared_refs, monkeypatch):
        # per-tensor scores are pooled once: one negative tensor must not
        # raise NegativeBase when the mean is positive
        fake = iter([-0.5, 0.75])
        monkeypatch.setattr(tpsdvqa.metric, "tensor_score", lambda zeta: next(fake))
        cfg = MetricConfig(tensor_len=4, beta=0.5)
        (result,) = score_manifest(self.entries(shared_refs, ("A", "A0")), cfg)
        assert result.error is None
        assert result.score == 0.125**0.5

    @pytest.mark.parametrize("negative", [0, 1])
    def test_negative_mean_fails_its_entry_alone_before_psnr(
        self, shared_refs, monkeypatch, negative
    ):
        # a group of two on one tensor each: the entry whose mean is negative
        # cannot be pooled with beta=0.5, so it fails and takes no PSNR
        fake = iter([-0.25, 0.64] if negative == 0 else [0.64, -0.25])
        monkeypatch.setattr(tpsdvqa.metric, "tensor_score", lambda zeta: next(fake))
        measured = []
        real_psnr = tpsdvqa.evaluate.psnr

        def recording(ref, dist):
            measured.append(dist.path)
            return real_psnr(ref, dist)

        monkeypatch.setattr(tpsdvqa.evaluate, "psnr", recording)
        cfg = MetricConfig(tensor_len=8, beta=0.5)
        results = score_manifest(self.entries(shared_refs, ("A", "A0"), ("A", "A1")), cfg)
        failed, partner = results[negative], results[1 - negative]
        assert (failed.error, failed.score, failed.psnr_db) == ("NegativeBase", None, None)
        assert partner.error is None
        assert partner.score == 0.64**0.5
        assert measured == [partner.entry.dist_path]
        ref = read_yuv420_file(shared_refs["A"], 64, 48)
        dist = read_yuv420_file(partner.entry.dist_path, 64, 48)
        assert partner.psnr_db == real_psnr(ref, dist)

    def test_a_float_frame_start_fails_its_entry_alone(self, shared_refs):
        # group_tensors refuses the float bound with a ValueError, which is
        # reported per entry, so the entry beside it on A still gets a score
        entries = (
            ManifestEntry(shared_refs["A"], shared_refs["A0"], 64, 48, 1.0, "noise", frame_start=2.0),
            ManifestEntry(shared_refs["A"], shared_refs["A1"], 64, 48, 2.0, "noise"),
        )
        results = score_manifest(entries, self.CFG)
        assert (results[0].error, results[0].error_message) == (
            "ValueError", "frame range start must be an integer, got 2.0"
        )
        assert results[1].error is None and results[1].score is not None
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_memory_does_not_grow_with_clip_length(self, tmp_path):
        # one reference plane is held at a time, so a group of two 120-frame
        # entries peaks like a group of two 30-frame ones (4 tensors vs 1)
        rng = np.random.default_rng(5)
        peaks = []
        for count in (30, 30, 120):  # the first run warms up
            entries = []
            paths = [tmp_path / f"{name}{count}.yuv" for name in ("r", "d0", "d1")]
            for path in paths:
                write_yuv420(
                    (LumaFrame(rng.integers(0, 256, size=(96, 128), dtype=np.uint8))
                     for _ in range(count)),
                    path,
                )
            entries = [
                ManifestEntry(str(paths[0]), str(d), 128, 96, dmos=float(k), tag="noise")
                for k, d in enumerate(paths[1:])
            ]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                results = score_manifest(entries)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert all(r.error is None for r in results)
        assert peaks[2] <= 1.1 * peaks[1], peaks

    def test_memory_holds_one_reference_at_a_time(self, tmp_path):
        # 128x96 planes of 98 KB, 2 tensors each: a cache that kept every
        # group's planes would add 6 planes to the 4-reference peak
        cfg = MetricConfig(tensor_len=4)
        entries = []
        for r in range(4):
            ref = make_moving_texture(128, 96, 8, seed=r)
            write_yuv420(ref, tmp_path / f"r{r}.yuv")
            for k in range(2):
                dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 8.0, seed=k))
                write_yuv420(dist, tmp_path / f"r{r}d{k}.yuv")
                entries.append(ManifestEntry(
                    str(tmp_path / f"r{r}.yuv"), str(tmp_path / f"r{r}d{k}.yuv"),
                    128, 96, dmos=float(k), tag="noise",
                ))
        peaks = []
        for subset in (entries[:2], entries[:2], entries):  # the first run warms up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                results = score_manifest(subset, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert all(r.error is None for r in results)
        assert peaks[2] <= 1.1 * peaks[1], peaks


class TestEntryPairs:
    """A group's planes, its reference first, and then its PSNRs go two at a time."""

    CFG = MetricConfig(tensor_len=8)  # 8 frames: 1 tensor

    def entries(self, clips, *dists, **frames):
        return tuple(
            ManifestEntry(clips["A"], clips[d], 64, 48, dmos=float(i), tag="noise", **frames)
            for i, d in enumerate(dists)
        )

    @staticmethod
    def failing_for(monkeypatch, path):
        """Make the transform raise for the tensors of one distorted clip."""
        real = tpsdvqa.metric.tpsd_of_tensor

        def failing(tensor, *args, **kwargs):
            if tensor.path == path:
                raise OSError(f"cannot read {os.path.basename(path)}")
            return real(tensor, *args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "tpsd_of_tensor", failing)

    def test_a_failing_distorted_plane_keeps_the_reference_plane(
        self, shared_refs, count_planes, monkeypatch
    ):
        # the failing entry comes first, so its plane pairs with the
        # reference plane; the next entry must not compute that again
        self.failing_for(monkeypatch, shared_refs["A0"])
        cfg = MetricConfig(tensor_len=4)  # 2 tensors
        entries = self.entries(shared_refs, "A0", "A1", "A2")
        results = score_manifest(entries, cfg)
        assert [r.error for r in results] == ["OSError", None, None]
        # per tensor: one reference plane and the two good entries' planes
        assert len(count_planes) == 2 * (1 + 2)
        assert results == [_per_entry(i, e, cfg) for i, e in enumerate(entries)]

    def test_one_group_holds_every_kind_of_entry_failure(self, shared_refs, monkeypatch):
        # an unopenable clip, a short clip and a failing distorted plane sit
        # between good entries: each fails alone, and the good entries take
        # their PSNRs in entry order, two at a time from the first
        self.failing_for(monkeypatch, shared_refs["A2"])
        caller = threading.get_ident()
        measured = {True: [], False: []}
        real_psnr = tpsdvqa.evaluate.psnr

        def recording(ref, dist):
            measured[threading.get_ident() == caller].append(dist.path)
            return real_psnr(ref, dist)

        monkeypatch.setattr(tpsdvqa.evaluate, "psnr", recording)
        cfg = MetricConfig(tensor_len=4)  # 2 tensors
        dists = ("A0", "missing", "A1", "Ashort", "A2", "A1", "A0")
        entries = self.entries(shared_refs, *dists)
        results = score_manifest(entries, cfg)
        assert [r.error for r in results] == [
            None, "FileNotFoundError", None, "FrameCountMismatch", "OSError", None, None
        ]
        good = [shared_refs[d] for d in ("A0", "A1", "A1", "A0")]
        assert measured == {True: good[0::2], False: good[1::2]}
        assert results == [_per_entry(i, e, cfg) for i, e in enumerate(entries)]

    def test_a_failing_reference_plane_fails_each_live_entry_with_its_error(
        self, shared_refs, monkeypatch
    ):
        # entries that failed before the first transform keep their own errors
        self.failing_for(monkeypatch, shared_refs["A"])
        cfg = MetricConfig(tensor_len=4)  # 2 tensors
        entries = self.entries(shared_refs, "A0", "Ashort", "missing", "A1")
        results = score_manifest(entries, cfg)
        assert [r.error for r in results] == [
            "OSError", "FrameCountMismatch", "FileNotFoundError", "OSError"
        ]
        assert results[0].error_message == results[3].error_message == "cannot read A.yuv"
        assert results[1].error_message == "reference has 8 frames, distorted has 6"
        assert results == [_per_entry(i, e, cfg) for i, e in enumerate(entries)]

    def test_work_splits_over_the_caller_and_one_worker_at_a_time(
        self, shared_refs, monkeypatch
    ):
        caller = threading.get_ident()
        base = threading.active_count()
        seen = {"plane": [], "psnr": []}

        def watching(kind, real):
            def call(*args, **kwargs):
                seen[kind].append((threading.get_ident() == caller, threading.active_count()))
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(
            tpsdvqa.metric, "tpsd_of_tensor", watching("plane", tpsdvqa.metric.tpsd_of_tensor)
        )
        monkeypatch.setattr(tpsdvqa.evaluate, "psnr", watching("psnr", tpsdvqa.evaluate.psnr))
        entries = self.entries(shared_refs, "A0", "A1", "A2", "A0", "A1")
        results = score_manifest(entries, self.CFG)
        assert all(r.error is None for r in results)
        # the reference and five distorted planes in three forks: the
        # reference with the first entry, then two pairs
        assert sorted(seen["plane"]) == [(False, base + 1)] * 3 + [(True, base + 1)] * 3
        # two pairs of PSNRs, then the odd entry alone on the caller
        assert sorted(seen["psnr"]) == (
            [(False, base + 1)] * 2 + [(True, base)] + [(True, base + 1)] * 2
        )
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_a_failing_reference_plane_is_computed_once(self, shared_refs, monkeypatch):
        # its error fails every live entry, so the second tensor computes no plane
        self.failing_for(monkeypatch, shared_refs["A"])
        paths = []
        real = tpsdvqa.metric.tpsd_of_tensor

        def recording(tensor, *args, **kwargs):
            paths.append(tensor.path)
            return real(tensor, *args, **kwargs)

        monkeypatch.setattr(tpsdvqa.metric, "tpsd_of_tensor", recording)
        cfg = MetricConfig(tensor_len=4)  # 2 tensors
        entries = self.entries(shared_refs, "A0", "A1", "A2")
        results = score_manifest(entries, cfg)
        assert [r.error for r in results] == ["OSError"] * 3
        assert paths.count(shared_refs["A"]) == 1
        assert results == [_per_entry(i, e, cfg) for i, e in enumerate(entries)]

    @pytest.mark.parametrize("window, error, frames", [
        ({"window_radius": 40}, "PlaneTooSmall", {}),
        ({"window_sigma": 1e-160}, "ValueError", {}),
        ({"window_radius": 40, "window_sigma": 1e-160}, "PlaneTooSmall", {}),
        # a frame range that cannot be used fails the same way
        ({}, "ValueError", {"frame_end": 8}),
        ({}, "EmptySelection", {"frame_start": 3, "frame_end": 3}),
        ({}, "ValueError", {"frame_start": 5, "frame_end": 2}),
    ])
    def test_a_window_that_cannot_be_used_fails_every_live_entry(
        self, shared_refs, count_planes, window, error, frames
    ):
        # the group checks the range and the window once, after each entry's
        # frame counts and before any transform, in the order assess checks them
        cfg = MetricConfig(tensor_len=4, **window)
        entries = self.entries(shared_refs, "Ashort", "A0", "A1", **frames)
        results = score_manifest(entries, cfg)
        assert [r.error for r in results] == ["FrameCountMismatch", error, error]
        assert count_planes == []
        assert results == [_per_entry(i, e, cfg) for i, e in enumerate(entries)]

    @pytest.mark.parametrize("failing", ["A1", "A2"])
    def test_no_thread_outlives_the_call(self, shared_refs, monkeypatch, failing):
        # entry 1 is the caller's side of the first pair and entry 2 the
        # worker's; A1 and A2 are read by no other entry
        base = threading.active_count()
        self.failing_for(monkeypatch, shared_refs[failing])
        dists = ("A0", "A1", "A2", "A0")
        entries = self.entries(shared_refs, *dists)
        results = score_manifest(entries, self.CFG)
        assert [r.error for r in results] == [("OSError" if d == failing else None) for d in dists]
        assert threading.active_count() == base
        assert results == [_per_entry(i, e, self.CFG) for i, e in enumerate(entries)]

    def test_memory_does_not_grow_with_group_size(self, tmp_path):
        # the reference plane and one pair's two distorted planes are held at
        # a time, so 7 entries on one reference peak like 3
        cfg = MetricConfig(tensor_len=4)
        ref = make_moving_texture(128, 96, 8, seed=3)
        write_yuv420(ref, tmp_path / "r.yuv")
        entries = []
        for k in range(7):
            dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 4.0 + k, seed=k))
            write_yuv420(dist, tmp_path / f"d{k}.yuv")
            entries.append(ManifestEntry(
                str(tmp_path / "r.yuv"), str(tmp_path / f"d{k}.yuv"), 128, 96,
                dmos=float(k), tag="noise",
            ))
        peaks = []
        for subset in (entries[:3], entries[:3], entries):  # the first run warms up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                results = score_manifest(subset, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert all(r.error is None for r in results)
        assert peaks[2] <= 1.1 * peaks[1], peaks


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: psnr([], []), "need at least one frame"),
        (lambda: correlation_report([], "mos"), "which must be 'tpsd' or 'psnr', got 'mos'"),
    ],
    ids=["psnr-no-frames", "report-column"],
)
def test_input_check_message(call, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == message
