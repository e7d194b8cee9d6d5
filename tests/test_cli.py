import builtins
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import tpsdvqa.cli
import tpsdvqa.metric
from tpsdvqa.cli import main
from tpsdvqa.evaluate import correlation_report, load_manifest, score_manifest
from tpsdvqa.metric import MetricConfig, assess
from tpsdvqa.spectral import read_grid, tpsd_of_tensor
from tpsdvqa.synth import DistortionSpec, apply_distortion, make_edge_sequence, make_moving_texture
from tpsdvqa.video_io import LumaFrame, group_tensors, read_yuv420_file, write_yuv420


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


@pytest.fixture(scope="module")
def clip_pair(tmp_path_factory):
    base = tmp_path_factory.mktemp("clips")
    ref = make_moving_texture(32, 32, 8, seed=77)
    dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 12.0, seed=78))
    ref_path = base / "ref.yuv"
    dist_path = base / "dist.yuv"
    write_yuv420(ref, ref_path)
    write_yuv420(dist, dist_path)
    return ref_path, dist_path


SMALL = ["--width", "32", "--height", "32", "--tensor-frames", "4"]


@pytest.fixture(scope="module")
def short_dist_pair(tmp_path_factory):
    """A 24-frame reference and a distorted file 4 frames shorter."""
    base = tmp_path_factory.mktemp("short")
    ref = make_moving_texture(32, 32, 24, seed=5)
    dist = apply_distortion(ref, DistortionSpec("gaussian-noise", 6.0, seed=6))
    write_yuv420(ref, base / "ref.yuv")
    write_yuv420(dist[:20], base / "short.yuv")
    return base / "ref.yuv", base / "short.yuv"


class TestScore:
    def test_identical_inputs_score_one(self, capsys, clip_pair):
        ref_path, _ = clip_pair
        code, out, err = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(ref_path)] + SMALL,
        )
        assert code == 0
        records = parse_records(out)
        summary = [r for r in records if r["record"] == "summary"][0]
        assert summary["video_score"] == 1.0
        tensors = [r for r in records if r["record"] == "tensor"]
        assert [t["score"] for t in tensors] == [1.0, 1.0]
        assert [t["depth"] for t in tensors] == [4, 4]
        stages = {r["stage"] for r in records if r["record"] == "timing"}
        assert stages == {"read", "transform", "correlate", "pool"}
        assert "score 1.000000" in err

    def test_matches_library_assess(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        code, out, _ = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path)] + SMALL,
        )
        assert code == 0
        summary = [r for r in parse_records(out) if r["record"] == "summary"][0]
        ref = read_yuv420_file(ref_path, 32, 32)
        dist = read_yuv420_file(dist_path, 32, 32)
        expected = assess(ref, dist, MetricConfig(tensor_len=4)).video_score
        assert summary["video_score"] == expected

    def test_deterministic_output_modulo_timing(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        argv = ["score", "--ref", str(ref_path), "--dist", str(dist_path)] + SMALL
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        strip = lambda out: [l for l in out.splitlines() if '"timing"' not in l]
        assert strip(out1) == strip(out2)

    def test_frame_range_flag(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        code, out, _ = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path)]
            + SMALL + ["--frames", "4:7"],
        )
        assert code == 0
        tensors = [r for r in parse_records(out) if r["record"] == "tensor"]
        assert len(tensors) == 1
        assert tensors[0]["frame_start"] == 4
        assert tensors[0]["frame_end"] == 7

    def test_out_file(self, capsys, clip_pair, tmp_path):
        ref_path, dist_path = clip_pair
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path)]
            + SMALL + ["--out", str(out_path)],
        )
        assert code == 0
        assert out == ""
        records = parse_records(out_path.read_text())
        assert any(r["record"] == "summary" for r in records)

    def test_dump_zeta(self, capsys, clip_pair, tmp_path):
        ref_path, dist_path = clip_pair
        prefix = tmp_path / "zeta"
        code, _, _ = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path)]
            + SMALL + ["--dump-zeta", str(prefix)],
        )
        assert code == 0
        z0 = read_grid(f"{prefix}.tensor000.grid")
        z1 = read_grid(f"{prefix}.tensor001.grid")
        for z in (z0, z1):
            assert z.shape == (32, 32)
            assert np.all(z <= 1.0 + 1e-9) and np.all(z >= -1.0 - 1e-9)

    def test_wrong_width_diagnostic(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        code, _, err = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path),
             "--width", "48", "--height", "32"],
        )
        assert code == 1
        assert err.startswith("error: TruncatedStream:")

    def test_zero_width_diagnostic(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        code, _, err = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path),
             "--width", "0", "--height", "32"],
        )
        assert code == 1
        assert err.startswith("error: ValueError: dimensions must be positive")

    def test_odd_width_diagnostic(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        code, _, err = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path),
             "--width", "31", "--height", "32"],
        )
        assert code == 1
        assert err.startswith("error: OddDimensions:")

    def test_empty_video_diagnostic(self, capsys, tmp_path):
        empty = tmp_path / "empty.yuv"
        empty.write_bytes(b"")
        code, _, err = run_cli(
            capsys,
            ["score", "--ref", str(empty), "--dist", str(empty),
             "--width", "256", "--height", "144"],
        )
        assert code == 1
        assert err.startswith("error: EmptySelection:")

    def test_short_distorted_file_diagnostic(self, capsys, short_dist_pair):
        ref_path, short_path = short_dist_pair
        code, out, err = run_cli(
            capsys, ["score", "--ref", str(ref_path), "--dist", str(short_path)] + SMALL
        )
        assert code == 1
        assert out == ""
        assert err == "error: FrameCountMismatch: reference has 24 frames, distorted has 20\n"

    def test_frame_range_past_the_end_diagnostic(self, capsys, short_dist_pair):
        ref_path, _ = short_dist_pair
        code, _, err = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(ref_path), "--frames", "5:30"]
            + SMALL,
        )
        assert code == 1
        assert err == "error: ValueError: frame range 5:30 outside sequence of 24 frames\n"

    def test_memory_does_not_grow_with_clip_length(self, capsys, tmp_path):
        # frames are decoded one at a time, so the traced peak of a 120-frame
        # pair is that of a 30-frame pair: it holds one tensor's planes, not
        # the clips
        rng = np.random.default_rng(3)
        argv = ["--width", "256", "--height", "192"]
        peaks = []
        for count in (30, 120):
            paths = [tmp_path / f"{name}{count}.yuv" for name in ("ref", "dist")]
            for path in paths:
                frames = (
                    LumaFrame(rng.integers(0, 256, size=(192, 256), dtype=np.uint8))
                    for _ in range(count)
                )
                write_yuv420(frames, path)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = main(["score", "--ref", str(paths[0]), "--dist", str(paths[1])] + argv)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert code == 0
        capsys.readouterr()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_each_tensor_reads_each_file_once(self, capsys, clip_pair, monkeypatch):
        # one open per file to check it is readable, then one per tensor
        # slice; nothing decodes a frame outside the tensors
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file).endswith(".yuv"):
                opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        ref_path, dist_path = clip_pair
        code, _, _ = run_cli(
            capsys, ["score", "--ref", str(ref_path), "--dist", str(dist_path)] + SMALL
        )
        assert code == 0
        assert sorted(opened) == sorted([str(ref_path), str(dist_path)] * 3)

    def test_non_finite_setting_diagnostic(self, capsys, clip_pair):
        ref_path, dist_path = clip_pair
        code, out, err = run_cli(
            capsys,
            ["score", "--ref", str(ref_path), "--dist", str(dist_path), "--beta", "nan"] + SMALL,
        )
        assert code == 1
        assert out == ""
        assert err == "error: ValueError: beta must be finite and positive, got nan\n"

    def test_missing_file_diagnostic(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["score", "--ref", str(tmp_path / "nope.yuv"),
             "--dist", str(tmp_path / "nope.yuv"), "--width", "32", "--height", "32"],
        )
        assert code == 1
        assert err.startswith("error: FileNotFoundError:")


class TestGenerate:
    def test_edge_static_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "edge.yuv"
        code, out, _ = run_cli(
            capsys,
            ["generate", "--out", str(out_path), "--width", "64", "--height", "64",
             "--pattern", "edge-static"],
        )
        assert code == 0
        record = parse_records(out)[0]
        assert record["frames"] == 2
        assert out_path.stat().st_size == 2 * 64 * 64 * 3 // 2
        frames = read_yuv420_file(out_path, 64, 64)
        expected = make_edge_sequence(64, 64, motion=False)
        for a, b in zip(frames, expected):
            assert np.array_equal(a.pixels, b.pixels)

    def test_texture_with_distortion_differs(self, capsys, tmp_path):
        clean = tmp_path / "clean.yuv"
        noisy = tmp_path / "noisy.yuv"
        base_args = ["generate", "--width", "32", "--height", "32",
                     "--pattern", "texture", "--count", "6", "--seed", "9"]
        assert run_cli(capsys, base_args + ["--out", str(clean)])[0] == 0
        assert run_cli(
            capsys,
            base_args + ["--out", str(noisy), "--distort", "gaussian-noise",
                         "--level", "10"],
        )[0] == 0
        assert clean.stat().st_size == noisy.stat().st_size == 6 * 32 * 32 * 3 // 2
        assert clean.read_bytes() != noisy.read_bytes()

    def test_generate_is_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.yuv"
        b = tmp_path / "b.yuv"
        args = ["generate", "--width", "32", "--height", "32", "--pattern", "noise",
                "--count", "4", "--seed", "3"]
        run_cli(capsys, args + ["--out", str(a)])
        run_cli(capsys, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_odd_size_leaves_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "odd.yuv"
        code, _, err = run_cli(
            capsys,
            ["generate", "--out", str(out_path), "--width", "63", "--height", "48",
             "--count", "3"],
        )
        assert code == 1
        assert err == "error: OddDimensions: YUV 4:2:0 requires even dimensions, got 63x48\n"
        assert not out_path.exists()

    def test_distort_requires_level(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["generate", "--out", str(tmp_path / "x.yuv"), "--width", "32",
             "--height", "32", "--distort", "gaussian-noise"],
        )
        assert code == 1
        assert "ValueError" in err


class TestDumpTpsd:
    def test_grids_match_library(self, capsys, clip_pair, tmp_path):
        ref_path, _ = clip_pair
        prefix = tmp_path / "plane"
        code, out, _ = run_cli(
            capsys,
            ["dump-tpsd", "--ref", str(ref_path), "--width", "32", "--height", "32",
             "--tensor-frames", "4", "--out", str(prefix)],
        )
        assert code == 0
        records = parse_records(out)
        assert [r["index"] for r in records] == [0, 1]
        frames = read_yuv420_file(ref_path, 32, 32)
        bounds = group_tensors(len(frames), 4)
        for record, (lo, hi) in zip(records, bounds):
            dumped = read_grid(record["path"])
            expected = tpsd_of_tensor(frames[lo : hi + 1], center_dc=True)
            assert np.array_equal(dumped, expected)
            assert record["dc_centered"] is True

    def test_center_dc_flag_off(self, capsys, clip_pair, tmp_path):
        ref_path, _ = clip_pair
        prefix = tmp_path / "corner"
        code, out, _ = run_cli(
            capsys,
            ["dump-tpsd", "--ref", str(ref_path), "--width", "32", "--height", "32",
             "--tensor-frames", "4", "--center-dc", "false", "--out", str(prefix)],
        )
        assert code == 0
        record = parse_records(out)[0]
        assert record["dc_centered"] is False
        plane = read_grid(record["path"])
        assert plane[0, 0] == plane.max()  # DC stays in the corner


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    base = tmp_path_factory.mktemp("dataset")
    ref = make_moving_texture(32, 32, 4, seed=88)
    rows = ["ref_path,dist_path,width,height,dmos,tag,frame_start,frame_end"]
    for i, level in enumerate((3.0, 9.0, 27.0)):
        dist = apply_distortion(ref, DistortionSpec("gaussian-noise", level, seed=89))
        write_yuv420(ref, base / f"r{i}.yuv")
        write_yuv420(dist, base / f"d{i}.yuv")
        rows.append(f"r{i}.yuv,d{i}.yuv,32,32,{10.0 * (i + 1)},noise,,")
    path = base / "manifest.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestEvaluate:
    def test_evaluate_manifest(self, capsys, manifest, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            ["evaluate", "--manifest", str(manifest), "--tensor-frames", "4",
             "--out", str(report_path)],
        )
        assert code == 0
        records = parse_records(out)
        entries = [r for r in records if r["record"] == "entry"]
        assert len(entries) == 3
        assert all(r["error"] is None for r in entries)
        summary = [r for r in records if r["record"] == "summary"][0]
        assert summary["metric"]["scc"] == -1.0
        assert summary["metric"]["n"] == 3
        assert "psnr_baseline" in summary
        assert summary["psnr_baseline"]["scc"] == -1.0
        assert "orientation" in summary
        on_disk = json.loads(report_path.read_text())
        assert on_disk["metric"] == summary["metric"]
        assert "evaluated 3/3" in err
        # same numbers as the library harness on the same manifest
        library = correlation_report(
            score_manifest(load_manifest(manifest), MetricConfig(tensor_len=4)), "tpsd"
        )
        assert summary["metric"]["pcc"] == library.pcc
        assert summary["metric"]["scc"] == library.scc

    def test_zero_width_entry_is_a_per_entry_failure(self, capsys, manifest):
        rows = manifest.read_text(encoding="utf-8").splitlines()
        rows.insert(2, "r0.yuv,d0.yuv,0,32,15.0,noise,,")
        path = manifest.parent / "zero_width.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, ["evaluate", "--manifest", str(path), "--tensor-frames", "4"]
        )
        assert code == 0
        entries = [r for r in parse_records(out) if r["record"] == "entry"]
        assert [r["error"] for r in entries] == [None, "ValueError", None, None]
        assert entries[1]["error_message"].startswith("dimensions must be positive")
        assert "evaluated 3/4" in err

    def test_short_distorted_entry_is_a_per_entry_failure(
        self, capsys, manifest, short_dist_pair
    ):
        ref_path, short_path = short_dist_pair
        rows = manifest.read_text(encoding="utf-8").splitlines()
        rows.insert(2, f"{ref_path},{short_path},32,32,15.0,noise,,")
        path = manifest.parent / "short_entry.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, ["evaluate", "--manifest", str(path), "--tensor-frames", "4"]
        )
        assert code == 0
        entries = [r for r in parse_records(out) if r["record"] == "entry"]
        assert [r["error"] for r in entries] == [None, "FrameCountMismatch", None, None]
        assert entries[1]["error_message"] == "reference has 24 frames, distorted has 20"
        assert all(isinstance(r["score"], float) for i, r in enumerate(entries) if i != 1)
        assert "evaluated 3/4 entries (1 failed)" in err

    def test_empty_manifest_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ref_path,dist_path,width,height,dmos,tag\n")
        code, _, err = run_cli(capsys, ["evaluate", "--manifest", str(path)])
        assert code == 1
        assert "EmptyManifest" in err

    def test_missing_manifest_diagnostic(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["evaluate", "--manifest", str(tmp_path / "none.csv")]
        )
        assert code == 1
        assert err.startswith("error: FileNotFoundError:")


class TestThreads:
    """``--threads`` sets the FFT's worker count for the whole command."""

    def _workers_seen(self, capsys, monkeypatch, module, argv):
        seen = []
        real = tpsd_of_tensor

        def recording(*args, **kwargs):
            seen.append(scipy.fft.get_workers())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "tpsd_of_tensor", recording)
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert scipy.fft.get_workers() == 1  # restored after the command
        return set(seen)

    @pytest.mark.parametrize("flag, workers", [([], 1), (["--threads", "2"], 2)])
    def test_score_and_evaluate(self, capsys, monkeypatch, clip_pair, manifest, flag, workers):
        ref_path, dist_path = clip_pair
        score = ["score", "--ref", str(ref_path), "--dist", str(dist_path)] + SMALL + flag
        evaluate = ["evaluate", "--manifest", str(manifest), "--tensor-frames", "4"] + flag
        for argv in (score, evaluate):
            assert self._workers_seen(capsys, monkeypatch, tpsdvqa.metric, argv) == {workers}

    @pytest.mark.parametrize("flag, workers", [([], 1), (["--threads", "2"], 2)])
    def test_dump_tpsd(self, capsys, monkeypatch, clip_pair, tmp_path, flag, workers):
        argv = ["dump-tpsd", "--ref", str(clip_pair[0]), "--width", "32", "--height", "32",
                "--tensor-frames", "4", "--out", str(tmp_path / "plane")] + flag
        assert self._workers_seen(capsys, monkeypatch, tpsdvqa.cli, argv) == {workers}

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_zero_fails_once_before_any_file_is_read(
        self, capsys, monkeypatch, clip_pair, manifest, command
    ):
        argv = {
            "score": ["score", "--ref", str(clip_pair[0]), "--dist", str(clip_pair[1])] + SMALL,
            "evaluate": ["evaluate", "--manifest", str(manifest)],
        }[command]
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        code, out, err = run_cli(capsys, argv + ["--threads", "0"])
        assert code == 1
        assert out == ""
        assert err == "error: ValueError: workers must not be zero\n"
        assert opened == []


class TestEntryPoint:
    def test_module_invocation(self, clip_pair):
        ref_path, _ = clip_pair
        proc = subprocess.run(
            [sys.executable, "-m", "tpsdvqa.cli", "score", "--ref", str(ref_path),
             "--dist", str(ref_path)] + SMALL,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        summary = [r for r in parse_records(proc.stdout) if r["record"] == "summary"]
        assert summary[0]["video_score"] == 1.0

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tpsdvqa.cli", "score"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
