import math

import numpy as np
import pytest

from tpsdvqa.synth import (
    DISTORTION_KINDS,
    DistortionSpec,
    apply_distortion,
    make_edge_sequence,
    make_moving_texture,
    make_noise_sequence,
)
from tpsdvqa.video_io import LumaFrame


def mse(a_frames, b_frames):
    total = 0.0
    count = 0
    for a, b in zip(a_frames, b_frames):
        d = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
        total += float((d * d).sum())
        count += d.size
    return total / count


class TestEdgeSequence:
    def test_static_frames_identical(self):
        f0, f1 = make_edge_sequence(64, 64, motion=False)
        assert np.array_equal(f0.pixels, f1.pixels)

    def test_moving_frame_is_circular_shift(self):
        f0, f1 = make_edge_sequence(64, 64, motion=True)
        assert not np.array_equal(f0.pixels, f1.pixels)
        assert np.array_equal(f1.pixels, np.roll(f0.pixels, 64 // 8, axis=0))

    @pytest.mark.parametrize("motion", [False, True])
    def test_two_valued_pixels(self, motion):
        frames = make_edge_sequence(64, 64, motion)
        for f in frames:
            assert f.pixels.shape == (64, 64)
            assert set(np.unique(f.pixels)) == {32, 224}

    def test_line_is_horizontal(self):
        f0, _ = make_edge_sequence(48, 32, motion=False)
        line_rows = np.where((f0.pixels == 224).any(axis=1))[0]
        assert len(line_rows) == 2
        for r in line_rows:
            assert np.all(f0.pixels[r] == 224)

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            make_edge_sequence(8, 64, motion=False)
        with pytest.raises(ValueError):
            make_edge_sequence(64, 15, motion=True)


class TestGenerators:
    def test_noise_sequence_deterministic(self):
        a = make_noise_sequence(16, 12, 5, seed=3)
        b = make_noise_sequence(16, 12, 5, seed=3)
        c = make_noise_sequence(16, 12, 5, seed=4)
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
        assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))

    def test_moving_texture_shape_and_determinism(self):
        a = make_moving_texture(32, 24, 6, seed=1)
        b = make_moving_texture(32, 24, 6, seed=1)
        assert len(a) == 6
        assert all(f.pixels.shape == (24, 32) for f in a)
        assert all(f.pixels.dtype == np.uint8 for f in a)
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_moving_texture_actually_moves(self):
        frames = make_moving_texture(32, 32, 6, seed=2)
        assert any(
            not np.array_equal(frames[0].pixels, f.pixels) for f in frames[1:]
        )

    def test_moving_texture_is_not_a_global_translation(self):
        # motion must be non-uniform, otherwise the temporal aggregation of
        # the PSD cannot see temporal distortions at all
        frames = make_moving_texture(64, 64, 4, seed=3)
        f0 = frames[0].pixels.astype(np.int64)
        f3 = frames[3].pixels.astype(np.int64)
        best = min(
            np.abs(np.roll(f0, (dy, dx), axis=(0, 1)) - f3).max()
            for dy in range(-9, 10)
            for dx in range(-9, 10)
        )
        assert best > 0


    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_edge_sequence(32, 16, motion=False),
            lambda: make_edge_sequence(32, 16, motion=True),
            lambda: make_noise_sequence(32, 16, 3, seed=1),
            lambda: make_moving_texture(32, 16, 3, seed=1),
        ],
        ids=["edge-static", "edge-moving", "noise", "texture"],
    )
    def test_frames_are_read_only_uint8(self, make):
        for f in make():
            assert f.pixels.dtype == np.uint8
            assert not f.pixels.flags.writeable


class TestDistortionSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DistortionSpec("salt-pepper", 1.0)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            DistortionSpec("gaussian-noise", 0.0)
        for kind in DISTORTION_KINDS:
            for level in (math.inf, math.nan):
                with pytest.raises(ValueError, match="finite and positive"):
                    DistortionSpec(kind, level)


class TestApplyDistortion:
    def test_deterministic_given_seed(self):
        ref = make_moving_texture(24, 24, 8, seed=5)
        for kind, level in [
            ("gaussian-noise", 5.0),
            ("gaussian-blur", 1.0),
            ("block-quantize", 16.0),
            ("frame-freeze", 3.0),
        ]:
            a = apply_distortion(ref, DistortionSpec(kind, level, seed=9))
            b = apply_distortion(ref, DistortionSpec(kind, level, seed=9))
            assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_preserves_count_and_shape(self):
        ref = make_moving_texture(24, 16, 5, seed=6)
        for kind in DISTORTION_KINDS:
            out = apply_distortion(ref, DistortionSpec(kind, 2.0, seed=1))
            assert len(out) == 5
            assert all(f.pixels.shape == (16, 24) for f in out)
            assert all(f.pixels.dtype == np.uint8 for f in out)

    @pytest.mark.parametrize("kind", DISTORTION_KINDS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_every_kind_returns_read_only_uint8(self, kind, dtype):
        ref = [LumaFrame(f.pixels.astype(dtype)) for f in make_moving_texture(24, 16, 6, seed=6)]
        out = apply_distortion(ref, DistortionSpec(kind, 2.0, seed=1))
        for f in out:
            assert f.pixels.dtype == np.uint8
            assert not f.pixels.flags.writeable

    def test_freeze_rounds_a_float_frame_to_8_bits(self):
        ref = [LumaFrame(np.array([[1.4, 2.6], [300.0, -5.0]]))] * 4
        for f in apply_distortion(ref, DistortionSpec("frame-freeze", 2.0, seed=0)):
            assert np.array_equal(f.pixels, np.array([[1, 3], [255, 0]], dtype=np.uint8))

    def test_vanishing_noise_is_identity_after_rounding(self):
        ref = make_moving_texture(24, 24, 4, seed=7)
        out = apply_distortion(ref, DistortionSpec("gaussian-noise", 1e-4, seed=2))
        for a, b in zip(ref, out):
            diff = np.abs(a.pixels.astype(np.int16) - b.pixels.astype(np.int16))
            assert diff.max() <= 1

    def test_freeze_repeats_preceding_frame(self):
        ref = make_moving_texture(24, 24, 30, seed=8)
        out = apply_distortion(ref, DistortionSpec("frame-freeze", 5.0, seed=3))
        changed = [
            i for i, (a, b) in enumerate(zip(ref, out))
            if not np.array_equal(a.pixels, b.pixels)
        ]
        assert len(changed) == 5
        start = changed[0]
        assert changed == list(range(start, start + 5))
        held = ref[start - 1].pixels
        for i in changed:
            assert np.array_equal(out[i].pixels, held)

    def test_freeze_single_frame_sequence_noop(self):
        ref = make_moving_texture(16, 16, 1, seed=1)
        out = apply_distortion(ref, DistortionSpec("frame-freeze", 5.0, seed=1))
        assert np.array_equal(out[0].pixels, ref[0].pixels)

    def test_quantize_produces_multiples_of_step(self):
        ref = make_noise_sequence(16, 16, 3, seed=4)
        out = apply_distortion(ref, DistortionSpec("block-quantize", 32.0, seed=0))
        for f in out:
            assert np.all(f.pixels % 32 == 0)
            assert f.pixels.max() <= 255

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            apply_distortion([], DistortionSpec("gaussian-noise", 1.0))

    def test_rejects_a_blur_wider_than_the_frame(self):
        # scipy would build a kernel of 8e15 taps and fail to allocate it
        ref = make_moving_texture(16, 16, 2, seed=1)
        with pytest.raises(ValueError, match="exceeds the frame's larger side, 16 pixels"):
            apply_distortion(ref, DistortionSpec("gaussian-blur", 1e15))
        # a blur as wide as the frame still runs
        assert len(apply_distortion(ref, DistortionSpec("gaussian-blur", 16.0))) == 2

    @pytest.mark.parametrize(
        "kind,levels",
        [
            ("gaussian-noise", (2.0, 5.0, 10.0, 20.0)),
            ("gaussian-blur", (0.5, 1.0, 2.0, 4.0)),
            ("block-quantize", (8.0, 16.0, 32.0, 64.0)),
            ("frame-freeze", (2.0, 5.0, 10.0, 20.0)),
        ],
    )
    def test_severity_ordering(self, kind, levels):
        ref = make_moving_texture(48, 48, 30, seed=10)
        deviations = [
            mse(ref, apply_distortion(ref, DistortionSpec(kind, level, seed=11)))
            for level in levels
        ]
        assert all(b >= a for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] > deviations[0]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: DistortionSpec("gaussian-noise", 1.0, seed=-1),
            "seed must fit in 64 unsigned bits, got -1",
        ),
        (lambda: make_noise_sequence(8, 8, 0), "frame_count must be positive, got 0"),
        (lambda: make_moving_texture(8, 8, 0), "frame_count must be positive, got 0"),
        (lambda: make_moving_texture(4, 4, 2), "texture needs at least 8x8, got 4x4"),
    ],
    ids=["negative-seed", "noise-no-frames", "texture-no-frames", "texture-too-small"],
)
def test_input_check_message(call, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == message
