"""Synthetic reference sequences and parameterized distortions.

These stand in for real codec artifacts: they only need to be deterministic
and ordered in severity, not realistic. Every generator is seeded and pure;
identical arguments produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .video_io import LumaFrame

__all__ = [
    "DISTORTION_KINDS",
    "DistortionSpec",
    "make_edge_sequence",
    "make_noise_sequence",
    "make_moving_texture",
    "apply_distortion",
]

DISTORTION_KINDS = ("gaussian-noise", "gaussian-blur", "block-quantize", "frame-freeze")

# two-valued edge frames: dark background, bright line
_BACKGROUND = 32
_LINE = 224
_LINE_THICKNESS = 2


@dataclass(frozen=True)
class DistortionSpec:
    """One distortion family at one severity level.

    ``level`` units are kind-specific: noise sigma in luma steps, blur sigma
    in pixels, quantizer step in luma steps, freeze length in frames.
    """

    kind: str
    level: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DISTORTION_KINDS:
            raise ValueError(f"kind must be one of {DISTORTION_KINDS}, got {self.kind!r}")
        if not 0 < self.level < np.inf:
            raise ValueError(f"level must be finite and positive, got {self.level}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def _frame(values: np.ndarray) -> LumaFrame:
    """A read-only 8-bit frame of ``values`` rounded to the nearest step and clamped to [0, 255]."""
    pixels = np.clip(np.rint(values), 0, 255).astype(np.uint8)
    pixels.flags.writeable = False
    return LumaFrame(pixels)


def make_edge_sequence(width: int, height: int, motion: bool) -> list[LumaFrame]:
    """Two-frame toy sequence: a single horizontal line on a flat background.

    Without motion, frame 1 repeats frame 0 exactly; with motion, frame 1 is
    frame 0 circularly shifted down by height // 8 rows. Circular shifting
    keeps the two frames' pixel statistics identical.
    """
    if width < 16 or height < 16:
        raise ValueError(f"edge sequence needs at least 16x16, got {width}x{height}")
    frame0 = np.full((height, width), _BACKGROUND, dtype=np.uint8)
    top = height // 2 - _LINE_THICKNESS // 2
    frame0[top : top + _LINE_THICKNESS, :] = _LINE
    frame1 = np.roll(frame0, height // 8, axis=0) if motion else frame0
    return [_frame(frame0), _frame(frame1)]


def make_noise_sequence(
    width: int, height: int, frame_count: int, seed: int = 0
) -> list[LumaFrame]:
    """Independent uniform noise in every pixel of every frame."""
    if frame_count < 1:
        raise ValueError(f"frame_count must be positive, got {frame_count}")
    rng = np.random.default_rng(seed)
    return [
        _frame(rng.integers(0, 256, size=(height, width), dtype=np.uint8))
        for _ in range(frame_count)
    ]


def make_moving_texture(
    width: int, height: int, frame_count: int, seed: int = 0
) -> list[LumaFrame]:
    """Textured background plus a few blobs, all moving at different velocities.

    The motion must not be a single global translation: aggregating the PSD
    over the temporal axis is exactly invariant under per-frame circular
    shifts of one pattern, which would blind the metric to purely temporal
    distortions such as frame freezes. Independent blob velocities (and a
    separate background velocity) keep the temporal structure visible.
    Coordinates wrap, so nothing ever leaves the scene.
    """
    if width < 8 or height < 8:
        raise ValueError(f"texture needs at least 8x8, got {width}x{height}")
    if frame_count < 1:
        raise ValueError(f"frame_count must be positive, got {frame_count}")
    rng = np.random.default_rng(seed)
    base = rng.random((height, width))
    base = gaussian_filter(base, sigma=min(height, width) / 24.0, mode="wrap")
    lo, hi = base.min(), base.max()
    span = hi - lo if hi > lo else 1.0
    base = 64.0 + (base - lo) / span * 128.0

    blob_count = 3 + int(rng.integers(0, 3))
    centers = rng.random((blob_count, 2)) * (height, width)
    velocities = rng.uniform(0.5, 3.0, size=(blob_count, 2)) * rng.choice(
        (-1.0, 1.0), size=(blob_count, 2)
    )
    amplitudes = rng.uniform(40.0, 80.0, size=blob_count) * rng.choice(
        (-1.0, 1.0), size=blob_count
    )
    radii = rng.uniform(min(height, width) / 16.0, min(height, width) / 8.0, size=blob_count)
    bg_velocity = (int(rng.integers(0, 2)), 1)

    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    frames = []
    for t in range(frame_count):
        canvas = np.roll(base, (bg_velocity[0] * t, bg_velocity[1] * t), axis=(0, 1)).copy()
        for b in range(blob_count):
            cy = centers[b, 0] + velocities[b, 0] * t
            cx = centers[b, 1] + velocities[b, 1] * t
            dy = (ys - cy + height / 2.0) % height - height / 2.0
            dx = (xs - cx + width / 2.0) % width - width / 2.0
            canvas += amplitudes[b] * np.exp(
                -(dy * dy + dx * dx) / (2.0 * radii[b] * radii[b])
            )
        frames.append(_frame(canvas))
    return frames


def apply_distortion(frames: list[LumaFrame], spec: DistortionSpec) -> list[LumaFrame]:
    """Apply one distortion family at one level; deterministic under the seed.

    Every kind returns read-only 8-bit frames: pixels are rounded to the
    nearest luma step and clamped to [0, 255], so a float frame, frozen or
    not, comes back as ``uint8``.

    Frame freeze picks its start frame from the seed alone (never from the
    level), so raising the level only widens the frozen span; that keeps the
    per-family severity ordering monotone.
    """
    if not frames:
        raise ValueError("frames must be non-empty")
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "frame-freeze":
        out = [_frame(f.pixels) for f in frames]
        if len(frames) < 2:
            return out
        freeze_len = max(1, int(round(spec.level)))
        # start in the first third so spans up to ~2/3 of the sequence fit without
        # truncating, which would alias different levels onto the same output
        start = 1 + int(rng.integers(0, max(1, (len(frames) - 1) // 3)))
        for i in range(start, min(start + freeze_len, len(frames))):
            out[i] = out[start - 1]
        return out

    if spec.kind == "gaussian-noise":
        def distort(pixels: np.ndarray) -> np.ndarray:
            # one draw per frame, in frame order
            return pixels + rng.normal(0.0, spec.level, pixels.shape)
    elif spec.kind == "gaussian-blur":
        # scipy's kernel spans 4 sigma either side, whatever the frame size
        side = max(frames[0].pixels.shape)
        if spec.level > side:
            raise ValueError(
                f"blur level {spec.level} exceeds the frame's larger side, {side} pixels"
            )

        def distort(pixels: np.ndarray) -> np.ndarray:
            return gaussian_filter(pixels, sigma=spec.level, mode="reflect")
    else:  # block-quantize
        def distort(pixels: np.ndarray) -> np.ndarray:
            return np.floor(pixels / spec.level) * spec.level
    return [_frame(distort(f.pixels.astype(np.float64))) for f in frames]
