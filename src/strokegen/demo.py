"""Bundled synthetic stroke recordings for demos and trend experiments.

Four pattern families, loosely in the spirit of quick pen doodles: boxes,
curls, spikes and circles. Content stays inside a centered square whose
circumradius is below half the canvas, so every rotation fits without
shrinking. Recordings are plain point lists in the standard JSON shape.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DEFAULT_BOUNDARY, StrokeImage, recording_to_image


def make_demo_recording(kind: str, boundary: float = DEFAULT_BOUNDARY) -> dict:
    """Synthesize one recording as {"boundary": ..., "strokes": [...]}."""
    if kind not in _DEMOS:
        raise ValueError(f"unknown demo kind {kind!r}; pick from {DEMO_KINDS}")
    return {
        "boundary": boundary,
        "strokes": [s.tolist() for s in _DEMOS[kind](boundary)],
    }


def make_demo_image(kind: str,
                    boundary: float = DEFAULT_BOUNDARY) -> StrokeImage:
    return recording_to_image(make_demo_recording(kind, boundary))


def _sample_polygon(corners: np.ndarray, spacing: float = 2.0) -> np.ndarray:
    """Walk the corner chain emitting points every ~spacing units."""
    pts = [corners[0]]
    for a, b in zip(corners[:-1], corners[1:]):
        seg = b - a
        length = math.hypot(seg[0], seg[1])
        n = max(1, round(length / spacing))
        for i in range(1, n + 1):
            pts.append(a + seg * (i / n))
    return np.array(pts)


def _boxes(boundary: float) -> list[np.ndarray]:
    scale = boundary / DEFAULT_BOUNDARY
    strokes = []
    for cy in (50, 90, 130):
        for cx in (50, 90, 130):
            half = 12.0 if (cx, cy) != (90, 90) else 16.0
            corners = np.array(
                [
                    [cx - half, cy - half],
                    [cx + half, cy - half],
                    [cx + half, cy + half],
                    [cx - half, cy + half],
                    [cx - half, cy - half],
                ]
            )
            strokes.append(_sample_polygon(corners * scale))
    return strokes


def _curls(boundary: float) -> list[np.ndarray]:
    scale = boundary / DEFAULT_BOUNDARY
    strokes = []
    centers = [(60, 60), (120, 62), (64, 122), (118, 118), (90, 90)]
    for i, (cx, cy) in enumerate(centers):
        turns = 2.25 + 0.25 * (i % 3)
        theta = np.linspace(0.0, turns * 2 * math.pi, 90)
        r = 2.0 + 22.0 * theta / theta[-1]
        sign = 1.0 if i % 2 == 0 else -1.0
        xs = cx + r * np.cos(sign * theta)
        ys = cy + r * np.sin(sign * theta)
        strokes.append(np.stack([xs, ys], axis=1) * scale)
    return strokes


def _spikes(boundary: float) -> list[np.ndarray]:
    scale = boundary / DEFAULT_BOUNDARY
    strokes = []
    for row, y in enumerate((55, 90, 125)):
        amp = 14.0 + 4.0 * row
        corners = [[40.0, y]]
        x = 40.0
        up = True
        while x < 140.0:
            x += 10.0
            corners.append([x, y - amp if up else y + amp])
            x += 10.0
            corners.append([x, y])
            up = not up
        strokes.append(_sample_polygon(np.array(corners) * scale))
    return strokes


def _circles(boundary: float) -> list[np.ndarray]:
    scale = boundary / DEFAULT_BOUNDARY
    strokes = []
    specs = [(60, 64, 22), (118, 58, 16), (88, 112, 26), (134, 116, 12),
             (52, 120, 10)]
    for cx, cy, r in specs:
        theta = np.linspace(0.0, 2 * math.pi, max(24, int(r * 4)))
        xs = cx + r * np.cos(theta)
        ys = cy + r * np.sin(theta)
        strokes.append(np.stack([xs, ys], axis=1) * scale)
    return strokes


_DEMOS = {"boxes": _boxes, "curls": _curls, "spikes": _spikes,
          "circles": _circles}
DEMO_KINDS = tuple(_DEMOS)
