"""Patch synthesis: turn one stroke image into a large, diverse data set.

Five manipulations are available: whole-image translation, rotation,
mirroring and scaling, plus per-path reversal. A greedy reordering pass then
minimizes pen travel between consecutive paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    StrokeImage,
    controls_bbox,
    fit_paths_to_boundary_with_scale,
)

MIRROR_AXES = ("horizontal", "vertical")


class ContainmentError(ValueError):
    """A translation would push content outside the canvas."""


@dataclass(frozen=True)
class Transform:
    """One whole-image manipulation.

    kind/parameter pairs: translate -> offset (dx, dy); rotate -> angle in
    radians; mirror -> axis ("horizontal" flips y about the content center,
    "vertical" flips x); scale -> factor in (0, 1].
    """

    kind: str
    offset: tuple[float, float] | None = None
    angle: float | None = None
    axis: str | None = None
    factor: float | None = None

    def __post_init__(self):
        if self.kind == "translate":
            if self.offset is None:
                raise ValueError("translate needs an offset")
        elif self.kind == "rotate":
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError("rotate needs a finite angle")
        elif self.kind == "mirror":
            if self.axis not in MIRROR_AXES:
                raise ValueError(f"mirror axis must be one of {MIRROR_AXES}")
        elif self.kind == "scale":
            if self.factor is None or not (0.0 < self.factor <= 1.0):
                raise ValueError("scale factor must be in (0, 1]")
        else:
            raise ValueError(f"unknown transform kind {self.kind!r}")

    @classmethod
    def translate(cls, dx: float, dy: float) -> "Transform":
        return cls("translate", offset=(float(dx), float(dy)))

    @classmethod
    def rotate(cls, angle: float) -> "Transform":
        return cls("rotate", angle=float(angle))

    @classmethod
    def mirror(cls, axis: str) -> "Transform":
        return cls("mirror", axis=axis)

    @classmethod
    def scale(cls, factor: float) -> "Transform":
        return cls("scale", factor=float(factor))


@dataclass(frozen=True)
class AugmentConfig:
    reversal_probability: float = 0.5
    scale_min: float = 0.5
    rng_seed: int = 0  # unused: patches draw from the rng they are given

    def __post_init__(self):
        if not 0.0 <= self.reversal_probability <= 1.0:
            raise ValueError("reversal_probability must be in [0, 1]")
        if not 0.0 < self.scale_min <= 1.0:
            raise ValueError("scale_min must be in (0, 1]")


@dataclass(frozen=True)
class PatchParams:
    """What one patch generation actually applied (useful for debugging)."""

    angle: float
    mirror_horizontal: bool
    mirror_vertical: bool
    scale: float
    fit_shrink: float
    offset: tuple[float, float]
    reversed_paths: tuple[bool, ...]
    path_order: tuple[int, ...]


# ---------------------------------------------------------------------------
# Whole-image transforms
# ---------------------------------------------------------------------------

def transform_image(image: StrokeImage, t: Transform) -> StrokeImage:
    """Apply one manipulation, keeping the result inside the canvas.

    Rotation, mirroring and scaling act about the content bounding-box
    center. After rotation or scaling the content is translated minimally
    back onto the canvas and, only if the canvas cannot hold it at all,
    uniformly shrunk to fit.
    """
    if not len(image):
        return image
    controls, _ = _transform(image.controls, image.boundary, t)
    return StrokeImage.from_controls(controls, image.splits, image.boundary)


def _transform(controls: np.ndarray, boundary: float,
               t: Transform) -> tuple[np.ndarray, float]:
    """One manipulation of stacked [C, 4, 2] controls, and the fit's shrink."""
    lo, hi = controls_bbox(controls)
    if t.kind == "translate":
        dx, dy = t.offset
        tol = 1e-9
        if (lo[0] + dx < -tol or hi[0] + dx > boundary + tol
                or lo[1] + dy < -tol or hi[1] + dy > boundary + tol):
            raise ContainmentError(
                f"offset ({dx}, {dy}) moves content outside the canvas"
            )
        moved = _apply_affine(controls, np.eye(2), np.array([dx, dy]))
        return np.clip(moved, 0.0, boundary), 1.0

    if t.kind == "rotate":
        c, s = math.cos(t.angle), math.sin(t.angle)
        m = np.array([[c, -s], [s, c]])
    elif t.kind == "mirror":
        m = np.diag([1.0, -1.0]) if t.axis == "horizontal" else np.diag([-1.0, 1.0])
    else:  # scale
        m = np.eye(2) * t.factor

    center = (lo + hi) / 2.0
    shift = center - m @ center
    return fit_paths_to_boundary_with_scale(_apply_affine(controls, m, shift),
                                            boundary)


def _apply_affine(controls: np.ndarray, m: np.ndarray,
                  shift: np.ndarray) -> np.ndarray:
    xs = controls[..., 0]
    ys = controls[..., 1]
    # elementwise form keeps shared joint coordinates bitwise equal
    nx = m[0, 0] * xs + m[0, 1] * ys + shift[0]
    ny = m[1, 0] * xs + m[1, 1] * ys + shift[1]
    return np.stack([nx, ny], axis=-1)


# ---------------------------------------------------------------------------
# Path-level manipulations
# ---------------------------------------------------------------------------

def reverse_paths_random(image: StrokeImage, p: float,
                         rng: np.random.Generator) -> StrokeImage:
    """Reverse each path independently with probability p; order unchanged."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("reversal probability must be in [0, 1]")
    flags = rng.random(len(image)) < p
    return StrokeImage.from_controls(
        _reverse(image.controls, image.splits, flags), image.splits,
        image.boundary)


def order_paths_greedy(image: StrokeImage, rng: np.random.Generator) -> StrokeImage:
    """Reorder paths to shorten pen travel.

    The first path is chosen uniformly at random; each following path is the
    unvisited one whose start point is nearest to the current end point,
    ties broken by lower original index.
    """
    n = len(image)
    if n == 0:
        return image
    order = greedy_order(*path_endpoints(image.controls, image.splits),
                         int(rng.integers(n)))
    return StrokeImage.from_controls(
        *_reorder(image.controls, image.splits, order), image.boundary)


def greedy_order(starts: np.ndarray, ends: np.ndarray, start: int) -> list[int]:
    """Nearest-start-point visiting order of paths with [P, 2] start and end
    points, beginning at path ``start``."""
    visited = np.zeros(len(starts), dtype=bool)
    order = [start]
    visited[start] = True
    for _ in range(len(starts) - 1):
        dist = np.hypot(*(starts - ends[order[-1]]).T)
        dist[visited] = np.inf
        best = int(np.argmin(dist))  # first minimum: ties go to the lower index
        order.append(best)
        visited[best] = True
    return order


def pen_travel(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total pen-up distance between consecutive paths with [P, 2] start and
    end points."""
    return float(np.hypot(*(starts[1:] - ends[:-1]).T).sum())


def path_endpoints(controls: np.ndarray,
                   splits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points [P, 2] of the paths of stacked [C, 4, 2] controls."""
    return (controls[np.append(0, splits), 0],
            controls[np.append(splits, len(controls)) - 1, 3])


def _reverse(controls: np.ndarray, splits: np.ndarray,
             flags: np.ndarray) -> np.ndarray:
    """Stacked controls with each flagged path traversed from its other end."""
    return np.concatenate([a[::-1, ::-1] if f else a
                           for a, f in zip(np.split(controls, splits), flags)])


def _reorder(controls: np.ndarray, splits: np.ndarray,
             order: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked controls and their splits with the paths taken in ``order``."""
    parts = np.split(controls, splits)
    return (np.concatenate([parts[i] for i in order]),
            np.cumsum([len(parts[i]) for i in order[:-1]], dtype=np.int64))


# ---------------------------------------------------------------------------
# Patch generation
# ---------------------------------------------------------------------------

def generate_patch(image: StrokeImage, cfg: AugmentConfig,
                   rng: np.random.Generator) -> StrokeImage:
    """One augmented variant: rotate, mirror, scale, translate, reverse, reorder."""
    patch, _ = generate_patch_with_params(image, cfg, rng)
    return patch


def generate_patch_with_params(
    image: StrokeImage, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[StrokeImage, PatchParams]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    mirror_h = bool(rng.random() < 0.5)
    mirror_v = bool(rng.random() < 0.5)
    factor = rng.uniform(cfg.scale_min, 1.0)

    if not len(image):
        params = PatchParams(angle, mirror_h, mirror_v, factor, 1.0, (0.0, 0.0),
                             (), ())
        return image, params

    boundary, controls, splits = image.boundary, image.controls, image.splits
    # content too large to rotate in place gets shrunk by the boundary fit
    controls, fit_shrink = _transform(controls, boundary, Transform.rotate(angle))
    if mirror_h:
        controls, _ = _transform(controls, boundary, Transform.mirror("horizontal"))
    if mirror_v:
        controls, _ = _transform(controls, boundary, Transform.mirror("vertical"))
    controls, _ = _transform(controls, boundary, Transform.scale(factor))

    lo, hi = controls_bbox(controls)
    dx = rng.uniform(-lo[0], boundary - hi[0])
    dy = rng.uniform(-lo[1], boundary - hi[1])
    controls, _ = _transform(controls, boundary, Transform.translate(dx, dy))

    flags = rng.random(len(image)) < cfg.reversal_probability
    controls = _reverse(controls, splits, flags)
    order = greedy_order(*path_endpoints(controls, splits),
                         int(rng.integers(len(image))))
    patch = StrokeImage.from_controls(*_reorder(controls, splits, order),
                                      boundary)
    params = PatchParams(
        angle=angle,
        mirror_horizontal=mirror_h,
        mirror_vertical=mirror_v,
        scale=factor,
        fit_shrink=fit_shrink,
        offset=(dx, dy),
        reversed_paths=tuple(bool(f) for f in flags),
        path_order=tuple(order),
    )
    return patch, params


def generate_patch_set(image: StrokeImage, n: int, cfg: AugmentConfig,
                       rng: np.random.Generator) -> list[StrokeImage]:
    """n independent patches, one rng stream each, spawned from ``rng``."""
    if n < 1:
        raise ValueError("patch count must be >= 1")
    return [generate_patch(image, cfg, child) for child in rng.spawn(n)]
