"""Patch synthesis: turn one stroke image into a large, diverse data set.

Five manipulations are available: whole-image translation, rotation,
mirroring and scaling, plus per-path reversal. A greedy reordering pass then
minimizes pen travel between consecutive paths.

Every patch of one image has the same curves and paths, so a patch set runs
as one stacked array: the transforms map each patch's points [2, K] (an x
row and a y row) with its own parameters, and reversal and reordering are
one gather. A single patch, or a single transform of one image, is the
batch of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    StrokeImage,
    checked_stack,
    fit_to_canvas,
)

# horizontal flips y, vertical flips x
_MIRRORS = {"horizontal": np.diag([1.0, -1.0]), "vertical": np.diag([-1.0, 1.0])}
MIRROR_AXES = tuple(_MIRRORS)


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
# Patch sets
# ---------------------------------------------------------------------------

class PatchSet(Sequence):
    """n augmented variants of one image, as stacked read-only arrays.

    ``controls`` [n, C, 4, 2] holds the curves of every patch in drawing
    order and ``splits`` [n, P - 1] the np.split points between each
    patch's paths. The whole set is checked once, like a StrokeImage: finite
    values, exact joints inside each path and the [0, boundary] canvas; an
    error names the patch, the path and the curve. Items are StrokeImages
    built on demand; ``params(i)`` is what augmentation applied to patch i.
    """

    __slots__ = ("controls", "splits", "boundary", "_applied")

    def __init__(self, controls, splits, boundary: float,
                 applied: dict[str, np.ndarray] | None = None):
        self.controls, self.splits = checked_stack(controls, splits, boundary,
                                                   patches=True)
        self.boundary, self._applied = boundary, applied

    def __len__(self) -> int:
        return len(self.controls)

    def __getitem__(self, i: int) -> StrokeImage:
        return StrokeImage.from_controls(self.controls[i], self.splits[i],
                                         self.boundary)

    def params(self, i: int) -> PatchParams:
        """What augmentation applied to patch i."""
        if self._applied is None:
            raise ValueError("this patch set carries no augmentation record")
        values = {k: v[i].tolist() for k, v in self._applied.items()}
        return PatchParams(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in values.items()})


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
    xy = _points(image.controls)
    if t.kind == "translate":
        xy = _translate(xy, np.array([t.offset]), image.boundary)
    else:
        if t.kind == "rotate":
            c, s = math.cos(t.angle), math.sin(t.angle)
            m = np.array([[c, -s], [s, c]])
        elif t.kind == "mirror":
            m = _MIRRORS[t.axis]
        else:  # scale
            m = np.eye(2) * t.factor
        xy, _ = _map_about_center(xy, m[None], image.boundary)
    return StrokeImage.from_controls(_controls(xy)[0], image.splits,
                                     image.boundary)


def _points(controls: np.ndarray) -> np.ndarray:
    """The points of one image's [C, 4, 2] controls as a batch of one
    [1, 2, 4C]: an x row and a y row."""
    # [n, 2, K] rows, not [n, K, 2] pairs: both give the same floats, but
    # generate_patch_set(boxes, 500) took a median 62-67 ms this way and
    # 134-135 ms with pairs (2-core Xeon VM, 1 BLAS thread)
    return controls.reshape(1, -1, 2).transpose(0, 2, 1)


def _controls(xy: np.ndarray) -> np.ndarray:
    """Controls [n, C, 4, 2] of n point sets [n, 2, 4C]."""
    return xy.transpose(0, 2, 1).reshape(len(xy), -1, 4, 2)


def _map_about_center(xy: np.ndarray, m: np.ndarray,
                      boundary: float) -> tuple[np.ndarray, np.ndarray]:
    """Map each point set of [n, 2, K] by its matrix m [n, 2, 2] about its
    bbox center, then fit it to the canvas; returns the fit's shrinks too."""
    center = (xy.min(axis=2) + xy.max(axis=2)) / 2.0
    # one 2x2 product per set, as a single image computes it, so that the
    # shift has the same floats
    shift = np.array([c - mi @ c for mi, c in zip(m, center)])
    return fit_to_canvas(_affine(xy, m, shift), boundary)


def _translate(xy: np.ndarray, offsets: np.ndarray,
               boundary: float) -> np.ndarray:
    """Move each point set of [n, 2, K] by its offset [n, 2]."""
    lo, hi = xy.min(axis=2), xy.max(axis=2)
    tol = 1e-9
    bad = ((lo + offsets < -tol) | (hi + offsets > boundary + tol)).any(axis=1)
    if bad.any():
        dx, dy = offsets[np.argmax(bad)].tolist()
        raise ValueError(
            f"offset ({dx}, {dy}) moves content outside the canvas"
        )
    eye = np.broadcast_to(np.eye(2), (len(xy), 2, 2))
    return np.clip(_affine(xy, eye, offsets), 0.0, boundary)


def _affine(xy: np.ndarray, m: np.ndarray, shift: np.ndarray) -> np.ndarray:
    xs, ys = xy[:, 0], xy[:, 1]
    m, shift = m[..., None], shift[..., None]
    # elementwise form keeps shared joint coordinates bitwise equal
    nx = m[:, 0, 0] * xs + m[:, 0, 1] * ys + shift[:, 0]
    ny = m[:, 1, 0] * xs + m[:, 1, 1] * ys + shift[:, 1]
    return np.stack([nx, ny], axis=1)


# ---------------------------------------------------------------------------
# Path-level manipulations
# ---------------------------------------------------------------------------

def reverse_paths_random(image: StrokeImage, p: float,
                         rng: np.random.Generator) -> StrokeImage:
    """Reverse each path independently with probability p; order unchanged."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("reversal probability must be in [0, 1]")
    flags = rng.random(len(image)) < p
    return _permuted(image, flags, np.arange(len(image)))


def order_paths_greedy(image: StrokeImage, rng: np.random.Generator) -> StrokeImage:
    """Reorder paths to shorten pen travel.

    The first path is chosen uniformly at random; each following path is the
    unvisited one whose start point is nearest to the current end point,
    ties broken by lower original index.
    """
    n = len(image)
    if n == 0:
        return image
    starts, ends = path_endpoints(image.controls, image.splits)
    order = greedy_order(starts[None], ends[None], [int(rng.integers(n))])[0]
    return _permuted(image, np.zeros(n, dtype=bool), order)


def greedy_order(starts: np.ndarray, ends: np.ndarray, first) -> np.ndarray:
    """Nearest-start-point visiting orders [n, P] of n sets of paths with
    [n, P, 2] start and end points, set i beginning at path ``first[i]``.

    One step per path, for all sets at once.
    """
    n, count = starts.shape[:2]
    rows = np.arange(n)
    order = np.empty((n, count), dtype=np.int64)
    order[:, 0] = first
    visited = np.zeros((n, count), dtype=bool)
    visited[rows, order[:, 0]] = True
    for k in range(1, count):
        d = starts - ends[rows, order[:, k - 1]][:, None]
        dist = np.hypot(d[..., 0], d[..., 1])
        dist[visited] = np.inf
        # first minimum: ties go to the lower index
        order[:, k] = best = np.argmin(dist, axis=1)
        visited[rows, best] = True
    return order


def path_endpoints(controls: np.ndarray,
                   splits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points [..., P, 2] of the paths of stacked [..., C, 4, 2]
    controls, every leading batch entry split at the same ``splits``."""
    return (controls[..., np.append(0, splits), 0, :],
            controls[..., np.append(splits, controls.shape[-3]) - 1, 3, :])


def _permuted(image: StrokeImage, flags: np.ndarray,
              order: np.ndarray) -> StrokeImage:
    """The image with its paths taken in ``order``, each flagged one (by its
    index in ``image``) traversed from its other end."""
    if not len(image):
        return image
    index, splits = _path_gather(image.splits, len(image.controls),
                                 flags[None], np.asarray(order)[None])
    controls = image.controls.reshape(-1, 2)[index[0]].reshape(-1, 4, 2)
    return StrokeImage.from_controls(controls, splits[0], image.boundary)


def _path_gather(splits: np.ndarray, curves: int, flags: np.ndarray,
                 order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices [n, 4C] into the points of n copies of one image's
    paths (split at ``splits``, C curves), and the new splits [n, P - 1]:
    copy i takes path order[i, q] q-th, from its other end where flags[i]
    marks it. A path backwards is its point sequence reversed."""
    n = len(order)
    first = 4 * np.append(0, splits)
    length = 4 * np.diff(np.append(splits, curves), prepend=0)
    run = length[order].ravel()
    path = np.repeat(order.ravel(), run)
    back = np.repeat(np.take_along_axis(flags, order, axis=1).ravel(), run)
    t = np.arange(len(path)) - np.repeat(np.cumsum(run) - run, run)
    index = first[path] + np.where(back, length[path] - 1 - t, t)
    new_splits = np.cumsum(length[order] // 4, axis=1)[:, :-1]
    return index.reshape(n, -1), new_splits


# ---------------------------------------------------------------------------
# Patch generation
# ---------------------------------------------------------------------------

def generate_patch_with_params(
    image: StrokeImage, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[StrokeImage, PatchParams]:
    patches = _augment(image, cfg, [rng])
    return patches[0], patches.params(0)


def generate_patch_set(image: StrokeImage, n: int, cfg: AugmentConfig,
                       rng: np.random.Generator) -> PatchSet:
    """n independent patches, one rng stream each, spawned from ``rng``."""
    if n < 1:
        raise ValueError("patch count must be >= 1")
    return _augment(image, cfg, rng.spawn(n))


def _augment(image: StrokeImage, cfg: AugmentConfig,
             rngs: list[np.random.Generator]) -> PatchSet:
    """One patch per rng, all as one array.

    Each rng draws in its own order: angle, mirrors and scale; then the
    translation, from the scaled patch's bbox; then the reversal flags and
    the first path of the greedy order.
    """
    n, boundary = len(rngs), image.boundary
    draws = [(r.uniform(0.0, 2.0 * math.pi), r.random() < 0.5,
              r.random() < 0.5, r.uniform(cfg.scale_min, 1.0)) for r in rngs]
    angle, mirror_h, mirror_v, factor = (np.array(d) for d in zip(*draws))
    curves, count = len(image.controls), len(image)
    applied = dict(angle=angle, mirror_horizontal=mirror_h,
                   mirror_vertical=mirror_v, scale=factor,
                   fit_shrink=np.ones(n), offset=np.zeros((n, 2)),
                   reversed_paths=np.zeros((n, count), dtype=bool),
                   path_order=np.zeros((n, count), dtype=np.int64))
    if not count:
        return PatchSet(np.zeros((n, 0, 4, 2)), np.zeros((n, 0)), boundary,
                        applied)

    cos, sin = [math.cos(a) for a in angle], [math.sin(a) for a in angle]
    rotation = np.array([[[c, -s], [s, c]] for c, s in zip(cos, sin)])
    xy = np.broadcast_to(_points(image.controls), (n, 2, 4 * curves))
    # content too large to rotate in place gets shrunk by the boundary fit
    xy, applied["fit_shrink"] = _map_about_center(xy, rotation, boundary)
    for mask, axis in ((mirror_h, "horizontal"), (mirror_v, "vertical")):
        if mask.any():
            m = np.broadcast_to(_MIRRORS[axis], (int(mask.sum()), 2, 2))
            xy[mask], _ = _map_about_center(xy[mask], m, boundary)
    xy, _ = _map_about_center(xy, factor[:, None, None] * np.eye(2), boundary)

    lo, hi = xy.min(axis=2).tolist(), xy.max(axis=2).tolist()
    offset = np.array([(r.uniform(-l[0], boundary - h[0]),
                        r.uniform(-l[1], boundary - h[1]))
                       for r, l, h in zip(rngs, lo, hi)])
    xy = _translate(xy, offset, boundary)

    flags = np.array([r.random(count) for r in rngs]) < cfg.reversal_probability
    first = [int(r.integers(count)) for r in rngs]
    # a reversed path starts at its old end point
    a, b = path_endpoints(_controls(xy), image.splits)
    back = flags[..., None]
    order = greedy_order(np.where(back, b, a), np.where(back, a, b), first)
    index, splits = _path_gather(image.splits, curves, flags, order)
    controls = np.take_along_axis(xy.transpose(0, 2, 1), index[..., None],
                                  axis=1)
    applied.update(offset=offset, reversed_paths=flags, path_order=order)
    return PatchSet(controls.reshape(n, curves, 4, 2), splits, boundary,
                    applied)
