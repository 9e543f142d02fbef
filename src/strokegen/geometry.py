"""Cubic Bezier path geometry.

Converts recorded pen-point sequences into compact curve chains (least-squares
fitting with adaptive splitting) and flattens curve chains back into
bounded-error polylines. Coordinates live on a square canvas of
``boundary`` x ``boundary`` units, x to the right and y down.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_BOUNDARY = 180.0
DEFAULT_FIT_ERROR = 1.0  # max distance of a fitted curve from its stroke

# Newton-Raphson reparameterization rounds tried before splitting a segment.
_REPARAM_ROUNDS = 4

# Gauss-Legendre nodes/weights on [0, 1] for arc-length quadrature.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_T = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0


class Path:
    """Contiguous chain of cubic Bezier curves approximating one pen stroke.

    A path is its read-only control-point array of shape [n_curves, 4, 2],
    built from anything array-like of that shape. Curve i ends exactly where
    curve i + 1 starts.
    """

    __slots__ = ("_controls",)

    def __init__(self, controls):
        c = np.array(controls, dtype=float)
        if c.size == 0:
            raise ValueError("path must contain at least one curve")
        check_controls(c, np.zeros(0, dtype=np.int64))
        c.flags.writeable = False
        self._controls = c

    def control_array(self) -> np.ndarray:
        """All control points as a read-only array of shape [n_curves, 4, 2]."""
        return self._controls

    def __len__(self) -> int:
        return len(self._controls)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return np.array_equal(self._controls, other._controls)

    def __repr__(self) -> str:
        return f"Path({self._controls.tolist()})"

    def arc_length(self) -> float:
        return float(np.sum(_curve_arc_lengths(self._controls)))


@dataclass
class Polyline:
    """Straight-segment approximation of a path; ``points`` is an [N, 2] array."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError(f"polyline points must be [N, 2], got {self.points.shape}")
        if len(self.points) < 2:
            raise ValueError("polyline needs at least 2 points")
        if not np.isfinite(self.points).all():
            raise ValueError("polyline contains non-finite coordinates")


class StrokeImage:
    """Ordered paths on a square canvas of side ``boundary``.

    An image is one read-only control array ``controls`` [C, 4, 2] holding
    the curves of all its paths in drawing order, and ``splits``, the
    np.split points between the paths. ``StrokeImage(paths, boundary)``
    stacks Paths; ``from_controls`` takes the arrays. ``paths`` are Path
    views built on demand and ``len(image)`` is the path count.
    """

    __slots__ = ("controls", "splits", "boundary")

    def __init__(self, paths, boundary: float = DEFAULT_BOUNDARY):
        self._set(*_stacked([p.control_array() for p in paths]), boundary)

    @classmethod
    def from_controls(cls, controls, splits,
                      boundary: float = DEFAULT_BOUNDARY) -> "StrokeImage":
        """The image of stacked [C, 4, 2] ``controls`` split into paths at
        ``splits``; checked and copied once, without building a Path."""
        image = cls.__new__(cls)
        image._set(controls, splits, boundary)
        return image

    def _set(self, controls, splits, boundary: float):
        c, s = checked_stack(np.asarray(controls, dtype=float)[None],
                             np.asarray(splits, dtype=np.int64)[None], boundary)
        self.controls, self.splits, self.boundary = c[0], s[0], boundary

    @property
    def paths(self) -> list[Path]:
        return [Path(a) for a in
                (np.split(self.controls, self.splits) if len(self) else [])]

    def __len__(self) -> int:
        return len(self.splits) + 1 if len(self.controls) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, StrokeImage):
            return NotImplemented
        return (self.boundary == other.boundary
                and np.array_equal(self.splits, other.splits)
                and np.array_equal(self.controls, other.controls))

    def __repr__(self) -> str:
        return (f"StrokeImage.from_controls({self.controls.tolist()}, "
                f"{self.splits.tolist()}, {self.boundary!r})")

    def control_array(self) -> np.ndarray:
        """All control points of all paths, stacked as [total_curves * 4, 2]."""
        return self.controls.reshape(-1, 2)

    def arc_length(self) -> float:
        return float(np.sum(_curve_arc_lengths(self.controls)))


def _stacked(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-path [n, 4, 2] controls as one [C, 4, 2] array and the np.split
    points between the paths."""
    return (np.concatenate(arrays) if arrays else np.zeros((0, 4, 2)),
            np.cumsum([len(a) for a in arrays[:-1]], dtype=np.int64))


def checked_stack(controls, splits, boundary: float,
                  patches: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of the stacked controls [n, C, 4, 2] of n images
    with the same curve and path counts, and of their splits [n, P - 1],
    checked at once: every path holds at least one curve and the curves
    pass check_controls on the canvas of side ``boundary``. Errors name the
    path and the curve, and with ``patches`` the image too, as the patch."""
    if not (math.isfinite(boundary) and boundary > 0):
        raise ValueError(f"boundary must be a finite number > 0, "
                         f"got {boundary!r}")
    c = np.array(controls, dtype=float)
    s = np.array(splits, dtype=np.int64)
    if c.ndim != 4 or c.shape[2:] != (4, 2):
        raise ValueError(f"path controls must have shape [n, 4, 2], "
                         f"got {c.shape[1:]}")
    curves = c.shape[1]
    if s.ndim != 2 or len(s) != len(c) or ((curves or s.size) and np.any(
            np.diff(s, axis=1, prepend=0, append=curves) < 1)):
        raise ValueError(f"splits {s.tolist()} must rise strictly inside "
                         f"(0, {curves})")
    if curves:
        check_controls(c.reshape(-1, 4, 2), batch_splits(s, curves), boundary,
                       s.shape[1] + 1 if patches else None)
    c.flags.writeable = s.flags.writeable = False
    return c, s


def batch_splits(splits: np.ndarray, curves: int) -> np.ndarray:
    """The np.split points between all paths of n images of ``curves``
    curves each, stacked as one [n * curves, 4, 2] array, from each image's
    own splits [n, P - 1]."""
    offsets = np.arange(len(splits))[:, None] * curves
    return np.column_stack([offsets, splits + offsets]).ravel()[1:]


def check_controls(c: np.ndarray, splits: np.ndarray,
                   boundary: float | None = None,
                   paths_per_image: int | None = None):
    """Raise ValueError, naming the path and the curve, unless ``c`` holds
    finite [C, 4, 2] curves that join exactly inside each path (a path split
    off at ``splits`` may start anywhere) and, given a ``boundary``, lie on
    the [0, boundary] canvas. Given ``paths_per_image``, ``c`` stacks
    several images of that many paths each, and the error names the image
    as the patch."""
    if c.ndim != 3 or c.shape[1:] != (4, 2):
        raise ValueError(f"path controls must have shape [n, 4, 2], "
                         f"got {c.shape}")
    gap = np.append(np.any(c[1:, 0] != c[:-1, 3], axis=1), False)
    gap[splits - 1] = False
    checks = [(~np.isfinite(c).all(axis=(1, 2)), "has a non-finite coordinate"),
              (gap, "does not end where the next curve starts")]
    if boundary is not None:
        checks.append((((c < 0.0) | (c > boundary)).any(axis=(1, 2)),
                       f"exceeds the [0, {boundary}] canvas"))
    for bad, what in checks:
        if bad.any():
            i = int(np.argmax(bad))
            path = int(np.searchsorted(splits, i, side="right"))
            first = splits[path - 1] if path else 0
            where = f"path {path}"
            if paths_per_image:
                where = (f"patch {path // paths_per_image}, "
                         f"path {path % paths_per_image}")
            raise ValueError(f"{where}: curve {i - first} {what}: "
                             f"{c[i].tolist()}")


def _curve_arc_lengths(curves: np.ndarray) -> np.ndarray:
    """Gauss-Legendre arc lengths for an array of curves [n, 4, 2]."""
    d = 3.0 * np.diff(curves, axis=1)  # [n, 3, 2]
    t = _GL_T
    u = 1.0 - t
    basis = np.stack([u * u, 2 * u * t, t * t], axis=-1)  # [24, 3]
    vel = np.einsum("kj,njc->nkc", basis, d)  # [n, 24, 2]
    speed = np.hypot(vel[..., 0], vel[..., 1])
    return speed @ _GL_W


# ---------------------------------------------------------------------------
# Curve fitting (least-squares cubic fit with recursive splitting)
# ---------------------------------------------------------------------------
# Products keep the factor order, and sums the element order, of the reference
# fitter in tests/fit_oracle.py, so the fitted floats match it bit for bit.

def fit_path(points, max_error: float) -> Path:
    """Fit a chain of cubic curves through recorded pen positions.

    Consecutive duplicate points are dropped first. Every input point ends up
    within ``max_error`` units of the fitted chain, measured at the point's
    assigned curve parameter. Raises ValueError on fewer than 2 distinct
    points or a non-positive error budget.
    """
    check_error_bound("max_error", max_error)
    pts = np.array(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be [N, 2], got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("input points contain non-finite coordinates")
    pts = _dedupe_consecutive(pts)
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct points to fit a path")
    t_left = _unit(pts[1] - pts[0])
    t_right = _unit(pts[-2] - pts[-1])
    return Path(_fit_cubic(pts, t_left, t_right, max_error))


def check_error_bound(name: str, value: float):
    """Raise ValueError naming ``name`` unless ``value`` is a number > 0; a
    NaN bound would split or refit without end."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _dedupe_consecutive(pts: np.ndarray) -> np.ndarray:
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        return np.array([0.0, 0.0])
    return v / n


def _fit_cubic(pts: np.ndarray, t_left: np.ndarray, t_right: np.ndarray,
               max_error: float) -> list[np.ndarray]:
    budget_sq = max_error * max_error
    tangents = np.array([t_left, t_right])
    u = _chord_length_params(pts)
    # the chord-length fit, then up to _REPARAM_ROUNDS Newton-Raphson rounds
    for reparam in range(_REPARAM_ROUNDS + 1):
        if reparam:
            u = _reparameterize(bez, pts, u, su, diff)
        su, basis = _bernstein(u)
        bez = _generate_bezier(pts, su, basis, tangents)
        diff = basis @ bez - pts  # from each point to its place on the curve
        d_sq = diff * diff
        d_sq = d_sq[:, 0] + d_sq[:, 1]
        split = int(d_sq.argmax())
        if d_sq[split] <= budget_sq:
            return [bez]

    split = min(max(split, 1), len(pts) - 2)
    t_center = _unit(pts[split - 1] - pts[split + 1])
    if t_center[0] == 0.0 and t_center[1] == 0.0:
        t_center = _unit(pts[split - 1] - pts[split])
    left = _fit_cubic(pts[: split + 1], t_left, t_center, max_error)
    right = _fit_cubic(pts[split:], -t_center, t_right, max_error)
    return left + right


def _chord_length_params(pts: np.ndarray) -> np.ndarray:
    d = np.hypot(*(pts[1:] - pts[:-1]).T)
    u = np.concatenate([[0.0], np.cumsum(d)])
    return u / u[-1]


def _bernstein(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns [1 - u, u] [n, 2] and the cubic Bernstein basis [n, 4]
    at the curve parameters ``u``."""
    su = np.empty((len(u), 2))
    np.subtract(1.0, u, out=su[:, 0])
    su[:, 1] = u
    basis = np.empty((len(u), 4))
    basis[:, ::3] = su ** 3
    # 3 (1 - u) (1 - u) u and 3 (1 - u) u u
    np.multiply(3 * su[:, :1] * su, su[:, 1:], out=basis[:, 1:3])
    return su, basis


def _generate_bezier(pts: np.ndarray, su: np.ndarray, basis: np.ndarray,
                     tangents: np.ndarray) -> np.ndarray:
    """The least-squares curve from pts[0] to pts[-1] leaving along the
    tangents [2, 2] at the parameters whose columns [1 - u, u] are ``su``."""
    n = len(pts)
    sq = su * su
    coef = np.empty((2, n))
    np.multiply(3 * sq[:, 0], su[:, 1], out=coef[0])  # 3 (1 - u)^2 u
    np.multiply(3 * su[:, 0], sq[:, 1], out=coef[1])  # 3 (1 - u) u^2
    terms = np.empty((3, n, 2))  # a0, a1, pts - base
    np.multiply(coef[:, :, None], tangents[:, None], out=terms[:2])
    bez = pts[[0, 0, -1, -1]]
    np.subtract(pts, basis @ bez, out=terms[2])
    # a0 and a1 times each of a0, a1 and pts - base, each summed in one pass
    c00, c01, x0, _, c11, x1 = np.add.reduce(
        (terms[:2, None] * terms).reshape(6, 2 * n), axis=1).tolist()

    det_c = c00 * c11 - c01 * c01
    alpha_l = (x0 * c11 - x1 * c01) / det_c if det_c != 0.0 else 0.0
    alpha_r = (c00 * x1 - c01 * x0) / det_c if det_c != 0.0 else 0.0

    seg_len = math.hypot(*(bez[3] - bez[0]))
    eps = 1.0e-6 * seg_len
    if alpha_l < eps or alpha_r < eps:
        # Wu/Barsky heuristic when the least-squares solve degenerates.
        alpha_l = alpha_r = seg_len / 3.0

    bez[1:3] += tangents * np.array([[alpha_l], [alpha_r]])
    return bez


def _reparameterize(bez: np.ndarray, pts: np.ndarray, u: np.ndarray,
                    su: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """A Newton-Raphson step of ``u`` (columns [1 - u, u] ``su``) towards each
    point's nearest place on ``bez``; ``diff`` is bez at ``u`` less ``pts``."""
    d1 = bez[1:] - bez[:-1]
    basis1 = np.empty((len(u), 3))  # (1 - u)^2, 2 (1 - u) u, u^2
    basis1[:, ::2] = su * su
    np.multiply(2 * su[:, 0], u, out=basis1[:, 1])
    q = np.empty((3, len(u), 2))  # diff, first and second derivative
    q[0] = diff
    np.matmul(basis1, 3.0 * d1, out=q[1])
    np.matmul(su, 6.0 * (d1[1:] - d1[:-1]), out=q[2])
    p = q[:2, None] * q[1:]
    p = p[..., 0] + p[..., 1]  # [[diff.q1, diff.q2], [q1.q1, q1.q2]]
    num, den = p[0, 0], p[1, 0] + p[0, 1]
    step = np.divide(num, den, out=np.zeros(len(u)), where=np.abs(den) > 1e-12)
    out = np.minimum(np.maximum(u - step, 0.0), 1.0)
    out[0] = 0.0
    out[-1] = 1.0
    return out


# ---------------------------------------------------------------------------
# Flattening (adaptive midpoint subdivision)
# ---------------------------------------------------------------------------

def flatten_path(path: Path, max_error: float) -> Polyline:
    """Flatten one path to a polyline within ``max_error`` units of the curves."""
    points, _ = flatten_controls(path.control_array(), np.zeros(0), max_error)
    return Polyline(points)


def flatten_controls(controls: np.ndarray, splits: np.ndarray,
                     max_error: float) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the stacked [C, 4, 2] curves of several paths at once.

    ``splits`` are the np.split points between paths, as in StrokeImage.
    Each curve is split at t=0.5 while a control point lies farther than
    ``max_error`` from the chord, all curves of one subdivision level at a
    time; endpoints are preserved exactly. Returns every path's polyline
    points [M, 2], consecutive duplicates dropped (a path that collapses to
    one point keeps two), and the np.split points between the polylines.
    """
    check_error_bound("max_error", max_error)
    pieces, curve = _flat_pieces(controls, max_error)
    path = np.searchsorted(splits, curve, side="right")
    # each path is its first point, then the end of each of its pieces
    first = np.flatnonzero(np.append(True, path[1:] != path[:-1]))
    points = np.insert(pieces[:, 3], first, pieces[first, 0], axis=0)
    path = np.insert(path, first, path[first])
    keep = np.append(True, (path[1:] != path[:-1])
                     | np.any(points[1:] != points[:-1], axis=1))
    # a path that collapses to one point keeps its last point as well
    kept = np.bincount(path, weights=keep).astype(np.int64)
    last = np.append(np.flatnonzero(path[1:] != path[:-1]), len(path) - 1)
    keep[last[kept < 2]] = True
    return points[keep], np.cumsum(np.maximum(kept, 2))[:-1]


def _flat_pieces(controls: np.ndarray,
                 max_error: float) -> tuple[np.ndarray, np.ndarray]:
    """The flat-enough pieces [L, 4, 2] of every curve, in curve order and
    left to right along each curve, and the curve each piece belongs to."""
    pieces, curve = controls, np.arange(len(controls))
    flat = np.zeros(len(controls), dtype=bool)
    while not flat.all():
        flat[~flat] = _control_distance(pieces[~flat]).max(axis=1) <= max_error
        # every piece that is not flat is replaced by its two halves, in place
        n = 2 - flat
        at = (np.cumsum(n) - n)[~flat]
        left, right = _split_curves(pieces[~flat])
        pieces, curve, flat = (np.repeat(a, n, axis=0)
                               for a in (pieces, curve, flat))
        pieces[at], pieces[at + 1] = left, right
    return pieces, curve


def _control_distance(c: np.ndarray) -> np.ndarray:
    """Distances [K, 2] of control points 1 and 2 from the chord of each curve."""
    a = c[:, None, 0]
    ab = c[:, None, 3] - a
    len_sq = ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1]
    ap = c[:, 1:3] - a
    dot = ap[..., 0] * ab[..., 0] + ap[..., 1] * ab[..., 1]
    # a zero-length chord gives t = 0: the distance to its start point
    t = np.clip(dot / np.where(len_sq == 0.0, 1.0, len_sq), 0.0, 1.0)
    d = c[:, 1:3] - (a + t[..., None] * ab)
    return np.hypot(d[..., 0], d[..., 1])


def _split_curves(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """De Casteljau halves at t=0.5 of every curve in [K, 4, 2]."""
    p01 = (c[:, 0] + c[:, 1]) / 2.0
    p12 = (c[:, 1] + c[:, 2]) / 2.0
    p23 = (c[:, 2] + c[:, 3]) / 2.0
    p012 = (p01 + p12) / 2.0
    p123 = (p12 + p23) / 2.0
    mid = (p012 + p123) / 2.0
    return (np.stack([c[:, 0], p01, p012, mid], axis=1),
            np.stack([mid, p123, p23, c[:, 3]], axis=1))


# ---------------------------------------------------------------------------
# Boundary fitting
# ---------------------------------------------------------------------------

def fit_paths_to_boundary_with_scale(
    controls: np.ndarray, boundary: float
) -> tuple[np.ndarray, float]:
    """Translate (and, only if too large, uniformly shrink) stacked [C, 4, 2]
    controls into the canvas; returns them and the shrink used."""
    xy, scale = fit_to_canvas(controls.reshape(1, -1, 2).transpose(0, 2, 1),
                              boundary)
    return xy[0].T.reshape(controls.shape), float(scale[0])


def fit_to_canvas(xy: np.ndarray,
                  boundary: float) -> tuple[np.ndarray, np.ndarray]:
    """Translate (and, only if too large, uniformly shrink) each of n point
    sets ``xy`` [n, 2, K] (x row, then y row) into the canvas; returns them
    and the shrink [n] used for each.

    The translation is the minimal shift that brings the set's bounding box
    inside [0, boundary]^2; shrinking happens about the bbox center, and a
    set that fits is not touched by it. Coordinates are clipped at the very
    end to squash float residue.
    """
    lo, hi = xy.min(axis=2), xy.max(axis=2)
    size = hi - lo
    scale = np.ones(len(xy))
    big = (size > boundary).any(axis=1)
    if big.any():
        scale[big] = boundary / size[big].max(axis=1)
        center = ((lo[big] + hi[big]) / 2.0)[..., None]
        xy = xy.copy()
        xy[big] = (xy[big] - center) * scale[big, None, None] + center
        lo, hi = xy.min(axis=2), xy.max(axis=2)

    shift = np.where(lo < 0.0, -lo, 0.0) + np.where(hi > boundary,
                                                    boundary - hi, 0.0)
    return np.clip(xy + shift[..., None], 0.0, boundary), scale


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------
# Recording: {"boundary": 180, "strokes": [[[x, y], ...], ...]}
# Path image: {"boundary": 180, "paths": [[[[x,y],[x,y],[x,y],[x,y]], ...], ...]}


def load_recording(source) -> tuple[list[np.ndarray], float]:
    """Read a stroke recording; returns (strokes as [N,2] arrays, boundary)."""
    data = load_json(source)
    if not isinstance(data, dict) or not isinstance(data.get("strokes"), list):
        raise ValueError("recording must be an object with a 'strokes' list")
    boundary = _boundary_from_json(data)
    strokes = []
    for i, stroke in enumerate(data["strokes"]):
        arr = np.asarray(stroke, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"stroke {i} is not a list of [x, y] pairs")
        if not np.isfinite(arr).all():
            raise ValueError(f"stroke {i} contains non-finite coordinates")
        strokes.append(arr)
    return strokes, boundary


def recording_to_image(source,
                       fit_error: float = DEFAULT_FIT_ERROR) -> StrokeImage:
    """Fit every recorded stroke and pull the result inside the canvas.

    Fitted control points can overshoot the recorded extent, so the image is
    re-fitted to the boundary afterwards.
    """
    check_error_bound("fit_error", fit_error)
    strokes, boundary = load_recording(source)
    if not strokes:
        return StrokeImage([], boundary)
    arrays = []
    for i, stroke in enumerate(strokes):
        try:
            arrays.append(fit_path(stroke, fit_error).control_array())
        except ValueError as exc:  # e.g. a stroke of one repeated point
            raise ValueError(f"stroke {i}: {exc}") from None
    controls, splits = _stacked(arrays)
    controls, _ = fit_paths_to_boundary_with_scale(controls, boundary)
    return StrokeImage.from_controls(controls, splits, boundary)


def image_to_json(image: StrokeImage) -> dict:
    return {
        "boundary": image.boundary,
        "paths": [p.control_array().tolist() for p in image.paths],
    }


def image_from_json(data: dict) -> StrokeImage:
    if not isinstance(data, dict) or not isinstance(data.get("paths"), list):
        raise ValueError("path image must be an object with a 'paths' list")
    boundary = _boundary_from_json(data)
    arrays = [_path_from_json(raw, i) for i, raw in enumerate(data["paths"])]
    return StrokeImage.from_controls(*_stacked(arrays), boundary)


def _boundary_from_json(data: dict) -> float:
    """The canvas side of a recording or path image: a finite number > 0."""
    value = data.get("boundary", DEFAULT_BOUNDARY)
    # bool is not a number here; an int past the float range is not finite
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise ValueError(f"'boundary' must be a finite number > 0, "
                         f"got {value!r}")
    return float(value)


def _path_from_json(raw, index: int) -> np.ndarray:
    """One stored path's [n, 4, 2] controls; a malformed shape raises
    ValueError naming the path and the curve."""
    if not isinstance(raw, list):
        raise ValueError(f"path {index}: expected a list of curves, "
                         f"got {raw!r}")
    if not raw:
        raise ValueError(f"path {index}: path must contain at least one curve")
    for j, curve in enumerate(raw):
        try:
            shape = np.array(curve, dtype=float).shape
        except (TypeError, ValueError):
            shape = None
        if shape != (4, 2):
            raise ValueError(f"path {index}, curve {j}: expected 4 [x, y] "
                             f"points, got {curve!r}")
    return np.array(raw, dtype=float)


def save_path_image(image: StrokeImage, path):
    with open(path, "w") as fh:
        json.dump(image_to_json(image), fh)


def load_path_image(path) -> StrokeImage:
    return image_from_json(load_json(path))


def load_json(source):
    """The document of the JSON file ``source`` (a dict passes as it is); a
    file that does not decode raises ValueError naming it."""
    if isinstance(source, dict):
        return source
    with open(source) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{os.fspath(source)}: {exc}") from None
