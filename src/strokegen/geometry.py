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
        return [Path(a) for a in self.path_controls()]

    def path_controls(self) -> list[np.ndarray]:
        """Each path's [n, 4, 2] controls, read-only views of ``controls``."""
        return np.split(self.controls, self.splits) if len(self) else []

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
# Curve fitting (least-squares cubic fit with adaptive splitting)
# ---------------------------------------------------------------------------
# The fit runs breadth-first. A wave holds every segment still being fitted,
# its points concatenated, and runs one round for each: the chord-length fit
# or one Newton-Raphson step. Elementwise work is one numpy call per wave.
# Matrix products and sums stay one call per segment, on the operands the
# reference fitter in tests/fit_oracle.py uses, since their rounding depends
# on the operand; products keep its factor order and sums its element order,
# so the fitted floats match it bit for bit.

def fit_path(points, max_error: float) -> Path:
    """Fit a chain of cubic curves through recorded pen positions: the batch
    of one of fit_paths, whose ValueError messages here do not name the
    stroke."""
    check_error_bound("max_error", max_error)
    return Path(fit_paths([_stroke_points(points)], max_error)[0])


def fit_paths(strokes, max_error: float) -> list[np.ndarray]:
    """The [n, 4, 2] controls of a chain of cubic curves through each
    stroke's recorded pen positions.

    Consecutive duplicate points are dropped first. Every input point ends up
    within ``max_error`` units of the fitted chain, measured at the point's
    assigned curve parameter. Every stroke passes checked_strokes before any
    is fitted; a non-positive error budget raises ValueError, unnamed.
    """
    check_error_bound("max_error", max_error)
    checked = checked_strokes(strokes)
    budget_sq = max_error * max_error
    # A wave's segments: each one's key (its stroke, then 0 for a left and 1
    # for a right half per split), its points [lo, hi) of ``pts``, the
    # rounds it has run and its end tangents [2, 2].
    keys = [(i,) for i in range(len(checked))]
    sizes = np.array([len(p) for p in checked], dtype=np.int64)
    hi = np.cumsum(sizes)
    lo = hi - sizes
    pts = np.concatenate(checked) if checked else np.zeros((0, 2))
    u = _chord_length_params(pts, lo, hi)
    rounds = np.zeros(len(keys), dtype=np.int64)
    tangents = np.array([[_unit(p[1] - p[0]), _unit(p[-2] - p[-1])]
                         for p in checked])
    fitted = []  # (key, controls [4, 2]) of every segment within budget
    while keys:
        su, basis = _bernstein(u)
        bez = _generate_beziers(pts, su, basis, tangents, lo, hi)
        # from each point to its place on its curve
        diff = _per_segment(basis, bez, lo, hi) - pts
        d_sq = diff * diff
        d_sq = d_sq[:, 0] + d_sq[:, 1]
        worst = np.maximum.reduceat(d_sq, lo)
        fits = worst <= budget_sq
        fitted += [(keys[s], bez[s]) for s in np.flatnonzero(fits).tolist()]
        again = np.flatnonzero(~fits & (rounds < _REPARAM_ROUNDS))
        split = np.flatnonzero(~fits & (rounds == _REPARAM_ROUNDS))
        halves = []
        if split.size:
            short = split[sizes[split] < 3]
            if short.size:  # two points fit exactly unless a handle overflows
                s = short[0]
                raise ValueError(f"stroke {keys[s][0]}: no finite curve joins "
                                 f"{pts[lo[s]].tolist()} and "
                                 f"{pts[hi[s] - 1].tolist()}")
            # as np.argmax, each one's first worst point, or its first NaN
            at = np.flatnonzero((d_sq == np.repeat(worst, sizes))
                                | np.isnan(d_sq))
            at = at[np.searchsorted(at, lo[split])].tolist()
            halves = [_halves(pts, a, b, worst_at, tangents[s])
                      for s, a, b, worst_at in zip(split.tolist(),
                                                   lo[split].tolist(),
                                                   hi[split].tolist(), at)]
        # the next wave: the segments that step again, then the new halves
        ends = np.array([h[0] for h in halves], dtype=np.int64).reshape(-1, 2)
        starts = np.concatenate((lo[again], ends[:, 0]))
        sizes = np.concatenate((sizes[again], ends[:, 1] - ends[:, 0]))
        hi = np.cumsum(sizes)
        lo = hi - sizes
        take = np.repeat(starts - lo, sizes) + np.arange(sizes.sum())
        n = len(again)
        stepped = int(hi[n - 1]) if n else 0  # their points come first
        pts, was = pts[take], take[:stepped]
        u = np.concatenate((
            _reparameterize(bez[again], pts[:stepped], u[was], su[was],
                            diff[was], lo[:n], hi[:n]) if n else [],
            _chord_length_params(pts[stepped:], lo[n:] - stepped,
                                 hi[n:] - stepped) if halves else []))
        keys = ([keys[s] for s in again.tolist()]
                + [keys[s] + (side,) for s in split.tolist() for side in (0, 1)])
        rounds = np.concatenate((rounds[again] + 1,
                                 np.zeros(len(ends), np.int64)))
        tangents = np.concatenate((tangents[again], np.reshape(
            [h[1] for h in halves], (-1, 2, 2))))
    fitted.sort(key=lambda f: f[0])
    curves = [[] for _ in checked]
    for key, controls in fitted:
        curves[key[0]].append(controls)
    return [np.array(c) for c in curves]


def _halves(pts: np.ndarray, a: int, b: int, worst_at: int,
            tangents: np.ndarray) -> tuple[list, list]:
    """The point ranges and end tangents [2, 2] of the two halves of the
    segment of points [a, b) and end tangents ``tangents``, split at its
    worst point, kept off its ends; both hold that point."""
    at = min(max(worst_at - a, 1), b - a - 2) + a
    t_center = _unit(pts[at - 1] - pts[at + 1])
    if t_center[0] == 0.0 and t_center[1] == 0.0:
        t_center = _unit(pts[at - 1] - pts[at])
    return ([(a, at + 1), (at, b)],
            [(tangents[0], t_center), (-t_center, tangents[1])])


def check_error_bound(name: str, value: float):
    """Raise ValueError naming ``name`` unless ``value`` is a number > 0; a
    NaN bound would split or refit without end."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def checked_strokes(strokes) -> list[np.ndarray]:
    """Each stroke through _stroke_points; an error names ``stroke i``."""
    checked = []
    for i, points in enumerate(strokes):
        try:
            checked.append(_stroke_points(points))
        except (TypeError, ValueError) as exc:  # e.g. one repeated point
            raise ValueError(f"stroke {i}: {exc}") from None
    return checked


def _stroke_points(points) -> np.ndarray:
    """One stroke's [n, 2] points, consecutive duplicates dropped; raises
    ValueError unless they are finite and at least 2 distinct."""
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
    return pts


def _dedupe_consecutive(pts: np.ndarray) -> np.ndarray:
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        return np.array([0.0, 0.0])
    return v / n


def _per_segment(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """a[lo[s]:hi[s]] @ b[s] for each segment s, stacked: one product per
    segment, rounded as for that segment alone."""
    if out is None:
        out = np.empty((len(a), b.shape[-1]))
    for start, stop, m in zip(lo.tolist(), hi.tolist(), b):
        np.matmul(a[start:stop], m, out=out[start:stop])
    return out


def _chord_length_params(pts: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """The chord-length parameter of each point of each segment s of points
    [lo[s], hi[s]): the polyline length from the segment's first point to
    it, over the segment's whole length."""
    d = np.hypot(*(pts[1:] - pts[:-1]).T)
    u = np.empty(len(pts))
    u[lo] = 0.0
    for a, b in zip(lo.tolist(), hi.tolist()):
        np.cumsum(d[a:b - 1], out=u[a + 1:b])
    return u / np.repeat(u[hi - 1], hi - lo)


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


def _generate_beziers(pts: np.ndarray, su: np.ndarray, basis: np.ndarray,
                      tangents: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """The least-squares curve [S, 4, 2] of each segment s of points
    [lo[s], hi[s]) from its first to its last point, leaving along its
    tangents [S, 2, 2], at the parameters whose columns [1 - u, u] are
    ``su``."""
    n = len(pts)
    sq = su * su
    coef = np.empty((2, n))
    np.multiply(3 * sq[:, 0], su[:, 1], out=coef[0])  # 3 (1 - u)^2 u
    np.multiply(3 * su[:, 0], sq[:, 1], out=coef[1])  # 3 (1 - u) u^2
    terms = np.empty((3, n, 2))  # a0, a1, pts - base
    np.multiply(coef[:, :, None],
                np.repeat(tangents, hi - lo, axis=0).transpose(1, 0, 2),
                out=terms[:2])
    bez = np.empty((len(lo), 4, 2))
    bez[:, :2] = pts[lo, None]
    bez[:, 2:] = pts[hi - 1, None]
    np.subtract(pts, _per_segment(basis, bez, lo, hi), out=terms[2])
    # a0 and a1 times each of a0, a1 and pts - base, each summed in one pass
    # over the segment (one row unused)
    products = (terms[:2, None] * terms).reshape(6, n, 2)
    c00, c01, x0, _, c11, x1 = np.array([
        np.add.reduce(products[:, a:b].reshape(6, -1), axis=1)
        for a, b in zip(lo.tolist(), hi.tolist())]).T

    det_c = c00 * c11 - c01 * c01
    alpha = np.zeros((len(bez), 2))  # 0 where det_c == 0
    solved = det_c != 0.0
    with np.errstate(over="ignore"):  # a tiny det_c: inf, as in Python floats
        np.divide(x0 * c11 - x1 * c01, det_c, out=alpha[:, 0], where=solved)
        np.divide(c00 * x1 - c01 * x0, det_c, out=alpha[:, 1], where=solved)
    seg_len = np.array([math.hypot(x, y) for x, y in
                        (bez[:, 3] - bez[:, 0]).tolist()])
    # Wu/Barsky heuristic when the least-squares solve degenerates.
    wu = (alpha < (1.0e-6 * seg_len)[:, None]).any(axis=1)
    alpha[wu] = (seg_len / 3.0)[wu, None]
    bez[:, 1:3] += tangents * alpha[:, :, None]
    return bez


def _reparameterize(bez: np.ndarray, pts: np.ndarray, u: np.ndarray,
                    su: np.ndarray, diff: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """A Newton-Raphson step of ``u`` (columns [1 - u, u] ``su``) towards each
    point's nearest place on its segment's curve ``bez`` [S, 4, 2]; ``diff``
    is the curve at ``u`` less ``pts``, and segment s holds the points
    [lo[s], hi[s])."""
    d1 = bez[:, 1:] - bez[:, :-1]
    basis1 = np.empty((len(u), 3))  # (1 - u)^2, 2 (1 - u) u, u^2
    basis1[:, ::2] = su * su
    np.multiply(2 * su[:, 0], u, out=basis1[:, 1])
    q = np.empty((3, len(u), 2))  # diff, first and second derivative
    q[0] = diff
    _per_segment(basis1, 3.0 * d1, lo, hi, out=q[1])
    _per_segment(su, 6.0 * (d1[:, 1:] - d1[:, :-1]), lo, hi, out=q[2])
    p = q[:2, None] * q[1:]
    p = p[..., 0] + p[..., 1]  # [[diff.q1, diff.q2], [q1.q1, q1.q2]]
    num, den = p[0, 0], p[1, 0] + p[0, 1]
    step = np.divide(num, den, out=np.zeros(len(u)), where=np.abs(den) > 1e-12)
    out = np.minimum(np.maximum(u - step, 0.0), 1.0)
    out[lo] = 0.0
    out[hi - 1] = 1.0
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
    """A recording's strokes [N, 2], through checked_strokes, and boundary."""
    data = load_json(source)
    if not isinstance(data, dict) or not isinstance(data.get("strokes"), list):
        raise ValueError("recording must be an object with a 'strokes' list")
    boundary = _boundary_from_json(data)
    return checked_strokes(data["strokes"]), boundary


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
    controls, splits = _stacked(fit_paths(strokes, fit_error))
    controls, _ = fit_paths_to_boundary_with_scale(controls, boundary)
    return StrokeImage.from_controls(controls, splits, boundary)


def image_to_json(image: StrokeImage) -> dict:
    return {
        "boundary": image.boundary,
        "paths": [c.tolist() for c in image.path_controls()],
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


def write_atomically(path, write):
    """Call ``write`` on ``<path>.tmp`` opened for text, sync it to disk,
    rename it over ``path`` and sync the directory: all or nothing, also
    after a power loss. A failed write leaves ``path`` as it was and no
    temp file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # the rename itself is durable only once the directory is synced
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
