"""Reference oracle for the curve fitter.

The functions below are the earlier per-helper fitter of
``strokegen.geometry``, kept verbatim: every round rebuilt the Bernstein
basis once per evaluation (``_bezier_eval``, ``_bezier_deriv1``,
``_bezier_deriv2``) and took each least-squares sum with its own
``np.sum``. ``geometry.fit_path`` must reproduce ``oracle_fit_path`` bit for
bit: the same control floats and the same ValueError messages.
"""

import math

import numpy as np

# Newton-Raphson reparameterization rounds tried before splitting a segment.
_REPARAM_ROUNDS = 4


def oracle_fit_path(points, max_error: float) -> np.ndarray:
    """The [n, 4, 2] control array the earlier ``fit_path`` returned."""
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
    return np.array(_fit_cubic(pts, t_left, t_right, max_error), dtype=float)


def check_error_bound(name: str, value: float):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _bezier_eval(c: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    b = np.stack([u ** 3, 3 * u * u * t, 3 * u * t * t, t ** 3], axis=-1)
    return b @ c


def _bezier_deriv1(c: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    d = 3.0 * np.diff(c, axis=0)  # [3, 2]
    b = np.stack([u * u, 2 * u * t, t * t], axis=-1)
    return b @ d


def _bezier_deriv2(c: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    d2 = 6.0 * np.diff(c, n=2, axis=0)  # [2, 2]
    b = np.stack([1.0 - t, t], axis=-1)
    return b @ d2


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
    if len(pts) == 2:
        dist = math.hypot(*(pts[1] - pts[0])) / 3.0
        return [np.array([pts[0], pts[0] + t_left * dist,
                          pts[1] + t_right * dist, pts[1]])]

    u = _chord_length_params(pts)
    bez = _generate_bezier(pts, u, t_left, t_right)
    err_sq, split = _max_error_sq(pts, bez, u)
    budget_sq = max_error * max_error
    if err_sq <= budget_sq:
        return [bez]

    for _ in range(_REPARAM_ROUNDS):
        u = _reparameterize(bez, pts, u)
        bez = _generate_bezier(pts, u, t_left, t_right)
        err_sq, split = _max_error_sq(pts, bez, u)
        if err_sq <= budget_sq:
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


def _generate_bezier(pts: np.ndarray, u: np.ndarray, t_left: np.ndarray,
                     t_right: np.ndarray) -> np.ndarray:
    first, last = pts[0], pts[-1]
    a0 = np.outer(3 * (1 - u) ** 2 * u, t_left)    # [n, 2]
    a1 = np.outer(3 * (1 - u) * u ** 2, t_right)

    c00 = np.sum(a0 * a0)
    c01 = np.sum(a0 * a1)
    c11 = np.sum(a1 * a1)

    base = _bezier_eval(np.array([first, first, last, last]), u)
    tmp = pts - base
    x0 = np.sum(a0 * tmp)
    x1 = np.sum(a1 * tmp)

    det_c = c00 * c11 - c01 * c01
    alpha_l = (x0 * c11 - x1 * c01) / det_c if det_c != 0.0 else 0.0
    alpha_r = (c00 * x1 - c01 * x0) / det_c if det_c != 0.0 else 0.0

    seg_len = math.hypot(*(last - first))
    eps = 1.0e-6 * seg_len
    if alpha_l < eps or alpha_r < eps:
        # Wu/Barsky heuristic when the least-squares solve degenerates.
        alpha_l = alpha_r = seg_len / 3.0

    return np.array([first, first + t_left * alpha_l,
                     last + t_right * alpha_r, last])


def _max_error_sq(pts: np.ndarray, bez: np.ndarray,
                  u: np.ndarray) -> tuple[float, int]:
    on_curve = _bezier_eval(bez, u)
    d_sq = np.sum((on_curve - pts) ** 2, axis=1)
    idx = int(np.argmax(d_sq))
    return float(d_sq[idx]), idx


def _reparameterize(bez: np.ndarray, pts: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    q = _bezier_eval(bez, u)
    q1 = _bezier_deriv1(bez, u)
    q2 = _bezier_deriv2(bez, u)
    diff = q - pts
    num = np.sum(diff * q1, axis=1)
    den = np.sum(q1 * q1, axis=1) + np.sum(diff * q2, axis=1)
    step = np.where(np.abs(den) > 1e-12, num / np.where(den == 0, 1.0, den), 0.0)
    out = np.clip(u - step, 0.0, 1.0)
    out[0] = 0.0
    out[-1] = 1.0
    return out
