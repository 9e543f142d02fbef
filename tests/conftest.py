"""Shared oracles and fixtures for the test suite.

The helpers deliberately avoid the library's own code paths: distances are
measured by dense sampling, gradients by central finite differences.
``reference_attention`` keeps the earlier arithmetic of the attention node.
``micro_ckpt`` is a tiny trained checkpoint for the sampling tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from strokegen.geometry import Path, StrokeImage
from strokegen.training import TrainConfig, train


def segment_path(x0, y0, x1, y1) -> Path:
    """A one-curve path: the straight segment from (x0, y0) to (x1, y1)."""
    t = np.array([x1 - x0, y1 - y0]) / 3.0
    return Path([[
        [x0, y0],
        [x0 + t[0], y0 + t[1]],
        [x0 + 2 * t[0], y0 + 2 * t[1]],
        [x1, y1],
    ]])


# the image and settings of micro_ckpt
MICRO_TRAIN = TrainConfig(
    epochs=3, patches_per_epoch=8, batch_size=8, warmup_steps=20,
    heldout_patches=6, seq_ceiling=16, d_model=8, n_layers=1, n_heads=2,
    d_ff=16, seed=5,
)


def micro_image() -> StrokeImage:
    return StrokeImage(
        [
            segment_path(70, 70, 110, 70),
            segment_path(110, 70, 110, 110),
            segment_path(110, 110, 70, 110),
        ],
        boundary=180.0,
    )


@pytest.fixture(scope="session")
def micro_ckpt():
    return train(micro_image(), MICRO_TRAIN)


def reverse_path(path: Path) -> Path:
    """The same geometry traversed from the other end."""
    return Path(path.control_array()[::-1, ::-1])


def pen_travel(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total pen-up distance between consecutive paths with [P, 2] start and
    end points."""
    return float(np.hypot(*(starts[1:] - ends[:-1]).T).sum())


def dense_curve_samples(path, n_per_curve: int = 1000) -> np.ndarray:
    """Sample every curve of a path at uniform parameters; [~n*curves, 2]."""
    t = np.linspace(0.0, 1.0, n_per_curve)
    chunks = []
    for c in path.control_array():
        u = 1.0 - t
        basis = np.stack([u ** 3, 3 * u * u * t, 3 * u * t * t, t ** 3], axis=-1)
        chunks.append(basis @ c)
    return np.concatenate(chunks)


def point_to_polyline_distance(p: np.ndarray, polyline_pts: np.ndarray) -> float:
    """Min distance from one point to any segment of a polyline."""
    a = polyline_pts[:-1]
    b = polyline_pts[1:]
    ab = b - a
    len_sq = np.sum(ab * ab, axis=1)
    len_sq_safe = np.where(len_sq == 0.0, 1.0, len_sq)
    t = np.clip(np.sum((p - a) * ab, axis=1) / len_sq_safe, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.sqrt(np.sum((p - proj) ** 2, axis=1))
    return float(d.min())


def points_to_polyline_distances(points: np.ndarray, polyline_pts: np.ndarray,
                                 block_values: int = 1 << 17) -> np.ndarray:
    """point_to_polyline_distance of every point of [N, 2], bitwise equal to
    it: the same arithmetic, with each sum over x and y written out. Points
    go in blocks of at most ``block_values`` point-segment pairs, which
    bounds each [block, segments] float64 array to 1 MB."""
    a = polyline_pts[:-1]
    ab = polyline_pts[1:] - a
    len_sq = np.sum(ab * ab, axis=1)
    len_sq_safe = np.where(len_sq == 0.0, 1.0, len_sq)
    (ax, ay), (abx, aby) = a.T, ab.T
    block = max(1, block_values // len(a))
    out = np.empty(len(points))
    for i in range(0, len(points), block):
        px, py = points[i: i + block, :, None].transpose(1, 0, 2)
        t = np.clip(((px - ax) * abx + (py - ay) * aby) / len_sq_safe, 0.0, 1.0)
        d = np.sqrt((px - (ax + t * abx)) ** 2 + (py - (ay + t * aby)) ** 2)
        out[i: i + block] = d.min(axis=1)
    return out


def max_deviation_curve_to_polyline(path, polyline_pts: np.ndarray,
                                    n_per_curve: int = 1000) -> float:
    """Dense-sample deviation of a path from a polyline approximation."""
    samples = dense_curve_samples(path, n_per_curve)
    return float(points_to_polyline_distances(samples, polyline_pts).max())


def fit_residuals(points: np.ndarray, path, n_per_curve: int = 2000) -> np.ndarray:
    """Per-input-point min distance to a densely sampled fitted path.

    The dense samples are treated as an inscribed polyline, whose deviation
    from the true curve is O(1/n^2) and irrelevant at test tolerances.
    """
    samples = dense_curve_samples(path, n_per_curve)
    return points_to_polyline_distances(np.asarray(points, dtype=float),
                                        samples)


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, element by element."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray,
                        floor: float = 1e-6) -> float:
    """Worst elementwise relative disagreement between two gradients."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def reference_attention(x, wq, wk, wv, wo, n_heads, bias, g=None, *,
                        last_only=False):
    """The earlier arithmetic of ``autodiff.multi_head_attention`` on arrays:
    scores scaled after the product, the strided ``bias.T`` broadcast, the
    weights normalised before the value product. Returns the output and,
    for a cotangent ``g`` of its shape, the gradients of x, wq, wk, wv, wo
    (else None)."""
    *lead, l, d = x.shape
    b, hd = math.prod(lead), d // n_heads
    lq = 1 if last_only else l
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=x.dtype)
    x2 = x.reshape(b * l, d)
    w_qkv = np.concatenate((wq, wk, wv), axis=1)
    qkv = (x2 @ w_qkv).reshape(b, l, 3, n_heads, hd)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)
    if last_only:
        q = q[..., -1:, :]
        bias = None if bias is None else bias[-1:]
    a = k @ np.swapaxes(q, -1, -2)
    a *= scale
    if bias is not None:
        a += bias.T
    a -= a.max(axis=-2, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-2, keepdims=True)
    ctx = (np.swapaxes(a, -1, -2) @ v).transpose(0, 2, 1, 3).reshape(b * lq, d)
    out = (ctx @ wo).reshape(*lead, lq, d)
    if g is None:
        return out, None
    g = g.reshape(b * l, d)
    dwo = ctx.T @ g
    dctx = (g @ wo.T).reshape(b, l, n_heads, hd).transpose(0, 2, 1, 3)
    dqkv = np.empty_like(qkv)
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
    np.matmul(a, dctx, out=dv)
    da = v @ np.swapaxes(dctx, -1, -2)
    da -= (da * a).sum(axis=-2, keepdims=True)
    da *= a
    da *= scale
    np.matmul(np.swapaxes(da, -1, -2), k, out=dq)
    np.matmul(da, q, out=dk)
    dqkv = dqkv.reshape(b * l, 3 * d)
    dw = x2.T @ dqkv
    dx = (dqkv @ w_qkv.T).reshape(x.shape)
    return out, [dx, dw[:, :d], dw[:, d: 2 * d], dw[:, 2 * d:], dwo]
