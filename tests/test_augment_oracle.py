"""Reference oracle for the batched transform chain.

The functions below are the earlier per-patch, per-path implementation:
every step rebuilt one Path per path (``_apply_affine``, the list-based
boundary fit, ``_clip_path``) and a StrokeImage between steps, and the
greedy order visited one patch's paths at a time. A patch set, run as one
[n, C, 4, 2] array, and its batch of one must reproduce them bit for bit:
the same control floats, the same PatchParams and the same containment
error.
"""

import math

import numpy as np
import pytest

from strokegen.augment import (
    AugmentConfig,
    PatchParams,
    Transform,
    generate_patch_set,
    generate_patch_with_params,
    transform_image,
)
from strokegen.geometry import Path, StrokeImage


def ref_bbox(image):
    pts = np.concatenate([p.control_array().reshape(-1, 2) for p in image.paths])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    return (lo[0], lo[1], hi[0], hi[1])


def ref_apply_affine(paths, m, shift):
    out = []
    for p in paths:
        a = p.control_array()
        xs = a[..., 0]
        ys = a[..., 1]
        nx = m[0, 0] * xs + m[0, 1] * ys + shift[0]
        ny = m[1, 0] * xs + m[1, 1] * ys + shift[1]
        out.append(Path(np.stack([nx, ny], axis=-1)))
    return out


def ref_clip_path(path, boundary):
    return Path(np.clip(path.control_array(), 0.0, boundary))


def ref_fit_to_boundary(paths, boundary):
    arrays = [p.control_array() for p in paths]
    allpts = np.concatenate([a.reshape(-1, 2) for a in arrays])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    size = hi - lo
    scale = 1.0
    if size[0] > boundary or size[1] > boundary:
        scale = boundary / max(size[0], size[1])
        center = (lo + hi) / 2.0
        arrays = [(a - center) * scale + center for a in arrays]
        allpts = np.concatenate([a.reshape(-1, 2) for a in arrays])
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    shift = np.where(lo < 0.0, -lo, 0.0) + np.where(hi > boundary,
                                                    boundary - hi, 0.0)
    return [Path(np.clip(a + shift, 0.0, boundary)) for a in arrays], scale


def ref_greedy_order(starts, ends, start):
    visited = np.zeros(len(starts), dtype=bool)
    order = [start]
    visited[start] = True
    for _ in range(len(starts) - 1):
        dist = np.hypot(*(starts - ends[order[-1]]).T)
        dist[visited] = np.inf
        best = int(np.argmin(dist))
        order.append(best)
        visited[best] = True
    return order


def ref_transform(image, t):
    lo_x, lo_y, hi_x, hi_y = ref_bbox(image)
    center = np.array([(lo_x + hi_x) / 2.0, (lo_y + hi_y) / 2.0])
    if t.kind == "translate":
        dx, dy = t.offset
        tol = 1e-9
        if (lo_x + dx < -tol or hi_x + dx > image.boundary + tol
                or lo_y + dy < -tol or hi_y + dy > image.boundary + tol):
            raise ValueError(
                f"offset ({dx}, {dy}) moves content outside the canvas"
            )
        paths = ref_apply_affine(image.paths, np.eye(2), np.array([dx, dy]))
        paths = [ref_clip_path(p, image.boundary) for p in paths]
        return StrokeImage(paths, image.boundary), 1.0
    if t.kind == "rotate":
        c, s = math.cos(t.angle), math.sin(t.angle)
        m = np.array([[c, -s], [s, c]])
    elif t.kind == "mirror":
        m = np.diag([1.0, -1.0]) if t.axis == "horizontal" else np.diag([-1.0, 1.0])
    else:
        m = np.eye(2) * t.factor
    shift = center - m @ center
    paths = ref_apply_affine(image.paths, m, shift)
    fitted, shrink = ref_fit_to_boundary(paths, image.boundary)
    return StrokeImage(fitted, image.boundary), shrink


def ref_generate_patch_with_params(image, cfg, rng):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    mirror_h = bool(rng.random() < 0.5)
    mirror_v = bool(rng.random() < 0.5)
    factor = rng.uniform(cfg.scale_min, 1.0)
    img, fit_shrink = ref_transform(image, Transform.rotate(angle))
    if mirror_h:
        img, _ = ref_transform(img, Transform.mirror("horizontal"))
    if mirror_v:
        img, _ = ref_transform(img, Transform.mirror("vertical"))
    img, _ = ref_transform(img, Transform.scale(factor))
    lo_x, lo_y, hi_x, hi_y = ref_bbox(img)
    dx = rng.uniform(-lo_x, img.boundary - hi_x)
    dy = rng.uniform(-lo_y, img.boundary - hi_y)
    img, _ = ref_transform(img, Transform.translate(dx, dy))
    flags = rng.random(len(img.paths)) < cfg.reversal_probability
    paths = [Path(q.control_array()[::-1, ::-1]) if f else q
             for q, f in zip(img.paths, flags)]
    order = ref_greedy_order(
        np.array([p.control_array()[0, 0] for p in paths]),
        np.array([p.control_array()[-1, 3] for p in paths]),
        int(rng.integers(len(paths))))
    patch = StrokeImage([paths[i] for i in order], image.boundary)
    params = PatchParams(angle, mirror_h, mirror_v, factor, fit_shrink,
                         (dx, dy), tuple(bool(f) for f in flags), tuple(order))
    return patch, params


def control_bytes(image):
    return [p.control_array().tobytes() for p in image.paths]


TRANSFORMS = [
    Transform.rotate(0.7),
    Transform.rotate(2.5),
    Transform.mirror("horizontal"),
    Transform.mirror("vertical"),
    Transform.scale(0.6),
    Transform.translate(0.5, -0.25),
]


@pytest.mark.parametrize("t", TRANSFORMS, ids=repr)
def test_transform_image_matches_per_path_chain(demo_image, t):
    expected, _ = ref_transform(demo_image, t)
    out = transform_image(demo_image, t)
    assert out.boundary == expected.boundary
    assert control_bytes(out) == control_bytes(expected)


def test_containment_error_matches_per_path_chain(demo_image):
    t = Transform.translate(demo_image.boundary, 0.0)
    with pytest.raises(ValueError) as expected:
        ref_transform(demo_image, t)
    with pytest.raises(ValueError) as got:
        transform_image(demo_image, t)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("seed", range(5))
def test_patches_and_params_match_per_path_chain(demo_image, seed):
    """The 20 patches of a set, made as one array, and each child stream's
    patch made alone, against the per-patch chain on the same stream."""
    cfg = AugmentConfig()
    patches = generate_patch_set(demo_image, 20, cfg,
                                 np.random.default_rng(seed))
    streams = zip(np.random.default_rng(seed).spawn(20),
                  np.random.default_rng(seed).spawn(20))
    shrunk = False
    for i, (ref_rng, rng) in enumerate(streams):
        expected, expected_params = ref_generate_patch_with_params(
            demo_image, cfg, ref_rng)
        alone, alone_params = generate_patch_with_params(demo_image, cfg, rng)
        for patch, params in ((patches[i], patches.params(i)),
                              (alone, alone_params)):
            assert params == expected_params
            assert [len(p) for p in patch.paths] == \
                [len(p) for p in expected.paths]
            assert control_bytes(patch) == control_bytes(expected)
        shrunk = shrunk or expected_params.fit_shrink < 1.0
    # the tight canvases must exercise the shrinking branch of the fit
    assert shrunk == (demo_image.boundary < 180.0)
