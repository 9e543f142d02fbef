import math

import numpy as np
import pytest

from strokegen.augment import (
    AugmentConfig,
    PatchSet,
    Transform,
    generate_patch_set,
    generate_patch_with_params,
    greedy_order,
    order_paths_greedy,
    path_endpoints,
    reverse_paths_random,
    transform_image,
)
from strokegen.demo import make_demo_image
from strokegen.geometry import Path, StrokeImage
from strokegen.tokenizer import build_vocabulary, image_to_move_sequence
from strokegen.training import build_stream_batches, tokenize_patches

from conftest import pen_travel, segment_path


def start(path: Path) -> np.ndarray:
    return path.control_array()[0, 0]


def end(path: Path) -> np.ndarray:
    return path.control_array()[-1, 3]


def endpoints(paths: list[Path]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([start(p) for p in paths]),
            np.array([end(p) for p in paths]))


def order_of(paths: list[Path], first: int) -> list[int]:
    """greedy_order over one set of paths: the batch of one."""
    starts, ends = endpoints(paths)
    return greedy_order(starts[None], ends[None], [first])[0].tolist()


@pytest.fixture
def small_image() -> StrokeImage:
    # content inside [60, 120]^2 so any rotation fits without shrinking
    return StrokeImage(
        [
            segment_path(60, 60, 120, 60),
            segment_path(120, 60, 120, 120),
            segment_path(60, 90, 100, 120),
            segment_path(80, 60, 60, 100),
        ],
        boundary=180.0,
    )


def images_close(a: StrokeImage, b: StrokeImage, tol=1e-12) -> bool:
    if len(a.paths) != len(b.paths):
        return False
    for pa, pb in zip(a.paths, b.paths):
        if len(pa) != len(pb):
            return False
        if np.max(np.abs(pa.control_array() - pb.control_array())) > tol:
            return False
    return True


class TestTransformImage:
    def test_scale_identity(self, small_image):
        out = transform_image(small_image, Transform.scale(1.0))
        assert images_close(out, small_image)

    def test_mirror_involution(self, small_image):
        for axis in ("horizontal", "vertical"):
            once = transform_image(small_image, Transform.mirror(axis))
            twice = transform_image(once, Transform.mirror(axis))
            assert images_close(twice, small_image)

    def test_rotate_quarter_turn_maps_point(self):
        # bbox center (90, 90); oracle: direct affine evaluation
        img = StrokeImage(
            [segment_path(80, 80, 100, 90), segment_path(80, 90, 100, 100)],
            boundary=180.0,
        )
        out = transform_image(img, Transform.rotate(math.pi / 2.0))
        moved = end(out.paths[0])
        assert moved[0] == pytest.approx(90.0, abs=1e-9)
        assert moved[1] == pytest.approx(100.0, abs=1e-9)

    def test_translate_moves_exactly(self, small_image):
        out = transform_image(small_image, Transform.translate(5.0, -7.0))
        delta = out.paths[0].control_array() - small_image.paths[0].control_array()
        assert np.allclose(delta[..., 0], 5.0)
        assert np.allclose(delta[..., 1], -7.0)

    def test_translate_containment_error(self, small_image):
        with pytest.raises(ValueError,
                           match="moves content outside the canvas"):
            transform_image(small_image, Transform.translate(100.0, 0.0))

    def test_rotation_preserves_arc_length(self, small_image):
        before = small_image.arc_length()
        out = transform_image(small_image, Transform.rotate(1.2345))
        assert out.arc_length() == pytest.approx(before, rel=1e-9)

    def test_oversized_rotation_shrinks_to_fit(self):
        img = StrokeImage([segment_path(0, 90, 180, 90)], boundary=180.0)
        out = transform_image(img, Transform.rotate(math.pi / 4.0))
        pts = out.control_array()
        assert pts.min() >= 0.0 and pts.max() <= 180.0

    def test_invalid_transforms_rejected(self):
        with pytest.raises(ValueError):
            Transform.scale(0.0)
        with pytest.raises(ValueError):
            Transform.scale(1.5)
        with pytest.raises(ValueError):
            Transform.mirror("diagonal")
        with pytest.raises(ValueError):
            Transform("warp")
        with pytest.raises(ValueError, match="translate needs an offset"):
            Transform("translate")
        with pytest.raises(ValueError, match="rotate needs a finite angle"):
            Transform.rotate(float("nan"))


class TestReversePathsRandom:
    def test_p_zero_identity(self, small_image):
        rng = np.random.default_rng(0)
        assert images_close(reverse_paths_random(small_image, 0.0, rng),
                            small_image)

    def test_p_one_reverses_all_and_is_involution(self, small_image):
        rng = np.random.default_rng(0)
        once = reverse_paths_random(small_image, 1.0, rng)
        for orig, rev in zip(small_image.paths, once.paths):
            assert np.array_equal(start(rev), end(orig))
            assert np.array_equal(end(rev), start(orig))
        twice = reverse_paths_random(once, 1.0, rng)
        assert images_close(twice, small_image)

    def test_reversed_fraction_binomial(self):
        paths = [segment_path(10 + 0.01 * i, 10, 20 + 0.01 * i, 20)
                 for i in range(10_000)]
        img = StrokeImage(paths, boundary=180.0)
        out = reverse_paths_random(img, 0.5, np.random.default_rng(123))
        reversed_count = sum(
            1 for a, b in zip(img.paths, out.paths)
            if not np.array_equal(start(a), start(b))
        )
        assert 0.47 <= reversed_count / 10_000 <= 0.53

    def test_invalid_probability(self, small_image):
        with pytest.raises(ValueError):
            reverse_paths_random(small_image, 1.5, np.random.default_rng(0))


def scalar_greedy_order(paths, first):
    """Reference: one point at a time, ties to the lower index."""
    order = [first]
    remaining = set(range(len(paths))) - {first}
    while remaining:
        x, y = end(paths[order[-1]])
        best = min(remaining, key=lambda i: (
            np.hypot(start(paths[i])[0] - x, start(paths[i])[1] - y), i))
        order.append(best)
        remaining.remove(best)
    return order


class TestGreedyOrdering:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_reference(self, seed):
        # endpoints on a coarse grid make equal distances, i.e. ties, common
        coords = np.random.default_rng(seed).integers(0, 4, (10, 4))
        paths = [segment_path(*c) for c in coords]
        for first in range(len(paths)):
            assert order_of(paths, first) == \
                scalar_greedy_order(paths, first)
        expected = sum(math.hypot(*(start(b) - end(a)))
                       for a, b in zip(paths, paths[1:]))
        assert pen_travel(*endpoints(paths)) == pytest.approx(expected,
                                                              rel=1e-12)
        assert pen_travel(*endpoints(paths[:1])) == 0.0

    def test_sets_ordered_together_match_one_by_one(self):
        rng = np.random.default_rng(5)
        sets = [[segment_path(*c) for c in rng.integers(0, 4, (7, 4))]
                for _ in range(6)]
        first = rng.integers(7, size=6)
        starts, ends = (np.array(a) for a in zip(*map(endpoints, sets)))
        together = greedy_order(starts, ends, first)
        assert together.tolist() == [order_of(p, f) for p, f in zip(sets, first)]

    def test_single_path_unchanged(self):
        img = StrokeImage([segment_path(10, 10, 40, 40)], boundary=180.0)
        out = order_paths_greedy(img, np.random.default_rng(0))
        assert images_close(out, img)

    def test_left_to_right_segments_keep_order(self):
        paths = [
            segment_path(0, 10, 20, 10),
            segment_path(40, 10, 60, 10),
            segment_path(80, 10, 100, 10),
        ]
        assert order_of(paths, 0) == [0, 1, 2]
        # via the public op, with a seed whose first draw picks index 0
        seed = next(
            s for s in range(100)
            if np.random.default_rng(s).integers(3) == 0
        )
        img = StrokeImage(paths, boundary=180.0)
        out = order_paths_greedy(img, np.random.default_rng(seed))
        assert [start(p)[0] for p in out.paths] == [0.0, 40.0, 80.0]

    def test_tie_breaks_to_lower_index(self):
        # paths 1 and 2 start equally far from path 0's end point
        paths = [
            segment_path(0, 20, 10, 20),
            segment_path(10, 40, 20, 40),
            segment_path(10, 0, 20, 0),
        ]
        assert order_of(paths, 0) == [0, 1, 2]

    def test_greedy_beats_interleaved_identity_order(self):
        xs = [0, 100, 10, 110, 20, 120]
        paths = [segment_path(x, 50, x + 5, 50) for x in xs]
        greedy = [paths[i] for i in order_of(paths, 0)]
        assert pen_travel(*endpoints(greedy)) <= pen_travel(*endpoints(paths))

    def test_path_endpoints_read_the_stacked_array(self, small_image):
        got = path_endpoints(small_image.controls, small_image.splits)
        expected = endpoints(small_image.paths)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_batched_path_endpoints_match_each_patch(self):
        # every boxes path fits to 6 curves, so all patches share one split
        patches = generate_patch_set(make_demo_image("boxes"), 12,
                                     AugmentConfig(), np.random.default_rng(4))
        assert (patches.splits == patches.splits[0]).all()
        starts, ends = path_endpoints(patches.controls, patches.splits[0])
        grid = path_endpoints(patches.controls.reshape(3, 4, -1, 4, 2),
                              patches.splits[0])
        for i, patch in enumerate(patches):
            one = path_endpoints(patch.controls, patch.splits)
            assert np.array_equal(starts[i], one[0])
            assert np.array_equal(ends[i], one[1])
            assert np.array_equal(grid[0][i // 4, i % 4], one[0])
            assert np.array_equal(grid[1][i // 4, i % 4], one[1])

    def test_output_is_permutation(self, small_image):
        out = order_paths_greedy(small_image, np.random.default_rng(7))
        orig = sorted(p.control_array().tobytes() for p in small_image.paths)
        new = sorted(p.control_array().tobytes() for p in out.paths)
        assert orig == new


class TestGeneratePatch:
    def test_same_seed_same_patch(self, small_image):
        cfg = AugmentConfig()
        a, _ = generate_patch_with_params(small_image, cfg,
                                          np.random.default_rng(42))
        b, _ = generate_patch_with_params(small_image, cfg,
                                          np.random.default_rng(42))
        assert images_close(a, b, tol=0.0)

    def test_path_count_preserved(self, small_image):
        cfg = AugmentConfig()
        for seed in range(20):
            patch, _ = generate_patch_with_params(
                small_image, cfg, np.random.default_rng(seed))
            assert len(patch.paths) == len(small_image.paths)

    def test_arc_length_scales_by_factor(self, small_image):
        cfg = AugmentConfig()
        base = small_image.arc_length()
        for seed in range(20):
            patch, params = generate_patch_with_params(
                small_image, cfg, np.random.default_rng(seed)
            )
            assert params.fit_shrink == 1.0  # content is rotation-safe
            expected = base * params.scale
            assert patch.arc_length() == pytest.approx(expected, rel=1e-6)

    def test_patches_stay_on_canvas(self, small_image):
        cfg = AugmentConfig()
        for seed in range(50):
            patch, _ = generate_patch_with_params(
                small_image, cfg, np.random.default_rng(seed))
            pts = patch.control_array()
            assert pts.min() >= 0.0 and pts.max() <= patch.boundary


class TestGeneratePatchSet:
    def test_requested_count(self, small_image):
        cfg = AugmentConfig()
        out = generate_patch_set(small_image, 25, cfg, np.random.default_rng(0))
        assert len(out) == 25

    def test_singleton(self, small_image):
        cfg = AugmentConfig()
        out = generate_patch_set(small_image, 1, cfg, np.random.default_rng(0))
        assert len(out) == 1

    def test_different_seeds_differ(self, small_image):
        cfg = AugmentConfig()
        a = generate_patch_set(small_image, 5, cfg, np.random.default_rng(1))
        b = generate_patch_set(small_image, 5, cfg, np.random.default_rng(2))
        assert any(not images_close(x, y) for x, y in zip(a, b))

    def test_fixed_seed_reproducible(self, small_image):
        cfg = AugmentConfig()
        a = generate_patch_set(small_image, 8, cfg, np.random.default_rng(9))
        b = generate_patch_set(small_image, 8, cfg, np.random.default_rng(9))
        assert all(images_close(x, y, tol=0.0) for x, y in zip(a, b))

    def test_zero_count_rejected(self, small_image):
        with pytest.raises(ValueError):
            generate_patch_set(small_image, 0, AugmentConfig(),
                               np.random.default_rng(0))


def test_training_data_path_builds_no_path_or_image(monkeypatch):
    """The training path carries one array per patch set: 100 patches of the
    9-path boxes image, their tokens and their batches are made without
    constructing a Path or a StrokeImage."""
    image = make_demo_image("boxes")
    vocab = build_vocabulary([image_to_move_sequence(image)], 15)
    built = []
    init, set_image = Path.__init__, StrokeImage._set

    def counting_init(self, controls):
        built.append("Path")
        init(self, controls)

    def counting_set(self, *args):
        built.append("StrokeImage")
        set_image(self, *args)

    monkeypatch.setattr(Path, "__init__", counting_init)
    monkeypatch.setattr(StrokeImage, "_set", counting_set)
    patches = generate_patch_set(image, 100, AugmentConfig(),
                                 np.random.default_rng(0))
    sequences = tokenize_patches(patches, vocab, 1.0, 15)
    build_stream_batches(sequences, 64, 10, np.random.default_rng(1))
    assert len(patches) == 100 and built == []
    # items are built on demand
    assert len(patches[0].paths) == 9
    assert built == ["StrokeImage"] + ["Path"] * 9


class TestPatchSetCheck:
    """The set is checked once, as one array; an error names the patch, the
    path and the curve."""

    @pytest.fixture
    def patches(self):
        return generate_patch_set(make_demo_image("boxes"), 4, AugmentConfig(),
                                  np.random.default_rng(3))

    def rebuilt(self, patches, edit):
        controls = patches.controls.copy()
        edit(controls)
        return PatchSet(controls, patches.splits, patches.boundary)

    def where(self, patches, i, curve):
        path = int(np.searchsorted(patches.splits[i], curve, side="right"))
        first = patches.splits[i][path - 1] if path else 0
        return f"patch {i}, path {path}: curve {curve - first} "

    def test_rebuilt_set_passes(self, patches):
        again = self.rebuilt(patches, lambda c: None)
        assert np.array_equal(again.controls, patches.controls)
        assert not again.controls.flags.writeable

    def test_non_finite_value_named(self, patches):
        def edit(c):
            c[2, 7, 1, 0] = np.nan
        with pytest.raises(ValueError, match=self.where(patches, 2, 7)
                           + "has a non-finite coordinate"):
            self.rebuilt(patches, edit)

    def test_broken_joint_named(self, patches):
        # curve 1 of a path that has at least two curves stops short
        splits = patches.splits[3]
        curve = int(np.flatnonzero(np.diff(splits, prepend=0) >= 2)[0])
        curve = (splits[curve - 1] if curve else 0) + 1

        def edit(c):
            c[3, curve, 3] += 0.5
        with pytest.raises(ValueError, match=self.where(patches, 3, curve)
                           + "does not end where the next curve starts"):
            self.rebuilt(patches, edit)

    def test_off_canvas_point_named(self, patches):
        def edit(c):
            c[1, 12, 2, 1] = patches.boundary + 1.0
        with pytest.raises(ValueError, match=self.where(patches, 1, 12)
                           + "exceeds the"):
            self.rebuilt(patches, edit)

    def test_bad_splits_rejected(self, patches):
        splits = patches.splits.copy()
        splits[0, 0] = 0
        with pytest.raises(ValueError, match="rise strictly"):
            PatchSet(patches.controls, splits, patches.boundary)

    def test_items_and_iteration(self, patches):
        assert len(list(patches)) == 4
        assert patches[-1] == patches[3]
        with pytest.raises(IndexError):
            patches[4]
