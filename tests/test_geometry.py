import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokegen.geometry import (
    Path,
    Polyline,
    StrokeImage,
    fit_path,
    fit_paths_to_boundary_with_scale,
    flatten_controls,
    flatten_path,
    image_from_json,
    image_to_json,
    load_recording,
    recording_to_image,
)

from conftest import (
    fit_residuals,
    max_deviation_curve_to_polyline,
    point_to_polyline_distance,
    points_to_polyline_distances,
    reverse_path,
)


def quarter_circle_curve(radius=50.0, cx=60.0, cy=60.0) -> np.ndarray:
    # kappa approximation of a quarter arc
    k = 0.5522847498307936 * radius
    return np.array([
        [cx + radius, cy],
        [cx + radius, cy + k],
        [cx + k, cy + radius],
        [cx, cy + radius],
    ])


class TestFitPath:
    def test_collinear_points_single_exact_curve(self):
        pts = [(x, 0.0) for x in np.linspace(0.0, 100.0, 10)]
        path = fit_path(pts, 1.0)
        assert len(path) == 1
        assert fit_residuals(pts, path).max() <= 1e-9

    def test_points_from_known_cubic(self):
        c = np.array([[10.0, 10.0], [40.0, 120.0], [120.0, 0.0], [150.0, 90.0]])
        t = np.linspace(0.0, 1.0, 60)
        u = 1.0 - t
        basis = np.stack([u**3, 3 * u * u * t, 3 * u * t * t, t**3], axis=-1)
        pts = basis @ c
        path = fit_path(pts, 1.0)
        assert fit_residuals(pts, path).max() <= 1.0

    def test_noisy_semicircle_multi_curve_within_budget(self):
        rng = np.random.default_rng(7)
        theta = np.linspace(0.0, np.pi, 150)
        pts = np.stack(
            [
                90.0 + 50.0 * np.cos(theta) + rng.uniform(-0.3, 0.3, len(theta)),
                90.0 + 50.0 * np.sin(theta) + rng.uniform(-0.3, 0.3, len(theta)),
            ],
            axis=1,
        )
        path = fit_path(pts, 1.0)
        assert len(path) > 1
        assert fit_residuals(pts, path).max() <= 1.0

    def test_duplicate_points_are_deduped(self):
        pts = [(0, 0), (0, 0), (10, 0), (10, 0), (20, 5)]
        path = fit_path(pts, 1.0)
        assert path.control_array()[0, 0].tolist() == [0.0, 0.0]
        assert path.control_array()[-1, 3].tolist() == [20.0, 5.0]

    def test_degenerate_input_raises(self):
        with pytest.raises(ValueError):
            fit_path([(5.0, 5.0), (5.0, 5.0)], 1.0)
        with pytest.raises(ValueError):
            fit_path([(5.0, 5.0)], 1.0)

    def test_non_positive_error_raises(self):
        with pytest.raises(ValueError):
            fit_path([(0, 0), (1, 1)], 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_strokes_within_budget(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(10, 60)
        t = np.linspace(0.0, 1.0, n)
        freq = rng.uniform(0.5, 3.0, 2)
        phase = rng.uniform(0.0, 2 * np.pi, 2)
        pts = np.stack(
            [
                90 + 60 * np.cos(2 * np.pi * freq[0] * t + phase[0]) * t,
                90 + 60 * np.sin(2 * np.pi * freq[1] * t + phase[1]) * t,
            ],
            axis=1,
        )
        path = fit_path(pts, 1.0)
        assert fit_residuals(pts, path).max() <= 1.0


@pytest.mark.parametrize("bound", [float("nan"), 0.0, -1.0])
def test_error_bound_must_be_positive(bound):
    """A NaN bound passes a ``<= 0`` test and would split every piece on
    every level; each entry point names the field it rejects."""
    controls = np.array([quarter_circle_curve()])
    with pytest.raises(ValueError, match="max_error must be positive"):
        flatten_controls(controls, np.zeros(0, dtype=np.int64), bound)
    with pytest.raises(ValueError, match="max_error must be positive"):
        fit_path([(0.0, 0.0), (5.0, 1.0), (10.0, 0.0)], bound)
    with pytest.raises(ValueError, match="fit_error must be positive"):
        recording_to_image({"strokes": []}, bound)


@pytest.mark.parametrize("block_values", [1, 100, 1 << 17])
def test_blocked_distances_equal_the_per_point_oracle(block_values):
    rng = np.random.default_rng(7)
    polyline = rng.uniform(0.0, 180.0, (30, 2))
    polyline[5] = polyline[4]  # a zero-length segment
    points = np.concatenate([rng.uniform(-20.0, 200.0, (50, 2)), polyline])
    got = points_to_polyline_distances(points, polyline, block_values)
    want = [point_to_polyline_distance(p, polyline) for p in points]
    assert got.tobytes() == np.array(want).tobytes()


class TestFlattenPath:
    def test_already_flat_curve(self):
        path = Path([[[0.0, 0.0], [10.0, 0.0], [30.0, 0.0], [40.0, 0.0]]])
        poly = flatten_path(path, 1.0)
        assert np.array_equal(poly.points, [[0.0, 0.0], [40.0, 0.0]])

    def test_quarter_circle_deviation_bound(self):
        path = Path([quarter_circle_curve()])
        poly = flatten_path(path, 1.0)
        assert max_deviation_curve_to_polyline(path, poly.points) <= 1.0

    def test_larger_error_fewer_points(self):
        path = Path([quarter_circle_curve()])
        fine = flatten_path(path, 1.0)
        coarse = flatten_path(path, 3.0)
        assert len(coarse.points) < len(fine.points)

    def test_endpoints_exact(self):
        path = Path([quarter_circle_curve()])
        poly = flatten_path(path, 2.0)
        assert np.array_equal(poly.points[0], path.control_array()[0, 0])
        assert np.array_equal(poly.points[-1], path.control_array()[-1, 3])

    @given(err_small=st.floats(0.05, 1.0), ratio=st.floats(1.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_point_count(self, err_small, ratio):
        path = Path([quarter_circle_curve()])
        fine = flatten_path(path, err_small)
        coarse = flatten_path(path, err_small * ratio)
        assert len(coarse.points) <= len(fine.points)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_curves_within_budget(self, seed):
        rng = np.random.default_rng(100 + seed)
        ctrl = rng.uniform(0.0, 180.0, (4, 2))
        path = Path([ctrl])
        for err in (0.5, 1.0, 3.0):
            poly = flatten_path(path, err)
            assert max_deviation_curve_to_polyline(path, poly.points) <= err


class TestReversePath:
    def test_single_curve_swaps_controls(self):
        r = reverse_path(Path([[[0, 0], [1, 2], [3, 4], [5, 6]]]))
        assert r.control_array().tolist() == [[[5, 6], [3, 4], [1, 2], [0, 0]]]

    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        pts = np.cumsum(rng.uniform(-10, 10, (30, 2)), axis=0) + 90.0
        path = fit_path(pts, 1.0)
        assert reverse_path(reverse_path(path)) == path

    def test_three_curve_endpoint_order(self):
        a, b, c, d = [0, 0], [10, 0], [20, 10], [30, 0]
        mk = lambda p, q: [p, [p[0] + 1, p[1]], [q[0] - 1, q[1]], q]
        path = Path([mk(a, b), mk(b, c), mk(c, d)])
        # oracle: endpoints listed before/after
        curves = path.control_array().tolist()
        before = [curves[0][0]] + [cv[3] for cv in curves]
        rev = reverse_path(path).control_array().tolist()
        after = [rev[0][0]] + [cv[3] for cv in rev]
        assert after == list(reversed(before))

    def test_arc_length_preserved(self):
        rng = np.random.default_rng(11)
        pts = np.cumsum(rng.uniform(-8, 8, (40, 2)), axis=0) + 90.0
        path = fit_path(pts, 1.0)
        rev = reverse_path(path)
        assert rev.arc_length() == pytest.approx(path.arc_length(), rel=1e-9)


class TestTypes:
    def test_path_rejects_non_finite(self):
        with pytest.raises(ValueError, match="curve 0 has a non-finite"):
            Path([[[float("nan"), 0.0], [1, 0], [2, 0], [3, 0]]])

    def test_path_rejects_gap(self):
        c1 = [[0, 0], [1, 0], [2, 0], [3, 0]]
        c2 = [[9, 9], [10, 9], [11, 9], [12, 9]]
        with pytest.raises(ValueError):
            Path([c1, c2])

    def test_path_rejects_empty(self):
        with pytest.raises(ValueError):
            Path([])

    def test_path_from_lists_equals_path_from_array(self):
        a, b = quarter_circle_curve(), quarter_circle_curve(cx=10.0, cy=110.0)
        b[0] = a[3]
        from_lists = Path([a.tolist(), b.tolist()])
        from_array = Path(np.stack([a, b]))
        assert from_lists == from_array
        assert len(from_lists) == 2
        assert np.array_equal(from_lists.control_array(), [a, b])

    def test_path_control_array_is_read_only(self):
        source = quarter_circle_curve()[None]
        path = Path(source)
        with pytest.raises(ValueError):
            path.control_array()[0, 0, 0] = 1.0
        source[0, 1, 0] = -5.0  # the path holds its own copy
        assert path.control_array()[0, 1, 0] != -5.0

    @pytest.mark.parametrize("controls", [
        np.zeros((2, 3, 2)),
        np.zeros((1, 4, 3)),
        np.zeros((4, 2)),
        np.full((1, 4, 2), np.inf),
    ])
    def test_path_rejects_bad_arrays(self, controls):
        with pytest.raises(ValueError):
            Path(controls)

    def test_polyline_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("points, message", [
        (np.zeros((3, 3)), "polyline points must be [N, 2], got (3, 3)"),
        ([[0.0, 0.0], [np.nan, 1.0]],
         "polyline contains non-finite coordinates"),
    ], ids=["three-columns", "nan"])
    def test_polyline_rejects_bad_points(self, points, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Polyline(points)

    def test_image_rejects_out_of_bounds(self):
        c = [[0, 0], [50, 0], [150, 0], [200, 0]]
        with pytest.raises(ValueError):
            StrokeImage([Path([c])], boundary=180.0)

    @pytest.mark.parametrize("boundary", [0.0, -5.0, float("nan"),
                                          float("inf")])
    def test_image_rejects_bad_boundary(self, boundary):
        with pytest.raises(ValueError, match="boundary must be a finite number"):
            StrokeImage([], boundary=boundary)

    def test_image_accepts_empty_path_list(self):
        img = StrokeImage([], boundary=180.0)
        assert img.arc_length() == 0.0


def segment(x0, y0, x1, y1) -> list:
    """One straight curve as a [4, 2] control list."""
    return [[x0 + (x1 - x0) * i / 3, y0 + (y1 - y0) * i / 3] for i in range(4)]


class TestStrokeImageArrays:
    # path 0 is one curve; path 1 is two joined curves, far from path 0
    CONTROLS = [segment(10, 10, 20, 10), segment(50, 50, 60, 50),
                segment(60, 50, 60, 70)]

    def test_gap_across_a_split_is_accepted(self):
        image = StrokeImage.from_controls(self.CONTROLS, [1], 180.0)
        assert len(image) == 2
        assert [len(p) for p in image.paths] == [1, 2]
        assert image == StrokeImage(image.paths, 180.0)
        assert np.array_equal(image.control_array(),
                              np.reshape(self.CONTROLS, (-1, 2)))
        assert image.arc_length() == pytest.approx(10.0 + 10.0 + 20.0)

    def test_broken_joint_inside_path_1_names_path_and_curve(self):
        controls = np.array(self.CONTROLS)
        controls[2, 0] += 0.5
        with pytest.raises(ValueError, match="path 1: curve 0 does not end "
                                             "where the next curve starts"):
            StrokeImage.from_controls(controls, [1], 180.0)

    def test_out_of_canvas_control_is_rejected(self):
        controls = np.array(self.CONTROLS)
        controls[2, 2, 1] = 180.5
        with pytest.raises(ValueError, match=r"path 1: curve 1 exceeds the "
                                             r"\[0, 180.0\] canvas"):
            StrokeImage.from_controls(controls, [1], 180.0)

    def test_nan_control_is_rejected(self):
        controls = np.array(self.CONTROLS)
        controls[1, 1, 0] = np.nan
        with pytest.raises(ValueError,
                           match="path 1: curve 0 has a non-finite coordinate"):
            StrokeImage.from_controls(controls, [1], 180.0)

    @pytest.mark.parametrize("splits", [[0], [3], [2, 1], [1, 1], [[1]]])
    def test_splits_must_leave_every_path_a_curve(self, splits):
        with pytest.raises(ValueError, match="splits"):
            StrokeImage.from_controls(self.CONTROLS, splits, 180.0)

    def test_controls_are_a_read_only_copy(self):
        source = np.array(self.CONTROLS)
        image = StrokeImage.from_controls(source, [1], 180.0)
        source[0, 0, 0] = 0.0
        assert image.controls[0, 0, 0] == 10.0
        with pytest.raises(ValueError):
            image.controls[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            image.splits[0] = 2

    def test_empty_image_has_no_paths(self):
        image = StrokeImage.from_controls(np.zeros((0, 4, 2)), [], 180.0)
        assert len(image) == 0 and image.paths == []
        assert image == StrokeImage([], 180.0)


class TestBoundaryFitting:
    def test_oversized_content_is_shrunk(self):
        c = [[0, 0], [100, 0], [200, 0], [300, 0]]
        fitted, _ = fit_paths_to_boundary_with_scale(np.array([c], float), 180.0)
        pts = fitted.reshape(-1, 2)
        assert pts.min() >= 0.0 and pts.max() <= 180.0

    def test_offset_content_is_translated(self):
        c = [[-20, 10], [0, 10], [20, 10], [40, 10]]
        fitted, _ = fit_paths_to_boundary_with_scale(np.array([c], float), 180.0)
        pts = fitted.reshape(-1, 2)
        assert pts.min() >= 0.0 and pts.max() <= 180.0
        # widths preserved when only translating
        assert pts[:, 0].max() - pts[:, 0].min() == pytest.approx(60.0)


class TestJsonFormats:
    def test_recording_round_trip(self, tmp_path):
        rec = {"boundary": 180, "strokes": [[[0, 0], [50, 10], [90, 0]]]}
        f = tmp_path / "rec.json"
        f.write_text(json.dumps(rec))
        strokes, boundary = load_recording(f)
        assert boundary == 180.0
        assert np.array_equal(strokes[0], [[0, 0], [50, 10], [90, 0]])

    def test_recording_to_image_contained(self):
        theta = np.linspace(0.0, np.pi, 80)
        rec = {
            "boundary": 180,
            "strokes": [
                np.stack(
                    [90 + 85 * np.cos(theta), 90 + 85 * np.sin(theta)], axis=1
                ).tolist()
            ],
        }
        img = recording_to_image(rec, fit_error=1.0)
        pts = img.control_array()
        assert pts.min() >= 0.0 and pts.max() <= 180.0

    def test_image_json_round_trip(self):
        rng = np.random.default_rng(5)
        pts = np.cumsum(rng.uniform(-6, 6, (25, 2)), axis=0) + 90.0
        img = StrokeImage([fit_path(pts, 1.0)], 180.0)
        restored = image_from_json(image_to_json(img))
        assert restored == img

    def test_malformed_recording_raises(self):
        with pytest.raises(ValueError):
            load_recording({"nope": []})

    def test_empty_recording_gives_an_image_with_no_paths(self):
        img = recording_to_image({"strokes": []})
        assert len(img) == 0 and img.boundary == 180.0

    @pytest.mark.parametrize("data, message", [
        ([[[[0, 0], [1, 0], [2, 0], [3, 0]]]],
         "path image must be an object with a 'paths' list"),
        ({"paths": [[]]}, "path 0: path must contain at least one curve"),
    ], ids=["list-document", "empty-path"])
    def test_malformed_path_image_raises(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            image_from_json(data)
