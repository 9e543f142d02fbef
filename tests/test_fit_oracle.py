"""``geometry.fit_path`` and ``geometry.fit_paths`` against the reference
fitter of ``fit_oracle.py``.

Every case asserts the same control bytes, or the same ValueError message.
The hand-built strokes each reach one branch of the fitter, and each test
first shows, through the reference's own helpers or its output, that the
branch is taken. The batch cases fit many strokes in one ``fit_paths`` call
and compare each stroke's curves with the reference's fit of it alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fit_oracle
from fit_oracle import oracle_fit_path
from strokegen import geometry
from strokegen.demo import DEMO_KINDS, make_demo_recording
from strokegen.geometry import (
    DEFAULT_FIT_ERROR,
    fit_path,
    fit_paths,
    load_recording,
    recording_to_image,
)

from test_acceptance import _random_stroke


def assert_same_fit(points, max_error: float = DEFAULT_FIT_ERROR):
    try:
        want = oracle_fit_path(points, max_error)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            fit_path(points, max_error)
        assert str(info.value) == str(exc)
        return None
    got = fit_path(points, max_error).control_array()
    assert got.tobytes() == want.tobytes()
    return got


def reparameterizations(points, max_error: float) -> int | None:
    """The Newton-Raphson rounds after which the reference fits the whole
    stroke with one curve, or None if it splits it."""
    pts = fit_oracle._dedupe_consecutive(np.array(points, dtype=float))
    t_left = fit_oracle._unit(pts[1] - pts[0])
    t_right = fit_oracle._unit(pts[-2] - pts[-1])
    u = fit_oracle._chord_length_params(pts)
    for rounds in range(fit_oracle._REPARAM_ROUNDS + 1):
        if rounds:
            u = fit_oracle._reparameterize(bez, pts, u)
        bez = fit_oracle._generate_bezier(pts, u, t_left, t_right)
        if fit_oracle._max_error_sq(pts, bez, u)[0] <= max_error ** 2:
            return rounds
    return None


@pytest.mark.parametrize("kind", DEMO_KINDS)
@pytest.mark.parametrize("max_error", [0.3, DEFAULT_FIT_ERROR, 3.0])
def test_demo_recordings(kind, max_error):
    strokes, _ = load_recording(make_demo_recording(kind))
    for stroke in strokes:
        assert_same_fit(stroke, max_error)


def test_criterion_5_stroke_stream():
    rng = np.random.default_rng(50)
    for _ in range(1000):
        assert_same_fit(_random_stroke(rng), 1.0)


coordinate = st.one_of(st.integers(0, 180).map(float),
                       st.floats(0.0, 180.0, allow_nan=False))


@given(points=st.lists(st.tuples(coordinate, coordinate), min_size=1,
                       max_size=40),
       max_error=st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_derandomized_strokes(points, max_error):
    assert_same_fit(points, max_error)


def test_two_points_one_straight_curve():
    c = assert_same_fit([[10.0, 20.0], [40.0, 60.0]])
    assert c.shape == (1, 4, 2)
    assert np.allclose(c[0, 1], [20.0, 100.0 / 3.0])


def test_consecutive_duplicates_are_dropped():
    points = [[0, 0], [0, 0], [10, 5], [10, 5], [10, 5], [20, 0], [20, 0]]
    assert np.array_equal(assert_same_fit(points),
                          assert_same_fit([[0, 0], [10, 5], [20, 0]]))


@pytest.mark.parametrize("points", [
    [[0, 0], [5, 0], [10, 0]],  # det_c == 0: the tangents are parallel
    [[0, 0], [1, 0], [10, 0]],  # det_c != 0, both alphas -0.0 < eps
], ids=["zero-determinant", "alpha-below-eps"])
def test_degenerate_solve_takes_the_wu_barsky_handles(points):
    c = assert_same_fit(points)
    seg = math.dist(points[0], points[-1])
    # one curve whose handles are a third of the chord each
    assert c.shape == (1, 4, 2)
    assert math.isclose(math.dist(c[0, 0], c[0, 1]), seg / 3.0)
    assert math.isclose(math.dist(c[0, 3], c[0, 2]), seg / 3.0)


def test_split_at_a_spike_tip_takes_the_one_sided_tangent():
    # the stroke turns back at (30, 0): the points either side of the tip
    # coincide, so the centre tangent between them is zero
    points = [[0, 0], [10, 0], [20, 0], [30, 0], [20, 0], [10, 0], [10, 10]]
    c = assert_same_fit(points)
    assert len(c) > 1
    assert [30.0, 0.0] in c[:-1, 3].tolist()


def test_split_recursion():
    points = [[0, 0], [10, 10], [20, 0], [30, 10], [40, 0], [50, 10]]
    assert reparameterizations(points, 1.0) is None
    assert len(assert_same_fit(points)) > 2


@pytest.mark.parametrize("points, rounds", [
    ([[0.0, 0.0], [20.3, 27.6], [48.2, 38.9], [80.0, 5.6]], 4),
    ([[0.0, 0.0], [15.4, 21.8], [43.5, 39.9], [80.0, 5.6]], 3),
])
def test_a_later_reparameterization_round_fits(points, rounds):
    assert reparameterizations(points, 1.0) == rounds
    assert len(assert_same_fit(points)) == 1


@pytest.mark.parametrize("points, max_error", [
    ([[1, 1]], 1.0), ([[1, 1], [1, 1]], 1.0), ([], 1.0),
    ([[0, 0], [math.nan, 1]], 1.0), ([0, 1, 2], 1.0),
    ([[0, 0], [5, 5]], 0.0), ([[0, 0], [5, 5]], math.nan),
])
def test_refusals_keep_their_messages(points, max_error):
    assert assert_same_fit(points, max_error) is None


def assert_same_batch(strokes, max_error: float):
    got = fit_paths(strokes, max_error)
    assert len(got) == len(strokes)
    for stroke, controls in zip(strokes, got):
        want = oracle_fit_path(stroke, max_error)
        assert controls.shape == want.shape
        assert controls.tobytes() == want.tobytes()


@pytest.mark.parametrize("max_error", [0.3, DEFAULT_FIT_ERROR, 3.0])
def test_every_demo_recording_in_one_batch(max_error):
    strokes = [stroke for kind in DEMO_KINDS
               for stroke in load_recording(make_demo_recording(kind))[0]]
    assert_same_batch(strokes, max_error)


def test_criterion_5_stroke_stream_in_one_batch():
    rng = np.random.default_rng(50)
    assert_same_batch([_random_stroke(rng) for _ in range(1000)], 1.0)


def test_a_bad_stroke_is_named_before_any_fitting(monkeypatch):
    strokes, _ = load_recording(make_demo_recording("curls"))
    strokes[2] = np.array([[7.0, 7.0], [7.0, 7.0], [7.0, 7.0]])
    with pytest.raises(ValueError) as want:
        oracle_fit_path(strokes[2], DEFAULT_FIT_ERROR)
    rounds = []
    bernstein = geometry._bernstein
    monkeypatch.setattr(geometry, "_bernstein",
                        lambda u: rounds.append(len(u)) or bernstein(u))
    recording = {"boundary": 180.0, "strokes": [s.tolist() for s in strokes]}
    for fit in (lambda: fit_paths(strokes, DEFAULT_FIT_ERROR),
                lambda: recording_to_image(recording)):
        with pytest.raises(ValueError) as got:
            fit()
        assert str(got.value) == f"stroke 2: {want.value}"
    assert rounds == []  # no stroke was fitted, not even strokes 0 and 1
    monkeypatch.undo()
    assert_same_batch(strokes[:2] + strokes[3:], DEFAULT_FIT_ERROR)


def test_two_points_whose_handles_overflow_are_refused():
    # 2e308 apart: the chord overflows, so the handles are not finite and
    # the two points do not fit, and no split makes the segment smaller.
    # The reference skips the fit of two points and returns NaN handles.
    points = [[-1e308, 0.0], [1e308, 0.0]]
    with np.errstate(all="ignore"):
        assert np.isnan(oracle_fit_path(points, DEFAULT_FIT_ERROR)).any()
        with pytest.raises(ValueError) as info:
            fit_paths([[[0.0, 0.0], [5.0, 5.0]], points], DEFAULT_FIT_ERROR)
    assert str(info.value) == ("stroke 1: no finite curve joins "
                               "[-1e+308, 0.0] and [1e+308, 0.0]")
