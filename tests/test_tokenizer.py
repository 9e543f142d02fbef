import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokegen.geometry import Path, Polyline, StrokeImage
from strokegen.tokenizer import (
    IMAGE_END,
    build_vocabulary,
    decode,
    encode,
    image_to_move_sequence,
    moves_to_image,
    polyline_to_moves,
)


def line_path(x0, y0, x1, y1) -> Path:
    t = np.array([x1 - x0, y1 - y0]) / 3.0
    return Path([[
        [x0, y0],
        [x0 + t[0], y0 + t[1]],
        [x0 + 2 * t[0], y0 + 2 * t[1]],
        [x1, y1],
    ]])


class TestPolylineToMoves:
    def test_long_segment_split_evenly(self):
        # oracle: split 40 at 40/3 intervals, round cumulative x to 13, 27, 40
        poly = Polyline(np.array([[0.0, 0.0], [40.0, 0.0]]))
        moves = polyline_to_moves(poly, True, 15)
        assert np.array_equal(moves, [(1, 13, 0), (1, 14, 0), (1, 13, 0)])

    def test_short_segment_single_move(self):
        poly = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert np.array_equal(polyline_to_moves(poly, True, 15), [(1, 10, 0)])

    def test_moves_telescope_to_rounded_total(self):
        rng = np.random.default_rng(0)
        pts = np.cumsum(rng.uniform(-30, 30, (20, 2)), axis=0)
        poly = Polyline(pts)
        moves = polyline_to_moves(poly, True, 15)
        total = np.sum([[dx, dy] for _, dx, dy in moves], axis=0)
        expected = np.floor(pts[-1] + 0.5) - np.floor(pts[0] + 0.5)
        assert np.array_equal(total, expected)

    def test_zero_moves_dropped(self):
        poly = Polyline(np.array([[0.0, 0.0], [0.2, 0.2], [0.4, 0.0]]))
        assert len(polyline_to_moves(poly, True, 15)) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_chebyshev_bound_holds(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(-60, 60, (30, 2)), axis=0)
        moves = polyline_to_moves(Polyline(pts), True, 15)
        assert all(max(abs(dx), abs(dy)) <= 15 for _, dx, dy in moves)

    def test_quantization_never_accumulates(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pts = np.cumsum(rng.uniform(-20, 20, (15, 2)), axis=0)
            poly = Polyline(pts)
            moves = polyline_to_moves(poly, True, 15)
            pos = np.floor(pts[0] + 0.5)
            for _, dx, dy in moves:
                pos = pos + [dx, dy]
            # final decoded position is the rounded true position: <=0.5/axis
            assert np.all(np.abs(pos - pts[-1]) <= 0.5)


class TestImageToMoveSequence:
    def test_empty_image(self):
        assert np.array_equal(image_to_move_sequence(StrokeImage([], 180.0)),
                              [IMAGE_END])

    def test_single_short_path(self):
        img = StrokeImage([line_path(5, 5, 15, 5)], 180.0)
        moves = image_to_move_sequence(img)
        assert np.array_equal(moves, [(0, 5, 5), (1, 10, 0), IMAGE_END])

    def test_round_trip_within_quantization_bound(self):
        rng = np.random.default_rng(1)
        paths = []
        cursor = np.array([20.0, 20.0])
        for _ in range(4):
            end = cursor + rng.uniform(10, 40, 2)
            paths.append(line_path(cursor[0], cursor[1], end[0], end[1]))
            cursor = end + rng.uniform(5, 15, 2)
        img = StrokeImage(paths, 180.0)
        moves = image_to_move_sequence(img, flatten_error=1.0)
        polylines = moves_to_image(moves)
        assert len(polylines) == len(paths)
        bound = 0.5 * np.sqrt(2.0) + 1e-12
        for path, poly in zip(paths, polylines):
            src = path.control_array()[[0, -1], [0, 3]]
            got = np.array([poly.points[0], poly.points[-1]])
            assert np.all(np.hypot(*(got - src).T) <= bound)

    def test_exactly_one_image_end_at_tail(self):
        img = StrokeImage([line_path(10, 10, 60, 40)], 180.0)
        moves = image_to_move_sequence(img)
        assert tuple(moves[-1]) == IMAGE_END
        assert sum(1 for m in moves if tuple(m) == IMAGE_END) == 1


class TestMovesToImage:
    def test_trace_example(self):
        moves = [(0, 5, 5), (1, 10, 0), IMAGE_END]
        polylines = moves_to_image(moves)
        assert len(polylines) == 1
        assert np.array_equal(polylines[0].points, [[5, 5], [15, 5]])

    def test_all_pen_up_gives_no_polylines(self):
        moves = [(0, 3, 3), (0, -2, 5), IMAGE_END]
        assert moves_to_image(moves) == []

    def test_unknown_pen_state_raises(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown move [5, 1, 1] in move sequence")):
            moves_to_image([[5, 1, 1]])

    def test_tolerates_missing_image_end(self):
        moves = [(0, 1, 1), (1, 4, 0)]
        polylines = moves_to_image(moves)
        assert len(polylines) == 1

    def test_stops_at_image_end(self):
        moves = [(1, 4, 0), IMAGE_END, (1, 9, 9)]
        polylines = moves_to_image(moves)
        assert np.array_equal(polylines[0].points, [[0, 0], [4, 0]])


class TestVocabulary:
    def test_closed_size_formula_max_len_15(self):
        vocab = build_vocabulary([[IMAGE_END]], max_len=15)
        # oracle: enumerate the grid, exclude (0,0), two pen states, plus end
        expected = 2 * ((2 * 15 + 1) ** 2 - 1) + 1
        assert vocab.size == expected == 1921

    def test_closed_size_max_len_1(self):
        vocab = build_vocabulary([[IMAGE_END]], max_len=1)
        assert vocab.size == 2 * 8 + 1 == 17

    def test_id_assignment_stable(self):
        seq = [(1, 3, -2), (0, 1, 1), IMAGE_END]
        a = build_vocabulary([seq], max_len=15)
        b = build_vocabulary([list(reversed(seq))], max_len=15)
        assert a == b
        np.testing.assert_array_equal(decode(range(a.size), a),
                                      decode(range(b.size), b))

    def test_image_end_has_last_id(self):
        vocab = build_vocabulary([[IMAGE_END]], max_len=2)
        assert vocab.image_end_id == vocab.size - 1

    def test_rejects_oversized_observed_move(self):
        with pytest.raises(ValueError):
            build_vocabulary([[(1, 99, 0)]], max_len=15)

    def test_rejects_no_move_sequences(self):
        with pytest.raises(ValueError, match="need at least one move sequence"):
            build_vocabulary([])


class TestEncodeDecode:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary([[IMAGE_END]], max_len=15)

    def test_round_trip_identity(self, vocab):
        moves = [(1, 1, 2), (0, -3, 7), (1, 15, -15), IMAGE_END]
        assert np.array_equal(decode(encode(moves, vocab), vocab), moves)

    def test_encode_image_end(self, vocab):
        assert encode([IMAGE_END], vocab).tolist() == [vocab.image_end_id]

    def test_unknown_move_raises(self, vocab):
        with pytest.raises(KeyError):
            encode([(1, 99, 0)], vocab)

    def test_bad_id_raises(self, vocab):
        with pytest.raises(KeyError):
            decode([vocab.size], vocab)

    def test_fuzz_round_trips(self, vocab):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = rng.integers(1, 40)
            moves = []
            for _ in range(n):
                dx, dy = 0, 0
                while dx == 0 and dy == 0:
                    dx, dy = rng.integers(-15, 16, 2)
                moves.append((int(rng.integers(2)), int(dx), int(dy)))
            moves.append(IMAGE_END)
            assert np.array_equal(decode(encode(moves, vocab), vocab), moves)

    @given(st.lists(
        st.tuples(st.booleans(), st.integers(-15, 15), st.integers(-15, 15))
        .filter(lambda t: (t[1], t[2]) != (0, 0)),
        max_size=30,
    ))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, raw):
        vocab = build_vocabulary([[IMAGE_END]], max_len=15)
        moves = [(int(r[0]), r[1], r[2]) for r in raw] + [IMAGE_END]
        assert np.array_equal(decode(encode(moves, vocab), vocab), moves)


class TestClosedVocabularyCoversAugmentation:
    def test_augmented_patches_always_encode(self):
        from strokegen.augment import AugmentConfig, generate_patch_with_params

        img = StrokeImage(
            [line_path(60, 60, 120, 80), line_path(70, 100, 110, 120)], 180.0
        )
        vocab = build_vocabulary([image_to_move_sequence(img)], max_len=15)
        rng = np.random.default_rng(0)
        for _ in range(25):
            patch, _ = generate_patch_with_params(img, AugmentConfig(),
                                                  rng.spawn(1)[0])
            ids = encode(image_to_move_sequence(patch), vocab)
            assert all(0 <= i < vocab.size for i in ids)
