"""Reference oracle for the array tokenizer.

The functions below are the earlier scalar implementation: a per-curve
subdivision stack (``ref_flatten_path``), a per-point quantisation loop that
built one ``(pen, dx, dy)`` tuple per move (``ref_polyline_to_moves``), a
dict vocabulary over the enumerated closed grid and a turtle replay. The
level-by-level flattening, the one-pass quantisation, the arithmetic
vocabulary and the cumulative-sum replay must reproduce them bit for bit:
the same flattened floats, the same moves and the same token ids.
"""

import math

import numpy as np
import pytest

from strokegen.augment import (
    AugmentConfig,
    generate_patch_set,
    generate_patch_with_params,
)
from strokegen.geometry import Path, Polyline, StrokeImage, flatten_path
from strokegen.training import tokenize_patches
from strokegen.tokenizer import (
    build_vocabulary,
    decode,
    encode,
    image_to_move_sequence,
    moves_to_image,
    polyline_to_moves,
)

MAX_LEN = 15
REF_END = "image_end"


# -- scalar flattening --------------------------------------------------------

def ref_point_segment_distance(p, a, b):
    ab = b - a
    len_sq = ab[0] * ab[0] + ab[1] * ab[1]
    if len_sq == 0.0:
        return math.hypot(*(p - a))
    t = ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / len_sq
    t = min(1.0, max(0.0, t))
    proj = a + t * ab
    return math.hypot(*(p - proj))


def ref_split_curve(c):
    p01 = (c[0] + c[1]) / 2.0
    p12 = (c[1] + c[2]) / 2.0
    p23 = (c[2] + c[3]) / 2.0
    p012 = (p01 + p12) / 2.0
    p123 = (p12 + p23) / 2.0
    mid = (p012 + p123) / 2.0
    return (np.array([c[0], p01, p012, mid]), np.array([mid, p123, p23, c[3]]))


def ref_flatten_curve(c, max_error, out):
    stack = [c]
    while stack:
        cur = stack.pop()
        d1 = ref_point_segment_distance(cur[1], cur[0], cur[3])
        d2 = ref_point_segment_distance(cur[2], cur[0], cur[3])
        if max(d1, d2) <= max_error:
            out.append(cur[3])
        else:
            left, right = ref_split_curve(cur)
            stack.append(right)
            stack.append(left)


def ref_flatten_path(path, max_error):
    controls = path.control_array()
    pts = [controls[0, 0]]
    for curve in controls:
        ref_flatten_curve(curve, max_error, pts)
    out = [pts[0]]
    for p in pts[1:]:
        if p[0] != out[-1][0] or p[1] != out[-1][1]:
            out.append(p)
    if len(out) < 2:
        out.append(pts[-1])
    return Polyline(np.array(out))


# -- scalar quantisation --------------------------------------------------------

def ref_round_half_up(values):
    return np.floor(np.asarray(values, dtype=float) + 0.5).astype(np.int64)


def ref_bound_chebyshev(dx, dy, max_len):
    if max(abs(dx), abs(dy)) <= max_len:
        return [(dx, dy)]
    half_x, half_y = dx // 2, dy // 2
    first = (half_x, half_y)
    second = (dx - half_x, dy - half_y)
    return [p for p in (first, second) if p != (0, 0)]


def ref_polyline_to_moves(polyline, pen, max_len=MAX_LEN, spills=None):
    pts = polyline.points
    prev = ref_round_half_up(pts[0])
    moves = []
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        length = math.hypot(seg[0], seg[1])
        k = max(1, math.ceil(length / max_len))
        for i in range(1, k + 1):
            waypoint = a + seg * (i / k)
            pos = ref_round_half_up(waypoint)
            dx = int(pos[0] - prev[0])
            dy = int(pos[1] - prev[1])
            if dx == 0 and dy == 0:
                continue
            if spills is not None and max(abs(dx), abs(dy)) > max_len:
                spills.append((dx, dy))
            for part in ref_bound_chebyshev(dx, dy, max_len):
                moves.append((pen, part[0], part[1]))
            prev = pos
    return moves


def ref_image_to_move_sequence(image, flatten_error=1.0, max_len=MAX_LEN):
    cursor = np.zeros(2, dtype=np.int64)
    moves = []
    for path in image.paths:
        poly = ref_flatten_path(path, flatten_error)
        travel = Polyline(np.array([cursor.astype(float), poly.points[0]]))
        moves.extend(ref_polyline_to_moves(travel, False, max_len))
        cursor = ref_round_half_up(poly.points[0])
        moves.extend(ref_polyline_to_moves(poly, True, max_len))
        cursor = ref_round_half_up(poly.points[-1])
    moves.append(REF_END)
    return moves


# -- dict vocabulary and turtle replay -------------------------------------------

class RefVocabulary:
    def __init__(self, max_len):
        regular = sorted(
            (pen, dx, dy)
            for pen in (False, True)
            for dx in range(-max_len, max_len + 1)
            for dy in range(-max_len, max_len + 1)
            if (dx, dy) != (0, 0)
        )
        self.moves = regular
        self.ids = {m: i for i, m in enumerate(regular)}
        self.image_end_id = len(regular)

    def encode(self, moves):
        return [self.image_end_id if m == REF_END else self.ids[m]
                for m in moves]


def ref_moves_to_image(moves):
    x, y = 0, 0
    polylines = []
    current = None
    for mv in moves:
        if mv == REF_END:
            break
        pen, dx, dy = mv
        if pen:
            if current is None:
                current = [(x, y)]
            x, y = x + dx, y + dy
            current.append((x, y))
        else:
            if current is not None:
                polylines.append(Polyline(np.array(current, dtype=float)))
                current = None
            x, y = x + dx, y + dy
    if current is not None:
        polylines.append(Polyline(np.array(current, dtype=float)))
    return polylines


def as_rows(ref_moves):
    """The reference moves as [N, 3] (pen, dx, dy) rows; the end is (2, 0, 0)."""
    rows = [(2, 0, 0) if m == REF_END else (int(m[0]), m[1], m[2])
            for m in ref_moves]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


REF_VOCAB = RefVocabulary(MAX_LEN)


# -- demo images and their patches ------------------------------------------------

def assert_image_matches(image, vocab):
    for path in image.paths:
        got = flatten_path(path, 1.0).points
        expected = ref_flatten_path(path, 1.0).points
        assert got.tobytes() == expected.tobytes()
    ref_moves = ref_image_to_move_sequence(image)
    moves = image_to_move_sequence(image)
    assert moves.dtype == np.int64 and not moves.flags.writeable
    assert np.array_equal(moves, as_rows(ref_moves))
    ids = encode(moves, vocab)
    assert ids.tolist() == REF_VOCAB.encode(ref_moves)
    assert np.array_equal(decode(ids, vocab), moves)


@pytest.mark.parametrize("seed", range(5))
def test_patches_flatten_and_tokenize_like_scalar_path(demo_image, seed):
    vocab = build_vocabulary([image_to_move_sequence(demo_image)], MAX_LEN)
    assert_image_matches(demo_image, vocab)
    for rng in np.random.default_rng(seed).spawn(20):
        patch, _ = generate_patch_with_params(demo_image, AugmentConfig(), rng)
        assert_image_matches(patch, vocab)


@pytest.mark.parametrize("seed", range(5))
def test_patch_set_tokenizes_like_scalar_path(demo_image, seed):
    """A patch set flattened, quantised and encoded as one array gives each
    patch the ids of the scalar path."""
    vocab = build_vocabulary([image_to_move_sequence(demo_image)], MAX_LEN)
    patches = generate_patch_set(demo_image, 20, AugmentConfig(),
                                 np.random.default_rng(seed))
    ids = tokenize_patches(patches, vocab, 1.0, MAX_LEN)
    assert len(ids) == len(patches)
    for patch, got in zip(patches, ids):
        assert got.tolist() == REF_VOCAB.encode(
            ref_image_to_move_sequence(patch))


def test_vocabulary_ids_match_dict_vocabulary():
    vocab = build_vocabulary([[(2, 0, 0)]], MAX_LEN)
    grid = np.array(REF_VOCAB.moves + [(2, 0, 0)], dtype=np.int64)
    assert encode(grid, vocab).tolist() == list(range(vocab.size))
    assert np.array_equal(decode(range(vocab.size), vocab), grid)
    assert vocab.size == len(REF_VOCAB.moves) + 1
    assert vocab.image_end_id == REF_VOCAB.image_end_id


# -- random polylines -----------------------------------------------------------

def random_polylines(seed, max_len, count=200):
    """Random walks, and axis-aligned runs of k * max_len units from a few
    ulps off a half-integer: there float noise in a waypoint can round one
    unit too far, and the quantiser splits that move in two (the spill)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 12))
        if rng.random() < 0.5:
            yield np.cumsum(rng.uniform(-40.0, 40.0, (n, 2)), axis=0)
            continue
        steps = np.zeros((n - 1, 2))
        axis = rng.integers(2, size=n - 1)
        steps[np.arange(n - 1), axis] = max_len * rng.integers(-8, 9, n - 1)
        start = (rng.integers(-50, 50, 2) + 0.5
                 + rng.integers(-3, 4, 2) * 2.0 ** -47)
        yield start + np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])


# an odd max_len spills an even move, an even one an odd move that splits
# into unequal halves
@pytest.mark.parametrize("max_len", [MAX_LEN, 14])
@pytest.mark.parametrize("seed", range(5))
def test_random_polylines_quantise_like_scalar_path(seed, max_len):
    spills = []
    for pts in random_polylines(seed, max_len):
        poly = Polyline(pts)
        for pen in (False, True):
            expected = ref_polyline_to_moves(poly, pen, max_len, spills)
            got = polyline_to_moves(poly, pen, max_len)
            assert np.array_equal(got, as_rows(expected))
    assert spills


def test_zero_length_path_matches_scalar_path():
    path = Path(np.full((1, 4, 2), 42.25))
    image = StrokeImage([path, Path(np.full((2, 4, 2), 7.0))], 180.0)
    for p in image.paths:
        got = flatten_path(p, 1.0).points
        assert got.tobytes() == ref_flatten_path(p, 1.0).points.tobytes()
        assert len(got) == 2
    moves = image_to_move_sequence(image)
    assert np.array_equal(moves, as_rows(ref_image_to_move_sequence(image)))


# -- replay -------------------------------------------------------------------

def replay_cases():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(0, 40))
        moves = []
        for _ in range(n):
            dx, dy = 0, 0
            while dx == 0 and dy == 0:
                dx, dy = (int(v) for v in rng.integers(-15, 16, 2))
            moves.append((bool(rng.random() < 0.6), dx, dy))
        yield moves                                   # no image end
        cut = int(rng.integers(0, n + 1))
        yield moves[:cut] + [REF_END] + moves[cut:]   # early image end


def test_replay_matches_turtle():
    for ref_moves in replay_cases():
        expected = ref_moves_to_image(ref_moves)
        got = moves_to_image(as_rows(ref_moves))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.points.tobytes() == e.points.tobytes()
