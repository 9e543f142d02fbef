"""Discrete pen-move tokenization.

A stroke image becomes one read-only int64 array of moves, one row
(pen, dx, dy) per move in the stroke-3 layout: pen 0 travels, pen 1 draws,
and the last row, (2, 0, 0), ends the image. The vocabulary maps moves to
dense token ids by arithmetic on the closed move grid.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .geometry import Polyline, StrokeImage, batch_splits, flatten_controls

DEFAULT_MAX_MOVE_LEN = 15
DEFAULT_FLATTEN_ERROR = 1.0

TRAVEL, DRAW, END = 0, 1, 2
IMAGE_END = (END, 0, 0)


def _round_half_up(values: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(values, dtype=float) + 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# Image -> moves
# ---------------------------------------------------------------------------

def _quantise(a: np.ndarray, b: np.ndarray, first: np.ndarray, pen: np.ndarray,
              max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Moves [N, 3] along segments a -> b [S, 2] of consecutive polylines,
    and the segment [N] each move belongs to.

    ``first`` marks the segments that start a polyline and ``pen`` is each
    segment's pen. Segments longer than ``max_len`` are split into equal
    sub-segments. Waypoints are rounded to the integer grid and moves are
    differences of consecutive rounded waypoints, counted from the rounded
    start of each polyline, so rounding error never accumulates. Moves that
    round to (0, 0) are dropped.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    seg = b - a
    k = np.maximum(1, np.ceil(np.hypot(seg[:, 0], seg[:, 1]) / max_len))
    k = k.astype(np.int64)
    of = np.repeat(np.arange(len(a)), k)
    i = np.arange(len(of)) - np.repeat(np.cumsum(k) - k, k) + 1
    pos = _round_half_up(a[of] + seg[of] * (i / k[of])[:, None])
    prev = np.empty_like(pos)
    prev[1:] = pos[:-1]
    prev[first[of] & (i == 1)] = _round_half_up(a[first])
    d = pos - prev
    # float noise at split boundaries can spill one unit past max_len: such a
    # move is split in two halves
    spill = np.abs(d).max(axis=1, initial=0) > max_len
    rows = np.repeat(np.arange(len(d)), 1 + spill)
    moves = np.column_stack([pen[of][rows], d[rows]])
    halves = (np.cumsum(1 + spill) - 2)[spill]
    moves[halves, 1:] //= 2
    moves[halves + 1, 1:] -= moves[halves, 1:]
    keep = np.any(moves[:, 1:] != 0, axis=1)
    return moves[keep], of[rows][keep]


def polyline_to_moves(polyline: Polyline, pen: int,
                      max_len: int = DEFAULT_MAX_MOVE_LEN) -> np.ndarray:
    """Quantize one polyline into integer moves no longer than ``max_len``."""
    pts = polyline.points
    n = len(pts) - 1
    return _quantise(pts[:-1], pts[1:], np.arange(n) == 0,
                     np.full(n, int(pen)), max_len)[0]


def image_to_move_sequence(
    image: StrokeImage,
    flatten_error: float = DEFAULT_FLATTEN_ERROR,
    max_len: int = DEFAULT_MAX_MOVE_LEN,
) -> np.ndarray:
    """Flatten and tokenize a whole image into read-only [N, 3] moves.

    The pen starts at the canvas origin. Each path contributes travel moves
    from the current position to its first point, then draw moves along its
    flattened polyline; the current position is then the rounded last
    point. Stroke endings carry no token of their own; they are implied by
    the next pen-state change. The last row is IMAGE_END.
    """
    return move_sequences(image.controls[None], image.splits[None],
                          flatten_error, max_len)[0]


def move_sequences(controls: np.ndarray, splits: np.ndarray,
                   flatten_error: float = DEFAULT_FLATTEN_ERROR,
                   max_len: int = DEFAULT_MAX_MOVE_LEN
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The moves of n images of C curves in P paths each, at once.

    ``controls`` [n, C, 4, 2] and ``splits`` [n, P - 1] are the images'
    stacked curves and the np.split points between their paths. Each image
    is tokenized as by image_to_move_sequence, from the origin. Returns the
    read-only moves [N, 3] of all images one after another, each ending in
    IMAGE_END, and the np.split points between the images.
    """
    n, curves = controls.shape[:2]
    if not curves:
        moves = np.tile(np.array(IMAGE_END, dtype=np.int64), (n, 1))
        moves.flags.writeable = False
        return moves, np.arange(1, n)
    paths = splits.shape[1] + 1
    pts, ends = flatten_controls(controls.reshape(-1, 4, 2),
                                 batch_splits(splits, curves), flatten_error)
    # one point sequence: cursor_0, path 0, cursor_1, path 1, ...; the
    # cursor before each image's first path is the origin
    cursors = np.zeros((n * paths, 2))
    cursors[1:] = _round_half_up(pts[ends - 1])
    cursors[::paths] = 0.0
    starts = np.concatenate([[0], ends])
    seq = np.insert(pts, starts, cursors, axis=0)
    is_cursor = np.zeros(len(seq), dtype=bool)
    is_cursor[starts + np.arange(len(starts))] = True
    # drop the segments from a path's last point to the next cursor
    seg = ~is_cursor[1:]
    first = (is_cursor | np.append(False, is_cursor[:-1]))[:-1][seg]
    pen = np.where(is_cursor[:-1], TRAVEL, DRAW)[seg]
    moves, of = _quantise(seq[:-1][seg], seq[1:][seg], first, pen, max_len)
    image = ((np.cumsum(is_cursor) - 1) // paths)[:-1][seg][of]
    last = np.cumsum(np.bincount(image, minlength=n))
    moves = np.insert(moves, last, IMAGE_END, axis=0)
    moves.flags.writeable = False
    return moves, (last + np.arange(1, n + 1))[:-1]


# ---------------------------------------------------------------------------
# Moves -> image
# ---------------------------------------------------------------------------

def moves_to_image(moves) -> list[Polyline]:
    """Replay [N, 3] moves from the origin into pen-down polylines.

    Travel moves only translate the cursor; IMAGE_END stops the replay (a
    missing IMAGE_END simply consumes every move).
    """
    m = np.asarray(moves, dtype=np.int64).reshape(-1, 3)
    m = m[:np.argmax(np.append(m[:, 0] == END, True))]
    bad = np.flatnonzero((m[:, 0] != TRAVEL) & (m[:, 0] != DRAW))
    if bad.size:
        raise ValueError(f"unknown move {m[bad[0]].tolist()} in move sequence")
    after = np.cumsum(m[:, 1:], axis=0)
    draw = m[:, 0] == DRAW
    run_start = draw & ~np.append(False, draw[:-1])
    # a draw run is the position before its first move, then after each move
    at = np.cumsum(draw)[run_start] - 1
    points = np.insert(after[draw], at, (after - m[:, 1:])[run_start], axis=0)
    pieces = np.split(points.astype(float), (at + np.arange(len(at)))[1:])
    return [Polyline(p) for p in pieces] if len(at) else []


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

class Vocabulary:
    """Bijection between moves (plus IMAGE_END) and dense token ids.

    The regular moves are the closed grid: every (pen, dx, dy) with pen 0 or
    1 and Chebyshev length 1..max_move_length, numbered from 0 in
    (pen, dx, dy) order. IMAGE_END takes the last id.
    """

    def __init__(self, max_move_length: int):
        if max_move_length < 1:
            raise ValueError("max_move_length must be >= 1")
        self.max_move_length = int(max_move_length)
        self._side = 2 * self.max_move_length + 1
        self._per_pen = self._side ** 2 - 1  # the grid without (0, 0)

    @property
    def size(self) -> int:
        return self.n_regular + 1

    @property
    def n_regular(self) -> int:
        return 2 * self._per_pen

    @property
    def image_end_id(self) -> int:
        return self.n_regular

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vocabulary)
                and self.max_move_length == other.max_move_length)


def build_vocabulary(corpora: Iterable, max_len: int = DEFAULT_MAX_MOVE_LEN
                     ) -> Vocabulary:
    """The closed vocabulary for ``max_len``: every grid move with Chebyshev
    length <= max_len for both pen states, so any augmented patch stays
    encodable. The observed move sequences must all be encodable in it."""
    sequences = list(corpora)
    if not sequences:
        raise ValueError("need at least one move sequence")
    vocab = Vocabulary(max_len)
    for seq in sequences:
        try:
            encode(seq, vocab)
        except KeyError as exc:
            raise ValueError(f"observed {exc.args[0]}") from None
    return vocab


def encode(moves, vocab: Vocabulary) -> np.ndarray:
    """Token ids (int64) of [N, 3] moves."""
    m = np.asarray(moves, dtype=np.int64).reshape(-1, 3)
    pen, dx, dy = m.T
    side, per_pen, length = vocab._side, vocab._per_pen, vocab.max_move_length
    cell = (dx + length) * side + (dy + length)
    centre = per_pen // 2  # the cell of (0, 0)
    ids = np.where(pen == END, vocab.image_end_id,
                   pen * per_pen + cell - (cell > centre))
    regular = (((pen == TRAVEL) | (pen == DRAW))
               & (np.maximum(np.abs(dx), np.abs(dy)) <= length)
               & (cell != centre))
    bad = np.flatnonzero(~regular & np.any(m != IMAGE_END, axis=1))
    if bad.size:
        raise KeyError(f"move {m[bad[0]].tolist()} is not in the vocabulary")
    return ids


def decode(token_ids, vocab: Vocabulary) -> np.ndarray:
    """[N, 3] moves of token ids; the inverse of encode."""
    ids = np.fromiter(token_ids, dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids > vocab.image_end_id))
    if bad.size:
        raise KeyError(f"token id {ids[bad[0]]} out of range (V={vocab.size})")
    pen, rest = np.divmod(ids, vocab._per_pen)
    cell = rest + (rest >= vocab._per_pen // 2)
    dx, dy = np.divmod(cell, vocab._side)
    length = vocab.max_move_length
    moves = np.column_stack([pen, dx - length, dy - length])
    moves[ids == vocab.image_end_id] = IMAGE_END
    return moves
