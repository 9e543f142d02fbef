"""Pins the exact output of patch generation and tokenization.

The digests below were recorded from the implementation that kept every path
as a list of Point-based curves beside a cached control array. The
array-only Path must reproduce them bit for bit: the same patches, the same
control-point floats and the same token ids.
"""

import hashlib

import numpy as np
import pytest

from strokegen.augment import AugmentConfig, generate_patch_set
from strokegen.demo import make_demo_image
from strokegen.tokenizer import build_vocabulary, image_to_move_sequence
from strokegen.training import tokenize_patches

FLATTEN_ERROR = 1.0
MAX_MOVE_LEN = 15

# kind -> (sha256 of int64 token ids, sha256 of float64 control points)
PINNED = {
    "boxes": (
        "bb9da6f69989091b51709e4e168913d0c33100b8fb0841aeb0b9bd877cf815c1",
        "b5dcbef298faa9837bc0477e5a8cedfe7771db10203bdc3da97adb1172c94f83",
    ),
    "curls": (
        "9efe6d48bbdda4dc8473309cb8f8c64391db513c7dd5d2c631630d047f2cd744",
        "75fde707d28184170eead01ecefaa0b1b84700569a76d6b9cf5c1bcb66a1c2d6",
    ),
}


def pipeline_digests(kind: str) -> tuple[str, str]:
    image = make_demo_image(kind)
    vocab = build_vocabulary(
        [image_to_move_sequence(image, FLATTEN_ERROR, MAX_MOVE_LEN)],
        MAX_MOVE_LEN,
    )
    patches = generate_patch_set(image, 20, AugmentConfig(),
                                 np.random.default_rng(0))
    sequences = tokenize_patches(patches, vocab, FLATTEN_ERROR, MAX_MOVE_LEN)
    ids = np.concatenate([np.asarray(s, dtype="<i8") for s in sequences])
    controls = b"".join(
        np.ascontiguousarray(p.control_array(), dtype="<f8").tobytes()
        for patch in patches for p in patch.paths
    )
    return (hashlib.sha256(ids.tobytes()).hexdigest(),
            hashlib.sha256(controls).hexdigest())


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_patches_and_tokens_match_pinned_digests(kind):
    assert pipeline_digests(kind) == PINNED[kind]
