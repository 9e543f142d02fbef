import hashlib
import json

import pytest

from strokegen.demo import DEMO_KINDS, make_demo_recording

# (boundary, kind) -> sha256 of json.dumps(make_demo_recording(kind, boundary))
RECORDING_SHA256 = {
    (180.0, "boxes"):
        "3ed825a1e12cdf259080a709bfd1e0a13408514b4cf037655af8b12a98bf6f53",
    (180.0, "curls"):
        "f6df0473babbf1b56d6229b7aed804c6140ed147ea166691aa7e03633a4bdcf4",
    (180.0, "spikes"):
        "af06b49470b44d18dc80d13f96e3d243417a1dd09fd385376566fb48c7d6c3d6",
    (180.0, "circles"):
        "21bb9c2f93b28e0d2aebf43ba5576ff074d10229b89e7f03e7d9249bd9034f4f",
    (300.0, "boxes"):
        "3f573804be9b83b6887d75fed3b9ae1eb918695ad57e4c15524358cb41584ed2",
    (300.0, "curls"):
        "7c7fd8939eec3527facd41810cfe037035c6e4d0a74b09ee0ba424dbe9081179",
    (300.0, "spikes"):
        "f183f279a27baf4c9a4abb8aeda501f2cbabbaef083eb973ccd935ebfbe3706e",
    (300.0, "circles"):
        "490734f6ea8ed154c63cfc8a5f793cd729a30fb318fc55f379b79b3f307d1d2e",
}


def test_kinds_in_cli_order():
    assert DEMO_KINDS == ("boxes", "curls", "spikes", "circles")


@pytest.mark.parametrize("boundary, kind", RECORDING_SHA256)
def test_recording_bytes_are_pinned(boundary, kind):
    data = json.dumps(make_demo_recording(kind, boundary)).encode()
    assert hashlib.sha256(data).hexdigest() == RECORDING_SHA256[boundary, kind]


def test_unknown_kind_names_the_choices():
    with pytest.raises(ValueError, match=r"unknown demo kind 'dots'; pick "
                       r"from \('boxes', 'curls', 'spikes', 'circles'\)"):
        make_demo_recording("dots")
