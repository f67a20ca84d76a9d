"""Fuzz the two `--check` readers with arbitrary JSON.

One field of a valid chain or merge-certificate file is replaced by an
arbitrary JSON value.  Whatever the value, `chain --check` and
`certify --check` must end in exit 0, 1 or 2, never in a traceback.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiondual.cli import main

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

WRITE = {
    "chain": ["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1"],
    "certify": ["certify", "--n", "6", "1,0", "2,0", "1,1"],
}
FIELDS = {
    "chain": [("n",), ("bound",), ("restrict_to_class",), ("length",), ("sets",), ("sets", 1), ("x",), ("y",)],
    "certify": [("certificate",)]
    + [
        ("certificate", key)
        for key in ("n", "case", "claimed_n", "inputs", "containers", "walks", "targets", "primal_witness")
    ]
    + [("certificate", "walks", 0, key) for key in ("n", "steps", "witnesses")]
    + [("certificate", "inputs", 2)],
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    files = {}
    for command, argv in WRITE.items():
        path = tmp_path_factory.mktemp(command) / "file.json"
        assert main([*argv, "--output", str(path)]) == 0
        assert main([command, "--n", "7", "--check", str(path)]) == 0
        files[command] = (path, json.loads(path.read_text()))
    return files


@pytest.mark.parametrize("command", sorted(WRITE))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_check_reader_survives_any_field(valid_files, command, data):
    path, valid = valid_files[command]
    field = data.draw(st.sampled_from(FIELDS[command]), label="field")
    payload = copy.deepcopy(valid)
    target = payload
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = data.draw(JSON_VALUES, label="value")
    path.write_text(json.dumps(payload))
    assert main([command, "--n", "7", "--check", str(path)]) in (0, 1, 2)
