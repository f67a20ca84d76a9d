import json
import os
import subprocess
import sys

import pytest

from motiondual import cli
from motiondual.cli import main
from motiondual.dualspace import build_dual_model, dual_model_to_json
from motiondual.errors import CertificationError, MotionDualError, PreconditionViolated, TheoremViolation

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- report --------------------------------------------------------------------


def test_report_table(capsys):
    code, out, _ = run(["report", "--n", "7", "--bound", "1"], capsys)
    assert code == 0
    assert out.splitlines()[1].split() == ["7", "3", "3", "4", "2", "2"]


def test_report_json_schema_stable(capsys):
    code, out, _ = run(["report", "--n", "7", "--bound", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 7 and payload["k_ma"] == "2"
    code2, out2, _ = run(["report", "--n", "7", "--bound", "1", "--format", "json"], capsys)
    assert json.loads(out2) == payload


def test_report_n2_flags_exception(capsys):
    code, out, _ = run(["report", "--n", "2"], capsys)
    assert code == 0
    assert "note (n=2)" in out


def test_report_usage_error(capsys):
    code, _, err = run(["report"], capsys)
    assert code == 1
    assert "usage error" in err


def test_report_bad_n(capsys):
    code, _, err = run(["report", "--n", "1"], capsys)
    assert code == 1


def test_report_injected_bug_exits_2(capsys, monkeypatch):
    import motiondual.primal as primal_mod

    monkeypatch.setattr(primal_mod, "big_d", lambda n, bound: 99)
    code, _, err = run(["report", "--n", "5", "--bound", "1"], capsys)
    assert code == 2
    assert "cross-check failed" in err


def test_report_refuses_an_oversized_sub_ideal_graph_before_building_the_model(capsys, monkeypatch):
    """(5, 51) fits the dual model's size cap but not the sub-ideal graph's."""
    from motiondual import constants

    def unbuilt(n, bound):
        raise AssertionError("dual model built before the size cap was checked")

    monkeypatch.setattr(constants, "build_dual_model", unbuilt)
    code, out, err = run(["report", "--n", "5", "--bound", "51"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: n = 5, bound = 51 is beyond the model size cap of 8192 signature entries\n"


# --- graph ---------------------------------------------------------------------


def test_graph_dual_counts(capsys):
    code, out, _ = run(["graph", "--n", "4", "--kind", "dual", "--bound", "1"], capsys)
    assert code == 0
    assert out.count("[shape=ellipse]") == 4
    assert out.count("[shape=box]") == 2


def test_graph_sub_has_isolated_lines(capsys):
    code, out, _ = run(
        ["graph", "--n", "5", "--kind", "sub", "--bound", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    line_ids = {v["id"] for v in payload["ideals"] if v["kind"] == "line"}
    touched = {i for e in payload["edges"] for i in e}
    assert line_ids and not (line_ids & touched)


def test_graph_bound_zero_renders(capsys):
    code, out, _ = run(["graph", "--n", "4", "--kind", "dual", "--bound", "0"], capsys)
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("kind", ["dual", "sub"])
def test_graph_refuses_models_above_size_cap(capsys, kind):
    code, out, err = run(["graph", "--n", "20", "--bound", "50", "--kind", kind], capsys)
    assert code == 1 and not out
    assert err.startswith("error: ") and "size cap" in err
    assert len(err.splitlines()) == 1


def test_chain_check_refuses_model_above_size_cap(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    payload.update(n=20, bound=50)
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["chain", "--n", "7", "--check", str(out_file)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "size cap" in err
    assert len(err.splitlines()) == 1


def test_graph_json_roundtrips(capsys):
    code, out, _ = run(["graph", "--n", "4", "--kind", "dual", "--bound", "1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == dual_model_to_json(build_dual_model(4, 1))


# --- distance / walk / chain / certify -------------------------------------------


def test_distance_example(capsys):
    code, out, _ = run(["distance", "--n", "9", "0,0,0,0", "1,1,1,1", "--bound", "1"], capsys)
    assert code == 0
    assert out.strip() == "distance: 4"


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--n", "4", "0,0", "1,1"],
        ["graph", "--n", "4"],
        ["chain", "--n", "4", "0,0", "1,1"],
        ["report", "--n", "4"],
    ],
    ids=["distance", "graph", "chain", "report"],
)
def test_negative_bound_is_refused(capsys, argv):
    code, out, err = run(argv + ["--bound", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: bound must be >= 0\n")


def test_distance_with_certificates(capsys):
    code, out, _ = run(
        ["distance", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--certificates"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance: 3"
    assert "walk upper bound: 3" in lines[1]
    assert "chain lower bound: 3" in lines[2]


def test_distance_json_roundtrip(capsys):
    code, out, _ = run(
        ["distance", "--n", "5", "0,0", "1,1", "--certificates", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert payload["distance"] == 2
    assert payload["walk_upper_bound"] == 2
    assert payload["chain_lower_bound"] == 2


def test_distance_malformed_signature(capsys):
    code, _, err = run(["distance", "--n", "5", "0,x", "1,1"], capsys)
    assert code == 1


def test_walk_command(capsys, tmp_path):
    out_file = tmp_path / "walk.json"
    code, _, _ = run(["walk", "--n", "6", "2,1,0", "1,1,1", "--output", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["valid"] is True
    assert len(payload["steps"]) - 1 <= 3


def test_chain_emit_and_recheck(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    code, _, _ = run(
        ["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys
    )
    assert code == 0
    code, out, _ = run(["chain", "--n", "7", "--check", str(out_file)], capsys)
    assert code == 0
    assert "certifies distance >= 3" in out


@pytest.mark.parametrize("k", ["0", "-3"])
def test_chain_refuses_k_below_one(capsys, k):
    code, out, err = run(["chain", "--n", "5", "0,0", "1,1", "--k", k], capsys)
    assert (code, out, err) == (1, "", f"error: --k must be at least 1, got {k}\n")


@pytest.mark.parametrize("flags", [[], ["--k", "1"]], ids=["distance", "k-1"])
def test_chain_refuses_coinciding_classes(capsys, flags):
    code, out, err = run(["chain", "--n", "5", "1,1", "1,1", *flags], capsys)
    assert (code, out, err) == (1, "", "error: no chain certificate for coinciding classes\n")


def test_chain_refuses_a_signature_above_the_bound(capsys):
    # the chain file records the model it certifies, so the bound is not raised
    code, out, err = run(["chain", "--n", "5", "2,1", "0,0", "--bound", "1"], capsys)
    assert (code, out, err) == (1, "", "error: signature 2,1 has an entry above --bound 1\n")


@pytest.mark.parametrize(
    "sig, message",
    [
        ("0,x", "cannot parse signature '0,x'"),
        ("1,1,1", "SO(5) signatures have 2 entries, got 3"),
        ("2,1", "signature 2,1 has an entry above --bound 1"),
    ],
)
def test_chain_reads_its_signatures_before_building_the_model(capsys, monkeypatch, sig, message):
    def unbuilt(n, bound):
        raise AssertionError("model built before the signatures were read")

    monkeypatch.setattr(cli, "build_dual_model", unbuilt)
    code, out, err = run(["chain", "--n", "5", sig, "0,0", "--bound", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


def _long_chain(capsys, tmp_path, n, bound, sets):
    """Re-check a chain file of the given sets; expect exit 2 and one short
    failure line, and return it."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": n, "bound": bound, "length": len(sets), "sets": sets}))
    code, out, err = run(["chain", "--check", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid chain: ") and len(err.splitlines()) == 1
    assert len(err.encode()) < 1024
    return err


@pytest.mark.parametrize(
    "sets", [[[]] * 8000, [["class:0", "class:1"]] * 3000], ids=["empty-sets", "one-set-repeated"]
)
def test_chain_check_refuses_more_sets_than_points(capsys, tmp_path, sets):
    err = _long_chain(capsys, tmp_path, 3, 1, sets)
    assert err == f"invalid chain: chain has {len(sets)} sets, more than the 5 points of the space\n"


def test_chain_check_counts_overlapping_pairs_in_one_message(capsys, tmp_path):
    everything = list(build_dual_model(5, 12).space.ids)
    assert len(everything) == 260
    err = _long_chain(capsys, tmp_path, 5, 12, [everything] * 260)
    # every pair of the 260 sets but the 259 consecutive ones overlaps
    assert "sets 1 and 3 overlap, and 33410 more non-consecutive pairs" in err


def test_chain_tampered_file_fails(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    payload["sets"][0].extend(payload["sets"][2])  # break non-consecutive disjointness
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["chain", "--n", "7", "--check", str(out_file)], capsys)
    assert code == 2


def _tampered_chain(capsys, tmp_path, **fields):
    """Re-check a written chain file with `fields` replaced (a value naming
    another field takes that field's value) and expect one failure line."""
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    payload.update({k: payload[v] if v in payload else v for k, v in fields.items()})
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["chain", "--n", "7", "--check", str(out_file)], capsys)
    assert code == 2
    assert err.startswith("invalid chain: ")
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"x": "y", "y": "x"}, "x must lie in the first set"),
        ({"x": "class:1,0,0"}, "x must lie in the first set"),
        ({"y": "class:0,0,0"}, "y must lie in the last set"),
        ({"x": "germ:0,0,0"}, "must be classes"),
    ],
    ids=["swapped", "x-inside", "y-inside", "germ-x"],
)
def test_chain_check_misplaced_witness_fails(capsys, tmp_path, fields, reason):
    # a parsed chain whose end witnesses are misplaced is a failed
    # verification (exit 2), not a usage error
    assert reason in _tampered_chain(capsys, tmp_path, **fields)


@pytest.mark.parametrize("length", [99, 2, 0])
def test_chain_check_wrong_length_fails(capsys, tmp_path, length):
    assert "differs from the 3 sets" in _tampered_chain(capsys, tmp_path, length=length)


def _check_chain_file(capsys, path):
    code, _, err = run(["chain", "--n", "7", "--check", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: cannot parse chain file")
    assert len(err.splitlines()) == 1
    return err


def test_chain_check_non_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "chain.json"
    bad.write_text("{")
    assert "JSONDecodeError" in _check_chain_file(capsys, bad)


def test_chain_check_missing_file_is_usage_error(capsys, tmp_path):
    assert "FileNotFoundError" in _check_chain_file(capsys, tmp_path / "absent.json")


def test_chain_check_missing_sets_is_usage_error(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    del payload["sets"]
    out_file.write_text(json.dumps(payload))
    assert "'sets'" in _check_chain_file(capsys, out_file)


def test_chain_check_non_string_point_is_usage_error(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    payload["sets"][0] = [1]
    out_file.write_text(json.dumps(payload))
    assert "is not a string" in _check_chain_file(capsys, out_file)


@pytest.mark.parametrize("key", ["x", "y"])
def test_chain_check_refuses_one_end_witness(capsys, tmp_path, key):
    # the other witness alone would leave the chain's bound unchecked
    out_file = _written_chain(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    del payload[key]
    out_file.write_text(json.dumps(payload))
    assert f"KeyError: '{key}'" in _check_chain_file(capsys, out_file)


@pytest.mark.parametrize(
    "bound, pid, spelled",
    [("1", "class:1,0", "class: 1,0"), ("1", "class:1,0", "class:+1,0"), ("10", "class:10,0", "class:1_0,0")],
    ids=["space", "plus", "underscore"],
)
@pytest.mark.parametrize("where", ["sets", "x"])
def test_chain_check_refuses_non_canonical_ids(capsys, tmp_path, bound, pid, spelled, where):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "4", "--bound", bound, pid.partition(":")[2], "0,0", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    assert payload["x"] == pid and pid in payload["sets"][0]
    if where == "x":
        payload["x"] = spelled
    else:
        payload["sets"][0] = [spelled if i == pid else i for i in payload["sets"][0]]
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["chain", "--check", str(out_file)], capsys)
    assert (code, err) == (1, f"error: {spelled!r} is not the id of a point of this model\n")


@pytest.mark.parametrize(
    "shape",
    [
        lambda sets: [dict.fromkeys(ids, 1) for ids in sets],
        lambda sets: [""] + sets[1:],
        lambda sets: {str(i): ids for i, ids in enumerate(sets)},
    ],
    ids=["set-as-object", "set-as-string", "sets-as-object"],
)
def test_chain_check_refuses_sets_that_are_not_lists(capsys, tmp_path, shape):
    # read as they come, an object is its keys and a string its characters
    out_file = _written_chain(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    payload["sets"] = shape(payload["sets"])
    out_file.write_text(json.dumps(payload))
    assert "TypeError: sets must be a list of lists of point ids" in _check_chain_file(capsys, out_file)


def test_chain_check_top_level_list_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "chain.json"
    bad.write_text("[1]")
    assert "not a JSON object" in _check_chain_file(capsys, bad)


@pytest.mark.parametrize("value", ["no", 0.5, 1, None], ids=["string", "float", "int", "null"])
def test_chain_check_rejects_non_boolean_restrict_to_class(capsys, tmp_path, value):
    # read with bool(), each of these re-verified as a class-restricted chain
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    payload["restrict_to_class"] = value
    out_file.write_text(json.dumps(payload))
    assert "restrict_to_class must be true or false" in _check_chain_file(capsys, out_file)


def _written_chain(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    return out_file


@pytest.mark.parametrize("flags", [[], ["--n", "7"], ["--bound", "1"], ["--n", "7", "--bound", "1"]])
def test_chain_check_reads_n_and_bound_from_the_file(capsys, tmp_path, flags):
    out_file = _written_chain(capsys, tmp_path)
    code, out, err = run(["chain", *flags, "--check", str(out_file)], capsys)
    assert (code, out, err) == (0, "chain of length 3 certifies distance >= 3\n", "")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "6"], "--n 6 differs from n = 7 in "),
        (["--bound", "2"], "--bound 2 differs from bound = 1 in "),
        (["--n", "7", "--bound", "3"], "--bound 3 differs from bound = 1 in "),
    ],
)
def test_chain_check_refuses_flags_that_differ_from_the_file(capsys, tmp_path, flags, message):
    out_file = _written_chain(capsys, tmp_path)
    code, out, err = run(["chain", *flags, "--check", str(out_file)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}{out_file}\n"


def test_certify_check_reads_n_from_the_file(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    code, out, _ = run(["certify", "--check", str(out_file)], capsys)
    assert (code, out) == (0, "certificate valid; implied bound 3/2\n")
    code, out, err = run(["certify", "--n", "7", "--check", str(out_file)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: --n 7 differs from n = 6 in {out_file}\n"


@pytest.mark.parametrize("argv", [["chain", "0,0,0", "1,1,1"], ["certify", "1,0", "2,0", "1,1"]])
def test_making_a_certificate_needs_n(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {argv[0]} needs --n (or --check FILE)\n"


def test_certify_example(capsys):
    code, out, _ = run(["certify", "--n", "6", "1,0", "2,0", "1,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ok"] is True
    assert payload["report"]["implied_k_bound"] == "3/2"
    assert len(payload["certificate"]["targets"]) == 3


def test_certify_rejects_bad_input(capsys):
    code, _, err = run(["certify", "--n", "6", "1,0", "0,2", "1,1"], capsys)
    assert code == 1  # 0,2 is not weakly decreasing


def _issue_certificate(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(
        ["certify", "--n", "6", "1,0", "2,0", "1,1", "--output", str(out_file)], capsys
    )
    assert code == 0
    assert f"written to {out_file}" in out
    return out_file


def test_certify_emit_and_recheck(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    code, out, _ = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == "certificate valid; implied bound 3/2"


def test_certify_recheck_bare_certificate(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    out_file.write_text(json.dumps(payload["certificate"]))
    code, out, _ = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == "certificate valid; implied bound 3/2"


def test_certify_tampered_target_fails(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    targets = payload["certificate"]["targets"]
    assert targets[0] != [0, 0, 0]
    targets[0] = [0, 0, 0]  # a valid SO(6) signature, but not the walk's end
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 2
    assert err.startswith("certificate invalid: ")
    assert "walk 1 does not end at its target" in err


def test_certify_tampered_claimed_n_fails(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    payload["certificate"]["claimed_n"] = 3
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 2
    assert err.startswith("certificate invalid: ")
    assert "differs from the case table" in err


def test_certify_dropped_walks_fail(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    payload["certificate"]["walks"] = []
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 2
    assert err.startswith("certificate invalid: ")


def test_certify_stray_primal_witness_fails(capsys, tmp_path):
    # n = 7 is 3 mod 4: the walks merge into one target, which needs no witness
    out_file = tmp_path / "m.json"
    run(["certify", "--n", "7", "0,0,0", "1,0,0", "1,1,1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    assert payload["certificate"]["primal_witness"] is None
    payload["certificate"]["primal_witness"] = [5, 5, 5]
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["certify", "--check", str(out_file)], capsys)
    assert (code, err) == (2, "certificate invalid: single-target certificate carries a primal witness\n")


def test_certify_missing_key_is_usage_error(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    del payload["certificate"]["walks"]
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 1
    assert err.startswith("error: cannot parse certificate file")
    assert "walks" in err
    assert len(err.splitlines()) == 1


def test_certify_non_json_is_usage_error(capsys, tmp_path):
    out_file = _issue_certificate(capsys, tmp_path)
    out_file.write_text(out_file.read_text()[:40])  # truncated mid-object
    code, _, err = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 1
    assert err.startswith("error: cannot parse certificate file")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, kind", [("chain", "chain"), ("certify", "certificate")])
def test_check_of_deeply_nested_json_is_usage_error(capsys, tmp_path, command, kind):
    # nested past the JSON decoder's recursion limit: one line and exit 1,
    # not a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run([command, "--check", str(deep)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot parse {kind} file {deep}: RecursionError")
    assert len(err.splitlines()) == 1


def test_certify_needs_three_signatures(capsys):
    code, _, err = run(["certify", "--n", "6", "1,0", "2,0"], capsys)
    assert code == 1
    assert "certify needs three signatures" in err
    assert "Traceback" not in err


def test_certify_takes_no_bound(capsys):
    # a merge certificate does not depend on a truncation, so --bound is
    # refused rather than accepted and ignored
    code, out, err = run(["certify", "--n", "6", "--bound", "1", "1,0", "2,0", "1,1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: unrecognized arguments: --bound 1")
    assert len(err.splitlines()) == 1


# --- error handling -------------------------------------------------------------


@pytest.mark.parametrize(
    "error, code",
    [
        (CertificationError("stand-in"), 2),
        (TheoremViolation(("stand-in",)), 2),
        (PreconditionViolated("stand-in"), 1),
        (MotionDualError("stand-in"), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_main_maps_library_errors_to_exit_codes(capsys, monkeypatch, error, code):
    # a certificate that fails its own re-check is exit 2, anything else exit 1
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_walk", failing)
    got, out, err = run(["walk", "--n", "5", "0,0", "1,1"], capsys)
    assert (got, out) == (code, "")
    assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--n", "5"],
        ["graph", "--n", "4", "--bound", "1"],
        ["walk", "--n", "5", "0,0", "1,1"],
        ["certify", "--n", "5", "0,0", "1,0", "1,1"],
        ["verify", "--n-min", "3", "--n-max", "3"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    code, out, err = run([*argv, "--output", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_verify_refuses_unwritable_output_before_the_sweep(capsys, monkeypatch, tmp_path, target):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(cli.verification, "run_sweep", no_sweep)
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    code, out, err = run(["verify", "--n-min", "3", "--n-max", "3", "--output", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


# --- verify -------------------------------------------------------------------


def test_verify_small_range(capsys):
    code, out, _ = run(
        ["verify", "--n-min", "3", "--n-max", "4", "--bound", "1", "--seed", "7"], capsys
    )
    assert code == 0
    assert "checks passed" in out


def test_verify_seed_deterministic(capsys):
    args = ["verify", "--n-min", "3", "--n-max", "4", "--bound", "1", "--seed", "7", "--format", "json"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_verify_injected_bug_exits_2(capsys, monkeypatch):
    import motiondual.verification as verification

    def broken(n, bound, rng=None):
        return verification.CheckResult(n, "orc", False, "injected")

    monkeypatch.setattr(verification, "check_orc", broken)
    monkeypatch.setattr(
        verification, "CHECKS", tuple(broken if c.__name__ == "check_orc" else c for c in verification.CHECKS)
    )
    code, out, _ = run(["verify", "--n-min", "3", "--n-max", "3", "--bound", "1"], capsys)
    assert code == 2
    assert "FAIL n=3 orc" in out


def test_verify_with_two_jobs(capsys):
    argv = ["verify", "--n-min", "3", "--n-max", "4", "--bound", "1", "--format", "json"]
    code, out, _ = run([*argv, "--jobs", "2"], capsys)
    assert code == 0
    assert out == run(argv, capsys)[1]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_rejects_non_positive_jobs(capsys, jobs):
    code, _, err = run(["verify", "--n-min", "3", "--n-max", "3", "--bound", "1", "--jobs", jobs], capsys)
    assert code == 1
    assert err.startswith("error: jobs must be a positive integer")


def test_worker_count_clamps():
    from motiondual.verification import worker_count

    cpus = os.cpu_count() or 1
    assert worker_count(10**9, 10) == min(10, cpus)
    assert worker_count(10**9, 1) == 1
    assert worker_count(None, 3) == 1


# --- module entry point ----------------------------------------------------------


def test_module_invocation_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "motiondual.cli", "report", "--n", "5", "--bound", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0
    assert "3/2" in proc.stdout


@pytest.mark.parametrize(
    "argv, code, err",
    [(["report", "--n", "5"], 0, ""), (["verify", "--jobs", "0"], 1, "error: jobs must be a positive integer")],
    ids=["report", "bad-jobs"],
)
def test_package_invocation_subprocess(argv, code, err):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "motiondual", *argv], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == code
    assert proc.stderr.startswith(err) and len(proc.stderr.splitlines()) == (1 if err else 0)


def test_verify_json_is_the_same_under_every_hash_seed():
    """The default sweep's JSON does not depend on the string-hash salt: no
    set or dict of signatures, points or ids orders an output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "motiondual", "verify", "--format", "json"],
            stdout=subprocess.PIPE,
            env=dict(env, PYTHONHASHSEED=seed),
            cwd=REPO,
        )
        for seed in ("0", "1")
    ]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] == outputs[1] and outputs[0].startswith(b"{")


# --- non-integer fields in --check files ---------------------------------------


def _set_path(payload, path, value):
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("inputs", 0), [1.9, 0]),
        (("inputs", 0), ["1", "0"]),
        (("inputs", 0), [True, False]),
        (("n",), 6.0),
        (("claimed_n",), 0.0),
        (("walks", 0, "n"), "6"),
    ],
    ids=["float-entry", "string-entries", "bool-entries", "float-n", "float-claimed-n", "string-walk-n"],
)
def test_certify_check_rejects_non_integer_fields(capsys, tmp_path, path, value):
    # coerced with int(), each of these reads back as the original certificate
    out_file = _issue_certificate(capsys, tmp_path)
    payload = json.loads(out_file.read_text())
    _set_path(payload["certificate"], path, value)
    out_file.write_text(json.dumps(payload))
    code, _, err = run(["certify", "--n", "6", "--check", str(out_file)], capsys)
    assert code == 1
    assert err.startswith("error: cannot parse certificate file")
    assert "must be integers" in err or "must be an integer" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value", [("n", 7.0), ("n", 7.5), ("n", "7"), ("bound", 1.5), ("bound", True)])
def test_chain_check_rejects_non_integer_fields(capsys, tmp_path, key, value):
    out_file = tmp_path / "chain.json"
    run(["chain", "--n", "7", "0,0,0", "1,1,1", "--bound", "1", "--output", str(out_file)], capsys)
    payload = json.loads(out_file.read_text())
    payload[key] = value
    out_file.write_text(json.dumps(payload))
    assert "must be an integer" in _check_chain_file(capsys, out_file)
