"""Golden outputs: the exact bytes of the outputs that must not drift.

Refactors and speed-ups keep `verify --format json`, the chain and merge
certificate files, the reports and the graph exports byte-identical.  Each
command's stdout is pinned by its SHA-256 digest; a change that is meant to
alter one of them must update its digest and say why.
"""

import hashlib

import pytest

from motiondual.cli import main

GOLDEN = {
    "verify": (
        ["verify", "--n-min", "3", "--n-max", "12", "--seed", "1", "--format", "json"],
        "dfcc90f673c6ee4aef0b803a35c15c39fb61fd6cd35405acfd12f2732c745905",
    ),
    "chain": (
        ["chain", "--n", "7", "0,0,0", "1,1,1"],
        "478f48bfd942bca32afd2b5bcc9c02408d2a2e279212199cee2d8259e41d0e35",
    ),
    "certify": (
        ["certify", "--n", "6", "1,0", "2,0", "1,1"],
        "c1cba51a840c982b7cb2c76084ac265da8cdea1385af6816d73c309e75ffda64",
    ),
    "graph": (
        ["graph", "--n", "5", "--kind", "dual", "--format", "json"],
        "0e05126e5be3dfa2c71239a0b0b3f83a7192d853668f35a5242be4bd8f8a5831",
    ),
    "graph-dot": (
        ["graph", "--n", "5", "--kind", "dual", "--format", "dot"],
        "9fc10ecfd8e59cf6100c7b510707c5fcdb4cedf73f9ba580efef29f768e13ae7",
    ),
    "graph-dot-negative": (
        ["graph", "--n", "6", "--kind", "dual", "--bound", "2", "--format", "dot"],
        "94a717f0e758eca1956929f583db02387b19335f7e1efb5e883b707a59bde2dc",
    ),
    "graph-sub-dot": (
        ["graph", "--n", "5", "--kind", "sub", "--format", "dot"],
        "ce13d066b51dfde244ddc5b097f8f200702b2fa3a7cb91161dc3134186eb63ba",
    ),
    "graph-sub": (
        ["graph", "--n", "5", "--kind", "sub", "--format", "json"],
        "587056a3a4557f6c26a8f88579306a95288314bfd31e401a77c22c21a9c1757c",
    ),
    "report": (
        ["report", "--n", "7", "--format", "json"],
        "1644180db97fef7816349bba2de81b52c92e413355857dc1185e469d3e9cafa6",
    ),
}
# `chain --n 7 --check` on the file that the "chain" command writes
CHAIN_CHECK_DIGEST = "dda30a8948e13065d8f5d7095f9f1fa5cc7930ba2825008038738fc112fe48be"


def stdout_of(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_its_golden_digest(capsys, name):
    argv, want = GOLDEN[name]
    assert digest(stdout_of(argv, capsys)) == want


def test_chain_check_output_matches_its_golden_digest(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(stdout_of(GOLDEN["chain"][0], capsys))
    assert digest(stdout_of(["chain", "--n", "7", "--check", str(path)], capsys)) == CHAIN_CHECK_DIGEST
