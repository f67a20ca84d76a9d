"""Golden outputs: the exact bytes of the outputs that must not drift.

Refactors and speed-ups keep `verify --format json`, the chain and merge
certificate files, the reports and the graph exports byte-identical.  Each
command's stdout is pinned by its SHA-256 digest; a change that is meant to
alter one of them must update its digest and say why.
"""

import hashlib
import itertools

import pytest

from motiondual.cli import main
from motiondual.signatures import Signature, Walk, enumerate_signatures, walk


def padded(*head, k):
    """A comma-separated signature: `head`, then zeros up to length k."""
    return ",".join(map(str, head + (0,) * (k - len(head))))


def runs_of(*runs):
    """A comma-separated signature made of (value, count) runs."""
    return ",".join(str(v) for v, count in runs for _ in range(count))


GOLDEN = {
    "verify": (
        ["verify", "--n-min", "3", "--n-max", "12", "--seed", "1", "--format", "json"],
        "ac02b354a3f57b4e49c9b146cbb6adc9f3f7e10a5d84e383515097b0b59dfbc4",
    ),
    # the pair oracles and germ-mediation above n = 9, at a raised bound
    "verify-n10-12-bound-2": (
        ["verify", "--n-min", "10", "--n-max", "12", "--bound", "2", "--seed", "1", "--format", "json"],
        "301870380ddfef4adada0dc8487ce79de40e926c4ac5bc9030167b3059d6c163",
    ),
    # the pair oracles at a raised bound, where every table is larger
    "verify-bound-8": (
        ["verify", "--n-min", "5", "--n-max", "6", "--bound", "8", "--seed", "1", "--format", "json"],
        "8c9f17bc40b1283783e09e06bab7757824c0f5d17c44065f3954bb20c6d8f5dc",
    ),
    "chain": (
        ["chain", "--n", "7", "0,0,0", "1,1,1"],
        "478f48bfd942bca32afd2b5bcc9c02408d2a2e279212199cee2d8259e41d0e35",
    ),
    "certify": (
        ["certify", "--n", "6", "1,0", "2,0", "1,1"],
        "c1cba51a840c982b7cb2c76084ac265da8cdea1385af6816d73c309e75ffda64",
    ),
    # large n at bound 2: one per residue of n mod 4, so both the triple
    # (37, 38) and the single-target (39, 40) constructions are pinned
    "certify-37": (
        ["certify", "--n", "37", padded(2, 2, 1, 1, k=18), padded(2, 1, 1, 1, 1, k=18), runs_of((2, 17), (-2, 1))],
        "237e7690830a5d53757fd5270cac37ab5e0f3de551c50b0ff71a00ddf77ebb56",
    ),
    "certify-38": (
        ["certify", "--n", "38", padded(2, 1, k=18), runs_of((1, 18)), padded(2, 2, 2, 1, 1, 1, k=18)],
        "aa114f6e3ee2f6d7c0caa6a1c41077adff015de8e3e70b9b7617e3b9d4b8af05",
    ),
    "certify-39": (
        ["certify", "--n", "39", padded(1, 1, 1, k=19), padded(2, 2, k=19), runs_of((2, 10), (1, 9))],
        "d9ef0b4ead18d87a00f51bcfc6515711aad01f87c401c69491aa589d8c3b7dc1",
    ),
    "certify-40": (
        ["certify", "--n", "40", padded(2, 2, 2, 2, 1, k=19), padded(2, k=19), runs_of((1, 19))],
        "d93b998814d29ee4eb75e7bf9db522be6d50461185ce398c72f11177f9dc109f",
    ),
    "walk-40": (
        ["walk", "--n", "40", padded(2, 2, 2, 1, 1, k=20), runs_of((1, 19), (-1, 1))],
        "c08019229c25ea87b506483960952615a9fb14c145525fe1e7716fc8d6299c72",
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


def walk_built_then_compressed(pi1: Signature, pi2: Signature) -> Walk:
    """The geodesic built in full: its length d by a naive scan over every
    (i, t), every state z_t[i] = max(|a[i+t]|, |b[i+d-t]|) and every witness
    built and checked as a Signature, then each step that repeats the one
    before it dropped with its witness."""
    ctx = pi1.ctx
    if pi1 == pi2:
        return Walk((pi1,), ())
    child, k = ctx.child, ctx.k
    a, b = pi1.entries, pi2.entries
    shifts = [t for t in range(1, k) for i in range(k - t) if abs(b[i + t]) > a[i] or abs(a[i + t]) > b[i]]
    d = 1 + max(shifts, default=0)

    def at(e, i):
        return abs(e[i]) if i < k else 0

    rows = [tuple(max(at(a, i + t), at(b, i + d - t)) for i in range(k)) for t in range(d + 1)]
    steps = [pi1, *(Signature(z, ctx) for z in rows[1:-1]), pi2]
    wits = []
    for t in range(d):
        head = tuple(max(at(a, i + t + 1), at(b, i + d - t)) for i in range(k - 1))
        tail = (-min(rows[t][-1], rows[t + 1][-1]),) if child.k == k else ()
        wits.append(Signature(head + tail, child))
    kept_steps, kept_wits = [steps[0]], []
    for step, wit in zip(steps[1:], wits):
        if step != kept_steps[-1]:
            kept_steps.append(step)
            kept_wits.append(wit)
    return Walk(tuple(kept_steps), tuple(kept_wits))


@pytest.mark.parametrize("n", range(3, 10))
def test_walk_equals_the_built_then_compressed_walk(n):
    sigs = enumerate_signatures(n, 2)
    for a, b in itertools.product(sigs, repeat=2):
        assert walk(a, b) == walk_built_then_compressed(a, b), (a, b)
