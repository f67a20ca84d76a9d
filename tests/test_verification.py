"""The brute-force oracles of the sweep catch a wrong closed form.

Each oracle check is run against a deliberately broken closed form and must
fail; with the real closed forms every n of the oracle range must pass.
"""

import copy
import random
import time
from math import inf

import pytest

from motiondual import chains, verification
from motiondual.chains import ChainReport
from motiondual.dualspace import CLASS_KIND, GERM_KIND, DualModel, Point, build_dual_model
from motiondual.errors import CertificationError
from motiondual.cli import main
from motiondual.signatures import Signature, count_signatures, enumerate_signatures, validate
from test_dualspace import toy_space

ORACLE_NS = range(3, verification.ORACLE_MAX_N + 1)
REAL_COMMON_EXTENSION = verification.common_extension
REAL_INSEPARABLE = verification.inseparable


def _bound(n):
    return verification.default_bound(n)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_oracles_pass_with_real_closed_forms(n):
    for check in (verification.check_oracle_inseparable, verification.check_oracle_common_extension):
        result = check(n, _bound(n))
        assert result.ok and not result.skipped, result


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_catches_no_extension(monkeypatch, n):
    monkeypatch.setattr(verification, "common_extension", lambda sigmas: None)
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail.startswith("mismatch at")


def _without_first_interleaving_test(sigmas):
    """`common_extension` with the test between child coordinates 1 and 2
    dropped: raising every first entry to their maximum makes that test
    pass and leaves the others as they were."""
    top = max(s.entries[0] for s in sigmas)
    return REAL_COMMON_EXTENSION([Signature((top,) + s.entries[1:], s.ctx) for s in sigmas])


# SO(3) and SO(4) parents have no interleaving test between two child
# coordinates (every pair of children has a common extension there).
@pytest.mark.parametrize("n", range(5, verification.ORACLE_MAX_N + 1))
def test_common_extension_oracle_catches_a_dropped_interleaving_test(monkeypatch, n):
    monkeypatch.setattr(verification, "common_extension", _without_first_interleaving_test)
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail.startswith("mismatch at")


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_searches_only_up_to_the_probe(monkeypatch, n):
    """The oracle for a pair searches the parents of the pair's probe, a
    prefix of the enumeration at bound + 1.  Cut every prefix two levels
    short, below the largest entry of the pair, and extensions that exist
    are missed."""
    monkeypatch.setattr(verification, "count_signatures", lambda n, p: count_signatures(n, max(p - 2, 0)))
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail.startswith("mismatch at")


@pytest.mark.parametrize("n", ORACLE_NS)
def test_inseparable_oracle_catches_one_negated_pair(monkeypatch, n):
    sigs = enumerate_signatures(n, _bound(n))
    target = (sigs[-1], sigs[0])

    def negated_once(a, b):
        return REAL_INSEPARABLE(a, b) != ((a, b) == target)

    monkeypatch.setattr(verification, "inseparable", negated_once)
    result = verification.check_oracle_inseparable(n, _bound(n))
    assert not result.ok and result.detail == f"mismatch at {target[0]} vs {target[1]}"


# SO(2) enumerates -bound..bound and is no prefix; the common-extension
# oracle enumerates parents of SO(n) for n >= 3 only.
@pytest.mark.parametrize("n", range(3, 13))
def test_enumeration_at_p_is_a_prefix_of_p_plus_one(n):
    for p in range(6):
        smaller, larger = enumerate_signatures(n, p), enumerate_signatures(n, p + 1)
        assert larger[: len(smaller)] == smaller
        assert len(smaller) == count_signatures(n, p)


# --- input refusals ------------------------------------------------------------


@pytest.fixture
def no_checks(monkeypatch):
    """Make any check that runs fail the test: refusals come first."""

    def must_not_run(n, bound, rng=None):
        raise AssertionError("a check ran before the input was refused")

    monkeypatch.setattr(verification, "CHECKS", (must_not_run,))


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--bound", "0"], "error: sweep bound must be >= 1, got 0\n"),
        (["--bound", "-1"], "error: sweep bound must be >= 1, got -1\n"),
        (["--n-min", "5", "--n-max", "5", "--bound", "51"], "error: n = 5, bound = 51: the sweep would compare"),
        (["--n-min", "5", "--n-max", "5", "--bound", "60"], "error: n = 5, bound = 60: the sweep would compare"),
        (["--n-min", "3", "--n-max", "12", "--bound", "6"], "error: n = 12, bound = 6 is beyond the model size cap"),
        (["--n-min", "20", "--n-max", "60"], "error: n = 39, bound = 2 is beyond the model size cap"),
        (["--n-min", "3", "--n-max", str(10**9)], "error: n = 39, bound = 2 is beyond the model size cap"),
    ],
    ids=["bound-0", "bound-negative", "n5-bound-51", "n5-bound-60", "dual-model-cap", "sub-ideal-cap", "huge-n-range"],
)
def test_verify_refuses_input_before_any_check(capsys, no_checks, argv, err):
    start = time.perf_counter()
    code = main(["verify", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(err) and len(out.err.splitlines()) == 1
    assert elapsed < 5


def test_size_cap_admits_the_default_sweep_and_bound_3():
    for n in range(3, 13):
        assert verification.oracle_pairs(n, verification.default_bound(n)) <= verification.MAX_ORACLE_PAIRS
    for n in range(3, 10):
        assert verification.oracle_pairs(n, 3) <= verification.MAX_ORACLE_PAIRS


def test_oracle_pairs_counts_the_larger_group():
    assert verification.oracle_pairs(5, 30) == count_signatures(4, 30) ** 2 == 961**2
    # above the oracle range only the zero-tail checks compare pairs, at bound 1
    assert verification.oracle_pairs(12, 30) == count_signatures(12, 1) ** 2


# --- the chain-lemma check ------------------------------------------------------


def point_set_trials(n, bound, rng):
    """The random trials of `check_chain_lemma` drawn as it drew them on
    point sets (sorted class points, distances from a class-restricted
    `bfs`), leaving `rng` where that loop left it."""
    model = build_dual_model(n, bound)
    classes = list(model.space.points[: model.class_count])
    trials = []
    attempts = 0
    while len(trials) < 51 - (n // 2 >= 2) and attempts < 5000:
        attempts += 1
        xs = frozenset(rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        ys = frozenset(rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        dist = model.space.bfs(xs, model.class_mask)
        d = min((dist[y] for y in ys if y in dist), default=inf)
        if d == inf or d < 2:
            continue
        trials.append((xs, ys, rng.randint(2, int(d))))
    return trials


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", range(3, 10))
def test_chain_lemma_draws_the_point_set_trials(monkeypatch, n, seed):
    """The same trials and the same rng state afterwards, so the
    merge-certificates check, which shares the rng, sees the same triples.
    Below class diameter 2 (n = 3) the point-set loop finds no trial, and
    the check draws nothing and builds no chain."""
    bound = verification.default_bound(n)
    built = []
    real = chains.find_admissible_chain

    def recording(model, X, Y, k, restrict_to_class=True):
        built.append((frozenset(X), frozenset(Y), k))
        return real(model, X, Y, k, restrict_to_class)

    monkeypatch.setattr(chains, "find_admissible_chain", recording)
    rng, expected = random.Random(f"{seed}:{n}"), random.Random(f"{seed}:{n}")
    result = verification.check_chain_lemma(n, bound, rng)
    assert result.ok, result
    model = build_dual_model(n, bound)
    if model.space.diameter(model.class_mask) < 2:
        assert rng.getstate() == expected.getstate()
        assert built == [] and result.detail == "0 chains"
        assert point_set_trials(n, bound, expected) == []
        return
    trials = point_set_trials(n, bound, expected)
    assert rng.getstate() == expected.getstate()
    assert built[n // 2 >= 2 :] == trials
    assert result.detail == f"{len(built)} chains"


@pytest.mark.parametrize("bound", range(1, 9))
def test_n3_class_diameter_is_one(bound):
    """At n = 3 every two classes are joined, so no two class sets lie 2
    apart and the chain-lemma check rightly draws no random trial."""
    model = build_dual_model(3, bound)
    assert model.space.diameter(model.class_mask) == 1


def contradicted(*args, **kwargs):
    raise CertificationError("stand-in")


# Each public re-check that the chain-lemma check makes after a construction
# must run: a failing stand-in for it fails the check.
FAILING_RECHECKS = {
    "validate_chain": (lambda model, chain: ChainReport(False, ("stand-in",)), "constructed chain invalid"),
    "is_admissible": (lambda model, chain, restrict_to_class=True: (False, None, None), "constructed chain inadmissible"),
    "chain_lower_bound": (contradicted, "stand-in"),
}


@pytest.mark.parametrize("name", sorted(FAILING_RECHECKS))
def test_chain_lemma_runs_every_recheck(monkeypatch, name):
    fake, detail = FAILING_RECHECKS[name]
    monkeypatch.setattr(chains, name, fake)
    result = verification.check_chain_lemma(6, 3, random.Random(0))
    assert not result.ok and result.detail == detail


# Hand-built n = 3 models on classes c0, c1 and germs g0, g1, in that point
# order, that break Property 1: the point closures and, where given, neighbor
# masks (bit i for the i-th point) that replace the ones the closures induce.
C0, C1 = (Point(CLASS_KIND, validate([e], 3)) for e in (0, 1))
G0, G1 = (Point(GERM_KIND, validate([e], 2)) for e in (0, 1))
BROKEN_PROPERTY1 = {
    # c1 closes onto c0: the class set is closed but not relatively discrete
    "class closure holds another class": (
        {C0: [C0], C1: [C1, C0], G0: [G0, C1, C0], G1: [G1, C0]},
        None,
        "Property 1 fails: the class set is not closed and relatively discrete",
    ),
    # an extra edge g0 - g1: the neighborhood of the closure of g0 reaches g1
    # but not c0, which lies in the closure of g1
    "neighborhood of a closed set not closed": (
        {C0: [C0], C1: [C1], G0: [G0, C1], G1: [G1, C0]},
        (0b1000, 0b0100, 0b1010, 0b0101),
        "Property 1 fails: a one-step neighborhood of a closed set is not closed",
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_PROPERTY1))
def test_chain_lemma_fails_on_a_model_that_breaks_property1(monkeypatch, name):
    closures, adjacency, detail = BROKEN_PROPERTY1[name]
    space = toy_space(closures)
    if adjacency is not None:
        monkeypatch.setattr(space, "_adj", adjacency)
    model = DualModel(space, 3, 1, 2)
    monkeypatch.setattr(verification, "build_dual_model", lambda n, bound: model)
    rng = random.Random(0)
    result = verification.check_chain_lemma(3, 1, rng)
    assert (result.ok, result.detail) == (False, detail)
    assert rng.getstate() == random.Random(0).getstate()


# --- the germ-mediation check ---------------------------------------------------


# Hand-built n = 3 models in which germs join classes that the classes alone
# do not: the point closures, classes first.  The neighbor masks are the ones
# the closures induce.
CS = [Point(CLASS_KIND, validate([e], 3)) for e in range(5)]
GS = [Point(GERM_KIND, validate([e], 2)) for e in range(-4, 5)]
GERM_SHORTCUTS = {
    # GS[0] shares the closure of GS[1] with CS[0] and that of GS[2] with
    # CS[1], but no closure holds both classes
    "open triangle": (
        {CS[0]: [CS[0]], CS[1]: [CS[1]], GS[0]: [GS[0]], GS[1]: [GS[1], CS[0], GS[0]], GS[2]: [GS[2], CS[1], GS[0]]},
        "open triangle through germ:-4",
    ),
    # the classes form the path CS[0] - ... - CS[4] through GS[0] to GS[3],
    # and CS[0] - GS[4] - GS[5] - CS[4] is shorter; the classes joined to
    # any one germ are joined to each other, so no triangle is open
    "shortcut": (
        {
            **{c: [c] for c in CS},
            **{GS[i]: [GS[i], CS[i], CS[i + 1]] for i in range(4)},
            GS[4]: [GS[4]],
            GS[5]: [GS[5]],
            GS[6]: [GS[6], GS[4], GS[5]],
            GS[7]: [GS[7], CS[0], GS[4]],
            GS[8]: [GS[8], CS[4], GS[5]],
        },
        "shortcut between class:0 and class:4",
    ),
}


@pytest.mark.parametrize("name", sorted(GERM_SHORTCUTS))
def test_germ_mediation_fails_on_a_model_with_germ_shortcuts(monkeypatch, name):
    closures, detail = GERM_SHORTCUTS[name]
    classes = sum(p.kind == CLASS_KIND for p in closures)
    model = DualModel(toy_space(closures), 3, 1, classes)
    monkeypatch.setattr(verification, "build_dual_model", lambda n, bound: model)
    result = verification.check_germ_mediation(3, 1)
    assert (result.ok, result.detail) == (False, detail)


# --- the distance-stability check -----------------------------------------------


def _flip(adj, i, j):
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i


def _isolate(adj, i):
    adj[:] = [m & ~(1 << i) for m in adj]
    adj[i] = 0


# Bound-4 models whose neighbor masks are edited, by the point numbers of
# the small classes (`count` of them, leading entry at most 2), and the
# (ok, detail) the check gives on them: the first pair of small classes,
# in enumeration order, whose class distance moved from bound 3.
TAMPERED_BOUND_4 = {
    (4, "last small class isolated"): (lambda adj, count: _isolate(adj, count - 1), False, "0,0 vs 2,2 moved"),
    (5, "edge 1-2 flipped"): (lambda adj, count: _flip(adj, 1, 2), False, "1,0 vs 1,1 moved"),
    (6, "edge 1-2 flipped"): (lambda adj, count: _flip(adj, 1, 2), False, "0,0,0 vs 1,1,-1 moved"),
    (6, "first class joined to the last small one"): (
        lambda adj, count: _flip(adj, 0, count - 1),
        False,
        "0,0,0 vs 2,2,-2 moved",
    ),
    (4, "edge to a large class flipped"): (lambda adj, count: _flip(adj, 2, count + 3), True, "9^2 pairs"),
}


@pytest.mark.parametrize("n,name", sorted(TAMPERED_BOUND_4))
def test_distance_stability_names_the_first_moved_pair(monkeypatch, n, name):
    edit, ok, detail = TAMPERED_BOUND_4[n, name]
    real = build_dual_model(n, 4)
    space = copy.copy(real.space)
    adj = list(space._adj)
    edit(adj, count_signatures(n, 2))
    space._adj = tuple(adj)
    tampered = DualModel(space, n, 4, real.class_count)
    monkeypatch.setattr(
        verification, "build_dual_model", lambda n, bound: tampered if bound == 4 else build_dual_model(n, bound)
    )
    result = verification.check_distance_stability(n, 3)
    assert (result.ok, result.detail) == (ok, detail)
