"""The brute-force oracles of the sweep catch a wrong closed form.

Each oracle check is run against a deliberately broken closed form and must
fail; with the real closed forms every n of the default sweep must pass.
"""

import copy
import random
import time
from collections import Counter
from functools import reduce
from itertools import product
from math import inf
from operator import and_

import pytest

from motiondual import chains, primal, signatures, verification
from motiondual.chains import ChainReport
from motiondual.dualspace import CLASS_KIND, GERM_KIND, DualModel, Graph, Point, build_dual_model
from motiondual.errors import CertificationError
from motiondual.cli import main
from motiondual.signatures import Signature, branch, count_signatures, enumerate_signatures, validate
from test_dualspace import toy_space
from test_signatures import zero_tail_step_holds

ORACLE_NS = range(3, 13)  # the default range of `motiondual verify`
REAL_COMMON_EXTENSION = verification.common_extension
REAL_INSEPARABLE = verification.inseparable
REAL_RESTRICTS_TO = verification.restricts_to


def _bound(n):
    return verification.default_bound(n)


@pytest.fixture(autouse=True)
def fresh_branch_table():
    """The oracles share a cached `branch` table; a test that patches
    `enumerate_signatures` or `branch` must not see, or leave, a stale one."""
    verification._branch_table.cache_clear()
    yield
    verification._branch_table.cache_clear()


def test_one_sweep_runs_branch_once_per_parent_and_restricts_to_only_in_its_oracle(monkeypatch):
    """Over one default sweep `branch` runs once per parent at (n, b) and at
    (n, b + 1), and `restricts_to` once per pair of `oracle-restriction`."""
    calls = Counter()

    def counting(name):
        real = getattr(verification, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("branch", "restricts_to"):
        monkeypatch.setattr(verification, name, counting(name))
    summary = verification.run_sweep(3, 12)
    assert summary.ok
    assert calls["branch"] == sum(count_signatures(n, _bound(n)) + count_signatures(n, _bound(n) + 1) for n in ORACLE_NS)
    restriction = [r for r in summary.results if r.name == "oracle-restriction"]
    assert calls["restricts_to"] == sum(int(r.detail.split()[0]) for r in restriction)


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
@pytest.mark.parametrize("n", range(5, 13))
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


@pytest.mark.parametrize("n", ORACLE_NS)
@pytest.mark.parametrize("member", [True, False], ids=["member", "non-member"])
def test_restriction_oracle_names_the_one_negated_pair(monkeypatch, n, member):
    """`restricts_to` negated on one pair, a branch member or not, fails
    the restriction oracle at exactly that pair."""
    parents, children = enumerate_signatures(n, _bound(n)), enumerate_signatures(n - 1, _bound(n))
    pi = parents[len(parents) // 2]
    sigma = next(c for c in reversed(children) if REAL_RESTRICTS_TO(pi, c) == member)

    def negated_once(p, s):
        return REAL_RESTRICTS_TO(p, s) != ((p, s) == (pi, sigma))

    monkeypatch.setattr(verification, "restricts_to", negated_once)
    result = verification.check_oracle_restriction(n, _bound(n))
    assert not result.ok and result.detail == f"mismatch at {pi} | {sigma}"


@pytest.mark.parametrize("n", ORACLE_NS)
def test_restriction_oracle_counts_a_child_missing_from_the_enumeration(monkeypatch, n):
    """With one child dropped from the SO(n-1) enumeration, the first parent
    whose branching set holds it fails the count."""
    children = enumerate_signatures(n - 1, _bound(n))
    dropped = children[len(children) // 2]

    def without_dropped(m, bound):
        return [s for s in enumerate_signatures(m, bound) if s != dropped]

    monkeypatch.setattr(verification, "enumerate_signatures", without_dropped)
    first = next(pi for pi in enumerate_signatures(n, _bound(n)) if dropped in branch(pi))
    result = verification.check_oracle_restriction(n, _bound(n))
    assert not result.ok and result.detail == f"count mismatch at {first}"


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_names_the_first_bad_witness(monkeypatch, n):
    """A `common_extension` that answers when it should but always with the
    zero parent fails at the first pair, in `product` order, whose children
    the zero parent does not restrict to."""
    zero = enumerate_signatures(n, 0)[0]

    def zero_witness(sigmas):
        return None if REAL_COMMON_EXTENSION(sigmas) is None else zero

    monkeypatch.setattr(verification, "common_extension", zero_witness)
    a, b = next(
        (a, b)
        for a, b in product(enumerate_signatures(n - 1, _bound(n)), repeat=2)
        if zero_witness([a, b]) is not None and not (REAL_RESTRICTS_TO(zero, a) and REAL_RESTRICTS_TO(zero, b))
    )
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail == f"bad witness at {a} vs {b}"


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_wants_the_least_common_parent(monkeypatch, n):
    """A `common_extension` that answers with a larger common parent, its
    leading entry raised by one, fails at the first pair that has one."""

    def raised(sigmas):
        got = REAL_COMMON_EXTENSION(sigmas)
        return None if got is None else Signature((got.entries[0] + 1,) + got.entries[1:], got.ctx)

    monkeypatch.setattr(verification, "common_extension", raised)
    a, b = next(p for p in product(enumerate_signatures(n - 1, _bound(n)), repeat=2) if raised(list(p)) is not None)
    assert all(REAL_RESTRICTS_TO(raised([a, b]), c) for c in (a, b))  # still a common parent
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail == f"bad witness at {a} vs {b}"


# SO(2) enumerates -bound..bound and is no prefix; the common-extension
# oracle enumerates parents of SO(n) for n >= 3 only.
@pytest.mark.parametrize("n", range(3, 13))
def test_enumeration_at_p_is_a_prefix_of_p_plus_one(n):
    for p in range(6):
        smaller, larger = enumerate_signatures(n, p), enumerate_signatures(n, p + 1)
        assert larger[: len(smaller)] == smaller
        assert len(smaller) == count_signatures(n, p)


# --- the zero-tail checks -------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_tail_step_names_the_first_pair_of_the_pairwise_loop(n):
    """On random graphs over the signatures, of random density and with
    stray bits past them, the tail step finds the first failing pair of the
    ordered pair loop, or none where the loop finds none."""
    sigs = enumerate_signatures(n, 3)
    rng = random.Random(n)
    for _ in range(20):
        sparsity = rng.randint(2, 6)  # each bit is set with probability 2^-sparsity
        masks = [reduce(and_, (rng.getrandbits(len(sigs) + 4) for _ in range(sparsity))) for _ in sigs]
        want = next(
            ((a, b) for (a, m), (j, b) in product(zip(sigs, masks), enumerate(sigs)) if m >> j & 1 and not zero_tail_step_holds(a, b)),
            None,
        )
        assert verification._tail_step_violation(sigs, masks, n // 2) == want


def _with_edge(adj, i, j):
    """The neighbor masks `adj` with the edge i - j planted."""
    adj = list(adj)
    adj[i] |= 1 << j
    adj[j] |= 1 << i
    return tuple(adj)


def test_zero_tail_dual_fails_on_a_planted_class_edge(monkeypatch):
    """The row reads the class edges of the bound-1 model: an edge from the
    zero class to 1,1, whose tail is one position too long, fails it."""
    model = build_dual_model(5, 1)
    space = copy.copy(model.space)
    space._adj = _with_edge(space._adj, space._number["class:0,0"], space._number["class:1,1"])
    monkeypatch.setattr(verification, "build_dual_model", lambda n, bound: DualModel(space, n, bound, model.class_count))
    result = verification.check_zero_tail_dual(5, 3)
    assert (result.ok, result.detail) == (False, "counterexample 0,0 vs 1,1")


def test_zero_tail_star_fails_on_a_planted_germ_edge(monkeypatch):
    """The row reads the germ edges of the bound-1 sub-ideal graph: an edge
    from the zero germ to 1,1 fails it."""
    graph = primal.star_graph(5, 1)
    planted = Graph(graph.points, _with_edge(graph._adj, graph._number["germ:0,0"], graph._number["germ:1,1"]))
    monkeypatch.setattr(primal, "star_graph", lambda n, bound: planted)
    result = verification.check_zero_tail_star(5, 3)
    assert (result.ok, result.detail) == (False, "counterexample 0,0 vs 1,1")


def test_zero_tail_rows_call_no_pairwise_closed_form(monkeypatch):
    """Both rows, model builds included, read graph edges only: neither
    calls `inseparable`, `star_adjacent` or `common_extension`."""

    def forbidden(*args):
        raise AssertionError("a zero-tail row called a pairwise closed form")

    for module, name in [
        (verification, "inseparable"),
        (verification, "common_extension"),
        (signatures, "inseparable"),
        (signatures, "common_extension"),
        (primal, "common_extension"),
        (primal, "star_adjacent"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    build_dual_model.cache_clear()
    primal.star_graph.cache_clear()
    for n in ORACLE_NS:
        for check in (verification.check_zero_tail_dual, verification.check_zero_tail_star):
            assert check(n, _bound(n)).ok


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
        (["--n-min", "39", "--n-max", "39", "--bound", "2"], "error: n = 39, bound = 2 is beyond the model size cap"),
        (["--n-min", "12", "--n-max", "12", "--bound", "5"], "error: n = 12, bound = 5: the sweep would compare"),
        (["--n-min", "20", "--n-max", "60"], "error: n = 39, bound = 2 is beyond the model size cap"),
        (["--n-min", "3", "--n-max", str(10**9)], "error: n = 39, bound = 2 is beyond the model size cap"),
    ],
    ids=[
        "bound-0",
        "bound-negative",
        "n5-bound-51",
        "n5-bound-60",
        "dual-model-cap",
        "n12-bound-5",
        "sub-ideal-cap",
        "huge-n-range",
    ],
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
    assert verification.oracle_pairs(12, 30) == count_signatures(12, 30) ** 2


def test_default_sweep_skips_only_the_vacuous_and_large_n_rows():
    """In `run_sweep(3, 12)` a row is skipped only where its claim is
    vacuous (zero-tail-dual at n = 3, zero-tail-star at even n) or where
    `default_bound(n) == 1` (chain-lemma and distance-stability); every
    row that runs passes."""
    summary = verification.run_sweep(3, 12)
    large_n = {"chain-lemma", "distance-stability"}
    skipped = {(r.n, r.name) for r in summary.results if r.skipped}
    assert skipped == (
        {(3, "zero-tail-dual")}
        | {(n, "zero-tail-star") for n in range(4, 13, 2)}
        | {(n, name) for n in range(3, 13) if verification.default_bound(n) == 1 for name in large_n}
    )
    assert {r.detail for r in summary.results if r.skipped and r.name in large_n} == {
        "skipped where default_bound(n) == 1"
    }
    assert summary.ok
    nine = next(r for r in summary.results if (r.n, r.name) == (9, "distance-stability"))
    assert nine.ok and not nine.skipped


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
        dist = model.classes.bfs(xs)
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
    real = chains._build_chain

    def recording(model, xm, ym, k):
        built.append((model.space._set(xm), model.space._set(ym), k))
        return real(model, xm, ym, k)

    monkeypatch.setattr(chains, "_build_chain", recording)
    rng, expected = random.Random(f"{seed}:{n}"), random.Random(f"{seed}:{n}")
    result = verification.check_chain_lemma(n, bound, rng)
    assert result.ok, result
    model = build_dual_model(n, bound)
    if model.classes.diameter() < 2:
        assert rng.getstate() == expected.getstate()
        assert built == [] and result.detail == "0 chains"
        assert point_set_trials(n, bound, expected) == []
        return
    trials = point_set_trials(n, bound, expected)
    assert rng.getstate() == expected.getstate()
    assert built[n // 2 >= 2 :] == trials
    assert result.detail == f"{len(built)} chains"


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n", range(4, 10))
def test_chain_lemma_mask_chains_match_find_admissible_chain(monkeypatch, n, seed):
    """Each chain that the sweep's chain-lemma row builds from its class
    masks is, mask for mask, the chain `find_admissible_chain` builds from
    the same points."""
    built = []
    real = chains._build_chain

    def recording(model, xm, ym, k):
        chain = real(model, xm, ym, k)
        built.append((xm, ym, k, chain))
        return chain

    monkeypatch.setattr(chains, "_build_chain", recording)
    results = verification.run_checks_for_n(n, None, seed)
    monkeypatch.undo()
    assert all(r.ok for r in results if r.name == "chain-lemma")
    assert built
    model = build_dual_model(n, verification.default_bound(n))
    for xm, ym, k, chain in built:
        xs, ys = model.space._set(xm), model.space._set(ym)
        assert chain.masks == chains.find_admissible_chain(model, xs, ys, k).masks


def test_chain_lemma_looks_up_each_end_witness_once(monkeypatch):
    """Over the default sweep's chain-lemma rows, `Graph._bit` runs twice for
    each extremal pair and never for a trial chain, which is re-checked on
    its masks."""
    calls = []
    real = Graph._bit
    monkeypatch.setattr(Graph, "_bit", lambda self, p: calls.append(p) or real(self, p))
    details = [verification.check_chain_lemma(n, _bound(n), random.Random(f"0:{n}")).detail for n in ORACLE_NS]
    chain_count = sum(int(d.split()[0]) for d in details if d.endswith(" chains"))
    extremal = sum(1 for n in ORACLE_NS if n // 2 >= 2 and _bound(n) > 1)
    assert (chain_count, extremal) == (306, 6)
    assert len(calls) == 2 * extremal == 12


def test_chain_lemma_validates_each_trial_chain_once(monkeypatch):
    """Over the default sweep's chain-lemma rows, `chains._violations` runs
    twice per chain: once in the construction and once in `validate_chain`."""
    calls = []
    real = chains._violations
    monkeypatch.setattr(chains, "_violations", lambda space, sets: calls.append(sets) or real(space, sets))
    details = [verification.check_chain_lemma(n, _bound(n), random.Random(f"0:{n}")).detail for n in ORACLE_NS]
    assert len(calls) == 2 * sum(int(d.split()[0]) for d in details if d.endswith(" chains")) == 612


@pytest.mark.parametrize("bound", range(1, 9))
def test_n3_class_diameter_is_one(bound):
    """At n = 3 every two classes are joined, so no two class sets lie 2
    apart and the chain-lemma check rightly draws no random trial."""
    model = build_dual_model(3, bound)
    assert model.classes.diameter() == 1


def contradicted(*args, **kwargs):
    raise CertificationError("stand-in")


def admissible_then_none(real):
    """A stand-in for `_admissible`: the real answer for the construction's
    own call, None for the re-check that the check makes after it."""
    calls = []

    def fake(model, sets):
        calls.append(sets)
        return real(model, sets) if len(calls) % 2 else None

    return fake


# Each re-check that the chain-lemma check makes after a construction must
# run: a failing stand-in for it fails the check.  Each entry makes the
# stand-in from the real function.
FAILING_RECHECKS = {
    "validate_chain": (lambda real: lambda model, chain: ChainReport(False, ("stand-in",)), "constructed chain invalid"),
    "_admissible": (admissible_then_none, "constructed chain inadmissible"),
    "_lower_bound": (lambda real: contradicted, "stand-in"),
}


@pytest.mark.parametrize("name", sorted(FAILING_RECHECKS))
def test_chain_lemma_runs_every_recheck(monkeypatch, name):
    make, detail = FAILING_RECHECKS[name]
    monkeypatch.setattr(chains, name, make(getattr(chains, name)))
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
