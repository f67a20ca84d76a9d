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
from operator import and_
from types import SimpleNamespace

import pytest

from motiondual import chains, primal, signatures, verification
from motiondual.dualspace import (
    CLASS_KIND,
    GERM_KIND,
    LINE_KIND,
    DualModel,
    FiniteT0Space,
    Graph,
    Point,
    build_dual_model,
)
from motiondual.errors import CertificationError
from motiondual.cli import main
from motiondual.signatures import Signature, branch, count_signatures, enumerate_signatures, validate
from test_dualspace import toy_space
from test_signatures import zero_tail_step_holds

ORACLE_NS = range(3, 13)  # the default range of `motiondual verify`
REAL_COMMON_EXTENSION = verification.common_extension
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


def _flip(adj, i, j):
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i


def _with_space(monkeypatch, space, model):
    """Make the rows build `model` with `space` in place of its own."""
    tampered = DualModel(space, model.n, model.bound, model.class_count)
    monkeypatch.setattr(verification, "build_dual_model", lambda n, bound: tampered)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_inseparable_oracle_catches_one_negated_pair(monkeypatch, n):
    """One class-graph edge flipped, between two classes in the middle of
    the enumeration, fails the row at exactly that pair."""
    model = build_dual_model(n, _bound(n))
    space = copy.copy(model.space)
    adj = list(space._adj)
    i, j = model.class_count // 3, 2 * model.class_count // 3
    _flip(adj, i, j)
    space._adj = tuple(adj)
    _with_space(monkeypatch, space, model)
    result = verification.check_oracle_inseparable(n, _bound(n))
    sigs = enumerate_signatures(n, _bound(n))
    assert (result.ok, result.detail) == (False, f"mismatch at {sigs[i]} vs {sigs[j]}")


@pytest.mark.parametrize("n", ORACLE_NS)
def test_inseparable_oracle_catches_a_germ_closure_cut_one_class_short(monkeypatch, n):
    """The zero germ's closure is the run of classes t,0,...,0 for t up to
    the bound, and no other closure holds both of its ends.  With that run
    cut one class short, the row fails at the zero class and the class
    it lost."""
    model = build_dual_model(n, _bound(n))
    points = model.space.points
    closures = list(model.space._closure)
    g = next(i for i, p in enumerate(points) if p.kind == GERM_KIND and not any(p.sig.entries))
    last = (closures[g] & model.class_mask).bit_length() - 1
    closures[g] &= ~(1 << last)
    _with_space(monkeypatch, FiniteT0Space(points, closures), model)
    result = verification.check_oracle_inseparable(n, _bound(n))
    assert (result.ok, result.detail) == (False, f"mismatch at {points[0].sig} vs {points[last].sig}")


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_catches_one_flipped_star_edge(monkeypatch, n):
    """One flipped edge of the sub-ideal graph, between two germ ideals in
    the middle of the enumeration, fails the row at that pair."""
    graph = primal.star_graph(n, _bound(n))
    germs = sum(p.kind == GERM_KIND for p in graph.points)
    adj = list(graph._adj)
    i, j = germs // 3, 2 * germs // 3
    _flip(adj, i, j)
    monkeypatch.setattr(primal, "star_graph", lambda n, bound: Graph(graph.points, adj))
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert (result.ok, result.detail) == (False, f"mismatch at {graph.points[i].sig} vs {graph.points[j].sig}")


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
    """Both zero-tail rows and `oracle-inseparable`, model builds included,
    read graph edges and mask tables only: none calls `inseparable`,
    `star_adjacent` or `common_extension`."""

    def forbidden(*args):
        raise AssertionError("a graph row called a pairwise closed form")

    assert not hasattr(verification, "inseparable")
    for module, name in [
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
        for check in (
            verification.check_zero_tail_dual,
            verification.check_zero_tail_star,
            verification.check_oracle_inseparable,
        ):
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
        (["--n-min", "12", "--n-max", "12", "--bound", "6"], "error: n = 12, bound = 6: the sweep would compare"),
        (["--n-min", "20", "--n-max", "60"], "error: n = 39, bound = 2 is beyond the model size cap"),
        (["--n-min", "3", "--n-max", str(10**9)], "error: n = 39, bound = 2 is beyond the model size cap"),
    ],
    ids=[
        "bound-0",
        "bound-negative",
        "n5-bound-51",
        "n5-bound-60",
        "dual-model-cap",
        "n12-bound-6",
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
    """The larger pair loop: SO(n-1) x SO(n-1) at odd n, SO(n) x SO(n-1) at
    even n, where SO(n) has the more signatures."""
    assert verification.oracle_pairs(5, 30) == count_signatures(4, 30) ** 2 == 961**2
    assert verification.oracle_pairs(12, 30) == count_signatures(12, 30) * count_signatures(11, 30)


@pytest.mark.parametrize("n, bound", [(4, 5), (5, 3), (6, 4), (7, 2), (8, 3)])
def test_oracle_pairs_is_the_work_of_the_larger_pair_loop(monkeypatch, n, bound):
    """The cap counts what the two pair loops do: `oracle_pairs` is the
    larger of the `common_extension` calls of `oracle-common-extension` and
    the `restricts_to` calls of `oracle-restriction` on a passing row."""
    calls = {"common_extension": 0, "restricts_to": 0}
    for name in calls:
        real = getattr(verification, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verification, name, counting)
    assert verification.check_oracle_common_extension(n, bound).ok
    assert verification.check_oracle_restriction(n, bound).ok
    assert verification.oracle_pairs(n, bound) == max(calls.values())


def test_default_sweep_skips_only_the_vacuous_and_large_n_rows():
    """In `run_sweep(3, 12)` a row is skipped only where its claim is
    vacuous (zero-tail-dual at n = 3, zero-tail-star at even n) or, for
    chain-lemma alone, where `default_bound(n) == 1`; every row that runs
    passes, distance-stability at every n."""
    summary = verification.run_sweep(3, 12)
    skipped = {(r.n, r.name) for r in summary.results if r.skipped}
    assert skipped == (
        {(3, "zero-tail-dual")}
        | {(n, "zero-tail-star") for n in range(4, 13, 2)}
        | {(n, "chain-lemma") for n in range(3, 13) if verification.default_bound(n) == 1}
    )
    assert {r.detail for r in summary.results if r.skipped and r.name == "chain-lemma"} == {
        "skipped where default_bound(n) == 1"
    }
    assert summary.ok
    stability = [r for r in summary.results if r.name == "distance-stability"]
    assert [r.n for r in stability if r.ok and not r.skipped] == list(range(3, 13))


# --- the chain-lemma check ------------------------------------------------------


def point_set_trials(n, bound, rng):
    """The random trials of `check_chain_lemma` drawn on point sets (sorted
    class points, distances from a class-restricted `bfs`, the classes 2 or
    more from X in class order), leaving `rng` where the check leaves it."""
    model = build_dual_model(n, bound)
    classes = list(model.space.points[: model.class_count])
    trials = []
    attempts = 0
    while len(trials) < 51 - (n // 2 >= 2) and attempts < 5000:
        attempts += 1
        xs = frozenset(rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        dist = model.classes.bfs(xs)
        far = [p for p in classes if dist.get(p, 0) >= 2]
        if not far:
            continue
        ys = frozenset(rng.sample(far, rng.randint(1, min(3, len(far)))))
        trials.append((xs, ys, rng.randint(2, min(dist[y] for y in ys))))
    return trials


CHAIN_LEMMA_GRID = [pytest.param(n, verification.default_bound(n), id=str(n)) for n in range(3, 10)] + [
    pytest.param(n, bound, id=f"{n}-bound{bound}") for bound in (2, 4) for n in range(4, 8)
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, bound", CHAIN_LEMMA_GRID)
def test_chain_lemma_draws_the_point_set_trials(monkeypatch, n, bound, seed):
    """The same trials and the same rng state afterwards, so the
    merge-certificates check, which shares the rng, sees the same triples.
    Below class diameter 2 (n = 3) the point-set loop finds no trial, and
    the check draws nothing and builds no chain."""
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


@pytest.mark.parametrize("seed", range(4))
def test_chain_lemma_draws_each_far_set_once_per_trial(seed):
    """No draw of Y is thrown away: over the default rows, `rng.sample`
    runs on a list of far classes exactly once per random trial (the class
    draws of X take a range)."""
    populations = []

    class Recording(random.Random):
        def sample(self, population, k, **kwargs):
            populations.append(type(population))
            return super().sample(population, k, **kwargs)

    details = [verification.check_chain_lemma(n, _bound(n), Recording(f"{seed}:{n}")).detail for n in ORACLE_NS]
    chain_count = sum(int(d.split()[0]) for d in details if d.endswith(" chains"))
    extremal = sum(1 for n in ORACLE_NS if n // 2 >= 2 and _bound(n) > 1)
    assert set(populations) == {list, range}
    assert populations.count(list) == chain_count - extremal == 300


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


def chain_lemma_calls(monkeypatch, name):
    """The calls to `chains.<name>` and the chains built over the default
    sweep's chain-lemma rows (seed 0)."""
    calls = []
    real = getattr(chains, name)
    monkeypatch.setattr(chains, name, lambda first, sets: calls.append(sets) or real(first, sets))
    details = [verification.check_chain_lemma(n, _bound(n), random.Random(f"0:{n}")).detail for n in ORACLE_NS]
    return len(calls), sum(int(d.split()[0]) for d in details if d.endswith(" chains"))


def test_chain_lemma_validates_each_trial_chain_once(monkeypatch):
    """`chains._violations` runs once per chain, in its construction, and
    once per merged chain: two for each of the 20 chains of three sets or
    more."""
    assert chain_lemma_calls(monkeypatch, "_violations") == (306 + 2 * 20, 306)


def test_chain_lemma_tests_each_trial_chain_admissible_once(monkeypatch):
    """`chains._admissible` runs once per chain, in its construction."""
    assert chain_lemma_calls(monkeypatch, "_admissible") == (306, 306)


@pytest.mark.parametrize("bound", range(1, 9))
def test_n3_class_diameter_is_one(bound):
    """At n = 3 every two classes are joined, so no two class sets lie 2
    apart and the chain-lemma check rightly draws no random trial."""
    model = build_dual_model(3, bound)
    assert model.classes.diameter() == 1


def contradicted(*args, **kwargs):
    raise CertificationError("stand-in")


# The re-check that the chain-lemma check makes after a construction (the
# construction validates the chain itself) must run: a failing stand-in for
# it fails the check.  Each entry makes the stand-in from the real function.
FAILING_RECHECKS = {
    "_lower_bound": (lambda real: contradicted, "stand-in"),
}


@pytest.mark.parametrize("name", sorted(FAILING_RECHECKS))
def test_chain_lemma_runs_every_recheck(monkeypatch, name):
    make, detail = FAILING_RECHECKS[name]
    monkeypatch.setattr(chains, name, make(getattr(chains, name)))
    result = verification.check_chain_lemma(6, 3, random.Random(0))
    assert not result.ok and result.detail == detail


def real_then(calls, real, fake):
    """`real` for the first `calls` calls, `fake` from then on."""
    seen = []

    def standin(*args):
        seen.append(args)
        return (real if len(seen) <= calls else fake)(*args)

    return standin


# The checks of the chains merged from a built chain must run.  At (6, 3)
# the first trial is the extremal pair, a chain of three sets: its
# construction validates it (one `_violations`) and searches twice (its
# distance precondition and the bound's re-check), so the next call of each
# is on the first merged chain.  Each entry: the owner of the function, the
# calls left to the real one, the stand-in, and the detail it gives.
FAILING_MERGED_CHECKS = {
    "_violations": (chains, 1, lambda space, sets: ("stand-in",), "merged chain invalid: stand-in"),
    "_reach": (Graph, 2, lambda self, sources, targets: 1, "merged chain of length 2 contradicted by graph distance 1"),
}


@pytest.mark.parametrize("name", sorted(FAILING_MERGED_CHECKS))
def test_chain_lemma_runs_every_merged_chain_check(monkeypatch, name):
    owner, calls, fake, detail = FAILING_MERGED_CHECKS[name]
    monkeypatch.setattr(owner, name, real_then(calls, getattr(owner, name), fake))
    result = verification.check_chain_lemma(6, 3, random.Random(0))
    assert (result.ok, result.detail) == (False, detail)


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


def _drop_first_edge(adj, count):
    i = next(i for i, row in enumerate(adj) if row)
    _flip(adj, i, (adj[i] & -adj[i]).bit_length() - 1)


def _join_first_to_last(adj, count):
    _flip(adj, 0, count - 1)


def _flip_1_2(adj, count):
    _flip(adj, 1, 2)


# Graphs whose neighbor masks are edited, by vertex number over the `count`
# vertices the law covers, and the detail the check gives on them: the
# first source whose layered search leaves the law, and the lowest vertex it
# puts at another distance.  A "class" case edits the class graph, a "germ"
# case the germ rows of the sub-ideal graph, both at bound 3; each drops an
# edge or adds one ("edge 1-2 flipped" drops one at n = 5, adds one at 6).
TAMPERED = {
    (4, "class first edge dropped"): ("class", _drop_first_edge, "class:0,0 to class:1,0 differs from the law"),
    (4, "class first joined to last"): ("class", _join_first_to_last, "class:0,0 to class:3,3 differs from the law"),
    (5, "class edge 1-2 flipped"): ("class", _flip_1_2, "class:1,0 to class:1,1 differs from the law"),
    (6, "class edge 1-2 flipped"): ("class", _flip_1_2, "class:0,0,0 to class:1,1,-1 differs from the law"),
    (6, "class first joined to last"): ("class", _join_first_to_last, "class:0,0,0 to class:3,3,-3 differs from the law"),
    (5, "germ first edge dropped"): ("germ", _drop_first_edge, "germ:0,0 to germ:1,0 differs from the law"),
    (5, "germ first joined to last"): ("germ", _join_first_to_last, "germ:0,0 to germ:3,3 differs from the law"),
    (6, "germ first edge dropped"): ("germ", _drop_first_edge, "germ:0,0 to germ:1,0 differs from the law"),
    (6, "germ first joined to last"): ("germ", _join_first_to_last, "germ:0,0 to germ:3,3 differs from the law"),
}


@pytest.mark.parametrize("n,name", sorted(TAMPERED))
def test_distance_stability_names_the_first_source(monkeypatch, n, name):
    which, edit, detail = TAMPERED[n, name]
    real = build_dual_model(n, 3).classes if which == "class" else primal.star_graph(n, 3)
    adj = list(real._adj)
    edit(adj, sum(p.kind != LINE_KIND for p in real.points))
    tampered = Graph(real.points, adj)
    if which == "class":
        monkeypatch.setattr(verification, "build_dual_model", lambda n, bound: SimpleNamespace(classes=tampered))
    else:
        monkeypatch.setattr(primal, "star_graph", lambda n, bound: tampered)
    result = verification.check_distance_stability(n, 3)
    assert (result.ok, result.detail) == (False, detail)


@pytest.mark.parametrize("n", range(3, 10))
def test_class_distances_do_not_move_from_bound_3_to_4(n):
    """The small classes (leading entry at most 2) are the first points of
    both models, in the same order, and the layered search from each puts
    them at the same distances at bound 3 and at bound 4."""
    count = count_signatures(n, 2)
    graphs = build_dual_model(n, 3).classes, build_dual_model(n, 4).classes
    for a in range(count):
        assert verification._first_moved(*(g._layers(1 << a) for g in graphs), (1 << count) - 1) == -1
