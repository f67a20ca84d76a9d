import json
import os
import pickle
import random
import subprocess
import sys
from itertools import product
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motiondual import constants, dualspace, primal, signatures
from motiondual.cli import main
from motiondual.dualspace import (
    CLASS_KIND,
    GERM_KIND,
    LINE_KIND,
    DualModel,
    FiniteT0Space,
    Graph,
    Point,
    _members,
    _union,
    build_dual_model,
    components_and_orc,
    distance,
    dual_model_to_dot,
    dual_model_to_json,
    glimm_partition,
    point_from_id,
)
from motiondual.errors import PreconditionViolated, UnknownPoint
from motiondual.signatures import enumerate_signatures, hull_intervals, inseparable, restricts_to, validate


def cls(entries, n):
    return Point(CLASS_KIND, validate(entries, n))


def germ(entries, n):
    return Point(GERM_KIND, validate(entries, n))


def graph_edges(graph):
    """Every edge once, as (x, y) with x before y, in vertex order: the
    vertex pairs of `Graph._pairs`, as the graph once listed them."""
    pts = graph.points
    return [(pts[i], pts[j]) for i, j in graph._pairs()]


def number(graph, x):
    """The vertex number of x, by the graph's one lookup route."""
    return graph._mask((x,)).bit_length() - 1


def neighbors(space, x):
    """The neighbors of x in vertex order, from the graph's neighbor masks."""
    pts = space.points
    return tuple(pts[j] for j in _members(space._adj[number(space, x)]))


def inseparable_points(space, x, y):
    """Whether the minimal open sets of the points x and y meet."""
    return bool(space._min_open[number(space, x)] & space._min_open[number(space, y)])


def class_points(model):
    """The class points of a dual model: its first `class_count` points."""
    return frozenset(model.space.points[: model.class_count])


def germ_points(model):
    """The germ points of a dual model: the points after the classes."""
    return frozenset(model.space.points[model.class_count :])


def separated_points(model):
    """The points of a dual model joined to no other point."""
    return frozenset(p for p, m in zip(model.space.points, model.space._adj) if not m)


def graph_distance(graph, x, y):
    """The distance from the vertex x to the vertex y: the layered search
    between their bits, as `dualspace.distance` runs it on the classes."""
    return graph._reach(graph._mask((x,)), graph._mask((y,)))


def pack(mask, keep):
    """The mask over positions in `keep` of the vertex numbers in `mask`."""
    return sum(1 << j for j, i in enumerate(keep) if mask >> i & 1)


def unpack(mask, keep):
    """The vertex numbers `keep[j]` of the positions j in `mask`."""
    return sum(1 << keep[j] for j in _members(mask))


def induced(graph, mask):
    """The subgraph of `graph` on the vertices of `mask`, numbered in vertex
    order (vertex j is `_members(mask)[j]`): a search inside a vertex subset
    runs on such a graph, as the class searches run on `DualModel.classes`."""
    keep = _members(mask)
    return Graph([graph.points[i] for i in keep], [pack(graph._adj[i], keep) for i in keep])


def closure(space, x):
    """The closure of the point x, from the space's closure masks."""
    return space._set(space._closure[number(space, x)])


def closure_masks(closures):
    """Each point's closure as a mask over the points, in the mapping's
    order: the closure map written out point by point, as the space
    constructor once took it."""
    index = {p: i for i, p in enumerate(closures)}
    return [sum(1 << index[q] for q in set(members)) for members in closures.values()]


def toy_space(closures):
    """The space of a closure map written out point by point, such as
    {"a": "a", "q": "qa"}: the points in the mapping's order."""
    return FiniteT0Space(closures, closure_masks(closures))


# --- space plumbing ----------------------------------------------------------


def test_space_rejects_non_t0():
    a, b = "a", "b"
    with pytest.raises(ValueError, match="not T0"):
        toy_space({a: {a, b}, b: {a, b}})


def test_space_rejects_non_reflexive():
    with pytest.raises(ValueError, match="not reflexive"):
        toy_space({"a": set()})


def test_space_rejects_non_transitive():
    # cl(c) = {c, b} but cl(b) = {b, a}: closing c again would pick up a
    with pytest.raises(ValueError, match="not transitive"):
        toy_space({"a": {"a"}, "b": {"a", "b"}, "c": {"b", "c"}})


@pytest.mark.parametrize("closures", [(0b101, 0b10), (0b1, 0b110), (0b1, -1)])
def test_space_rejects_a_closure_beyond_the_points(closures):
    with pytest.raises(ValueError, match="leaves the point set"):
        FiniteT0Space("ab", closures)


@pytest.mark.parametrize(
    "points,closures,message",
    [
        ("ab", (0b1, 0b110), "closure of b leaves the point set"),
        ("ab", (0b1, 0b0), "closure of b is not reflexive"),
        ("abc", (0b1, 0b11, 0b110), "closure of c is not transitive"),
        ("ab", (0b11, 0b11), "points a and b share a closure (not T0)"),
        # a's member b closes beyond the points, but a is checked first
        ("ab", (0b11, 0b110), "closure of a is not transitive"),
    ],
)
def test_space_names_the_first_fault(points, closures, message):
    with pytest.raises(ValueError) as exc:
        FiniteT0Space(points, closures)
    assert str(exc.value) == message


def test_space_walks_each_closure_once(monkeypatch):
    space = build_dual_model(5, 3).space
    walked = []

    def counted(mask):
        walked.append(mask)
        return _members(mask)

    def unused(masks, mask):
        raise AssertionError("the constructor unions closures")

    monkeypatch.setattr(dualspace, "_members", counted)
    monkeypatch.setattr(dualspace, "_union", unused)
    FiniteT0Space(space.points, space._closure)
    assert walked == list(space._closure)


def test_space_needs_one_closure_per_point():
    with pytest.raises(ValueError, match="one closure mask per point"):
        FiniteT0Space("ab", (0b1,))


def test_discrete_two_point_space():
    sp = toy_space({"a": {"a"}, "b": {"b"}})
    assert not inseparable_points(sp, "a", "b")
    assert graph_distance(sp, "a", "b") == inf
    assert sp.components() == (0b01, 0b10)


# --- model construction ------------------------------------------------------


def test_build_counts_n3():
    m = build_dual_model(3, 1)
    assert len(class_points(m)) == 2
    assert sorted(g.sig.entries for g in germ_points(m)) == [(-1,), (0,), (1,)]


def test_build_counts_n4():
    m = build_dual_model(4, 1)
    assert len(class_points(m)) == 4
    assert len(germ_points(m)) == 2


def test_build_rejects_small_n():
    with pytest.raises(PreconditionViolated):
        build_dual_model(2, 1)


def test_build_accepts_bound_zero():
    m = build_dual_model(5, 0)
    assert len(class_points(m)) == 1 and len(germ_points(m)) == 1


def test_germ_closure_is_hull():
    m = build_dual_model(4, 1)
    g = germ([1], 3)
    assert g in germ_points(m)
    cl = closure(m.space, g)
    assert g in cl
    assert {p.sig.entries for p in cl if p.kind == CLASS_KIND} == {(1, -1), (1, 0), (1, 1)}


def test_class_points_closed_and_discrete():
    m = build_dual_model(6, 1)
    assert _union(m.space._closure, m.class_mask) == m.class_mask
    for p in class_points(m):
        assert closure(m.space, p) == frozenset([p])
    # every subset of class points is closed
    some = m.space._mask(list(class_points(m))[:3])
    assert _union(m.space._closure, some) == some


@pytest.mark.parametrize("n,bound", [(n, b) for n in range(3, 9) for b in (0, 1, 2)])
def test_mask_methods_match_closure_map(n, bound):
    # the closure map of the model, rebuilt from `restricts_to`, and the
    # mask unions of closures and minimal open sets against their frozenset
    # definitions
    m = build_dual_model(n, bound)
    space = m.space
    pts = space.points
    cl = {
        p: frozenset([p]) | {c for c in class_points(m) if p.kind == GERM_KIND and restricts_to(c.sig, p.sig)}
        for p in pts
    }
    mo = {x: frozenset(q for q in pts if x in cl[q]) for x in pts}

    def union(table, s):
        return frozenset().union(*(table[p] for p in s))

    rng = random.Random(f"{n}:{bound}")
    samples = [frozenset(), frozenset(pts), class_points(m), germ_points(m)]
    samples += [frozenset(rng.sample(pts, rng.randint(1, len(pts)))) for _ in range(20)]
    samples += list(cl.values()) + list(mo.values())
    for i, x in enumerate(pts):
        assert closure(space, x) == cl[x]
        assert space._set(space._min_open[i]) == mo[x]
        assert set(neighbors(space, x)) == {y for y in pts if y != x and mo[x] & mo[y]}
    for s in samples:
        mask = space._mask(s)
        assert space._set(_union(space._closure, mask)) == union(cl, s)
        assert space._set(_union(space._min_open, mask)) == union(mo, s)


# small truncations, the benchmark's deep points and the larger recorded
# timing points
CLOSURE_GRID = [(n, b) for n in range(3, 11) for b in range(5)]
CLOSURE_GRID += [(8, 5), (5, 12), (6, 6), (24, 2), (9, 8), (10, 6)]


@pytest.mark.parametrize("n,bound", CLOSURE_GRID)
def test_closures_match_restricts_to_scan(n, bound):
    # the hull-interval closures against a `restricts_to` scan of every
    # class x germ pair, with the point order classes then germs
    classes = enumerate_signatures(n, bound)
    germs = enumerate_signatures(n - 1, bound)
    space = build_dual_model(n, bound).space
    assert space.points == tuple(Point(CLASS_KIND, c) for c in classes) + tuple(Point(GERM_KIND, g) for g in germs)
    for c in classes:
        assert closure(space, Point(CLASS_KIND, c)) == {Point(CLASS_KIND, c)}
    for g in germs:
        hull = {Point(CLASS_KIND, c) for c in classes if restricts_to(c, g)}
        assert closure(space, Point(GERM_KIND, g)) == hull | {Point(GERM_KIND, g)}, g


def product_closures(n, bound):
    """The closure map that `build_dual_model` wrote before the index runs:
    each germ closes onto the product of its hull intervals, the first one
    cut at `bound`, enumerated member by member.  The oracle of the runs."""
    classes = [Point(CLASS_KIND, s) for s in enumerate_signatures(n, bound)]
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(n - 1, bound)]
    closures = {p: (p,) for p in classes}
    by_entries = {p.sig.entries: p for p in classes}
    for g in germs:
        (lo, _), *rest = hull_intervals(g.sig)
        ranges = (range(lo, hi + 1) for lo, hi in rest)
        closures[g] = [g, *(by_entries[e] for e in product(range(lo, bound + 1), *ranges))]
    return closures


# every shape of hull at small and large bounds, up to the size cap, and
# the degenerate bound 0
RUN_GRID = [(3, 1), (3, 10), (4, 5), (5, 12), (5, 40), (6, 6), (6, 16), (7, 3), (8, 5), (8, 10), (9, 8)]
RUN_GRID += [(10, 6), (24, 2), (4, 62), (3, 0), (4, 0), (5, 0), (6, 0)]


def folded_masks(closures):
    """The minimal open sets and neighbor masks of a closure map, each in
    a pass of its own: the minimal open sets folded bit by bit from the
    closures, then each neighbor mask the union of the closures over a
    minimal open set, less the point itself."""
    mo = [0] * len(closures)
    for q, mask in enumerate(closures):
        for x in _members(mask):
            mo[x] |= 1 << q
    return tuple(mo), tuple(_union(closures, m) & ~(1 << x) for x, m in enumerate(mo))


@pytest.mark.parametrize("n,bound", sorted(set(CLOSURE_GRID + RUN_GRID)))
def test_one_pass_matches_the_folded_masks(n, bound):
    space = build_dual_model(n, bound).space
    assert (space._min_open, space._adj) == folded_masks(space._closure)


@pytest.mark.parametrize("n,bound", RUN_GRID)
def test_closure_runs_match_the_product_enumeration(n, bound):
    space = build_dual_model(n, bound).space
    closures = product_closures(n, bound)
    assert space.points == tuple(closures)
    assert list(space._closure) == closure_masks(closures)


def test_build_calls_no_restriction_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the model build called a restriction oracle")

    assert not hasattr(dualspace, "restricts_to")
    for name in ("restricts_to", "branch", "branch_box"):
        monkeypatch.setattr(signatures, name, forbidden)
    model = build_dual_model.__wrapped__(6, 3)
    assert len(closure(model.space, germ([3, 3], 5))) == 1 + 7  # (3,3,m) for |m| <= 3


def test_build_raises_on_a_product_point_outside_the_truncation(monkeypatch):
    # hull intervals one too wide in their last coordinate reach points that
    # are no class; the build must fail there, not skip them
    def too_wide(sigma):
        *head, (lo, hi) = signatures.hull_intervals(sigma)
        return (*head, (lo, hi + 1))

    monkeypatch.setattr(dualspace, "hull_intervals", too_wide)
    with pytest.raises(KeyError):
        build_dual_model.__wrapped__(5, 2)


def test_dual_model_cache_is_bounded():
    info = build_dual_model.cache_info
    assert info().maxsize is not None
    for b in range(info().maxsize + 3):
        build_dual_model(3, b)
        assert info().currsize <= info().maxsize


# the (n, bound) points of the recorded timings and of the benchmark's deep
# workload, which the size cap must admit
ADMITTED = [(6, 8), (10, 6), (9, 8), (8, 10), (6, 16), (5, 40), (5, 24), (8, 5), (5, 12), (6, 6), (24, 2)]


class _Admitted(Exception):
    pass


def _guard_answer(monkeypatch, module, build, n, bound):
    """True when the size guard lets `build(n, bound)` reach the enumeration."""

    def stop(*args):
        raise _Admitted

    monkeypatch.setattr(module, "enumerate_signatures", stop)
    try:
        build(n, bound)
    except _Admitted:
        return True
    except PreconditionViolated:
        return False
    raise AssertionError("the build neither enumerated nor refused")


@pytest.mark.parametrize("n,bound", ADMITTED)
def test_size_cap_admits_recorded_points(monkeypatch, n, bound):
    assert _guard_answer(monkeypatch, dualspace, build_dual_model.__wrapped__, n, bound)
    assert _guard_answer(monkeypatch, primal, primal.star_graph.__wrapped__, n, bound)


@pytest.mark.parametrize("n,bound", [(20, 50), (8, 11), (5, 52), (200, 1), (10**9, 0), (5, 10**100)])
def test_size_cap_refuses_large_models(monkeypatch, n, bound):
    assert not _guard_answer(monkeypatch, dualspace, build_dual_model.__wrapped__, n, bound)
    with pytest.raises(PreconditionViolated, match="size cap"):
        build_dual_model(n, bound)


@pytest.mark.parametrize("n,bound", [(20, 50), (5, 45), (200, 1), (10**9, 0), (5, 10**100)])
def test_size_cap_refuses_large_sub_ideal_graphs(monkeypatch, n, bound):
    assert not _guard_answer(monkeypatch, primal, primal.star_graph.__wrapped__, n, bound)
    with pytest.raises(PreconditionViolated, match="size cap"):
        primal.big_d(n, bound)


# --- inseparability ----------------------------------------------------------


def test_inseparable_points_reflexive():
    m = build_dual_model(5, 1)
    for p in list(m.space.points)[:4]:
        assert inseparable_points(m.space, p, p)


def test_inseparable_points_germ_vs_hull_class():
    m = build_dual_model(4, 2)
    assert inseparable_points(m.space, germ([1], 3), cls([1, 0], 4))
    assert not inseparable_points(m.space, germ([2], 3), cls([1, 0], 4))


def test_inseparable_points_class_pair_example():
    m = build_dual_model(4, 2)
    assert not inseparable_points(m.space, cls([1, 1], 4), cls([2, 2], 4))
    assert inseparable_points(m.space, cls([1, 1], 4), cls([1, -1], 4))


@pytest.mark.parametrize("n", range(3, 8))
def test_model_matches_signature_inseparability(n):
    m = build_dual_model(n, 2)
    sigs = enumerate_signatures(n, 2)
    for a in sigs:
        for b in sigs:
            assert inseparable_points(m.space, Point(CLASS_KIND, a), Point(CLASS_KIND, b)) == inseparable(a, b)


def test_germs_pairwise_separated():
    m = build_dual_model(5, 1)
    germs = sorted(germ_points(m), key=str)
    for i, a in enumerate(germs):
        for b in germs[i + 1 :]:
            assert not inseparable_points(m.space, a, b)


def test_unknown_point():
    m = build_dual_model(4, 1)
    with pytest.raises(UnknownPoint):
        distance(m, cls([5, 0], 4), cls([0, 0], 4))
    with pytest.raises(UnknownPoint):
        distance(m, cls([0, 0], 4), cls([1, 0], 5))


# --- separated points ---------------------------------------------------------


def test_no_separated_points_in_motion_models():
    # every germ's hull holds a class of the truncation and every class
    # restricts to some germ of it, so every point of every model of the
    # verification sweep's grid has a neighbor: the germ-mediation check
    # has no separated point to check
    for n, bound in product(range(3, 13), range(6)):
        assert separated_points(build_dual_model(n, bound)) == frozenset(), (n, bound)


def test_bound_zero_mutual_inseparability():
    m = build_dual_model(4, 0)
    (c,) = class_points(m)
    (g,) = germ_points(m)
    assert inseparable_points(m.space, c, g)
    assert separated_points(m) == frozenset()


def test_separated_implies_singleton_component():
    m = build_dual_model(6, 1)
    for p in separated_points(m):
        assert m.space.bfs([p]) == {p: 0}


# --- distance ----------------------------------------------------------------


def test_distance_extremal_examples():
    for n in (4, 5):
        m = build_dual_model(n, 1)
        d = distance(m, cls([0, 0], n), cls([1, 1], n))
        assert d == 2


def test_distance_self():
    m = build_dual_model(5, 1)
    assert distance(m, cls([1, 0], 5), cls([1, 0], 5)) == 0


def test_distance_n7_example():
    m = build_dual_model(7, 2)
    assert distance(m, cls([2, 1, 0], 7), cls([0, 0, 0], 7)) == 2


def test_distance_restriction_requires_class():
    m = build_dual_model(4, 1)
    with pytest.raises(PreconditionViolated):
        distance(m, germ([1], 3), cls([1, 1], 4))
    with pytest.raises(PreconditionViolated):
        distance(m, cls([1, 1], 4), germ([1], 3))


def test_germ_mediation_no_shortcuts():
    m = build_dual_model(6, 2)
    classes = sorted(class_points(m), key=str)
    for a in classes:
        full = m.space.bfs([a])
        restricted = m.classes.bfs([a])
        for b in classes:
            assert full.get(b, inf) == restricted.get(b, inf)


# --- orc and glimm -----------------------------------------------------------


def test_orc_values():
    assert components_and_orc(build_dual_model(5, 3)) == (1, 2)
    assert components_and_orc(build_dual_model(3, 3)) == (1, 1)


def test_orc_bound_zero_singleton():
    _, orc = components_and_orc(build_dual_model(6, 0))
    assert orc == 1


@pytest.mark.parametrize("n", range(3, 10))
def test_class_points_connected(n):
    count, _ = components_and_orc(build_dual_model(n, 1))
    assert count == 1


def test_glimm_partition_shape():
    m = build_dual_model(5, 2)
    part = glimm_partition(m)
    assert part.single_class_block
    assert part.class_blocks == 1
    germ_blocks = [b for b in part.blocks if len(b) == 1 and next(iter(b)).kind == GERM_KIND]
    assert len(germ_blocks) == len(germ_points(m))
    covered = frozenset().union(*part.blocks)
    assert covered == frozenset(m.space.points)


def test_glimm_partition_n3_one_class():
    part = glimm_partition(build_dual_model(3, 1))
    big = max(part.blocks, key=len)
    assert {p.sig.entries for p in big} == {(0,), (1,)}


def test_glimm_partition_bound_zero():
    part = glimm_partition(build_dual_model(7, 0))
    assert part.single_class_block


# --- the class graph -----------------------------------------------------------

# the models of the default verification sweep
SWEEP_MODELS = [(n, bound) for n in range(3, 10) for bound in range(1, 5)] + [(n, 1) for n in range(10, 13)]


@pytest.mark.parametrize("n,bound", SWEEP_MODELS)
def test_class_graph_is_the_space_cut_to_the_classes(n, bound):
    """The class graph holds the first `class_count` points with the space's
    rows cut to the classes, and its components and diameter are those of
    the search inside the class mask on the space's rows."""
    model = build_dual_model(n, bound)
    space, classes, mask = model.space, model.classes, model.class_mask
    assert classes.points == space.points[: model.class_count]
    for i in range(model.class_count):
        assert classes._adj[i] == space._adj[i] & mask
    layers = [top_down_layers(space._adj, 1 << i, mask) for i in range(model.class_count)]
    comps, left = [], mask
    while left:
        comp = sum(layers[(left & -left).bit_length() - 1])  # the layers are disjoint
        comps.append(comp)
        left &= ~comp
    assert classes.components() == tuple(comps)
    assert classes.diameter() == max(len(ls) - 1 for ls in layers)


def test_library_class_searches_build_no_class_vertex_table(tmp_path, capsys):
    """Every point lookup goes through the space: the class graph of a model
    that the cross-check, `distance --certificates`, `chain`, `chain --check`
    and `glimm_partition` searched holds no ids and no id table."""
    n, bound = 7, 3
    build_dual_model.cache_clear()
    constants.cross_check(n, bound)
    assert main(["distance", "--n", "7", "--bound", "3", "0,0,0", "3,3,3", "--certificates"]) == 0
    out = tmp_path / "chain.json"
    assert main(["chain", "--n", "7", "--bound", "3", "0,0,0", "3,3,3", "--output", str(out)]) == 0
    assert main(["chain", "--check", str(out)]) == 0
    model = build_dual_model(n, bound)
    glimm_partition(model)
    capsys.readouterr()
    assert "classes" in vars(model)
    assert not {"ids", "_number"} & set(vars(model.classes))


# --- layered search ------------------------------------------------------------


def top_down_layers(adj, sources, within, stop=0, radius=inf) -> list:
    """The reference for `Graph._layers`: the same search, always top-down,
    each layer the union of the rows of the one before less what was seen."""
    seen = layer = sources & within if radius >= 0 else 0
    out = []
    while layer:
        out.append(layer)
        if layer & stop or len(out) > radius:
            break
        rows = 0
        for i in range(len(adj)):
            if layer >> i & 1:
                rows |= adj[i]
        layer = rows & within & ~seen
        seen |= layer
    return out


@pytest.fixture
def bottom_up_calls(monkeypatch):
    """The number of bottom-up layers `_layers` finds, so that a test can
    show the bottom-up side ran."""
    calls = []
    meeting = dualspace._meeting
    monkeypatch.setattr(dualspace, "_meeting", lambda *args: calls.append(1) or meeting(*args))
    return calls


@pytest.mark.parametrize("n,bound", [(3, 1), (3, 40), (3, 90), (4, 3), (5, 4), (6, 2), (7, 2), (8, 1)])
def test_layers_match_top_down_on_models(n, bound, bottom_up_calls):
    model = build_dual_model(n, bound)
    for graph in (model.space, primal.star_graph(n, bound)):
        for i in range(len(graph.points)):
            assert list(graph._layers(1 << i)) == top_down_layers(graph._adj, 1 << i, graph._all)
    for i in range(model.class_count):  # a class keeps its number in the class graph
        assert list(model.classes._layers(1 << i)) == top_down_layers(model.space._adj, 1 << i, model.class_mask)
    assert bottom_up_calls


def test_layers_match_top_down_on_random_graphs(bottom_up_calls):
    # up to 150 vertices, so the rows span several 64-bit words
    rng = random.Random(2012)
    for _ in range(60):
        size = rng.randint(1, 150)
        density = rng.choice([0.01, 0.05, 0.2, 0.6])
        adj = [0] * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        graph = Graph(range(size), adj)
        for _ in range(20):
            # the search inside `within` runs on the subgraph it induces
            within = rng.choice([(1 << size) - 1, rng.getrandbits(size)])
            keep = _members(within)
            sub = induced(graph, within)
            sources = rng.choice([1 << rng.randrange(size), rng.getrandbits(size) & rng.getrandbits(size)])
            stop = rng.choice([0, rng.getrandbits(size) & rng.getrandbits(size)])
            radius = rng.choice([-1, 0, 1, 2, inf])
            want = top_down_layers(adj, sources, within, stop, radius)
            got = [unpack(layer, keep) for layer in sub._layers(pack(sources, keep), pack(stop, keep), radius)]
            assert got == want, (size, sources, within, stop, radius)
    assert len(bottom_up_calls) > 100


@pytest.mark.parametrize("mask", [0, 1, 2, 1 << 70, 0b1011, (1 << 200) - 1, (1 << 130) | 1 << 3])
def test_members_lists_the_set_bits(mask):
    assert _members(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


# --- diameter ----------------------------------------------------------------


def per_source_diameter(graph) -> int:
    """The oracle for `Graph.diameter`: the largest eccentricity, found by
    one breadth-first search from every vertex."""
    return max((len(list(graph._layers(1 << i))) - 1 for i in range(len(graph.points))), default=0)


def family_edges(kind, size):
    if kind == "complete":
        return [(i, j) for i in range(size) for j in range(i + 1, size)]
    path = [(i, i + 1) for i in range(size - 1)]
    return path + [(size - 1, 0)] if kind == "cycle" and size >= 3 else path


@st.composite
def family_graphs(draw):
    """A disjoint union of paths, cycles, complete graphs and singletons,
    with a few extra edges and the vertex numbers shuffled, or its subgraph
    induced by a vertex subset: empty, or any subset, which may cut
    components apart."""
    parts = draw(st.lists(st.tuples(st.sampled_from(["path", "cycle", "complete"]), st.integers(1, 9)), max_size=5))
    edges, size = [], 0
    for kind, part in parts:
        edges += [(size + i, size + j) for i, j in family_edges(kind, part)]
        size += part
    if size:
        edges += draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=3))
    order = draw(st.permutations(range(size)))
    adjacency = [0] * size
    for i, j in edges:
        if i != j:
            adjacency[order[i]] |= 1 << order[j]
            adjacency[order[j]] |= 1 << order[i]
    within = draw(st.none() | st.just(0) | st.integers(0, (1 << size) - 1))
    graph = Graph(range(size), adjacency)
    return graph if within is None else induced(graph, within)


@given(family_graphs())
@settings(max_examples=300, deadline=None)
def test_diameter_matches_one_search_per_vertex(graph):
    assert graph.diameter() == per_source_diameter(graph)


@pytest.mark.parametrize("n,bound", [(8, 5), (5, 12), (6, 6), (24, 2), (3, 4)])
def test_model_diameters_match_one_search_per_vertex(n, bound):
    model = build_dual_model(n, bound)
    assert model.classes.diameter() == per_source_diameter(model.classes)
    assert model.space.diameter() == per_source_diameter(model.space)
    star = primal.star_graph(n, bound)
    assert star.diameter() == per_source_diameter(star)


# --- export ------------------------------------------------------------------


def test_json_roundtrip():
    m = build_dual_model(4, 1)
    payload = json.loads(json.dumps(dual_model_to_json(m)))
    assert payload == dual_model_to_json(m)
    assert payload["n"] == 4 and payload["bound"] == 1


def test_point_from_id():
    m = build_dual_model(4, 1)
    assert point_from_id(m, "class:1,-1") == cls([1, -1], 4)
    assert point_from_id(m, "germ:0") == germ([0], 3)
    with pytest.raises(UnknownPoint):
        point_from_id(m, "class:9,9")


def parse_point_id(model, point_id):
    """A point id read by parsing its kind and entries: the check that each
    canonical id spells its own point."""
    if not isinstance(point_id, str):
        raise TypeError(f"point id {point_id!r} is not a string")
    kind, _, rest = point_id.partition(":")
    if kind not in (CLASS_KIND, GERM_KIND):
        raise UnknownPoint(f"bad point id {point_id!r}")
    ctx = signatures.GroupContext(model.n if kind == CLASS_KIND else model.n - 1)
    p = Point(kind, signatures.Signature(signatures.parse_entries(rest), ctx))
    model.space._mask((p,))
    return p


@pytest.mark.parametrize("n, bound", [(4, 1), (5, 12), (8, 5), (24, 2)])
def test_point_from_id_returns_the_model_point(n, bound):
    m = build_dual_model(n, bound)
    assert m.space.ids == tuple(str(p) for p in m.space.points)
    for p in m.space.points:
        assert point_from_id(m, str(p)) is p
        assert parse_point_id(m, str(p)) == p


def _entry_text(e: int) -> st.SearchStrategy:
    """Spellings of the integer e that `int` accepts: padding, a sign,
    leading zeros, an underscore."""
    digits = str(abs(e))
    sign = "-" if e < 0 else ""
    return st.sampled_from([
        f"{sign}{digits}",
        f" {sign}{digits}",
        f"{sign}{digits} ",
        f"{sign or '+'}{digits}",
        f"{sign}0{digits}",
        f"{sign}{digits[0]}_{digits[1:]}" if len(digits) > 1 else f"{sign}{digits}",
        f"{sign}{digits}_0",
    ])


@st.composite
def point_ids(draw):
    """A model and a string, or another value, to read as one of its ids."""
    n, bound = draw(st.sampled_from([(3, 2), (4, 1), (5, 2), (6, 2)]))
    m = build_dual_model(n, bound)
    shape = draw(st.sampled_from(["canonical", "spelled", "junk", "non-string"]))
    if shape == "canonical":
        return m, draw(st.sampled_from(m.space.ids))
    if shape == "non-string":
        return m, draw(st.one_of(st.none(), st.integers(), st.binary(max_size=4), st.just(m.space.points[0])))
    if shape == "junk":
        return m, draw(st.text(alphabet="classgerm:,-+_0123456789 x", max_size=12))
    kind = draw(st.sampled_from([CLASS_KIND, GERM_KIND, "Class", "germs", "", " class"]))
    length = draw(st.integers(0, n // 2 + 1))
    entries = draw(st.lists(st.integers(-bound - 2, bound + 2), min_size=length, max_size=length))
    texts = [draw(_entry_text(e)) for e in entries]
    sep = draw(st.sampled_from([":", ": ", "", "::"]))
    return m, kind + sep + draw(st.sampled_from([",", ", ", " ,"])).join(texts)


@given(point_ids())
@example((build_dual_model(4, 1), "class: 1,0"))  # non-canonical spellings of model points
@example((build_dual_model(4, 1), "class:+1,0"))
@example((build_dual_model(4, 10), "class:1_0,0"))
@example((build_dual_model(4, 1), "class:9,9"))  # outside the model
@settings(max_examples=400, deadline=None)
def test_point_from_id_matches_parse_oracle(case):
    """A canonical id gives the model's own point; any other string raises
    UnknownPoint, and any other value TypeError."""
    m, point_id = case
    if point_id in m.space.ids:
        assert point_from_id(m, point_id) is m.space.points[m.space.ids.index(point_id)]
    else:
        with pytest.raises(UnknownPoint if isinstance(point_id, str) else TypeError):
            point_from_id(m, point_id)


def dual_model_to_json_oracle(model):
    """The JSON export as written before the id table: every id formatted
    per mention."""
    space = model.space
    return {
        "n": model.n,
        "bound": model.bound,
        "points": [{"id": str(p), "kind": p.kind, "entries": list(p.sig.entries)} for p in space.points],
        "closures": {str(p): sorted(str(q) for q in closure(space, p)) for p in space.points},
        "edges": sorted([str(p), str(q)] for p, q in graph_edges(space)),
    }


def dual_model_to_dot_oracle(model):
    """The dot export as written before the id table."""
    space = model.space
    lines = [f'digraph "dual_so{model.n}_bound{model.bound}" {{']
    for p in space.points:
        shape = "ellipse" if p.kind == CLASS_KIND else "box"
        lines.append(f'  "{p}" [shape={shape}];')
    for p, q in graph_edges(space):
        lines.append(f'  "{p}" -> "{q}" [dir=none];')
    for p in space.points:
        for q in sorted(closure(space, p) - {p}, key=lambda q: number(space, q)):
            lines.append(f'  "{p}" -> "{q}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, bound", [(4, 1), (5, 2), (7, 3), (5, 12), (24, 2)])
def test_exports_match_per_mention_oracle(n, bound):
    m = build_dual_model(n, bound)
    assert json.dumps(dual_model_to_json(m), indent=2) == json.dumps(dual_model_to_json_oracle(m), indent=2)
    assert dual_model_to_dot(m) == dual_model_to_dot_oracle(m)


def test_dot_export_shapes():
    m = build_dual_model(4, 1)
    dot = dual_model_to_dot(m)
    assert dot.count("[shape=ellipse]") == 4
    assert dot.count("[shape=box]") == 2
    assert "[dir=none]" in dot and "[style=dashed]" in dot
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


@pytest.mark.parametrize("n, bound", [(3, 12), (6, 2), (7, 3), (12, 1)])
def test_sorted_ids_match_sorting_the_member_ids(n, bound):
    space = build_dual_model(n, bound).space
    rng = random.Random(n)
    full = space._all
    masks = [0, full, 1, 1 << len(space.points) - 1] + [rng.getrandbits(len(space.points)) for _ in range(20)]
    for mask in masks:
        assert space._sorted_ids(mask) == sorted(space.ids[i] for i in _members(mask))
    for beyond in (full + 1, -1):
        with pytest.raises(UnknownPoint):
            space._sorted_ids(beyond)


# --- point hashing ---------------------------------------------------------------

_PICKLE_SCRIPT = """
import pickle, sys
from motiondual.dualspace import CLASS_KIND, Point
from motiondual.signatures import validate
p = Point(CLASS_KIND, validate((2, -1), 4))
print(pickle.dumps(p).hex())
"""


def _pickled_in_subprocess(hashseed):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT], capture_output=True, text=True, env=env, check=True)
    return bytes.fromhex(proc.stdout.strip())


def test_equal_points_hash_equal():
    a, b = cls([2, -1], 4), cls([2, -1], 4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert germ([2, 1], 5) != cls([2, 1], 5)
    assert len({a, b, germ([2, 1], 5), cls([2, 1], 5)}) == 3


def test_germ_and_line_points_of_one_signature_differ():
    sig = validate([2, 1], 5)
    points = [Point(kind, sig) for kind in (CLASS_KIND, GERM_KIND, LINE_KIND)]
    g, line = points[1:]
    assert g != line and hash(g) != hash(line) and str(g) != str(line)
    assert len({hash(p) for p in points}) == len({str(p) for p in points}) == 3
    assert len({*points, Point(LINE_KIND, validate([2, 1], 5))}) == 3


def test_pickled_point_is_found_as_a_dict_key():
    p = cls([2, -1], 4)
    table = {p: "here", germ([2, 1], 5): "germ"}
    assert table[pickle.loads(pickle.dumps(p))] == "here"
    # a point pickled by a process with another string-hash salt: its hash is computed again here
    assert table[pickle.loads(_pickled_in_subprocess(3))] == "here"
