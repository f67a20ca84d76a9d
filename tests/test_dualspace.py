import json
import os
import pickle
import random
import subprocess
import sys
from math import inf

import pytest

from motiondual import dualspace, primal, signatures
from motiondual.dualspace import (
    CLASS_KIND,
    GERM_KIND,
    DualModel,
    FiniteT0Space,
    Point,
    build_dual_model,
    components_and_orc,
    distance,
    dual_model_from_json,
    dual_model_to_dot,
    dual_model_to_json,
    glimm_partition,
    point_from_id,
    separated_points,
)
from motiondual.errors import PreconditionViolated, UnknownPoint
from motiondual.signatures import enumerate_signatures, inseparable, restricts_to, validate


def cls(entries, n):
    return Point(CLASS_KIND, validate(entries, n))


def germ(entries, n):
    return Point(GERM_KIND, validate(entries, n))


# --- space plumbing ----------------------------------------------------------


def test_space_rejects_non_t0():
    a, b = "a", "b"
    with pytest.raises(ValueError):
        FiniteT0Space({a: {a, b}, b: {a, b}})


def test_space_rejects_non_reflexive():
    with pytest.raises(ValueError):
        FiniteT0Space({"a": set()})


def test_space_rejects_non_transitive():
    # cl(c) = {c, b} but cl(b) = {b, a}: closing c again would pick up a
    with pytest.raises(ValueError):
        FiniteT0Space({"a": {"a"}, "b": {"a", "b"}, "c": {"b", "c"}})


def test_discrete_two_point_space():
    sp = FiniteT0Space({"a": {"a"}, "b": {"b"}})
    assert not sp.inseparable("a", "b")
    assert sp.distance("a", "b") == inf
    assert len(sp.components()) == 2


# --- model construction ------------------------------------------------------


def test_build_counts_n3():
    m = build_dual_model(3, 1)
    assert len(m.class_points) == 2
    assert sorted(g.sig.entries for g in m.germ_points) == [(-1,), (0,), (1,)]


def test_build_counts_n4():
    m = build_dual_model(4, 1)
    assert len(m.class_points) == 4
    assert len(m.germ_points) == 2


def test_build_rejects_small_n():
    with pytest.raises(PreconditionViolated):
        build_dual_model(2, 1)


def test_build_accepts_bound_zero():
    m = build_dual_model(5, 0)
    assert len(m.class_points) == 1 and len(m.germ_points) == 1


def test_germ_closure_is_hull():
    m = build_dual_model(4, 1)
    g = m.germ_point(validate([1], 3))
    cl = m.space.closure(g)
    assert g in cl
    assert {p.sig.entries for p in cl if p.kind == CLASS_KIND} == {(1, -1), (1, 0), (1, 1)}


def test_class_points_closed_and_discrete():
    m = build_dual_model(6, 1)
    assert m.space.is_closed(m.class_points)
    for p in m.class_points:
        assert m.space.closure(p) == frozenset([p])
    # every subset of class points is closed
    some = frozenset(list(m.class_points)[:3])
    assert m.space.is_closed(some)


def test_closure_of_examples():
    m = build_dual_model(4, 1)
    assert m.space.closure_of([]) == frozenset()
    c = cls([1, 1], 4)
    assert m.space.closure_of([c]) == frozenset([c])
    g = germ([0], 3)
    assert m.space.closure_of([g]) > frozenset([g])


@pytest.mark.parametrize("n,bound", [(n, b) for n in range(3, 9) for b in (0, 1, 2)])
def test_mask_methods_match_closure_map(n, bound):
    # the closure map of the model, rebuilt from `restricts_to`, and every
    # set operation taken by its frozenset definition
    m = build_dual_model(n, bound)
    space = m.space
    pts = space.points
    cl = {
        p: frozenset([p]) | {c for c in m.class_points if p.kind == GERM_KIND and restricts_to(c.sig, p.sig)}
        for p in pts
    }
    mo = {x: frozenset(q for q in pts if x in cl[q]) for x in pts}

    def union(table, s):
        return frozenset().union(*(table[p] for p in s))

    rng = random.Random(f"{n}:{bound}")
    samples = [frozenset(), frozenset(pts), m.class_points, m.germ_points]
    samples += [frozenset(rng.sample(pts, rng.randint(1, len(pts)))) for _ in range(20)]
    samples += list(cl.values()) + list(mo.values())
    for x in pts:
        assert space.closure(x) == cl[x]
        assert space.min_open(x) == mo[x]
        assert set(space.neighbors(x)) == {y for y in pts if y != x and mo[x] & mo[y]}
        for y in pts:
            assert space.inseparable(x, y) == bool(mo[x] & mo[y])
    for s in samples:
        assert space.closure_of(s) == union(cl, s)
        assert space.min_open_of(s) == union(mo, s)
        assert space.is_closed(s) == (union(cl, s) == s)


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
        assert space.closure(Point(CLASS_KIND, c)) == {Point(CLASS_KIND, c)}
    for g in germs:
        hull = {Point(CLASS_KIND, c) for c in classes if restricts_to(c, g)}
        assert space.closure(Point(GERM_KIND, g)) == hull | {Point(GERM_KIND, g)}, g


def test_build_calls_no_restriction_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the model build called a restriction oracle")

    assert not hasattr(dualspace, "restricts_to")
    for name in ("restricts_to", "branch", "branch_box"):
        monkeypatch.setattr(signatures, name, forbidden)
    model = build_dual_model.__wrapped__(6, 3)
    assert len(model.space.closure(germ([3, 3], 5))) == 1 + 7  # (3,3,m) for |m| <= 3


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
    assert _guard_answer(monkeypatch, primal, primal.sub_ideals, n, bound)


@pytest.mark.parametrize("n,bound", [(20, 50), (8, 11), (5, 52), (200, 1), (10**9, 0), (5, 10**100)])
def test_size_cap_refuses_large_models(monkeypatch, n, bound):
    assert not _guard_answer(monkeypatch, dualspace, build_dual_model.__wrapped__, n, bound)
    with pytest.raises(PreconditionViolated, match="size cap"):
        build_dual_model(n, bound)


@pytest.mark.parametrize("n,bound", [(20, 50), (5, 45), (200, 1), (10**9, 0), (5, 10**100)])
def test_size_cap_refuses_large_sub_ideal_graphs(monkeypatch, n, bound):
    assert not _guard_answer(monkeypatch, primal, primal.sub_ideals, n, bound)
    with pytest.raises(PreconditionViolated, match="size cap"):
        primal.big_d(n, bound)


# --- inseparability ----------------------------------------------------------


def test_inseparable_points_reflexive():
    m = build_dual_model(5, 1)
    for p in list(m.space.points)[:4]:
        assert m.space.inseparable(p, p)


def test_inseparable_points_germ_vs_hull_class():
    m = build_dual_model(4, 2)
    assert m.space.inseparable(germ([1], 3), cls([1, 0], 4))
    assert not m.space.inseparable(germ([2], 3), cls([1, 0], 4))


def test_inseparable_points_class_pair_example():
    m = build_dual_model(4, 2)
    assert not m.space.inseparable(cls([1, 1], 4), cls([2, 2], 4))
    assert m.space.inseparable(cls([1, 1], 4), cls([1, -1], 4))


@pytest.mark.parametrize("n", range(3, 8))
def test_model_matches_signature_inseparability(n):
    m = build_dual_model(n, 2)
    sigs = enumerate_signatures(n, 2)
    for a in sigs:
        for b in sigs:
            assert m.space.inseparable(Point(CLASS_KIND, a), Point(CLASS_KIND, b)) == inseparable(a, b)


def test_germs_pairwise_separated():
    m = build_dual_model(5, 1)
    germs = sorted(m.germ_points, key=str)
    for i, a in enumerate(germs):
        for b in germs[i + 1 :]:
            assert not m.space.inseparable(a, b)


def test_unknown_point():
    m = build_dual_model(4, 1)
    with pytest.raises(UnknownPoint):
        m.space.inseparable(cls([5, 0], 4), cls([0, 0], 4))


# --- separated points ---------------------------------------------------------


def test_no_separated_points_in_motion_models():
    # every germ keeps at least one class in its closure within the bound,
    # so the model relation leaves nothing separated; the op computes this
    for n, bound in [(3, 1), (4, 1), (5, 2)]:
        assert separated_points(build_dual_model(n, bound)) == frozenset()


def test_bound_zero_mutual_inseparability():
    m = build_dual_model(4, 0)
    (c,) = m.class_points
    (g,) = m.germ_points
    assert m.space.inseparable(c, g)
    assert separated_points(m) == frozenset()


def test_separated_implies_singleton_component():
    m = build_dual_model(6, 1)
    for p in separated_points(m):
        assert m.space.bfs([p]) == {p: 0}


# --- distance ----------------------------------------------------------------


def test_distance_extremal_examples():
    for n in (4, 5):
        m = build_dual_model(n, 1)
        d = distance(m, cls([0, 0], n), cls([1, 1], n), restrict_to_class=True)
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
        distance(m, germ([1], 3), cls([1, 1], 4), restrict_to_class=True)


def test_germ_mediation_no_shortcuts():
    m = build_dual_model(6, 2)
    classes = sorted(m.class_points, key=str)
    for a in classes:
        full = m.space.bfs([a])
        restricted = m.space.bfs([a], m.class_points)
        for b in classes:
            assert full.get(b, inf) == restricted.get(b, inf)


# --- orc and glimm -----------------------------------------------------------


def test_orc_values():
    comps, orc = components_and_orc(build_dual_model(5, 3))
    assert len(comps) == 1 and orc == 2
    comps, orc = components_and_orc(build_dual_model(3, 3))
    assert len(comps) == 1 and orc == 1


def test_orc_bound_zero_singleton():
    _, orc = components_and_orc(build_dual_model(6, 0))
    assert orc == 1


@pytest.mark.parametrize("n", range(3, 10))
def test_class_points_connected(n):
    comps, _ = components_and_orc(build_dual_model(n, 1))
    assert len(comps) == 1


def test_glimm_partition_shape():
    m = build_dual_model(5, 2)
    part = glimm_partition(m)
    assert part.single_class_block
    assert part.class_blocks == 1
    germ_blocks = [b for b in part.blocks if len(b) == 1 and next(iter(b)).kind == GERM_KIND]
    assert len(germ_blocks) == len(m.germ_points)
    covered = frozenset().union(*part.blocks)
    assert covered == frozenset(m.space.points)


def test_glimm_partition_n3_one_class():
    part = glimm_partition(build_dual_model(3, 1))
    big = max(part.blocks, key=len)
    assert {p.sig.entries for p in big} == {(0,), (1,)}


def test_glimm_partition_bound_zero():
    part = glimm_partition(build_dual_model(7, 0))
    assert part.single_class_block


# --- export ------------------------------------------------------------------


def test_json_roundtrip():
    m = build_dual_model(4, 1)
    payload = json.loads(json.dumps(dual_model_to_json(m)))
    m2 = dual_model_from_json(payload)
    assert m2.n == 4 and m2.bound == 1


def test_point_from_id():
    m = build_dual_model(4, 1)
    assert point_from_id(m, "class:1,-1") == cls([1, -1], 4)
    assert point_from_id(m, "germ:0") == germ([0], 3)
    with pytest.raises(UnknownPoint):
        point_from_id(m, "class:9,9")


def test_dot_export_shapes():
    m = build_dual_model(4, 1)
    dot = dual_model_to_dot(m)
    assert dot.count("[shape=ellipse]") == 4
    assert dot.count("[shape=box]") == 2
    assert "[dir=none]" in dot and "[style=dashed]" in dot
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


# --- point hashing ---------------------------------------------------------------

_HASH_SCRIPT = """
import pickle, sys
from motiondual.dualspace import CLASS_KIND, Point
from motiondual.signatures import validate
p = Point(CLASS_KIND, validate((2, -1), 4))
print(hash(p))
print(pickle.dumps(p).hex())
"""


def _in_subprocess(hashseed):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.split()


def test_equal_points_hash_equal():
    a, b = cls([2, -1], 4), cls([2, -1], 4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert germ([2, 1], 5) != cls([2, 1], 5)
    assert len({a, b, germ([2, 1], 5), cls([2, 1], 5)}) == 3


def test_point_hash_does_not_depend_on_the_hash_seed():
    assert _in_subprocess(1)[0] == _in_subprocess(2)[0] == str(hash(cls([2, -1], 4)))


def test_pickled_point_is_found_as_a_dict_key():
    p = cls([2, -1], 4)
    table = {p: "here", germ([2, 1], 5): "germ"}
    assert table[pickle.loads(pickle.dumps(p))] == "here"
    # a point pickled by a process with another string-hash salt, as a --jobs worker sends it
    assert table[pickle.loads(bytes.fromhex(_in_subprocess(3)[1]))] == "here"
