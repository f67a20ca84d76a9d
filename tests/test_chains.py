import json
import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiondual import chains, constants, verification
from motiondual.chains import (
    Chain,
    chain_from_json,
    chain_lower_bound,
    chain_to_json,
    find_admissible_chain,
    is_admissible,
    separate,
    validate_chain,
)
from motiondual.dualspace import (
    CLASS_KIND,
    GERM_KIND,
    DualModel,
    Graph,
    Point,
    _union,
    build_dual_model,
    distance,
    point_from_id,
)
from motiondual.errors import CertificationError, PreconditionViolated, UnknownPoint
from motiondual.signatures import count_signatures, validate
from test_dualspace import (
    class_points,
    closure,
    germ_points,
    graph_distance,
    inseparable_points,
    neighbors,
    number,
    toy_space,
)


def cls(entries, n):
    return Point(CLASS_KIND, validate(entries, n))


def all_points(model):
    return frozenset(model.space.points)


def toy_model(closures):
    """A model on the space of a closure map written out point by point, in
    which every point is a class."""
    space = toy_space(closures)
    return DualModel(space, 0, 0, len(space.points))


def chain_of(model, sets):
    """The chain of the given point sets over the model's points."""
    return Chain(model.space, tuple(map(model.space._mask, sets)))


def point_sets(chain):
    """The chain's sets as point sets."""
    return tuple(map(chain.space._set, chain.masks))


# --- neighborhoods ------------------------------------------------------------


def ball(graph, s, radius):
    """The points within `radius` of the point set `s`: the graph's mask
    ball, which the chain construction runs on."""
    return graph._set(graph._ball(graph._mask(s), radius))


def test_neighborhood_zero_is_identity():
    m = build_dual_model(4, 2)
    y = frozenset([cls([1, 1], 4)])
    assert ball(m.space, y, 0) == y


def test_neighborhood_saturates_at_diameter():
    m = build_dual_model(5, 1)
    y = frozenset([cls([0, 0], 5)])
    big = ball(m.classes, y, 10)
    assert big == class_points(m)  # one component


def test_neighborhood_class_restricted_adjacency_scan():
    m = build_dual_model(4, 2)
    y = frozenset([cls([2, 2], 4)])
    got = ball(m.classes, y, 1)
    expect = {p for p in class_points(m) if inseparable_points(m.space, p, cls([2, 2], 4))}
    assert got == frozenset(expect) | y


def test_neighborhood_monotone_and_additive():
    m = build_dual_model(6, 1)
    y = frozenset([cls([0, 0, 0], 6)])
    prev = y
    for n in range(4):
        cur = ball(m.space, y, n)
        assert prev <= cur
        prev = cur
    two_then_one = ball(m.space, ball(m.space, y, 2), 1)
    assert two_then_one == ball(m.space, y, 3)


# --- chain validation ---------------------------------------------------------


def test_trivial_chain_valid():
    m = build_dual_model(4, 1)
    rep = validate_chain(m, chain_of(m, [all_points(m)]))
    assert rep.valid


def test_chain_overlap_violation_named():
    m = build_dual_model(4, 1)
    pts = all_points(m)
    rep = validate_chain(m, chain_of(m, [pts, pts, pts]))
    assert not rep.valid
    assert any("1 and 3" in v for v in rep.violations)


def test_chain_closedness_violation():
    m = build_dual_model(4, 1)
    g = next(iter(germ_points(m)))
    open_set = all_points(m) - closure(m.space, g) | {g}
    rep = validate_chain(m, chain_of(m, [open_set, all_points(m) - open_set]))
    assert not rep.valid


# --- admissibility and the lower bound ----------------------------------------


def test_single_component_chain_admissible():
    m = build_dual_model(5, 1)
    ok, x, y = is_admissible(m, chain_of(m, [all_points(m)]))
    assert ok and x is not None and y is not None


@pytest.mark.parametrize("n,bound", [(4, 1), (5, 2)])
def test_one_set_chain_witnesses_are_distinct(n, bound):
    m = build_dual_model(n, bound)
    chain = chain_of(m, [all_points(m)])
    ok, x, y = is_admissible(m, chain)
    assert ok and x != y
    assert chain_lower_bound(m, chain, x, y) == 1


def test_one_set_chain_on_a_lone_class_is_not_admissible():
    m = build_dual_model(3, 0)
    assert m.class_count == 1
    assert is_admissible(m, chain_of(m, [all_points(m)])) == (False, None, None)


def test_two_component_chain_not_admissible():
    m = toy_model({"a": {"a"}, "b": {"b"}})
    chain = chain_of(m, [{"a"}, {"b"}])
    assert validate_chain(m, chain).valid
    ok, x, y = is_admissible(m, chain)
    assert not ok and x is None and y is None


def test_chain_lower_bound_extremal_n7():
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3)
    assert chain.length == 3
    assert chain_lower_bound(m, chain, x, y) == 3
    # the bound is tight here
    assert distance(m, x, y) == 3


def test_chain_lower_bound_length_one():
    m = build_dual_model(3, 1)
    x, y = cls([0], 3), cls([1], 3)
    assert chain_lower_bound(m, chain_of(m, [all_points(m)]), x, y) == 1
    with pytest.raises(PreconditionViolated):
        chain_lower_bound(m, chain_of(m, [all_points(m)]), x, x)


@pytest.mark.parametrize("flag", [False, None, 1])
def test_chain_lower_bound_refuses_an_unrestricted_chain(flag):
    # the keyword is kept for the flag `chain_from_json` returns, always True
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3)
    assert chain_lower_bound(m, chain, x, y, restrict_to_class=True) == 3
    with pytest.raises(PreconditionViolated, match="chains are class-restricted"):
        chain_lower_bound(m, chain, x, y, restrict_to_class=flag)


def test_chain_lower_bound_checks_membership():
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3)
    with pytest.raises(PreconditionViolated):
        chain_lower_bound(m, chain, y, x)


# --- separation ----------------------------------------------------------------


def test_separate_clopen_components():
    got = separate(toy_model({"a": {"a"}, "b": {"b"}}), ["a"], ["b"])
    assert got == (frozenset(["a"]), frozenset(["b"]))


def test_separate_adjacent_fails():
    m = build_dual_model(4, 1)
    assert separate(m, [cls([1, 1], 4)], [cls([1, -1], 4)]) is None


def test_separate_matches_distance_two():
    m = build_dual_model(5, 1)
    y, z = cls([0, 0], 5), cls([1, 1], 5)
    assert graph_distance(m.space, y, z) >= 2
    got = separate(m, [y], [z])
    assert got is not None
    u, v = got
    assert y in u and z in v and not (u & v)


def test_separate_criterion_agrees_everywhere():
    # separate() itself asserts the agreement; exercise it on many pairs
    m = build_dual_model(6, 1)
    pts = sorted(m.space.points, key=str)
    for a in pts[::2]:
        for b in pts[::2]:
            separate(m, [a], [b])


# --- chain construction ---------------------------------------------------------


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_find_admissible_chain_extremal(n):
    m = build_dual_model(n, 1)
    k = n // 2
    x, y = cls([0] * k, n), cls([1] * k, n)
    chain = find_admissible_chain(m, [x], [y], k)
    rep = validate_chain(m, chain)
    assert rep.valid
    assert chain.length == k
    sets = point_sets(chain)
    assert frozenset([x]) <= sets[0] - sets[1]
    assert frozenset([y]) <= sets[-1] - sets[-2]
    ok, wx, wy = is_admissible(m, chain)
    assert ok
    assert chain_lower_bound(m, chain, wx, wy) == k


def test_find_admissible_chain_k2():
    m = build_dual_model(5, 2)
    x, y = cls([0, 0], 5), cls([2, 2], 5)
    chain = find_admissible_chain(m, [x], [y], 2)
    assert chain.length == 2 and validate_chain(m, chain).valid


def test_find_admissible_chain_distance_too_small():
    m = build_dual_model(5, 1)
    x, y = cls([0, 0], 5), cls([1, 0], 5)
    with pytest.raises(PreconditionViolated):
        find_admissible_chain(m, [x], [y], 2)


def test_chain_lemma_random_pairs_never_violated():
    rng = random.Random(11)
    for n in (5, 6, 7):
        m = build_dual_model(n, 2)
        classes = sorted(class_points(m), key=str)
        done = 0
        while done < 10:
            xs = frozenset(rng.sample(classes, rng.randint(1, 3)))
            ys = frozenset(rng.sample(classes, rng.randint(1, 3)))
            d = RefSpace(m).set_distance(xs, ys, class_points(m))
            if d == inf or d < 2:
                continue
            k = rng.randint(2, int(d))
            chain = find_admissible_chain(m, xs, ys, k)
            ok, wx, wy = is_admissible(m, chain)
            assert ok
            assert chain_lower_bound(m, chain, wx, wy) == k
            done += 1


def test_chain_roundtrip_json():
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3)
    payload = chain_to_json(m, chain, x, y)
    chain2, x2, y2, restrict = chain_from_json(m, payload)
    assert chain2 == chain and x2 == x and y2 == y and restrict


@pytest.mark.parametrize("n, bound", [(8, 5), (5, 12), (6, 6), (24, 2)])
def test_chain_json_reads_back_model_points(n, bound):
    m = build_dual_model(n, bound)
    payload = json.loads(json.dumps(constants.cross_check(n, bound).to_dict()))["certificates"]["chain"]
    chain, x, y, restrict = chain_from_json(m, payload)
    own = m.space.points
    for p in (x, y, *(p for s in point_sets(chain) for p in s)):
        assert own[number(m.space, p)] is p
    assert validate_chain(m, chain).valid
    assert chain_lower_bound(m, chain, x, y, restrict_to_class=restrict) == chain.length
    assert chain_to_json(m, chain, x, y) == payload


# --- property (1) ----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_property1_witness(n):
    assert verification._property1_violation(build_dual_model(n, 2)) == ""


def test_property1_empty_sample_closed():
    m = build_dual_model(4, 1)
    empty = m.space._ball(0, 1)
    assert empty == 0 == _union(m.space._closure, empty)


# --- reference oracle: the chain code on frozensets of points -------------------
#
# The library keeps every chain set as a bitmask.  These functions are the
# same algorithms on point sets, and the mask-native functions must agree
# with them exactly: the same sets, violations in the same order, the same
# witnesses and the same errors.  They read a space only through its
# per-point maps `closure(p)` and `neighbors(p)`, and take the closures,
# minimal open sets, balls and distances of point sets by frozenset unions
# and a plain breadth-first search, so they share no set algebra and no
# search with the library.


class RefSpace:
    """The topology of a space (or of a dual model's space) as frozensets."""

    def __init__(self, model):
        space = model.space
        self.points = space.points
        self.order = {p: i for i, p in enumerate(self.points)}
        self.cl = {p: closure(space, p) for p in self.points}
        self.nb = {p: frozenset(neighbors(space, p)) for p in self.points}
        # minimal open set of x: all q whose closure contains x
        mo = {p: set() for p in self.points}
        for q, c in self.cl.items():
            for x in c:
                mo[x].add(q)
        self.mo = {p: frozenset(s) for p, s in mo.items()}

    def known(self, s):
        for p in s:
            if p not in self.cl:
                raise UnknownPoint(f"{p} is not a point of this space")
        return frozenset(s)

    def closure_of(self, s):
        return frozenset().union(*(self.cl[p] for p in self.known(s)))

    def min_open_of(self, s):
        return frozenset().union(*(self.mo[p] for p in self.known(s)))

    def distances(self, sources, within=None):
        """Breadth-first distances from the point set inside `within`."""
        inside = self.cl.keys() if within is None else within
        dist = {p: 0 for p in self.known(sources) if p in inside}
        frontier = list(dist)
        while frontier:
            step = []
            for p in frontier:
                for q in self.nb[p]:
                    if q in inside and q not in dist:
                        dist[q] = dist[p] + 1
                        step.append(q)
            frontier = step
        return dist

    def ball(self, s, radius):
        return frozenset(p for p, d in self.distances(s).items() if d <= radius)

    def set_distance(self, xs, ys, within=None):
        dist = self.distances(xs, within)
        return min((dist[y] for y in self.known(ys) if y in dist), default=inf)


def ref_space(model):
    return model if isinstance(model, RefSpace) else RefSpace(model)


def ref_violations(model, chain):
    space = ref_space(model)
    sets = point_sets(chain)
    bad = []
    n = len(sets)
    if n == 0:
        return ("chain has no sets",)
    if n > len(space.points):
        return (f"chain has {n} sets, more than the {len(space.points)} points of the space",)
    for i, s in enumerate(map(space.known, sets), start=1):
        if space.closure_of(s) != s:
            bad.append(f"set {i} is not closed")
    if frozenset().union(*sets) != frozenset(space.points):
        bad.append("union of the sets does not cover the space")
    overlaps = []
    for i in range(n):
        for j in range(i + 2, n):
            if sets[i] & sets[j]:
                overlaps.append(f"sets {i + 1} and {j + 1} overlap")
    if len(overlaps) > 1:  # the first pair and a count of the rest
        overlaps = [f"{overlaps[0]}, and {len(overlaps) - 1} more non-consecutive pairs"]
    bad += overlaps
    if n > 1:
        if not sets[0] - sets[1]:
            bad.append("first set minus second set is empty")
        if not sets[-1] - sets[-2]:
            bad.append("last set minus second-to-last set is empty")
    return tuple(bad)


def ref_is_admissible(model, chain):
    bad = ref_violations(model, chain)
    if bad:
        raise PreconditionViolated("chain is not valid: " + "; ".join(bad))
    space = ref_space(model)
    within = class_points(model)
    sets = point_sets(chain)
    if len(sets) == 1:
        xs = ys = sets[0] & within
    else:
        xs, ys = (sets[0] - sets[1]) & within, (sets[-1] - sets[-2]) & within
    xs, ys = sorted(xs, key=space.order.get), sorted(ys, key=space.order.get)
    for x in xs:
        dist = space.distances([x], within)
        hits = [y for y in ys if y in dist and y != x]
        if hits:
            return True, x, hits[0]
    return False, None, None


def ref_separate(model, Y, Z):
    space = ref_space(model)
    Y, Z = space.known(Y), space.known(Z)
    U, V = space.min_open_of(Y), space.min_open_of(Z)
    found = not (U & V)
    criterion = not (space.closure_of(space.ball(Y, 1)) & Z) and not (space.closure_of(space.ball(Z, 1)) & Y)
    if found != criterion:
        raise CertificationError("separation by minimal open sets disagrees with the closure criterion")
    return (U, V) if found else None


def ref_find(model, X, Y, k):
    space = ref_space(model)
    within = class_points(model)
    X, Y = frozenset(X), frozenset(Y)
    if not X or not Y:
        raise PreconditionViolated("X and Y must be nonempty")
    if not (X | Y) <= within:
        raise PreconditionViolated("class-restricted chains need class end sets")
    if k < 2:
        raise PreconditionViolated("chain construction needs k >= 2")
    d = space.set_distance(X, Y, within)
    if d < k:
        raise PreconditionViolated(f"need d(X, Y) >= {k}, got {d}")
    reach = space.distances([min(X | Y, key=space.order.get)], within)
    if any(p not in reach for p in X | Y):
        raise PreconditionViolated("X and Y must lie in one component")
    pts = frozenset(space.points)
    sep = ref_separate(space, X, space.ball(Y, k - 2))
    if sep is None:
        raise CertificationError("initial separation failed despite the distance bound")
    U, V = sep
    sets = [pts - V]
    front_complement = pts - U
    for i in range(2, k):
        sep = ref_separate(space, frozenset().union(*sets), space.ball(Y, k - i - 1))
        if sep is None:
            raise CertificationError(f"separation stage {i} failed despite the distance bound")
        U, V = sep
        sets.append((pts - V) & front_complement)
        front_complement = pts - U
    sets.append(front_complement)
    chain = chain_of(model, sets)
    bad = ref_violations(space, chain)
    if bad:
        raise CertificationError("constructed chain is invalid: " + "; ".join(bad))
    if not X <= sets[0] - sets[1]:
        raise CertificationError("constructed chain does not isolate X in the first set")
    if not Y <= sets[-1] - sets[-2]:
        raise CertificationError("constructed chain does not isolate Y in the last set")
    if not ref_is_admissible(model, chain)[0]:
        raise CertificationError("constructed chain is not admissible")
    return chain


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the error itself is what is compared
        return "raised", type(exc), str(exc)


def assert_agree(mask_fn, ref_fn, *args):
    got = outcome(mask_fn, *args)
    assert got == outcome(ref_fn, *args)
    return got


def assert_chain_agrees(model, chain):
    assert validate_chain(model, chain).violations == ref_violations(model, chain)
    assert_agree(is_admissible, ref_is_admissible, model, chain)


def assert_construction_agrees(model, xs, ys):
    """Every length from 2 to d(X, Y) + 1 builds the same chain (or raises
    the same error), and each built chain validates and re-checks alike."""
    d = RefSpace(model).set_distance(xs, ys, class_points(model))
    top = 3 if d == inf else int(d) + 1
    for k in range(2, top + 1):
        got = assert_agree(find_admissible_chain, ref_find, model, xs, ys, k)
        if got[0] == "returned":
            assert_chain_agrees(model, got[1])


ORACLE_GRID = [(n, b) for n in range(3, 10) for b in (1, 2, 3)]


@pytest.mark.parametrize("n,bound", ORACLE_GRID)
def test_mask_chains_match_reference_oracle(n, bound):
    m = build_dual_model(n, bound)
    classes = list(m.space.points[: m.class_count])
    k = n // 2
    rng = random.Random(f"oracle:{n}:{bound}")
    cases = [([cls([0] * k, n)], [cls([1] * k, n)])]
    most = min(3, len(classes))
    for _ in range(20):
        cases.append((rng.sample(classes, rng.randint(1, most)), rng.sample(classes, rng.randint(1, most))))
    for xs, ys in cases:
        assert_construction_agrees(m, xs, ys)
    assert_chain_agrees(m, chain_of(m, [all_points(m)]))
    for _ in range(20):
        ys = rng.sample(m.space.points, rng.randint(1, 3))
        zs = rng.sample(m.space.points, rng.randint(1, 3))
        assert_agree(separate, ref_separate, m, ys, zs)


def class_sets(max_classes):
    return st.lists(st.integers(0, max_classes - 1), min_size=1, max_size=3, unique=True)


@given(st.sampled_from(ORACLE_GRID), class_sets(10**6), class_sets(10**6))
@settings(max_examples=100, deadline=None)
def test_drawn_end_sets_match_reference_oracle(case, xs, ys):
    m = build_dual_model(*case)
    classes = m.space.points[: m.class_count]
    xs = {classes[i % len(classes)] for i in xs}
    ys = {classes[i % len(classes)] for i in ys}
    assert_construction_agrees(m, xs, ys)


def tiny_model():
    return build_dual_model(4, 1)


def not_closed(m):
    g = next(iter(germ_points(m)))
    open_set = all_points(m) - closure(m.space, g) | {g}
    return chain_of(m, [open_set, all_points(m) - open_set])


INVALID_CHAINS = {
    "no sets": lambda m: chain_of(m, []),
    "set not closed": not_closed,
    "sets 1 and 3 overlap": lambda m: chain_of(m, [all_points(m)] * 3),
    "three overlapping pairs": lambda m: chain_of(m, [all_points(m)] * 4),
    "more sets than points": lambda m: chain_of(m, [all_points(m)] + [frozenset()] * len(m.space.points)),
    "cover missing": lambda m: chain_of(m, [class_points(m)]),
    "empty end differences": lambda m: chain_of(m, [all_points(m), all_points(m)]),
    "one empty end difference": lambda m: chain_of(m, [class_points(m), all_points(m)]),
}


@pytest.mark.parametrize("name", sorted(INVALID_CHAINS))
def test_invalid_chains_match_reference_oracle(name):
    m = tiny_model()
    chain = INVALID_CHAINS[name](m)
    rep = validate_chain(m, chain)
    assert not rep.valid
    assert rep.violations == ref_violations(m, chain)
    got = assert_agree(is_admissible, ref_is_admissible, m, chain)
    assert got[:2] == ("raised", PreconditionViolated)
    x, y = cls([0, 0], 4), cls([1, 1], 4)
    with pytest.raises(PreconditionViolated, match="chain is not valid"):
        chain_lower_bound(m, chain, x, y)


def test_long_chains_give_one_message():
    # a chain with more sets than points is refused before any pair of
    # sets is compared, and many overlapping pairs are one message
    m = tiny_model()
    assert validate_chain(m, INVALID_CHAINS["more sets than points"](m)).violations == (
        "chain has 7 sets, more than the 6 points of the space",
    )
    assert validate_chain(m, INVALID_CHAINS["three overlapping pairs"](m)).violations == (
        "sets 1 and 3 overlap, and 2 more non-consecutive pairs",
        "first set minus second set is empty",
        "last set minus second-to-last set is empty",
    )


@given(st.lists(st.integers(0, (1 << 6) - 1), max_size=8))
@settings(max_examples=200, deadline=None)
def test_drawn_set_lists_match_reference_violations(masks):
    # any sets at all, up to more than the 6 points of the model
    m = tiny_model()
    chain = Chain(m.space, tuple(masks))
    assert validate_chain(m, chain).violations == ref_violations(m, chain)


def test_foreign_point_raises_unknown_point():
    m = tiny_model()
    foreign = Point(CLASS_KIND, validate([9, 9], 4))
    with pytest.raises(UnknownPoint):
        chain_of(m, [all_points(m) | {foreign}])
    for fn in (separate, ref_separate):
        with pytest.raises(UnknownPoint):
            fn(m, [foreign], [cls([0, 0], 4)])
    for xs, ys in (([foreign], [cls([0, 0], 4)]), ([cls([0, 0], 4)], [foreign])):
        # a point outside the model is no class
        got = assert_agree(find_admissible_chain, ref_find, m, xs, ys, 2)
        assert got == ("raised", PreconditionViolated, "class-restricted chains need class end sets")
    with pytest.raises(UnknownPoint):
        m.space.bfs([foreign])


def test_class_of_another_group_with_the_same_id_is_foreign():
    m = build_dual_model(5, 2)
    x, y, same_id = cls([1, 0], 5), cls([2, 2], 5), cls([1, 0], 4)
    assert str(same_id) == str(x) and same_id != x
    with pytest.raises(UnknownPoint):
        distance(m, same_id, y)
    chain, _ = chains.chain_for_distance(m, x, y, int(distance(m, x, y)))
    assert chains.witness_violations(m, chain, x, y) == ()
    assert chains.witness_violations(m, chain, same_id, y) == (
        "x must lie in the first set and not the second",
        "end witnesses of a class-restricted chain must be classes",
    )
    with pytest.raises(PreconditionViolated, match="x must lie in the first set"):
        chain_lower_bound(m, chain, same_id, y)
    with pytest.raises(UnknownPoint):
        chain_to_json(m, chain, same_id, y)
    with pytest.raises(UnknownPoint):
        m.space.bfs([same_id])
    with pytest.raises(PreconditionViolated, match="class-restricted chains need class end sets"):
        find_admissible_chain(m, [same_id], [y], 2)


def test_graph_refuses_vertices_that_share_an_id():
    x = cls([1, 0], 5)
    graph = Graph([x, cls([1, 0], 4)], [0, 0])
    with pytest.raises(ValueError, match="vertex ids must be unique"):
        graph.bfs([x])


# Three points a, b, q whose neighbor masks are stale: they come from the
# first closure map, while the closures and minimal open sets come from the
# second.  Separating Y from Z then finds minimal open sets that meet while
# the closure criterion separates, or disjoint minimal open sets while the
# closure of one side's neighborhood reaches the other side.  Both the masks
# and the per-point maps that the reference reads carry the disagreement.
TAMPERED = {
    "open sets meet": ({"q": "q"}, {"q": "qab"}, "a", "b"),
    "closure of Y reaches Z": ({"q": "qa"}, {"q": "qb"}, "a", "b"),
    "closure of Z reaches Y": ({"q": "qa"}, {"q": "qb"}, "b", "a"),
}


def stale_adjacency(adjacency_closures, closures):
    m = toy_model({"a": "a", "b": "b", **adjacency_closures})
    actual = toy_space({"a": "a", "b": "b", **closures})
    m.space._closure, m.space._min_open = actual._closure, actual._min_open
    return m


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_separation_disagreement_raises_in_both(name):
    adjacency_closures, closures, y, z = TAMPERED[name]
    sp = stale_adjacency(adjacency_closures, closures)
    got = assert_agree(separate, ref_separate, sp, [y], [z])
    assert got[:2] == ("raised", CertificationError)


def test_end_sets_in_two_components_refused():
    # a - m - b through the closures of q1 and q2, and c on its own
    sp = toy_model({"a": "a", "m": "m", "b": "b", "q1": ["q1", "a", "m"], "q2": ["q2", "m", "b"], "c": "c"})
    assert RefSpace(sp).set_distance(["a", "c"], ["b"]) == 2
    got = assert_agree(find_admissible_chain, ref_find, sp, ["a", "c"], ["b"], 2)
    assert got == ("raised", PreconditionViolated, "X and Y must lie in one component")
    got = assert_agree(find_admissible_chain, ref_find, sp, ["a"], ["b"], 2)
    assert got[0] == "returned"
    assert_chain_agrees(sp, got[1])


def test_independent_bfs_catches_a_short_path(monkeypatch):
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3)
    i, j = m.space.points.index(x), m.space.points.index(y)
    adj = list(m.space._adj)
    adj[i] |= 1 << j
    adj[j] |= 1 << i
    monkeypatch.setattr(m.space, "_adj", tuple(adj))
    monkeypatch.setattr(m.classes, "_adj", tuple(row & m.class_mask for row in adj[: m.class_count]))
    assert validate_chain(m, chain).valid
    with pytest.raises(CertificationError, match="contradicted by graph distance 1"):
        chain_lower_bound(m, chain, x, y)


# Each re-check of the construction must run: with the separation (and the
# earlier checks) replaced by a faulty one, the named check raises.
RECHECKS = {
    "initial separation failed": {"_separate": lambda space, Y, Z: None},
    "constructed chain is invalid": {"_separate": lambda space, Y, Z: (0, 0)},
    "does not isolate X": {"_separate": lambda space, Y, Z: (0, 0), "_violations": lambda space, sets: ()},
    "does not isolate Y": {"_separate": lambda space, Y, Z: (-1, 0), "_violations": lambda space, sets: ()},
    "is not admissible": {"_admissible": lambda model, sets: None},
}


@pytest.mark.parametrize("message", sorted(RECHECKS))
@pytest.mark.parametrize("k", [2, 3])
def test_construction_rechecks_run(monkeypatch, message, k):
    m = build_dual_model(7, 1)
    for name, fake in RECHECKS[message].items():
        monkeypatch.setattr(chains, name, fake)
    with pytest.raises(CertificationError, match=message):
        find_admissible_chain(m, [cls([0, 0, 0], 7)], [cls([1, 1, 1], 7)], k)


def test_class_mask_is_the_class_points():
    for n, bound in ORACLE_GRID:
        m = build_dual_model(n, bound)
        kinds = [p.kind for p in m.space.points]
        assert m.class_count == count_signatures(n, bound)
        assert kinds == [CLASS_KIND] * m.class_count + [GERM_KIND] * (len(kinds) - m.class_count)
        assert m.class_mask == (1 << m.class_count) - 1


# --- chains held as masks -------------------------------------------------------


@pytest.mark.parametrize("n, bound", [(4, 3), (7, 1), (7, 3), (9, 2)])
def test_built_chain_holds_the_reference_sets_as_masks(n, bound):
    m = build_dual_model(n, bound)
    k = n // 2
    xs, ys = [cls([0] * k, n)], [cls([1] * k, n)]
    chain = find_admissible_chain(m, xs, ys, k)
    ref = ref_find(m, xs, ys, k)
    assert chain.space is ref.space is m.space
    assert point_sets(chain) == point_sets(ref)
    assert chain == ref


@pytest.mark.parametrize("n, bound", [(6, 3), (7, 1), (8, 2)])
def test_json_roundtrip_keeps_the_masks(n, bound):
    m = build_dual_model(n, bound)
    x, y = cls([0] * (n // 2), n), cls([1] * (n // 2), n)
    chain = find_admissible_chain(m, [x], [y], n // 2)
    back, x2, y2, _ = chain_from_json(m, json.loads(json.dumps(chain_to_json(m, chain, x, y))))
    assert back.space is m.space and back.masks == chain.masks
    assert (x2, y2) == (x, y)


# spellings of model points that `int` reads but that are no canonical id:
# (n, bound, the point's id, the spelling)
NON_CANONICAL_IDS = [
    (4, 1, "class:1,0", "class: 1,0"),
    (4, 1, "class:1,0", "class:+1,0"),
    (4, 10, "class:10,0", "class:1_0,0"),
]


def test_json_reader_refuses_non_canonical_ids():
    for n, bound, pid, spelled in NON_CANONICAL_IDS:
        m = build_dual_model(n, bound)
        x, y = point_from_id(m, pid), cls([0, 0], n)
        payload = chain_to_json(m, Chain(m.space, (m.space._all,)), x, y)
        assert chain_from_json(m, payload)[1] is x
        in_set = dict(payload, sets=[[spelled if i == pid else i for i in payload["sets"][0]]])
        for bad in (in_set, dict(payload, x=spelled)):
            with pytest.raises(UnknownPoint, match="is not the id of a point"):
                chain_from_json(m, bad)



def rechecks(model, chain, x, y):
    return (
        validate_chain(model, chain),
        is_admissible(model, chain),
        chains.witness_violations(model, chain, x, y),
        chain_lower_bound(model, chain, x, y),
        chain_to_json(model, chain, x, y),
    )


def test_chain_rechecked_on_a_rebuilt_model_gives_the_same_reports():
    m = build_dual_model(8, 2)
    x, y = cls([0] * 4, 8), cls([1] * 4, 8)
    chain = find_admissible_chain(m, [x], [y], 4)
    before = rechecks(m, chain, x, y)
    build_dual_model.cache_clear()
    rebuilt = build_dual_model(8, 2)
    assert rebuilt.space is not m.space
    assert rechecks(rebuilt, chain, x, y) == before
    assert chain.masks == find_admissible_chain(rebuilt, [x], [y], 4).masks


def test_set_outside_the_space_raises_unknown_point():
    small, big = build_dual_model(7, 1), build_dual_model(7, 3)
    x, y = cls([0, 0, 0], 7), cls([3, 3, 3], 7)
    chain = find_admissible_chain(big, [x], [y], 3)
    for fn in (validate_chain, is_admissible):
        with pytest.raises(UnknownPoint):
            fn(small, chain)
    for fn in (chain_lower_bound, chains.witness_violations, chain_to_json):
        with pytest.raises(UnknownPoint):
            fn(small, chain, x, y)
    y = cls([1, 1, 1], 7)
    payload = chain_to_json(small, find_admissible_chain(small, [x], [y], 3), x, y)
    payload["sets"][0].append("class:3,3,3")
    with pytest.raises(UnknownPoint):
        chain_from_json(small, payload)


def test_chains_equal_by_their_space_and_masks():
    m = build_dual_model(7, 1)
    chain = find_admissible_chain(m, [cls([0, 0, 0], 7)], [cls([1, 1, 1], 7)], 3)
    by_hand = chain_of(m, point_sets(chain))
    assert by_hand.length == chain.length == 3
    assert by_hand == chain and hash(by_hand) == hash(chain)
    assert Chain(m.space, chain.masks[:2]) != chain
    build_dual_model.cache_clear()
    assert Chain(build_dual_model(7, 1).space, chain.masks) != chain
