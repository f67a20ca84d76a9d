import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiondual import chains
from motiondual.chains import (
    Chain,
    chain_from_json,
    chain_lower_bound,
    chain_to_json,
    find_admissible_chain,
    is_admissible,
    n_neighborhood,
    separate,
    validate_chain,
    verify_property1,
)
from motiondual.dualspace import CLASS_KIND, DualModel, FiniteT0Space, Point, build_dual_model
from motiondual.errors import CertificationError, PreconditionViolated, UnknownPoint
from motiondual.signatures import validate


def cls(entries, n):
    return Point(CLASS_KIND, validate(entries, n))


def all_points(model):
    return frozenset(model.space.points)


# --- neighborhoods ------------------------------------------------------------


def test_neighborhood_zero_is_identity():
    m = build_dual_model(4, 2)
    y = frozenset([cls([1, 1], 4)])
    assert n_neighborhood(m, y, 0) == y


def test_neighborhood_saturates_at_diameter():
    m = build_dual_model(5, 1)
    y = frozenset([cls([0, 0], 5)])
    big = n_neighborhood(m, y, 10, restrict_to_class=True)
    assert big == m.class_points  # one component


def test_neighborhood_class_restricted_adjacency_scan():
    m = build_dual_model(4, 2)
    y = frozenset([cls([2, 2], 4)])
    got = n_neighborhood(m, y, 1, restrict_to_class=True)
    expect = {p for p in m.class_points if m.space.inseparable(p, cls([2, 2], 4))}
    assert got == frozenset(expect) | y


def test_neighborhood_monotone_and_additive():
    m = build_dual_model(6, 1)
    y = frozenset([cls([0, 0, 0], 6)])
    prev = y
    for n in range(4):
        cur = n_neighborhood(m, y, n)
        assert prev <= cur
        prev = cur
    two_then_one = n_neighborhood(m, n_neighborhood(m, y, 2), 1)
    assert two_then_one == n_neighborhood(m, y, 3)


def test_neighborhood_rejects_germ_seed_when_restricted():
    m = build_dual_model(4, 1)
    g = next(iter(m.germ_points))
    with pytest.raises(PreconditionViolated):
        n_neighborhood(m, [g], 1, restrict_to_class=True)


# --- chain validation ---------------------------------------------------------


def test_trivial_chain_valid():
    m = build_dual_model(4, 1)
    rep = validate_chain(m, Chain((all_points(m),)))
    assert rep.valid


def test_chain_overlap_violation_named():
    m = build_dual_model(4, 1)
    pts = all_points(m)
    rep = validate_chain(m, Chain((pts, pts, pts)))
    assert not rep.valid
    assert any("1 and 3" in v for v in rep.violations)


def test_chain_closedness_violation():
    m = build_dual_model(4, 1)
    g = next(iter(m.germ_points))
    open_set = all_points(m) - m.space.closure(g) | {g}
    rep = validate_chain(m, Chain((open_set, all_points(m) - open_set)))
    assert not rep.valid


# --- admissibility and the lower bound ----------------------------------------


def test_single_component_chain_admissible():
    m = build_dual_model(5, 1)
    ok, x, y = is_admissible(m, Chain((all_points(m),)), restrict_to_class=True)
    assert ok and x is not None and y is not None


def test_two_component_chain_not_admissible():
    sp = FiniteT0Space({"a": {"a"}, "b": {"b"}})
    chain = Chain((frozenset(["a"]), frozenset(["b"])))
    assert validate_chain(sp, chain).valid
    ok, x, y = is_admissible(sp, chain, restrict_to_class=False)
    assert not ok and x is None and y is None


def test_chain_lower_bound_extremal_n7():
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3, restrict_to_class=True)
    assert chain.length == 3
    assert chain_lower_bound(m, chain, x, y, restrict_to_class=True) == 3
    # the bound is tight here
    assert m.space.distance(x, y, m.class_points) == 3


def test_chain_lower_bound_length_one():
    m = build_dual_model(3, 1)
    x, y = cls([0], 3), cls([1], 3)
    assert chain_lower_bound(m, Chain((all_points(m),)), x, y) == 1
    with pytest.raises(PreconditionViolated):
        chain_lower_bound(m, Chain((all_points(m),)), x, x)


def test_chain_lower_bound_checks_membership():
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3, restrict_to_class=True)
    with pytest.raises(PreconditionViolated):
        chain_lower_bound(m, chain, y, x, restrict_to_class=True)


# --- separation ----------------------------------------------------------------


def test_separate_clopen_components():
    sp = FiniteT0Space({"a": {"a"}, "b": {"b"}})
    got = separate(sp, ["a"], ["b"])
    assert got == (frozenset(["a"]), frozenset(["b"]))


def test_separate_adjacent_fails():
    m = build_dual_model(4, 1)
    assert separate(m, [cls([1, 1], 4)], [cls([1, -1], 4)]) is None


def test_separate_matches_distance_two():
    m = build_dual_model(5, 1)
    y, z = cls([0, 0], 5), cls([1, 1], 5)
    assert m.space.distance(y, z) >= 2
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
    chain = find_admissible_chain(m, [x], [y], k, restrict_to_class=True)
    rep = validate_chain(m, chain)
    assert rep.valid
    assert chain.length == k
    assert frozenset([x]) <= chain.sets[0] - chain.sets[1]
    assert frozenset([y]) <= chain.sets[-1] - chain.sets[-2]
    ok, wx, wy = is_admissible(m, chain, restrict_to_class=True)
    assert ok
    assert chain_lower_bound(m, chain, wx, wy, restrict_to_class=True) == k


def test_find_admissible_chain_k2():
    m = build_dual_model(5, 2)
    x, y = cls([0, 0], 5), cls([2, 2], 5)
    chain = find_admissible_chain(m, [x], [y], 2, restrict_to_class=True)
    assert chain.length == 2 and validate_chain(m, chain).valid


def test_find_admissible_chain_distance_too_small():
    m = build_dual_model(5, 1)
    x, y = cls([0, 0], 5), cls([1, 0], 5)
    with pytest.raises(PreconditionViolated):
        find_admissible_chain(m, [x], [y], 2, restrict_to_class=True)


def test_chain_lemma_random_pairs_never_violated():
    rng = random.Random(11)
    for n in (5, 6, 7):
        m = build_dual_model(n, 2)
        classes = sorted(m.class_points, key=str)
        done = 0
        while done < 10:
            xs = frozenset(rng.sample(classes, rng.randint(1, 3)))
            ys = frozenset(rng.sample(classes, rng.randint(1, 3)))
            d = m.space.set_distance(xs, ys, m.class_points)
            if d == inf or d < 2:
                continue
            k = rng.randint(2, int(d))
            chain = find_admissible_chain(m, xs, ys, k, restrict_to_class=True)
            ok, wx, wy = is_admissible(m, chain, restrict_to_class=True)
            assert ok
            assert chain_lower_bound(m, chain, wx, wy, restrict_to_class=True) == k
            done += 1


def test_chain_roundtrip_json():
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3, restrict_to_class=True)
    payload = chain_to_json(m, chain, x, y)
    chain2, x2, y2, restrict = chain_from_json(m, payload)
    assert chain2 == chain and x2 == x and y2 == y and restrict


# --- property (1) ----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_property1_witness(n):
    rep = verify_property1(build_dual_model(n, 2))
    assert rep.ok, rep.checks
    assert rep.witness == build_dual_model(n, 2).class_points
    assert any("one-step neighborhoods" in name for name, _ in rep.checks)


def test_property1_empty_sample_closed():
    m = build_dual_model(4, 1)
    assert m.space.is_closed(m.space.ball(frozenset(), 1))


# --- reference oracle: the chain code on frozensets of points -------------------
#
# The library keeps every chain set as a bitmask.  These functions are the
# same algorithms on point sets, written against the public `FiniteT0Space`
# methods only, and the mask-native functions must agree with them exactly:
# the same sets, violations in the same order, the same witnesses and the
# same errors.


def ref_space(model):
    return model.space if isinstance(model, DualModel) else model


def ref_vertices(model, restrict_to_class):
    if not restrict_to_class:
        return None
    if not isinstance(model, DualModel):
        raise PreconditionViolated("class restriction needs a dual model")
    return model.class_points


def ref_violations(model, chain):
    space = ref_space(model)
    bad = []
    n = chain.length
    if n == 0:
        return ("chain has no sets",)
    for i, s in enumerate(chain.sets, start=1):
        if not space.is_closed(s):
            bad.append(f"set {i} is not closed")
    if frozenset().union(*chain.sets) != frozenset(space.points):
        bad.append("union of the sets does not cover the space")
    for i in range(n):
        for j in range(i + 2, n):
            if chain.sets[i] & chain.sets[j]:
                bad.append(f"sets {i + 1} and {j + 1} overlap")
    if n > 1:
        if not chain.sets[0] - chain.sets[1]:
            bad.append("first set minus second set is empty")
        if not chain.sets[-1] - chain.sets[-2]:
            bad.append("last set minus second-to-last set is empty")
    return tuple(bad)


def ref_is_admissible(model, chain, restrict_to_class=True):
    bad = ref_violations(model, chain)
    if bad:
        raise PreconditionViolated("chain is not valid: " + "; ".join(bad))
    space = ref_space(model)
    within = ref_vertices(model, restrict_to_class)
    order = space.points.index
    if chain.length == 1:
        xs = ys = chain.sets[0] if within is None else chain.sets[0] & within
    else:
        xs, ys = chain.sets[0] - chain.sets[1], chain.sets[-1] - chain.sets[-2]
        if within is not None:
            xs, ys = xs & within, ys & within
    xs, ys = sorted(xs, key=order), sorted(ys, key=order)
    for x in xs:
        dist = space.bfs([x], within)
        hits = [y for y in ys if y in dist]
        if hits:
            return True, x, hits[0]
    return False, None, None


def ref_separate(model, Y, Z):
    space = ref_space(model)
    Y, Z = frozenset(Y), frozenset(Z)
    U, V = space.min_open_of(Y), space.min_open_of(Z)
    found = not (U & V)
    criterion = not (space.closure_of(space.ball(Y, 1)) & Z) and not (space.closure_of(space.ball(Z, 1)) & Y)
    if found != criterion:
        raise CertificationError("separation by minimal open sets disagrees with the closure criterion")
    return (U, V) if found else None


def ref_find(model, X, Y, k, restrict_to_class=True):
    space = ref_space(model)
    within = ref_vertices(model, restrict_to_class)
    X, Y = frozenset(X), frozenset(Y)
    if not X or not Y:
        raise PreconditionViolated("X and Y must be nonempty")
    if within is not None and not (X | Y) <= within:
        raise PreconditionViolated("class-restricted chains need class end sets")
    if k < 2:
        raise PreconditionViolated("chain construction needs k >= 2")
    d = space.set_distance(X, Y, within)
    if d < k:
        raise PreconditionViolated(f"need d(X, Y) >= {k}, got {d}")
    reach = space.bfs([min(X | Y, key=space.points.index)], within)
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
    chain = Chain(tuple(sets))
    bad = ref_violations(space, chain)
    if bad:
        raise CertificationError("constructed chain is invalid: " + "; ".join(bad))
    if not X <= chain.sets[0] - chain.sets[1]:
        raise CertificationError("constructed chain does not isolate X in the first set")
    if not Y <= chain.sets[-1] - chain.sets[-2]:
        raise CertificationError("constructed chain does not isolate Y in the last set")
    if not ref_is_admissible(model, chain, restrict_to_class)[0]:
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


def assert_chain_agrees(model, chain, restrict_to_class=True):
    assert validate_chain(model, chain).violations == ref_violations(model, chain)
    assert_agree(is_admissible, ref_is_admissible, model, chain, restrict_to_class)


def assert_construction_agrees(model, xs, ys, restrict_to_class=True):
    """Every length from 2 to d(X, Y) + 1 builds the same chain (or raises
    the same error), and each built chain validates and re-checks alike."""
    d = model.space.set_distance(xs, ys, model.class_points if restrict_to_class else None)
    top = 3 if d == inf else int(d) + 1
    for k in range(2, top + 1):
        got = assert_agree(find_admissible_chain, ref_find, model, xs, ys, k, restrict_to_class)
        if got[0] == "returned":
            assert_chain_agrees(model, got[1], restrict_to_class)


ORACLE_GRID = [(n, b) for n in range(3, 10) for b in (1, 2, 3)]


@pytest.mark.parametrize("n,bound", ORACLE_GRID)
def test_mask_chains_match_reference_oracle(n, bound):
    m = build_dual_model(n, bound)
    classes = sorted(m.class_points, key=m.space.points.index)
    k = n // 2
    rng = random.Random(f"oracle:{n}:{bound}")
    cases = [([cls([0] * k, n)], [cls([1] * k, n)], True)]
    most = min(3, len(classes))
    for _ in range(20):
        cases.append((rng.sample(classes, rng.randint(1, most)), rng.sample(classes, rng.randint(1, most)), True))
    for _ in range(5):
        # unrestricted chains may end on germs
        cases.append(([rng.choice(m.space.points)], [rng.choice(m.space.points)], False))
    for xs, ys, restrict in cases:
        assert_construction_agrees(m, xs, ys, restrict)
    whole = Chain((all_points(m),))
    assert_chain_agrees(m, whole, True)
    assert_chain_agrees(m, whole, False)
    for _ in range(20):
        ys = rng.sample(m.space.points, rng.randint(1, 3))
        zs = rng.sample(m.space.points, rng.randint(1, 3))
        assert_agree(separate, ref_separate, m, ys, zs)
        radius = rng.randint(0, 3)
        assert n_neighborhood(m, ys, radius) == m.space.ball(ys, radius)


def class_sets(max_classes):
    return st.lists(st.integers(0, max_classes - 1), min_size=1, max_size=3, unique=True)


@given(st.sampled_from(ORACLE_GRID), class_sets(10**6), class_sets(10**6))
@settings(max_examples=100, deadline=None)
def test_drawn_end_sets_match_reference_oracle(case, xs, ys):
    m = build_dual_model(*case)
    classes = m.space.points[: len(m.class_points)]
    xs = {classes[i % len(classes)] for i in xs}
    ys = {classes[i % len(classes)] for i in ys}
    assert_construction_agrees(m, xs, ys)


def tiny_model():
    return build_dual_model(4, 1)


def not_closed(m):
    g = next(iter(m.germ_points))
    open_set = all_points(m) - m.space.closure(g) | {g}
    return Chain((open_set, all_points(m) - open_set))


def foreign_point_chain(m):
    foreign = Point(CLASS_KIND, validate([9, 9], 4))
    return Chain((all_points(m) | {foreign},))


INVALID_CHAINS = {
    "no sets": lambda m: Chain(()),
    "set not closed": not_closed,
    "sets 1 and 3 overlap": lambda m: Chain((all_points(m),) * 3),
    "cover missing": lambda m: Chain((m.class_points,)),
    "empty end differences": lambda m: Chain((all_points(m), all_points(m))),
    "one empty end difference": lambda m: Chain((m.class_points, all_points(m))),
}


@pytest.mark.parametrize("name", sorted(INVALID_CHAINS))
def test_invalid_chains_match_reference_oracle(name):
    m = tiny_model()
    chain = INVALID_CHAINS[name](m)
    rep = validate_chain(m, chain)
    assert not rep.valid
    assert rep.violations == ref_violations(m, chain)
    got = assert_agree(is_admissible, ref_is_admissible, m, chain, True)
    assert got[:2] == ("raised", PreconditionViolated)
    x, y = cls([0, 0], 4), cls([1, 1], 4)
    with pytest.raises(PreconditionViolated, match="chain is not valid"):
        chain_lower_bound(m, chain, x, y)


def test_foreign_point_raises_unknown_point():
    m = tiny_model()
    chain = foreign_point_chain(m)
    for fn in (validate_chain, ref_violations, is_admissible, ref_is_admissible):
        with pytest.raises(UnknownPoint):
            fn(m, chain)
    foreign = next(iter(chain.sets[0] - all_points(m)))
    with pytest.raises(UnknownPoint):
        separate(m, [foreign], [cls([0, 0], 4)])
    for xs, ys in (([foreign], [cls([0, 0], 4)]), ([cls([0, 0], 4)], [foreign])):
        with pytest.raises(UnknownPoint):
            find_admissible_chain(m, xs, ys, 2, restrict_to_class=False)
    with pytest.raises(UnknownPoint):
        n_neighborhood(m, [foreign], 1)


# A two-point discrete space with one mask tampered: minimal open sets that
# meet while the closure criterion separates, or disjoint minimal open sets
# while the closure of one side's neighborhood reaches the other side.
TAMPERED = {
    "open sets meet": ("_min_open", (0b11, 0b10)),
    "closure of Y reaches Z": ("_closure", (0b11, 0b10)),
    "closure of Z reaches Y": ("_closure", (0b01, 0b11)),
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_separation_disagreement_raises_in_both(name):
    sp = FiniteT0Space({"a": {"a"}, "b": {"b"}})
    attr, masks = TAMPERED[name]
    setattr(sp, attr, masks)
    got = assert_agree(separate, ref_separate, sp, ["a"], ["b"])
    assert got[:2] == ("raised", CertificationError)


def test_end_sets_in_two_components_refused():
    # a - m - b through the closures of q1 and q2, and c on its own
    sp = FiniteT0Space({"a": "a", "m": "m", "b": "b", "q1": ["q1", "a", "m"], "q2": ["q2", "m", "b"], "c": "c"})
    assert sp.set_distance(["a", "c"], ["b"]) == 2
    got = assert_agree(find_admissible_chain, ref_find, sp, ["a", "c"], ["b"], 2, False)
    assert got == ("raised", PreconditionViolated, "X and Y must lie in one component")
    got = assert_agree(find_admissible_chain, ref_find, sp, ["a"], ["b"], 2, False)
    assert got[0] == "returned"
    assert_chain_agrees(sp, got[1], False)


def test_independent_bfs_catches_a_short_path(monkeypatch):
    m = build_dual_model(7, 1)
    x, y = cls([0, 0, 0], 7), cls([1, 1, 1], 7)
    chain = find_admissible_chain(m, [x], [y], 3)
    i, j = m.space.points.index(x), m.space.points.index(y)
    adj = list(m.space._adj)
    adj[i] |= 1 << j
    adj[j] |= 1 << i
    monkeypatch.setattr(m.space, "_adj", tuple(adj))
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
    "is not admissible": {"_admissible": lambda space, sets, within: None},
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
        assert m.space._set(m.class_mask) == m.class_points
