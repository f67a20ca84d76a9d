"""The interleaving closed forms against their parity-branched forms and
against brute force.

`signatures` states the interleaving rule once, as the abs rule.  The
forms below write it out separately for even and odd groups, as the
library did before; the library must agree with them value for value and
witness for witness.  `walk` must be the geodesic of the class distance
law, written here as a naive scan, with the least common child of each
step as its witness.  The brute-force tests pin the witnesses of
`common_extension` and `common_restriction` to the lexicographically least
common parent and child.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiondual import signatures
from motiondual.dualspace import LINE_KIND, _members, build_dual_model
from motiondual.primal import star_graph
from motiondual.signatures import (
    GroupContext,
    Signature,
    Walk,
    branch,
    enumerate_signatures,
    restricts_to,
    walk_violations,
)
from motiondual.verification import default_bound

# --- the parity-branched forms ----------------------------------------------


def branch_box(pi):
    ctx = pi.ctx
    m = pi.entries
    k = ctx.k
    if ctx.n == 2:
        return ()
    if ctx.n % 2 == 0:
        return tuple((abs(m[i + 1]), m[i]) for i in range(k - 1))
    return tuple((m[i + 1], m[i]) for i in range(k - 1)) + ((-m[k - 1], m[k - 1]),)


def hull_intervals(sigma):
    s = sigma.entries
    if sigma.ctx.n % 2 == 0:  # odd parent
        lows = s[:-1] + (abs(s[-1]),)
    else:
        lows = s + (-s[-1],)
    return tuple(zip(lows, (float("inf"),) + s))


def restricts(pi, sigma):
    n = pi.ctx.n
    m, s = pi.entries, sigma.entries
    last = len(m) - 1
    if n % 2 == 0:
        for i in range(last):
            if not abs(m[i + 1]) <= s[i] <= m[i]:
                return False
        return True
    for i in range(last):
        if not m[i + 1] <= s[i] <= m[i]:
            return False
    return -m[last] <= s[last] <= m[last]


def inseparable(pi1, pi2):
    a, b = pi1.entries, pi2.entries
    k = pi1.ctx.k
    if pi1.ctx.n % 2 == 0:
        return all(max(abs(a[i + 1]), abs(b[i + 1])) <= min(a[i], b[i]) for i in range(k - 1))
    return all(max(a[i + 1], b[i + 1]) <= min(a[i], b[i]) for i in range(k - 1))


def common_restriction(pis):
    ctx = pis[0].ctx
    k = ctx.k
    child = ctx.child
    if ctx.n % 2 == 0:
        lo = [max(abs(p.entries[i + 1]) for p in pis) for i in range(k - 1)]
        hi = [min(p.entries[i] for p in pis) for i in range(k - 1)]
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Signature(tuple(lo), child)
    lo = [max(p.entries[i + 1] for p in pis) for i in range(k - 1)]
    hi = [min(p.entries[i] for p in pis) for i in range(k - 1)]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    last = -min(p.entries[k - 1] for p in pis)
    return Signature(tuple(lo) + (last,), child)


def common_extension(sigmas):
    parent = GroupContext(sigmas[0].ctx.n + 1)
    k = parent.k
    if parent.n % 2:
        # children are SO(2k) signatures of length k, last entry may be negative
        for i in range(k - 2):
            if max(s.entries[i + 1] for s in sigmas) > min(s.entries[i] for s in sigmas):
                return None
        if k >= 2 and max(abs(s.entries[k - 1]) for s in sigmas) > min(s.entries[k - 2] for s in sigmas):
            return None
        ms = [max(s.entries[i] for s in sigmas) for i in range(k - 1)]
        ms.append(max(abs(s.entries[k - 1]) for s in sigmas))
        return Signature(tuple(ms), parent)
    # children are SO(2k-1) signatures of length k-1, all entries >= 0
    for i in range(k - 2):
        if max(s.entries[i + 1] for s in sigmas) > min(s.entries[i] for s in sigmas):
            return None
    ms = [max(s.entries[i] for s in sigmas) for i in range(k - 1)]
    ms.append(-min(s.entries[k - 2] for s in sigmas))
    return Signature(tuple(ms), parent)


def merge_max(sigs):
    ctx = sigs[0].ctx
    k = ctx.k
    out = [max(s.entries[i] for s in sigs) for i in range(k)]
    if ctx.n % 2 == 0 and k >= 1:
        out[-1] = max(abs(s.entries[-1]) for s in sigs)
    return out


def shift_law(a, b):
    """The class distance by its law, as a naive scan over (i, t): 0 for
    a == b, else 1 + the largest shift t with |b[i+t]| > a[i] or |a[i+t]| >
    b[i] for some i, 0 when there is none."""
    if a == b:
        return 0
    k = len(a)
    shifts = [t for t in range(1, k) for i in range(k - t) if abs(b[i + t]) > a[i] or abs(a[i + t]) > b[i]]
    return 1 + max(shifts, default=0)


def walk(pi1, pi2):
    """The geodesic: step t of d is max(|a[i+t]|, |b[i+d-t]|), entries past
    the end read as 0, and each witness is the least common child of the
    two steps it joins."""
    if pi1 == pi2:
        return Walk((pi1,), ())
    ctx = pi1.ctx
    a, b = pi1.entries, pi2.entries
    d = shift_law(a, b)

    def at(e, i):
        return abs(e[i]) if i < ctx.k else 0

    middle = [Signature(tuple(max(at(a, i + t), at(b, i + d - t)) for i in range(ctx.k)), ctx) for t in range(1, d)]
    steps = (pi1, *middle, pi2)
    return Walk(steps, tuple(common_restriction([x, y]) for x, y in zip(steps, steps[1:])))


# --- agreement ----------------------------------------------------------------


def assert_same_on_parents(family):
    """Every closed form on a family of signatures of one group SO(n),
    n >= 3: the boxes of each, and the pairwise forms on the first two."""
    for pi in family:
        assert signatures.branch_box(pi) == branch_box(pi), pi
    a, b = family[0], family[1]
    assert signatures.inseparable(a, b) == inseparable(a, b), (a, b)
    assert signatures.merge_max(family) == merge_max(family), family
    assert signatures.common_restriction(family) == common_restriction(family), family
    assert signatures.walk(a, b).to_dict() == walk(a, b).to_dict(), (a, b)


def assert_same_on_children(family):
    """The forms that take a family of child signatures, SO(n-1), n >= 3."""
    for sigma in family:
        assert signatures.hull_intervals(sigma) == hull_intervals(sigma), sigma
    assert signatures.merge_max(family) == merge_max(family), family
    assert signatures.common_extension(family) == common_extension(family), family


@pytest.mark.parametrize("n", range(3, 13))
def test_closed_forms_match_parity_forms_on_every_pair(n):
    # every pair of the sweep's classes, and of its germ signatures
    bound = default_bound(n)
    parents = enumerate_signatures(n, bound)
    children = enumerate_signatures(n - 1, bound + 1)
    for a, b in itertools.product(parents, repeat=2):
        assert_same_on_parents([a, b])
    for x, y in itertools.product(children, repeat=2):
        assert_same_on_children([x, y])
    for pi, sigma in itertools.product(parents, children):
        assert signatures.restricts_to(pi, sigma) == restricts(pi, sigma), (pi, sigma)


@pytest.mark.parametrize("n", range(3, 13))
def test_closed_forms_match_parity_forms_on_sampled_triples(n):
    rng = random.Random(n)
    bound = default_bound(n) + 1
    parents = enumerate_signatures(n, bound)
    children = enumerate_signatures(n - 1, bound)
    for _ in range(300):
        assert_same_on_parents(rng.choices(parents, k=3))
        assert_same_on_children(rng.choices(children, k=3))


def signature_of(n, entry_max=20):
    """Valid SO(n) signatures with entries up to `entry_max` in size."""
    k = n // 2
    if n == 2:
        return st.integers(-entry_max, entry_max).map(lambda m: Signature((m,), GroupContext(2)))
    desc = st.lists(st.integers(0, entry_max), min_size=k, max_size=k).map(lambda xs: sorted(xs, reverse=True))
    if n % 2 == 0:
        desc = st.tuples(desc, st.booleans()).map(lambda t: t[0][:-1] + [-t[0][-1]] if t[1] else t[0])
    return desc.map(lambda xs: Signature(tuple(xs), GroupContext(n)))


@st.composite
def families(draw):
    n = draw(st.integers(3, 16))
    size = draw(st.integers(2, 4))
    parents = draw(st.lists(signature_of(n), min_size=size, max_size=size))
    children = draw(st.lists(signature_of(n - 1), min_size=size, max_size=size))
    return parents, children


@given(families())
@settings(max_examples=250, deadline=None)
def test_closed_forms_match_parity_forms_on_hypothesis_signatures(fam):
    parents, children = fam
    assert_same_on_parents(parents)
    assert_same_on_children(children)
    for pi in parents:
        for sigma in children:
            assert signatures.restricts_to(pi, sigma) == restricts(pi, sigma), (pi, sigma)
    # witnesses restrict, so `restricts_to` is also compared where it holds
    w = signatures.common_restriction(parents)
    if w is not None:
        assert all(restricts(pi, w) and signatures.restricts_to(pi, w) for pi in parents)
    x = signatures.common_extension(children)
    if x is not None:
        assert all(restricts(x, s) and signatures.restricts_to(x, s) for s in children)


# --- least witnesses by brute force -----------------------------------------------


def families_of(sigs):
    return [list(f) for size in (2, 3) for f in itertools.combinations_with_replacement(sigs, size)]


@pytest.mark.parametrize("n", range(3, 9))
def test_common_extension_is_least_common_parent(n):
    # parents one bound higher, so that no common parent is cut off
    bound = 2
    parents = enumerate_signatures(n, bound + 1)  # in lexicographic order
    for family in families_of(enumerate_signatures(n - 1, bound)):
        least = next((pi for pi in parents if all(restricts_to(pi, s) for s in family)), None)
        assert signatures.common_extension(family) == least, family


@pytest.mark.parametrize("n", range(3, 9))
def test_common_restriction_is_least_common_child(n):
    bound = 2
    branches = {pi: set(branch(pi)) for pi in enumerate_signatures(n, bound)}
    for family in families_of(list(branches)):
        common = set.intersection(*(branches[pi] for pi in family))
        least = min(common, key=lambda s: s.entries, default=None)
        assert signatures.common_restriction(family) == least, family


# --- the class distance law ---------------------------------------------------


def random_signature(rng, n, entry_max):
    k = n // 2
    entries = sorted((rng.randint(0, entry_max) for _ in range(k)), reverse=True)
    if n % 2 == 0 and k and rng.random() < 0.5:
        entries[-1] = -entries[-1]
    return Signature(tuple(entries), GroupContext(n))


@pytest.mark.parametrize("n", range(3, 31))
def test_distance_law_matches_the_naive_scan(n):
    rng = random.Random(n)
    for _ in range(700):
        a, b = (random_signature(rng, n, rng.choice((1, 2, 5))).entries for _ in range(2))
        assert signatures._distance(a, b) == shift_law(a, b), (a, b)


@pytest.mark.parametrize("n", range(3, 31))
def test_geodesic_rows_stay_within_the_endpoints(n):
    """No step or witness of `walk` has an entry above the endpoints' larger
    entry in the same coordinate, so the walk lies in every truncation that
    holds both ends."""
    rng = random.Random(n)
    for _ in range(200):
        a, b = (random_signature(rng, n, 4) for _ in range(2))
        top = [max(abs(x), abs(y)) for x, y in zip(a.entries, b.entries)]
        w = signatures.walk(a, b)
        for row in (*w.steps, *w.witnesses):
            assert all(abs(e) <= t for e, t in zip(row.entries, top)), (a, b, row)


def assert_law_is_the_search_distance(graph, walks: bool):
    """From each vertex of the graph that is no line kernel, the layered
    search puts every other such vertex at the law's distance; with `walks`,
    `walk` is also a valid walk of that length between them."""
    sigs = [p.sig for p in graph.points if p.kind != LINE_KIND]
    for a, x in enumerate(sigs):
        dist = {b: d for d, layer in enumerate(graph._layers(1 << a)) for b in _members(layer)}
        for b, y in enumerate(sigs):
            assert signatures._distance(x.entries, y.entries) == dist[b], (x, y)
            if walks:
                w = signatures.walk(x, y)
                assert w.length == dist[b] and not walk_violations(w), (x, y)


GRID = [(13, 2), (20, 1), (10, 3), (5, 12), (8, 5), (3, 40), (6, 8), (4, 20)]
SLOW_GRID = {(6, 8), (4, 20)}


@pytest.mark.parametrize(
    "n, bound", [pytest.param(*nb, marks=pytest.mark.slow) if nb in SLOW_GRID else nb for nb in GRID]
)
def test_law_and_geodesic_match_the_layered_search(n, bound):
    """On every class pair of the class graph and every germ pair of the
    sub-ideal graph, the law is the search distance and the geodesic a valid
    walk of that length (germs of SO(2) have no child group to walk in)."""
    assert_law_is_the_search_distance(build_dual_model(n, bound).classes, walks=True)
    assert_law_is_the_search_distance(star_graph(n, bound), walks=n - 1 >= 3)
