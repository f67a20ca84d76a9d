"""The interleaving closed forms against their parity-branched forms and
against brute force.

`signatures` states the interleaving rule once, as the abs rule.  The
forms below write it out separately for even and odd groups, as the
library did before; the library must agree with them value for value,
witness for witness and walk for walk.  The brute-force tests pin the
witnesses of `common_extension` and `common_restriction` to the
lexicographically least common parent and child.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiondual import signatures
from motiondual.signatures import (
    GroupContext,
    Signature,
    Walk,
    branch,
    enumerate_signatures,
    restricts_to,
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


def _tower(entries, s, r, even, k):
    states = [entries]
    wits = []
    for j in range(1, r + 1):
        prev = states[-1]
        nxt = tuple(s[:j]) + entries[j : k - j] + (0,) * j
        if even:
            wit = prev[: k - j] + prev[k - j + 1 :]
        else:
            wit = prev[: k - j] + (0,) * j
        states.append(nxt)
        wits.append(wit)
    return states, wits


def walk(pi1, pi2):
    ctx = pi1.ctx
    if pi1 == pi2:
        return Walk((pi1,), ())
    k = ctx.k
    even = ctx.n % 2 == 0
    s = merge_max([pi1, pi2])
    r = k // 2
    st1, w1 = _tower(pi1.entries, s, r, even, k)
    st2, w2 = _tower(pi2.entries, s, r, even, k)
    steps_e = list(st1)
    wits_e = list(w1)
    if k % 2 == 0:
        steps_e.extend(reversed(st2[:-1]))
        wits_e.extend(reversed(w2))
    else:
        mid_pad = (k - 1 - r) if even else (k - r)
        wits_e.append(tuple(s[:r]) + (0,) * mid_pad)
        steps_e.extend(reversed(st2))
        wits_e.extend(reversed(w2))
    steps = [Signature(e, ctx) for e in steps_e]
    wits = [Signature(e, ctx.child) for e in wits_e]
    out_s, out_w = [steps[0]], []
    for st, w in zip(steps[1:], wits):
        if st != out_s[-1]:
            out_s.append(st)
            out_w.append(w)
    return Walk(tuple(out_s), tuple(out_w))


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
