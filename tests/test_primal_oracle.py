"""Closed-form containment, minimality and merge certificates against
brute-force oracles.

`contains_ideal`, the reference containment test kept here, and
`min_primal` are interval tests on the infinite hulls; the oracle is the
enumerated `hull` defined here, taken at a bound above every entry
involved so that no hull is cut short.
"""

import itertools
import json
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motiondual import primal, signatures, verification
from motiondual.dualspace import GERM_KIND, LINE_KIND, Point, overlap_masks
from motiondual.errors import ContextMismatch, PreconditionViolated
from motiondual.primal import (
    merge_certificate,
    min_primal,
    sub_ideals,
    validate_certificate,
)
from motiondual.signatures import (
    common_extension,
    enumerate_signatures,
    hull_intervals,
    inseparable,
    restricts_to,
    validate,
)
from test_dualspace import graph_edges


def germ(entries, n_child):
    return Point(GERM_KIND, validate(entries, n_child))


def hull(ideal, bound):
    """Classes containing the ideal, within the truncation.  A line kernel
    has empty hull among the classes (its hull sits on the half-line)."""
    if ideal.kind == LINE_KIND:
        return frozenset()
    parents = enumerate_signatures(ideal.sig.ctx.n + 1, bound)
    return frozenset(pi for pi in parents if restricts_to(pi, ideal.sig))


def contains_ideal(I, J) -> bool:
    """True when the germ ideal I contains J, i.e. hull(I) is inside
    hull(J): every interval of I's hull lies inside the matching interval
    of J's.  Exact on the infinite hulls, so no truncation is involved."""
    if I.kind != GERM_KIND or J.kind != GERM_KIND:
        raise PreconditionViolated("ideal containment is defined for germ ideals")
    if I.sig.ctx is not J.sig.ctx:
        raise ContextMismatch("germ ideals live in different groups")
    return all(
        lo_j <= lo_i and hi_i <= hi_j
        for (lo_i, hi_i), (lo_j, hi_j) in zip(hull_intervals(I.sig), hull_intervals(J.sig))
    )


def _hulls(n, entry_max, hull_bound=None):
    """Germ ideals of SO(n) with entries up to `entry_max`, each with its
    hull enumerated at `hull_bound`, by default one bound higher."""
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(n - 1, entry_max)]
    return {g: hull(g, entry_max + 1 if hull_bound is None else hull_bound) for g in germs}


@pytest.mark.parametrize("n", range(3, 9))
def test_contains_ideal_matches_hull_oracle(n):
    # entries up to 3: the grid holds germs outside small truncations such
    # as bound 1, where truncated hulls are empty
    hulls = _hulls(n, 3)
    for (a, ha), (b, hb) in itertools.product(hulls.items(), repeat=2):
        assert contains_ideal(a, b) == (ha <= hb), (a, b)
        assert (contains_ideal(a, b) and not contains_ideal(b, a)) == (ha < hb), (a, b)


def test_containment_beyond_small_truncation():
    # at bound 1 the truncated hull of (5,3) is empty, so a truncated
    # comparison would read containment here
    assert not contains_ideal(germ([5, 3], 4), germ([1, 0], 4))
    assert not contains_ideal(germ([5, 0], 4), germ([1, 0], 4))
    assert contains_ideal(germ([5, 3], 4), germ([5, 0], 4))
    assert not contains_ideal(germ([5, 3], 5), germ([1, 0], 5))


def _min_primal_oracle(n, bound, competitors=None):
    """The sub-ideals at `bound` whose hull no competitor's hull strictly
    contains, the competitors having entries up to `competitors` (default
    `bound`) and every hull being enumerated at bound + 1."""
    hulls = _hulls(n, bound if competitors is None else competitors, bound + 1)
    return [
        i
        for i in sub_ideals(n, bound)
        if i.kind == LINE_KIND or not any(hulls[i] < h for h in hulls.values())
    ]


GRID = [(n, b) for n in range(3, 8) for b in range(0, 4)] + [(8, 2), (9, 1), (10, 1), (11, 1)]


@pytest.mark.parametrize("n, bound", GRID)
def test_min_primal_matches_hull_oracle(n, bound):
    assert min_primal(n, bound) == _min_primal_oracle(n, bound)


# the sweep's default bounds and the raised bounds where the check is slowest
SWEEP_GRID = [(n, verification.default_bound(n)) for n in range(3, 13)]
SWEEP_GRID += [(11, 5), (9, 6), (7, 10), (5, 21), (6, 10), (8, 6)]


@pytest.mark.parametrize("n, bound", SWEEP_GRID)
def test_sweep_mask_oracle_matches_hull_oracle(n, bound):
    # the sweep compares hulls as parent masks, with competitors one bound up
    assert verification._min_primal_oracle(n, bound) == _min_primal_oracle(n, bound, competitors=bound + 1)


def test_closed_forms_enumerate_no_hull_or_branch(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("closed form called an enumeration oracle")

    # `hull` lives in these tests, out of the closed forms' reach
    monkeypatch.setattr(signatures, "branch", forbidden)
    calls = []
    enumerate_once = primal.enumerate_signatures
    monkeypatch.setattr(
        primal, "enumerate_signatures", lambda *a: calls.append(a) or enumerate_once(*a)
    )

    assert contains_ideal(germ([2, 1], 4), germ([2, 0], 4))
    assert not contains_ideal(germ([2, 0], 4), germ([2, 1], 4))
    assert calls == []
    primal.star_graph.cache_clear()  # min_primal reads the vertices of a cached graph
    kept = primal.min_primal(7, 2)
    assert calls == [(6, 2)]  # the vertex set itself; no competitor enumeration
    assert len(kept) < len(sub_ideals(7, 2))
    assert inseparable(validate([2, 1], 5), validate([1, 1], 5))
    assert common_extension([validate([2, 0], 4), validate([1, 1], 4)]) is not None


@pytest.mark.parametrize("n", range(3, 11))
def test_every_bound_one_triple_certifies(n):
    pool = enumerate_signatures(n - 1, 1)
    for triple in itertools.product(pool, repeat=3):
        report = validate_certificate(merge_certificate(n, *triple), 1)
        assert report.ok, (triple, report.violations)


def test_sweep_check_catches_wrong_min_primal(monkeypatch):
    assert verification.check_min_primal_parity(5, 2).ok
    # still odd-n shaped (something excluded), but drops the zero germ too
    monkeypatch.setattr(
        primal,
        "min_primal",
        lambda n, b: [i for i in sub_ideals(n, b) if i.kind == LINE_KIND],
    )
    result = verification.check_min_primal_parity(5, 2)
    assert not result.ok


@pytest.mark.parametrize(
    "n, triple, steps, witnesses, targets, primal_witness",
    [
        (
            9,
            ([2, 1, 1, -1], [1, 1, 0, 0], [2, 2, 1, 0]),
            [[2, 2, 1, 1], [2, 2, 1, 0]],
            [[2, 1, 1, 0]],
            [[2, 2, 1, 0], [2, 2, 0, 0], [2, 2, 1, 0]],
            [2, 2, 0, 0],
        ),
        (
            10,
            ([2, 1, 1, 0], [1, 1, 0, 0], [2, 2, 1, 1]),
            [[2, 2, 1, 1, 0], [2, 2, 1, 0, 0]],
            [[2, 1, 1, 0]],
            [[2, 2, 1, 0, 0], [2, 2, 0, 0, 0], [2, 2, 1, 0, 0]],
            [2, 2, 0, 0],
        ),
        (
            13,
            ([2, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0], [2, 2, 1, 1, 1, -1]),
            [[2, 2, 1, 1, 1, 0], [2, 2, 1, 1, 1, 0], [2, 2, 1, 1, 0, 0]],
            [[2, 1, 1, 1, 0, 0], [2, 2, 1, 1, 0, 0]],
            [[2, 2, 1, 1, 0, 0], [2, 2, 1, 0, 0, 0], [2, 2, 1, 1, 0, 0]],
            [2, 2, 1, 0, 0, 0],
        ),
    ],
)
def test_triple_case_walks_end_one_short(n, triple, steps, witnesses, targets, primal_witness):
    # the final state of a triple-case walk keeps one input coordinate after
    # the merged prefix; pinned because a fully generic last step also validates
    cert = merge_certificate(n, *(validate(t, n - 1) for t in triple)).to_dict()
    assert cert["walks"][0]["steps"] == steps
    assert cert["walks"][0]["witnesses"] == witnesses
    assert cert["targets"] == targets
    assert cert["primal_witness"] == primal_witness


@pytest.mark.parametrize("n,bound", [(n, b) for n in range(3, 11) for b in (0, 1, 2)])
def test_star_graph_edges_match_pairwise_scans(n, bound):
    # the interval-overlap adjacency of `star_graph` against the closed form
    # `star_adjacent` and against the common-extension test it stands for
    ideals = sub_ideals(n, bound)
    scan = [(a, b) for i, a in enumerate(ideals) for b in ideals[i + 1 :] if primal.star_adjacent(a, b)]
    extension = [
        (a, b)
        for i, a in enumerate(ideals)
        for b in ideals[i + 1 :]
        if a.kind == b.kind == GERM_KIND and common_extension([a.sig, b.sig]) is not None
    ]
    assert graph_edges(primal.star_graph(n, bound)) == scan == extension


def star_graph_to_json_oracle(n, bound):
    """The sub-ideal JSON export as written before the shared writers: every
    id formatted per mention."""
    graph = primal.star_graph(n, bound)
    return {
        "n": n,
        "bound": bound,
        "ideals": [{"id": str(v), "kind": v.kind, "entries": list(v.sig.entries)} for v in graph.points],
        "edges": sorted([str(a), str(b)] for a, b in graph_edges(graph)),
    }


def star_graph_to_dot_oracle(n, bound):
    """The sub-ideal dot export as written before the shared writers."""
    graph = primal.star_graph(n, bound)
    lines = [f'digraph "sub_so{n}_bound{bound}" {{']
    for v in graph.points:
        shape = "ellipse" if v.kind == GERM_KIND else "box"
        lines.append(f'  "{v}" [shape={shape}];')
    for a, b in graph_edges(graph):
        lines.append(f'  "{a}" -> "{b}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,bound", [(3, 0), (4, 1), (5, 2), (6, 2), (7, 3), (5, 12), (8, 5), (24, 2)])
def test_star_graph_exports_match_per_mention_oracle(n, bound):
    got = json.dumps(primal.star_graph_to_json(n, bound), indent=2)
    assert got == json.dumps(star_graph_to_json_oracle(n, bound), indent=2)
    assert primal.star_graph_to_dot(n, bound) == star_graph_to_dot_oracle(n, bound)


# --- hull overlap masks -----------------------------------------------------------


def hull_pair_scan(boxes) -> list[int]:
    """The oracle for `dualspace.overlap_masks`: the pair scan that
    `star_graph` ran before it, with box a meeting box b when their
    intervals overlap in every coordinate, and each box meeting itself."""
    rows = [0] * len(boxes)
    for a, ha in enumerate(boxes):
        for b, hb in enumerate(boxes):
            if all(lo_a <= hi_b and lo_b <= hi_a for (lo_a, hi_a), (lo_b, hi_b) in zip(ha, hb)):
                rows[a] |= 1 << b
    return rows


# endpoints from a small range, so that ties and equal endpoints are common;
# negative ends and point boxes (v, v) as in the dual model's germ boxes
ends = st.integers(-3, 4)
intervals = st.tuples(ends, ends | st.just(inf)).map(lambda pair: tuple(sorted(pair))) | ends.map(lambda v: (v, v))
box_lists = st.integers(1, 4).flatmap(lambda k: st.lists(st.tuples(*[intervals] * k), max_size=12))


@given(box_lists)
@example([])
@example([((2, inf),)])
@example([((1, 1), (0, inf)), ((1, 1), (0, 0)), ((0, 1), (1, inf)), ((1, inf), (0, 0))])
@example([((-2, 2),), ((-3, -3),), ((-2, -2),), ((2, 2),), ((3, inf),), ((-1, 1),)])
@example([((-1, 1), (0, 0)), ((-1, -1), (0, inf)), ((1, 1), (-2, -2)), ((0, 2), (-2, 0))])
@settings(max_examples=200, deadline=None)
def test_overlap_masks_match_pair_scan(boxes):
    assert overlap_masks(boxes) == hull_pair_scan(boxes)


@pytest.mark.parametrize("n,bound", [(5, 12), (8, 5), (24, 2), (9, 8), (3, 10)])
def test_star_graph_rows_match_hull_pair_scan(n, bound):
    ideals = sub_ideals(n, bound)
    germs = [i for i in ideals if i.kind == GERM_KIND]
    assert ideals[: len(germs)] == germs
    hulls = [signatures.hull_intervals(g.sig) for g in germs]
    rows = hull_pair_scan(hulls)
    assert overlap_masks(hulls) == rows
    germ_rows = [row & ~(1 << a) for a, row in enumerate(rows)]
    assert primal.star_graph(n, bound)._adj == (*germ_rows, *[0] * len(germs))
