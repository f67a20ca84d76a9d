"""networkx as a second oracle for the shared graph core.

The reference graphs are built straight from the closed forms
(`signatures.inseparable` for classes, `primal.star_adjacent` for
sub-ideals), never from `Graph`'s own adjacency, so a fault in the core's
construction or traversal shows as a disagreement.  Besides a fixed grid,
hypothesis draws (N, bound) under a small entry budget and runs the same
comparisons, with the model's germ closures checked against a
`restricts_to` scan.
"""

from itertools import islice
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

from motiondual.dualspace import (  # noqa: E402
    CLASS_KIND,
    GERM_KIND,
    Graph,
    Point,
    build_dual_model,
    components_and_orc,
    distance,
    dual_model_to_dot,
    dual_model_to_json,
)
from motiondual.primal import (  # noqa: E402
    big_d,
    star_adjacent,
    star_graph,
    star_graph_to_dot,
    star_graph_to_json,
    sub_ideals,
)
from motiondual.errors import PreconditionViolated  # noqa: E402
from motiondual.signatures import count_signatures, enumerate_signatures, inseparable, restricts_to  # noqa: E402
from test_dualspace import graph_edges, inseparable_points, neighbors  # noqa: E402

GRID = [(3, 1), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (8, 1)]

# signature entries (points times floor(N/2), as `dualspace.MAX_SIZE`
# counts them) of the largest drawn model: about 80 classes at most, so
# the all-pairs distance comparison stays well under a second per draw
ENTRY_BUDGET = 200


def model_entries(n, bound):
    return (count_signatures(n, bound) + count_signatures(n - 1, bound)) * (n // 2)


def max_bound(n):
    """The largest bound up to 8 whose model fits the entry budget."""
    return max(b for b in range(9) if model_entries(n, b) <= ENTRY_BUDGET)


truncations = st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max_bound(n))))


def reference(vertices, related) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from((a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :] if related(a, b))
    return g


def class_reference(n, bound):
    points = [Point(CLASS_KIND, s) for s in enumerate_signatures(n, bound)]
    return reference(points, lambda a, b: inseparable(a.sig, b.sig))


def largest_diameter(g) -> int:
    return max(nx.diameter(g.subgraph(c)) for c in nx.connected_components(g))


def components_of(g) -> set:
    return {frozenset(c) for c in nx.connected_components(g)}


def closure(space, x):
    """The closure of the point x, from the space's closure masks."""
    return space._set(space._closure[space._index[x]])


def check_closures(n, bound):
    classes = enumerate_signatures(n, bound)
    space = build_dual_model(n, bound).space
    for g in enumerate_signatures(n - 1, bound):
        hull = {Point(CLASS_KIND, c) for c in classes if restricts_to(c, g)}
        assert closure(space, Point(GERM_KIND, g)) == hull | {Point(GERM_KIND, g)}, g


def check_class_graph(n, bound):
    model = build_dual_model(n, bound)
    ref = class_reference(n, bound)
    comps, orc = components_and_orc(model)
    assert set(comps) == components_of(ref)
    assert len(comps) == len(set(comps))
    assert model.space.diameter(model.class_mask) == largest_diameter(ref)
    assert orc == max(1, largest_diameter(ref))
    for x, lengths in nx.all_pairs_shortest_path_length(ref):
        for y in ref:
            assert distance(model, x, y) == lengths.get(y, inf)


def check_sub_ideal_graph(n, bound):
    ref = reference(sub_ideals(n, bound), star_adjacent)
    graph = star_graph(n, bound)
    assert set(graph.components()) == components_of(ref)
    assert graph.diameter() == big_d(n, bound) == largest_diameter(ref)


@pytest.mark.parametrize("n,bound", GRID)
def test_class_graph_matches_networkx(n, bound):
    check_class_graph(n, bound)


@pytest.mark.parametrize("n,bound", GRID)
def test_sub_ideal_graph_matches_networkx(n, bound):
    check_sub_ideal_graph(n, bound)


@given(truncations)
@example((3, 8))
@example((4, 8))
@settings(max_examples=25, deadline=None)
def test_drawn_truncations_match_oracles(case):
    n, bound = case
    assert model_entries(n, bound) <= ENTRY_BUDGET
    check_closures(n, bound)
    check_class_graph(n, bound)
    check_sub_ideal_graph(n, bound)


def bounded_largest_diameter(g) -> int:
    """`largest_diameter` by networkx's exact bounding search (Takes and
    Kosters) on a copy of each component: on a subgraph view the search
    took 157 s for the (6, 16) class graph, on the graph itself 33 s."""
    return max(
        nx.diameter(g if len(c) == len(g) else g.subgraph(c).copy(), usebounds=True)
        for c in nx.connected_components(g)
    )


# the (N, bound) table of the model-build record; together about 70 s and
# 230 MB at most, so they run only under --runslow
LARGE_TRUNCATIONS = [(8, 10), (6, 16), (5, 40), (9, 8), (10, 6)]


@pytest.mark.slow
@pytest.mark.parametrize("n,bound", LARGE_TRUNCATIONS)
def test_orc_and_d_at_large_truncations_match_networkx(n, bound):
    ref = class_reference(n, bound)
    comps, orc = components_and_orc(build_dual_model(n, bound))
    assert set(comps) == components_of(ref)
    assert orc == max(1, bounded_largest_diameter(ref)) == n // 2
    del ref
    sub = reference(sub_ideals(n, bound), star_adjacent)
    assert set(star_graph(n, bound).components()) == components_of(sub)
    assert big_d(n, bound) == bounded_largest_diameter(sub)


@pytest.mark.parametrize("n,bound", [(4, 1), (5, 2), (6, 1), (7, 1)])
def test_d_star_matches_networkx(n, bound):
    verts = sub_ideals(n, bound)
    ref = reference(verts, star_adjacent)
    graph = star_graph(n, bound)
    for x, lengths in nx.all_pairs_shortest_path_length(ref):
        for y in verts:
            assert graph.distance(x, y) == lengths.get(y, inf)


def pairwise_scan(vertices, related, label) -> list:
    return [
        (label(a), label(b))
        for i, a in enumerate(vertices)
        for b in vertices[i + 1 :]
        if related(a, b)
    ]


def dot_edges(text: str) -> list:
    return [
        tuple(line.split('"')[1::2])
        for line in text.splitlines()
        if line.endswith("[dir=none];")
    ]


@pytest.mark.parametrize("n,bound", [(4, 1), (5, 2), (6, 2), (7, 1)])
def test_exporter_edges_match_pairwise_scan(n, bound):
    space = build_dual_model(n, bound).space
    dual = pairwise_scan(space.points, lambda x, y: inseparable_points(space, x, y), lambda p: p.point_id)
    assert dot_edges(dual_model_to_dot(build_dual_model(n, bound))) == dual
    assert dual_model_to_json(build_dual_model(n, bound))["edges"] == sorted(map(list, dual))

    sub = pairwise_scan(sub_ideals(n, bound), star_adjacent, lambda v: v.point_id)
    assert dot_edges(star_graph_to_dot(n, bound)) == sub
    assert star_graph_to_json(n, bound)["edges"] == sorted(map(list, sub))


# --- the graph core on random graphs ---------------------------------------------


@st.composite
def random_graphs(draw):
    """Up to 12 string-labelled vertices, random edges, a vertex mask (or
    None) for `within`, vertex subsets for the sources and the targets, and
    a radius."""
    labels = draw(st.lists(st.text(min_size=1, max_size=3), unique=True, max_size=12))
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    subsets = st.frozensets(st.sampled_from(labels)) if labels else st.just(frozenset())
    within = draw(st.one_of(st.none(), st.integers(0, (1 << len(labels)) - 1)))
    return labels, edges, within, draw(subsets), draw(subsets), draw(st.integers(-1, 4))


@given(random_graphs())
@settings(max_examples=300, deadline=None)
def test_graph_core_matches_networkx(case):
    labels, edges, within, xs, ys, radius = case
    adjacency = [0] * len(labels)
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    graph = Graph(labels, adjacency)
    ref = nx.Graph()
    ref.add_nodes_from(labels)
    ref.add_edges_from((labels[i], labels[j]) for i, j in edges)
    sub = ref if within is None else ref.subgraph(graph._set(within))
    order = {v: i for i, v in enumerate(labels)}.__getitem__

    assert graph_edges(graph) == sorted(
        (tuple(sorted(e, key=order)) for e in ref.edges()), key=lambda e: (order(e[0]), order(e[1]))
    )
    for v in labels:
        assert list(neighbors(graph, v)) == sorted(ref[v], key=order)

    lengths = nx.multi_source_dijkstra_path_length(sub, xs & set(sub)) if xs & set(sub) else {}
    assert graph.bfs(xs, within) == lengths
    hits = [d for y, d in lengths.items() if y in ys]
    sources, inside = graph._mask(xs), graph._within(within)
    assert graph._reach(sources, graph._mask(ys), inside) == (min(hits) if hits else inf)
    assert graph._set(graph._ball(sources, inside, radius)) == {v for v, d in lengths.items() if d <= radius}

    comps = graph.components(within)
    assert set(comps) == {frozenset(c) for c in nx.connected_components(sub)}
    assert [min(map(order, c)) for c in comps] == sorted(min(map(order, c)) for c in comps)
    want = max((nx.diameter(sub.subgraph(c)) for c in nx.connected_components(sub)), default=0)
    assert graph.diameter(within) == want

    for x in labels:
        for y in labels:
            if not {x, y} <= set(sub):
                with pytest.raises(PreconditionViolated):
                    graph.distance(x, y, within)
            else:
                want = nx.shortest_path_length(sub, x, y) if nx.has_path(sub, x, y) else inf
                assert graph.distance(x, y, within) == want


@given(random_graphs())
@settings(max_examples=200, deadline=None)
def test_layers_match_networkx_bfs_layers(case):
    # the one layered search itself, bounded by islice so that a search
    # that never ends shows as a failure rather than a hang
    labels, edges, within, xs, _, _ = case
    adjacency = [0] * len(labels)
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    graph = Graph(labels, adjacency)
    ref = nx.Graph()
    ref.add_nodes_from(labels)
    ref.add_edges_from((labels[i], labels[j]) for i, j in edges)
    sub = ref if within is None else ref.subgraph(graph._set(within))
    starts = xs & set(sub)
    want = [graph._mask(layer) for layer in nx.bfs_layers(sub, starts)] if starts else []
    got = list(islice(graph._layers(graph._mask(xs), graph._within(within)), len(labels) + 1))
    assert got == want
