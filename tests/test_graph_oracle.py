"""networkx as a second oracle for the shared graph core.

The reference graphs are built straight from the closed forms
(`signatures.inseparable` for classes, `primal.star_adjacent` for
sub-ideals), never from `Graph`'s own adjacency, so a fault in the core's
construction or traversal shows as a disagreement.
"""

from math import inf

import pytest

nx = pytest.importorskip("networkx")

from motiondual.dualspace import (  # noqa: E402
    CLASS_KIND,
    Point,
    build_dual_model,
    components_and_orc,
    distance,
    dual_model_to_dot,
    dual_model_to_json,
)
from motiondual.primal import (  # noqa: E402
    big_d,
    d_star,
    star_adjacent,
    star_graph,
    star_graph_to_dot,
    star_graph_to_json,
    sub_ideals,
)
from motiondual.signatures import enumerate_signatures, inseparable  # noqa: E402

GRID = [(3, 1), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (8, 1)]


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


@pytest.mark.parametrize("n,bound", GRID)
def test_class_graph_matches_networkx(n, bound):
    model = build_dual_model(n, bound)
    ref = class_reference(n, bound)
    comps, orc = components_and_orc(model)
    assert set(comps) == components_of(ref)
    assert len(comps) == len(set(comps))
    assert model.space.diameter(model.class_points) == largest_diameter(ref)
    assert orc == max(1, largest_diameter(ref))
    for x, lengths in nx.all_pairs_shortest_path_length(ref):
        for y in ref:
            assert distance(model, x, y) == lengths.get(y, inf)


@pytest.mark.parametrize("n,bound", GRID)
def test_sub_ideal_graph_matches_networkx(n, bound):
    ref = reference(sub_ideals(n, bound), star_adjacent)
    graph = star_graph(n, bound)
    assert set(graph.components()) == components_of(ref)
    assert graph.diameter() == big_d(n, bound) == largest_diameter(ref)


@pytest.mark.parametrize("n,bound", [(4, 1), (5, 2), (6, 1), (7, 1)])
def test_d_star_matches_networkx(n, bound):
    verts = sub_ideals(n, bound)
    ref = reference(verts, star_adjacent)
    for x, lengths in nx.all_pairs_shortest_path_length(ref):
        for y in verts:
            assert d_star(x, y, bound) == lengths.get(y, inf)


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
    dual = pairwise_scan(space.points, space.inseparable, lambda p: p.point_id)
    assert dot_edges(dual_model_to_dot(build_dual_model(n, bound))) == dual
    assert dual_model_to_json(build_dual_model(n, bound))["edges"] == sorted(map(list, dual))

    sub = pairwise_scan(sub_ideals(n, bound), star_adjacent, lambda v: v.ideal_id)
    assert dot_edges(star_graph_to_dot(n, bound)) == sub
    assert star_graph_to_json(n, bound)["edges"] == sorted(map(list, sub))
