"""Finite T0 model of a truncation of the dual space of R^n x SO(n).

The dual consists of the SO(n) classes (a closed, relatively discrete
subset) together with, for each SO(n-1) signature, an open half-line of
separated points.  Each half-line is collapsed to a single "germ" point
whose closure is its limit set: the classes whose restriction contains the
germ's signature.  That encoding is an Alexandrov topology given by an
explicit closure map, so inseparability, separation and distance become
finite computations.

All traversal lives in `Graph`: an undirected graph with a fixed vertex
order, carrying breadth-first distances, balls, connected components and
the largest component diameter, each optionally restricted to a vertex
subset.  `FiniteT0Space` is the `Graph` of its inseparability relation and
adds only the topology (closures and minimal open sets); the sub-ideal
graph of `primal` is a plain `Graph`.

Inside the model a germ is inseparable from every class in its hull, an
artifact of the collapse (the half-line points themselves are separated).
All headline metrics therefore run on the class-restricted graph by
default; the full-space relation is kept for the topological machinery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import Iterable, Mapping

from .errors import PreconditionViolated, UnknownPoint
from .signatures import (
    GroupContext,
    Signature,
    enumerate_signatures,
    parse_entries,
    restricts_to,
)

CLASS_KIND = "class"
GERM_KIND = "germ"


@dataclass(frozen=True)
class Point:
    kind: str
    sig: Signature

    @property
    def point_id(self) -> str:
        return f"{self.kind}:{self.sig}"

    def __str__(self) -> str:
        return self.point_id


def adjacency_of(vertices: Iterable, related) -> dict:
    """Symmetric adjacency of a relation over the vertices, in vertex order;
    `related` is called once for each unordered pair of distinct vertices."""
    vertices = tuple(vertices)
    adj: dict = {v: [] for v in vertices}
    for i, x in enumerate(vertices):
        for y in vertices[i + 1 :]:
            if related(x, y):
                adj[x].append(y)
                adj[y].append(x)
    return adj


class Graph:
    """An undirected graph with a fixed vertex order.

    The vertex order is the insertion order of the adjacency mapping and is
    used for every deterministic traversal; each neighbor tuple is kept in
    that order.  All traversals are breadth-first searches, optionally
    restricted to a vertex subset `within`.
    """

    def __init__(self, adjacency: Mapping[object, Iterable[object]]):
        self.points: tuple = tuple(adjacency)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._adj = {p: tuple(sorted(ns, key=self._index.__getitem__)) for p, ns in adjacency.items()}

    def _require(self, *pts) -> None:
        for p in pts:
            if p not in self._index:
                raise UnknownPoint(f"{p} is not a point of this space")

    def neighbors(self, x) -> tuple:
        self._require(x)
        return self._adj[x]

    def edges(self) -> list[tuple]:
        """Every edge once, as (x, y) with x before y, in vertex order."""
        index = self._index
        return [(x, y) for x in self.points for y in self._adj[x] if index[x] < index[y]]

    def bfs(self, sources: Iterable, within: frozenset | None = None) -> dict:
        """Graph distances from the source set, restricted to `within`."""
        sources = list(sources)
        self._require(*sources)
        dist = {}
        queue = deque()
        for s in sorted(sources, key=self._index.__getitem__):
            if s not in dist and (within is None or s in within):
                dist[s] = 0
                queue.append(s)
        while queue:
            x = queue.popleft()
            d = dist[x] + 1
            for y in self._adj[x]:
                if y not in dist and (within is None or y in within):
                    dist[y] = d
                    queue.append(y)
        return dist

    def distance(self, x, y, within: frozenset | None = None):
        self._require(x, y)
        if within is not None and (x not in within or y not in within):
            raise PreconditionViolated("distance endpoints must lie in the restricted vertex set")
        if x == y:
            return 0
        return self.bfs([x], within).get(y, inf)

    def set_distance(self, xs: Iterable, ys: Iterable, within: frozenset | None = None):
        ys = frozenset(ys)
        if not ys or not frozenset(xs):
            return inf
        dist = self.bfs(xs, within)
        hits = [d for p, d in dist.items() if p in ys]
        return min(hits) if hits else inf

    def ball(self, s: Iterable, n: int, within: frozenset | None = None) -> frozenset:
        """All points at graph distance <= n from the set."""
        dist = self.bfs(s, within)
        return frozenset(p for p, d in dist.items() if d <= n)

    def components(self, within: frozenset | None = None) -> tuple[frozenset, ...]:
        seen: set = set()
        comps = []
        for p in self.points:
            if p in seen or (within is not None and p not in within):
                continue
            comp = frozenset(self.bfs([p], within))
            seen |= comp
            comps.append(comp)
        return tuple(comps)

    def diameter(self, within: frozenset | None = None) -> int:
        """Largest component diameter, i.e. the largest eccentricity of a
        vertex; 0 when every component is a singleton."""
        verts = self.points if within is None else [p for p in self.points if p in within]
        return max((max(self.bfs([p], within).values()) for p in verts), default=0)


class FiniteT0Space(Graph):
    """A finite T0 space given by explicit point closures, as the graph of
    its inseparability relation (intersecting minimal open sets).

    The closure map must be reflexive, transitive under the induced set
    operation, and injective (T0); the constructor verifies all three.
    Point order is the insertion order of the mapping.
    """

    def __init__(self, closures: Mapping[object, Iterable[object]]):
        self._closure = {p: frozenset(c) for p, c in closures.items()}
        pts = set(self._closure)
        seen = {}
        for p, cl in self._closure.items():
            if not cl <= pts:
                raise ValueError(f"closure of {p} leaves the point set")
            if p not in cl:
                raise ValueError(f"closure of {p} is not reflexive")
            if frozenset().union(*(self._closure[q] for q in cl)) != cl:
                raise ValueError(f"closure of {p} is not transitive")
            if cl in seen:
                raise ValueError(f"points {seen[cl]} and {p} share a closure (not T0)")
            seen[cl] = p
        # minimal open set of x: all q whose closure contains x
        min_open: dict = {p: set() for p in self._closure}
        for q, cl in self._closure.items():
            for x in cl:
                min_open[x].add(q)
        self._min_open = {p: frozenset(s) for p, s in min_open.items()}
        mo = self._min_open
        super().__init__(adjacency_of(self._closure, lambda x, y: bool(mo[x] & mo[y])))

    def closure(self, x) -> frozenset:
        self._require(x)
        return self._closure[x]

    def closure_of(self, s: Iterable) -> frozenset:
        s = frozenset(s)
        self._require(*s)
        if not s:
            return frozenset()
        return frozenset().union(*(self._closure[p] for p in s))

    def is_closed(self, s: Iterable) -> bool:
        s = frozenset(s)
        return self.closure_of(s) == s

    def min_open(self, x) -> frozenset:
        self._require(x)
        return self._min_open[x]

    def min_open_of(self, s: Iterable) -> frozenset:
        s = frozenset(s)
        self._require(*s)
        if not s:
            return frozenset()
        return frozenset().union(*(self._min_open[p] for p in s))

    def inseparable(self, x, y) -> bool:
        """True iff the minimal open sets of x and y intersect."""
        self._require(x, y)
        return bool(self._min_open[x] & self._min_open[y])


@dataclass(frozen=True)
class DualModel:
    """Truncated dual-space model: classes plus one germ per half-line."""

    space: FiniteT0Space
    n: int
    bound: int
    class_points: frozenset
    germ_points: frozenset

    def class_point(self, sig: Signature) -> Point:
        p = Point(CLASS_KIND, sig)
        if p not in self.class_points:
            raise UnknownPoint(f"{p} is not in this model (n={self.n}, bound={self.bound})")
        return p

    def germ_point(self, sig: Signature) -> Point:
        p = Point(GERM_KIND, sig)
        if p not in self.germ_points:
            raise UnknownPoint(f"{p} is not in this model (n={self.n}, bound={self.bound})")
        return p


@lru_cache(maxsize=None)
def build_dual_model(n: int, bound: int) -> DualModel:
    """Model of the dual of R^n x SO(n) truncated at the given leading entry.

    Class points are the SO(n) signatures, each closed; germ points are the
    SO(n-1) signatures, each closing onto its hull of classes.  Accepts
    bound 0 (the degenerate one-class model).
    """
    if n < 3:
        raise PreconditionViolated("dual models need n >= 3; n = 2 is covered by closed formulas")
    if bound < 0:
        raise PreconditionViolated("bound must be >= 0")
    classes = [Point(CLASS_KIND, s) for s in enumerate_signatures(n, bound)]
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(n - 1, bound)]
    closures: dict = {p: {p} for p in classes}
    for g in germs:
        closures[g] = {g} | {p for p in classes if restricts_to(p.sig, g.sig)}
    space = FiniteT0Space(closures)
    return DualModel(space, n, bound, frozenset(classes), frozenset(germs))


def separated_points(model: DualModel) -> frozenset:
    """Points inseparable only from themselves among all model points."""
    return frozenset(p for p in model.space.points if not model.space.neighbors(p))


def distance(model: DualModel, x, y, restrict_to_class: bool = True):
    """BFS distance in the inseparability graph; class-restricted by default
    (the faithful distance, since the half-line points are separated)."""
    return model.space.distance(x, y, model.class_points if restrict_to_class else None)


def components_and_orc(model: DualModel) -> tuple[tuple[frozenset, ...], int]:
    """Components of the class-restricted graph and the connecting order:
    the largest component diameter, a singleton component counting 1."""
    comps = model.space.components(model.class_points)
    return comps, max(1, model.space.diameter(model.class_points))


@dataclass(frozen=True)
class GlimmPartition:
    """Blocks of the complete regularization: each germ is a singleton block
    and the class points split along transitive inseparability."""

    blocks: tuple[frozenset, ...]
    class_blocks: int
    single_class_block: bool


def glimm_partition(model: DualModel) -> GlimmPartition:
    class_comps = model.space.components(model.class_points)
    germ_blocks = tuple(frozenset([g]) for g in model.space.points if g in model.germ_points)
    blocks = tuple(class_comps) + germ_blocks
    return GlimmPartition(blocks, len(class_comps), len(class_comps) == 1)


def point_from_id(model: DualModel, point_id: str) -> Point:
    if not isinstance(point_id, str):
        raise TypeError(f"point id {point_id!r} is not a string")
    kind, _, rest = point_id.partition(":")
    if kind not in (CLASS_KIND, GERM_KIND):
        raise UnknownPoint(f"bad point id {point_id!r}")
    ctx = GroupContext(model.n if kind == CLASS_KIND else model.n - 1)
    p = Point(kind, Signature(parse_entries(rest), ctx))
    model.space._require(p)
    return p


def dual_model_to_json(model: DualModel) -> dict:
    space = model.space
    return {
        "n": model.n,
        "bound": model.bound,
        "points": [{"id": p.point_id, "kind": p.kind, "entries": list(p.sig.entries)} for p in space.points],
        "closures": {p.point_id: sorted(q.point_id for q in space.closure(p)) for p in space.points},
        "edges": sorted([p.point_id, q.point_id] for p, q in space.edges()),
    }


def dual_model_from_json(payload: dict) -> DualModel:
    n = int(payload["n"])
    bound = int(payload["bound"])
    model = build_dual_model(n, bound)
    if dual_model_to_json(model) != payload:
        raise ValueError("payload does not describe a truncated dual model")
    return model


def dual_model_to_dot(model: DualModel) -> str:
    """Graphviz export: classes as ellipses, germs as boxes, inseparability
    as undirected edges, closure containment as dashed arrows."""
    space = model.space
    lines = [f'digraph "dual_so{model.n}_bound{model.bound}" {{']
    for p in space.points:
        shape = "ellipse" if p.kind == CLASS_KIND else "box"
        lines.append(f'  "{p.point_id}" [shape={shape}];')
    for p, q in space.edges():
        lines.append(f'  "{p.point_id}" -> "{q.point_id}" [dir=none];')
    for p in space.points:
        for q in sorted(space.closure(p) - {p}, key=space._index.__getitem__):
            lines.append(f'  "{p.point_id}" -> "{q.point_id}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
