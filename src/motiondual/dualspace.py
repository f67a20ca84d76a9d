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
subset.  Vertices are numbered once and the adjacency holds only these
numbers, so every traversal is one breadth-first search over integers in
which a vertex subset is a flag list; point objects are hashed only where
they enter or leave the API.  `FiniteT0Space` is the `Graph` of its
inseparability relation and adds only the topology, keeping closures and
minimal open sets as bitmasks over the point numbers; the sub-ideal graph
of `primal` is a plain `Graph`.

Inside the model a germ is inseparable from every class in its hull, an
artifact of the collapse (the half-line points themselves are separated).
All headline metrics therefore run on the class-restricted graph by
default; the full-space relation is kept for the topological machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import Iterable, Mapping, Sequence

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


def _members(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    bits = bin(mask)[:1:-1]  # binary digits, lowest first
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def _union(masks: Sequence[int], mask: int) -> int:
    """The union of `masks[i]` over the set bits i of `mask`."""
    out = 0
    for i in _members(mask):
        out |= masks[i]
    return out


class Graph:
    """An undirected graph with a fixed vertex order.

    Vertices are numbered once, in the order given; the adjacency is a
    tuple holding, for each vertex number, its neighbors' numbers in
    ascending order.  Every traversal is one breadth-first search over
    these numbers, optionally restricted to a vertex subset `within`;
    vertex objects are looked up only at the API edge.
    """

    def __init__(self, points: Iterable, adjacency: Iterable[Iterable[int]]):
        self.points: tuple = tuple(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._adj = tuple(tuple(sorted(ns)) for ns in adjacency)
        if len(self._adj) != len(self.points):
            raise ValueError("adjacency needs one neighbor list per vertex")

    def _ids(self, pts: Iterable) -> list[int]:
        index = self._index
        ids = []
        for p in pts:
            i = index.get(p)
            if i is None:
                raise UnknownPoint(f"{p} is not a point of this space")
            ids.append(i)
        return ids

    def _blank(self, within: frozenset | None) -> list[int]:
        """A fresh distance list: -1 (unvisited) on the vertices of `within`,
        -2 on the vertices the search may not enter."""
        if within is None:
            return [-1] * len(self.points)
        return [-1 if p in within else -2 for p in self.points]

    def _search(self, sources: list[int], dist: list[int], target: int = -1, radius: float = inf) -> list[int]:
        """Breadth-first search from the source numbers, writing distances
        into `dist` (see `_blank`) and returning the vertices reached, in
        visiting order.  Stops after reaching `target`, and expands no
        vertex at distance `radius` or more."""
        order = []
        for s in sorted(set(sources)):
            if dist[s] == -1:
                dist[s] = 0
                order.append(s)
        adj = self._adj
        for x in order:  # `order` doubles as the queue
            d = dist[x]
            if x == target or d >= radius:
                break
            d += 1
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = d
                    order.append(y)
        return order

    def neighbors(self, x) -> tuple:
        pts = self.points
        return tuple(pts[j] for j in self._adj[self._ids((x,))[0]])

    def edges(self) -> list[tuple]:
        """Every edge once, as (x, y) with x before y, in vertex order."""
        pts = self.points
        return [(pts[i], pts[j]) for i, ns in enumerate(self._adj) for j in ns if i < j]

    def bfs(self, sources: Iterable, within: frozenset | None = None) -> dict:
        """Graph distances from the source set, restricted to `within`."""
        dist = self._blank(within)
        pts = self.points
        return {pts[i]: dist[i] for i in self._search(self._ids(sources), dist)}

    def distance(self, x, y, within: frozenset | None = None):
        i, j = self._ids((x, y))
        dist = self._blank(within)
        if dist[i] == -2 or dist[j] == -2:
            raise PreconditionViolated("distance endpoints must lie in the restricted vertex set")
        self._search([i], dist, target=j)
        return dist[j] if dist[j] >= 0 else inf

    def set_distance(self, xs: Iterable, ys: Iterable, within: frozenset | None = None):
        xs, ys = frozenset(xs), frozenset(ys)
        if not xs or not ys:
            return inf
        index = self._index
        targets = {index[p] for p in ys if p in index}
        dist = self._blank(within)
        # the search visits vertices in order of distance: the first target wins
        return next((dist[i] for i in self._search(self._ids(xs), dist) if i in targets), inf)

    def ball(self, s: Iterable, n: int, within: frozenset | None = None) -> frozenset:
        """All points at graph distance <= n from the set."""
        pts = self.points
        dist = self._blank(within)
        return frozenset(pts[i] for i in self._search(self._ids(s), dist, radius=n) if dist[i] <= n)

    def components(self, within: frozenset | None = None) -> tuple[frozenset, ...]:
        pts = self.points
        dist = self._blank(within)  # shared: a visited vertex starts no new search
        comps = []
        for i in range(len(dist)):
            if dist[i] == -1:
                comps.append(frozenset(pts[j] for j in self._search([i], dist)))
        return tuple(comps)

    def diameter(self, within: frozenset | None = None) -> int:
        """Largest component diameter, i.e. the largest eccentricity of a
        vertex; 0 when every component is a singleton."""
        blank = self._blank(within)
        best = 0
        for i, b in enumerate(blank):
            if b == -1:
                dist = blank[:]
                best = max(best, dist[self._search([i], dist)[-1]])
        return best


class FiniteT0Space(Graph):
    """A finite T0 space given by explicit point closures, as the graph of
    its inseparability relation (intersecting minimal open sets).

    The closure map must be reflexive, transitive under the induced set
    operation, and injective (T0); the constructor verifies all three.
    Point order is the insertion order of the mapping.  Closures and minimal
    open sets are kept as bitmasks over the point numbers, so
    inseparability is one `&` and the graph is built from the masks.
    """

    def __init__(self, closures: Mapping[object, Iterable[object]]):
        points = tuple(closures)
        index = {p: i for i, p in enumerate(points)}
        cl = []
        for p, members in closures.items():
            mask = 0
            for q in members:
                if q not in index:
                    raise ValueError(f"closure of {p} leaves the point set")
                mask |= 1 << index[q]
            cl.append(mask)
        seen = {}
        for i, (p, mask) in enumerate(zip(points, cl)):
            if not mask >> i & 1:
                raise ValueError(f"closure of {p} is not reflexive")
            if _union(cl, mask) != mask:
                raise ValueError(f"closure of {p} is not transitive")
            if mask in seen:
                raise ValueError(f"points {seen[mask]} and {p} share a closure (not T0)")
            seen[mask] = p
        # minimal open set of x: all q whose closure contains x
        mo = [0] * len(points)
        for q, mask in enumerate(cl):
            for x in _members(mask):
                mo[x] |= 1 << q
        self._closure = tuple(cl)
        self._min_open = tuple(mo)
        # x and y are inseparable iff some q has both in its closure
        super().__init__(
            points, (_members(_union(cl, m) & ~(1 << x)) for x, m in enumerate(mo))
        )

    def _mask(self, s: Iterable) -> int:
        mask = 0
        for i in self._ids(s):
            mask |= 1 << i
        return mask

    def _set(self, mask: int) -> frozenset:
        pts = self.points
        return frozenset(pts[i] for i in _members(mask))

    def closure(self, x) -> frozenset:
        return self._set(self._closure[self._ids((x,))[0]])

    def closure_of(self, s: Iterable) -> frozenset:
        return self._set(_union(self._closure, self._mask(s)))

    def is_closed(self, s: Iterable) -> bool:
        mask = self._mask(s)
        return _union(self._closure, mask) == mask

    def min_open(self, x) -> frozenset:
        return self._set(self._min_open[self._ids((x,))[0]])

    def min_open_of(self, s: Iterable) -> frozenset:
        return self._set(_union(self._min_open, self._mask(s)))

    def inseparable(self, x, y) -> bool:
        """True iff the minimal open sets of x and y intersect."""
        i, j = self._ids((x, y))
        return bool(self._min_open[i] & self._min_open[j])


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


@lru_cache(maxsize=16)  # a sweep revisits at most 4 bounds per n
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
    model.space._ids((p,))
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
