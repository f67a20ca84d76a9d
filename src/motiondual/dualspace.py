"""Finite T0 model of a truncation of the dual space of R^n x SO(n).

The dual consists of the SO(n) classes (a closed, relatively discrete
subset) together with, for each SO(n-1) signature, an open half-line of
separated points.  Each half-line is collapsed to a single "germ" point
whose closure is its limit set: the classes whose restriction contains the
germ's signature.  By interleaving that set is a product of integer
intervals (`signatures.hull_intervals`), so each closure is enumerated
straight from the germ's intervals, cut at the truncation bound, with no
search over the classes.  That encoding is an Alexandrov topology given by
an explicit closure map, so inseparability, separation and distance become
finite computations.

All traversal lives in `Graph`: an undirected graph with a fixed vertex
order, carrying breadth-first distances, balls, connected components and
the largest component diameter, each optionally restricted to a vertex
subset.  Vertices are numbered once and the adjacency is one int bitmask
of neighbors per vertex, so every traversal is one layered breadth-first
search over masks (layers, the visited set and the vertex subset alike);
point objects are hashed only where they enter or leave the API.
`FiniteT0Space` is the `Graph` of its inseparability relation and adds
only the topology, keeping closures and minimal open sets as bitmasks
too; the sub-ideal graph of `primal` is a plain `Graph`.

Inside the model a germ is inseparable from every class in its hull, an
artifact of the collapse (the half-line points themselves are separated).
All headline metrics therefore run on the class-restricted graph by
default; the full-space relation is kept for the topological machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import inf
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import PreconditionViolated, UnknownPoint
from .signatures import (
    GroupContext,
    Signature,
    count_signatures,
    enumerate_signatures,
    hull_intervals,
    parse_entries,
)

CLASS_KIND = "class"
GERM_KIND = "germ"


@dataclass(frozen=True, slots=True)
class Point:
    """A class or germ point of the dual model.  Its hash is computed once,
    from ints only: a cached hash travels inside pickles, and a `str` hash
    is salted per process, so a point pickled by one process would be missed
    in the dicts of another.  Slots keep the point as small as before."""

    kind: str
    sig: Signature
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind == CLASS_KIND, self.sig.entries, self.sig.ctx.n)))

    def __hash__(self) -> int:
        return self._hash

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
    """The union of `masks[i]` over the set bits i of `mask`.  The bits are
    found one 64-bit word at a time, so finding each one costs small-int
    steps only: as fast as listing `_members` on masks of thousands of bits,
    and faster on the small masks of the verification sweep."""
    out = 0
    base = -1  # bit_length() counts from 1
    while mask:
        word = mask & 0xFFFFFFFFFFFFFFFF
        while word:
            low = word & -word
            out |= masks[base + low.bit_length()]
            word ^= low
        mask >>= 64
        base += 64
    return out


class Graph:
    """An undirected graph with a fixed vertex order.

    Vertices are numbered once, in the order given, and the adjacency is
    one int mask per vertex: bit j of `adjacency[i]` is set when vertices
    i and j are joined.  Every traversal runs the one layered search
    `_layers`, optionally restricted to a vertex subset `within`, which is
    turned into a mask once per call (points outside the graph are
    ignored); vertex objects are looked up only at the API edge.
    """

    def __init__(self, points: Iterable, adjacency: Iterable[int]):
        self.points: tuple = tuple(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._adj = tuple(adjacency)
        if len(self._adj) != len(self.points):
            raise ValueError("adjacency needs one neighbor mask per vertex")

    def _ids(self, pts: Iterable) -> list[int]:
        index = self._index
        ids = []
        for p in pts:
            i = index.get(p)
            if i is None:
                raise UnknownPoint(f"{p} is not a point of this space")
            ids.append(i)
        return ids

    def _mask(self, s: Iterable) -> int:
        mask = 0
        for i in self._ids(s):
            mask |= 1 << i
        return mask

    def _set(self, mask: int) -> frozenset:
        pts = self.points
        return frozenset(pts[i] for i in _members(mask))

    def _within(self, within: Iterable | None) -> int:
        """The mask of `within` (every vertex for None), ignoring points
        outside the graph."""
        if within is None:
            return (1 << len(self.points)) - 1
        return reduce(or_, (1 << i for i in map(self._index.get, within) if i is not None), 0)

    def _layers(self, sources: int, within: int, stop: int = 0, radius: float = inf) -> Iterator[int]:
        """Breadth-first layers from the `sources` mask inside the `within`
        mask: layer d is the mask of the vertices at distance d.  Ends after
        the first layer that meets `stop`, or after layer `radius`."""
        adj = self._adj
        seen = layer = sources & within if radius >= 0 else 0
        d = 0
        while layer:
            yield layer
            if layer & stop or d >= radius:
                return
            layer = _union(adj, layer) & within & ~seen
            seen |= layer
            d += 1

    def _ball(self, sources: int, within: int, radius: float = inf) -> int:
        """The mask of the vertices within `radius` of the `sources` mask
        inside `within`: their whole components for the default radius."""
        return reduce(or_, self._layers(sources, within, radius=radius), 0)

    def _reach(self, sources: int, targets: int, within: int):
        """The distance from the `sources` mask to the `targets` mask inside
        `within`: the first layer that meets the targets, inf if none does."""
        for d, layer in enumerate(self._layers(sources, within, stop=targets)):
            if layer & targets:
                return d
        return inf

    def neighbors(self, x) -> tuple:
        pts = self.points
        return tuple(pts[j] for j in _members(self._adj[self._ids((x,))[0]]))

    def edges(self) -> list[tuple]:
        """Every edge once, as (x, y) with x before y, in vertex order."""
        pts = self.points
        return [(pts[i], pts[j]) for i, m in enumerate(self._adj) for j in _members(m) if i < j]

    def bfs(self, sources: Iterable, within: Iterable | None = None) -> dict:
        """Graph distances from the source set, restricted to `within`."""
        pts = self.points
        layers = self._layers(self._mask(sources), self._within(within))
        return {pts[i]: d for d, layer in enumerate(layers) for i in _members(layer)}

    def distance(self, x, y, within: Iterable | None = None):
        i, j = self._ids((x, y))
        inside = self._within(within)
        if not (inside >> i & 1 and inside >> j & 1):
            raise PreconditionViolated("distance endpoints must lie in the restricted vertex set")
        return self._reach(1 << i, 1 << j, inside)

    def set_distance(self, xs: Iterable, ys: Iterable, within: Iterable | None = None):
        return self._reach(self._mask(xs), self._within(frozenset(ys)), self._within(within))

    def ball(self, s: Iterable, n: int, within: Iterable | None = None) -> frozenset:
        """All points at graph distance <= n from the set."""
        return self._set(self._ball(self._mask(s), self._within(within), n))

    def components(self, within: Iterable | None = None) -> tuple[frozenset, ...]:
        left = self._within(within)
        comps = []
        while left:
            comp = self._ball(left & -left, left)  # from the lowest vertex left
            comps.append(self._set(comp))
            left &= ~comp
        return tuple(comps)

    def diameter(self, within: Iterable | None = None) -> int:
        """Largest component diameter, i.e. the largest eccentricity of a
        vertex; 0 when every component is a singleton."""
        inside = self._within(within)
        return max((sum(1 for _ in self._layers(1 << i, inside)) - 1 for i in _members(inside)), default=0)


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
        super().__init__(points, (_union(cl, m) & ~(1 << x) for x, m in enumerate(mo)))

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

    @cached_property
    def class_mask(self) -> int:
        """The class points as a mask over `space.points`: the classes come
        first in point order, so it is the mask of the first len(classes)."""
        return (1 << len(self.class_points)) - 1

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


MAX_SIZE = 8192
"""The largest model `build_dual_model` and `primal.sub_ideals` will build,
in signature entries: points times floor(n/2).  The closures are
enumerated directly, so the cost lies in what consumes them: the
`FiniteT0Space` constructor checks every closure and folds the minimal
open sets into neighbor masks, and every traversal runs over masks as long
as the model.  A point counts by its length because each signature is
built, hashed and enumerated entry by entry.  The cap admits every
(n, bound) of the benchmark and of `BENCH_bitmask_core.json`; the largest,
(8, 10), has 8008 entries."""


def require_size(n: int, bound: int, points: Callable[[], int]) -> None:
    """Refuse a model of `points()` points with more than MAX_SIZE signature
    entries.  An n or a bound above MAX_SIZE is refused before the points
    are counted: either gives at least MAX_SIZE entries, and counting a
    huge truncation is slow in itself."""
    if n > MAX_SIZE or bound > MAX_SIZE or points() * (n // 2) > MAX_SIZE:
        raise PreconditionViolated(
            f"n = {n}, bound = {bound} is beyond the model size cap of {MAX_SIZE} signature entries"
        )


@lru_cache(maxsize=16)  # a sweep revisits at most 4 bounds per n
def build_dual_model(n: int, bound: int) -> DualModel:
    """Model of the dual of R^n x SO(n) truncated at the given leading entry.

    Class points are the SO(n) signatures, each closed; germ points are the
    SO(n-1) signatures, each closing onto its hull of classes, enumerated as
    the product of its hull intervals with the first one cut at `bound`.
    Every point of that product is a class of the truncation, so a failed
    lookup is a fault and raises.  The classes come first in point order,
    which `DualModel.class_mask` relies on.  Accepts bound 0 (the degenerate
    one-class model).
    """
    if n < 3:
        raise PreconditionViolated("dual models need n >= 3; n = 2 is covered by closed formulas")
    if bound < 0:
        raise PreconditionViolated("bound must be >= 0")
    require_size(n, bound, lambda: count_signatures(n, bound) + count_signatures(n - 1, bound))
    classes = [Point(CLASS_KIND, s) for s in enumerate_signatures(n, bound)]
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(n - 1, bound)]
    closures: dict = {p: (p,) for p in classes}
    by_entries = {p.sig.entries: p for p in classes}
    for g in germs:
        (lo, _), *rest = hull_intervals(g.sig)
        ranges = (range(lo, hi + 1) for lo, hi in rest)
        closures[g] = [g, *(by_entries[e] for e in product(range(lo, bound + 1), *ranges))]
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
