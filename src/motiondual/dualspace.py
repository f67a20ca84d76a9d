"""Finite T0 model of a truncation of the dual space of R^n x SO(n).

The dual consists of the SO(n) classes (a closed, relatively discrete
subset) together with, for each SO(n-1) signature, an open half-line of
separated points.  Each half-line is collapsed to a single "germ" point
whose closure is its limit set: the classes whose restriction contains the
germ's signature.  By interleaving that set is a product of integer
intervals (`signatures.hull_intervals`), so each closure is written
straight from the germ's intervals, cut at the truncation bound, with no
search over the classes.  That encoding is an Alexandrov topology given by
an explicit closure map, so inseparability, separation and distance become
finite computations.  A `Point` is a plain (kind, signature) value with
the id `kind:entries`, and also a vertex of the sub-ideal graph of
`primal`: a germ ideal has its germ's kind and signature, and a line
kernel is a third kind.  The classes come first in point order, so the
class/germ split of a model is one number, `DualModel.class_count`.  Each
graph formats its vertex ids once (`Graph.ids`) and reads them back by one
id table (`point_from_id`), so the exports and the chain files neither
format nor parse a point per mention; only the canonical id of a point
names it.  Every export writes its vertices and edges by the same two
writers.

All traversal lives in `Graph`: an undirected graph with a fixed vertex
order, carrying breadth-first distances, connected components (as masks)
and the largest component diameter, each over all its vertices.  The
adjacency is one int bitmask of neighbors per vertex number, so every
traversal is one layered breadth-first search over masks (layers and the
visited set alike).  A graph keeps one vertex table, id to number, built
on first use: a point is found by its id and confirmed equal to the vertex
of that number.  The diameter takes a few searches, not one per vertex:
eccentricity bounds (Takes and Kosters) settle most vertices without a
search of their own.
`FiniteT0Space` is the `Graph` of its inseparability relation and adds
only the topology, keeping closures and minimal open sets as bitmasks
too.  It is built in one pass over the members of its closures, which
checks transitivity and yields both the minimal open sets and the neighbor
masks; the minimal open sets serve the chain layer's closedness test
(`FiniteT0Space._closed`) and separation.  The sub-ideal graph of
`primal` is a plain `Graph`, whose neighbor masks `overlap_masks` finds
from sorted interval ends rather than by a scan over vertex pairs.

Inside the model a germ is inseparable from every class in its hull, an
artifact of the collapse (the half-line points themselves are separated).
All headline metrics therefore run on the class graph `DualModel.classes`;
the full-space relation is kept for the topological machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress, product
from math import inf
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import PreconditionViolated, UnknownPoint
from .signatures import (
    Signature,
    count_signatures,
    enumerate_signatures,
    hull_intervals,
)

CLASS_KIND = "class"
GERM_KIND = "germ"
LINE_KIND = "line"


@dataclass(frozen=True, slots=True)
class Point:
    """A class or germ point of the dual model, or a germ ideal or line
    kernel of the sub-ideal graph: a germ ideal is the point of its germ.
    Its id, `str(point)`, is `kind:entries`."""

    kind: str
    sig: Signature

    def __str__(self) -> str:
        return f"{self.kind}:{self.sig}"


def _members(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    if not mask & (mask - 1):  # no bit or one, as in a class closure
        return [mask.bit_length() - 1] if mask else []
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


def _meeting(masks: Sequence[int], mask: int, target: int) -> int:
    """The set bits i of `mask` whose `masks[i]` meets `target`, found one
    64-bit word at a time as in `_union`."""
    out = 0
    base = -1
    while mask:
        word = mask & 0xFFFFFFFFFFFFFFFF
        while word:
            low = word & -word
            if masks[base + low.bit_length()] & target:
                out |= low << base + 1
            word ^= low
        mask >>= 64
        base += 64
    return out


def overlap_masks(boxes: Sequence[Sequence[tuple[int, float]]]) -> list[int]:
    """For each box, the mask of the boxes that meet it in every coordinate,
    itself included.  A box is one closed interval (lo, hi) per coordinate,
    hi possibly inf.  Box b meets box a in a coordinate when lo_b <= hi_a
    and hi_b >= lo_a: with the boxes sorted by lower end the first test
    holds on a prefix, and with them sorted by upper end the second holds on
    a suffix, each found by bisection.  A row is the AND of those prefix and
    suffix masks over the coordinates: O(V k log V) steps, not V^2 k."""
    rows = [(1 << len(boxes)) - 1] * len(boxes)
    for coord in zip(*boxes):
        by_lo = sorted(range(len(coord)), key=lambda i: coord[i][0])
        by_hi = sorted(range(len(coord)), key=lambda i: coord[i][1])
        los = [coord[i][0] for i in by_lo]
        his = [coord[i][1] for i in by_hi]
        pre = [0]  # pre[j]: the first j boxes by lower end
        for i in by_lo:
            pre.append(pre[-1] | 1 << i)
        suf = [0] * (len(coord) + 1)  # suf[j]: the boxes from the j-th on by upper end
        for j in reversed(range(len(coord))):
            suf[j] = suf[j + 1] | 1 << by_hi[j]
        for a, (lo, hi) in enumerate(coord):
            rows[a] &= pre[bisect_right(los, hi)] & suf[bisect_left(his, lo)]
    return rows


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class Graph:
    """An undirected graph with a fixed vertex order.

    Vertices are numbered in the order given, and the adjacency is one int
    mask per vertex: bit j of `adjacency[i]` is set when vertices i and j
    are joined.  Every traversal runs the one layered search `_layers` over
    all the vertices; a search on a vertex subset runs on the graph of that
    subset (`DualModel.classes`).  Vertices are looked up only at the API
    edge, by `_bit` on the table `_number` of their unique ids.
    """

    def __init__(self, points: Iterable, adjacency: Iterable[int]):
        self.points: tuple = tuple(points)
        self._adj = tuple(adjacency)
        if len(self._adj) != len(self.points):
            raise ValueError("adjacency needs one neighbor mask per vertex")
        self._all = (1 << len(self.points)) - 1  # every vertex

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """The vertex ids in vertex order, each formatted once."""
        return tuple(map(str, self.points))

    @cached_property
    def _number(self) -> dict[str, int]:
        """The number of each id in `ids`: the graph's one vertex table."""
        number = {pid: i for i, pid in enumerate(self.ids)}
        if len(number) != len(self.ids):
            raise ValueError("vertex ids must be unique")
        return number

    @cached_property
    def _id_order(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The vertex numbers sorted by id, and the ids in that order."""
        order = tuple(sorted(range(len(self.ids)), key=self.ids.__getitem__))
        return order, tuple(map(self.ids.__getitem__, order))

    def _sorted_ids(self, mask: int) -> list[str]:
        """The ids of the vertices in `mask`, sorted as strings: the ids of
        `_id_order` whose bits are set, picked in one pass with no sort."""
        order, ids = self._id_order
        if mask >> len(order):
            raise UnknownPoint("the mask holds bits beyond the vertices")
        bits = bin(mask)[:1:-1].ljust(len(order), "0").encode().translate(_BIT_BYTES)  # byte i: bit i
        return list(compress(ids, map(bits.__getitem__, order)))

    def _bit(self, p) -> int:
        """The bit of the vertex p, found by its id and confirmed equal to
        the vertex of that number; 0 for a non-vertex with a vertex's id."""
        i = self._number.get(str(p))
        return 1 << i if i is not None and self.points[i] == p else 0

    def _mask(self, s: Iterable) -> int:
        mask = 0
        for p in s:
            if not (bit := self._bit(p)):
                raise UnknownPoint(f"{p} is not a point of this space")
            mask |= bit
        return mask

    def _set(self, mask: int) -> frozenset:
        pts = self.points
        return frozenset(pts[i] for i in _members(mask))

    def _layers(self, sources: int, stop: int = 0, radius: float = inf) -> Iterator[int]:
        """Breadth-first layers from the `sources` mask: layer d is the mask
        of the vertices at distance d.  Ends after the first layer that meets
        `stop`, or after layer `radius`.

        Direction-optimizing (Beamer, Asanovic and Patterson, SC 2012): a
        layer larger than the unvisited rest of the graph is followed
        bottom-up, as the unvisited vertices whose row meets it, which the
        symmetric adjacency makes the same set as the union of its rows."""
        adj, everything = self._adj, self._all
        seen = layer = sources & everything if radius >= 0 else 0
        d = 0
        while layer:
            yield layer
            if layer & stop or d >= radius:
                return
            left = everything & ~seen
            if layer.bit_count() > left.bit_count():
                layer = _meeting(adj, left, layer)
            else:
                layer = _union(adj, layer) & left
            seen |= layer
            d += 1

    def _ball(self, sources: int, radius: float = inf) -> int:
        """The mask of the vertices within `radius` of the `sources` mask:
        their whole components for the default radius."""
        return reduce(or_, self._layers(sources, radius=radius), 0)

    def _reach(self, sources: int, targets: int):
        """The distance from the `sources` mask to the `targets` mask: the
        first layer that meets the targets, inf if none does."""
        for d, layer in enumerate(self._layers(sources, stop=targets)):
            if layer & targets:
                return d
        return inf

    def _pairs(self) -> list[tuple[int, int]]:
        """Every edge once, as vertex numbers (i, j) with i < j, in vertex order."""
        return [(i, j) for i, m in enumerate(self._adj) for j in _members(m) if i < j]

    def bfs(self, sources: Iterable) -> dict:
        """Graph distances from the source set."""
        pts = self.points
        layers = self._layers(self._mask(sources))
        return {pts[i]: d for d, layer in enumerate(layers) for i in _members(layer)}

    def components(self) -> tuple[int, ...]:
        """The vertex masks of the components, by lowest vertex."""
        left = self._all
        comps = []
        while left:
            comp = self._ball(left & -left)  # from the lowest vertex left
            comps.append(comp)
            left &= ~comp
        return tuple(comps)

    def diameter(self) -> int:
        """Largest component diameter, i.e. the largest eccentricity of a
        vertex; 0 when every component is a singleton.

        Exact, by the BoundingDiameters method of Takes and Kosters
        ("Determining the diameter of small world networks", CIKM 2011),
        in place of one search per vertex.  Every vertex keeps a lower and
        an upper bound on its eccentricity.  A search from a vertex of
        eccentricity e gives a vertex at distance d the lower bound
        max(e - d, d) and the upper bound e + d.  A vertex whose upper bound
        is at most the largest eccentricity found cannot raise it and is
        dropped; so is one whose bounds meet, since no lower bound exceeds
        an eccentricity found.  Sources alternate between the largest upper
        bound and the smallest lower bound, ties going to the higher degree
        and then to the lower vertex number.  A search bounds only its own
        component, so the result is exact on disconnected graphs too.

        Eccentricities are small, so the bounds are kept as masks by value:
        `atleast[t]` holds the vertices whose lower bound is t or more, and
        `atmost[t]` those whose upper bound is t or less (inf past the end).
        """
        by_degree: dict[int, int] = {}
        for i, row in enumerate(self._adj):
            if deg := row.bit_count():  # an isolated vertex has eccentricity 0
                by_degree[deg] = by_degree.get(deg, 0) | 1 << i
        tiers = [by_degree[deg] for deg in sorted(by_degree, reverse=True)]
        left = reduce(or_, tiers, 0)
        atleast, atmost = [left], [0]
        best, high = 0, True
        while left:
            if high:  # the vertices left with the largest upper bound
                pool = next(left & ~m for m in reversed(atmost) if left & ~m)
            else:  # those with the smallest lower bound
                pool = next(left & ~m for m in atleast[1:] + [0] if left & ~m)
            high = not high
            pool = next(pool & tier for tier in tiers if pool & tier)  # of the highest degree
            layers = list(self._layers(pool & -pool))
            e = len(layers) - 1
            best = max(best, e)
            atleast += [0] * (e + 1 - len(atleast))
            atmost += [atmost[-1]] * (2 * e + 1 - len(atmost))
            for d, layer in enumerate(layers):
                for t in range(1, max(e - d, d) + 1):
                    atleast[t] |= layer
                for t in range(e + d, len(atmost)):
                    atmost[t] |= layer
            left &= ~atmost[best]
        return best


class FiniteT0Space(Graph):
    """A finite T0 space given by explicit point closures, as the graph of
    its inseparability relation (intersecting minimal open sets).

    `closures[i]` is the closure of `points[i]` as a bitmask over the point
    numbers: bit j is set when `points[j]` lies in it.  The closure map must
    stay inside the points, be reflexive, transitive under the induced set
    operation, and injective (T0); the constructor verifies all four.  It
    walks each closure's members once: every pair (q, x in cl(q)) checks
    that cl(x) lies inside cl(q), puts q in the minimal open set of x and
    joins x to all of cl(q), since x and y are inseparable iff some closure
    holds both.  The minimal open sets are kept as bitmasks too, for the
    closedness test `_closed` and for separation by open sets.
    """

    def __init__(self, points: Iterable, closures: Iterable[int]):
        points = tuple(points)
        cl = tuple(closures)
        if len(cl) != len(points):
            raise ValueError("a space needs one closure mask per point")
        outside = -1 << len(points)
        seen = {}
        mo = [0] * len(points)  # minimal open set of x: all q whose closure holds x
        adj = [0] * len(points)
        for q, (p, mask) in enumerate(zip(points, cl)):
            if mask & outside:
                raise ValueError(f"closure of {p} leaves the point set")
            if not mask >> q & 1:
                raise ValueError(f"closure of {p} is not reflexive")
            rest, bit = ~mask, 1 << q
            for x in _members(mask):
                if cl[x] & rest:
                    raise ValueError(f"closure of {p} is not transitive")
                mo[x] |= bit
                adj[x] |= mask
            if mask in seen:
                raise ValueError(f"points {seen[mask]} and {p} share a closure (not T0)")
            seen[mask] = p
        for x in range(len(adj)):
            adj[x] &= ~(1 << x)  # in place, so no second set of masks is held
        self._closure = cl
        self._min_open = tuple(mo)
        super().__init__(points, adj)

    def _closed(self, s: int) -> bool:
        """Whether the set mask is closed: it holds the closure of each of its
        points, or equally no point outside it has a minimal open set that
        meets it.  The side with fewer points is unioned, so a large set
        costs as little as its small complement."""
        rest = self._all & ~s
        if s.bit_count() <= rest.bit_count():
            return _union(self._closure, s) == s
        return not _union(self._min_open, rest) & s


@dataclass(frozen=True)
class DualModel:
    """Truncated dual-space model: classes plus one germ per half-line.  The
    classes are the first `class_count` points of `space`, the germs the
    rest."""

    space: FiniteT0Space
    n: int
    bound: int
    class_count: int

    @cached_property
    def class_mask(self) -> int:
        """The class points as a mask over `space.points`: its first
        `class_count` bits."""
        return (1 << self.class_count) - 1

    @cached_property
    def classes(self) -> Graph:
        """The class-restricted inseparability graph, the domain of the
        model's metric: the first `class_count` points of `space`, each
        keeping its number, with the rows of `space` cut to the classes.  It
        builds no vertex table; points are looked up in `space`."""
        rows = self.space._adj[: self.class_count]
        return Graph(self.space.points[: self.class_count], [row & self.class_mask for row in rows])


MAX_SIZE = 8192
"""The largest model `build_dual_model` and `primal.sub_ideals` will build,
in signature entries: points times floor(n/2).  A point counts by its
length because each signature is built, hashed and enumerated entry by
entry.  The sub-ideal graph and the diameters are cheap at the cap, so the
cost lies in the `FiniteT0Space` constructor, which walks every closure
member once, and in the class diameter where the classes are many.  For
n >= 4 the largest admitted models run `motiondual report` in under 0.7 s
and 28 MB (Python 3.11.7, 2 vCPUs, best of 3 runs, peak RSS of the
process): (5, 44), at 8100 sub-ideal entries, spends 0.21 s building the
model, and (6, 18), at 7980 entries, 0.19 s building its class graph and
its diameter (617 searches); (4, 62) took 0.18 s and 27 MB, 2 MB of them
a second copy of the class rows in the class graph.  At n = 3 a point has
one entry, so the cap admits bounds up to 2730 and germ closures of up to
2731 classes, which the constructor walks member by member:
`build_dual_model(3, 2730)` (8192 points) took 6.0 s and 40 MB, and
`motiondual report --n 3 --bound 2047`, the largest bound whose sub-ideal
graph the cap admits, 10.7 s (best of 3 each, same machine).  The cap
admits every (n, bound) of the benchmark and of `BENCH_bitmask_core.json`;
the largest, (8, 10), has 8008 entries."""


def require_size(n: int, bound: int, points: Callable[[int, int], int]) -> None:
    """Refuse a model of `points(n, bound)` points with more than MAX_SIZE
    signature entries.  An n or a bound above MAX_SIZE is refused before the
    points are counted: either gives at least MAX_SIZE entries, and counting
    a huge truncation is slow in itself."""
    if n > MAX_SIZE or bound > MAX_SIZE or points(n, bound) * (n // 2) > MAX_SIZE:
        raise PreconditionViolated(
            f"n = {n}, bound = {bound} is beyond the model size cap of {MAX_SIZE} signature entries"
        )


def model_points(n: int, bound: int) -> int:
    """The points of `build_dual_model(n, bound)`: its classes and germs."""
    return count_signatures(n, bound) + count_signatures(n - 1, bound)


@lru_cache(maxsize=16)  # a sweep revisits at most 5 bounds per n
def build_dual_model(n: int, bound: int) -> DualModel:
    """Model of the dual of R^n x SO(n) truncated at the given leading entry.

    Class points are the SO(n) signatures, each closed; germ points are the
    SO(n-1) signatures, each closing onto its hull of classes: the product
    of its hull intervals with the first one cut at `bound`.  The classes
    are numbered in lexicographic order, last entry fastest, so each prefix
    of the intervals gives one run of consecutive numbers over the last
    interval.  Both ends of a run are looked up, so a run end that is no
    class of the truncation is a fault and raises.  The classes come first
    in point order, which `DualModel.class_count` records.  Accepts bound
    0 (the degenerate one-class model).
    """
    if n < 3:
        raise PreconditionViolated("dual models need n >= 3; n = 2 is covered by closed formulas")
    if bound < 0:
        raise PreconditionViolated("bound must be >= 0")
    require_size(n, bound, model_points)
    classes = [Point(CLASS_KIND, s) for s in enumerate_signatures(n, bound)]
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(n - 1, bound)]
    index = {p.sig.entries: i for i, p in enumerate(classes)}
    closures = [1 << i for i in range(len(classes))]
    for i, g in enumerate(germs, len(classes)):
        (first, _), *rest = hull_intervals(g.sig)
        *head, (lo, hi) = (first, bound), *rest
        mask = 1 << i
        for prefix in product(*(range(a, b + 1) for a, b in head)):
            mask |= (2 << index[prefix + (hi,)]) - (1 << index[prefix + (lo,)])
        closures.append(mask)
    space = FiniteT0Space(classes + germs, closures)
    return DualModel(space, n, bound, len(classes))


def distance(model: DualModel, x, y):
    """BFS distance in the class-restricted inseparability graph (the
    faithful distance, since the half-line points are separated).  Both
    endpoints are looked up in the space and must be classes."""
    xb, yb = model.space._mask((x,)), model.space._mask((y,))
    if (xb | yb) & ~model.class_mask:
        raise PreconditionViolated("distance endpoints must lie in the restricted vertex set")
    return model.classes._reach(xb, yb)


def components_and_orc(model: DualModel) -> tuple[int, int]:
    """The component count of the class-restricted graph and the connecting
    order: the largest component diameter, a singleton component counting 1."""
    return len(model.classes.components()), max(1, model.classes.diameter())


@dataclass(frozen=True)
class GlimmPartition:
    """Blocks of the complete regularization: each germ is a singleton block
    and the class points split along transitive inseparability."""

    blocks: tuple[frozenset, ...]
    class_blocks: int
    single_class_block: bool


def glimm_partition(model: DualModel) -> GlimmPartition:
    class_comps = tuple(map(model.space._set, model.classes.components()))
    germ_blocks = tuple(frozenset([g]) for g in model.space.points[model.class_count :])
    return GlimmPartition(class_comps + germ_blocks, len(class_comps), len(class_comps) == 1)


def _point_number(model: DualModel, point_id: str) -> int:
    """The point number of a canonical id (`Graph.ids`), by the space's one
    id table.  Any other string raises UnknownPoint, so a point has one
    spelling only."""
    if not isinstance(point_id, str):
        raise TypeError(f"point id {point_id!r} is not a string")
    i = model.space._number.get(point_id)
    if i is None:
        raise UnknownPoint(f"{point_id!r} is not the id of a point of this model")
    return i


def point_from_id(model: DualModel, point_id: str) -> Point:
    """The model's own point with this canonical id (`_point_number`)."""
    return model.space.points[_point_number(model, point_id)]


def graph_to_json(graph: Graph, n: int, bound: int, vertices: str, **more) -> dict:
    """The JSON export of a graph of `Point`s: n and bound, the vertices
    under the key `vertices`, then the `more` entries, then the edges."""
    ids = graph.ids
    return {
        "n": n,
        "bound": bound,
        vertices: [{"id": pid, "kind": p.kind, "entries": list(p.sig.entries)} for pid, p in zip(ids, graph.points)],
        **more,
        "edges": sorted([ids[i], ids[j]] for i, j in graph._pairs()),
    }


def graph_to_dot(graph: Graph, name: str, ellipse: str, arcs: Iterable[tuple[int, int]] = ()) -> str:
    """The Graphviz export of a graph of `Point`s: the vertices of kind
    `ellipse` as ellipses and the rest as boxes, the edges undirected, and
    `arcs` (pairs of vertex numbers) as dashed arrows."""
    ids = graph.ids
    lines = [f'digraph "{name}" {{']
    lines += [f'  "{pid}" [shape={"ellipse" if p.kind == ellipse else "box"}];' for pid, p in zip(ids, graph.points)]
    lines += [f'  "{ids[i]}" -> "{ids[j]}" [dir=none];' for i, j in graph._pairs()]
    lines += [f'  "{ids[i]}" -> "{ids[j]}" [style=dashed];' for i, j in arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def dual_model_to_json(model: DualModel) -> dict:
    space, ids = model.space, model.space.ids
    closures = {ids[i]: sorted(ids[j] for j in _members(m)) for i, m in enumerate(space._closure)}
    return graph_to_json(space, model.n, model.bound, "points", closures=closures)


def dual_model_to_dot(model: DualModel) -> str:
    """Graphviz export: classes as ellipses, germs as boxes, inseparability
    as undirected edges, closure containment as dashed arrows."""
    arcs = ((i, j) for i, m in enumerate(model.space._closure) for j in _members(m & ~(1 << i)))
    return graph_to_dot(model.space, f"dual_so{model.n}_bound{model.bound}", CLASS_KIND, arcs)
