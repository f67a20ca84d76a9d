"""Chains of closed sets and the distance lower bounds they certify.

A chain of length n on a space is a cover by n closed sets in which only
consecutive sets may overlap and, for n > 1, both end sets stick out.  If
x lies in the first set only and y in the last set only then every walk
from x to y must cross the sets one at a time, so d(x, y) >= n.  The
functions here validate chains, certify that bound against an independent
BFS, decide separation by disjoint open sets, and construct admissible
chains of prescribed length from a set pair at sufficient distance.

Every function takes a `DualModel`.  A `Chain` holds one int mask per set
over the points of the model space it was built on, and every search is
the space's layered search on masks (`Graph._layers`): the private helpers
`_violations`, `_admissible`, `_separate` and the space's `_closed` and
`_ball` do the set algebra, and `_build_chain` is the construction on end
masks, which the sweep's `chain-lemma` check calls with the class masks it
draws; the check re-checks each chain once with `validate_chain`, then on
its masks with `_admissible` and `_lower_bound`.  The construction, the
JSON reader and writer and every re-check use those masks as they are, so
no step hashes the chain's points; the reader turns each canonical id into
a point number by the model's one id table and refuses any other spelling.
A chain checked on another model than its own must be over the same points
(the same model rebuilt after a cache eviction); any other raises
UnknownPoint.

Topological operations (closure, separation, neighborhoods used during
construction) run on the full model relation; distance certificates are
class-restricted, matching the faithful metric on the classes: end sets
and witnesses are classes, the first `DualModel.class_count` points, and
distances are searched on `DualModel.classes` (the sweep's
`germ-mediation` check tests that germs add no shortcut between classes).

The chain lemma rests on the paper's Property 1: the classes form a closed,
relatively discrete set, and one-step neighborhoods of closed sets are
closed.  The `chain-lemma` check of the verification sweep
(`verification.check_chain_lemma`) tests it on the model's masks before it
builds any chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .dualspace import DualModel, FiniteT0Space, Point, _point_number, _union, point_from_id
from .errors import CertificationError, PreconditionViolated, UnknownPoint


@dataclass(frozen=True, slots=True)
class Chain:
    """A chain of closed sets: one int mask per set (`masks`) over the points
    of `space`, the model space it was built on.  Two chains are equal when
    they hold the same masks over the same space object."""

    space: FiniteT0Space
    masks: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.masks)


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    violations: tuple[str, ...]


def _violations(space: FiniteT0Space, sets: Sequence[int]) -> tuple[str, ...]:
    """Why the chain of set masks is not valid, in the order of the checks:
    closedness, cover, non-consecutive disjointness (one message), end
    sets.  A chain with more sets than points fails at once: a model space
    is connected, so by the chain lemma a valid chain has fewer sets."""
    n = len(sets)
    if n == 0:
        return ("chain has no sets",)
    if n > len(space.points):
        return (f"chain has {n} sets, more than the {len(space.points)} points of the space",)
    bad = [f"set {i} is not closed" for i, s in enumerate(sets, start=1) if not space._closed(s)]
    if reduce(or_, sets) != space._all:
        bad.append("union of the sets does not cover the space")
    overlaps = ((i, j) for i in range(n) for j in range(i + 2, n) if sets[i] & sets[j])
    if first := next(overlaps, None):
        more = sum(1 for _ in overlaps)
        tail = f", and {more} more non-consecutive pairs" if more else ""
        bad.append(f"sets {first[0] + 1} and {first[1] + 1} overlap{tail}")
    if n > 1:
        if not sets[0] & ~sets[1]:
            bad.append("first set minus second set is empty")
        if not sets[-1] & ~sets[-2]:
            bad.append("last set minus second-to-last set is empty")
    return tuple(bad)


def _masks(model: DualModel, chain: Chain) -> tuple[int, ...]:
    """The chain's set masks, which are masks over the model's points when
    the chain's space has the model's point tuple: the model's own space,
    or the same model rebuilt after a cache eviction.  UnknownPoint else."""
    if chain.space is not model.space and chain.space.points != model.space.points:
        raise UnknownPoint("the chain is over other points than this model's")
    return chain.masks


def _valid_masks(model: DualModel, chain: Chain) -> tuple[int, ...]:
    """The set masks of a chain that must be valid; PreconditionViolated
    names the violations otherwise."""
    sets = _masks(model, chain)
    bad = _violations(model.space, sets)
    if bad:
        raise PreconditionViolated("chain is not valid: " + "; ".join(bad))
    return sets


def _admissible(model: DualModel, sets: Sequence[int]) -> tuple[int, int] | None:
    """End witnesses (x, y) of the valid chain at finite distance in the
    class graph, as point numbers: the first class x that reaches an end
    candidate other than itself, and the first such candidate y in x's
    whole component.  So a one-set chain gets two distinct witnesses, as
    `_witness_faults` demands, or none."""
    if len(sets) == 1:
        xs = ys = sets[0] & model.class_mask
    else:
        xs = sets[0] & ~sets[1] & model.class_mask
        ys = sets[-1] & ~sets[-2] & model.class_mask
    while xs:
        x = xs & -xs
        comp = model.classes._ball(x)
        hits = comp & ys & ~x
        if hits:
            return x.bit_length() - 1, (hits & -hits).bit_length() - 1
        xs &= ~comp  # the rest of this component reaches no candidate either
    return None


def _separate(space: FiniteT0Space, Y: int, Z: int) -> tuple[int, int] | None:
    """`separate` on masks: the minimal open sets around Y and Z when they
    are disjoint, cross-checked against the closure criterion."""
    U = _union(space._min_open, Y)
    V = _union(space._min_open, Z)
    found = not U & V
    cl = space._closure
    criterion = not _union(cl, space._ball(Y, 1)) & Z and not _union(cl, space._ball(Z, 1)) & Y
    if found != criterion:
        raise CertificationError(
            "separation by minimal open sets disagrees with the closure criterion"
        )
    return (U, V) if found else None


def validate_chain(model: DualModel, chain: Chain) -> ChainReport:
    """Check closedness, cover, non-consecutive disjointness and end sets."""
    bad = _violations(model.space, _masks(model, chain))
    return ChainReport(not bad, bad)


def is_admissible(model: DualModel, chain: Chain):
    """Search for end witnesses at finite distance; returns (found, x, y)."""
    hit = _admissible(model, _valid_masks(model, chain))
    if hit is None:
        return False, None, None
    return True, model.space.points[hit[0]], model.space.points[hit[1]]


def chain_lower_bound(model: DualModel, chain: Chain, x, y, restrict_to_class: bool = True) -> int:
    """Certify d(x, y) >= chain length and re-check it with an independent
    BFS; a contradiction raises CertificationError (it would mean a bug,
    the bound being a theorem about valid chains).  The flag is the one
    `chain_from_json` returns, and any value but True is refused."""
    if restrict_to_class is not True:
        raise PreconditionViolated(f"chains are class-restricted, got restrict_to_class={restrict_to_class!r}")
    return _lower_bound(model, _valid_masks(model, chain), *map(model.space._bit, (x, y)))


def _lower_bound(model: DualModel, sets: Sequence[int], xb: int, yb: int) -> int:
    """`chain_lower_bound` on the valid chain's set masks and the witnesses'
    bits."""
    if bad := _witness_faults(model, sets, xb, yb):
        raise PreconditionViolated(bad[0])
    d = model.classes._reach(xb, yb)
    if d < len(sets):
        raise CertificationError(f"chain of length {len(sets)} contradicted by graph distance {d}")
    return len(sets)


def witness_violations(model: DualModel, chain: Chain, x, y) -> tuple[str, ...]:
    """Why x and y are not end witnesses of the (valid) chain: they must be
    two distinct points of a one-set chain, or else x must lie in the first
    set only and y in the last set only; both must be classes."""
    return _witness_faults(model, _masks(model, chain), *map(model.space._bit, (x, y)))


def _witness_faults(model: DualModel, sets: Sequence[int], xb: int, yb: int) -> tuple[str, ...]:
    """`witness_violations` on the chain's set masks and the witnesses' bits."""
    bad = []
    if len(sets) == 1:
        if not xb & sets[0] or not yb & sets[0]:
            bad.append("end witnesses must lie in the chain")
        elif xb == yb:
            bad.append("a length-1 certificate needs distinct end points")
    else:
        if not xb & sets[0] or xb & sets[1]:
            bad.append("x must lie in the first set and not the second")
        if not yb & sets[-1] or yb & sets[-2]:
            bad.append("y must lie in the last set and not the second-to-last")
    if not (xb & model.class_mask and yb & model.class_mask):
        bad.append("end witnesses of a class-restricted chain must be classes")
    return tuple(bad)


def chain_for_distance(model: DualModel, x, y, k: int) -> tuple[Chain, int]:
    """A chain certifying d(x, y) >= k, and the bound it certifies: the
    admissible chain of length k for k >= 2, else the one-set chain on the
    whole space."""
    if k >= 2:
        chain = find_admissible_chain(model, [x], [y], k)
    else:
        chain = Chain(model.space, (model.space._all,))
    return chain, chain_lower_bound(model, chain, x, y)


def separate(model: DualModel, Y: Iterable, Z: Iterable):
    """Disjoint open sets around Y and Z, or None.

    Returns the unions of minimal open sets when they are disjoint.  Also
    evaluates the closure criterion (the closure of Y^1 misses Z and the
    closure of Z^1 misses Y) and insists the two answers agree, which the
    separation lemma guarantees on these finite spaces.
    """
    space = model.space
    sep = _separate(space, space._mask(Y), space._mask(Z))
    return None if sep is None else (space._set(sep[0]), space._set(sep[1]))


def find_admissible_chain(model: DualModel, X: Iterable, Y: Iterable, k: int) -> Chain:
    """Build an admissible chain of length k with X in the first set only
    and Y in the last set only, given class end sets at distance
    d(X, Y) >= k >= 2 within one component.

    Construction: separate X from the (k-2)-neighborhood of Y, take closed
    complements, then repeatedly separate the accumulated front from the
    shrinking neighborhoods of Y.  The result is re-validated before return.
    """
    space = model.space
    X, Y = frozenset(X), frozenset(Y)
    if not X or not Y:
        raise PreconditionViolated("X and Y must be nonempty")
    bits = [space._bit(p) for p in (*X, *Y)]  # each end point looked up once; 0 off the space
    if not all(b & model.class_mask for b in bits):
        raise PreconditionViolated("class-restricted chains need class end sets")
    if k < 2:
        raise PreconditionViolated("chain construction needs k >= 2")
    xm, ym = sum(bits[: len(X)]), sum(bits[len(X) :])
    return _build_chain(model, xm, ym, k)


def _build_chain(model: DualModel, xm: int, ym: int, k: int) -> Chain:
    """`find_admissible_chain` on masks: the chain for the end masks xm and
    ym, nonempty masks of classes, and k >= 2.  PreconditionViolated unless
    d(xm, ym) >= k in the class graph within one component;
    CertificationError if the construction fails its re-checks."""
    space, classes = model.space, model.classes
    d = classes._reach(xm, ym)
    if d < k:
        raise PreconditionViolated(f"need d(X, Y) >= {k}, got {d}")
    ends = xm | ym
    if ends & ~classes._ball(ends & -ends):  # from the first end point
        raise PreconditionViolated("X and Y must lie in one component")

    everything = space._all
    sep = _separate(space, xm, space._ball(ym, k - 2))
    if sep is None:
        raise CertificationError("initial separation failed despite the distance bound")
    U, V = sep
    sets = [everything & ~V]
    front = sets[0]  # the union of the sets so far
    front_complement = everything & ~U  # the current Y_i
    for i in range(2, k):
        sep = _separate(space, front, space._ball(ym, k - i - 1))
        if sep is None:
            raise CertificationError(f"separation stage {i} failed despite the distance bound")
        U, V = sep
        sets.append(front_complement & ~V)
        front |= sets[-1]
        front_complement = everything & ~U
    sets.append(front_complement)

    bad = _violations(space, sets)
    if bad:
        raise CertificationError("constructed chain is invalid: " + "; ".join(bad))
    if xm & ~(sets[0] & ~sets[1]):
        raise CertificationError("constructed chain does not isolate X in the first set")
    if ym & ~(sets[-1] & ~sets[-2]):
        raise CertificationError("constructed chain does not isolate Y in the last set")
    if _admissible(model, sets) is None:
        raise CertificationError("constructed chain is not admissible")
    return Chain(space, tuple(sets))


def chain_to_json(model: DualModel, chain: Chain, x, y) -> dict:
    """The certificate file of the chain and its end witnesses x and y."""
    sets = [model.space._sorted_ids(m) for m in _masks(model, chain)]
    model.space._mask((x, y))  # UnknownPoint for a point outside the space
    return {
        "n": model.n,
        "bound": model.bound,
        "restrict_to_class": True,
        "length": chain.length,
        "sets": sets,
        "x": str(x),
        "y": str(y),
    }


def chain_from_json(model: DualModel, payload: dict) -> tuple[Chain, Point, Point, bool]:
    """The chain of a `chain_to_json` payload as masks over the model's
    space, its end witnesses and its restriction flag, which is always
    True.  Each id becomes a point number through the model's id table, so
    only canonical ids are read.  Every key the writer writes must be
    there: KeyError names the first one missing.  A flag other than true
    and sets that are not a list of lists raise TypeError."""
    keys = ("n", "bound", "restrict_to_class", "length", "sets", "x", "y")
    if missing := [key for key in keys if key not in payload]:
        raise KeyError(missing[0])
    if (flag := payload["restrict_to_class"]) is not True:
        raise TypeError(f"restrict_to_class must be true, got {flag!r}")
    lists = payload["sets"]
    if not isinstance(lists, list) or not all(isinstance(ids, list) for ids in lists):
        raise TypeError("sets must be a list of lists of point ids")
    sets = tuple(reduce(or_, (1 << _point_number(model, pid) for pid in ids), 0) for ids in lists)
    x, y = (point_from_id(model, payload[key]) for key in ("x", "y"))
    return Chain(model.space, sets), x, y, True
