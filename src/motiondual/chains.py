"""Chains of closed sets and the distance lower bounds they certify.

A chain of length n on a space is a cover by n closed sets in which only
consecutive sets may overlap and, for n > 1, both end sets stick out.  If
x lies in the first set only and y in the last set only then every walk
from x to y must cross the sets one at a time, so d(x, y) >= n.  The
functions here validate chains, certify that bound against an independent
BFS, decide separation by disjoint open sets, and construct admissible
chains of prescribed length from a set pair at sufficient distance.

Inside, every set is an int mask over `space.points` and every search is
the space's layered search on masks (`Graph._layers`): the private helpers
`_violations`, `_admissible`, `_separate` and the space's `_ball` do the
set algebra.  Point sets are turned into masks once where they enter the
public functions and back into frozensets once where they leave them, so
a chain is built, validated and re-checked without hashing its points.

Topological operations (closure, separation, neighborhoods used during
construction) run on the full model relation; distance certificates are
class-restricted by default, matching the faithful metric on the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .dualspace import DualModel, FiniteT0Space, Point, _union
from .errors import CertificationError, PreconditionViolated

__all__ = [
    "Chain",
    "ChainReport",
    "Property1Report",
    "chain_for_distance",
    "chain_lower_bound",
    "chain_to_json",
    "find_admissible_chain",
    "is_admissible",
    "n_neighborhood",
    "separate",
    "validate_chain",
    "verify_property1",
    "witness_violations",
]


@dataclass(frozen=True)
class Chain:
    sets: tuple[frozenset, ...]

    @property
    def length(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    violations: tuple[str, ...]


def _space_of(obj) -> FiniteT0Space:
    return obj.space if isinstance(obj, DualModel) else obj


def _vertices(obj, restrict_to_class: bool) -> frozenset | None:
    if not restrict_to_class:
        return None
    if not isinstance(obj, DualModel):
        raise PreconditionViolated("class restriction needs a dual model")
    return obj.class_points


def _inside(obj, restrict_to_class: bool) -> int:
    """The mask of the vertices a search may use: the classes when
    class-restricted, else every point."""
    if _vertices(obj, restrict_to_class) is None:
        return _space_of(obj)._within(None)
    return obj.class_mask


def _violations(space: FiniteT0Space, sets: Sequence[int]) -> tuple[str, ...]:
    """Why the chain of set masks is not valid, in the order of the checks:
    closedness, cover, non-consecutive disjointness, end sets."""
    n = len(sets)
    if n == 0:
        return ("chain has no sets",)
    cl = space._closure
    bad = [f"set {i} is not closed" for i, s in enumerate(sets, start=1) if _union(cl, s) != s]
    if reduce(or_, sets) != space._within(None):
        bad.append("union of the sets does not cover the space")
    for i in range(n):
        for j in range(i + 2, n):
            if sets[i] & sets[j]:
                bad.append(f"sets {i + 1} and {j + 1} overlap")
    if n > 1:
        if not sets[0] & ~sets[1]:
            bad.append("first set minus second set is empty")
        if not sets[-1] & ~sets[-2]:
            bad.append("last set minus second-to-last set is empty")
    return tuple(bad)


def _valid_masks(space: FiniteT0Space, chain: Chain) -> list[int]:
    """The set masks of a chain that must be valid; PreconditionViolated
    names the violations otherwise."""
    sets = [space._mask(s) for s in chain.sets]
    bad = _violations(space, sets)
    if bad:
        raise PreconditionViolated("chain is not valid: " + "; ".join(bad))
    return sets


def _admissible(space: FiniteT0Space, sets: Sequence[int], within: int) -> tuple[int, int] | None:
    """End witnesses (x, y) of the valid chain at finite distance inside
    `within`, as point numbers: the first x in point order that reaches an
    end candidate, and the first candidate y in x's whole component."""
    if len(sets) == 1:
        xs = ys = sets[0] & within
    else:
        xs = sets[0] & ~sets[1] & within
        ys = sets[-1] & ~sets[-2] & within
    while xs:
        x = xs & -xs
        comp = space._ball(x, within)
        hits = comp & ys
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
    everything = space._within(None)
    cl = space._closure
    criterion = (
        not _union(cl, space._ball(Y, everything, 1)) & Z
        and not _union(cl, space._ball(Z, everything, 1)) & Y
    )
    if found != criterion:
        raise CertificationError(
            "separation by minimal open sets disagrees with the closure criterion"
        )
    return (U, V) if found else None


def n_neighborhood(model, Y: Iterable, n: int, restrict_to_class: bool = False) -> frozenset:
    """All points at graph distance <= n from Y; Y^0 = Y."""
    if n < 0:
        raise PreconditionViolated("neighborhood radius must be >= 0")
    space = _space_of(model)
    within = _vertices(model, restrict_to_class)
    Y = frozenset(Y)
    if within is not None and not Y <= within:
        raise PreconditionViolated("class-restricted neighborhoods need class seeds")
    return space._set(space._ball(space._mask(Y), _inside(model, restrict_to_class), n))


def validate_chain(model, chain: Chain) -> ChainReport:
    """Check closedness, cover, non-consecutive disjointness and end sets."""
    space = _space_of(model)
    bad = _violations(space, [space._mask(s) for s in chain.sets])
    return ChainReport(not bad, bad)


def is_admissible(model, chain: Chain, restrict_to_class: bool = True):
    """Search for end witnesses at finite distance; returns (found, x, y)."""
    space = _space_of(model)
    hit = _admissible(space, _valid_masks(space, chain), _inside(model, restrict_to_class))
    if hit is None:
        return False, None, None
    return True, space.points[hit[0]], space.points[hit[1]]


def chain_lower_bound(model, chain: Chain, x, y, restrict_to_class: bool = True) -> int:
    """Certify d(x, y) >= chain length and re-check it with an independent
    BFS; a contradiction raises CertificationError (it would mean a bug,
    the bound being a theorem about valid chains)."""
    space = _space_of(model)
    _valid_masks(space, chain)
    bad = witness_violations(model, chain, x, y, restrict_to_class)
    if bad:
        raise PreconditionViolated(bad[0])
    n = chain.length
    i, j = space._ids((x, y))
    d = space._reach(1 << i, 1 << j, _inside(model, restrict_to_class))
    if d < n:
        raise CertificationError(f"chain of length {n} contradicted by graph distance {d}")
    return n


def witness_violations(model, chain: Chain, x, y, restrict_to_class: bool = True) -> tuple[str, ...]:
    """Why x and y are not end witnesses of the (valid) chain: they must be
    two distinct points of a one-set chain, or else x must lie in the first
    set only and y in the last set only; class points when class-restricted."""
    bad = []
    sets = chain.sets
    if chain.length == 1:
        if x not in sets[0] or y not in sets[0]:
            bad.append("end witnesses must lie in the chain")
        elif x == y:
            bad.append("a length-1 certificate needs distinct end points")
    else:
        if x not in sets[0] or x in sets[1]:
            bad.append("x must lie in the first set and not the second")
        if y not in sets[-1] or y in sets[-2]:
            bad.append("y must lie in the last set and not the second-to-last")
    within = _vertices(model, restrict_to_class)
    if within is not None and not {x, y} <= within:
        bad.append("end witnesses of a class-restricted chain must be classes")
    return tuple(bad)


def chain_for_distance(model, x, y, k: int, restrict_to_class: bool = True) -> tuple[Chain, int]:
    """A chain certifying d(x, y) >= k, and the bound it certifies: the
    admissible chain of length k for k >= 2, else the one-set chain on the
    whole space."""
    if k >= 2:
        chain = find_admissible_chain(model, [x], [y], k, restrict_to_class)
    else:
        chain = Chain((frozenset(_space_of(model).points),))
    return chain, chain_lower_bound(model, chain, x, y, restrict_to_class)


def separate(model, Y: Iterable, Z: Iterable):
    """Disjoint open sets around Y and Z, or None.

    Returns the unions of minimal open sets when they are disjoint.  Also
    evaluates the closure criterion (the closure of Y^1 misses Z and the
    closure of Z^1 misses Y) and insists the two answers agree, which the
    separation lemma guarantees on these finite spaces.
    """
    space = _space_of(model)
    sep = _separate(space, space._mask(Y), space._mask(Z))
    return None if sep is None else (space._set(sep[0]), space._set(sep[1]))


def find_admissible_chain(model, X: Iterable, Y: Iterable, k: int, restrict_to_class: bool = True) -> Chain:
    """Build an admissible chain of length k with X in the first set only
    and Y in the last set only, given d(X, Y) >= k >= 2 within one component.

    Construction: separate X from the (k-2)-neighborhood of Y, take closed
    complements, then repeatedly separate the accumulated front from the
    shrinking neighborhoods of Y.  The result is re-validated before return.
    """
    space = _space_of(model)
    within = _vertices(model, restrict_to_class)
    X, Y = frozenset(X), frozenset(Y)
    if not X or not Y:
        raise PreconditionViolated("X and Y must be nonempty")
    if within is not None and not (X | Y) <= within:
        raise PreconditionViolated("class-restricted chains need class end sets")
    if k < 2:
        raise PreconditionViolated("chain construction needs k >= 2")
    inside = _inside(model, restrict_to_class)
    xm, ym = space._mask(X), space._mask(Y)
    d = space._reach(xm, ym, inside)
    if d < k:
        raise PreconditionViolated(f"need d(X, Y) >= {k}, got {d}")
    ends = xm | ym
    if ends & ~space._ball(ends & -ends, inside):  # from the first end point
        raise PreconditionViolated("X and Y must lie in one component")

    everything = space._within(None)
    sep = _separate(space, xm, space._ball(ym, everything, k - 2))
    if sep is None:
        raise CertificationError("initial separation failed despite the distance bound")
    U, V = sep
    sets = [everything & ~V]
    front = sets[0]  # the union of the sets so far
    front_complement = everything & ~U  # the current Y_i
    for i in range(2, k):
        sep = _separate(space, front, space._ball(ym, everything, k - i - 1))
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
    if _admissible(space, sets, inside) is None:
        raise CertificationError("constructed chain is not admissible")
    return Chain(tuple(space._set(s) for s in sets))


@dataclass(frozen=True)
class Property1Report:
    ok: bool
    witness: frozenset
    checks: tuple[tuple[str, bool], ...]
    notes: tuple[str, ...]


def verify_property1(model: DualModel, sample_limit: int = 16) -> Property1Report:
    """Exhibit the class-point set as a closed, relatively discrete set
    containing every non-singleton component of the faithful relation, and
    spot-check that one-step neighborhoods of closed sample sets are closed.
    """
    space = model.space
    checks: list[tuple[str, bool]] = []
    classes = model.class_points
    checks.append(("class set closed", space.is_closed(classes)))
    checks.append(
        ("class set relatively discrete", all(space.closure(p) == frozenset([p]) for p in classes))
    )
    non_singleton = [c for c in space.components(classes) if len(c) > 1]
    checks.append(
        ("non-singleton components covered", all(c <= classes for c in non_singleton))
    )
    samples: list[frozenset] = [frozenset(), frozenset(classes), frozenset(space.points)]
    germs = [p for p in space.points if p in model.germ_points]
    for g in germs[:sample_limit]:
        samples.append(space.closure(g))
    if len(germs) >= 2:
        samples.append(space.closure(germs[0]) | space.closure(germs[-1]))
    ok_samples = all(space.is_closed(space.ball(s, 1)) for s in samples)
    checks.append(("one-step neighborhoods of closed samples closed", ok_samples))
    notes = (
        "model artifact: each germ is inseparable from its hull, standing in for "
        "a half-line of separated points; the faithful relation treats germs as "
        "singleton components",
    )
    return Property1Report(all(ok for _, ok in checks), classes, tuple(checks), notes)


def chain_to_json(model: DualModel, chain: Chain, x=None, y=None, restrict_to_class: bool = True) -> dict:
    payload = {
        "n": model.n,
        "bound": model.bound,
        "restrict_to_class": restrict_to_class,
        "length": chain.length,
        "sets": [sorted(p.point_id for p in s) for s in chain.sets],
    }
    if x is not None and y is not None:
        payload["x"] = x.point_id
        payload["y"] = y.point_id
    return payload


def chain_from_json(model: DualModel, payload: dict) -> tuple[Chain, Point | None, Point | None, bool]:
    from .dualspace import point_from_id

    sets = tuple(frozenset(point_from_id(model, pid) for pid in ids) for ids in payload["sets"])
    chain = Chain(sets)
    x = point_from_id(model, payload["x"]) if "x" in payload else None
    y = point_from_id(model, payload["y"]) if "y" in payload else None
    restrict = payload.get("restrict_to_class", True)
    if not isinstance(restrict, bool):
        raise TypeError(f"restrict_to_class must be true or false, got {restrict!r}")
    return chain, x, y, restrict
