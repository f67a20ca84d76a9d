"""Chains of closed sets and the distance lower bounds they certify.

A chain of length n on a space is a cover by n closed sets in which only
consecutive sets may overlap and, for n > 1, both end sets stick out.  If
x lies in the first set only and y in the last set only then every walk
from x to y must cross the sets one at a time, so d(x, y) >= n.  The
functions here validate chains, certify that bound against an independent
BFS, decide separation by disjoint open sets, and construct admissible
chains of prescribed length from a set pair at sufficient distance.

Topological operations (closure, separation, neighborhoods used during
construction) run on the full model relation; distance certificates are
class-restricted by default, matching the faithful metric on the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dualspace import DualModel, FiniteT0Space, Point
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


def n_neighborhood(model, Y: Iterable, n: int, restrict_to_class: bool = False) -> frozenset:
    """All points at graph distance <= n from Y; Y^0 = Y."""
    if n < 0:
        raise PreconditionViolated("neighborhood radius must be >= 0")
    space = _space_of(model)
    within = _vertices(model, restrict_to_class)
    Y = frozenset(Y)
    if within is not None and not Y <= within:
        raise PreconditionViolated("class-restricted neighborhoods need class seeds")
    return space.ball(Y, n, within)


def validate_chain(model, chain: Chain) -> ChainReport:
    """Check closedness, cover, non-consecutive disjointness and end sets."""
    space = _space_of(model)
    bad: list[str] = []
    n = chain.length
    if n == 0:
        return ChainReport(False, ("chain has no sets",))
    for i, s in enumerate(chain.sets, start=1):
        if not space.is_closed(s):
            bad.append(f"set {i} is not closed")
    if frozenset().union(*chain.sets) != frozenset(space.points):
        bad.append("union of the sets does not cover the space")
    for i in range(n):
        for j in range(i + 2, n):
            if chain.sets[i] & chain.sets[j]:
                bad.append(f"sets {i + 1} and {j + 1} overlap")
    if n > 1:
        if not chain.sets[0] - chain.sets[1]:
            bad.append("first set minus second set is empty")
        if not chain.sets[-1] - chain.sets[-2]:
            bad.append("last set minus second-to-last set is empty")
    return ChainReport(not bad, tuple(bad))


def _end_candidates(model, chain: Chain, restrict_to_class: bool):
    space = _space_of(model)
    within = _vertices(model, restrict_to_class)
    order = space._index.__getitem__
    if chain.length == 1:
        pool = chain.sets[0] if within is None else chain.sets[0] & within
        pool = sorted(pool, key=order)
        return pool, pool
    xs = chain.sets[0] - chain.sets[1]
    ys = chain.sets[-1] - chain.sets[-2]
    if within is not None:
        xs, ys = xs & within, ys & within
    return sorted(xs, key=order), sorted(ys, key=order)


def is_admissible(model, chain: Chain, restrict_to_class: bool = True):
    """Search for end witnesses at finite distance; returns (found, x, y)."""
    rep = validate_chain(model, chain)
    if not rep.valid:
        raise PreconditionViolated("chain is not valid: " + "; ".join(rep.violations))
    space = _space_of(model)
    within = _vertices(model, restrict_to_class)
    xs, ys = _end_candidates(model, chain, restrict_to_class)
    ys_set = frozenset(ys)
    for x in xs:
        dist = space.bfs([x], within)
        hits = [y for y in ys if y in dist and y in ys_set]
        if hits:
            return True, x, hits[0]
    return False, None, None


def chain_lower_bound(model, chain: Chain, x, y, restrict_to_class: bool = True) -> int:
    """Certify d(x, y) >= chain length and re-check it with an independent
    BFS; a contradiction raises CertificationError (it would mean a bug,
    the bound being a theorem about valid chains)."""
    rep = validate_chain(model, chain)
    if not rep.valid:
        raise PreconditionViolated("chain is not valid: " + "; ".join(rep.violations))
    bad = witness_violations(model, chain, x, y, restrict_to_class)
    if bad:
        raise PreconditionViolated(bad[0])
    n = chain.length
    d = _space_of(model).distance(x, y, _vertices(model, restrict_to_class))
    if d < n:
        raise CertificationError(f"chain of length {n} contradicted by graph distance {d}")
    return n


def witness_violations(model, chain: Chain, x, y, restrict_to_class: bool = True) -> tuple[str, ...]:
    """Why x and y are not end witnesses of the (valid) chain: they must be
    two distinct points of a one-set chain, or else x must lie in the first
    set only and y in the last set only; class points when class-restricted."""
    bad = []
    if chain.length == 1:
        if x not in chain.sets[0] or y not in chain.sets[0]:
            bad.append("end witnesses must lie in the chain")
        elif x == y:
            bad.append("a length-1 certificate needs distinct end points")
    else:
        if x not in chain.sets[0] - chain.sets[1]:
            bad.append("x must lie in the first set and not the second")
        if y not in chain.sets[-1] - chain.sets[-2]:
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
    Y, Z = frozenset(Y), frozenset(Z)
    U = space.min_open_of(Y)
    V = space.min_open_of(Z)
    found = not (U & V)
    criterion = (
        not (space.closure_of(space.ball(Y, 1)) & Z)
        and not (space.closure_of(space.ball(Z, 1)) & Y)
    )
    if found != criterion:
        raise CertificationError(
            "separation by minimal open sets disagrees with the closure criterion"
        )
    return (U, V) if found else None


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
    d = space.set_distance(X, Y, within)
    if d < k:
        raise PreconditionViolated(f"need d(X, Y) >= {k}, got {d}")
    anchor = min(X | Y, key=space._index.__getitem__)
    reach = space.bfs([anchor], within)
    if any(p not in reach for p in X | Y):
        raise PreconditionViolated("X and Y must lie in one component")

    pts = frozenset(space.points)
    sep = separate(space, X, space.ball(Y, k - 2))
    if sep is None:
        raise CertificationError("initial separation failed despite the distance bound")
    U, V = sep
    sets = [pts - V]
    front_complement = pts - U  # the current Y_i
    for i in range(2, k):
        front = frozenset().union(*sets)
        sep = separate(space, front, space.ball(Y, k - i - 1))
        if sep is None:
            raise CertificationError(f"separation stage {i} failed despite the distance bound")
        U, V = sep
        sets.append((pts - V) & front_complement)
        front_complement = pts - U
    sets.append(front_complement)
    chain = Chain(tuple(sets))

    rep = validate_chain(space, chain)
    if not rep.valid:
        raise CertificationError("constructed chain is invalid: " + "; ".join(rep.violations))
    if not X <= chain.sets[0] - chain.sets[1]:
        raise CertificationError("constructed chain does not isolate X in the first set")
    if not Y <= chain.sets[-1] - chain.sets[-2]:
        raise CertificationError("constructed chain does not isolate Y in the last set")
    ok, _, _ = is_admissible(model, chain, restrict_to_class)
    if not ok:
        raise CertificationError("constructed chain is not admissible")
    return chain


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
