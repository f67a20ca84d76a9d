"""SO(N) signature arithmetic: validation, enumeration, branching, walks.

Irreducible representations of SO(N) are labelled by weakly decreasing
integer tuples of length k = floor(N/2).  For N = 2k the entries satisfy
m1 >= m2 >= ... >= m_{k-1} >= |m_k| (the last entry may be negative); for
N = 2k+1 they satisfy m1 >= ... >= m_k >= 0.  SO(2) signatures are single
unconstrained integers and SO(1) has only the empty signature.

Restriction to SO(N-1) is multiplicity-free and cut out by interleaving
inequalities, so every branching set is an integer box intersected with
the child validity constraints.  That makes "do two restrictions share an
irreducible" an O(k) interval-overlap test; the box enumeration in
:func:`branch` is kept as the brute-force oracle that the closed forms are
tested against.  Read the other way, interleaving makes the classes that
restrict to an SO(N-1) signature a product of intervals too, its hull
(:func:`hull_intervals`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

from .errors import (
    ContextMismatch,
    MonotonicityViolated,
    NegativeEntry,
    PreconditionViolated,
    SignatureError,
    WrongLength,
)

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class GroupContext:
    """The rotation group SO(n), n >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionViolated(f"SO({self.n}) is not a group context; need n >= 1")

    @property
    def k(self) -> int:
        """Signature length floor(n/2)."""
        return self.n // 2

    @property
    def parity(self) -> str:
        return EVEN if self.n % 2 == 0 else ODD

    @property
    def child(self) -> "GroupContext":
        """The subgroup SO(n-1) that signatures branch to."""
        if self.n < 2:
            raise PreconditionViolated("SO(1) has no child group")
        return GroupContext(self.n - 1)

    def __str__(self) -> str:
        return f"so{self.n}"


def _check_entries(entries: tuple[int, ...], ctx: GroupContext) -> None:
    k = ctx.k
    if len(entries) != k:
        raise WrongLength(len(entries), k, ctx.n)
    if ctx.n <= 2:
        return  # SO(1): empty; SO(2): one unconstrained integer
    if ctx.parity == ODD:
        for i in range(k - 1):
            if entries[i] < entries[i + 1]:
                raise MonotonicityViolated(
                    i + 1, f"entry {i + 1} must dominate entry {i + 2}: {entries[i]} < {entries[i + 1]}"
                )
        if entries[k - 1] < 0:
            raise NegativeEntry(k, f"SO({ctx.n}) forbids a negative entry {k}: {entries[k - 1]}")
    else:
        for i in range(k - 2):
            if entries[i] < entries[i + 1]:
                raise MonotonicityViolated(
                    i + 1, f"entry {i + 1} must dominate entry {i + 2}: {entries[i]} < {entries[i + 1]}"
                )
        if entries[k - 2] < abs(entries[k - 1]):
            raise MonotonicityViolated(
                k - 1,
                f"entry {k - 1} must dominate |entry {k}|: {entries[k - 2]} < |{entries[k - 1]}|",
            )


@dataclass(frozen=True)
class Signature:
    """A validated signature; constructing an invalid one raises."""

    entries: tuple[int, ...]
    ctx: GroupContext

    def __post_init__(self):
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if type(e) is not int:  # no floats, strings or bools
                raise SignatureError(f"signature entries must be integers, got {e!r}")
        _check_entries(self.entries, self.ctx)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)

    def to_dict(self) -> dict:
        return {"n": self.ctx.n, "entries": list(self.entries)}


def int_field(payload: dict, key: str) -> int:
    """`payload[key]`, which must be an integer (not a float, string or
    bool): a file that reads 5.7 as 5 would re-verify a certificate it does
    not contain."""
    value = payload[key]
    if type(value) is not int:
        raise SignatureError(f"field {key!r} must be an integer, got {value!r}")
    return value


def signature_from_dict(payload: dict) -> Signature:
    return Signature(tuple(payload["entries"]), GroupContext(int_field(payload, "n")))


def validate(entries: Sequence[int], n: int) -> Signature:
    """Return the SO(n) signature with the given entries.

    Raises WrongLength, MonotonicityViolated(index) or NegativeEntry(index)
    identifying the first violated inequality, scanning left to right.
    """
    return Signature(tuple(entries), GroupContext(n))


@lru_cache(maxsize=64)  # a sweep revisits about a dozen (n, bound) keys at a time
def _enumerate_cached(n: int, bound: int) -> tuple[Signature, ...]:
    ctx = GroupContext(n)
    k = ctx.k
    if k == 0:
        return (Signature((), ctx),)
    if n == 2:
        return tuple(Signature((m,), ctx) for m in range(-bound, bound + 1))
    out: list[Signature] = []

    def rec(prefix: tuple[int, ...]) -> None:
        i = len(prefix)
        if i == k:
            out.append(Signature(prefix, ctx))
            return
        hi = prefix[-1] if prefix else bound
        lo = -hi if (ctx.parity == EVEN and i == k - 1) else 0
        for v in range(lo, hi + 1):
            rec(prefix + (v,))

    rec(())
    return tuple(out)


def enumerate_signatures(n: int, bound: int) -> list[Signature]:
    """All SO(n) signatures with leading entry at most `bound`, in
    lexicographic order (for even n the last entry ranges down to -bound)."""
    if bound < 0:
        raise PreconditionViolated("enumeration bound must be >= 0")
    return list(_enumerate_cached(n, bound))


def count_signatures(n: int, bound: int) -> int:
    """`len(enumerate_signatures(n, bound))` in closed form.  For n = 2k+1
    the signatures are the weakly decreasing k-tuples in [0, bound], which
    number C(bound+k, k); for n = 2k those with a negative last entry add
    the mirror images of the tuples in [1, bound], C(bound+k-1, k)."""
    if bound < 0:
        raise PreconditionViolated("enumeration bound must be >= 0")
    k = GroupContext(n).k
    if n % 2:
        return comb(bound + k, k)
    return comb(bound + k, k) + comb(bound + k - 1, k)


@dataclass(frozen=True)
class BranchBox:
    """Closed integer intervals, one per coordinate of the child signature.

    The branching set of the parent is exactly the points of this box that
    are also valid child signatures.
    """

    intervals: tuple[tuple[int, int], ...]
    ctx: GroupContext  # child group


def branch_box(pi: Signature) -> BranchBox:
    """Interval hull of the restriction of `pi` to SO(n-1)."""
    ctx = pi.ctx
    child = ctx.child
    m = pi.entries
    k = ctx.k
    if ctx.n == 2:
        return BranchBox((), child)
    if ctx.parity == EVEN:
        ivs = tuple((abs(m[i + 1]), m[i]) for i in range(k - 1))
    else:
        ivs = tuple((m[i + 1], m[i]) for i in range(k - 1)) + ((-m[k - 1], m[k - 1]),)
    return BranchBox(ivs, child)


def hull_intervals(sigma: Signature) -> tuple[tuple[int, float], ...]:
    """The parent classes whose restriction contains `sigma`, as a product
    of intervals in the parent coordinates, by interleaving: [s1, inf) x
    [s2, s1] x ..., ending in [|sk|, s(k-1)] for an odd parent (just
    [|s1|, inf) for SO(3)) and in [-s(k-1), s(k-1)] for an even one.  Every
    point of the product is a valid parent signature."""
    s = sigma.entries
    if sigma.ctx.parity == EVEN:  # odd parent
        lows = s[:-1] + (abs(s[-1]),)
    else:
        lows = s + (-s[-1],)
    return tuple(zip(lows, (float("inf"),) + s))


def branch(pi: Signature) -> list[Signature]:
    """Explicit multiplicity-free branching set of `pi`, by box enumeration.

    This is the brute-force oracle for the closed-form operations below;
    none of them call it.
    """
    if pi.ctx.n < 2:
        raise PreconditionViolated("branching needs n >= 2")
    box = branch_box(pi)
    out = []
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in box.intervals)):
        try:
            out.append(Signature(point, box.ctx))
        except (MonotonicityViolated, NegativeEntry):
            continue
    out.sort(key=lambda s: s.entries)
    return out


def restricts_to(pi: Signature, sigma: Signature) -> bool:
    """True iff `sigma` occurs in the restriction of `pi`: the interleaving
    inequalities of :func:`branch_box`, tested in place (O(k), no
    enumeration and no allocation)."""
    n = pi.ctx.n
    if n < 2:
        raise PreconditionViolated("SO(1) has no child group")
    if sigma.ctx.n != n - 1:
        raise ContextMismatch(f"{sigma.ctx} is not the child group of {pi.ctx}")
    m, s = pi.entries, sigma.entries
    last = len(m) - 1
    if n % 2 == 0:
        for i in range(last):
            if not abs(m[i + 1]) <= s[i] <= m[i]:
                return False
        return True
    for i in range(last):
        if not m[i + 1] <= s[i] <= m[i]:
            return False
    return -m[last] <= s[last] <= m[last]


def _require_same_ctx(sigs: Sequence[Signature], minimum_n: int, op: str) -> GroupContext:
    ctx = sigs[0].ctx
    if any(s.ctx != ctx for s in sigs):
        raise ContextMismatch(f"{op} needs signatures of one group")
    if ctx.n < minimum_n:
        raise PreconditionViolated(f"{op} needs n >= {minimum_n}, got {ctx}")
    return ctx


def inseparable(pi1: Signature, pi2: Signature) -> bool:
    """True iff the restrictions of the two signatures share an irreducible.

    Computed by the coordinate-wise interval-overlap closed form: the
    intersected branching box is nonempty iff in every coordinate the upper
    ends dominate the lower ends, and its lower corner is then always a
    valid child signature.  Validated against the set-intersection oracle
    over :func:`branch` in the test suite.
    """
    _require_same_ctx((pi1, pi2), 3, "inseparable")
    a, b = pi1.entries, pi2.entries
    k = pi1.ctx.k
    if pi1.ctx.parity == EVEN:
        return all(max(abs(a[i + 1]), abs(b[i + 1])) <= min(a[i], b[i]) for i in range(k - 1))
    return all(max(a[i + 1], b[i + 1]) <= min(a[i], b[i]) for i in range(k - 1))


def common_restriction(pis: Sequence[Signature]) -> Signature | None:
    """A deterministic witness in the intersection of all branching sets.

    Returns the lower corner of the intersected branching box (coordinate-wise
    maximum of the lower interval ends), or None when the box is empty.
    """
    if not pis:
        raise PreconditionViolated("common_restriction needs a nonempty list")
    ctx = _require_same_ctx(tuple(pis), 3, "common_restriction")
    k = ctx.k
    child = ctx.child
    if ctx.parity == EVEN:
        lo = [max(abs(p.entries[i + 1]) for p in pis) for i in range(k - 1)]
        hi = [min(p.entries[i] for p in pis) for i in range(k - 1)]
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Signature(tuple(lo), child)
    lo = [max(p.entries[i + 1] for p in pis) for i in range(k - 1)]
    hi = [min(p.entries[i] for p in pis) for i in range(k - 1)]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    last = -min(p.entries[k - 1] for p in pis)
    return Signature(tuple(lo) + (last,), child)


def common_extension(sigmas: Sequence[Signature]) -> Signature | None:
    """A parent signature restricting to every signature in the list, or None.

    Feasibility is the interleaving overlap test on consecutive coordinates;
    the witness is the lexicographically least parent (the lower corner of
    the feasible region).  Validated against brute-force parent search in
    the test suite.
    """
    if not sigmas:
        raise PreconditionViolated("common_extension needs a nonempty list")
    child = sigmas[0].ctx
    if any(s.ctx != child for s in sigmas):
        raise ContextMismatch("common_extension needs signatures of one group")
    parent = GroupContext(child.n + 1)
    if parent.n < 3:
        raise PreconditionViolated("common_extension needs a parent group SO(n), n >= 3")
    k = parent.k
    if parent.parity == ODD:
        # children are SO(2k) signatures of length k, last entry may be negative
        for i in range(k - 2):
            if max(s.entries[i + 1] for s in sigmas) > min(s.entries[i] for s in sigmas):
                return None
        if k >= 2 and max(abs(s.entries[k - 1]) for s in sigmas) > min(s.entries[k - 2] for s in sigmas):
            return None
        ms = [max(s.entries[i] for s in sigmas) for i in range(k - 1)]
        ms.append(max(abs(s.entries[k - 1]) for s in sigmas))
        return Signature(tuple(ms), parent)
    # children are SO(2k-1) signatures of length k-1, all entries >= 0
    for i in range(k - 2):
        if max(s.entries[i + 1] for s in sigmas) > min(s.entries[i] for s in sigmas):
            return None
    ms = [max(s.entries[i] for s in sigmas) for i in range(k - 1)]
    ms.append(-min(s.entries[k - 2] for s in sigmas))
    return Signature(tuple(ms), parent)


def tail_start(entries: tuple[int, ...]) -> int:
    """1-based index of the last nonzero entry, 0 when all vanish."""
    for idx in range(len(entries), 0, -1):
        if entries[idx - 1] != 0:
            return idx
    return 0


def merge_max(sigs: Sequence[Signature]) -> list[int]:
    """Coordinate-wise maximum of the entries; for an even group the last
    coordinate takes the maximum of absolute values.  The result is a plain
    integer list, not necessarily a valid signature."""
    if not sigs:
        raise PreconditionViolated("merge_max needs a nonempty list")
    ctx = sigs[0].ctx
    if any(s.ctx != ctx for s in sigs):
        raise ContextMismatch("merge_max needs signatures of one group")
    k = ctx.k
    out = [max(s.entries[i] for s in sigs) for i in range(k)]
    if ctx.parity == EVEN and k >= 1:
        out[-1] = max(abs(s.entries[-1]) for s in sigs)
    return out


@dataclass(frozen=True)
class Walk:
    """A sequence of signatures with, for every consecutive pair, a child
    signature witnessing that both restrictions contain it."""

    steps: tuple[Signature, ...]
    witnesses: tuple[Signature, ...]

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def to_dict(self) -> dict:
        return {
            "n": self.steps[0].ctx.n,
            "steps": [list(s.entries) for s in self.steps],
            "witnesses": [list(w.entries) for w in self.witnesses],
        }


def walk_from_dict(payload: dict) -> Walk:
    ctx = GroupContext(int_field(payload, "n"))
    steps = tuple(Signature(tuple(e), ctx) for e in payload["steps"])
    wits = tuple(Signature(tuple(e), ctx.child) for e in payload["witnesses"])
    return Walk(steps, wits)


def walk_violations(w: Walk) -> tuple[str, ...]:
    """All reasons the walk fails to be valid; empty when it is valid."""
    bad: list[str] = []
    if not w.steps:
        return ("walk has no steps",)
    ctx = w.steps[0].ctx
    if any(s.ctx != ctx for s in w.steps):
        bad.append("steps mix group contexts")
    if len(w.witnesses) != len(w.steps) - 1:
        bad.append("witness count does not match step count")
        return tuple(bad)
    for i, wit in enumerate(w.witnesses):
        if not restricts_to(w.steps[i], wit):
            bad.append(f"witness {i + 1} is not in the branching set of step {i + 1}")
        if not restricts_to(w.steps[i + 1], wit):
            bad.append(f"witness {i + 1} is not in the branching set of step {i + 2}")
    return tuple(bad)


def verify_walk(w: Walk) -> bool:
    return not walk_violations(w)


def _tower(entries: tuple[int, ...], s: list[int], r: int, parity: str, k: int):
    """Successively overwrite prefixes with the merged maxima and zero the
    tail, one coordinate per step; returns states and per-step witnesses."""
    states = [entries]
    wits = []
    for j in range(1, r + 1):
        prev = states[-1]
        nxt = tuple(s[:j]) + entries[j : k - j] + (0,) * j
        if parity == EVEN:
            wit = prev[: k - j] + prev[k - j + 1 :]
        else:
            wit = prev[: k - j] + (0,) * j
        states.append(nxt)
        wits.append(wit)
    return states, wits


def _compress(steps: list[Signature], wits: list[Signature]) -> Walk:
    out_s = [steps[0]]
    out_w = []
    for s, w in zip(steps[1:], wits):
        if s != out_s[-1]:
            out_s.append(s)
            out_w.append(w)
    return Walk(tuple(out_s), tuple(out_w))


def walk(pi1: Signature, pi2: Signature) -> Walk:
    """An explicit walk of length at most k between the two signatures.

    Both endpoints march toward the coordinate-wise maximum: step j replaces
    the prefix by the merged maxima and zeroes the tail coordinate, and the
    two towers meet in the middle (for odd k via one joining step whose
    witness is the merged prefix padded with zeros).  The length certifies
    an upper bound; it is not necessarily the graph distance.
    """
    ctx = _require_same_ctx((pi1, pi2), 3, "walk")
    if pi1 == pi2:
        return Walk((pi1,), ())
    k = ctx.k
    child = ctx.child
    s = merge_max([pi1, pi2])
    r = k // 2
    st1, w1 = _tower(pi1.entries, s, r, ctx.parity, k)
    st2, w2 = _tower(pi2.entries, s, r, ctx.parity, k)
    steps_e: list[tuple[int, ...]] = list(st1)
    wits_e: list[tuple[int, ...]] = list(w1)
    if k % 2 == 0:
        # both towers end at the same merged signature
        steps_e.extend(reversed(st2[:-1]))
        wits_e.extend(reversed(w2))
    else:
        mid_pad = (k - 1 - r) if ctx.parity == EVEN else (k - r)
        wits_e.append(tuple(s[:r]) + (0,) * mid_pad)
        steps_e.extend(reversed(st2))
        wits_e.extend(reversed(w2))
    steps = [Signature(e, ctx) for e in steps_e]
    wits = [Signature(e, child) for e in wits_e]
    return _compress(steps, wits)


def parse_entries(text: str) -> tuple[int, ...]:
    """Parse a comma-separated signature such as "2,1,0"; "" is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise PreconditionViolated(f"cannot parse signature {text!r}: {exc}") from None
