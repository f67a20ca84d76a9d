"""SO(N) signature arithmetic: validation, enumeration, branching, walks.

Irreducible representations of SO(N) are labelled by weakly decreasing
integer tuples of length k = floor(N/2).  For N = 2k the entries satisfy
m1 >= m2 >= ... >= m_{k-1} >= |m_k| (the last entry may be negative); for
N = 2k+1 they satisfy m1 >= ... >= m_k >= 0.  SO(2) signatures are single
unconstrained integers and SO(1) has only the empty signature.

Restriction to SO(N-1) is multiplicity-free and cut out by the
interleaving rule m[i+1] <= s[i] <= m[i], with absolute values on an even
group's last entry (Gelfand-Tsetlin, Zhelobenko).  Every entry of a valid
signature except an even group's last is at least |last| >= 0, so taking
absolute values everywhere changes only that entry, and one rule serves
both parities, *the abs rule*: coordinate i of a restriction lies in
[|m[i+1]|, m[i]], and when the child has one coordinate more than there
are consecutive pairs (odd N), the last lies in [-m[-1], m[-1]]
(:func:`_interleave`).  Every branching set is therefore an integer box
intersected with the child validity constraints, and "do two restrictions
share an irreducible" is an O(k) interval-overlap test; the box
enumeration in :func:`branch` is kept as the brute-force oracle that the
closed forms are tested against.  Read the other way, the classes that
restrict to an SO(N-1) signature form a product of intervals too, its hull
(:func:`hull_intervals`).

Signatures are hash-consed: the enumerations, walks and certificates that
repeat a value share one `Signature` object and its entry tuple, stored in
its `GroupContext`'s table.  Files, the command line, the enumeration and
`branch` (which relies on the constructor raising) go through the checked
constructor.  Rows derived from stored signatures by slicing, zero
padding, `abs`, `max`, `min` or negation (walk steps and witnesses,
merge-certificate rows, the `common_*` corners) are exact ints by
construction and take `_intern`, one table read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from operator import is_
from typing import Sequence

from .errors import (
    ContextMismatch,
    MonotonicityViolated,
    NegativeEntry,
    PreconditionViolated,
    SignatureError,
    WrongLength,
)

_CONTEXTS: dict[int, "GroupContext"] = {}  # one GroupContext per n; a run sees a few dozen


@dataclass(frozen=True, slots=True, eq=False, init=False)
class GroupContext:
    """The rotation group SO(n), n >= 1.

    There is one instance per n (hash-consing): the constructor, `child`,
    pickle and copy all return it, so equal contexts are the same object and
    compare by identity.  The hash is that of the tuple (n,), the same in
    every process.  Each context also holds its table of signatures,
    `entries -> Signature` (see `Signature`).  Subclasses are refused."""

    n: int
    _signatures: dict[tuple[int, ...], "Signature"] = field(init=False, repr=False)

    def __new__(cls, n: int) -> "GroupContext":
        # keyed by true ints only: 5.0 and True hash and compare as 5 and 1
        if type(n) is not int:
            raise PreconditionViolated(f"SO({n!r}) is not a group context; n must be an integer")
        ctx = _CONTEXTS.get(n)
        if ctx is None:
            if n < 1:
                raise PreconditionViolated(f"SO({n}) is not a group context; need n >= 1")
            ctx = object.__new__(cls)
            object.__setattr__(ctx, "n", n)
            object.__setattr__(ctx, "_signatures", {})
            ctx = _CONTEXTS.setdefault(n, ctx)
        return ctx

    def __init_subclass__(cls, **kwargs):
        raise TypeError("GroupContext cannot be subclassed")

    def __reduce__(self):
        return GroupContext, (self.n,)

    def __hash__(self) -> int:
        return hash((self.n,))

    @property
    def k(self) -> int:
        """Signature length floor(n/2)."""
        return self.n // 2

    @property
    def child(self) -> "GroupContext":
        """The subgroup SO(n-1) that signatures branch to."""
        if self.n < 2:
            raise PreconditionViolated("SO(1) has no child group")
        return GroupContext(self.n - 1)

    def __str__(self) -> str:
        return f"so{self.n}"


def _check_entries(entries: tuple[int, ...], ctx: GroupContext) -> None:
    n, k = ctx.n, ctx.k
    if len(entries) != k:
        raise WrongLength(len(entries), k, n)
    for i in range(1, k):
        a, b = entries[i - 1], entries[i]
        if n % 2 == 0 and i == k - 1:  # an even group's last entry counts by its absolute value
            if a < abs(b):
                raise MonotonicityViolated(i, f"entry {i} must dominate |entry {i + 1}|: {a} < |{b}|")
        elif a < b:
            raise MonotonicityViolated(i, f"entry {i} must dominate entry {i + 1}: {a} < {b}")
    if n % 2 and k and entries[-1] < 0:
        raise NegativeEntry(k, f"SO({n}) forbids a negative entry {k}: {entries[-1]}")


def _check(entries: tuple, ctx: GroupContext) -> None:
    """Raise unless `entries` is a valid signature of `ctx`."""
    # One pass accepts every valid signature: integer entries that never
    # increase (an even group's last entry m_k satisfies m_{k-1} >= |m_k|
    # >= m_k), the right length, and the rule on the last entry.
    n = ctx.n
    if len(entries) == n // 2:
        if not entries:
            return  # SO(1)
        prev = entries[0]
        for e in entries:
            if type(e) is not int or e > prev:  # no floats, strings or bools
                break
            prev = e
        else:
            if n % 2:
                if prev >= 0:
                    return
            elif n == 2 or entries[-2] >= -prev:
                return
    # Invalid: the checks below name the first fault, scanning left to right.
    for e in entries:
        if type(e) is not int:
            raise SignatureError(f"signature entries must be integers, got {e!r}")
    _check_entries(entries, ctx)


@dataclass(frozen=True, slots=True, init=False)
class Signature:
    """A validated signature; constructing an invalid one raises.

    One instance per value of a true `GroupContext` (hash-consing, as for
    `GroupContext`; Filliatre and Conchon, ML Workshop 2006): the
    constructor, pickle and copy return the object stored in the
    context's table, keyed by the entry tuple.  A value is checked in full
    before it is stored.  A later build takes the stored object unchecked
    only when each entry is the very object stored (CPython shares the
    ints -5 to 256); any other, such as True or 1.0 for 1, or an int
    outside that range, is checked again.  The rows the library derives
    from stored signatures (walk steps and witnesses, merge-certificate
    rows, corners) skip that identity test through `_intern`: slicing,
    zero padding, `abs`, `max`, `min` and negation of exact ints give
    exact ints, so the test could refuse nothing there.  Equality and the
    hash stay by value.  Like `_CONTEXTS`, the tables hold strong
    references and grow with the distinct values a process builds, which
    the size caps bound."""

    entries: tuple[int, ...]
    ctx: GroupContext

    def __new__(cls, entries: Sequence[int], ctx: GroupContext) -> "Signature":
        if type(entries) is not tuple:
            entries = tuple(entries)
        table = ctx._signatures if type(ctx) is GroupContext else None  # only true contexts are stored
        try:
            sig = table[entries]
            if all(map(is_, sig.entries, entries)):
                return sig
        except (KeyError, TypeError):  # a new value, no table, or an unhashable entry that the check names
            pass
        _check(entries, ctx)
        sig = object.__new__(cls)
        object.__setattr__(sig, "entries", entries)
        object.__setattr__(sig, "ctx", ctx)
        return sig if table is None else table.setdefault(entries, sig)

    def __reduce__(self):
        return Signature, (self.entries, self.ctx)

    def __str__(self) -> str:
        return ",".join([str(e) for e in self.entries])


def _intern(entries: tuple[int, ...], ctx: GroupContext) -> Signature:
    """`Signature(entries, ctx)` for entries derived from stored signatures,
    which are exact ints: a stored value is returned at once, a new one
    takes the constructor's full check."""
    try:
        return ctx._signatures[entries]
    except KeyError:
        return Signature(entries, ctx)


def int_field(payload: dict, key: str) -> int:
    """`payload[key]`, which must be an integer (not a float, string or
    bool): a file that reads 5.7 as 5 would re-verify a certificate it does
    not contain."""
    value = payload[key]
    if type(value) is not int:
        raise SignatureError(f"field {key!r} must be an integer, got {value!r}")
    return value


def validate(entries: Sequence[int], n: int) -> Signature:
    """Return the SO(n) signature with the given entries.

    Raises WrongLength, MonotonicityViolated(index) or NegativeEntry(index)
    identifying the first violated inequality, scanning left to right.
    """
    return Signature(tuple(entries), GroupContext(n))


@lru_cache(maxsize=64)  # a sweep revisits about a dozen (n, bound) keys at a time
def _enumerate_cached(n: int, bound: int) -> tuple[Signature, ...]:
    """Built one entry at a time: each prefix, kept in lexicographic order,
    grows by every entry from 0 (from -hi for an even n's last entry) up to
    hi, the prefix's last entry or else `bound`.  No closure refers to
    itself, so a cold enumeration leaves no cycle for the collector."""
    ctx = GroupContext(n)
    rows: list[tuple[int, ...]] = [()]
    for i in range(ctx.k):
        mirror = n % 2 == 0 and i == ctx.k - 1
        rows = [r + (v,) for r in rows for hi in (r[-1] if r else bound,) for v in range(-hi if mirror else 0, hi + 1)]
    return tuple(Signature(r, ctx) for r in rows)


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


def _interleave(t: tuple, length: int) -> tuple[tuple, ...]:
    """The abs rule on the entries `t`: the intervals [|t[i+1]|, t[i]]
    between consecutive entries, then [-t[-1], t[-1]] when `length` asks
    for one coordinate more."""
    box = tuple(zip(map(abs, t[1:]), t))
    return box + ((-t[-1], t[-1]),) if length > len(box) else box


def branch_box(pi: Signature) -> tuple[tuple[int, int], ...]:
    """Interval hull of the restriction of `pi` to SO(n-1) by the abs rule:
    closed integer intervals, one per child coordinate.  The branching set
    is exactly the points of this box that are valid child signatures."""
    return _interleave(pi.entries, pi.ctx.child.k)  # SO(1) has no child and raises


def hull_intervals(sigma: Signature) -> tuple[tuple[int, float], ...]:
    """The parent classes whose restriction contains `sigma`, as a product
    of intervals in the parent coordinates: the abs rule read the other
    way, on the entries (inf,) + sigma, so [|s1|, inf) x [|s2|, s1] x ...,
    ending in [-s(k-1), s(k-1)] for an even parent.  Every point of the
    product is a valid parent signature."""
    return _interleave((float("inf"),) + sigma.entries, (sigma.ctx.n + 1) // 2)  # the parent k


def branch(pi: Signature) -> list[Signature]:
    """Explicit multiplicity-free branching set of `pi`, by box enumeration.

    This is the brute-force oracle for the closed-form operations below;
    none of them call it.
    """
    if pi.ctx.n < 2:
        raise PreconditionViolated("branching needs n >= 2")
    child = pi.ctx.child
    out = []
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in branch_box(pi))):
        try:
            out.append(Signature(point, child))
        except (MonotonicityViolated, NegativeEntry):
            continue
    out.sort(key=lambda s: s.entries)
    return out


def restricts_to(pi: Signature, sigma: Signature) -> bool:
    """True iff `sigma` occurs in the restriction of `pi`: the abs rule of
    :func:`branch_box`, tested in place (O(k), no enumeration and no
    allocation).  It is written out by hand on purpose, as the independent
    check that ties :func:`branch_box` to the brute-force oracles."""
    n = pi.ctx.n
    if n < 2:
        raise PreconditionViolated("SO(1) has no child group")
    if sigma.ctx.n != n - 1:
        raise ContextMismatch(f"{sigma.ctx} is not the child group of {pi.ctx}")
    m, s = pi.entries, sigma.entries
    for i in range(len(m) - 1):
        if not abs(m[i + 1]) <= s[i] <= m[i]:
            return False
    return n % 2 == 0 or -m[-1] <= s[-1] <= m[-1]


def _require_same_ctx(sigs: Sequence[Signature], minimum_n: int, op: str) -> GroupContext:
    """The one group of the nonempty list `sigs`, which must be SO(n) with
    n >= `minimum_n`."""
    if not sigs:
        raise PreconditionViolated(f"{op} needs a nonempty list")
    ctx = sigs[0].ctx
    for s in sigs:
        if s.ctx is not ctx:
            raise ContextMismatch(f"{op} needs signatures of one group")
    if ctx.n < minimum_n:
        raise PreconditionViolated(f"{op} needs n >= {minimum_n}, got {ctx}")
    return ctx


def inseparable(pi1: Signature, pi2: Signature) -> bool:
    """True iff the restrictions of the two signatures share an irreducible.

    Two branching boxes (the abs rule) meet iff in every coordinate each
    interval's lower end is at most the other's upper end: the intervals of
    valid signatures are never empty, and the symmetric last intervals of
    an odd group always share 0.  The lower corner of the intersection is
    then a valid child signature.  Validated against the set-intersection
    oracle over :func:`branch` in the test suite.
    """
    _require_same_ctx((pi1, pi2), 3, "inseparable")
    a, b = pi1.entries, pi2.entries
    return all(abs(a[i + 1]) <= b[i] and abs(b[i + 1]) <= a[i] for i in range(len(a) - 1))


def _corner(rows: Sequence[tuple[int, ...]], skip: int, length: int) -> tuple[int, ...] | None:
    """Lower corner of the intersected abs-rule boxes of the entry tuples
    `rows`, or None when the boxes miss.  They meet iff max |x[i+1]| <=
    min x[i] for every consecutive pair; the corner is max |x[i]| from
    entry `skip` on, then -min x[-1] when `length` asks for one coordinate
    more."""
    cols = list(zip(*rows))
    lows = [max(map(abs, cols[0]))]
    for prev, col in zip(cols, cols[1:]):
        lows.append(max(map(abs, col)))
        if lows[-1] > min(prev):
            return None
    corner = lows[skip:]
    if len(corner) < length:
        corner.append(-min(cols[-1]))
    return tuple(corner)


def common_restriction(pis: Sequence[Signature]) -> Signature | None:
    """A deterministic witness in the intersection of all branching sets:
    the lower corner of the intersected branching boxes (:func:`_corner`),
    which is the lexicographically least common child, or None when the
    boxes miss.
    """
    child = _require_same_ctx(tuple(pis), 3, "common_restriction").child
    corner = _corner([p.entries for p in pis], 1, child.k)
    return None if corner is None else _intern(corner, child)


def common_extension(sigmas: Sequence[Signature]) -> Signature | None:
    """A parent signature restricting to every signature in the list, or None.

    The parents restricting to a child form its hull, a product of
    intervals (:func:`hull_intervals`); the witness is the lower corner of
    the intersected hulls (:func:`_corner`), which is the lexicographically
    least common parent.  Validated against brute-force parent search in
    the test suite.
    """
    parent = GroupContext(_require_same_ctx(sigmas, 1, "common_extension").n + 1)
    if parent.n < 3:
        raise PreconditionViolated("common_extension needs a parent group SO(n), n >= 3")
    corner = _corner([s.entries for s in sigmas], 0, parent.k)
    return None if corner is None else _intern(corner, parent)


def tail_start(entries: tuple[int, ...]) -> int:
    """1-based index of the last nonzero entry, 0 when all vanish."""
    for idx in range(len(entries), 0, -1):
        if entries[idx - 1] != 0:
            return idx
    return 0


def merge_max(sigs: Sequence[Signature]) -> list[int]:
    """Coordinate-wise maximum of the absolute values of the entries, which
    by the abs rule differs from the plain maximum only in an even group's
    last coordinate.  The result is a plain integer list, not necessarily a
    valid signature."""
    _require_same_ctx(sigs, 1, "merge_max")
    return [max(map(abs, col)) for col in zip(*(s.entries for s in sigs))]


@dataclass(frozen=True, slots=True)
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
    """The walk of a `Walk.to_dict` payload; steps or witnesses that are
    not a list of lists raise TypeError."""
    ctx = GroupContext(int_field(payload, "n"))
    for key in ("steps", "witnesses"):
        if not isinstance(rows := payload[key], list) or not all(isinstance(row, list) for row in rows):
            raise TypeError(f"{key} must be a list of lists of integers")
    steps = tuple(Signature(tuple(e), ctx) for e in payload["steps"])
    witnesses = payload["witnesses"]
    child = ctx.child if witnesses else None  # read once; SO(1) has no child, nor a walk there a witness
    return Walk(steps, tuple(Signature(tuple(e), child) for e in witnesses))


def walk_violations(w: Walk) -> tuple[str, ...]:
    """All reasons the walk fails to be valid; empty when it is valid."""
    bad: list[str] = []
    if not w.steps:
        return ("walk has no steps",)
    ctx = w.steps[0].ctx
    if any(s.ctx is not ctx for s in w.steps):
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


def _pad(entries: tuple[int, ...], length: int) -> tuple[int, ...]:
    return entries + (0,) * (length - len(entries))


def _tower(entries: tuple[int, ...], s: tuple[int, ...], k: int, c: int):
    """Successively overwrite prefixes with the merged maxima `s` and zero
    the tail, one coordinate per step, for k // 2 steps.  The witness of a
    step is the previous state cut before the coordinate the step zeroes,
    padded to the child length `c`.  Returns states and witnesses."""
    states = [_pad(s[:j] + entries[j : k - j], k) for j in range(k // 2 + 1)]
    wits = [_pad(states[j - 1][: k - j], c) for j in range(1, k // 2 + 1)]
    return states, wits


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
    child = ctx.child
    k, c = ctx.k, child.k
    s = tuple(merge_max([pi1, pi2]))
    st1, w1 = _tower(pi1.entries, s, k, c)
    st2, w2 = _tower(pi2.entries, s, k, c)
    if k % 2 == 0:  # both towers end at the same merged signature
        steps_e = st1 + st2[-2::-1]
    else:
        steps_e = st1 + st2[::-1]
        w1.append(_pad(s[: k // 2], c))
    # a step that repeats the state before it is dropped with its witness
    kept = [0] + [i for i in range(1, len(steps_e)) if steps_e[i] != steps_e[i - 1]]
    wits_e = w1 + w2[::-1]
    return Walk(
        tuple(_intern(steps_e[i], ctx) for i in kept),
        tuple(_intern(wits_e[i - 1], child) for i in kept[1:]),
    )


def extremal_pair(n: int) -> tuple[Signature, Signature]:
    """The SO(n) signatures (0, ..., 0) and (1, ..., 1): the class pair at
    the largest distance, floor(n/2), which the extremal checks certify."""
    ctx = GroupContext(n)
    return Signature((0,) * ctx.k, ctx), Signature((1,) * ctx.k, ctx)


def parse_entries(text: str) -> tuple[int, ...]:
    """Parse a comma-separated signature such as "2,1,0"; "" is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise PreconditionViolated(f"cannot parse signature {text!r}: {exc}") from None
