"""The full verification sweep behind `motiondual verify`.

Every check re-derives one family of claims on truncated models: the
closed forms against their brute-force oracles, the tail-step invariants,
the computed graph invariants against the closed formulas, chain and walk
certificates on systematic and seeded random inputs, and truncation
stability of distances.  Checks are pure functions of (n, bound, seed), so
the sweep can fan out across processes and aggregate order-independently.

The pair oracles compare bitmasks built once per check: a `branch` set is
a mask over the child enumeration, and the parents that restrict to a child
are a mask over the parent enumeration, of which every smaller bound is a
prefix.  They stay quadratic in the signatures, so `run_sweep` refuses a
bound below 1 and any n whose pairs exceed `MAX_ORACLE_PAIRS` before any
check runs.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import product, zip_longest
from math import inf
from operator import or_
from typing import Iterator

from . import chains as chains_mod
from . import constants as constants_mod
from . import primal as primal_mod
from . import signatures as sig_mod
from .dualspace import (
    CLASS_KIND,
    GERM_KIND,
    LINE_KIND,
    Point,
    _members,
    _union,
    build_dual_model,
    components_and_orc,
    model_points,
    require_size,
)
from .errors import MotionDualError, PreconditionViolated
from .signatures import (
    branch,
    common_extension,
    count_signatures,
    enumerate_signatures,
    inseparable,
    restricts_to,
    tail_start,
)


@dataclass(frozen=True)
class CheckResult:
    n: int
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


ORACLE_MAX_N = 9
"""The brute-force pair oracles run for n up to this and are skipped above."""

MAX_ORACLE_PAIRS = 2**18
"""The most signature pairs one check of the sweep may compare.  The pair
oracles are quadratic in the signatures at the bound: the slowest admitted
single-n sweeps, (7, 10), (3, 255) and (5, 21), take 10 to 12 s each (wall
clock, 2-vCPU guest), while the checks at (5, 30) compare 923,521 pairs and
take over 30 s."""

MERGE_TRIPLES = 100
"""The seeded random triples `check_merge_certificates` draws per n."""


def default_bound(n: int) -> int:
    """Sweep default: 3 while the lattice is small, 1 from n = 10 on."""
    return 3 if n <= 9 else 1


def check_oracle_inseparable(n: int, bound: int, rng=None) -> CheckResult:
    """Closed-form inseparability == branching-set intersection, all ordered
    pairs (order independence comes for free).  Each `branch` set is a mask
    over the child enumeration, so a pair costs one `&` of two ints."""
    if n > ORACLE_MAX_N:
        return CheckResult(n, "oracle-inseparable", True, f"skipped above n = {ORACLE_MAX_N}", skipped=True)
    sigs = enumerate_signatures(n, bound)
    index = {c: i for i, c in enumerate(enumerate_signatures(n - 1, bound))}
    masks = [sum(1 << index[c] for c in branch(s)) for s in sigs]
    checked = 0
    for (a, ma), (b, mb) in product(zip(sigs, masks), repeat=2):
        if inseparable(a, b) != bool(ma & mb):
            return CheckResult(n, "oracle-inseparable", False, f"mismatch at {a} vs {b}")
        checked += 1
    return CheckResult(n, "oracle-inseparable", True, f"{checked} pairs")


def _restriction_masks(parents: list, children: list) -> list[int]:
    """For each child, the mask over `parents` of those that restrict to it."""
    return [sum(1 << i for i, pi in enumerate(parents) if restricts_to(pi, c)) for c in children]


def check_oracle_common_extension(n: int, bound: int, rng=None) -> CheckResult:
    """Closed-form parent feasibility == brute-force parent search with the
    enumeration bound raised one past the largest entry.  Each child has the
    mask of the parents at bound + 1 that restrict to it, and the parents at
    probe p are the first `count_signatures(n, p)` (leading entry first)."""
    if n > ORACLE_MAX_N:
        return CheckResult(n, "oracle-common-extension", True, f"skipped above n = {ORACLE_MAX_N}", skipped=True)
    children = enumerate_signatures(n - 1, bound)
    parents = enumerate_signatures(n, bound + 1)
    below = _restriction_masks(parents, children)
    prefix = [(1 << count_signatures(n, p)) - 1 for p in range(bound + 2)]
    checked = 0
    for (a, ma), (b, mb) in product(zip(children, below), repeat=2):
        probe = max((abs(e) for s in (a, b) for e in s.entries), default=0) + 1
        oracle = bool(ma & mb & prefix[probe])
        got = common_extension([a, b])
        if (got is not None) != oracle:
            return CheckResult(n, "oracle-common-extension", False, f"mismatch at {a} vs {b}")
        if got is not None and not (restricts_to(got, a) and restricts_to(got, b)):
            return CheckResult(n, "oracle-common-extension", False, f"bad witness at {a} vs {b}")
        checked += 1
    return CheckResult(n, "oracle-common-extension", True, f"{checked} pairs")


def check_oracle_restriction(n: int, bound: int, rng=None) -> CheckResult:
    """restricts_to == membership in the enumerated branching set, and the
    branching set size matches an independent count over the enumeration."""
    if n > ORACLE_MAX_N:
        return CheckResult(n, "oracle-restriction", True, f"skipped above n = {ORACLE_MAX_N}", skipped=True)
    parents = enumerate_signatures(n, bound)
    children = enumerate_signatures(n - 1, bound)
    checked = 0
    for pi in parents:
        bset = set(branch(pi))
        hits = 0
        for sigma in children:
            got = restricts_to(pi, sigma)
            if got != (sigma in bset):
                return CheckResult(n, "oracle-restriction", False, f"mismatch at {pi} | {sigma}")
            hits += got
            checked += 1
        within = sum(1 for s in bset if max((abs(e) for e in s.entries), default=0) <= bound)
        if hits != within:
            return CheckResult(n, "oracle-restriction", False, f"count mismatch at {pi}")
    return CheckResult(n, "oracle-restriction", True, f"{checked} pairs")


def check_zero_tail_dual(n: int, bound: int, rng=None) -> CheckResult:
    """Inseparable classes propagate zero tails one position at a time."""
    k = n // 2
    if k < 2:
        return CheckResult(n, "zero-tail-dual", True, "vacuous below k = 2", skipped=True)
    sigs = enumerate_signatures(n, min(bound, 1))
    for a, b in product(sigs, repeat=2):
        if not inseparable(a, b):
            continue
        i = tail_start(a.entries)
        if i <= k - 2 and any(b.entries[j] != 0 for j in range(i + 1, k)):
            return CheckResult(n, "zero-tail-dual", False, f"counterexample {a} vs {b}")
    return CheckResult(n, "zero-tail-dual", True, f"{len(sigs)}^2 pairs at bound 1")


def check_zero_tail_star(n: int, bound: int, rng=None) -> CheckResult:
    """Tail propagation along sub-ideal adjacency, odd parent groups only."""
    if n % 2 == 0:
        return CheckResult(n, "zero-tail-star", True, "applies to odd n only", skipped=True)
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(n - 1, min(bound, 1))]
    for a, b in product(germs, repeat=2):
        if not primal_mod.star_adjacent(a, b):
            continue
        if not primal_mod.zero_tail_star_step(a.sig, b.sig):
            return CheckResult(n, "zero-tail-star", False, f"counterexample {a.sig} vs {b.sig}")
    return CheckResult(n, "zero-tail-star", True, f"{len(germs)}^2 pairs at bound 1")


def check_orc(n: int, bound: int, rng=None) -> CheckResult:
    """Connecting order floor(n/2) with one class component."""
    model = build_dual_model(n, bound)
    count, orc = components_and_orc(model)
    ok = orc == n // 2 and count == 1
    return CheckResult(n, "orc", ok, f"orc={orc}, components={count}")


def check_big_d(n: int, bound: int, rng=None) -> CheckResult:
    """Sub-ideal diameter formula, stable from bound 1 to bound 2."""
    want = constants_mod.predicted_d(n)
    got = primal_mod.big_d(n, bound)
    stable = primal_mod.big_d(n, 1) == primal_mod.big_d(n, 2) == want
    ok = got == want and stable
    return CheckResult(n, "big-d", ok, f"d={got}, want {want}")


def _min_primal_oracle(n: int, bound: int) -> list:
    """`min_primal` by hull enumeration: a germ ideal is minimal unless the
    hull of some other germ ideal strictly contains its hull, with hulls
    and competitors enumerated one bound above every kept entry.  Each hull
    is the mask of the parents that restrict to the germ's signature."""
    probe = bound + 1
    children = enumerate_signatures(n - 1, probe)
    hulls = dict(zip(children, _restriction_masks(enumerate_signatures(n, probe), children)))
    kept = []
    for i in primal_mod.sub_ideals(n, bound):
        h = hulls[i.sig]
        if i.kind == LINE_KIND or not any(h | o == o != h for o in hulls.values()):
            kept.append(i)
    return kept


def check_min_primal_parity(n: int, bound: int, rng=None) -> CheckResult:
    """Strict germ-ideal containment exists iff n is odd: for even n every
    sub-ideal is minimal, for odd n some germ ideal is excluded.  The closed
    form `min_primal` must also agree with the hull-enumeration oracle."""
    minimal = primal_mod.min_primal(n, bound)
    total = primal_mod.sub_ideals(n, bound)
    strict_exists = len(minimal) < len(total)
    ok = strict_exists == (n % 2 == 1) and minimal == _min_primal_oracle(n, bound)
    return CheckResult(n, "min-primal-parity", ok, f"{len(minimal)}/{len(total)} minimal")


def check_constants(n: int, bound: int, rng=None) -> CheckResult:
    try:
        constants_mod.cross_check(n, bound)
    except MotionDualError as exc:
        return CheckResult(n, "constants-cross-check", False, str(exc))
    return CheckResult(n, "constants-cross-check", True)


def check_walks(n: int, bound: int, rng: random.Random) -> CheckResult:
    """Walk construction: valid witnesses, length <= k, the extremal pair
    needing exactly k."""
    k = n // 2
    zero, ones = sig_mod.extremal_pair(n)
    sigs = enumerate_signatures(n, min(bound, 2))
    sample = [(zero, ones)] + [(rng.choice(sigs), rng.choice(sigs)) for _ in range(30)]
    for a, b in sample:
        w = sig_mod.walk(a, b)
        if w.steps[0] != a or w.steps[-1] != b:
            return CheckResult(n, "walk-validity", False, f"endpoints wrong for {a} -> {b}")
        if w.length > k:
            return CheckResult(n, "walk-validity", False, f"walk too long for {a} -> {b}")
        if sig_mod.walk_violations(w):
            return CheckResult(n, "walk-validity", False, f"invalid witness for {a} -> {b}")
    if sig_mod.walk(zero, ones).length != k:
        return CheckResult(n, "walk-validity", False, "extremal walk shorter than k")
    return CheckResult(n, "walk-validity", True, f"{len(sample)} pairs")


def _property1_violation(model) -> str:
    """Why the model breaks the paper's Property 1, on masks; "" when it
    holds.  Each class closure must be the class alone, so the class set is
    closed and relatively discrete, and the one-step neighborhood of each
    closed sample must be closed.  The samples are the empty set, the
    classes, every point, the first 16 germ closures and the union of the
    first and last germ closure (the germs follow the classes).

    The neighborhood half cannot fail on neighbor masks that the
    `FiniteT0Space` constructor folds from the closures: a point joined to
    x shares some closure cl(q) with x, its own closure lies inside cl(q),
    and every point of cl(q) is joined to x.  It is kept as a cross-check
    of that adjacency fold; the tampered-adjacency model in
    `tests/test_verification.py` shows what it catches."""
    space = model.space
    cl = space._closure
    classes = model.class_count
    if any(cl[i] != 1 << i for i in range(classes)):
        return "Property 1 fails: the class set is not closed and relatively discrete"
    everything = space._within(None)
    germs = cl[classes:]
    samples = [0, model.class_mask, everything, *germs[:16]]
    if len(germs) >= 2:
        samples.append(germs[0] | germs[-1])
    for s in samples:
        ball = space._ball(s, everything, 1)
        if _union(cl, ball) != ball:
            return "Property 1 fails: a one-step neighborhood of a closed set is not closed"
    return ""


def check_chain_lemma(n: int, bound: int, rng: random.Random) -> CheckResult:
    """Admissible chains never overestimate the distance: systematic for the
    extremal pair plus seeded random class-set pairs.  Property 1, which the
    chain lemma rests on, is checked first and draws nothing from `rng`; its
    neighborhood half cross-checks the constructor's adjacency fold (see
    `_property1_violation` and its tampered-adjacency test).  The random
    pairs are drawn only when the class graph has diameter 2 or more:
    below that no two class sets are 2 apart, so no draw could give a trial
    and `rng` is left as it was."""
    if n > 9:
        return CheckResult(n, "chain-lemma", True, "skipped above n = 9", skipped=True)
    model = build_dual_model(n, bound)
    if bad := _property1_violation(model):
        return CheckResult(n, "chain-lemma", False, bad)
    k = n // 2
    x, y = (Point(CLASS_KIND, s) for s in sig_mod.extremal_pair(n))
    trials = []
    if k >= 2:
        trials.append((frozenset([x]), frozenset([y]), k))
    # the classes are the first points, so class indices are point numbers
    space, classes = model.space, range(model.class_count)
    attempts = 0
    futile = space.diameter(model.class_mask) < 2
    while not futile and len(trials) < 51 and attempts < 5000:
        attempts += 1
        xs = sum(1 << i for i in rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        ys = sum(1 << i for i in rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        d = space._reach(xs, ys, model.class_mask)
        if d == inf or d < 2:
            continue
        trials.append((space._set(xs), space._set(ys), rng.randint(2, int(d))))
    for xs, ys, kk in trials:
        try:
            chain = chains_mod.find_admissible_chain(model, xs, ys, kk, restrict_to_class=True)
            rep = chains_mod.validate_chain(model, chain)
            if not rep.valid or chain.length != kk:
                return CheckResult(n, "chain-lemma", False, "constructed chain invalid")
            ok, wx, wy = chains_mod.is_admissible(model, chain, restrict_to_class=True)
            if not ok:
                return CheckResult(n, "chain-lemma", False, "constructed chain inadmissible")
            chains_mod.chain_lower_bound(model, chain, wx, wy, restrict_to_class=True)
        except MotionDualError as exc:
            return CheckResult(n, "chain-lemma", False, str(exc))
    return CheckResult(n, "chain-lemma", True, f"{len(trials)} chains")


def check_merge_certificates(n: int, bound: int, rng: random.Random) -> CheckResult:
    """Seeded random triples all validate with case-table walk lengths and
    the implied bound ceil(n/2)/2."""
    pool = enumerate_signatures(n - 1, bound)
    for _ in range(MERGE_TRIPLES):
        triple = (rng.choice(pool), rng.choice(pool), rng.choice(pool))
        try:
            cert = primal_mod.merge_certificate(n, *triple)
        except MotionDualError as exc:
            return CheckResult(n, "merge-certificates", False, f"{triple}: {exc}")
        rep = primal_mod.validate_certificate(cert, bound)
        if not rep.ok:
            return CheckResult(
                n, "merge-certificates", False, f"{triple}: {'; '.join(rep.violations)}"
            )
    return CheckResult(n, "merge-certificates", True, f"{MERGE_TRIPLES} triples")


def _first_moved(layers: Iterator[int], other: Iterator[int], within: int) -> int:
    """The lowest vertex of `within` that two layered searches put at
    different distances, or -1 if there is none."""
    moved = reduce(or_, ((a ^ b) & within for a, b in zip_longest(layers, other, fillvalue=0)), 0)
    return (moved & -moved).bit_length() - 1


def check_germ_mediation(n: int, bound: int, rng=None) -> CheckResult:
    """Germ points add no shortcuts, on the model's masks: the classes
    joined to a germ are pairwise joined (any class-germ-class path closes
    directly), and the full-space distance layers from each class, cut to
    the classes, are its class-restricted layers.  No model point is
    separated (every germ's hull holds a class of the truncation, and every
    class restricts to some germ of it), so none is checked as one."""
    if n > 9:
        return CheckResult(n, "germ-mediation", True, "skipped above n = 9", skipped=True)
    model = build_dual_model(n, min(bound, 2))
    space, classes, adj = model.space, model.class_mask, model.space._adj
    for g in range(model.class_count, len(adj)):
        hull = adj[g] & classes
        if any(hull & ~adj[a] & ~(1 << a) for a in _members(hull)):
            return CheckResult(n, "germ-mediation", False, f"open triangle through {space.points[g]}")
    everything = space._within(None)
    for a in range(model.class_count):
        b = _first_moved(space._layers(1 << a, everything), space._layers(1 << a, classes), classes)
        if b >= 0:
            return CheckResult(n, "germ-mediation", False, f"shortcut between {space.points[a]} and {space.points[b]}")
    return CheckResult(n, "germ-mediation", True)


def check_distance_stability(n: int, bound: int, rng=None) -> CheckResult:
    """Class distances between small signatures (leading entry at most 2)
    do not move when the truncation grows from bound 3 to bound 4.  The
    small classes are the first `count_signatures(n, 2)` points of both
    models, in the same order, so the layers are compared on that prefix."""
    if n > 8:
        return CheckResult(n, "distance-stability", True, "checked for n <= 8", skipped=True)
    count = count_signatures(n, 2)
    models = build_dual_model(n, 3), build_dual_model(n, 4)
    pts = models[0].space.points
    for a in range(count):
        b = _first_moved(*(m.space._layers(1 << a, m.class_mask) for m in models), (1 << count) - 1)
        if b >= 0:
            return CheckResult(n, "distance-stability", False, f"{pts[a].sig} vs {pts[b].sig} moved")
    return CheckResult(n, "distance-stability", True, f"{count}^2 pairs")


CHECKS = (
    check_oracle_inseparable,
    check_oracle_common_extension,
    check_oracle_restriction,
    check_zero_tail_dual,
    check_zero_tail_star,
    check_orc,
    check_big_d,
    check_min_primal_parity,
    check_constants,
    check_walks,
    check_chain_lemma,
    check_merge_certificates,
    check_germ_mediation,
    check_distance_stability,
)


def run_checks_for_n(n: int, bound: int | None, seed: int) -> list[CheckResult]:
    b = default_bound(n) if bound is None else bound
    rng = random.Random(f"{seed}:{n}")
    return [check(n, b, rng) for check in CHECKS]


@dataclass(frozen=True)
class SweepSummary:
    results: tuple[CheckResult, ...]
    names: tuple[str, ...]  # the check names in `CHECKS` order
    ok: bool

    def render(self) -> str:
        ns = sorted({r.n for r in self.results})
        by_key = {(r.n, r.name): r for r in self.results}
        width = max(len(name) for name in self.names) + 2
        lines = [" " * width + " ".join(f"{n:>3}" for n in ns)]
        for name in self.names:
            marks = []
            for n in ns:
                r = by_key.get((n, name))
                if r is None or r.skipped:
                    marks.append("  .")
                else:
                    marks.append("  +" if r.ok else "  X")
            lines.append(f"{name:<{width}}" + " ".join(marks))
        failures = [r for r in self.results if not r.ok]
        ran = [r for r in self.results if not r.skipped]
        lines.append(f"checks passed: {len(ran) - len(failures)}/{len(ran)} (+ {len(self.results) - len(ran)} not applicable)")
        for r in failures:
            lines.append(f"FAIL n={r.n} {r.name}: {r.detail}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "results": [
                {"n": r.n, "check": r.name, "ok": r.ok, "skipped": r.skipped, "detail": r.detail}
                for r in self.results
            ],
        }


def _worker(args) -> list[CheckResult]:
    return run_checks_for_n(*args)


def worker_count(jobs: int | None, tasks: int) -> int:
    """Worker processes for `tasks` tasks: the requested count (default 1),
    at most one per task and per CPU."""
    jobs = 1 if jobs is None else jobs
    if jobs <= 0:
        raise PreconditionViolated(f"jobs must be a positive integer, got {jobs!r}")
    return min(jobs, tasks, os.cpu_count() or 1)


def oracle_pairs(n: int, bound: int) -> int:
    """The most signature pairs one check compares at (n, bound): the pair
    oracles take all pairs of SO(n) or SO(n-1) signatures at the bound, and
    the zero-tail checks, which run for every n, those at bound 1."""
    b = bound if n <= ORACLE_MAX_N else min(bound, 1)
    return max(count_signatures(n, b), count_signatures(n - 1, b)) ** 2


def run_sweep(n_min: int, n_max: int, bound: int | None = None, seed: int = 0, jobs: int | None = None) -> SweepSummary:
    """Run every check for n_min..n_max.  Refused before any check runs: a
    bound below 1 (a degenerate truncation, where the closed formulas do not
    hold), an n whose `oracle_pairs` exceed MAX_ORACLE_PAIRS, and an n whose
    largest models exceed the size cap: the dual model at the sweep bound
    and the sub-ideals at bound 2 or more, which `big-d` reads."""
    if n_min < 3 or n_max < n_min:
        raise PreconditionViolated("sweep range must satisfy 3 <= n_min <= n_max")
    if bound is not None and bound < 1:
        raise PreconditionViolated(f"sweep bound must be >= 1, got {bound}")
    for n in range(n_min, n_max + 1):
        b = default_bound(n) if bound is None else bound
        if (pairs := oracle_pairs(n, b)) > MAX_ORACLE_PAIRS:
            raise PreconditionViolated(
                f"n = {n}, bound = {b}: the sweep would compare {pairs} signature pairs,"
                f" beyond its cap of {MAX_ORACLE_PAIRS}"
            )
        require_size(n, b, model_points)
        try:
            require_size(n, max(b, 2), primal_mod.ideal_points)
        except PreconditionViolated as exc:
            raise PreconditionViolated(f"{exc} (the sub-ideals of the big-d check)") from None
    ns = list(range(n_min, n_max + 1))
    jobs = worker_count(jobs, len(ns))
    tasks = [(n, bound, seed) for n in ns]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_worker, tasks))
    else:
        chunks = [run_checks_for_n(*t) for t in tasks]
    results = tuple(r for chunk in chunks for r in chunk)
    results = tuple(sorted(results, key=lambda r: (r.n, r.name)))
    return SweepSummary(results, tuple(r.name for r in chunks[0]), all(r.ok for r in results))
