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
from math import inf

from . import chains as chains_mod
from . import constants as constants_mod
from . import primal as primal_mod
from . import signatures as sig_mod
from .dualspace import Point, build_dual_model, components_and_orc, separated_points
from .errors import MotionDualError, PreconditionViolated
from .signatures import (
    Signature,
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


def default_bound(n: int) -> int:
    """Sweep default: 3 while the lattice is small, 1 from n = 10 on."""
    return 3 if n <= 9 else 1


def _pairs(items):
    for a in items:
        for b in items:
            yield a, b


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
    for (a, ma), (b, mb) in _pairs(list(zip(sigs, masks))):
        if inseparable(a, b) != bool(ma & mb):
            return CheckResult(n, "oracle-inseparable", False, f"mismatch at {a} vs {b}")
        checked += 1
    return CheckResult(n, "oracle-inseparable", True, f"{checked} pairs")


def check_oracle_common_extension(n: int, bound: int, rng=None) -> CheckResult:
    """Closed-form parent feasibility == brute-force parent search with the
    enumeration bound raised one past the largest entry.  Each child has the
    mask of the parents at bound + 1 that restrict to it, and the parents at
    probe p are the first `count_signatures(n, p)` (leading entry first)."""
    if n > ORACLE_MAX_N:
        return CheckResult(n, "oracle-common-extension", True, f"skipped above n = {ORACLE_MAX_N}", skipped=True)
    children = enumerate_signatures(n - 1, bound)
    parents = enumerate_signatures(n, bound + 1)
    below = [sum(1 << i for i, pi in enumerate(parents) if restricts_to(pi, c)) for c in children]
    prefix = [(1 << count_signatures(n, p)) - 1 for p in range(bound + 2)]
    checked = 0
    for (a, ma), (b, mb) in _pairs(list(zip(children, below))):
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
    for a, b in _pairs(sigs):
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
    sigmas = enumerate_signatures(n - 1, min(bound, 1))
    germ = primal_mod.GERM_IDEAL
    for a, b in _pairs(sigmas):
        if not primal_mod.star_adjacent(primal_mod.SubIdeal(germ, a), primal_mod.SubIdeal(germ, b)):
            continue
        if not primal_mod.zero_tail_star_step(a, b):
            return CheckResult(n, "zero-tail-star", False, f"counterexample {a} vs {b}")
    return CheckResult(n, "zero-tail-star", True, f"{len(sigmas)}^2 pairs at bound 1")


def check_orc(n: int, bound: int, rng=None) -> CheckResult:
    """Connecting order floor(n/2) with one class component."""
    model = build_dual_model(n, bound)
    comps, orc = components_and_orc(model)
    ok = orc == n // 2 and len(comps) == 1
    return CheckResult(n, "orc", ok, f"orc={orc}, components={len(comps)}")


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
    and competitors enumerated one bound above every kept entry."""
    probe = bound + 1
    germs = [primal_mod.SubIdeal(primal_mod.GERM_IDEAL, s) for s in enumerate_signatures(n - 1, probe)]
    hulls = {g: primal_mod.hull(g, probe) for g in germs}
    return [
        i
        for i in primal_mod.sub_ideals(n, bound)
        if i.kind == primal_mod.LINE_KERNEL or not any(hulls[i] < h for h in hulls.values())
    ]


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
    ctx = sig_mod.GroupContext(n)
    zero = Signature((0,) * k, ctx)
    ones = Signature((1,) * k, ctx)
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


def check_chain_lemma(n: int, bound: int, rng: random.Random) -> CheckResult:
    """Admissible chains never overestimate the distance: systematic for the
    extremal pair plus seeded random class-set pairs."""
    if n > 9:
        return CheckResult(n, "chain-lemma", True, "skipped above n = 9", skipped=True)
    model = build_dual_model(n, bound)
    k = n // 2
    ctx = sig_mod.GroupContext(n)
    x = Point("class", Signature((0,) * k, ctx))
    y = Point("class", Signature((1,) * k, ctx))
    trials = []
    if k >= 2:
        trials.append((frozenset([x]), frozenset([y]), k))
    # the classes are the first points, so class indices are point numbers
    space, classes = model.space, range(len(model.class_points))
    attempts = 0
    while len(trials) < 51 and attempts < 5000:
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


def check_merge_certificates(n: int, bound: int, rng: random.Random, count: int = 100) -> CheckResult:
    """Seeded random triples all validate with case-table walk lengths and
    the implied bound ceil(n/2)/2."""
    pool = enumerate_signatures(n - 1, bound)
    for _ in range(count):
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
    return CheckResult(n, "merge-certificates", True, f"{count} triples")


def check_mediation_and_separated(n: int, bound: int, rng=None) -> CheckResult:
    """Germ points add no shortcuts (full distance == class distance on
    classes, any class-germ-class path closes directly) and every separated
    point is a singleton component."""
    if n > 9:
        return CheckResult(n, "germ-mediation", True, "skipped above n = 9", skipped=True)
    model = build_dual_model(n, min(bound, 2))
    space = model.space
    classes = sorted(model.class_points, key=space._index.__getitem__)
    for g in sorted(model.germ_points, key=space._index.__getitem__):
        hullpts = [p for p in space.neighbors(g) if p in model.class_points]
        for a, b in _pairs(hullpts):
            if not space.inseparable(a, b):
                return CheckResult(n, "germ-mediation", False, f"open triangle through {g}")
    for a in classes:
        full = space.bfs([a])
        restricted = space.bfs([a], model.class_points)
        for b in classes:
            if full.get(b, inf) != restricted.get(b, inf):
                return CheckResult(n, "germ-mediation", False, f"shortcut between {a} and {b}")
    for p in separated_points(model):
        if len(space.bfs([p])) != 1:
            return CheckResult(n, "germ-mediation", False, f"separated point {p} has neighbors")
    return CheckResult(n, "germ-mediation", True)


def check_distance_stability(n: int, bound: int, rng=None) -> CheckResult:
    """Class distances between small signatures do not move when the
    truncation grows from bound 3 to bound 4."""
    if n > 8:
        return CheckResult(n, "distance-stability", True, "checked for n <= 8", skipped=True)
    small = enumerate_signatures(n, 2)
    m3 = build_dual_model(n, 3)
    m4 = build_dual_model(n, 4)
    for a in small:
        pa3, pa4 = Point("class", a), Point("class", a)
        d3 = m3.space.bfs([pa3], m3.class_points)
        d4 = m4.space.bfs([pa4], m4.class_points)
        for b in small:
            pb = Point("class", b)
            if d3.get(pb, inf) != d4.get(pb, inf):
                return CheckResult(n, "distance-stability", False, f"{a} vs {b} moved")
    return CheckResult(n, "distance-stability", True, f"{len(small)}^2 pairs")


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
    check_mediation_and_separated,
    check_distance_stability,
)

CHECK_NAMES = (
    "oracle-inseparable",
    "oracle-common-extension",
    "oracle-restriction",
    "zero-tail-dual",
    "zero-tail-star",
    "orc",
    "big-d",
    "min-primal-parity",
    "constants-cross-check",
    "walk-validity",
    "chain-lemma",
    "merge-certificates",
    "germ-mediation",
    "distance-stability",
)


def run_checks_for_n(n: int, bound: int | None, seed: int) -> list[CheckResult]:
    b = default_bound(n) if bound is None else bound
    rng = random.Random(f"{seed}:{n}")
    return [check(n, b, rng) for check in CHECKS]


@dataclass(frozen=True)
class SweepSummary:
    results: tuple[CheckResult, ...]
    ok: bool

    def render(self) -> str:
        ns = sorted({r.n for r in self.results})
        names = list(CHECK_NAMES)
        by_key = {(r.n, r.name): r for r in self.results}
        width = max(len(name) for name in names) + 2
        lines = [" " * width + " ".join(f"{n:>3}" for n in ns)]
        for name in names:
            marks = []
            for n in ns:
                r = by_key.get((n, name))
                if r is None or r.skipped:
                    marks.append("  .")
                else:
                    marks.append("  +" if r.ok else "  X")
            lines.append(f"{name:<{width}}" + " ".join(m[-3:] for m in marks))
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


def worker_count(jobs: int | str | None, tasks: int) -> int:
    """Worker processes for `tasks` tasks: the requested count (default
    MOTIONDUAL_JOBS, else 1), at most one per task and per CPU."""
    if jobs is None:
        jobs = os.environ.get("MOTIONDUAL_JOBS") or "1"
    try:
        count = int(jobs)
    except ValueError:
        count = 0
    if count <= 0:
        raise PreconditionViolated(f"jobs must be a positive integer, got {jobs!r}")
    return min(count, tasks, os.cpu_count() or 1)


def oracle_pairs(n: int, bound: int) -> int:
    """The most signature pairs one check compares at (n, bound): the pair
    oracles take all pairs of SO(n) or SO(n-1) signatures at the bound, and
    the zero-tail checks, which run for every n, those at bound 1."""
    b = bound if n <= ORACLE_MAX_N else min(bound, 1)
    return max(count_signatures(n, b), count_signatures(n - 1, b)) ** 2


def run_sweep(n_min: int, n_max: int, bound: int | None = None, seed: int = 0, jobs: int | None = None) -> SweepSummary:
    """Run every check for n_min..n_max.  A bound below 1 (a degenerate
    truncation, where the closed formulas do not hold) and an n whose
    `oracle_pairs` exceed MAX_ORACLE_PAIRS are refused before any check runs."""
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
    return SweepSummary(results, all(r.ok for r in results))
