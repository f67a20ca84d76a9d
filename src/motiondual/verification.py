"""The full verification sweep behind `motiondual verify`.

Every check re-derives one family of claims on truncated models: the
closed forms against their brute-force oracles, the zero-tail step on the
edges of the bound-1 graphs that Orc and D are computed on, the computed
graph invariants against the closed formulas, chain and walk certificates
on systematic and seeded random inputs, and truncation stability of
distances.  Checks are pure functions of (n, bound, seed), so the sweep can
fan out across processes and aggregate order-independently.

The brute-force oracles read one relation, parent p `branch`es to child c,
enumerated once per parent at each (n, probe) into a cached table of masks,
a row per parent and a column per child.  Only `oracle-restriction` reads
`restricts_to`, the closed form it tests, and only the other two pair
oracles call `inseparable` and `common_extension`.  The pair oracles stay
quadratic in the signatures, so `run_sweep` refuses a bound below 1 and any
n whose pairs exceed `MAX_ORACLE_PAIRS` before any check runs.

Every row runs at every admitted n, except where the one large-n rule,
`default_bound(n) == 1`, skips `chain-lemma` and `distance-stability`, and
where a zero-tail claim is vacuous (`zero-tail-dual` at n = 3 and
`zero-tail-star` at even n).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product, repeat, zip_longest
from math import inf
from operator import and_, or_
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


MAX_ORACLE_PAIRS = 2**18
"""The most signature pairs one check of the sweep may compare.  The pair
oracles are quadratic in the signatures at the bound: the slowest admitted
single-n sweeps, (7, 10), (3, 255) and (5, 21), take 1.7 to 2.2 s each (wall
clock, median of five runs, 2-vCPU guest, Python 3.11), while the checks at
(5, 30) compare 923,521 pairs and take 5.4 s.  Above n = 9 the largest
admitted single-n sweeps, (10, 5), (11, 5), (14, 4), (15, 4), (20, 3) and
(22, 3), take 0.5 to 1.9 s each (median of three runs, the same guest)."""

MERGE_TRIPLES = 100
"""The seeded random triples `check_merge_certificates` draws per n."""


def default_bound(n: int) -> int:
    """Sweep default: 3 while the lattice is small, 1 from n = 10 on.  This
    is the sweep's one large-n rule: where it is 1, `chain-lemma` and
    `distance-stability` are skipped."""
    return 3 if n <= 9 else 1


@lru_cache(maxsize=2)  # a sweep reads each n at its bound b and at b + 1
def _branch_table(n: int, probe: int) -> tuple:
    """`branch` of each SO(n) parent at `probe`, run once, as masks: the
    parents and the SO(n-1) children at `probe`, each parent's row over the
    children (a member missing from them sets no bit), each child's column
    over the parents, and the mask of the parents with a member missing."""
    parents, children = enumerate_signatures(n, probe), enumerate_signatures(n - 1, probe)
    index = {c: i for i, c in enumerate(children)}
    rows, cols, missing = [0] * len(parents), [0] * len(children), 0
    for p, pi in enumerate(parents):
        for c in branch(pi):
            if (i := index.get(c)) is None:
                missing |= 1 << p
            else:
                rows[p] |= 1 << i
                cols[i] |= 1 << p
    return parents, children, rows, cols, missing


def check_oracle_inseparable(n: int, bound: int, rng=None) -> CheckResult:
    """Closed-form inseparability == branching-set intersection, all ordered
    pairs (order independence comes for free).  Each `branch` set is a mask
    over the child enumeration, so a pair costs one `&` of two ints."""
    sigs, _, masks, _, _ = _branch_table(n, bound)
    for (a, ma), (b, mb) in product(zip(sigs, masks), repeat=2):
        if inseparable(a, b) != bool(ma & mb):
            return CheckResult(n, "oracle-inseparable", False, f"mismatch at {a} vs {b}")
    return CheckResult(n, "oracle-inseparable", True, f"{len(sigs) ** 2} pairs")


def check_oracle_common_extension(n: int, bound: int, rng=None) -> CheckResult:
    """Closed-form parent feasibility == brute-force parent search with the
    enumeration bound raised one past the largest entry.  A pair's common
    parents are the AND of its children's columns at bound + 1, cut to the
    first `count_signatures(n, p)` at the pair's probe p, one past its largest
    entry.  The witness must be the least of them in lexicographic order."""
    parents, wider, _, cols, _ = _branch_table(n, bound + 1)
    hulls = dict(zip(wider, cols))  # SO(2) at bound is no prefix of SO(2) at bound + 1
    children = enumerate_signatures(n - 1, bound)
    rows = [(c, (1 << count_signatures(n, abs(c.entries[0]) + 1)) - 1, hulls[c]) for c in children]
    for (a, pa, ma), (b, pb, mb) in product(rows, repeat=2):
        both = ma & mb & max(pa, pb)
        got = common_extension([a, b])
        if (got is not None) != bool(both):
            return CheckResult(n, "oracle-common-extension", False, f"mismatch at {a} vs {b}")
        if got is not None and got != parents[(both & -both).bit_length() - 1]:
            return CheckResult(n, "oracle-common-extension", False, f"bad witness at {a} vs {b}")
    return CheckResult(n, "oracle-common-extension", True, f"{len(children) ** 2} pairs")


def check_oracle_restriction(n: int, bound: int, rng=None) -> CheckResult:
    """restricts_to == membership in the enumerated branching set, one mask
    per parent, with no member missing from the child enumeration."""
    parents, children, rows, _, missing = _branch_table(n, bound)
    for p, (pi, row) in enumerate(zip(parents, rows)):
        if moved := row ^ sum(1 << i for i, sigma in enumerate(children) if restricts_to(pi, sigma)):
            sigma = children[(moved & -moved).bit_length() - 1]
            return CheckResult(n, "oracle-restriction", False, f"mismatch at {pi} | {sigma}")
        if missing >> p & 1:
            return CheckResult(n, "oracle-restriction", False, f"count mismatch at {pi}")
    return CheckResult(n, "oracle-restriction", True, f"{len(parents) * len(children)} pairs")


def _tail_step_violation(sigs, masks, k: int):
    """The zero-tail step on a graph, the potential argument behind the
    lower bounds Orc >= floor(n/2) and D: along an edge the zero tail moves
    by at most one position.  `sigs` are signatures of length k in point
    order, and `masks[i]` is the neighbor mask of `sigs[i]`; bits past the
    signatures are ignored.  Returns the first joined pair (a, b), in point
    order of a and then b, where b has a nonzero entry more than one
    position past a's last nonzero entry, or None when every edge keeps the
    step."""
    tails = [tail_start(s.entries) for s in sigs]
    past = [0] * (k + 2)  # past[t]: the signatures with a nonzero entry past position t
    for i, t in enumerate(tails):
        for u in range(t):
            past[u] |= 1 << i
    for a, (t, row) in enumerate(zip(tails, masks)):
        if bad := row & past[t + 1]:
            return sigs[a], sigs[(bad & -bad).bit_length() - 1]
    return None


def check_zero_tail_dual(n: int, bound: int, rng=None) -> CheckResult:
    """The tail step on the class edges of the bound-1 dual model, the
    graph Orc is computed on (the classes come first in point order)."""
    if n // 2 < 2:
        return CheckResult(n, "zero-tail-dual", True, "vacuous below k = 2", skipped=True)
    model = build_dual_model(n, 1)
    sigs = [p.sig for p in model.space.points[: model.class_count]]
    if bad := _tail_step_violation(sigs, model.space._adj, n // 2):
        return CheckResult(n, "zero-tail-dual", False, "counterexample {} vs {}".format(*bad))
    return CheckResult(n, "zero-tail-dual", True, f"{len(sigs)}^2 pairs at bound 1")


def check_zero_tail_star(n: int, bound: int, rng=None) -> CheckResult:
    """The tail step on the germ edges of the bound-1 sub-ideal graph, the
    graph D is computed on (the germ ideals come first), odd n only."""
    if n % 2 == 0:
        return CheckResult(n, "zero-tail-star", True, "applies to odd n only", skipped=True)
    graph = primal_mod.star_graph(n, 1)
    sigs = [p.sig for p in graph.points if p.kind == GERM_KIND]
    if bad := _tail_step_violation(sigs, graph._adj, n // 2):
        return CheckResult(n, "zero-tail-star", False, "counterexample {} vs {}".format(*bad))
    return CheckResult(n, "zero-tail-star", True, f"{len(sigs)}^2 pairs at bound 1")


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
    and competitors enumerated one bound above every kept entry.  A hull is
    a child's column, and the hulls that contain it are those of the
    children in every row of its parents."""
    _, children, rows, cols, _ = _branch_table(n, bound + 1)
    everything = (1 << len(cols)) - 1

    def minimal(h: int) -> bool:
        over = reduce(and_, (rows[p] for p in _members(h)), everything)
        return all(cols[o] == h for o in _members(over))

    hulls = dict(zip(children, cols))
    return [i for i in primal_mod.sub_ideals(n, bound) if i.kind == LINE_KIND or minimal(hulls[i.sig])]


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
    germs = cl[classes:]
    samples = [0, model.class_mask, space._all, *germs[:16]]
    if len(germs) >= 2:
        samples.append(germs[0] | germs[-1])
    for s in samples:
        ball = space._ball(s, 1)
        if not space._closed(ball):
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
    if default_bound(n) == 1:
        return CheckResult(n, "chain-lemma", True, "skipped where default_bound(n) == 1", skipped=True)
    model = build_dual_model(n, bound)
    if bad := _property1_violation(model):
        return CheckResult(n, "chain-lemma", False, bad)
    # the trials are pairs of class masks; the classes are the first points,
    # so class indices are point numbers
    space, classes = model.space, range(model.class_count)
    k = n // 2
    trials = []
    if k >= 2:
        x, y = (space._mask([Point(CLASS_KIND, s)]) for s in sig_mod.extremal_pair(n))
        trials.append((x, y, k))
    attempts = 0
    futile = model.classes.diameter() < 2
    while not futile and len(trials) < 51 and attempts < 5000:
        attempts += 1
        xs = sum(1 << i for i in rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        ys = sum(1 << i for i in rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        d = model.classes._reach(xs, ys)
        if d == inf or d < 2:
            continue
        trials.append((xs, ys, rng.randint(2, int(d))))
    for xs, ys, kk in trials:
        try:
            chain = chains_mod._build_chain(model, xs, ys, kk)
            rep = chains_mod.validate_chain(model, chain)
            if not rep.valid or chain.length != kk:
                return CheckResult(n, "chain-lemma", False, "constructed chain invalid")
            # the chain is valid, so re-check it on its masks: no point ids
            hit = chains_mod._admissible(model, chain.masks)
            if hit is None:
                return CheckResult(n, "chain-lemma", False, "constructed chain inadmissible")
            chains_mod._lower_bound(model, chain.masks, 1 << hit[0], 1 << hit[1])
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
    model = build_dual_model(n, min(bound, 2))
    space, classes, adj = model.space, model.class_mask, model.space._adj
    for g in range(model.class_count, len(adj)):
        hull = adj[g] & classes
        if any(hull & ~adj[a] & ~(1 << a) for a in _members(hull)):
            return CheckResult(n, "germ-mediation", False, f"open triangle through {space.points[g]}")
    for a in range(model.class_count):
        b = _first_moved(space._layers(1 << a), model.classes._layers(1 << a), classes)
        if b >= 0:
            return CheckResult(n, "germ-mediation", False, f"shortcut between {space.points[a]} and {space.points[b]}")
    return CheckResult(n, "germ-mediation", True)


def check_distance_stability(n: int, bound: int, rng=None) -> CheckResult:
    """Class distances between small signatures (leading entry at most 2)
    do not move when the truncation grows from bound 3 to bound 4.  The
    small classes are the first `count_signatures(n, 2)` points of both
    models, in the same order, so the layers are compared on that prefix."""
    if default_bound(n) == 1:
        return CheckResult(n, "distance-stability", True, "skipped where default_bound(n) == 1", skipped=True)
    count = count_signatures(n, 2)
    models = build_dual_model(n, 3), build_dual_model(n, 4)
    pts = models[0].space.points
    for a in range(count):
        b = _first_moved(*(m.classes._layers(1 << a) for m in models), (1 << count) - 1)
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


def worker_count(jobs: int | None, tasks: int) -> int:
    """Worker processes for `tasks` tasks: the requested count (default 1),
    at most one per task and per CPU."""
    jobs = 1 if jobs is None else jobs
    if jobs <= 0:
        raise PreconditionViolated(f"jobs must be a positive integer, got {jobs!r}")
    return min(jobs, tasks, os.cpu_count() or 1)


def oracle_pairs(n: int, bound: int) -> int:
    """The most signature pairs one check compares at (n, bound): the pair
    oracles take all pairs of SO(n) or SO(n-1) signatures at the bound, at
    every n."""
    return max(count_signatures(n, bound), count_signatures(n - 1, bound)) ** 2


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
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for its import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run_checks_for_n, ns, repeat(bound), repeat(seed)))
    else:
        chunks = [run_checks_for_n(n, bound, seed) for n in ns]
    results = tuple(r for chunk in chunks for r in chunk)
    results = tuple(sorted(results, key=lambda r: (r.n, r.name)))
    return SweepSummary(results, tuple(r.name for r in chunks[0]), all(r.ok for r in results))
