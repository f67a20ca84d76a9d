"""The full verification sweep behind `motiondual verify`.

Every check re-derives one family of claims on truncated models: the
closed forms against their brute-force oracles, the zero-tail step on the
edges of the bound-1 graphs that Orc and D are computed on, the computed
graph invariants against the closed formulas, chain and walk certificates
on systematic and seeded random inputs, and the distance law of
`signatures`, which reads no bound, against the layered search on both
graphs.  Checks are pure functions of (n, bound, seed), so the sweep can
fan out across processes and aggregate order-independently.

The brute-force oracles read one relation, parent p `branch`es to child c,
enumerated once per parent at each (n, probe) into a cached table of masks,
a row per parent and a column per child.  `oracle-restriction` checks it
against `restricts_to`, the only row to call that closed form; then it
checks the class graph Orc is read from (`oracle-inseparable`, one mask per
class), and `common_extension` and the sub-ideal graph D is read from
(`oracle-common-extension`, the one row that calls a closed form per pair).
The pair loops stay quadratic in the signatures, so `run_sweep` refuses a
bound below 1 and any n whose `oracle_pairs` exceed `MAX_ORACLE_PAIRS` first.

Every row runs at every admitted n, except where the one large-n rule,
`default_bound(n) == 1`, skips `chain-lemma`, and where a zero-tail claim
is vacuous (`zero-tail-dual` at n = 3 and `zero-tail-star` at even n).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product, repeat, zip_longest
from operator import and_, or_
from typing import Iterable

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
"""The most signature pairs one check of the sweep may compare, as counted
by `oracle_pairs`.  Two rows compare pairs, `oracle-common-extension` and
`oracle-restriction`.  The slowest admitted single-n sweeps, (7, 10),
(3, 255) and (5, 21), take 1.1 to 1.2 s each, and the largest even-n ones,
(4, 62), (6, 15), (8, 8), (10, 6), (12, 5) and (16, 4), 0.35 to 0.71 s
(`verify` wall clock, median of five runs, 2-vCPU guest, Python 3.11),
while the checks at (5, 30) compare 923,521 pairs and take 4.4 s."""


MERGE_TRIPLES = 100
"""The seeded random triples `check_merge_certificates` draws per n."""


def default_bound(n: int) -> int:
    """Sweep default: 3 while the lattice is small, 1 from n = 10 on.  This
    is the sweep's one large-n rule: where it is 1, `chain-lemma` is
    skipped."""
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
    """The class graph Orc is computed on == branching-set intersection:
    class a's row in `DualModel.classes`, plus a, is the union of the
    columns of the children in a's `branch` row, both in lexicographic
    class order.  One mask per class; a difference names its lowest pair."""
    sigs, _, rows, cols, _ = _branch_table(n, bound)
    classes = build_dual_model(n, bound).classes
    for a, (row, adj) in enumerate(zip(rows, classes._adj)):
        if moved := (adj | 1 << a) ^ _union(cols, row):
            b = (moved & -moved).bit_length() - 1
            return CheckResult(n, "oracle-inseparable", False, f"mismatch at {sigs[a]} vs {sigs[b]}")
    return CheckResult(n, "oracle-inseparable", True, f"{len(sigs) ** 2} pairs")


def check_oracle_common_extension(n: int, bound: int, rng=None) -> CheckResult:
    """Closed-form parent feasibility == brute-force parent search with the
    enumeration bound raised one past the largest entry == an edge of the
    sub-ideal graph D is computed on (a germ joined to itself).  A pair's
    common parents are the AND of its children's columns at bound + 1, cut
    to the first `count_signatures(n, p)` at the pair's probe p, one past
    its largest entry.  The witness must be the least of them in
    lexicographic order."""
    parents, wider, _, cols, _ = _branch_table(n, bound + 1)
    hulls = dict(zip(wider, cols))  # SO(2) at bound is no prefix of SO(2) at bound + 1
    children = enumerate_signatures(n - 1, bound)
    star = primal_mod.star_graph(n, bound)._adj  # the germ ideals come first, in the same order
    rows = [
        (c, (1 << count_signatures(n, abs(c.entries[0]) + 1)) - 1, hulls[c], star[i] | 1 << i, 1 << i)
        for i, c in enumerate(children)
    ]
    for (a, pa, ma, joined, _), (b, pb, mb, _, bit) in product(rows, repeat=2):
        both = ma & mb & max(pa, pb)
        got = common_extension([a, b])
        if not ((got is None) == (not both) == (not joined & bit)):
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
    """The tail step on the edges of the bound-1 class graph
    `DualModel.classes`, the graph Orc is computed on."""
    if n // 2 < 2:
        return CheckResult(n, "zero-tail-dual", True, "vacuous below k = 2", skipped=True)
    classes = build_dual_model(n, 1).classes
    sigs = [p.sig for p in classes.points]
    if bad := _tail_step_violation(sigs, classes._adj, n // 2):
        return CheckResult(n, "zero-tail-dual", False, "counterexample {} vs {}".format(*bad))
    return CheckResult(n, "zero-tail-dual", True, f"{len(classes._pairs())} edges at bound 1")


def check_zero_tail_star(n: int, bound: int, rng=None) -> CheckResult:
    """The tail step on the germ edges of the bound-1 sub-ideal graph, the
    graph D is computed on (the germ ideals come first), odd n only."""
    if n % 2 == 0:
        return CheckResult(n, "zero-tail-star", True, "applies to odd n only", skipped=True)
    graph = primal_mod.star_graph(n, 1)
    sigs = [p.sig for p in graph.points if p.kind == GERM_KIND]
    if bad := _tail_step_violation(sigs, graph._adj, n // 2):
        return CheckResult(n, "zero-tail-star", False, "counterexample {} vs {}".format(*bad))
    return CheckResult(n, "zero-tail-star", True, f"{len(graph._pairs())} edges at bound 1")


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
    """Walk construction: valid witnesses, a length equal to the distance in
    the class graph of Orc (the law against the search), k for the extremal pair."""
    zero, ones = sig_mod.extremal_pair(n)
    sigs = enumerate_signatures(n, min(bound, 2))
    sample = [(zero, ones)] + [(rng.choice(sigs), rng.choice(sigs)) for _ in range(30)]
    model = build_dual_model(n, bound)
    for a, b in sample:
        w = sig_mod.walk(a, b)
        if w.steps[0] != a or w.steps[-1] != b:
            return CheckResult(n, "walk-validity", False, f"endpoints wrong for {a} -> {b}")
        if w.length != model.classes._reach(*(model.space._bit(Point(CLASS_KIND, s)) for s in (a, b))):
            return CheckResult(n, "walk-validity", False, f"walk length is not the distance for {a} -> {b}")
        if sig_mod.walk_violations(w):
            return CheckResult(n, "walk-validity", False, f"invalid witness for {a} -> {b}")
    if sig_mod.walk(zero, ones).length != n // 2:
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


def _merged_chain_fault(model, sets) -> str:
    """Why a chain made from the valid chain `sets` by merging two
    consecutive sets breaks the chain lemma; "" when none does.  With three
    sets or more, sets 1 and 2 are merged, and then the last two.  Each
    merged chain must be valid: its sets stay closed and cover the space,
    non-consecutive sets stay disjoint (sets 1 and 3 were), and the end sets
    still stick out.  Then the classes in its first set only must lie at
    least its length from those in its last set only.  The end sets need not
    be the X and Y the chain was built for, so this tests the lemma on a
    chain the construction did not shape."""
    if len(sets) < 3:
        return ""
    for merged in ((sets[0] | sets[1], *sets[2:]), (*sets[:-2], sets[-2] | sets[-1])):
        if bad := chains_mod._violations(model.space, merged):
            return "merged chain invalid: " + "; ".join(bad)
        first, last = merged[0] & ~merged[1], merged[-1] & ~merged[-2]
        d = model.classes._reach(first & model.class_mask, last & model.class_mask)
        if d < len(merged):
            return f"merged chain of length {len(merged)} contradicted by graph distance {d}"
    return ""


def check_chain_lemma(n: int, bound: int, rng: random.Random) -> CheckResult:
    """Admissible chains never overestimate the distance: systematic for the
    extremal pair plus seeded random class-set pairs, each validated by its
    construction and its bound checked once by BFS, and then the chains made
    from it by merging two consecutive sets (`_merged_chain_fault`), which
    draw nothing from `rng`.  Property 1, which the chain lemma rests on, is
    checked first and draws nothing from `rng` either; its neighborhood half
    cross-checks the constructor's adjacency fold (see
    `_property1_violation` and its tampered-adjacency test).

    A random trial is drawn from one layered search: 1 to 3 classes X, then
    1 to 3 classes Y among those 2 or more from X (an X with none is drawn
    again, at most 5000 draws of X in all), then k from 2 to d(X, Y), the
    first layer that meets Y.  These are exactly the pairs 2 <= d < inf on
    the connected class graph, with no draw of Y thrown away.  The trials
    are drawn only when the class graph has diameter 2 or more: below that
    no two classes are 2 apart, so no X could give a trial and `rng` is
    left as it was."""
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
        layers = list(model.classes._layers(xs))
        if not (far := reduce(or_, layers[2:], 0)):
            continue
        ys = sum(1 << i for i in rng.sample(_members(far), rng.randint(1, min(3, far.bit_count()))))
        d = next(d for d, layer in enumerate(layers) if layer & ys)
        trials.append((xs, ys, rng.randint(2, d)))
    for xs, ys, kk in trials:
        try:
            chain = chains_mod._build_chain(model, xs, ys, kk)
            if chain.length != kk:
                return CheckResult(n, "chain-lemma", False, "constructed chain invalid")
            # validated by its construction, with xs in the first set only and ys in the last
            chains_mod._lower_bound(model, chain.masks, xs & -xs, ys & -ys)
        except MotionDualError as exc:
            return CheckResult(n, "chain-lemma", False, str(exc))
        if bad := _merged_chain_fault(model, chain.masks):
            return CheckResult(n, "chain-lemma", False, bad)
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


def _first_moved(layers: Iterable[int], other: Iterable[int], within: int) -> int:
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
    """The law of `signatures._distance`, which reads no bound, gives every
    distance of the class graph of Orc and of the germ rows of the sub-ideal
    graph of D.  From each class, then each germ, the layered search must
    match the law read as its definition: the t-ball of a is every row but
    those with a shift-t violation, some i with |b[i+t]| > |a[i]| or |b[i]| <
    |a[i+t]|, an OR of the masks `under[j][v]` of the rows with |r[j]| < v.
    A failure names the source and the lowest vertex that moved."""
    counts = []
    for graph in build_dual_model(n, bound).classes, primal_mod.star_graph(n, bound):
        rows = [[abs(e) for e in p.sig.entries] for p in graph.points if p.kind != LINE_KIND]
        k, top, everything = len(rows[0]), max(map(max, rows)), (1 << len(rows)) - 1
        under = [[sum(1 << i for i, r in enumerate(rows) if r[j] < v) for v in range(top + 2)] for j in range(k)]
        for a, e in enumerate(rows):
            balls = [1 << a] + [  # no violation is possible at shift k
                everything & ~reduce(or_, (~under[i + t][e[i] + 1] | under[i][e[i + t]] for i in range(k - t)), 0)
                for t in range(1, k + 1)
            ]
            law = [ball & ~inner for inner, ball in zip([0, *balls], balls)]
            if (b := _first_moved(graph._layers(1 << a), law, everything)) >= 0:
                pts = graph.points
                return CheckResult(n, "distance-stability", False, f"{pts[a]} to {pts[b]} differs from the law")
        counts.append(len(rows))
    return CheckResult(n, "distance-stability", True, "{} classes and {} germs".format(*counts))


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
    """The signature pairs that the larger of the sweep's two pair loops
    compares at (n, bound): `oracle-common-extension` compares all C^2
    pairs of the C SO(n-1) signatures, `oracle-restriction` the P * C pairs
    of the P SO(n) signatures with them."""
    children = count_signatures(n - 1, bound)
    return children * max(count_signatures(n, bound), children)


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
