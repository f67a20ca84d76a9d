"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are exact; the only non-exact assertions are the two stated
wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import inf

from motiondual.chains import chain_lower_bound, find_admissible_chain, is_admissible
from motiondual.constants import cross_check, predicted_d
from motiondual.dualspace import CLASS_KIND, GERM_KIND, Point, build_dual_model, components_and_orc, distance
from motiondual.primal import (
    big_d,
    claimed_steps,
    merge_certificate,
    min_primal,
    star_adjacent,
    sub_ideals,
    validate_certificate,
)
from motiondual.signatures import (
    branch,
    common_extension,
    enumerate_signatures,
    inseparable,
    restricts_to,
    validate,
    walk,
)
from motiondual.verification import check_zero_tail_dual, check_zero_tail_star, run_sweep
from test_chains import chain_of
from test_signatures import zero_tail_step_holds


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:>2}] {status} {name}{suffix}")
    return ok


def sweep_bound(n):
    return 3 if n <= 9 else 1


def cls(entries, n):
    return Point(CLASS_KIND, validate(entries, n))


def test_criterion_1_connecting_order():
    start = time.perf_counter()
    ok = True
    for n in range(3, 13):
        count, orc = components_and_orc(build_dual_model(n, sweep_bound(n)))
        ok = ok and orc == n // 2 and count == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert report(1, "connecting order equals floor(N/2), N=3..12", ok, f"{elapsed:.2f}s")


def test_criterion_2_extremal_distance():
    ok = True
    for n in range(3, 13):
        k = n // 2
        bound = sweep_bound(n)
        model = build_dual_model(n, bound)
        x, y = cls([0] * k, n), cls([1] * k, n)
        d = distance(model, x, y)
        w = walk(x.sig, y.sig)
        if k >= 2:
            chain = find_admissible_chain(model, [x], [y], k)
        else:
            chain = chain_of(model, [model.space.points])
        lb = chain_lower_bound(model, chain, x, y)
        ok = ok and d == k and w.length == k and lb == k
    assert report(2, "extremal distance floor(N/2) with walk and chain certificates", ok)


def test_criterion_3_oracle_equivalence():
    checked = 0
    mismatches = 0
    for n in range(3, 10):
        sigs = enumerate_signatures(n, 3)
        branch_sets = {s: frozenset(branch(s)) for s in sigs}
        for a in sigs:
            for b in sigs:
                if inseparable(a, b) != bool(branch_sets[a] & branch_sets[b]):
                    mismatches += 1
                checked += 1
        children = enumerate_signatures(n - 1, 3)
        for a in children:
            for b in children:
                probe = max((abs(e) for s in (a, b) for e in s.entries), default=0) + 1
                oracle = any(
                    restricts_to(pi, a) and restricts_to(pi, b)
                    for pi in enumerate_signatures(n, probe)
                )
                if (common_extension([a, b]) is not None) != oracle:
                    mismatches += 1
                checked += 1
        for pi in sigs:
            for sigma in children:
                if restricts_to(pi, sigma) != (sigma in branch_sets[pi]):
                    mismatches += 1
                checked += 1
    ok = mismatches == 0 and checked >= 10_000
    assert report(3, "closed forms match brute-force oracles", ok, f"{checked} pairs, {mismatches} mismatches")


def test_criterion_4_big_d():
    ok = big_d(2, 1) == 0
    for n in range(3, 13):
        want = predicted_d(n)
        ok = ok and big_d(n, 1) == want and big_d(n, 2) == want
    assert report(4, "sub-ideal diameter formula, stable bound 1 to 2", ok)


def test_criterion_5_minimality_parity():
    ok = True
    for n in range(3, 13):
        bound = min(sweep_bound(n), 2)
        strict = len(min_primal(n, bound)) < len(sub_ideals(n, bound))
        ok = ok and strict == (n % 2 == 1)
    assert report(5, "strict germ-ideal containment iff N odd", ok)


def test_criterion_6_constants_table():
    ok = True
    for n in range(3, 13):
        r = cross_check(n, sweep_bound(n))
        ok = ok and isinstance(r.k_ma, Fraction)
        ok = ok and r.k_ma == Fraction((n + 1) // 2, 2) == r.ks_ma
        ok = ok and r.orc_ma == r.d_a + 1
        ok = ok and r.orc_a <= r.orc_ma <= r.orc_a + 2
        ok = ok and abs(r.orc_a - r.d_a) <= 1
        ok = ok and all(passed for _, passed in r.checks)
    assert report(6, "constants table: K(M) = ceil(N/2)/2 with exact rationals", ok)


def test_criterion_7_certificates():
    failures = 0
    total = 0
    for n in range(3, 13):
        rng = random.Random(f"acceptance7:{n}")
        pool = enumerate_signatures(n - 1, 3)
        for _ in range(100):
            triple = (rng.choice(pool), rng.choice(pool), rng.choice(pool))
            cert = merge_certificate(n, *triple)
            rep = validate_certificate(cert, 3)
            good = (
                rep.ok
                and cert.claimed_n == claimed_steps(n)
                and all(w.length == claimed_steps(n) for w in cert.walks)
                and rep.implied_bound == Fraction((n + 1) // 2, 2)
            )
            failures += not good
            total += 1
    assert report(7, "merge certificates validate with case-table walk lengths", failures == 0, f"{total} triples, {failures} failures")


def test_criterion_8_chain_lemma():
    violations = 0
    total = 0
    for n in range(3, 10):
        bound = sweep_bound(n)
        model = build_dual_model(n, bound)
        k = n // 2
        trials = []
        if k >= 2:
            trials.append((frozenset([cls([0] * k, n)]), frozenset([cls([1] * k, n)]), k))
        classes = list(model.space.points[: model.class_count])
        rng = random.Random(f"acceptance8:{n}")
        attempts = 0
        while len(trials) < 50 + (k >= 2) and attempts < 5000:
            attempts += 1
            xs = frozenset(rng.sample(classes, rng.randint(1, 3)))
            ys = frozenset(rng.sample(classes, rng.randint(1, 3)))
            dist = model.space.bfs(xs, model.class_mask)
            d = min((dist[y] for y in ys if y in dist), default=inf)
            if d == inf or d < 2:
                continue
            trials.append((xs, ys, rng.randint(2, int(d))))
        for xs, ys, kk in trials:
            chain = find_admissible_chain(model, xs, ys, kk)
            ok, wx, wy = is_admissible(model, chain)
            if not ok:
                violations += 1
                continue
            d = model.space.distance(wx, wy, model.class_mask)
            if d < chain.length:
                violations += 1
            total += 1
    assert report(8, "chain bound never violated by BFS", violations == 0, f"{total} chains")


def test_criterion_9_zero_tail():
    """The pairwise reference, on the closed-form relations, and the sweep's
    rows, on the edges of the bound-1 graphs Orc and D are computed on."""
    counterexamples = 0
    for n in range(4, 12):
        relations = [(enumerate_signatures(n, 1), inseparable)]
        if n % 2 == 1:
            star = lambda a, b: star_adjacent(Point(GERM_KIND, a), Point(GERM_KIND, b))  # noqa: E731
            relations.append((enumerate_signatures(n - 1, 1), star))
        for sigs, joined in relations:
            for a in sigs:
                for b in sigs:
                    if joined(a, b) and not zero_tail_step_holds(a, b):
                        counterexamples += 1
    rows_ok = all(check(n, 1).ok for n in range(4, 12) for check in (check_zero_tail_dual, check_zero_tail_star))
    assert report(9, "zero-tail steps hold exhaustively at bound 1, N=4..11", counterexamples == 0 and rows_ok)


def test_criterion_10_truncation_stability_and_sweep():
    stable = True
    for n in range(3, 9):
        small = [Point(CLASS_KIND, s) for s in enumerate_signatures(n, 2)]
        m3, m4 = build_dual_model(n, 3), build_dual_model(n, 4)
        for a in small:
            d3 = m3.space.bfs([a], m3.class_mask)
            d4 = m4.space.bfs([a], m4.class_mask)
            for b in small:
                if d3.get(b, inf) != d4.get(b, inf):
                    stable = False
    start = time.perf_counter()
    summary = run_sweep(3, 12, seed=0)
    elapsed = time.perf_counter() - start
    ok = stable and summary.ok and elapsed < 60.0
    assert report(10, "distances stable under bound 3 to 4; full sweep green", ok, f"sweep {elapsed:.2f}s")
