import json
import random
from fractions import Fraction
from math import inf

import pytest

from motiondual.dualspace import GERM_KIND, LINE_KIND, Graph, Point, build_dual_model
from motiondual.errors import ContextMismatch, PreconditionViolated
from motiondual.primal import (
    MergeCertificate,
    big_d,
    certificate_from_dict,
    claimed_steps,
    expected_k_bound,
    implied_k_bound,
    merge_certificate,
    min_primal,
    star_adjacent,
    star_graph,
    star_graph_to_dot,
    star_graph_to_json,
    sub_ideals,
    target_count,
    validate_certificate,
)
from motiondual import signatures
from motiondual.signatures import (
    GroupContext,
    Signature,
    Walk,
    common_restriction,
    enumerate_signatures,
    restricts_to,
    validate,
)
from test_primal_oracle import contains_ideal, hull
from test_signatures import zero_tail_step_holds


def germ(entries, n_child):
    return Point(GERM_KIND, validate(entries, n_child))


def line(entries, n_child):
    return Point(LINE_KIND, validate(entries, n_child))


# --- vertex sets and hulls -----------------------------------------------------


def test_sub_ideals_counts():
    assert len(sub_ideals(3, 1)) == 6  # 3 germs + 3 lines
    assert len(sub_ideals(4, 1)) == 4
    assert len(sub_ideals(5, 0)) == 2


def test_hull_examples():
    h = hull(germ([1], 2), 2)
    assert {s.entries for s in h} == {(1,), (2,)}
    assert hull(line([1], 2), 3) == frozenset()


def test_hull_zero_signature():
    # for SO(3) the zero germ pulls in every class; in higher rank the hull
    # is the zero-tail family, as the enumeration oracle shows
    h3 = hull(germ([0], 2), 2)
    assert {s.entries for s in h3} == {(0,), (1,), (2,)}
    h5 = hull(germ([0, 0], 4), 2)
    assert {s.entries for s in h5} == {(0, 0), (1, 0), (2, 0)}
    for bound, g in [(2, germ([0, 0], 4))]:
        oracle = {s for s in enumerate_signatures(5, bound) if restricts_to(s, g.sig)}
        assert hull(g, bound) == oracle


def test_contains_ideal_n3():
    # the germ ideal at 1 strictly contains the germ ideal at 0
    assert contains_ideal(germ([1], 2), germ([0], 2))
    assert not contains_ideal(germ([0], 2), germ([1], 2))
    assert contains_ideal(germ([1], 2), germ([1], 2))


def test_contains_ideal_requires_germs():
    with pytest.raises(PreconditionViolated):
        contains_ideal(line([0], 2), germ([0], 2))


def test_no_strict_containment_even_n():
    for a in enumerate_signatures(3, 2):
        for b in enumerate_signatures(3, 2):
            if a == b:
                continue
            ga, gb = germ(a.entries, 3), germ(b.entries, 3)
            assert not (contains_ideal(ga, gb) and not contains_ideal(gb, ga))


def test_twin_germ_ideals_share_hull():
    # an odd parent cannot see the sign of the last coordinate
    assert hull(germ([1, 1], 4), 2) == hull(germ([1, -1], 4), 2)
    a, b = germ([1, 1], 4), germ([1, -1], 4)
    assert not (contains_ideal(a, b) and not contains_ideal(b, a))


# --- star adjacency -------------------------------------------------------------


def test_star_line_isolated():
    assert not star_adjacent(line([1], 3), germ([1], 3))
    assert star_adjacent(line([1], 3), line([1], 3))
    assert not star_adjacent(line([1], 3), line([0], 3))


def test_star_germ_examples():
    assert star_adjacent(germ([1, 0], 4), germ([0, 0], 4))
    assert not star_adjacent(germ([1, 1], 4), germ([0, 0], 4))


def test_star_symmetric_reflexive():
    ideals = sub_ideals(6, 1)
    for a in ideals:
        assert star_adjacent(a, a)
        for b in ideals:
            assert star_adjacent(a, b) == star_adjacent(b, a)


def test_star_context_mismatch():
    with pytest.raises(ContextMismatch):
        star_adjacent(germ([1], 2), germ([1], 3))


# --- distances and diameter ------------------------------------------------------


def test_d_star_examples():
    assert star_graph(5, 1).distance(germ([0, 0], 4), germ([1, 1], 4)) == 2
    assert star_graph(5, 1).distance(germ([1, 0], 4), germ([1, 0], 4)) == 0
    assert star_graph(7, 1).distance(germ([0, 0, 0], 6), germ([1, 1, 1], 6)) == 3


@pytest.mark.parametrize("n,bound", [(3, 0), (4, 1), (5, 2), (8, 2)])
def test_germ_ideals_are_the_germ_points_of_the_dual_model(n, bound):
    # one vertex type: a germ ideal is its germ's point, with the same id
    ideals = sub_ideals(n, bound)
    germs = [p for p in build_dual_model(n, bound).space.points if p.kind == GERM_KIND]
    assert ideals[: len(germs)] == germs
    assert [str(i) for i in ideals[len(germs) :]] == [f"line:{g.sig}" for g in germs]


def test_d_star_line_infinite():
    assert star_graph(5, 1).distance(line([0, 0], 4), germ([0, 0], 4)) == inf


def test_library_paths_never_number_the_sub_ideal_vertices():
    star_graph.cache_clear()
    n, bound = 6, 2
    for path in (big_d, min_primal, sub_ideals, star_graph_to_json, star_graph_to_dot):
        path(n, bound)
    assert "_number" not in star_graph(n, bound).__dict__
    star_graph(n, bound).distance(germ([0, 0], 5), germ([1, 1], 5))
    assert "_number" in star_graph(n, bound).__dict__


def test_d_star_calls_share_one_star_graph():
    star_graph.cache_clear()
    rng = random.Random(3)
    germs = [Point(GERM_KIND, s) for s in enumerate_signatures(4, 12)]
    for _ in range(20):
        x, y = rng.sample(germs, 2)
        star_graph(5, 12).distance(x, y)
    info = star_graph.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 19, 16)


def test_big_d_values():
    for n in range(3, 12, 2):
        assert big_d(n, 1) == (n - 1) // 2
    for n in range(4, 13, 2):
        assert big_d(n, 1) == n // 2 - 1
    assert big_d(2, 1) == 0


def test_big_d_runs_few_searches(monkeypatch):
    # one search per vertex made 338 here; the eccentricity bounds settle
    # after the first few
    star_graph(5, 12)
    runs = []
    layers = Graph._layers

    def counted(self, *args, **kwargs):
        runs.append(args)
        return layers(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "_layers", counted)
    assert big_d(5, 12) == 2
    assert 1 <= len(runs) <= 4


def test_big_d_stable_bound_two():
    for n in range(3, 9):
        assert big_d(n, 2) == big_d(n, 1)


# --- minimal primal ideals --------------------------------------------------------


def test_min_primal_even_is_everything():
    assert min_primal(4, 1) == sub_ideals(4, 1)
    assert min_primal(6, 1) == sub_ideals(6, 1)


def test_min_primal_n3_excludes_nonzero():
    kept = {i.sig.entries for i in min_primal(3, 1) if i.kind == GERM_KIND}
    assert kept == {(0,)}


def test_min_primal_n5_excludes_ones():
    kept = {i.sig.entries for i in min_primal(5, 1) if i.kind == GERM_KIND}
    assert kept == {(0, 0), (1, 0)}


def test_min_primal_keeps_all_lines():
    out = min_primal(5, 1)
    assert sum(1 for i in out if i.kind == LINE_KIND) == len(enumerate_signatures(4, 1))


@pytest.mark.parametrize("n", range(3, 10))
def test_strict_containment_parity(n):
    minimal = min_primal(n, 1)
    total = sub_ideals(n, 1)
    assert (len(minimal) < len(total)) == (n % 2 == 1)


# --- primal families ---------------------------------------------------------------


# a family of classes is primal iff their restrictions share an irreducible


def test_common_restriction_of_singleton_family():
    assert common_restriction([validate([2, 1], 5)]) is not None


def test_common_restriction_of_primal_triple():
    fam = [validate([2, 1, 0], 6), validate([2, 2, 0], 6), validate([2, 1, 0], 6)]
    w = common_restriction(fam)
    assert w is not None and all(restricts_to(p, w) for p in fam)


def test_common_restriction_of_non_primal_pair():
    assert common_restriction([validate([1, 1], 4), validate([2, 2], 4)]) is None


# --- tail step -----------------------------------------------------------------------


def test_zero_tail_star_zero_signature():
    z = validate([0, 0], 4)
    for other in enumerate_signatures(4, 1):
        if star_adjacent(germ(z.entries, 4), germ(other.entries, 4)):
            assert zero_tail_step_holds(z, other)
            assert all(e == 0 for e in other.entries[1:])


@pytest.mark.parametrize("n", [5, 7, 9])
def test_zero_tail_star_exhaustive(n):
    sigmas = enumerate_signatures(n - 1, 1)
    for a in sigmas:
        for b in sigmas:
            if star_adjacent(germ(a.entries, n - 1), germ(b.entries, n - 1)):
                assert zero_tail_step_holds(a, b), (a, b)


# --- merge certificates ----------------------------------------------------------------


def case_table_steps(n):
    """The merge walk length case by case on n mod 4, as the construction
    states it: the oracle for the one-line `claimed_steps`."""
    case = n % 4
    if case == 0:
        return n // 4 - 1
    if case == 2:
        return (n - 2) // 4 - 1
    if case == 3:
        return (n - 3) // 4
    return (n - 1) // 4 - 1


def test_case_table():
    assert [claimed_steps(n) for n in range(3, 13)] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert [claimed_steps(n) for n in range(3, 401)] == [case_table_steps(n) for n in range(3, 401)]
    assert [target_count(n) for n in range(3, 13)] == [1, 1, 3, 3, 1, 1, 3, 3, 1, 1]
    for n in range(3, 13):
        assert implied_k_bound(n) == expected_k_bound(n) == Fraction((n + 1) // 2, 2)


def test_merge_certificate_n4():
    cert = merge_certificate(4, validate([2], 3), validate([1], 3), validate([3], 3))
    assert cert.targets == (validate([3, 0], 4),)
    assert cert.claimed_n == 0
    assert all(w.length == 0 for w in cert.walks)
    assert validate_certificate(cert).ok


def test_merge_certificate_n3_uses_absolute_values():
    cert = merge_certificate(3, validate([-2], 2), validate([1], 2), validate([0], 2))
    assert cert.targets == (validate([2], 3),)
    assert validate_certificate(cert).ok


def test_merge_certificate_n6_triple():
    cert = merge_certificate(6, validate([1, 0], 5), validate([2, 0], 5), validate([1, 1], 5))
    assert len(cert.targets) == 3
    assert cert.primal_witness == validate([2, 0], 5)
    rep = validate_certificate(cert)
    assert rep.ok
    assert rep.implied_bound == Fraction(3, 2)


def test_merge_certificate_n5_triple_targets_are_containers():
    cert = merge_certificate(5, validate([1, -1], 4), validate([2, 0], 4), validate([0, 0], 4))
    assert cert.targets == cert.containers
    assert cert.primal_witness.entries == (2, 0)
    assert validate_certificate(cert).ok


@pytest.mark.parametrize("n", range(3, 13))
def test_merge_certificate_random_triples(n):
    rng = random.Random(100 + n)
    pool = enumerate_signatures(n - 1, 3)
    for _ in range(25):
        triple = (rng.choice(pool), rng.choice(pool), rng.choice(pool))
        cert = merge_certificate(n, *triple)
        rep = validate_certificate(cert, 3)
        assert rep.ok, (triple, rep.violations)
        assert cert.claimed_n == claimed_steps(n)
        assert rep.implied_bound == Fraction((n + 1) // 2, 2)


def _rows(cert):
    return (*cert.containers, *cert.targets, *(s for w in cert.walks for s in w.steps + w.witnesses)) + (
        (cert.primal_witness,) if cert.primal_witness else ()
    )


@pytest.mark.parametrize("n", range(3, 41))
def test_merge_certificate_rows_are_the_stored_objects(n):
    rng = random.Random(200 + n)
    pool = enumerate_signatures(n - 1, 2)
    for _ in range(5):
        cert = merge_certificate(n, *(rng.choice(pool) for _ in range(3)))
        assert all(s is Signature(s.entries, s.ctx) and s is Signature(list(s.entries), s.ctx) for s in _rows(cert))


def test_a_new_certificate_row_is_checked_once_and_then_stored(monkeypatch):
    # n = 10 builds a primal witness; entries this large appear in no other test
    child = GroupContext(9)
    triple = [Signature(e, child) for e in ((7003, 7002, 7001, 7000), (7004, 7000, 5, 0), (7001, 7001, 7001, 7001))]
    before = {(e, ctx.n) for ctx in (child, GroupContext(10)) for e in ctx._signatures}
    checked = []
    check = signatures._check

    def counted(entries, ctx):
        checked.append((entries, ctx.n))
        check(entries, ctx)

    monkeypatch.setattr(signatures, "_check", counted)
    cert = merge_certificate(10, *triple)
    new = {(s.entries, s.ctx.n) for s in _rows(cert)} - before
    assert cert.primal_witness is not None and len(new) >= 4 and sorted(checked) == sorted(new)
    assert all(s.ctx._signatures[s.entries] is s for s in _rows(cert))
    again = merge_certificate(10, *triple)
    assert len(checked) == len(new) and all(a is b for a, b in zip(_rows(again), _rows(cert)))


def test_certificate_containment():
    cert = merge_certificate(9, validate([2, 1, 1, 0], 8), validate([3, 1, 0, 0], 8), validate([2, 2, 1, -1], 8))
    for container, sigma in zip(cert.containers, cert.inputs):
        assert restricts_to(container, sigma)
    assert validate_certificate(cert).ok


def test_tampered_walk_step_rejected():
    cert = merge_certificate(7, validate([1, 1, 0], 6), validate([2, 0, 0], 6), validate([1, 1, 1], 6))
    w = cert.walks[0]
    far = Signature((9, 9, 9), w.steps[0].ctx)
    bad_walk = Walk((w.steps[0], far), w.witnesses)
    bad = MergeCertificate(
        cert.n, cert.case, cert.inputs,
        cert.containers, (bad_walk,) + cert.walks[1:], cert.targets,
        cert.primal_witness, cert.claimed_n,
    )
    rep = validate_certificate(bad)
    assert not rep.ok
    assert any("walk 1" in v for v in rep.violations)


def test_tampered_primal_witness_rejected():
    cert = merge_certificate(6, validate([1, 0], 5), validate([2, 0], 5), validate([1, 1], 5))
    bad = MergeCertificate(
        cert.n, cert.case, cert.inputs, cert.containers, cert.walks, cert.targets,
        validate([3, 3], 5), cert.claimed_n,
    )
    rep = validate_certificate(bad)
    assert not rep.ok
    assert any("witness" in v for v in rep.violations)


def test_tampered_claimed_length_rejected():
    cert = merge_certificate(8, validate([1, 1, 0], 7), validate([2, 0, 0], 7), validate([1, 1, 1], 7))
    bad = MergeCertificate(
        cert.n, cert.case, cert.inputs, cert.containers, cert.walks, cert.targets,
        cert.primal_witness, cert.claimed_n + 1,
    )
    assert not validate_certificate(bad).ok


def test_certificate_without_walks_rejected():
    cert = merge_certificate(6, validate([1, 0], 5), validate([2, 0], 5), validate([1, 1], 5))
    bad = MergeCertificate(
        cert.n, cert.case, cert.inputs, cert.containers, (), cert.targets,
        cert.primal_witness, cert.claimed_n,
    )
    rep = validate_certificate(bad)
    assert not rep.ok
    assert "expected 3 inputs, containers and walks, found 3, 3 and 0" in rep.violations


def test_malformed_certificate_shapes_reported_not_raised():
    cert = merge_certificate(6, validate([1, 0], 5), validate([2, 0], 5), validate([1, 1], 5))
    empty_walk = Walk((), ())
    shapes = [
        (cert.containers[:1], cert.walks, cert.targets),
        (cert.containers, (empty_walk,) + cert.walks[1:], cert.targets),
        (cert.containers, cert.walks, ()),
    ]
    for containers, walks, targets in shapes:
        bad = MergeCertificate(
            cert.n, cert.case, cert.inputs, containers, walks, targets,
            cert.primal_witness, cert.claimed_n,
        )
        assert not validate_certificate(bad).ok


def test_certificate_stays_in_truncation():
    cert = merge_certificate(7, validate([2, 1, 0], 6), validate([1, 1, 1], 6), validate([2, 2, -2], 6))
    assert validate_certificate(cert, 2).ok
    assert not validate_certificate(cert, 1).ok  # entries reach 2


LEAVES = "certificate leaves the truncation bound 1"


def test_bound_check_flags_an_excess_in_a_witness_only():
    cert = merge_certificate(7, validate([1, 1, 0], 6), validate([1, 0, 0], 6), validate([1, 1, 1], 6))
    assert validate_certificate(cert, 1).ok
    w = cert.walks[0]
    assert all(abs(e) <= 1 for s in w.steps for e in s.entries)
    far = Walk(w.steps, (validate([2, 1, 0], 6),) + w.witnesses[1:])
    bad = MergeCertificate(
        cert.n, cert.case, cert.inputs, cert.containers, (far,) + cert.walks[1:], cert.targets,
        cert.primal_witness, cert.claimed_n,
    )
    assert LEAVES in validate_certificate(bad, 1).violations
    assert LEAVES not in validate_certificate(bad, 2).violations


def test_bound_check_flags_an_even_groups_negative_last_entry():
    cert = merge_certificate(4, validate([1], 3), validate([0], 3), validate([1], 3))
    assert validate_certificate(cert, 1).ok
    low = Walk((validate([2, -2], 4),), ())
    bad = MergeCertificate(
        cert.n, cert.case, cert.inputs, cert.containers, (low,) + cert.walks[1:], cert.targets,
        cert.primal_witness, cert.claimed_n,
    )
    assert LEAVES in validate_certificate(bad, 1).violations


@pytest.mark.parametrize("n", range(3, 13))
def test_bound_check_agrees_with_the_largest_entry(n):
    rng = random.Random(n)
    pool = enumerate_signatures(n - 1, 2)
    for _ in range(10):
        cert = merge_certificate(n, *(rng.choice(pool) for _ in range(3)))
        largest = max(abs(e) for w in cert.walks for s in (*w.steps, *w.witnesses) for e in s.entries)
        for bound in range(4):
            flagged = f"certificate leaves the truncation bound {bound}" in validate_certificate(cert, bound).violations
            assert flagged == (largest > bound)


def test_certificate_json_roundtrip():
    cert = merge_certificate(10, validate([2, 1, 1, 0], 9), validate([1, 1, 0, 0], 9), validate([2, 2, 2, 1], 9))
    payload = json.loads(json.dumps(cert.to_dict()))
    assert certificate_from_dict(payload) == cert


# --- exports ----------------------------------------------------------------------------


def test_star_graph_exports():
    payload = star_graph_to_json(5, 1)
    ids = {v["id"] for v in payload["ideals"]}
    assert "line:0,0" in ids and "germ:1,1" in ids
    assert all(not (a.startswith("line") or b.startswith("line")) for a, b in payload["edges"])
    dot = star_graph_to_dot(5, 1)
    assert dot.count("[shape=box]") == len(enumerate_signatures(4, 1))
