import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiondual import signatures
from motiondual.errors import (
    ContextMismatch,
    MonotonicityViolated,
    NegativeEntry,
    PreconditionViolated,
    SignatureError,
    WrongLength,
)
from motiondual.signatures import (
    GroupContext,
    Signature,
    branch,
    branch_box,
    common_extension,
    common_restriction,
    count_signatures,
    enumerate_signatures,
    inseparable,
    merge_max,
    restricts_to,
    signature_from_dict,
    validate,
    walk,
    walk_from_dict,
    walk_violations,
    verify_walk,
)


def sig(entries, n):
    return validate(entries, n)


def entries(sigs):
    return [s.entries for s in sigs]


# --- validation -------------------------------------------------------------


def test_validate_accepts_even_negative_last():
    assert sig([1, 1], 4).entries == (1, 1)
    assert sig([1, -1], 4).entries == (1, -1)
    assert sig([3, 2, -2], 6).entries == (3, 2, -2)


def test_validate_monotonicity_first_violation():
    with pytest.raises(MonotonicityViolated) as exc:
        validate([1, 2], 5)
    assert exc.value.index == 1


def test_validate_negative_entry_odd():
    with pytest.raises(NegativeEntry) as exc:
        validate([2, 1, -1], 7)
    assert exc.value.index == 3


def test_validate_wrong_length():
    with pytest.raises(WrongLength):
        validate([1, 2, 3], 4)


def test_validate_even_abs_rule():
    with pytest.raises(MonotonicityViolated) as exc:
        validate([1, -2], 4)
    assert exc.value.index == 1


def test_degenerate_groups():
    assert validate([], 1).entries == ()
    assert validate([-5], 2).entries == (-5,)


# --- enumeration ------------------------------------------------------------


def test_enumerate_so3():
    assert entries(enumerate_signatures(3, 1)) == [(0,), (1,)]


def test_enumerate_so4_lex_with_negatives():
    assert entries(enumerate_signatures(4, 1)) == [(0, 0), (1, -1), (1, 0), (1, 1)]


def test_enumerate_so5_count():
    assert len(enumerate_signatures(5, 2)) == 6


def test_enumerate_so2_symmetric():
    assert entries(enumerate_signatures(2, 2)) == [(-2,), (-1,), (0,), (1,), (2,)]


@given(st.integers(3, 9), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_enumerate_is_sorted_and_valid(n, bound):
    sigs = enumerate_signatures(n, bound)
    assert entries(sigs) == sorted(entries(sigs))
    assert len(set(sigs)) == len(sigs)
    assert all(s.entries[0] <= bound for s in sigs if s.entries)


@pytest.mark.parametrize("n", range(1, 13))
def test_count_signatures_matches_enumeration(n):
    for bound in range(7):
        assert count_signatures(n, bound) == len(enumerate_signatures(n, bound))


def test_count_signatures_closed_form_values():
    assert count_signatures(8, 10) == 1716 and count_signatures(7, 10) == 286
    with pytest.raises(PreconditionViolated):
        count_signatures(5, -1)


def test_enumeration_cache_is_bounded():
    info = signatures._enumerate_cached.cache_info
    assert info().maxsize is not None
    for b in range(info().maxsize + 3):
        enumerate_signatures(3, b)
        assert info().currsize <= info().maxsize


# --- branching --------------------------------------------------------------


def test_branch_box_even():
    assert branch_box(sig([1, 0], 4)).intervals == ((0, 1),)


def test_branch_box_odd():
    assert branch_box(sig([2, 1], 5)).intervals == ((1, 2), (-1, 1))


def test_branch_box_zero():
    assert branch_box(sig([0, 0, 0], 7)).intervals == ((0, 0), (0, 0), (0, 0))


def test_branch_examples():
    assert entries(branch(sig([1, 0], 4))) == [(0,), (1,)]
    assert entries(branch(sig([1], 3))) == [(-1,), (0,), (1,)]
    assert entries(branch(sig([1, 1], 5))) == [(1, -1), (1, 0), (1, 1)]


def test_branch_so2_to_so1():
    assert entries(branch(sig([7], 2))) == [()]


def test_restricts_to_examples():
    assert restricts_to(sig([1, 0], 4), sig([1], 3))
    assert not restricts_to(sig([1, 1], 4), sig([0], 3))
    assert restricts_to(sig([0, 0, 0], 6), sig([0, 0], 5))


def test_restricts_to_context_mismatch():
    with pytest.raises(ContextMismatch):
        restricts_to(sig([1, 0], 4), sig([1, 0], 4))


def test_restricts_to_so1_parent():
    with pytest.raises(PreconditionViolated):
        restricts_to(sig([], 1), sig([], 1))


@pytest.mark.parametrize("n", range(2, 11))
def test_restricts_to_matches_branch_box(n):
    # the in-place interleaving test against membership in the branching
    # box, with children one bound higher so that some lie outside it
    for bound in range(4):
        children = enumerate_signatures(n - 1, bound + 1)
        for pi in enumerate_signatures(n, bound):
            box = branch_box(pi).intervals
            for s in children:
                assert restricts_to(pi, s) == all(lo <= v <= hi for v, (lo, hi) in zip(s.entries, box)), (pi, s)


@given(st.integers(3, 9), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_branch_consistency(n, bound):
    # membership in the enumerated branch set == interval test, and the
    # branch size matches an independent count over the child enumeration
    for pi in enumerate_signatures(n, bound):
        bset = set(branch(pi))
        probe = max((abs(e) for e in pi.entries), default=0)
        children = enumerate_signatures(n - 1, probe)
        assert {s for s in children if restricts_to(pi, s)} == bset


# --- inseparability ---------------------------------------------------------


def test_inseparable_examples():
    assert inseparable(sig([1, 1], 4), sig([1, -1], 4))
    assert not inseparable(sig([1, 1], 4), sig([2, 2], 4))


def test_so3_everything_inseparable():
    sigs = enumerate_signatures(3, 3)
    assert all(inseparable(a, b) for a in sigs for b in sigs)


def test_inseparable_rejects_small_n():
    with pytest.raises(PreconditionViolated):
        inseparable(sig([1], 2), sig([2], 2))


@pytest.mark.parametrize("n", range(3, 8))
def test_inseparable_matches_brute_force(n):
    sigs = enumerate_signatures(n, 2)
    for a in sigs:
        for b in sigs:
            assert inseparable(a, b) == bool(set(branch(a)) & set(branch(b))), (a, b)


def test_inseparable_reflexive_symmetric():
    sigs = enumerate_signatures(6, 2)
    for a in sigs:
        assert inseparable(a, a)
    for a in sigs[::3]:
        for b in sigs[::3]:
            assert inseparable(a, b) == inseparable(b, a)


# --- common restriction / extension ----------------------------------------


def test_common_restriction_triple():
    fam = [sig([2, 1, 0], 6), sig([2, 2, 0], 6), sig([2, 1, 0], 6)]
    w = common_restriction(fam)
    assert w is not None and w.entries[0] == 2
    assert all(restricts_to(p, w) for p in fam)


def test_common_restriction_none():
    assert common_restriction([sig([1, 1], 4), sig([2, 2], 4)]) is None


def test_common_restriction_singleton_lower_corner():
    pi = sig([2, 1], 5)
    w = common_restriction([pi])
    assert w.entries == (1, -1)
    assert w in branch(pi)


def test_common_restriction_witness_in_all_branches():
    sigs = enumerate_signatures(7, 2)
    for a in sigs[::2]:
        for b in sigs[::2]:
            w = common_restriction([a, b])
            assert (w is not None) == inseparable(a, b)
            if w is not None:
                assert restricts_to(a, w) and restricts_to(b, w)


def test_common_extension_examples():
    assert common_extension([sig([1, 0], 4), sig([0, 0], 4)]) is not None
    assert common_extension([sig([1, 1], 4), sig([0, 0], 4)]) is None
    w = common_extension([sig([3], 3), sig([1], 3)])
    assert w is not None and w.ctx.n == 4


def test_common_extension_so2_children():
    w = common_extension([sig([-2], 2), sig([1], 2)])
    assert w is not None and w.entries == (2,)


@pytest.mark.parametrize("n", range(3, 8))
def test_common_extension_matches_brute_force(n):
    children = enumerate_signatures(n - 1, 2)
    for a in children:
        for b in children:
            probe = max((abs(e) for s in (a, b) for e in s.entries), default=0) + 1
            oracle = any(
                restricts_to(pi, a) and restricts_to(pi, b)
                for pi in enumerate_signatures(n, probe)
            )
            got = common_extension([a, b])
            assert (got is not None) == oracle, (a, b)
            if got is not None:
                assert restricts_to(got, a) and restricts_to(got, b)


def test_common_extension_symmetric():
    children = enumerate_signatures(5, 2)
    for a in children[::2]:
        for b in children[::2]:
            assert (common_extension([a, b]) is None) == (common_extension([b, a]) is None)


# --- merge and walks --------------------------------------------------------


def test_merge_max():
    assert merge_max([sig([2, 1], 5), sig([1, 1], 5)]) == [2, 1]
    assert merge_max([sig([1, -1], 4), sig([0, 0], 4)]) == [1, 1]
    assert merge_max([sig([2, -2], 4)]) == [2, 2]


def test_walk_extremal_length_k():
    for n in (4, 5, 6, 7, 8, 9):
        k = n // 2
        w = walk(sig([0] * k, n), sig([1] * k, n))
        assert w.length == k
        assert verify_walk(w)


def test_walk_trivial():
    pi = sig([2, 1], 5)
    w = walk(pi, pi)
    assert w.length == 0 and w.witnesses == ()


def test_walk_so3_single_step():
    w = walk(sig([0], 3), sig([3], 3))
    assert w.length == 1
    assert w.witnesses[0].entries == (0,)


def test_walk_n4_bounded():
    w = walk(sig([1, 1], 4), sig([2, 2], 4))
    assert w.length <= 2 and verify_walk(w)


@given(st.integers(3, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_properties(n, data):
    sigs = enumerate_signatures(n, 2)
    a = data.draw(st.sampled_from(sigs))
    b = data.draw(st.sampled_from(sigs))
    w = walk(a, b)
    assert w.steps[0] == a and w.steps[-1] == b
    assert w.length <= n // 2
    assert verify_walk(w)
    for i in range(w.length):
        assert inseparable(w.steps[i], w.steps[i + 1])


def test_walk_violations_detects_tampering():
    w = walk(sig([0, 0], 5), sig([2, 2], 5))
    assert verify_walk(w)
    bad = type(w)(w.steps, (sig([9, 9], 4),) + w.witnesses[1:])
    assert not verify_walk(bad)


# --- zero tail --------------------------------------------------------------


def _tail_start(t):
    for i in range(len(t), 0, -1):
        if t[i - 1] != 0:
            return i
    return 0


@pytest.mark.parametrize("n", range(4, 10))
def test_zero_tail_dual(n):
    k = n // 2
    sigs = enumerate_signatures(n, 1)
    for a in sigs:
        for b in sigs:
            if not inseparable(a, b):
                continue
            i = _tail_start(a.entries)
            if i <= k - 2:
                assert all(b.entries[j] == 0 for j in range(i + 1, k)), (a, b)


# --- serialization ----------------------------------------------------------


def test_signature_json_roundtrip():
    s = sig([2, 1, -1], 6)
    assert signature_from_dict(s.to_dict()) == s
    assert str(s) == "2,1,-1"


@pytest.mark.parametrize("entries", [(1.9, 0), ("1", "0"), (True, False), (1.0, 0)])
def test_signature_rejects_non_integer_entries(entries):
    with pytest.raises(SignatureError, match="must be integers"):
        Signature(entries, GroupContext(4))
    with pytest.raises(SignatureError):
        signature_from_dict({"n": 4, "entries": list(entries)})


def test_signature_from_dict_rejects_non_integer_n():
    with pytest.raises(SignatureError, match="must be an integer"):
        signature_from_dict({"n": 4.0, "entries": [1, 0]})


def test_walk_json_roundtrip():
    w = walk(sig([0, 0, 0], 7), sig([2, 1, 1], 7))
    assert walk_from_dict(w.to_dict()) == w


def test_walk_violations_empty_for_valid():
    w = walk(sig([0, 0], 4), sig([2, 1], 4))
    assert walk_violations(w) == ()
