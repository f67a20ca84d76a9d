import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from operator import is_

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
from motiondual.primal import merge_certificate, validate_certificate
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
    validate,
    walk,
    walk_from_dict,
    walk_violations,
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


def reference_outcome(entries, n):
    """What the reference checks make of `entries`: the type loop, then
    `_check_entries`.  None when they accept, else the exception's class,
    index and message."""
    entries = tuple(entries)
    try:
        for e in entries:
            if type(e) is not int:
                raise SignatureError(f"signature entries must be integers, got {e!r}")
        signatures._check_entries(entries, GroupContext(n))
    except SignatureError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)
    return None


def constructor_outcome(entries, n):
    try:
        Signature(entries, GroupContext(n))
    except SignatureError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)
    return None


ENTRY = st.one_of(
    st.integers(-4, 4), st.integers(), st.booleans(), st.floats(), st.text(max_size=2)
)


@st.composite
def entry_tuples(draw):
    """Tuples of any length and entry type, with many near-valid ones:
    weakly decreasing integers of about the right length, the last one
    sometimes negated, the odd one swapped for another entry."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        return n, tuple(draw(st.lists(ENTRY, max_size=9)))
    length = n // 2 + draw(st.sampled_from((0, 0, 0, -1, 1)))
    ints = sorted(draw(st.lists(st.integers(0, 3), min_size=max(length, 0), max_size=max(length, 0))), reverse=True)
    if ints and draw(st.booleans()):
        ints[-1] = -ints[-1] - draw(st.integers(0, 1))
    if ints and draw(st.booleans()):
        ints[draw(st.integers(0, len(ints) - 1))] = draw(ENTRY)
    return n, tuple(ints)


@given(entry_tuples())
@settings(max_examples=600, deadline=None)
def test_one_pass_check_matches_the_reference_checks(case):
    n, entries = case
    assert constructor_outcome(entries, n) == reference_outcome(entries, n)


@pytest.mark.parametrize(
    "entries, n, want",
    [
        ((2, 1, -1), 6, None),
        ((1, -1), 4, None),
        ((1, -2), 4, (MonotonicityViolated, 1)),
        ((2, 1, -2), 6, (MonotonicityViolated, 2)),
        ((0, 0, -1), 6, (MonotonicityViolated, 2)),
        ((-5,), 2, None),
        ((-1,), 3, (NegativeEntry, 1)),
        ((1.0, 2), 4, (SignatureError, None)),  # the type fault comes before the order fault
        ((1, 0.5, 0), 4, (SignatureError, None)),  # and before the length fault
        ((2, 1, 0, 1.5), 6, (SignatureError, None)),
        ((2, 1), 7, (WrongLength, None)),
        ((True,), 2, (SignatureError, None)),
    ],
)
def test_one_pass_check_fixed_cases(entries, n, want):
    got = constructor_outcome(entries, n)
    assert got == reference_outcome(entries, n)
    assert (got and got[:2]) == want


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


def test_cold_enumeration_leaves_no_garbage():
    # a self-referencing closure would keep each enumeration alive as a
    # cycle until the collector runs; DEBUG_SAVEALL keeps what it finds
    signatures._enumerate_cached.cache_clear()
    gc.collect()
    flags, found = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        enumerate_signatures(6, 10)
        gc.collect()
        garbage = gc.garbage[found:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[found:]
    assert garbage == []


# --- branching --------------------------------------------------------------


def test_branch_box_even():
    assert branch_box(sig([1, 0], 4)) == ((0, 1),)


def test_branch_box_odd():
    assert branch_box(sig([2, 1], 5)) == ((1, 2), (-1, 1))


def test_branch_box_zero():
    assert branch_box(sig([0, 0, 0], 7)) == ((0, 0), (0, 0), (0, 0))


def test_branch_box_so1_has_no_child():
    with pytest.raises(PreconditionViolated, match="SO\\(1\\) has no child group"):
        branch_box(sig([], 1))


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


@pytest.mark.parametrize(
    "op, args, error, message",
    [
        (merge_max, [], PreconditionViolated, "merge_max needs a nonempty list"),
        (merge_max, [sig([1], 3), sig([1, 0], 4)], ContextMismatch, "merge_max needs signatures of one group"),
        (common_extension, [], PreconditionViolated, "common_extension needs a nonempty list"),
        (
            common_extension,
            [sig([1], 3), sig([1, 0], 4)],
            ContextMismatch,
            "common_extension needs signatures of one group",
        ),
        (
            common_extension,
            [sig([], 1)],
            PreconditionViolated,
            "common_extension needs a parent group SO(n), n >= 3",
        ),
        (common_restriction, [], PreconditionViolated, "common_restriction needs a nonempty list"),
        (
            common_restriction,
            [sig([1], 3), sig([1, 0], 4)],
            ContextMismatch,
            "common_restriction needs signatures of one group",
        ),
        (common_restriction, [sig([1], 2)], PreconditionViolated, "common_restriction needs n >= 3, got so2"),
    ],
)
def test_list_preconditions_raise_their_exact_errors(op, args, error, message):
    with pytest.raises(error) as info:
        op(args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("n", range(2, 11))
def test_restricts_to_matches_branch_box(n):
    # the in-place interleaving test against membership in the branching
    # box, with children one bound higher so that some lie outside it
    for bound in range(4):
        children = enumerate_signatures(n - 1, bound + 1)
        for pi in enumerate_signatures(n, bound):
            box = branch_box(pi)
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
        assert not walk_violations(w)


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
    assert w.length <= 2 and not walk_violations(w)


@given(st.integers(3, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_properties(n, data):
    sigs = enumerate_signatures(n, 2)
    a = data.draw(st.sampled_from(sigs))
    b = data.draw(st.sampled_from(sigs))
    w = walk(a, b)
    assert w.steps[0] == a and w.steps[-1] == b
    assert w.length <= n // 2
    assert not walk_violations(w)
    for i in range(w.length):
        assert inseparable(w.steps[i], w.steps[i + 1])


def test_walk_violations_detects_tampering():
    w = walk(sig([0, 0], 5), sig([2, 2], 5))
    assert not walk_violations(w)
    bad = type(w)(w.steps, (sig([9, 9], 4),) + w.witnesses[1:])
    assert walk_violations(bad)


# --- zero tail --------------------------------------------------------------


def zero_tail_step_holds(a, b):
    """The zero-tail step for an edge a - b, as the paper states it: if a
    vanishes beyond position i <= k - 2, then b vanishes beyond position
    i + 1.  The reference the sweep's zero-tail rows are checked against."""
    k = len(a.entries)
    i = next((j for j in range(k, 0, -1) if a.entries[j - 1] != 0), 0)
    return i > k - 2 or all(b.entries[j] == 0 for j in range(i + 1, k))


@pytest.mark.parametrize("n", range(4, 10))
def test_zero_tail_dual(n):
    sigs = enumerate_signatures(n, 1)
    for a in sigs:
        for b in sigs:
            if inseparable(a, b):
                assert zero_tail_step_holds(a, b), (a, b)


def test_zero_tail_step_reference_rejects_a_long_tail():
    zero, ones = validate([0, 0], 5), validate([1, 1], 5)
    assert not zero_tail_step_holds(zero, ones)
    assert zero_tail_step_holds(ones, zero)
    assert zero_tail_step_holds(validate([1, 0], 5), ones)


# --- serialization ----------------------------------------------------------


def test_signature_str():
    assert str(sig([2, 1, -1], 6)) == "2,1,-1"


@pytest.mark.parametrize("entries", [(1.9, 0), ("1", "0"), (True, False), (1.0, 0)])
def test_signature_rejects_non_integer_entries(entries):
    with pytest.raises(SignatureError, match="must be integers"):
        Signature(entries, GroupContext(4))


def test_walk_json_roundtrip():
    w = walk(sig([0, 0, 0], 7), sig([2, 1, 1], 7))
    assert walk_from_dict(w.to_dict()) == w


def test_walk_violations_empty_for_valid():
    w = walk(sig([0, 0], 4), sig([2, 1], 4))
    assert walk_violations(w) == ()


# --- value semantics -----------------------------------------------------------


def test_group_context_is_one_instance_per_n():
    for n in range(1, 14):
        ctx = GroupContext(n)
        assert ctx is GroupContext(n) and validate((0,) * ctx.k, n).ctx is ctx
        assert hash(ctx) == hash((n,)) and repr(ctx) == f"GroupContext(n={n})" and str(ctx) == f"so{n}"
        if n >= 2:
            assert ctx.child is GroupContext(n - 1)
    assert GroupContext(5) == GroupContext(5) != GroupContext(6)
    # the operations that make signatures hand out the cached contexts
    pi = sig([2, 1, 0], 7)
    assert branch(pi)[0].ctx is common_restriction([pi, pi]).ctx is GroupContext(6)
    assert common_extension([pi, pi]).ctx is GroupContext(8)
    w = walk_from_dict(walk(pi, sig([1, 1, 1], 7)).to_dict())
    assert {s.ctx for s in w.steps} == {GroupContext(7)} and w.witnesses[0].ctx is GroupContext(6)


def test_group_context_round_trips_to_the_same_object():
    ctx = GroupContext(7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ctx, protocol)) is ctx
    assert copy.copy(ctx) is ctx and copy.deepcopy(ctx) is ctx
    s = sig([2, 1, 0], 7)
    for clone in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert clone == s and clone.ctx is ctx


@pytest.mark.parametrize("n", [0, -1, "5", 5.0, True], ids=repr)
def test_group_context_refuses_what_is_not_a_positive_int(n):
    GroupContext(5), GroupContext(1)  # 5.0 and True equal these cached keys
    before = dict(signatures._CONTEXTS)
    with pytest.raises(PreconditionViolated, match="is not a group context"):
        GroupContext(n)
    assert signatures._CONTEXTS == before
    assert all(type(key) is int and key >= 1 for key in signatures._CONTEXTS)


def test_group_context_is_frozen():
    ctx = GroupContext(4)
    with pytest.raises(FrozenInstanceError):
        ctx.n = 5
    with pytest.raises(FrozenInstanceError):
        del ctx.n
    assert ctx.n == 4 and ctx.k == 2


def test_signature_records_are_slotted_and_frozen():
    cert = merge_certificate(7, sig([1, 0, 0], 6), sig([2, 1, -1], 6), sig([1, 1, 1], 6))
    records = {
        "entries": sig([2, 1], 5),
        "steps": walk(sig([0, 0], 5), sig([1, 1], 5)),
        "inputs": cert,
        "ok": validate_certificate(cert),
    }
    for field, record in records.items():
        assert not hasattr(record, "__dict__"), type(record)
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)


_PICKLE_SCRIPT = """
import pickle
from motiondual.signatures import validate
print(pickle.dumps(validate((2, -1), 4)).hex())
"""


def test_pickled_signature_is_found_as_a_dict_key():
    """A signature pickled by a process with another string-hash salt is
    found here: its hash is computed again, from its entries and n."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(signatures.__file__)), PYTHONHASHSEED="3")
    proc = subprocess.run(
        [sys.executable, "-c", _PICKLE_SCRIPT], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    s = pickle.loads(bytes.fromhex(proc.stdout.strip()))
    table = {sig([2, -1], 4): "here", sig([2, 1], 4): "other"}
    assert table[s] == "here" and s.ctx is GroupContext(4)


# --- hash-consing --------------------------------------------------------------


def _stored():
    """(context, entries, signature) for every stored signature."""
    return [(ctx, e, s) for ctx in signatures._CONTEXTS.values() for e, s in ctx._signatures.items()]


def _tables() -> dict:
    """A copy of every context's signature table, keyed by n."""
    return {n: dict(ctx._signatures) for n, ctx in signatures._CONTEXTS.items()}


def test_equal_signatures_are_one_object():
    s = sig([2, 1, 0], 7)
    ctx = GroupContext(7)
    assert Signature((2, 1, 0), ctx) is s and Signature([2, 1, 0], ctx) is s
    assert validate(iter([2, 1, 0]), 7) is s
    assert enumerate_signatures(7, 2)[entries(enumerate_signatures(7, 2)).index((2, 1, 0))] is s
    w = walk(s, sig([0, 0, 0], 7))
    back = walk_from_dict(w.to_dict())
    assert all(a is b for a, b in zip(back.steps + back.witnesses, w.steps + w.witnesses))
    assert back.steps[0] is s
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(s, protocol)) is s
    assert copy.copy(s) is s and copy.deepcopy(s) is s and copy.deepcopy([s])[0] is s
    assert s.__reduce__() == (Signature, ((2, 1, 0), ctx))


class Int(int):
    pass


@pytest.mark.parametrize("entries", [(True, 0), (1.0, 0), (Int(1), 0), (1, False), (1, Int(0))], ids=repr)
@pytest.mark.parametrize("kind", [tuple, list])
def test_a_stored_value_still_refuses_other_entry_types(entries, kind):
    # equal and hashing alike, so the lookup finds the stored (1, 0)
    stored = sig([1, 0], 5)
    assert entries == stored.entries and hash(entries) == hash(stored.entries)
    before = _tables()
    with pytest.raises(SignatureError, match="must be integers"):
        Signature(kind(entries), GroupContext(5))
    assert _tables() == before
    assert Signature(kind([1, 0]), GroupContext(5)) is stored and type(stored.entries) is tuple


def test_large_entries_take_the_full_check_and_the_stored_object():
    ctx = GroupContext(5)
    first = Signature((int("1000"), int("999")), ctx)
    fresh = (int("1000"), int("999"))
    assert fresh[0] is not first.entries[0]  # outside the small-int cache
    assert Signature(fresh, ctx) is first
    with pytest.raises(MonotonicityViolated):
        Signature((int("999"), int("1000")), ctx)


@pytest.mark.parametrize(
    "entries, n, error",
    [
        ((1, 2), 5, MonotonicityViolated),
        ((0, -1), 5, NegativeEntry),
        ((1,), 5, WrongLength),
        (([1], 0), 5, SignatureError),
    ],
    ids=repr,
)
def test_a_refused_build_leaves_the_table_unchanged(entries, n, error):
    sig([1, 0], 5)
    before = _tables()
    with pytest.raises(error):
        Signature(entries, GroupContext(n))
    assert _tables() == before
    assert all(type(e) is tuple and s.entries is e and s.ctx is ctx for ctx, e, s in _stored())


def test_equal_entries_in_different_groups_stay_distinct():
    a, b, c = sig([1, 0], 4), sig([1, 0], 5), sig([1, 1], 4)
    assert a.entries == b.entries and a is not b and a != b and a.ctx is not b.ctx
    assert a is not c and {a, b, c} == {sig([1, 0], 4), sig([1, 0], 5), sig([1, 1], 4)}
    assert GroupContext(4)._signatures[(1, 0)] is a and GroupContext(5)._signatures[(1, 0)] is b


def test_only_true_contexts_are_stored():
    class StandIn:
        n, k = 5, 2

    stored = sig([1, 0], 5)
    before = _tables()
    other = Signature((1, 0), StandIn())
    assert other is not stored and Signature((1, 0), StandIn()) is not other
    assert _tables() == before
    with pytest.raises(MonotonicityViolated):
        Signature((0, 1), StandIn())


# --- derived rows --------------------------------------------------------------


def _is_stored(s) -> bool:
    return s is Signature(s.entries, s.ctx) and s is Signature(tuple(list(s.entries)), s.ctx)


@pytest.mark.parametrize("n", range(3, 41))
def test_derived_rows_are_the_stored_objects(n):
    rng = random.Random(n)
    classes = enumerate_signatures(n, 2)
    children = enumerate_signatures(n - 1, 2)
    for _ in range(6):
        a, b = rng.choice(classes), rng.choice(classes)
        w = walk(a, b)
        assert all(map(_is_stored, w.steps + w.witnesses))
        sigmas = rng.sample(children, min(2, len(children)))
        for corner in (common_restriction([a, b]), common_extension(sigmas)):
            assert corner is None or _is_stored(corner)


def _count_checks(monkeypatch) -> list:
    calls = []
    check = signatures._check

    def counted(entries, ctx):
        calls.append((ctx.n, entries))
        check(entries, ctx)

    monkeypatch.setattr(signatures, "_check", counted)
    return calls


def test_a_new_derived_value_is_checked_once_and_then_stored(monkeypatch):
    # entries this large appear in no other test, so every row but the ends is new
    ctx = GroupContext(9)
    a, b = Signature((9005, 9004, 9003, 9002), ctx), Signature((9004, 9001, 7, 0), ctx)
    before = _tables()
    calls = _count_checks(monkeypatch)
    w = walk(a, b)
    rows = {(s.ctx.n, s.entries) for s in w.steps + w.witnesses}
    new = {(m, e) for m, e in rows if e not in before[m]}
    assert len(new) >= 4 and sorted(calls) == sorted(new)
    assert all(s.ctx._signatures[s.entries] is s for s in w.steps + w.witnesses)
    again = walk(a, b)
    assert len(calls) == len(new)
    assert again.steps == w.steps and all(map(is_, again.steps + again.witnesses, w.steps + w.witnesses))


@pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
def test_a_derived_row_does_not_admit_other_entry_types(bad):
    w = walk(sig([0, 0], 5), sig([1, 1], 5))
    assert w.to_dict() == {"n": 5, "steps": [[0, 0], [1, 0], [1, 1]], "witnesses": [[0, 0], [1, 0]]}
    assert GroupContext(5)._signatures[(1, 0)] is w.steps[1] and GroupContext(4)._signatures[(1, 0)] is w.witnesses[1]
    for key, i in (("steps", 1), ("witnesses", 1)):
        payload = w.to_dict()
        payload[key][i] = [bad, 0]
        with pytest.raises(SignatureError, match="must be integers"):
            walk_from_dict(payload)
