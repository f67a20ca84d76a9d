"""The brute-force oracles of the sweep catch a wrong closed form.

Each oracle check is run against a deliberately broken closed form and must
fail; with the real closed forms every n of the oracle range must pass.
"""

import time

import pytest

from motiondual import verification
from motiondual.cli import main
from motiondual.signatures import Signature, count_signatures, enumerate_signatures

ORACLE_NS = range(3, verification.ORACLE_MAX_N + 1)
REAL_COMMON_EXTENSION = verification.common_extension
REAL_INSEPARABLE = verification.inseparable


def _bound(n):
    return verification.default_bound(n)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_oracles_pass_with_real_closed_forms(n):
    for check in (verification.check_oracle_inseparable, verification.check_oracle_common_extension):
        result = check(n, _bound(n))
        assert result.ok and not result.skipped, result


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_catches_no_extension(monkeypatch, n):
    monkeypatch.setattr(verification, "common_extension", lambda sigmas: None)
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail.startswith("mismatch at")


def _without_first_interleaving_test(sigmas):
    """`common_extension` with the test between child coordinates 1 and 2
    dropped: raising every first entry to their maximum makes that test
    pass and leaves the others as they were."""
    top = max(s.entries[0] for s in sigmas)
    return REAL_COMMON_EXTENSION([Signature((top,) + s.entries[1:], s.ctx) for s in sigmas])


# SO(3) and SO(4) parents have no interleaving test between two child
# coordinates (every pair of children has a common extension there).
@pytest.mark.parametrize("n", range(5, verification.ORACLE_MAX_N + 1))
def test_common_extension_oracle_catches_a_dropped_interleaving_test(monkeypatch, n):
    monkeypatch.setattr(verification, "common_extension", _without_first_interleaving_test)
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail.startswith("mismatch at")


@pytest.mark.parametrize("n", ORACLE_NS)
def test_common_extension_oracle_searches_only_up_to_the_probe(monkeypatch, n):
    """The oracle for a pair searches the parents of the pair's probe, a
    prefix of the enumeration at bound + 1.  Cut every prefix two levels
    short, below the largest entry of the pair, and extensions that exist
    are missed."""
    monkeypatch.setattr(verification, "count_signatures", lambda n, p: count_signatures(n, max(p - 2, 0)))
    result = verification.check_oracle_common_extension(n, _bound(n))
    assert not result.ok and result.detail.startswith("mismatch at")


@pytest.mark.parametrize("n", ORACLE_NS)
def test_inseparable_oracle_catches_one_negated_pair(monkeypatch, n):
    sigs = enumerate_signatures(n, _bound(n))
    target = (sigs[-1], sigs[0])

    def negated_once(a, b):
        return REAL_INSEPARABLE(a, b) != ((a, b) == target)

    monkeypatch.setattr(verification, "inseparable", negated_once)
    result = verification.check_oracle_inseparable(n, _bound(n))
    assert not result.ok and result.detail == f"mismatch at {target[0]} vs {target[1]}"


# SO(2) enumerates -bound..bound and is no prefix; the common-extension
# oracle enumerates parents of SO(n) for n >= 3 only.
@pytest.mark.parametrize("n", range(3, 13))
def test_enumeration_at_p_is_a_prefix_of_p_plus_one(n):
    for p in range(6):
        smaller, larger = enumerate_signatures(n, p), enumerate_signatures(n, p + 1)
        assert larger[: len(smaller)] == smaller
        assert len(smaller) == count_signatures(n, p)


# --- input refusals ------------------------------------------------------------


@pytest.fixture
def no_checks(monkeypatch):
    """Make any check that runs fail the test: refusals come first."""

    def must_not_run(n, bound, rng=None):
        raise AssertionError("a check ran before the input was refused")

    monkeypatch.setattr(verification, "CHECKS", (must_not_run,))


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--bound", "0"], "error: sweep bound must be >= 1, got 0\n"),
        (["--bound", "-1"], "error: sweep bound must be >= 1, got -1\n"),
        (["--n-min", "5", "--n-max", "5", "--bound", "51"], "error: n = 5, bound = 51: the sweep would compare"),
        (["--n-min", "5", "--n-max", "5", "--bound", "60"], "error: n = 5, bound = 60: the sweep would compare"),
        (["--n-min", "3", "--n-max", str(10**9)],"error: n = 1022, bound = 1:"),
    ],
    ids=["bound-0", "bound-negative", "n5-bound-51", "n5-bound-60", "huge-n-range"],
)
def test_verify_refuses_input_before_any_check(capsys, no_checks, argv, err):
    start = time.perf_counter()
    code = main(["verify", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(err) and len(out.err.splitlines()) == 1
    assert elapsed < 5


def test_size_cap_admits_the_default_sweep_and_bound_3():
    for n in range(3, 13):
        assert verification.oracle_pairs(n, verification.default_bound(n)) <= verification.MAX_ORACLE_PAIRS
    for n in range(3, 10):
        assert verification.oracle_pairs(n, 3) <= verification.MAX_ORACLE_PAIRS


def test_oracle_pairs_counts_the_larger_group():
    assert verification.oracle_pairs(5, 30) == count_signatures(4, 30) ** 2 == 961**2
    # above the oracle range only the zero-tail checks compare pairs, at bound 1
    assert verification.oracle_pairs(12, 30) == count_signatures(12, 1) ** 2
