from fractions import Fraction

import pytest

import motiondual.primal as primal_mod
from motiondual.constants import (
    ConstantsReport,
    cross_check,
    predict,
    predicted_d,
    render_table,
)
from motiondual.errors import PreconditionViolated, TheoremViolation


def test_predict_even():
    r = predict(8)
    assert r.k_ma == Fraction(2) and r.orc_ma == 4 and r.orc_a == 4 and r.d_a == 3


def test_predict_odd():
    r = predict(7)
    assert r.k_ma == Fraction(2) and r.orc_ma == 4 and r.orc_a == 3 and r.d_a == 3


def test_predict_n2_exception_flagged():
    r = predict(2)
    assert r.k_ma == Fraction(1) and r.formula_exception
    assert r.orc_a == 1 and r.d_a == 0


def test_predict_rejects_n1():
    with pytest.raises(PreconditionViolated):
        predict(1)


def test_predict_is_exact_rational():
    for n in range(2, 14):
        r = predict(n)
        assert isinstance(r.k_ma, Fraction) and isinstance(r.ks_ma, Fraction)
        assert r.ks_ma == r.k_ma
        if n >= 3:
            assert r.k_ma == Fraction((n + 1) // 2, 2)
            assert r.ks_ma * 2 == r.orc_ma


def test_predicted_d_parity():
    assert [predicted_d(n) for n in range(2, 13)] == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


@pytest.mark.parametrize(
    "n,bound,orc,d,orc_ma,k",
    [
        (5, 1, 2, 2, 3, Fraction(3, 2)),
        (6, 1, 3, 2, 3, Fraction(3, 2)),
        (12, 1, 6, 5, 6, Fraction(3)),
    ],
)
def test_cross_check_examples(n, bound, orc, d, orc_ma, k):
    r = cross_check(n, bound)
    assert (r.orc_a, r.d_a, r.orc_ma) == (orc, d, orc_ma)
    assert r.k_ma == k and r.ks_ma == k and r.k_a == Fraction(1)
    assert all(ok for _, ok in r.checks)


def test_cross_check_attaches_certificates():
    r = cross_check(7, 1)
    certs = r.certificates
    assert set(certs) >= {"walk", "chain", "merge", "merge_report"}
    assert len(certs["walk"]["steps"]) == 3 + 1
    assert certs["chain"]["length"] == 3
    assert certs["merge_report"]["ok"]


def test_cross_check_rejects_small_inputs():
    with pytest.raises(PreconditionViolated):
        cross_check(2, 1)
    with pytest.raises(PreconditionViolated):
        cross_check(5, 0)


def test_cross_check_names_failed_identity(monkeypatch):
    monkeypatch.setattr(primal_mod, "big_d", lambda n, bound: 99)
    with pytest.raises(TheoremViolation) as exc:
        cross_check(5, 1)
    assert any("parity formula" in name for name in exc.value.failed)
    assert exc.value.report.d_a == 99


def test_render_table():
    text = render_table([predict(2), cross_check(5, 1)])
    lines = text.splitlines()
    assert lines[0].split() == ["N", "Orc(A)", "D(A)", "Orc(M(A))", "K_s(M(A))", "K(M(A))"]
    assert lines[2].split() == ["5", "2", "2", "3", "3/2", "3/2"]
    assert "note (n=2)" in text
