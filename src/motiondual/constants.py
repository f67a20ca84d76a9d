"""Formula engine for the dual-space invariants and derivation constants.

For the motion-group algebra in dimension n the predictions are exact:
the connecting order of the dual is floor(n/2); the sub-ideal graph
diameter is (n-1)/2 for odd n and n/2 - 1 for even n >= 4 (and 0 for
n = 2, the one quasi-standard case); the connecting order of the
multiplier algebra equals that diameter plus one; and the derivation
constants of the multiplier algebra are K = K_s = ceil(n/2)/2, with
K = K_s = 1 for the algebra itself.  The formula for K breaks at n = 2,
where the recorded external value is 1.

cross_check recomputes every computable quantity from the models, attaches
walk, chain and merge certificates, and raises TheoremViolation naming any
identity that fails.  All rationals are exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chains as chains_mod
from . import primal as primal_mod
from .dualspace import CLASS_KIND, Point, build_dual_model, components_and_orc, distance, require_size
from .errors import PreconditionViolated, TheoremViolation
from .signatures import Signature, enumerate_signatures, extremal_pair, walk

N2_NOTE = (
    "the ceil(n/2)/2 formula does not apply at n = 2; K(M) = 1 there is an "
    "external input (the plane motion algebra is the one quasi-standard case)"
)


@dataclass(frozen=True)
class ConstantsReport:
    n: int
    bound: int | None
    orc_a: int
    d_a: int
    orc_ma: int
    ks_ma: Fraction
    k_ma: Fraction
    k_a: Fraction
    formula_exception: str | None = None
    checks: tuple[tuple[str, bool], ...] = ()
    certificates: dict | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "orc_a": self.orc_a,
            "d_a": self.d_a,
            "orc_ma": self.orc_ma,
            "ks_ma": str(self.ks_ma),
            "k_ma": str(self.k_ma),
            "k_a": str(self.k_a),
            "formula_exception": self.formula_exception,
            "checks": [[name, ok] for name, ok in self.checks],
            "certificates": self.certificates,
        }


def predicted_d(n: int) -> int:
    if n == 2:
        return 0
    return (n - 1) // 2 if n % 2 else n // 2 - 1


def predict(n: int) -> ConstantsReport:
    """Formula-only report; no model is built."""
    if n < 2:
        raise PreconditionViolated("predictions start at n = 2")
    if n == 2:
        return ConstantsReport(
            n=2,
            bound=None,
            orc_a=1,
            d_a=0,
            orc_ma=2,
            ks_ma=Fraction(1),
            k_ma=Fraction(1),
            k_a=Fraction(1),
            formula_exception=N2_NOTE,
        )
    d = predicted_d(n)
    k_ma = primal_mod.expected_k_bound(n)
    return ConstantsReport(
        n=n,
        bound=None,
        orc_a=n // 2,
        d_a=d,
        orc_ma=d + 1,
        ks_ma=k_ma,
        k_ma=k_ma,
        k_a=Fraction(1),
        formula_exception=None,
    )


def _merge_triple(n: int, bound: int) -> tuple[Signature, Signature, Signature]:
    pool = enumerate_signatures(n - 1, min(bound, 1))
    return pool[0], pool[len(pool) // 2], pool[-1]


def cross_check(n: int, bound: int) -> ConstantsReport:
    """Recompute the invariants on truncated models and enforce every stated
    identity between them; failures raise TheoremViolation carrying the
    offending check names and the partially populated report."""
    if n < 3:
        raise PreconditionViolated("cross_check needs n >= 3 (n = 2 is formula-only)")
    if bound < 1:
        raise PreconditionViolated("cross_check needs bound >= 1")
    predicted = predict(n)
    require_size(n, bound, primal_mod.ideal_points)  # refused before the dual model is built
    model = build_dual_model(n, bound)
    _, orc_a = components_and_orc(model)
    d_a = primal_mod.big_d(n, bound)
    orc_ma = d_a + 1 if d_a >= 1 else 2
    ks_ma = Fraction(orc_ma, 2)

    k = n // 2
    zero, ones = extremal_pair(n)
    x, y = Point(CLASS_KIND, zero), Point(CLASS_KIND, ones)
    w = walk(zero, ones)
    bfs_d = distance(model, x, y)
    chain = chains_mod.chain_for_distance(model, x, y, k)
    chain_payload = chains_mod.chain_to_json(model, chain, x, y)

    cert = primal_mod.merge_certificate(n, *_merge_triple(n, bound))
    cert_report = primal_mod.validate_certificate(cert, bound)
    k_ma = cert_report.implied_bound

    checks = (
        ("orc equals floor(n/2)", orc_a == predicted.orc_a),
        ("d equals parity formula", d_a == predicted.d_a),
        ("orc and d differ by at most one", abs(orc_a - d_a) <= 1),
        ("orc sandwich", orc_a <= orc_ma <= orc_a + 2),
        ("k from certificate matches formula", cert_report.ok and k_ma == predicted.k_ma),
        ("ks equals k", ks_ma == k_ma),
        (
            "extremal distance equals floor(n/2)",
            bfs_d == k and w.length == k and chain.length == (k if k >= 2 else 1),
        ),
    )
    report = ConstantsReport(
        n=n,
        bound=bound,
        orc_a=orc_a,
        d_a=d_a,
        orc_ma=orc_ma,
        ks_ma=ks_ma,
        k_ma=k_ma,
        k_a=Fraction(1),
        formula_exception=None,
        checks=checks,
        certificates={
            "walk": w.to_dict(),
            "chain": chain_payload,
            "merge": cert.to_dict(),
            "merge_report": cert_report.to_dict(),
        },
    )
    failed = tuple(name for name, ok in checks if not ok)
    if failed:
        raise TheoremViolation(failed, f"n={n}, bound={bound}", report)
    return report


TABLE_HEADER = f"{'N':>3} {'Orc(A)':>7} {'D(A)':>5} {'Orc(M(A))':>10} {'K_s(M(A))':>10} {'K(M(A))':>8}"


def table_row(report: ConstantsReport) -> str:
    return (
        f"{report.n:>3} {report.orc_a:>7} {report.d_a:>5} {report.orc_ma:>10} "
        f"{str(report.ks_ma):>10} {str(report.k_ma):>8}"
    )


def render_table(reports: list[ConstantsReport]) -> str:
    lines = [TABLE_HEADER] + [table_row(r) for r in reports]
    notes = [f"  note (n={r.n}): {r.formula_exception}" for r in reports if r.formula_exception]
    return "\n".join(lines + notes) + "\n"
