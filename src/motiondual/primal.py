"""The sub-ideal graph of the motion-group algebra and its certificates.

The closure of the minimal primal ideals consists of two families indexed
by SO(n-1) signatures: the germ ideal of each half-line (the intersection
of the kernels of all classes whose restriction contains the signature)
and the kernels along the half-line itself, collapsed here to one
representative per signature since the parameter plays no role in the
graph.  Two sub-ideals are adjacent when their sum is proper: a line
kernel is maximal and therefore isolated, and two germ ideals are
adjacent exactly when some class restricts to both signatures, which is
the closed-form common-extension test.

Germ ideals are ordered by reverse inclusion of their hulls.  By
interleaving, a hull is a product of integer intervals, the first one
unbounded above (`signatures.hull_intervals`), so containment and
minimality are exact O(k) closed forms with no truncation; :func:`hull`
enumerates a truncated hull and is kept as the brute-force oracle they are
tested against.

Merge certificates package the constructions behind the derivation-constant
bound ceil(n/2)/2 for the multiplier algebra: three germ signatures are
lifted to containing classes, walked to a single target or to a triple of
targets with a common restriction, with every step carrying its witness.
The walk lengths depend on n mod 4, and the implied bound is steps + 1 for
a single target and steps + 3/2 for a primal triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .dualspace import Graph, require_size
from .errors import CertificationError, ContextMismatch, PreconditionViolated
from .signatures import (
    EVEN,
    GroupContext,
    Signature,
    Walk,
    common_extension,
    common_restriction,
    count_signatures,
    enumerate_signatures,
    hull_intervals,
    int_field,
    merge_max,
    restricts_to,
    tail_start,
    walk_from_dict,
    walk_violations,
)

GERM_IDEAL = "germ"
LINE_KERNEL = "line"


@dataclass(frozen=True)
class SubIdeal:
    """A vertex of the sub-ideal graph, keyed by an SO(n-1) signature."""

    kind: str
    sigma: Signature

    @property
    def parent_n(self) -> int:
        return self.sigma.ctx.n + 1

    @property
    def ideal_id(self) -> str:
        return f"{self.kind}:{self.sigma}"

    def __str__(self) -> str:
        return self.ideal_id


def sub_ideals(n: int, bound: int) -> list[SubIdeal]:
    """One germ ideal and one line kernel per SO(n-1) signature."""
    if n < 3:
        raise PreconditionViolated("sub-ideal models need n >= 3")
    require_size(n, bound, lambda: 2 * count_signatures(n - 1, bound))
    sigmas = enumerate_signatures(n - 1, bound)
    return [SubIdeal(GERM_IDEAL, s) for s in sigmas] + [SubIdeal(LINE_KERNEL, s) for s in sigmas]


def hull(ideal: SubIdeal, bound: int) -> frozenset:
    """Classes containing the ideal, within the truncation.  A line kernel
    has empty hull among the classes (its hull sits on the half-line).

    This is the brute-force oracle for :func:`contains_ideal` and
    :func:`min_primal`; neither calls it.
    """
    if ideal.kind == LINE_KERNEL:
        return frozenset()
    return frozenset(
        pi for pi in enumerate_signatures(ideal.parent_n, bound) if restricts_to(pi, ideal.sigma)
    )


def _require_germs(*ideals: SubIdeal) -> None:
    for i in ideals:
        if i.kind != GERM_IDEAL:
            raise PreconditionViolated("ideal containment is defined for germ ideals")
    if len({i.sigma.ctx for i in ideals}) > 1:
        raise ContextMismatch("germ ideals live in different groups")


def contains_ideal(I: SubIdeal, J: SubIdeal) -> bool:
    """True when I contains J as an ideal, i.e. hull(I) is inside hull(J):
    every interval of I's hull lies inside the matching interval of J's.
    Exact on the infinite hulls, so no truncation is involved."""
    _require_germs(I, J)
    return all(
        lo_j <= lo_i and hi_i <= hi_j
        for (lo_i, hi_i), (lo_j, hi_j) in zip(hull_intervals(I.sigma), hull_intervals(J.sigma))
    )


def strictly_contains(I: SubIdeal, J: SubIdeal) -> bool:
    return contains_ideal(I, J) and not contains_ideal(J, I)


def star_adjacent(I: SubIdeal, J: SubIdeal) -> bool:
    """True when the two sub-ideals sum to a proper ideal.  Reflexive; a
    line kernel is maximal, hence adjacent only to itself; two germ ideals
    are adjacent exactly when a common parent class exists."""
    if I.sigma.ctx != J.sigma.ctx:
        raise ContextMismatch("sub-ideals live in different groups")
    if I == J:
        return True
    if I.kind == LINE_KERNEL or J.kind == LINE_KERNEL:
        return False
    return common_extension([I.sigma, J.sigma]) is not None


@lru_cache(maxsize=16)  # as `build_dual_model`; d_star, big_d and the exports share a build
def star_graph(n: int, bound: int) -> Graph:
    """The sub-ideal graph on `sub_ideals(n, bound)`, with the adjacency of
    `star_adjacent`: line kernels are isolated, and two germ ideals are
    joined when their hulls meet, i.e. when their hull intervals overlap in
    every coordinate (the hull being the product of its intervals)."""
    ideals = sub_ideals(n, bound)
    hulls = [hull_intervals(i.sigma) for i in ideals if i.kind == GERM_IDEAL]  # germs come first
    adj = [0] * len(ideals)
    for a, ha in enumerate(hulls):
        for b in range(a + 1, len(hulls)):
            if all(lo_a <= hi_b and lo_b <= hi_a for (lo_a, hi_a), (lo_b, hi_b) in zip(ha, hulls[b])):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return Graph(ideals, adj)


def d_star(I: SubIdeal, J: SubIdeal, bound: int):
    """BFS distance in the sub-ideal graph over the truncated vertex set,
    enlarged when needed to hold both ends."""
    if I.sigma.ctx != J.sigma.ctx:
        raise ContextMismatch("sub-ideals live in different groups")
    if I == J:
        return 0
    needed = max(abs(e) for i in (I, J) for e in (*i.sigma.entries, 0))
    return star_graph(I.parent_n, max(bound, needed)).distance(I, J)


def big_d(n: int, bound: int) -> int:
    """Largest diameter among the components of the sub-ideal graph, a
    singleton component counting 0.  For n = 2 the graph is edgeless apart
    from loops and the value is 0, with no model built."""
    if n < 2:
        raise PreconditionViolated("big_d needs n >= 2")
    if n == 2:
        return 0
    return star_graph(n, bound).diameter()


def min_primal(n: int, bound: int) -> list[SubIdeal]:
    """Sub-ideals minimal under containment: every line kernel, and the germ
    ideals that strictly contain no other germ ideal.

    Containment of hulls is interval-inside-interval; each interval's upper
    end is the previous interval's lower end, so containment forces every
    coordinate of the two signatures to agree except the lower end of the
    last interval.  For even n that end is -s(k-1), tied to the coordinate
    before it, so no strict containment exists and every germ is minimal.
    For odd n it is |sk|: a germ with sk != 0 strictly contains the germ
    with sk = 0 (which lies in the same truncation), and one with sk = 0
    strictly contains nothing.
    """
    ideals = sub_ideals(n, bound)
    if n % 2 == 0:
        return ideals
    return [i for i in ideals if i.kind == LINE_KERNEL or i.sigma.entries[-1] == 0]


def is_primal_family(pis: Sequence[Signature]) -> tuple[bool, Signature | None]:
    """A family of classes has primal intersection iff the restrictions
    share an irreducible; returns the deterministic witness."""
    witness = common_restriction(pis)
    return witness is not None, witness


def zero_tail_star_step(sigma: Signature, sigma_prime: Signature) -> bool:
    """Tail-propagation along sub-ideal adjacency, for germ signatures of an
    odd parent group: if sigma vanishes beyond position i <= k-2 then any
    adjacent sigma' vanishes beyond position i+1.  This is the potential
    function behind the lower bound for the sub-ideal graph diameter."""
    ctx = sigma.ctx
    if sigma_prime.ctx != ctx:
        raise ContextMismatch("germ signatures live in different groups")
    if ctx.parity != EVEN:
        raise PreconditionViolated("the tail step applies to germ signatures of an odd parent")
    if not star_adjacent(SubIdeal(GERM_IDEAL, sigma), SubIdeal(GERM_IDEAL, sigma_prime)):
        raise PreconditionViolated("the tail step needs adjacent germ ideals")
    k = ctx.k
    i = tail_start(sigma.entries)
    if i > k - 2:
        return True
    return all(sigma_prime.entries[j] == 0 for j in range(i + 1, k))


# ---------------------------------------------------------------------------
# merge certificates


@dataclass(frozen=True)
class MergeCertificate:
    """Containers, walks and targets certifying the derivation-constant
    bound for one triple of germ signatures."""

    n: int
    case: int  # n mod 4
    inputs: tuple[Signature, Signature, Signature]
    containers: tuple[Signature, Signature, Signature]
    walks: tuple[Walk, Walk, Walk]
    targets: tuple[Signature, ...]
    primal_witness: Signature | None
    claimed_n: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "case": self.case,
            "claimed_n": self.claimed_n,
            "inputs": [list(s.entries) for s in self.inputs],
            "containers": [list(s.entries) for s in self.containers],
            "walks": [w.to_dict() for w in self.walks],
            "targets": [list(t.entries) for t in self.targets],
            "primal_witness": list(self.primal_witness.entries) if self.primal_witness else None,
        }


def certificate_from_dict(payload: dict) -> MergeCertificate:
    n = int_field(payload, "n")
    parent = GroupContext(n)
    child = parent.child
    witness = payload.get("primal_witness")
    return MergeCertificate(
        n=n,
        case=int_field(payload, "case"),
        inputs=tuple(Signature(tuple(e), child) for e in payload["inputs"]),
        containers=tuple(Signature(tuple(e), parent) for e in payload["containers"]),
        walks=tuple(walk_from_dict(w) for w in payload["walks"]),
        targets=tuple(Signature(tuple(e), parent) for e in payload["targets"]),
        primal_witness=Signature(tuple(witness), child) if witness is not None else None,
        claimed_n=int_field(payload, "claimed_n"),
    )


def claimed_steps(n: int) -> int:
    """Walk length of the merge construction, by the residue of n mod 4."""
    case = n % 4
    if case == 0:
        return n // 4 - 1
    if case == 2:
        return (n - 2) // 4 - 1
    if case == 3:
        return (n - 3) // 4
    return (n - 1) // 4 - 1


def target_count(n: int) -> int:
    """1 when the walks merge into a single class, 3 when they end in a
    triple of classes with a common restriction."""
    return 1 if n % 4 in (0, 3) else 3


def implied_k_bound(n: int) -> Fraction:
    steps = Fraction(claimed_steps(n))
    return steps + 1 if target_count(n) == 1 else steps + Fraction(3, 2)


def expected_k_bound(n: int) -> Fraction:
    return Fraction((n + 1) // 2, 2)


def _pad(entries: tuple[int, ...], length: int) -> tuple[int, ...]:
    return entries + (0,) * (length - len(entries))


def merge_certificate(n: int, s1: Signature, s2: Signature, s3: Signature) -> MergeCertificate:
    """Build the merge construction for three germ signatures.

    With P the merged maxima and c the child signature length, state i of
    the walk from input e is P[:i] + e[i-1:c-i] padded with zeros, and the
    witness of step i is P[:i] + e[i:c-i]: every step overwrites one more
    prefix coordinate with the merged maxima while zeroing the tail, for
    exactly the case-table number of steps s.  The triple cases (n = 1, 2
    mod 4) stop one short of a full merge, ending at P[:s+1] + e[s+1:s+2]
    when s >= 1, and certify primality of the three ends through the shared
    restriction P[:s+1] instead.
    """
    if n < 3:
        raise PreconditionViolated("merge certificates need n >= 3")
    child = GroupContext(n - 1)
    sigmas = (s1, s2, s3)
    if any(s.ctx != child for s in sigmas):
        raise ContextMismatch(f"inputs must be {child} signatures")
    parent = GroupContext(n)
    k, c = parent.k, child.k
    steps = claimed_steps(n)
    triple = target_count(n) == 3
    P = tuple(merge_max(list(sigmas)))

    walks = []
    for s in sigmas:
        e = s.entries
        states = [_pad(P[:i] + e[i - 1 : c - i], k) for i in range(1, steps + 2)]
        wits = [_pad(P[:i] + e[i : c - i], c) for i in range(1, steps + 1)]
        if triple and steps >= 1:
            states[-1] = _pad(P[: steps + 1] + e[steps + 1 : steps + 2], k)
        walks.append(
            Walk(
                tuple(Signature(st, parent) for st in states),
                tuple(Signature(w, child) for w in wits),
            )
        )

    targets = tuple(w.steps[-1] for w in walks)
    if triple:
        witness = Signature(_pad(P[: steps + 1], c), child)
    else:
        if len(set(targets)) != 1:
            raise CertificationError("single-target construction produced distinct targets")
        targets = targets[:1]
        witness = None
    return MergeCertificate(
        n=n,
        case=n % 4,
        inputs=sigmas,
        containers=tuple(w.steps[0] for w in walks),
        walks=tuple(walks),
        targets=targets,
        primal_witness=witness,
        claimed_n=steps,
    )


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    violations: tuple[str, ...]
    implied_bound: Fraction
    expected_bound: Fraction

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "implied_k_bound": str(self.implied_bound),
            "expected_k_bound": str(self.expected_bound),
        }


def validate_certificate(cert: MergeCertificate, bound: int | None = None) -> CertificateReport:
    """Re-derive every claim in the certificate.

    Checks that there are three inputs, containers and walks, input/container
    containment, step-by-step witnesses, walk lengths against the case table,
    target primality through an independent feasibility run, optionally that
    all entries stay within the truncation bound, and that the implied
    derivation-constant bound equals ceil(n/2)/2.  Missing walks, walk steps,
    containers or targets are reported as violations, not raised.
    """
    bad: list[str] = []
    n = cert.n
    parent = GroupContext(n)
    child = parent.child
    if cert.case != n % 4:
        bad.append(f"case {cert.case} does not match n mod 4 = {n % 4}")
    if cert.claimed_n != claimed_steps(n):
        bad.append(f"claimed walk length {cert.claimed_n} differs from the case table")
    if len(cert.targets) != target_count(n):
        bad.append(f"expected {target_count(n)} target(s), found {len(cert.targets)}")
    shape = (len(cert.inputs), len(cert.containers), len(cert.walks))
    if shape != (3, 3, 3):
        bad.append("expected 3 inputs, containers and walks, found {}, {} and {}".format(*shape))
    ends_known = shape == (3, 3, 3) and len(cert.targets) == target_count(n)

    for i, (sigma, container) in enumerate(zip(cert.inputs, cert.containers), start=1):
        if sigma.ctx != child:
            bad.append(f"input {i} is not an {child} signature")
        elif container.ctx != parent or not restricts_to(container, sigma):
            bad.append(f"container {i} does not restrict to input {i}")

    for i, w in enumerate(cert.walks, start=1):
        if not w.steps:
            bad.append(f"walk {i} has no steps")
            continue
        if ends_known:
            if w.steps[0] != cert.containers[i - 1]:
                bad.append(f"walk {i} does not start at container {i}")
            expected_end = cert.targets[0] if len(cert.targets) == 1 else cert.targets[i - 1]
            if w.steps[-1] != expected_end:
                bad.append(f"walk {i} does not end at its target")
        if w.length != cert.claimed_n:
            bad.append(f"walk {i} has {w.length} steps, case table says {cert.claimed_n}")
        for v in walk_violations(w):
            bad.append(f"walk {i}: {v}")

    if len(cert.targets) == 3:
        if cert.primal_witness is None:
            bad.append("triple-target certificate is missing its primal witness")
        else:
            for j, t in enumerate(cert.targets, start=1):
                if not restricts_to(t, cert.primal_witness):
                    bad.append(f"primal witness is not in the branching set of target {j}")
        ok, _ = is_primal_family(list(cert.targets))
        if not ok:
            bad.append("targets have no common restriction (family not primal)")
    if bound is not None:
        entries = [
            abs(e)
            for w in cert.walks
            for s in (*w.steps, *w.witnesses)
            for e in s.entries
        ]
        if entries and max(entries) > bound:
            bad.append(f"certificate leaves the truncation bound {bound}")

    implied = implied_k_bound(n)
    expected = expected_k_bound(n)
    if implied != expected:
        bad.append(f"implied bound {implied} differs from ceil(n/2)/2 = {expected}")
    return CertificateReport(not bad, tuple(bad), implied, expected)


def star_graph_to_json(n: int, bound: int) -> dict:
    graph = star_graph(n, bound)
    return {
        "n": n,
        "bound": bound,
        "ideals": [{"id": v.ideal_id, "kind": v.kind, "entries": list(v.sigma.entries)} for v in graph.points],
        "edges": sorted([a.ideal_id, b.ideal_id] for a, b in graph.edges()),
    }


def star_graph_to_dot(n: int, bound: int) -> str:
    graph = star_graph(n, bound)
    lines = [f'digraph "sub_so{n}_bound{bound}" {{']
    for v in graph.points:
        shape = "ellipse" if v.kind == GERM_IDEAL else "box"
        lines.append(f'  "{v.ideal_id}" [shape={shape}];')
    for a, b in graph.edges():
        lines.append(f'  "{a.ideal_id}" -> "{b.ideal_id}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
