"""The sub-ideal graph of the motion-group algebra and its certificates.

The closure of the minimal primal ideals consists of two families indexed
by SO(n-1) signatures: the germ ideal of each half-line (the intersection
of the kernels of all classes whose restriction contains the signature)
and the kernels along the half-line itself, collapsed here to one
representative per signature since the parameter plays no role in the
graph.  Both are `dualspace.Point`s: a germ ideal is the germ point of
its signature, with the same id, and a line kernel has kind `LINE_KIND`.
Two sub-ideals are adjacent when their sum is proper: a line kernel is
maximal and therefore isolated, and two germ ideals are adjacent exactly
when some class restricts to both signatures, which is the closed-form
common-extension test.

Germ ideals are ordered by reverse inclusion of their hulls.  By
interleaving, a hull is a product of integer intervals, the first one
unbounded above (`signatures.hull_intervals`), so containment is an
exact O(k) interval test and minimality a closed form, with no
truncation.  The tests keep the containment test next to the truncated
hulls they enumerate as the brute-force oracle, and the sweep's
`min-primal-parity` check compares hulls on masks.

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

from .dualspace import GERM_KIND, LINE_KIND, Graph, Point, graph_to_dot, graph_to_json, overlap_masks, require_size
from .errors import CertificationError, ContextMismatch, PreconditionViolated
from .signatures import (
    GroupContext,
    Signature,
    Walk,
    _intern,
    _pad,
    common_extension,
    common_restriction,
    count_signatures,
    enumerate_signatures,
    hull_intervals,
    int_field,
    merge_max,
    restricts_to,
    walk_from_dict,
    walk_violations,
)


def ideal_points(n: int, bound: int) -> int:
    """The vertices of `sub_ideals(n, bound)`."""
    return 2 * count_signatures(n - 1, bound)


def sub_ideals(n: int, bound: int) -> list[Point]:
    """The vertices of `star_graph(n, bound)`, whose one build every caller
    shares: the germ ideals, then the line kernels."""
    return list(star_graph(n, bound).points)


def star_adjacent(I: Point, J: Point) -> bool:
    """True when the two sub-ideals sum to a proper ideal.  Reflexive; a
    line kernel is maximal, hence adjacent only to itself; two germ ideals
    are adjacent exactly when a common parent class exists."""
    if I.sig.ctx is not J.sig.ctx:
        raise ContextMismatch("sub-ideals live in different groups")
    if I == J:
        return True
    if I.kind == LINE_KIND or J.kind == LINE_KIND:
        return False
    return common_extension([I.sig, J.sig]) is not None


@lru_cache(maxsize=16)  # as `build_dual_model`; big_d, sub_ideals and the graph exports share a build
def star_graph(n: int, bound: int) -> Graph:
    """The sub-ideal graph: one germ ideal and one line kernel per SO(n-1)
    signature, the `Point`s of kinds `GERM_KIND` and `LINE_KIND`, with the
    adjacency of `star_adjacent`: line kernels are isolated, and two germ
    ideals are joined when their hulls meet, i.e. when their hull intervals
    overlap in every coordinate (the hull being the product of its
    intervals).  The germ rows come from sorted interval ends
    (`dualspace.overlap_masks`), not from a scan over germ pairs.  Its
    `distance` is the sub-ideal distance d* on the truncated vertex set."""
    if n < 3:
        raise PreconditionViolated("sub-ideal models need n >= 3")
    require_size(n, bound, ideal_points)
    sigmas = enumerate_signatures(n - 1, bound)
    rows = overlap_masks([hull_intervals(s) for s in sigmas])
    adj = [row & ~(1 << a) for a, row in enumerate(rows)]
    ideals = [Point(GERM_KIND, s) for s in sigmas] + [Point(LINE_KIND, s) for s in sigmas]
    return Graph(ideals, adj + [0] * len(adj))


def big_d(n: int, bound: int) -> int:
    """Largest diameter among the components of the sub-ideal graph, a
    singleton component counting 0.  For n = 2 the graph is edgeless apart
    from loops and the value is 0, with no model built."""
    if n < 2:
        raise PreconditionViolated("big_d needs n >= 2")
    if n == 2:
        return 0
    return star_graph(n, bound).diameter()


def min_primal(n: int, bound: int) -> list[Point]:
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
    return [i for i in ideals if i.kind == LINE_KIND or i.sig.entries[-1] == 0]


# ---------------------------------------------------------------------------
# merge certificates


@dataclass(frozen=True, slots=True)
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
    """Walk length of the merge construction: floor(n/4), less one unless
    n = 3 mod 4."""
    return n // 4 - (n % 4 != 3)


def target_count(n: int) -> int:
    """1 when the walks merge into a single class, 3 when they end in a
    triple of classes with a common restriction."""
    return 1 if n % 4 in (0, 3) else 3


@lru_cache(maxsize=64)  # a Fraction is immutable; `validate_certificate` asks once per certificate
def implied_k_bound(n: int) -> Fraction:
    steps = Fraction(claimed_steps(n))
    return steps + 1 if target_count(n) == 1 else steps + Fraction(3, 2)


@lru_cache(maxsize=64)
def expected_k_bound(n: int) -> Fraction:
    return Fraction((n + 1) // 2, 2)


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
    if any(s.ctx is not child for s in sigmas):
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
                tuple(_intern(st, parent) for st in states),
                tuple(_intern(w, child) for w in wits),
            )
        )

    targets = tuple(w.steps[-1] for w in walks)
    if triple:
        witness = _intern(_pad(P[: steps + 1], c), child)
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


@dataclass(frozen=True, slots=True)
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
    target primality through an independent feasibility run, a primal
    witness for three targets and none for one, optionally that
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
        if sigma.ctx is not child:
            bad.append(f"input {i} is not an {child} signature")
        elif container.ctx is not parent or not restricts_to(container, sigma):
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
        if common_restriction(cert.targets) is None:
            bad.append("targets have no common restriction (family not primal)")
    if target_count(n) == 1 and cert.primal_witness is not None:
        bad.append("single-target certificate carries a primal witness")
    if bound is not None:
        # no entry of a valid signature exceeds its first in absolute value
        if any(
            s.entries and abs(s.entries[0]) > bound
            for w in cert.walks
            for s in (*w.steps, *w.witnesses)
        ):
            bad.append(f"certificate leaves the truncation bound {bound}")

    implied = implied_k_bound(n)
    expected = expected_k_bound(n)
    if implied != expected:
        bad.append(f"implied bound {implied} differs from ceil(n/2)/2 = {expected}")
    return CertificateReport(not bad, tuple(bad), implied, expected)


def star_graph_to_json(n: int, bound: int) -> dict:
    return graph_to_json(star_graph(n, bound), n, bound, "ideals")


def star_graph_to_dot(n: int, bound: int) -> str:
    """Graphviz export: germ ideals as ellipses, line kernels as boxes."""
    return graph_to_dot(star_graph(n, bound), f"sub_so{n}_bound{bound}", GERM_KIND)
