"""The benchmark's own oracle.  It imports nothing from motiondual.

Every check works on plain entry lists and JSON payloads, so a defect in
the library cannot hide behind the same defect in its checker.  Each
function returns a list of problems; an empty list means the output
agrees with the oracle.
"""

from __future__ import annotations

from fractions import Fraction


def interleaves(n: int, parent: list[int], child: list[int]) -> bool:
    """Branching rule SO(n) -> SO(n-1), written out directly.

    n = 2k+1: m1 >= s1 >= m2 >= ... >= mk >= |sk|   (k child entries)
    n = 2k:   m1 >= s1 >= m2 >= ... >= s_{k-1} >= |mk|   (k-1 child entries)
    """
    m, s = list(parent), list(child)
    k = n // 2
    if len(m) != k:
        return False
    if n % 2:
        return (
            len(s) == k
            and all(m[i] >= s[i] for i in range(k))
            and all(s[i] >= m[i + 1] for i in range(k - 1))
            and m[k - 1] >= abs(s[k - 1])
        )
    return (
        len(s) == k - 1
        and all(m[i] >= s[i] for i in range(k - 1))
        and all(s[i] >= m[i + 1] for i in range(k - 2))
        and s[k - 2] >= abs(m[k - 1])
    )


def lowest_common_child(n: int, a: list[int], b: list[int]) -> list[int]:
    """The smallest candidate SO(n-1) signature under both parents; the two
    restrictions meet iff this candidate interleaves both."""
    k = n // 2
    if n % 2:
        return [max(a[i + 1], b[i + 1]) for i in range(k - 1)] + [0]
    return [max(a[i + 1], b[i + 1]) for i in range(k - 2)] + [max(abs(a[k - 1]), abs(b[k - 1]))]


def lowest_common_parent(n: int, a: list[int], b: list[int]) -> list[int]:
    """The smallest candidate SO(n+1) signature over both SO(n) children; a
    common parent exists iff this candidate interleaves both."""
    k = n // 2
    if n % 2 == 0:
        return [max(a[i], b[i]) for i in range(k - 1)] + [max(abs(a[k - 1]), abs(b[k - 1]))]
    return [max(a[i], b[i]) for i in range(k)] + [0]


def walk_problems(n: int, walk: dict, start: list[int], end: list[int], max_len: int | None) -> list[str]:
    """A walk payload {"n", "steps", "witnesses"} from `start` to `end`."""
    steps, wits = walk["steps"], walk["witnesses"]
    bad = []
    if walk["n"] != n:
        bad.append(f"walk is for n={walk['n']}, not {n}")
    if not steps or list(steps[0]) != list(start) or list(steps[-1]) != list(end):
        bad.append("walk endpoints differ from the requested pair")
    if len(wits) != len(steps) - 1:
        bad.append("walk has the wrong number of witnesses")
    if max_len is not None and len(steps) - 1 > max_len:
        bad.append(f"walk of length {len(steps) - 1} exceeds {max_len}")
    for i, w in enumerate(wits):
        if not (interleaves(n, steps[i], w) and interleaves(n, steps[i + 1], w)):
            bad.append(f"walk step {i + 1} has a witness outside a branching set")
    return bad


def pair_problems(n: int, a: list[int], b: list[int], out: dict) -> list[str]:
    """Walk, inseparability and common extension for one class pair."""
    bad = walk_problems(n, out["walk"], a, b, n // 2)
    if out["walk_violations"]:
        bad.append("library re-check rejected the walk: " + "; ".join(out["walk_violations"]))
    child = lowest_common_child(n, a, b)
    if out["inseparable"] != (interleaves(n, a, child) and interleaves(n, b, child)):
        bad.append(f"inseparable={out['inseparable']} disagrees with the interleaving test")
    parent = lowest_common_parent(n, a, b)
    exists = interleaves(n + 1, parent, a) and interleaves(n + 1, parent, b)
    ext = out["common_extension"]
    if (ext is not None) != exists:
        bad.append(f"common extension {'found' if ext is not None else 'missing'} against the oracle")
    elif ext is not None and not (interleaves(n + 1, ext, a) and interleaves(n + 1, ext, b)):
        bad.append("common extension does not restrict to both inputs")
    return bad


def expected_k(n: int) -> Fraction:
    """K(M) = K_s(M) = ceil(n/2)/2."""
    return Fraction((n + 1) // 2, 2)


def certificate_problems(n: int, inputs: list[list[int]], out: dict) -> list[str]:
    """A merge certificate payload, read after its JSON round trip."""
    cert = out["certificate"]
    bad = []
    if cert["n"] != n or [list(e) for e in cert["inputs"]] != [list(e) for e in inputs]:
        bad.append("certificate is for other inputs")
    for i, (sigma, container) in enumerate(zip(cert["inputs"], cert["containers"]), start=1):
        if not interleaves(n, container, sigma):
            bad.append(f"container {i} does not contain input {i}")
    targets = cert["targets"]
    lengths = set()
    for i, w in enumerate(cert["walks"]):
        end = targets[0] if len(targets) == 1 else targets[i]
        bad += [f"walk {i + 1}: {p}" for p in walk_problems(n, w, cert["containers"][i], end, None)]
        lengths.add(len(w["steps"]) - 1)
    if not out["round_trip_equal"]:
        bad.append("certificate changed in its JSON round trip")
    if not out["report_ok"]:
        bad.append("library re-check rejected the certificate")
    if len(cert["walks"]) != 3 or len(lengths) != 1 or len(targets) not in (1, 3):
        bad.append("certificate does not have three walks of one length and 1 or 3 targets")
        return bad
    if len(targets) == 3:
        wit = cert["primal_witness"]
        if wit is None or not all(interleaves(n, t, wit) for t in targets):
            bad.append("targets share no restriction")
    steps = Fraction(lengths.pop())
    implied = steps + 1 if len(targets) == 1 else steps + Fraction(3, 2)
    if implied != expected_k(n) or Fraction(out["implied_bound"]) != implied:
        bad.append(f"implied bound {out['implied_bound']} is not ceil(n/2)/2 = {expected_k(n)}")
    return bad


def count_signatures(n: int, bound: int) -> int:
    """SO(n) signatures with leading entry <= bound, n >= 3, counted by
    the weakly decreasing tuples in [0, bound]; for even n a nonzero last
    entry also comes negated."""
    k = n // 2
    ends = [1] * (bound + 1)  # tuples of length 1 ending in each value
    for _ in range(k - 1):
        ends = [sum(ends[v:]) for v in range(bound + 1)]
    if n % 2:
        return sum(ends)
    return ends[0] + 2 * sum(ends[1:])


def point_problems(n: int, bound: int, out: dict) -> list[str]:
    """A deep grid point: closed formulas for Orc, D, Orc(M), K and the
    min-primal parity, plus both certificate re-checks."""
    k = n // 2
    d = (n - 1) // 2 if n % 2 else n // 2 - 1
    rep = out["report"]
    bad = []
    if rep["orc_a"] != k or out["class_components"] != 1:
        bad.append(f"Orc={rep['orc_a']} with {out['class_components']} components, want {k} with 1")
    if rep["d_a"] != d or rep["orc_ma"] != d + 1:
        bad.append(f"D={rep['d_a']}, Orc(M)={rep['orc_ma']}, want {d} and {d + 1}")
    if Fraction(rep["k_ma"]) != expected_k(n) or Fraction(rep["ks_ma"]) != expected_k(n):
        bad.append(f"K={rep['k_ma']}, K_s={rep['ks_ma']}, want {expected_k(n)}")
    total = 2 * count_signatures(n - 1, bound)
    if out["sub_ideals"] != total:
        bad.append(f"{out['sub_ideals']} sub-ideals, want {total}")
    if (out["minimal"] < total) != (n % 2 == 1):
        bad.append(f"{out['minimal']}/{total} minimal breaks the parity law")
    if not out["chain_valid"] or out["chain_lower_bound"] != max(k, 1) or out["chain_length"] != max(k, 1):
        bad.append("chain certificate failed its re-check")
    if not out["merge_ok"] or Fraction(out["merge_implied"]) != expected_k(n):
        bad.append("merge certificate failed its re-check")
    return bad


SWEEP_CHECKS = (
    "oracle-inseparable",
    "oracle-common-extension",
    "oracle-restriction",
    "zero-tail-dual",
    "zero-tail-star",
    "orc",
    "big-d",
    "min-primal-parity",
    "constants-cross-check",
    "walk-validity",
    "chain-lemma",
    "merge-certificates",
    "germ-mediation",
    "distance-stability",
)


def sweep_problems(n_min: int, n_max: int, exit_code: int, payload: dict | None) -> list[str]:
    """`verify --format json`: exit 0 and one ok-or-skipped row per
    (n, check); returns one entry per failed row."""
    if exit_code != 0 or payload is None:
        return [f"verify exited {exit_code}"]
    rows = {(r["n"], r["check"]): r for r in payload["results"]}
    bad = []
    for n in range(n_min, n_max + 1):
        for name in SWEEP_CHECKS:
            r = rows.get((n, name))
            if r is None:
                bad.append(f"n={n} {name}: missing")
            elif not (r["ok"] or r["skipped"]):
                bad.append(f"n={n} {name}: {r['detail']}")
    if len(rows) != len(payload["results"]) or len(rows) != (n_max - n_min + 1) * len(SWEEP_CHECKS):
        bad.append("verify emitted unexpected or duplicate rows")
    return bad
