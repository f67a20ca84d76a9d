"""Command-line front end: reports, graph exports, certificates, verify sweep.

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import chains as chains_mod
from . import constants as constants_mod
from . import primal as primal_mod
from . import verification
from .dualspace import (
    CLASS_KIND,
    Point,
    build_dual_model,
    distance,
    dual_model_to_dot,
    dual_model_to_json,
)
from .errors import CertificationError, MotionDualError, PreconditionViolated, TheoremViolation
from .signatures import int_field, parse_entries, validate, walk, walk_violations


class _UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def resolve_bound(n: int, bound: int | None) -> int:
    if bound is not None and bound < 0:
        raise PreconditionViolated("bound must be >= 0")
    return verification.default_bound(n) if bound is None else bound


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionViolated(f"cannot write {output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def cmd_report(args) -> int:
    if args.n == 2:
        report = constants_mod.predict(2)
    else:
        try:
            report = constants_mod.cross_check(args.n, resolve_bound(args.n, args.bound))
        except TheoremViolation as exc:
            report = getattr(exc, "report", None)
            if report is not None and args.format == "json":
                _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    else:
        _emit(constants_mod.render_table([report]), args.output)
    return 0


def cmd_graph(args) -> int:
    bound = resolve_bound(args.n, args.bound)
    if args.kind == "dual":
        model = build_dual_model(args.n, bound)
        text = (
            dual_model_to_dot(model)
            if args.format == "dot"
            else json.dumps(dual_model_to_json(model), indent=2) + "\n"
        )
    else:
        text = (
            primal_mod.star_graph_to_dot(args.n, bound)
            if args.format == "dot"
            else json.dumps(primal_mod.star_graph_to_json(args.n, bound), indent=2) + "\n"
        )
    _emit(text, args.output)
    return 0


def cmd_distance(args) -> int:
    bound = resolve_bound(args.n, args.bound)
    a = validate(parse_entries(args.sig1), args.n)
    b = validate(parse_entries(args.sig2), args.n)
    model = build_dual_model(args.n, max(bound, *(abs(e) for s in (a, b) for e in s.entries), 1))
    x, y = Point(CLASS_KIND, a), Point(CLASS_KIND, b)
    d = distance(model, x, y)
    lines = [f"distance: {d}"]
    payload = {"n": args.n, "from": str(a), "to": str(b), "distance": d}
    if args.certificates:
        w = walk(a, b)
        lines.append(f"walk upper bound: {w.length}")
        payload["walk_upper_bound"] = w.length
        payload["walk"] = w.to_dict()
        lb = chains_mod.chain_for_distance(model, x, y, int(d))[1] if d >= 1 else 0
        lines.append(f"chain lower bound: {lb}")
        payload["chain_lower_bound"] = lb
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_walk(args) -> int:
    a = validate(parse_entries(args.sig1), args.n)
    b = validate(parse_entries(args.sig2), args.n)
    w = walk(a, b)
    payload = w.to_dict()
    payload["valid"] = not walk_violations(w)
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    if not payload["valid"]:
        return 2
    return 0


def _same_as_file(args, **fields) -> None:
    """Refuse an --n or --bound given with --check that differs from the
    value the checked file holds; n and the bound come from the file."""
    for name, value in fields.items():
        given = getattr(args, name)
        if given is not None and given != value:
            raise PreconditionViolated(f"--{name} {given} differs from {name} = {value} in {args.check}")


def cmd_chain(args) -> int:
    if args.check:
        model, chain, x, y, restrict, length = _read_json_file(args.check, "chain", _chain_from_payload)
        _same_as_file(args, n=model.n, bound=model.bound)
        rep = chains_mod.validate_chain(model, chain)
        bad = list(rep.violations)
        if length != chain.length:
            bad.append(f"length {length} differs from the {chain.length} sets")
        if rep.valid and x is not None and y is not None:
            bad += chains_mod.witness_violations(model, chain, x, y, restrict)
        if bad:
            print("invalid chain: " + "; ".join(bad), file=sys.stderr)
            return 2
        if x is not None and y is not None:
            lb = chains_mod.chain_lower_bound(model, chain, x, y, restrict_to_class=restrict)
            print(f"chain of length {chain.length} certifies distance >= {lb}")
        else:
            print(f"chain of length {chain.length} is valid")
        return 0
    if args.n is None:
        raise PreconditionViolated("chain needs --n (or --check FILE)")
    if args.sig1 is None or args.sig2 is None:
        raise PreconditionViolated("chain needs two signatures (or --check FILE)")
    if args.k is not None and args.k < 1:
        raise PreconditionViolated(f"--k must be at least 1, got {args.k}")
    a = validate(parse_entries(args.sig1), args.n)
    b = validate(parse_entries(args.sig2), args.n)
    bound = resolve_bound(args.n, args.bound)
    if above := [s for s in (a, b) if max(map(abs, s.entries), default=0) > bound]:
        raise PreconditionViolated(f"signature {above[0]} has an entry above --bound {bound}")
    model = build_dual_model(args.n, bound)
    x, y = Point(CLASS_KIND, a), Point(CLASS_KIND, b)
    k = args.k
    if k is None:
        k = int(distance(model, x, y))
    if k < 1 or (k == 1 and a == b):
        raise PreconditionViolated("no chain certificate for coinciding classes")
    chain, lb = chains_mod.chain_for_distance(model, x, y, k)
    payload = chains_mod.chain_to_json(model, chain, x, y)
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    if args.output:
        print(f"chain certifying distance >= {lb} written to {args.output}")
    return 0


def _read_json_file(path: str, kind: str, parse):
    """Load a JSON object from `path` and return `parse(payload)`.

    A file that cannot be read or parsed is a usage error (exit 1), not a
    verification failure.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError("top level is not a JSON object")
        return parse(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PreconditionViolated(
            f"cannot parse {kind} file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _chain_from_payload(payload: dict):
    model = build_dual_model(int_field(payload, "n"), int_field(payload, "bound"))
    return (model, *chains_mod.chain_from_json(model, payload), int_field(payload, "length"))


def _certificate_from_payload(payload: dict) -> primal_mod.MergeCertificate:
    """A merge certificate, bare or wrapped as {"certificate": ..., "report": ...}."""
    return primal_mod.certificate_from_dict(payload.get("certificate", payload))


def cmd_certify(args) -> int:
    if args.check:
        cert = _read_json_file(args.check, "certificate", _certificate_from_payload)
        _same_as_file(args, n=cert.n)
        report = primal_mod.validate_certificate(cert)
        if not report.ok:
            print("certificate invalid: " + "; ".join(report.violations), file=sys.stderr)
            return 2
        print(f"certificate valid; implied bound {report.implied_bound}")
        return 0
    if args.n is None:
        raise PreconditionViolated("certify needs --n (or --check FILE)")
    if args.sig1 is None or args.sig2 is None or args.sig3 is None:
        raise PreconditionViolated("certify needs three signatures (or --check FILE)")
    child = args.n - 1
    triple = tuple(validate(parse_entries(t), child) for t in (args.sig1, args.sig2, args.sig3))
    cert = primal_mod.merge_certificate(args.n, *triple)
    report = primal_mod.validate_certificate(cert)
    payload = {"certificate": cert.to_dict(), "report": report.to_dict()}
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    if not report.ok:
        print("certificate invalid: " + "; ".join(report.violations), file=sys.stderr)
        return 2
    if args.output:
        print(
            f"certificate with {cert.claimed_n}-step walks and implied bound "
            f"{report.implied_bound} written to {args.output}"
        )
    return 0


def _require_writable(output: str | None) -> None:
    """Refuse, before a long run, an `output` that `_emit` could not open
    for the two reasons seen: it is a directory, or its parent directory is
    missing.  Creates nothing; `_emit` maps every other failure."""
    if not output:
        return
    if os.path.isdir(output):
        reason = errno.EISDIR
    elif not os.path.exists(os.path.dirname(os.path.abspath(output))):
        reason = errno.ENOENT
    else:
        return
    raise PreconditionViolated(f"cannot write {output}: {os.strerror(reason)}")


def cmd_verify(args) -> int:
    _require_writable(args.output)
    summary = verification.run_sweep(
        args.n_min, args.n_max, bound=args.bound, seed=args.seed, jobs=args.jobs
    )
    if args.format == "json":
        _emit(json.dumps(summary.to_dict(), indent=2) + "\n", args.output)
    else:
        _emit(summary.render(), args.output)
    return 0 if summary.ok else 2


def build_parser() -> Parser:
    parser = Parser(prog="motiondual", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_bound=True, checks_file=False):
        # a command that re-checks a file reads n from it
        p.add_argument("--n", type=int, required=not checks_file, help="dimension of the motion group")
        if with_bound:
            p.add_argument("--bound", type=int, default=None, help="truncation bound (default 3, 1 for n >= 10)")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p = sub.add_parser("report", help="constants report for one n")
    add_common(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("graph", help="export the dual or sub-ideal graph")
    add_common(p)
    p.add_argument("--kind", choices=("dual", "sub"), default="dual")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("distance", help="class-restricted graph distance")
    add_common(p)
    p.add_argument("sig1")
    p.add_argument("sig2")
    p.add_argument("--certificates", action="store_true", help="also emit walk and chain bounds")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("walk", help="explicit bounded-length walk between two classes")
    add_common(p, with_bound=False)
    p.add_argument("sig1")
    p.add_argument("sig2")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("chain", help="admissible chain certificate between two classes")
    add_common(p, checks_file=True)
    p.add_argument("sig1", nargs="?")
    p.add_argument("sig2", nargs="?")
    p.add_argument("--k", type=int, default=None, help="chain length (default: the distance)")
    p.add_argument("--check", default=None, help="re-verify a chain certificate file (n and bound from the file)")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("certify", help="merge certificate for three germ signatures")
    add_common(p, with_bound=False, checks_file=True)
    p.add_argument("sig1", nargs="?")
    p.add_argument("sig2", nargs="?")
    p.add_argument("sig3", nargs="?")
    p.add_argument("--check", default=None, help="re-verify a merge certificate file (n from the file)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="full verification sweep")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except MotionDualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CertificationError) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
