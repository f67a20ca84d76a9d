"""The workloads: seeded inputs, timed runs and their oracle checks.

`sample.py` runs one workload once per process, so the library's
process-wide caches start cold exactly as they do for every `motiondual`
invocation.  Inputs come from the seed alone; the library sees only the
generated inputs.  Every output is checked by `oracle.py` after the timed
region.  A sample prints one JSON line describing the run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import motiondual
import oracle
from motiondual import chains, cli, constants, dualspace, primal, signatures, verification

CERT_BOUND = 2

# Inputs per size.  "full" is what the benchmark measures; "tiny" exists so
# the benchmark's own tests can run every workload in a second or two.
SIZES = {
    "full": {
        "sweep": (3, 12),
        # (6, 8) is left out: components_and_orc alone takes about 14 s there
        "deep": ((8, 5), (5, 12), (6, 6), (24, 2)),
        "certs": (13, 40, 25),  # n range and ops of each kind per n
    },
    "tiny": {
        "sweep": (3, 5),
        "deep": ((4, 2), (5, 2)),
        "certs": (13, 16, 3),
    },
}


def random_entries(rng: random.Random, n: int, bound: int) -> list[int]:
    """A seeded SO(n) signature with entries in [-bound, bound]."""
    entries = sorted((rng.randint(0, bound) for _ in range(n // 2)), reverse=True)
    if n % 2 == 0 and entries[-1] and rng.random() < 0.5:
        entries[-1] = -entries[-1]
    return entries


# -- inputs -----------------------------------------------------------------


def sweep_inputs(seed: int, size: str, workdir: str) -> dict:
    n_min, n_max = SIZES[size]["sweep"]
    out = os.path.join(workdir, f"verify-{os.getpid()}.json")
    argv = ["verify", "--n-min", str(n_min), "--n-max", str(n_max), "--seed", str(seed),
            "--jobs", "1", "--format", "json", "--output", out]
    return {"argv": argv, "n_min": n_min, "n_max": n_max, "output": out, "grid": [n_min, n_max]}


def deep_inputs(seed: int, size: str, workdir: str) -> dict:
    grid = list(SIZES[size]["deep"])
    random.Random(f"deep:{seed}").shuffle(grid)
    return {"points": grid, "grid": grid}


def certs_inputs(seed: int, size: str, workdir: str) -> dict:
    n_lo, n_hi, per_n = SIZES[size]["certs"]
    rng = random.Random(f"certs:{seed}")
    ops = []
    for n in range(n_lo, n_hi + 1):
        for _ in range(per_n):
            ops.append(("merge", n, [random_entries(rng, n - 1, CERT_BOUND) for _ in range(3)]))
            ops.append(("pair", n, [random_entries(rng, n, CERT_BOUND) for _ in range(2)]))
    rng.shuffle(ops)
    ctx = {}
    sigs = []
    for kind, n, entries in ops:
        group = n - 1 if kind == "merge" else n
        ctx.setdefault(group, signatures.GroupContext(group))
        sigs.append([signatures.Signature(tuple(e), ctx[group]) for e in entries])
    return {"ops": ops, "sigs": sigs, "grid": [n_lo, n_hi, per_n, CERT_BOUND]}


# -- timed runs ---------------------------------------------------------------
# Each times its operations on `now` and returns (per-operation seconds, raw
# outputs for the oracle).  Library calls go through module attributes so
# that tests and the tracer can replace them.


def run_sweep(inputs: dict, now, check_seconds: dict):
    ops = []

    def timed(check):
        def run(*args):
            t0 = now()
            result = check(*args)
            dur = now() - t0
            ops.append(dur)
            check_seconds[result.name] = check_seconds.get(result.name, 0.0) + dur
            return result
        return run

    checks = verification.CHECKS
    verification.CHECKS = tuple(timed(c) for c in checks)
    try:
        code = cli.main(inputs["argv"])
    except Exception as exc:  # the verdict is a failure, not a crashed benchmark
        code = f"raised {exc!r}"
    finally:
        verification.CHECKS = checks
    return ops, code


def deep_point(n: int, bound: int):
    payload = json.loads(json.dumps(constants.cross_check(n, bound).to_dict()))
    minimal = primal.min_primal(n, bound)
    model = dualspace.build_dual_model(n, bound)
    partition = dualspace.glimm_partition(model)
    chain, x, y, restrict = chains.chain_from_json(model, payload["certificates"]["chain"])
    chain_ok = chains.validate_chain(model, chain).valid
    lower = chains.chain_lower_bound(model, chain, x, y, restrict_to_class=restrict) if chain_ok else None
    cert = primal.certificate_from_dict(payload["certificates"]["merge"])
    merge = primal.validate_certificate(cert, bound)
    return {
        "report": payload,
        "class_components": partition.class_blocks,
        "minimal": len(minimal),
        "sub_ideals": len(primal.sub_ideals(n, bound)),
        "chain_valid": chain_ok,
        "chain_length": chain.length,
        "chain_lower_bound": lower,
        "merge_ok": merge.ok,
        "merge_implied": str(merge.implied_bound),
    }


def run_deep(inputs: dict, now, check_seconds: dict):
    ops, outs = [], []
    for n, bound in inputs["points"]:
        t0 = now()
        try:
            out = deep_point(n, bound)
        except Exception as exc:  # counted as a failed operation
            out = f"raised {exc!r}"
        ops.append(now() - t0)
        outs.append(out)
    return ops, outs


def run_certs(inputs: dict, now, check_seconds: dict):
    ops, outs = [], []
    for (kind, n, _), sigs in zip(inputs["ops"], inputs["sigs"]):
        t0 = now()
        try:
            if kind == "merge":
                cert = primal.merge_certificate(n, *sigs)
                text = json.dumps(cert.to_dict())
                back = primal.certificate_from_dict(json.loads(text))
                out = (text, back, primal.validate_certificate(back, CERT_BOUND))
            else:
                a, b = sigs
                w = signatures.walk(a, b)
                out = (w, signatures.walk_violations(w), signatures.inseparable(a, b),
                       signatures.common_extension([a, b]))
        except Exception as exc:  # counted as a failed operation
            out = f"raised {exc!r}"
        ops.append(now() - t0)
        outs.append(out)
    return ops, outs


# -- oracle -------------------------------------------------------------------


def sweep_problems(inputs: dict, code) -> list[list[str]]:
    payload = None
    if code == 0:
        with open(inputs["output"]) as fh:
            payload = json.load(fh)
    if os.path.exists(inputs["output"]):
        os.remove(inputs["output"])
    rows = (inputs["n_max"] - inputs["n_min"] + 1) * len(oracle.SWEEP_CHECKS)
    bad = oracle.sweep_problems(inputs["n_min"], inputs["n_max"], code, payload)
    if payload is None:
        return [bad] * rows  # no verdict: every row failed
    return [[p] for p in bad] + [[]] * (rows - len(bad))


def deep_problems(inputs: dict, outs: list) -> list[list[str]]:
    return [
        [out] if isinstance(out, str) else oracle.point_problems(n, bound, out)
        for (n, bound), out in zip(inputs["points"], outs)
    ]


def certs_problems(inputs: dict, outs: list) -> list[list[str]]:
    problems = []
    for (kind, n, entries), out in zip(inputs["ops"], outs):
        if isinstance(out, str):
            problems.append([out])
        elif kind == "merge":
            text, back, report = out
            read = back.to_dict()
            problems.append(oracle.certificate_problems(n, entries, {
                "certificate": read,
                "round_trip_equal": read == json.loads(text),
                "report_ok": report.ok,
                "implied_bound": str(report.implied_bound),
            }))
        else:
            w, violations, insep, ext = out
            a, b = entries
            problems.append(oracle.pair_problems(n, a, b, {
                "walk": w.to_dict(),
                "walk_violations": list(violations),
                "inseparable": insep,
                "common_extension": list(ext.entries) if ext is not None else None,
            }))
    return problems


WORKLOADS = {
    "sweep": (sweep_inputs, run_sweep, sweep_problems),
    "deep": (deep_inputs, run_deep, deep_problems),
    "certs": (certs_inputs, run_certs, certs_problems),
}


def run(workload: str, seed: int, size: str, trace: bool, workdir: str, now=time.perf_counter) -> dict:
    """One run in this process, timed on `now`; returns the record that
    `run.py` aggregates."""
    make_inputs, timed_run, problems_of = WORKLOADS[workload]
    inputs = make_inputs(seed, size, workdir)
    tracer = None
    if trace:
        from trace_layers import Tracer

        tracer = Tracer(now)
        tracer.install()
    check_seconds: dict = {}
    try:
        t_first = now()
        wall = time.perf_counter()
        ops, outs = timed_run(inputs, now, check_seconds)
        run_s = now() - t_first
        wall = time.perf_counter() - wall
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = problems_of(inputs, outs)
    failed = [p for p in problems if p]
    return {
        "t_first": t_first,
        "run_s": run_s,
        "wall_run_s": wall,
        "op_s": ops,
        "attempted": len(problems),
        "failed": len(failed),
        "problems": [p for ps in failed[:5] for p in ps[:2]],
        "layers": tracer.metrics(check_seconds) if tracer is not None else None,
        "grid": inputs["grid"],
    }


def main(clock, t_start: float) -> int:
    """Entry of a sample process (`sample.py`); `clock` is already running."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop before the timed region")
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(motiondual.__file__).startswith(src + os.sep):
        print(f"motiondual imported from {motiondual.__file__}, not from {src}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            WORKLOADS[args.workload][0](args.seed, args.size, args.workdir)
            record = {"t_first": clock.now()}
        else:
            record = run(args.workload, args.seed, args.size, bool(args.trace), args.workdir, clock.now)
    finally:
        clock.stop()
    record["t_start"] = t_start
    record["first_factor"] = clock.first_factor
    record["version"] = motiondual.__version__
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0
