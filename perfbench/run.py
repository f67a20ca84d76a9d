"""The motiondual benchmark.

    python3 perfbench/run.py --workload certs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A closed loop with one client and one job: samples run one after another,
each in a fresh interpreter started from `perfbench/sample.py`, so the
library's caches start cold in every sample, as they do for every
`motiondual` invocation.  Samples are taken until the next one would end
after `--seconds`, and at least two are taken.  Each sample times itself
on the calibrated clock of `clock.py`, so a busier machine does not move
the figures.  Every metric is the median over the run's samples; operation
latencies take each operation's median over the samples first.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
samples alternate between untraced and traced; the traced ones report the
per-layer metrics, and the difference of the two kinds' `run_s` medians is
the tracing overhead.  Counters must repeat exactly across traced samples.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit 0 when every sample ran (even
if its outputs disagreed with the oracle, which makes `correct` false);
exit 2 without a result when the program could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "deep", "certs")
MIN_SAMPLES = 2
SETUP_SAMPLES = 7
EXACT = (".calls", ".visited", ".points", ".lookups")  # counters that must repeat exactly
DEADLINE_S = 170  # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
OPERATION = {
    "sweep": "one check for one n of `motiondual verify`",
    "deep": "one grid point: cross_check, min_primal and both certificate re-checks",
    "certs": "one merge certificate or class-pair walk issued and re-checked",
}


class SampleFailed(Exception):
    pass


def git_commit() -> str:
    """The commit of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MOTIONDUAL_JOBS", None)  # a stray value would start a process pool
    env["PYTHONPATH"] = SRC
    return env


def sample(workload: str, seed: int, size: str, workdir: str, deadline: float,
           trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"{workload} sample did not finish before the deadline") from None
    if proc.returncode != 0:
        raise SampleFailed(f"{workload} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    # interpreter start-up, before the sample's clock ran, at its first rate
    record["setup_s"] = (record["t_start"] - t_spawn) * record["first_factor"] + record["t_first"]
    return record


def take_samples(workload, seed, size, seconds, trace, workdir) -> tuple[list[dict], list[float]]:
    """Timed samples until the next would end after `seconds`, and at least
    MIN_SAMPLES; traced runs take them in (untraced, traced) pairs.  An
    untraced run tops its set-up times up to SETUP_SAMPLES with samples
    that stop before their timed region."""
    pattern = (False, True) if trace else (False,)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    records, rounds = [], []
    while len(rounds) < MIN_SAMPLES or time.monotonic() - start + statistics.median(rounds) <= seconds:
        t0 = time.monotonic()
        for traced in pattern:
            records.append(sample(workload, seed, size, workdir, deadline, trace=traced) | {"traced": traced})
        rounds.append(time.monotonic() - t0)
    setups = [r["setup_s"] for r in records if not r["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(sample(workload, seed, size, workdir, deadline, setup_only=True)["setup_s"])
    return records, setups


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least `pct`
    percent of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def summarize(workload: str, seed: int, size: str, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        records, setups = take_samples(workload, seed, size, seconds, trace, workdir)
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    problems = [p for r in records for p in r["problems"]]
    if len({len(r["op_s"]) for r in records}) != 1:
        problems.append("samples of one seed ran different numbers of operations")
    if trace:
        metrics = {k: (traced[0]["layers"][k] if k.endswith(EXACT) else
                       statistics.median(r["layers"][k] for r in traced)) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
        units = {k: layer_unit(k) for k in metrics}
        for k in metrics:
            if k.endswith(EXACT) and len({r["layers"][k] for r in traced}) != 1:
                problems.append(f"count {k} differs between traced samples of one seed")
    else:
        # each operation's median time over the samples, which repeat the
        # same operations in the same order
        ops = [statistics.median(times) for times in zip(*(r["op_s"] for r in plain))]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": median_of(plain, "run_s"),
            "op_p50_ms": 1000 * statistics.median(ops),
            "op_p99_ms": 1000 * percentile(ops, 99),
            "peak_rss_mb": median_of(plain, "rss_mb"),
        }
        units = E2E_UNITS
    failed = sum(r["failed"] for r in records)
    return {
        "workload": workload,
        "plain": plain,
        "traced": traced,
        "setups": len(setups),
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "problems": problems,
        "correct": failed == 0 and not problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "provenance": {
            "package": records[0]["version"],
            "commit": git_commit(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workload": workload,
            "seed": seed,
            "size": size,
            "grid": records[0]["grid"],
            "seconds": seconds,
            "trace": int(trace),
            "samples": len(records),
        },
    }


def layer_unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def render(summary: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    plain, traced = summary["plain"], summary["traced"]
    ops = len(plain[0]["op_s"])
    wall = median_of(plain, "wall_run_s")
    notes = {
        "setup_s": f"median of {summary['setups']} cold starts: interpreter, import, inputs",
        "run_s": f"median of {len(plain)} samples, {ops} operations each; wall clock {wall:.4g} s",
        "op_p50_ms": f"median over {ops} operations of each one's median in {len(plain)} samples; "
        f"operation: {OPERATION[summary['workload']]}",
        "op_p99_ms": f"nearest-rank p99 of the same {ops} times, {ops + (-99 * ops // 100)} beyond it",
        "peak_rss_mb": f"median ru_maxrss of {len(plain)} sample processes",
    }
    lines = ["provenance " + json.dumps(summary["provenance"]),
             "times are in reference seconds of perfbench/clock.py"]
    for name, m in summary["metrics"].items():
        note = notes.get(name, f"median of {len(traced)} traced samples")
        lines.append(f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} {note}")
    attempted, failed = summary["attempted"], summary["failed"]
    lines.append(f"{'error_rate':<42} {failed / attempted:>14.6g} ratio  "
                 f"{failed} of {attempted} operations attempted raised or disagreed with the oracle")
    lines += [f"problem: {p}" for p in summary["problems"][:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "motiondual", "__init__.py")):
        print(f"no motiondual sources under {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for w in workloads:
        try:
            summary = summarize(w, args.seed, args.size, args.seconds, bool(args.trace))
        except SampleFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        summaries.append(summary)
        print("\n".join(render(summary)), flush=True)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
