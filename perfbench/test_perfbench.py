"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Planted faults (a tampered certificate, a shortened walk, a wrong Orc, a
failed sweep check) must each make operations fail, and a tiny run of
every workload must emit exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from motiondual import constants, primal, signatures, verification  # noqa: E402
from motiondual.verification import CheckResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(tmp_path):
    return lambda workload: workloads.run(workload, 3, "tiny", False, str(tmp_path))


@pytest.mark.parametrize("workload", ["sweep", "deep", "certs"])
def test_unplanted_tiny_run_has_no_failures(tiny, workload):
    record = tiny(workload)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]


def test_tampered_certificate_fails_even_when_the_library_accepts_it(tiny, monkeypatch):
    read_back = primal.certificate_from_dict
    validate = primal.validate_certificate

    def tampered(payload):
        payload["walks"][0]["witnesses"][0] = [7] * len(payload["walks"][0]["witnesses"][0])
        return read_back(payload)

    def accepts(cert, bound=None):
        return dataclasses.replace(validate(cert, bound), ok=True, violations=())

    monkeypatch.setattr(primal, "certificate_from_dict", tampered)
    monkeypatch.setattr(primal, "validate_certificate", accepts)
    record = tiny("certs")
    merges = sum(1 for kind, _, _ in workloads.certs_inputs(3, "tiny", ".")["ops"] if kind == "merge")
    assert record["failed"] == merges
    assert any("witness outside a branching set" in p for p in record["problems"])


def test_shortened_walk_fails(tiny, monkeypatch):
    walk = signatures.walk

    def shortened(a, b):
        w = walk(a, b)
        return signatures.Walk(w.steps[:-1], w.witnesses[:-1]) if w.length else w

    monkeypatch.setattr(signatures, "walk", shortened)
    record = tiny("certs")
    assert record["failed"] > 0
    assert any("endpoints" in p for p in record["problems"])


def test_wrong_orc_fails(tiny, monkeypatch):
    cross_check = constants.cross_check
    monkeypatch.setattr(
        constants, "cross_check", lambda n, b: dataclasses.replace(cross_check(n, b), orc_a=n // 2 + 1)
    )
    record = tiny("deep")
    assert record["failed"] == record["attempted"] > 0


def test_failed_sweep_check_fails(tiny, tmp_path, monkeypatch):
    def bad_orc(n, bound, rng=None):
        return CheckResult(n, "orc", False, "planted")

    checks = tuple(bad_orc if c is verification.check_orc else c for c in verification.CHECKS)
    monkeypatch.setattr(verification, "CHECKS", checks)
    record = tiny("sweep")
    assert record["failed"] == record["attempted"]  # exit 2: no row counts
    assert not list(tmp_path.iterdir())


def test_oracle_agrees_with_the_library_on_small_groups():
    for n, bound in itertools.product(range(3, 9), range(0, 4)):
        sigs = signatures.enumerate_signatures(n, bound)
        assert oracle.count_signatures(n, bound) == len(sigs)
        children = signatures.enumerate_signatures(n - 1, bound + 1)
        for pi, sigma in itertools.product(sigs, children):
            assert oracle.interleaves(n, pi.entries, sigma.entries) == signatures.restricts_to(pi, sigma)
        for a, b in itertools.product(sigs, sigs):
            child = oracle.lowest_common_child(n, a.entries, b.entries)
            meet = oracle.interleaves(n, a.entries, child) and oracle.interleaves(n, b.entries, child)
            assert meet == signatures.inseparable(a, b)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "certs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
