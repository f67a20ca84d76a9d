"""Layer spans and counters, recorded from outside the library.

Each traced public function is replaced, in every motiondual module that
binds it, by a wrapper that counts calls and times a span.  A span's self
time is its duration minus the time covered by spans it caused, so nested
layers are not counted twice.  Nothing in the library is edited.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

from oracle import SWEEP_CHECKS

# metric name -> (span, kind); kind "calls", "self_s" or a counter name
LAYER_METRICS = {
    "signatures.enumerate.calls": ("signatures.enumerate", "calls"),
    "signatures.enumerate.self_s": ("signatures.enumerate", "self_s"),
    "signatures.closed_form.calls": ("signatures.closed_form", "calls"),
    "signatures.closed_form.self_s": ("signatures.closed_form", "self_s"),
    "signatures.walk.calls": ("signatures.walk", "calls"),
    "signatures.walk.self_s": ("signatures.walk", "self_s"),
    "signatures.branch.self_s": ("signatures.branch", "self_s"),
    "dualspace.build.calls": ("dualspace.build", "calls"),
    "dualspace.build.self_s": ("dualspace.build", "self_s"),
    "dualspace.build.points": ("dualspace.build", "points"),
    "dualspace.bfs.calls": ("dualspace.bfs", "calls"),
    "dualspace.bfs.self_s": ("dualspace.bfs", "self_s"),
    "dualspace.bfs.visited": ("dualspace.bfs", "visited"),
    "dualspace.orc.self_s": ("dualspace.orc", "self_s"),
    "chains.find.calls": ("chains.find", "calls"),
    "chains.find.self_s": ("chains.find", "self_s"),
    "chains.separate.calls": ("chains.separate", "calls"),
    "chains.separate.self_s": ("chains.separate", "self_s"),
    "chains.recheck.self_s": ("chains.recheck", "self_s"),
    "primal.star_adjacent.calls": ("primal.star_adjacent", "calls"),
    "primal.big_d.self_s": ("primal.big_d", "self_s"),
    "primal.min_primal.self_s": ("primal.min_primal", "self_s"),
    "primal.merge.calls": ("primal.merge", "calls"),
    "primal.merge.self_s": ("primal.merge", "self_s"),
    "primal.validate.self_s": ("primal.validate", "self_s"),
    "constants.cross_check.self_s": ("constants.cross_check", "self_s"),
    "cli.self_s": ("cli", "self_s"),
}

class Tracer:
    """Spans kept in memory for one process; read out by `metrics`."""

    def __init__(self, now):
        self._now = now
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._child_time: list[float] = []
        self._restore: list = []
        self._build_cache_info = None

    def _wrap(self, span: str, fn, timed: bool = True, count=None):
        calls, self_s, stack, now = self.calls, self.self_s, self._child_time, self._now
        if not timed:
            def counted(*args, **kwargs):
                calls[span] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            calls[span] += 1
            stack.append(0.0)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = now() - t0
                self_s[span] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if count is not None:
                count(args, result)
            return result
        return spanned

    def _replace(self, original, replacement) -> None:
        """Rebind `original` to `replacement` in every motiondual module."""
        for name, module in list(sys.modules.items()):
            if name != "motiondual" and not name.startswith("motiondual."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _trace(self, span: str, module, name: str, **kw) -> None:
        original = getattr(module, name)
        self._replace(original, self._wrap(span, original, **kw))

    def install(self) -> None:
        from motiondual import chains, cli, constants, dualspace, primal, signatures, verification

        self._trace("signatures.enumerate", signatures, "enumerate_signatures")
        for name in ("inseparable", "restricts_to", "common_extension", "common_restriction"):
            self._trace("signatures.closed_form", signatures, name)
        for name in ("walk", "walk_violations"):
            self._trace("signatures.walk", signatures, name)
        self._trace("signatures.branch", signatures, "branch")

        build = dualspace.build_dual_model
        self._build_cache_info = build.cache_info

        def count_points(args, model):
            # a build that missed the cache is the one that did the work
            if build.cache_info().misses != misses[0]:
                misses[0] = build.cache_info().misses
                self.counts["dualspace.build.points"] += len(model.space.points)

        misses = [build.cache_info().misses]
        self._trace("dualspace.build", dualspace, "build_dual_model", count=count_points)
        bfs = dualspace.FiniteT0Space.bfs

        def count_visited(args, dist):
            self.counts["dualspace.bfs.visited"] += len(dist)

        dualspace.FiniteT0Space.bfs = self._wrap("dualspace.bfs", bfs, count=count_visited)
        self._restore.append((dualspace.FiniteT0Space, "bfs", bfs))
        self._trace("dualspace.orc", dualspace, "components_and_orc")

        self._trace("chains.find", chains, "find_admissible_chain")
        self._trace("chains.separate", chains, "separate")
        for name in ("validate_chain", "is_admissible", "chain_lower_bound"):
            self._trace("chains.recheck", chains, name)

        self._trace("primal.star_adjacent", primal, "star_adjacent", timed=False)
        self._trace("primal.big_d", primal, "big_d")
        self._trace("primal.min_primal", primal, "min_primal")
        self._trace("primal.merge", primal, "merge_certificate")
        self._trace("primal.validate", primal, "validate_certificate")

        self._trace("constants.cross_check", constants, "cross_check")
        self._trace("verification.run_sweep", verification, "run_sweep")
        self._trace("cli", cli, "main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, check_seconds: dict) -> dict:
        """Every per-layer metric; layers the workload never reached read 0."""
        out = {}
        for metric, (span, kind) in LAYER_METRICS.items():
            if kind == "calls":
                out[metric] = self.calls[span]
            elif kind == "self_s":
                out[metric] = self.self_s[span]
            else:
                out[metric] = self.counts[f"{span}.{kind}"]
        info = self._build_cache_info()
        lookups = info.hits + info.misses
        out["dualspace.build.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["dualspace.build.cache_lookups"] = lookups
        for name in SWEEP_CHECKS:
            out[f"verification.{name}.s"] = check_seconds.get(name, 0.0)
        return out
