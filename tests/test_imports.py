"""Every module of the package uses every name it imports, and importing
the package loads no process pool.

A name that a module imports and never reads is a leftover of deleted
code.  `__init__.py` is exempt: its imports are the package's exports.
Likewise every export, and every public method or property of a library
class, has a caller in the library or the benchmark, and the ones whose
only caller is the benchmark are pinned by name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "motiondual"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_reports_an_unused_import():
    source = "from typing import Iterable, Sequence\n\ndef f(xs: Iterable):\n    return xs\n"
    assert unused_imports(source) == ["line 1: Sequence"]
    assert unused_imports("import os.path\nos.sep\n") == []


PERFBENCH = PACKAGE.parent.parent / "perfbench"
# Kept without a caller: the closed-form ideal containment that the ROADMAP
# keeps next to its `hull` oracle in the tests.
UNCALLED_EXPORTS = {"contains_ideal"}


def references(source: str, names: bool = True) -> set[str]:
    """Every attribute and string constant the source mentions, and every
    name unless `names` is false."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and names:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def exports() -> dict[str, str]:
    """Each name `__init__.py` re-exports, with the module it comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_has_a_caller():
    """A name the package exports is used by the benchmark or by another
    library module; a name only the tests call is not library API.  The
    benchmark counts by attribute and string only, as in the member guard:
    a local variable that happens to share an export's name is no call."""
    bench = set().union(*(references(p.read_text(), names=False) for p in PERFBENCH.glob("*.py")))
    used = {p.stem: references(p.read_text()) for p in MODULES}
    uncalled = sorted(
        name
        for name, home in exports().items()
        if name not in bench and not any(name in refs for stem, refs in used.items() if stem != home)
    )
    assert uncalled == sorted(UNCALLED_EXPORTS)


# Kept without a caller: `Parser.error` overrides argparse's hook, which
# argparse itself calls.
UNCALLED_MEMBERS = {"Parser.error"}


def public_members(source: str) -> list[str]:
    """Each public method and property of each class, as Class.name."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def uncalled_members(library: list[str], callers: list[str]) -> list[str]:
    """The public members of the library classes that no library or caller
    source reads as `x.name` or names in a string constant."""
    used = set().union(*(references(source, names=False) for source in library + callers))
    return sorted(m for source in library for m in public_members(source) if m.split(".")[1] not in used)


def test_every_public_member_has_a_caller():
    """A method or property of a library class is read by library or
    benchmark code; one that only the tests call is not library API."""
    library = [p.read_text() for p in MODULES]
    bench = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert uncalled_members(library, bench) == sorted(UNCALLED_MEMBERS)


def test_guard_reports_an_uncalled_member():
    source = (
        "class A:\n"
        "    def used(self): return self.kept\n"
        "    @property\n"
        "    def kept(self): return 1\n"
        "    def stray(self): return used\n"
        "    def named(self): pass\n"
        "    def _private(self): pass\n"
    )
    assert uncalled_members([source], ["getattr(A(), 'named')\nA().used()\n"]) == ["A.stray"]


# Kept only because `perfbench/` binds them: ROADMAP direction 1 deletes them
# with the next benchmark change.
BENCHMARK_ONLY = {"Graph.bfs", "glimm_partition", "is_admissible", "separate", "star_adjacent"}


def benchmark_only(library: list[str], bench: list[str], exported) -> list[str]:
    """The exports and the public members of the library classes that the
    benchmark reads, by attribute or string, and no library source does: an
    export read by name counts too, wherever it is read."""
    bench_refs = set().union(*(references(source, names=False) for source in bench))
    names = set().union(*(references(source) for source in library))
    attrs = set().union(*(references(source, names=False) for source in library))
    found = {name for name in exported if name in bench_refs and name not in names}
    found |= {
        m for source in library for m in public_members(source) if m.split(".")[1] in bench_refs - attrs
    }
    return sorted(found)


def test_benchmark_only_api_is_pinned():
    """The API that only the benchmark calls is exactly `BENCHMARK_ONLY`: a
    new benchmark-only name, or a library caller for one of them, fails."""
    library = [p.read_text() for p in MODULES]
    bench = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert benchmark_only(library, bench, exports()) == sorted(BENCHMARK_ONLY)


def test_guard_reports_benchmark_only_api():
    library = (
        "def helper(): pass\n"
        "def bench_only(): pass\n"
        "def user(): return helper()\n"
        "class G:\n"
        "    def bfs(self): pass\n"
        "    def size(self): pass\n"
        "    def depth(self): return self.size()\n"
    )
    bench = "m.helper()\nm.bench_only()\ng.bfs()\ng.size()\n"
    assert benchmark_only([library], [bench], ["helper", "bench_only", "user"]) == ["G.bfs", "bench_only"]


def test_importing_the_package_loads_no_process_pool():
    """The package, its command line and every library module import
    neither `concurrent.futures` nor `multiprocessing`: only a sweep with
    more than one job (`run_sweep`'s pool branch) imports them.  Checked in
    a fresh interpreter, since this one may have loaded them already."""
    modules = ["motiondual", "motiondual.cli", *(f"motiondual.{p.stem}" for p in MODULES)]
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
