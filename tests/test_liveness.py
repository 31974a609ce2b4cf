"""Guards against dead code: everything kept must be reachable and used.

* Every module under ``src/repro`` is imported, directly or through
  other modules, by an entry point: ``repro.cli``, a script under
  ``benchmarks/`` or one under ``examples/``.  A name imported from a
  package counts for the module that defines it, not for every module
  the package's ``__init__`` happens to re-export.
* Every event kind in the taxonomy is written by some CLI command at a
  small scale, so no kind survives that only old logs contain.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.events import EVENT_TYPES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {
    _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


def _resolve(package: str, name: str, seen=()) -> str:
    """The module that defines ``name`` as seen from ``package``."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if not _is_package(package) or package in seen:
        return package
    for node in ast.parse(MODULES[package].read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module, alias.name, seen + (package,))
    return package


def _imports(path: Path, used_only=False):
    """Every ``repro`` module the file at ``path`` imports, at any depth.

    With ``used_only``, only imports whose bound name the file's own code
    reads: a package ``__init__`` that merely re-exports a name does not
    reach its module, one whose functions call it does.
    """
    tree = ast.parse(path.read_text())
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name in MODULES and (bound in used or not used_only):
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) in used or not used_only:
                    yield _resolve(node.module, alias.name)


def _reachable():
    entry_points = [SRC / "repro" / "cli.py"]
    entry_points += sorted((ROOT / "benchmarks").rglob("*.py"))
    entry_points += sorted((ROOT / "examples").glob("*.py"))
    reached = set()
    todo = [name for path in entry_points for name in _imports(path)]
    todo.append("repro.cli")
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(_imports(MODULES[name], used_only=_is_package(name)))
    return reached


REACHED = _reachable()


@pytest.mark.parametrize(
    "module", sorted(n for n in MODULES if not _is_package(n))
)
def test_module_is_reachable_from_an_entry_point(module):
    assert module in REACHED


def test_reexports_do_not_count():
    # repro.obs re-exports RunReport; importing it reaches prof.py only.
    assert _resolve("repro.obs", "RunReport") == "repro.obs.prof"
    assert _resolve("repro.obs", "prof") == "repro.obs.prof"
    assert _resolve("repro.obs", "no_such_name") == "repro.obs"
    init = MODULES["repro.obs"]
    assert "repro.obs.history" in set(_imports(init))
    assert "repro.obs.history" not in set(_imports(init, used_only=True))
    # repro.workloads' own functions call the workload builders.
    init = MODULES["repro.workloads"]
    assert "repro.workloads.splash" in set(_imports(init, used_only=True))


@pytest.fixture(scope="module")
def emitted_kinds(tmp_path_factory):
    """Every kind written by three small traced CLI runs."""
    tmp = tmp_path_factory.mktemp("liveness")
    runs = [
        # Full-system Mig/Rep with misses and the adaptive trigger;
        # splash is the workload that collapses a replica.
        ["run", "--workload", "splash", "--adaptive", "--trace-misses"],
        ["tracesim", "--workload", "database", "--trace-misses"],
        # CoPlace: page-table replicas and thread migrations.
        ["ptsim", "--workload", "database"],
    ]
    kinds = set()
    for i, argv in enumerate(runs):
        log = tmp / f"{i}.jsonl"
        assert main(argv + ["--scale", "0.05", "--trace-out", str(log)]) == 0
        with open(log) as fh:
            kinds.update(json.loads(line)["kind"] for line in fh)
    return kinds


@pytest.mark.parametrize("kind", [t.KIND for t in EVENT_TYPES])
def test_event_kind_is_emitted_by_the_cli(kind, emitted_kinds):
    assert kind in emitted_kinds
