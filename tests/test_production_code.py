"""Production code is what production calls.

Every public top-level function or class under ``src/repro``, and every
public method of a class there, must be named somewhere other than its own
definition, its module's ``__all__`` and the package re-exports: in the code
of ``src/`` itself, or in ``examples/``, ``benchmarks/``, ``perfbench/`` or
the CI workflows.  Methods are matched by name, so a method whose name some
other code uses counts as called.  A name that only the tests use belongs on
the test side (``tests/oracle.py`` holds the test-side references).  The few
user-facing helpers kept on purpose are listed in :data:`KEPT_FOR_USERS`,
each with its reason.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
#: Callers outside the package whose text counts as naming a definition.
CALLER_DIRS = ("examples", "benchmarks", "perfbench", ".github")

#: Public helpers with no caller in the program, kept as the library's API.
KEPT_FOR_USERS = {
    # The README's batch entry point (``from repro import simulate_batch``).
    "simulate_batch",
    # The per-round informed-count recorder, the observer a user attaches
    # to watch a spread unfold.
    "InformedCountObserver",
    # The claims of one experiment, the lookup over PAPER_PREDICTIONS.
    "predictions_for",
    # Every registered graph family with its version, for store tooling.
    "registered_builders",
    # The families' vertex-set helpers: which vertices are leaves or
    # internal in each Figure 1 graph, for picking sources.
    "leaf_vertices",
    "leaves_of",
    "right_leaves",
    "internal_vertices",
    # Edge membership, the basic query of the graph type.
    "Graph.has_edge",
    # Building a graph from an explicit edge list, under a name that says so.
    "Graph.from_edges",
    # BFS distances from a source: its eccentricity lower-bounds push's
    # broadcast time, one hop per round.
    "Graph.distances_from",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions_and_uses():
    """Public definitions of the package, and every name its code uses.

    Definitions are top-level functions and classes, keyed by name, and the
    public methods of every class, keyed ``Class.method``.  Uses are
    ``Name`` and ``Attribute`` nodes, so a definition's own name,
    ``__all__`` strings, import aliases and docstrings do not count.
    """
    defined = {}
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(ROOT)
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = where
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                        defined[f"{node.name}.{item.name}"] = where
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def _words_outside_the_package():
    words = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                try:
                    text = path.read_text(encoding="utf-8")
                except UnicodeDecodeError:
                    continue
                words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return words


def test_every_public_definition_has_a_caller():
    defined, used = _definitions_and_uses()
    named = used | _words_outside_the_package()
    uncalled = {
        name: str(path)
        for name, path in defined.items()
        if name not in KEPT_FOR_USERS and name.rsplit(".", 1)[-1] not in named
    }
    assert not uncalled, f"defined in src/ but named only by tests: {uncalled}"


def test_kept_helpers_still_exist():
    defined, _ = _definitions_and_uses()
    assert KEPT_FOR_USERS <= set(defined)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: Every package of ``repro``: its ``__all__`` is the public API it re-exports.
PACKAGES = sorted(_module_name(path) for path in PACKAGE.rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    """A trimmed re-export list names only what the package still provides, once."""
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not provide: {missing}"


def test_module_exports_name_their_own_definitions():
    """Each module's ``__all__`` lists names that module binds at top level."""
    stale = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = importlib.import_module(_module_name(path))
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if missing:
            stale[_module_name(path)] = missing
    assert not stale, f"__all__ entries with no definition: {stale}"


def test_theory_holds_only_the_claims():
    """``repro.theory`` is the paper's claims as data, and nothing else."""
    modules = {path.name for path in (PACKAGE / "theory").glob("*.py")}
    assert modules == {"__init__.py", "predictions.py"}


@pytest.mark.parametrize("module", ["coupling_experiment", "fairness_experiment"])
def test_documents_import_no_graph_constructor(module):
    """The coupling and fairness documents build their graphs through the shared cases.

    Only the ``Graph`` data type may come from ``repro.graphs``; a graph
    built by a direct constructor call would sit outside the family table
    and the pinned sweep points.
    """
    tree = ast.parse((PACKAGE / "experiments" / f"{module}.py").read_text(encoding="utf-8"))
    imported = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] in ("graphs", "repro")
        and "graphs" in node.module.split(".")
    ]
    assert set(imported) <= {"graphs.graph"}, imported
