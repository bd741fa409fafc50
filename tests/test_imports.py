"""Static checks on the imports of every module under src/sentprob: the
package stays stdlib-only, and no module keeps an import it does not use."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sentprob").glob("*.py"))


def imports_of(tree):
    """(top-level module or None for a relative import, bound name) for
    every import statement in tree, __future__ excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = None if node.level else node.module.partition(".")[0]
            for alias in node.names:
                yield module, alias.asname or alias.name


def exported(tree):
    """The names listed in the module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "consistency.py", "estimator.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_own_and_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    for module, name in imports_of(tree):
        assert module is None or module == "sentprob" or module in sys.stdlib_module_names, (
            path.name,
            module,
        )
        assert name in used, (path.name, name)
