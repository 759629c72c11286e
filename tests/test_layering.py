"""The package's layering, read from its source without running it: only
``forms`` touches the table store, the CLI loads no mpmath, and only the
numeric layers import numpy when they are imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tauforms"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported(nodes) -> set[str]:
    """The top-level package of every absolute import among ``nodes``."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _module_level(tree: ast.Module):
    """The statements that run on import: the module body, not the bodies of its functions."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_the_modules_are_found():
    assert {"_kernels", "cli", "forms", "lseries", "qseries"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(set(TREES) - {"forms"}))
def test_only_forms_names_the_store(name):
    named = {node.id for node in ast.walk(TREES[name]) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(TREES[name]) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(TREES[name]) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not named & {"_tables", "_tables_lock"}


def test_the_cli_imports_no_mpmath():
    assert "mpmath" not in _imported(ast.walk(TREES["cli"]))


@pytest.mark.parametrize("name", sorted(set(TREES) - {"_kernels", "forms", "lseries"}))
def test_numpy_is_imported_on_load_only_by_the_numeric_layers(name):
    assert "numpy" not in _imported(_module_level(TREES[name]))
