"""Public-surface hygiene: every exported name exists, no import goes unused.

Both checks use only the standard library, so they also catch leftovers of a
deletion (a stale __all__ entry, an import only the deleted code needed)
where no linter is installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sphereineq

SRC = Path(sphereineq.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _module_name(stem: str) -> str:
    return "sphereineq" if stem == "__init__" else f"sphereineq.{stem}"


def unused_top_level_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads.

    A name counts as read when it appears as a Name node anywhere in the
    module (attribute chains start with one) or as a string in __all__.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_exist(stem):
    module = importlib.import_module(_module_name(stem))
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_top_level_imports(stem):
    assert unused_top_level_imports((SRC / f"{stem}.py").read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_top_level_imports(source) == ["json (line 1)", "path (line 3)"]


def test_log_constant_is_reexported_not_copied():
    bounds = importlib.import_module("sphereineq.bounds")
    stereographic = importlib.import_module("sphereineq.stereographic")
    assert stereographic.axis_moment_log_constant is bounds.axis_moment_log_constant
