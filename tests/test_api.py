"""Public-surface hygiene: every exported name exists, no import goes unused,
no private module-level name goes unread.

The checks use only the standard library, so they also catch leftovers of a
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants nothing reads.

    sources maps module stems to their text. A name counts as read when any
    module loads it as a Name, reads it as an attribute (module._name) or
    imports it with from-import.
    """
    defined, read = {}, set()
    for stem, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{stem}.{name} (line {node.lineno})"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for where, name in defined.items() if name not in read)


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


def test_every_private_name_is_read():
    sources = {stem: (SRC / f"{stem}.py").read_text() for stem in MODULES}
    assert unread_private_names(sources) == []


def test_checker_flags_an_unread_private_name():
    sources = {
        "a": "_USED = 1\n_UNREAD = 2\ndef _helper():\n    return _USED\nclass _Dead:\n    pass\n"
             "def _by_attribute():\n    pass\n",
        "b": "from .a import _helper\nfrom . import a\na._by_attribute()\n",
    }
    assert unread_private_names(sources) == ["a._Dead (line 5)", "a._UNREAD (line 2)"]


def test_log_constant_is_reexported_not_copied():
    bounds = importlib.import_module("sphereineq.bounds")
    stereographic = importlib.import_module("sphereineq.stereographic")
    assert stereographic.axis_moment_log_constant is bounds.axis_moment_log_constant
