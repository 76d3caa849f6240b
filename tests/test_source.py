"""Static checks over the library source."""
import ast
from pathlib import Path

import pytest

import domainlm

SOURCES = sorted(Path(domainlm.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in __all__ is read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_sees_an_unused_import():
    source = ("from typing import Optional, Sequence\nimport numpy as np\n"
              "__all__ = ['np']\n\ndef f(x: Sequence): return x\n")
    assert unused_imports(source) == ["Optional (line 1)"]


def test_package_exports_exactly_what_it_imports():
    # the unused-import check counts every __all__ entry as read, so a stale
    # entry would pass it yet break `from domainlm import *`
    tree = ast.parse(Path(domainlm.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(domainlm.__all__) == sorted(imported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
