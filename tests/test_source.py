"""Checks over the library source and what importing it loads."""
import ast
import os
import subprocess
import sys
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


def found_in(source: str, hit) -> list[tuple[str, int]]:
    """(enclosing function, line) of each node of ``source`` for which ``hit`` holds."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


# The one text reader.
TEXT_READERS = {("corpus.py", "numbered_lines")}


def text_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each open() of a file as text for reading.

    A mode that is not a string literal counts as a read; so does read_text().
    """
    def is_text_read(call: ast.AST) -> bool:
        if not isinstance(call, ast.Call):
            return False
        if isinstance(call.func, ast.Attribute):
            return call.func.attr == "read_text"
        if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
            return False
        mode = call.args[1] if len(call.args) > 1 else \
            next((k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        writes_only = any(c in mode.value for c in "wax") and "+" not in mode.value
        return "b" not in mode.value and not writes_only

    return found_in(source, is_text_read)


def test_checker_sees_a_text_read():
    source = ("def load(p):\n    with open(p, encoding='utf-8') as fh:\n        return fh.read()\n"
              "def save(p):\n    open(p, 'w').close()\n    open(p, 'rb').close()\n"
              "    open(p, mode='r+').close()\n"
              "def f(p):\n    def inner():\n        return p.read_text()\n    return inner\n")
    assert text_reads(source) == [("load", 2), ("save", 7), ("inner", 10)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_text_is_read_in_one_place(path):
    reads = [f"{where} (line {line})" for where, line in text_reads(path.read_text("utf-8"))
             if (path.name, where) not in TEXT_READERS]
    assert reads == []


# The embedding tables and the one reader of a forward's rows.
ROW_READERS = {("encoder.py", "forward"), ("encoder.py", "gather_positions")}


def calls_of(source: str, name: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call of ``name``, bare or as an attribute."""
    return found_in(source, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def test_checker_sees_an_embedding_call():
    source = ("def pool(h, idx):\n    return T.embedding(h, idx)\n"
              "def rows(h):\n    def inner(i):\n        return embedding(h, i)\n"
              "    return inner\ntable = tensor.embedding(w, [0])\n"
              "def other(x):\n    return x.embedding_dim, embed(x)\n")
    assert calls_of(source, "embedding") == [("pool", 2), ("inner", 5), ("<module>", 7)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rows_are_read_in_one_place(path):
    calls = [f"{where} (line {line})" for where, line in calls_of(path.read_text("utf-8"),
                                                                 "embedding")
             if (path.name, where) not in ROW_READERS]
    assert calls == []


# A run's state is built in one place, for a fresh run and a loaded one alike, and
# its scheduler where a fresh run and a loaded one derive it, by the same rules.
BUILDERS = {"EncoderConfig": {("training.py", "_assemble")},
            "AdamState": {("training.py", "_assemble")},
            "TrainState": {("training.py", "_assemble")},
            "SchedulerState": {("training.py", "_new_scheduler"), ("hybrid.py", "from_dict")}}


def test_checker_sees_a_config_construction():
    source = ("def fresh(v):\n    return EncoderConfig(vocab_size=v)\n"
              "def other(c):\n    def inner():\n        return E.EncoderConfig(**c)\n"
              "    return inner, EncoderConfig.head_dim, SchedulerState.from_dict(c)\n")
    assert calls_of(source, "EncoderConfig") == [("fresh", 2), ("inner", 5)]
    assert calls_of(source, "SchedulerState") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_configs_are_built_in_one_place(path):
    calls = [f"{name} in {where} (line {line})" for name, allowed in BUILDERS.items()
             for where, line in calls_of(path.read_text("utf-8"), name)
             if (path.name, where) not in allowed]
    assert calls == []


# A parameter's data is a view into its run's arena; only a new Tensor binds one.
DATA_BINDERS = {("tensor.py", "__init__")}


def data_bindings(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each assignment to an attribute named ``data``,
    augmented or unpacked too; assigning into it (``x.data[...] = y``) binds nothing."""
    def bound(target: ast.AST) -> list[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            return [t for elt in target.elts for t in bound(elt)]
        return bound(target.value) if isinstance(target, ast.Starred) else [target]

    def binds_data(node: ast.AST) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        return any(isinstance(t, ast.Attribute) and t.attr == "data"
                   for target in targets for t in bound(target))

    return found_in(source, binds_data)


def test_checker_sees_a_data_binding():
    source = ("class Tensor:\n    def __init__(self, d):\n        self.data = d\n"
              "def rebind(p, v):\n    p.data[...] = v\n    p.data -= v\n"
              "    q.data, r = v, 1\n    p.grad = v\n    *s.data, = v\n"
              "def deep(p, v):\n    p.data[0].x = v\n    x = p.data\n    p.data: int = 0\n")
    assert data_bindings(source) == [("__init__", 3), ("rebind", 6), ("rebind", 7),
                                     ("rebind", 9), ("deep", 13)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_parameter_data_is_rebound(path):
    bindings = [f"{where} (line {line})" for where, line in data_bindings(path.read_text("utf-8"))
                if (path.name, where) not in DATA_BINDERS]
    assert bindings == []


# A run's weights are wrapped once, from plain views of its arena, in _assemble;
# a forward reads those leaves rather than wrapping a tensor's data again.
def data_wrappings(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each ``Tensor`` call, bare or as an attribute,
    whose first argument, or ``data=``, is an attribute named ``data``."""
    def wraps_data(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and "Tensor" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None))):
            return False
        first = node.args[:1] + [k.value for k in node.keywords if k.arg == "data"]
        return any(isinstance(a, ast.Attribute) and a.attr == "data" for a in first)

    return found_in(source, wraps_data)


def test_checker_sees_a_data_wrapping():
    source = ("def frozen(params):\n    return {k: Tensor(p.data) for k, p in params.items()}\n"
              "def other(p, view):\n    T.Tensor(p.data, requires_grad=True)\n"
              "    Tensor(view), Tensor(p.data[0]), Tensor(p.grad), tensor(p.data)\n"
              "    return Tensor(data=q.data)\n")
    assert data_wrappings(source) == [("frozen", 2), ("other", 4), ("other", 6)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_weights_are_wrapped_in_one_place(path):
    wrappings = [f"{where} (line {line})"
                 for where, line in data_wrappings(path.read_text("utf-8"))]
    assert wrappings == []


# The checkpoint file is the only array file, written and read in one place each.
ARRAY_FILE_FUNCTIONS = {"save", "savez", "savez_compressed", "load"}
ARRAY_FILE_USERS = {("training.py", "save_checkpoint"), ("training.py", "load_checkpoint")}


def array_file_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each np.save/np.savez/np.load call, with
    numpy spelled ``np`` or ``numpy``, and of each import of one from numpy."""
    def is_array_file_call(node: ast.AST) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == "numpy" and \
                any(alias.name in ARRAY_FILE_FUNCTIONS for alias in node.names)
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ARRAY_FILE_FUNCTIONS \
            and getattr(node.func.value, "id", None) in ("np", "numpy")

    return found_in(source, is_array_file_call)


def test_checker_sees_an_array_file_call():
    source = ("import numpy as np\nfrom numpy import savez\n"
              "def save(p, a):\n    np.savez(p, a=a)\n    numpy.save(p, a)\n"
              "def load(p):\n    with np.load(p) as f:\n        return Vocab.load(p), f\n"
              "x = np.loadtxt('f')\n")
    assert array_file_calls(source) == [("<module>", 2), ("save", 4), ("save", 5), ("load", 7)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_array_files_are_written_and_read_in_one_place(path):
    calls = [f"{where} (line {line})" for where, line in array_file_calls(path.read_text("utf-8"))
             if (path.name, where) not in ARRAY_FILE_USERS]
    assert calls == []


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


def private_imports(source: str) -> list[str]:
    """_-prefixed names imported from another domainlm module, relatively or by name."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "domainlm")
            for alias in node.names if alias.name.startswith("_")]


def test_checker_sees_a_private_import():
    source = ("from __future__ import annotations\nfrom ._util import _a, b\n"
              "from domainlm.hybrid import _c\nfrom os import _exit\nfrom . import tensor\n")
    assert private_imports(source) == ["_a (line 2)", "_c (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Modules imported by name, not relatively, from neither numpy nor the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else \
            [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
        found += [(node.lineno, name) for name in names
                  if (top := name.partition(".")[0]) != "numpy"
                  and top not in sys.stdlib_module_names]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_sees_a_foreign_import():
    source = ("from __future__ import annotations\nimport numpy as np, scipy.special\n"
              "from . import tensor\nfrom .corpus import Vocab\nfrom numpy.linalg import norm\n"
              "def f():\n    from scipy.optimize import linprog\n    import os.path, torch\n")
    assert foreign_imports(source) == ["scipy.special (line 2)", "scipy.optimize (line 7)",
                                       "torch (line 8)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_numpy_and_the_standard_library_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def unset_defaults(library: dict[str, str], callers: list[str]) -> list[str]:
    """``file: function(parameter)`` for each defaulted parameter of a function in
    ``library`` (file name -> source) that no call of its name in ``callers`` passes:
    by keyword, by position, or through a * or ** splat. Dunder methods are skipped."""
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for source in callers for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, index, param: str) -> bool:
        if any(k.arg in (param, None) for k in call.keywords):  # None: a ** splat
            return True
        return index is not None and (len(call.args) > index or
                                      any(isinstance(a, ast.Starred) for a in call.args))

    unset = []
    for file, source in library.items():
        tree = ast.parse(source)
        bound = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
                 if isinstance(f, ast.FunctionDef)
                 and "staticmethod" not in [getattr(d, "id", None) for d in f.decorator_list]}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[id(node) in bound:]  # a call binds self
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            unset += [f"{file}: {node.name}({param})" for index, param in defaulted
                      if not any(passes(call, index, param) for call in calls.get(node.name, []))]
    return unset


def test_checker_sees_an_unset_default():
    library = {"m.py": "def f(a, b=1, *, c=2, d=3):\n    pass\n"
                       "class K:\n    def m(self, x=0, y=0):\n        pass\n"
                       "    def __init__(self, z=1):\n        pass\n"
                       "    @staticmethod\n    def s(u=0):\n        pass\n"
                       "def g(e=0, *, h=0):\n    pass\n"}
    callers = ["f(1, 2)\nf(0, c=5)\nK().m(4)\nK.s(1)\ng(*args)\ng(**kw)\n", "x = f\n"]
    assert unset_defaults(library, callers) == ["m.py: f(d)", "m.py: m(y)"]


# The console script calls cli.main(); only tests pass it an argv.
UNSET_ALLOWED = {"cli.py: main(argv)"}
REPO = Path(__file__).resolve().parents[1]
CALLERS = SOURCES + sorted((REPO / "benchmarks").glob("*.py")) + [REPO / "tests" / "synthetic.py"]


def test_every_default_is_set_by_a_program_path():
    # a parameter that only tests set is a knob the program never turns
    unset = unset_defaults({p.name: p.read_text("utf-8") for p in SOURCES},
                           [p.read_text("utf-8") for p in CALLERS])
    assert [entry for entry in unset if entry not in UNSET_ALLOWED] == []


def test_cli_import_leaves_the_lp_solver_unloaded():
    # No scipy module at all: GELU's erf is numpy code, and the exact-transport LP
    # oracle lives in the test suite. Importing scipy would slow every CLI start and
    # raise every run's peak memory.
    src = str(Path(domainlm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, domainlm, domainlm.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
