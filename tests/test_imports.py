"""Modules under ``src/icdkit`` use every name they import, reference every private
helper they define, build dictionary entries in one function, write files in
one function and raise only the toolkit's error classes."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from typing import Callable

import pytest

MODULES = sorted((Path(__file__).parents[1] / "src" / "icdkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads; a name
    listed in ``__all__`` counts as read, and ``__future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from typing import Any, List\nfrom x import y\n__all__ = ['y']\nz: List = j\n")
    assert unused_imports(source) == ["os", "Any"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions defined in ``sources`` that none of
    them reads by name, by attribute or through ``from ... import``."""
    defined = []
    used = set()
    for tree in map(ast.parse, sources):
        defined += [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [name for name in defined if name not in used]


def test_finds_a_dead_private_helper():
    sources = ["def _called():\n    pass\ndef _dead():\n    return _called()\ndef _imported():\n    pass\n"
               "def _attribute():\n    pass\ndef __getattr__(name):\n    pass\nclass C:\n    def _method(self):\n        pass\n",
               "from m import _imported\nimport m\nx = m._attribute\n"]
    assert dead_helpers(sources) == ["_dead"]


def test_every_private_helper_is_used():
    assert dead_helpers([path.read_text(encoding="utf-8") for path in MODULES]) == []


ROOT = Path(__file__).parents[1]
# the code that calls src/: the package itself, its scripts and the benchmark
CALLERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def unread_members(classes: list[str], readers: list[str]) -> list[str]:
    """``Class.name`` for each method or property of a class in ``classes``
    whose name no ``x.name`` attribute read in ``readers`` uses; dunder names
    are skipped, since the language calls them."""
    defined = [f"{node.name}.{item.name}" for tree in map(ast.parse, classes) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (item.name.startswith("__") and item.name.endswith("__"))]
    read = {node.attr for tree in map(ast.parse, readers) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [member for member in defined if member.partition(".")[2] not in read]


def test_finds_an_unread_member():
    classes = ["class C:\n    def __len__(self):\n        return 0\n    def read(self):\n        pass\n"
               "    @property\n    def unread(self):\n        pass\n    def written(self):\n        pass\n"]
    readers = ["c.read()\nc.written = 1\nunread = 2\n"]
    assert unread_members(classes, readers) == ["C.unread", "C.written"]


def test_every_class_member_is_read_outside_the_tests():
    # a method or property that only tests read is API the program does not need
    assert unread_members([path.read_text(encoding="utf-8") for path in MODULES],
                          [path.read_text(encoding="utf-8") for path in CALLERS]) == []


DICTIONARY_TYPES = {"IcdDictionary", "DictEntry"}


def callers(sources: dict[str, str], matches: Callable[[ast.Call], bool]) -> list[str]:
    """``module.function`` for each innermost function of ``sources`` (module
    name to source) that makes a call ``matches`` accepts; a call outside any
    function is placed in ``module.<module>``."""
    found = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call) and matches(node):
            found.add(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(found)


def callee(call: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def dictionary_builders(sources: dict[str, str]) -> list[str]:
    """:func:`callers` of a name of ``DICTIONARY_TYPES``."""
    return callers(sources, lambda call: callee(call) in DICTIONARY_TYPES)


def test_finds_a_second_dictionary_builder():
    sources = {"a": ("def load():\n    return IcdDictionary((DictEntry(c, n),), 0)\n"
                     "def merge(d):\n    def inner():\n        return codes.DictEntry(c, n)\n    return inner\n"
                     "def read(d):\n    return d.entries, IcdDictionary\n"),
               "b": "class C:\n    def make(self):\n        return IcdDictionary((), 0)\nX = DictEntry(c, n)\n"}
    assert dictionary_builders(sources) == ["a.inner", "a.load", "b.<module>", "b.make"]


def test_only_load_dictionary_builds_a_dictionary():
    # one builder: an entry's id is its position in the one loop that makes entries
    assert dictionary_builders({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == [
        "codes.load_dictionary"]


def test_every_tracer_target_resolves():
    # perfbench/tracer.py wraps each (module, function) of TARGETS by name, so
    # a function that moves or is renamed breaks only a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    assert [f"{module}.{name}" for module, name, _, _ in tracer.TARGETS
            if not callable(getattr(importlib.import_module(module), name, None))] == []


# an open mode that writes, "r+" too
WRITE_MODE = re.compile(r"[rbt]*[wxa+][rwxabt+]*")


def writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``os.replace`` or ``os.rename``, a ``write_text``
    or ``write_bytes`` method, or an ``open``, bare or a method such as
    ``Path.open``, given a string literal that is a mode that writes;
    ``os.fdopen``, which opens a descriptor such as a pipe's, is none of them."""
    name = callee(call)
    if name in ("replace", "rename"):
        return isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) == "os"
    if name == "open":
        return any(isinstance(arg, ast.Constant) and isinstance(arg.value, str) and WRITE_MODE.fullmatch(arg.value)
                   for arg in [*call.args, *(kw.value for kw in call.keywords if kw.arg == "mode")])
    return name in ("write_text", "write_bytes")


def file_writers(sources: dict[str, str]) -> list[str]:
    """:func:`callers` of a call that :func:`writes_a_file`."""
    return callers(sources, writes_a_file)


def test_finds_a_second_file_writer():
    sources = {"a": ("def save(p, t):\n    os.replace(t, p)\n"
                     "def dump(p):\n    def inner():\n        p.write_bytes(b'')\n    return inner\n"
                     "def log(p):\n    with open(p, mode='a', encoding='utf-8') as f:\n        pass\n"
                     "def read(p, s, t):\n    return (open(p), open(p, 'rb'), open('data.tsv'), p.open('r'),\n"
                     "            os.open(p, 0), p.replace('.', '_'), s.replace(p, t))\n"),
               "b": ("class C:\n    def make(self, p):\n        return p.open('w')\n"
                     "def create(p):\n    return io.open(p, 'xb')\ndef move(a, b):\n    os.rename(a, b)\n"
                     "def note(p):\n    p.write_text('')\nopen('x', 'r+b')\n")}
    assert file_writers(sources) == ["a.inner", "a.log", "a.save", "b.<module>", "b.create", "b.make", "b.move",
                                     "b.note"]


def test_only_write_file_writes_a_file():
    # one writer: every file appears whole by a rename from a temp of its own
    assert file_writers({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == ["jsonl.write_file"]


# input faults, config faults and bad library arguments; see icdkit.errors
ERROR_CLASSES = {"InvalidFormatError", "ConfigError", "ValueError"}


def raised_classes(source: str) -> set[str]:
    """Capitalised names that ``source`` raises by calling them, as in ``raise Name(...)``."""
    return {node.exc.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id[:1].isupper()}


def test_finds_a_raise_outside_the_error_classes():
    source = ("def f(row):\n    if not row:\n        raise KeyError(row)\n"
              "    try:\n        raise ValueError('v')\n    except ValueError as exc:\n"
              "        raise _located(exc) from exc\n    raise\n")
    assert raised_classes(source) - ERROR_CLASSES == {"KeyError"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_raises_only_the_error_classes(path):
    assert raised_classes(path.read_text(encoding="utf-8")) <= ERROR_CLASSES
