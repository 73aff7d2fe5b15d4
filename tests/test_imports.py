"""No module imports a name it never reads, `src/` defines no private
function, class or method that `src/` never reads, the package exports no
name that `src/` never reads unless README names it, every function the
benchmark's layer tracer wraps still exists, each command loads only the
modules it runs (the reader of polynomial text only where it reads text,
the selftest suites only in `selftest`), and no command loads
`dataclasses` or `inspect`.

The import scan covers `src/pfansatz/*.py` (except `__init__.py`, whose
imports are the package's re-exports) and `tests/*.py`.  A name counts as
read when it appears as a load of that name or as the base of an attribute
access; names listed in a module's `__all__` count as read too.

The private-definition scan covers the module-level functions and classes
and the methods of `src/pfansatz/*.py` whose names start with `_` (dunder
methods aside).  Such a name counts as read when any file under `src/`
loads it, reads it as an attribute, or imports it; tests do not count.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfansatz

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pfansatz").glob("*.py"))
FILES = sorted(
    [p for p in (ROOT / "src" / "pfansatz").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unread_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import():
    source = "import os\nimport json\nfrom math import gcd, lcm\nprint(json.dumps(gcd(2, 4)))\n"
    assert unread_imports(source) == [(1, "os"), (3, "lcm")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_definitions(sources: dict) -> list:
    """(file, line, name) of each private definition in `sources` (file
    name -> text) that no file in `sources` reads: a function, class or
    method, or a name a module-level assignment binds."""
    defined, read = [], set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for name, source in sources.items():
        tree = ast.parse(source)
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in tree.body + [m for c in classes for m in c.body]:
            if isinstance(node, kinds) and _is_private(node.name):
                defined.append((name, node.lineno, node.name))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.lineno, t.id) for target in targets
                            for t in ast.walk(target)
                            if isinstance(t, ast.Name) and _is_private(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(d for d in defined if d[2] not in read)


def test_every_private_definition_is_read():
    assert unread_private_definitions({p.name: p.read_text() for p in SOURCES}) == []


def test_the_scan_finds_an_unread_private_definition():
    sources = {
        "a.py": "def _kept():\n    pass\n\n\ndef _left():\n    pass\n\n\n"
                "class _Box:\n    def _unused(self):\n        pass\n\n"
                "    def __repr__(self):\n        return self._shown()\n\n"
                "    def _shown(self):\n        return ''\n",
        "b.py": "from .a import _kept\n\n_Box()\n",
        "c.py": "_USED = 1\n_SPARE, _READ = 2, 3\n_TYPED: int = 4\n__all__ = []\n\n\n"
                "def f():\n    _local = _USED + _READ\n    return _local\n",
    }
    assert unread_private_definitions(sources) == [
        ("a.py", 5, "_left"), ("a.py", 10, "_unused"), ("c.py", 2, "_SPARE"), ("c.py", 3, "_TYPED")]


def unresolved_targets(source: str) -> list:
    """(module, attribute path) of each entry of the `TARGETS` tuple in
    `source`, the text of `perfbench/layers.py`, that names no callable
    defined under `src/`.  The file is parsed, not imported."""
    tree = ast.parse(source)
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    missing = []
    for entry in targets.elts:
        module, attr = (e.value for e in entry.elts[1:3])
        found = importlib.import_module(module)
        if not Path(found.__file__).resolve().is_relative_to(ROOT / "src"):
            missing.append((module, attr))
            continue
        for part in attr.split("."):
            found = getattr(found, part, None)
        if not callable(found):
            missing.append((module, attr))
    return missing


def test_every_traced_layer_resolves():
    source = (ROOT / "perfbench" / "layers.py").read_text()
    assert "TARGETS = (" in source
    assert unresolved_targets(source) == []


def test_the_scan_finds_a_renamed_layer():
    source = ('TARGETS = (\n    ("a", "pfansatz.pipeline", "c_table", None),\n'
              '    ("b", "pfansatz.pipeline", "no_such_function", None),\n'
              '    ("c", "pfansatz.guessing", "RecurrenceOperator.no_such_method", _hook),\n)\n')
    assert unresolved_targets(source) == [("pfansatz.pipeline", "no_such_function"),
                                          ("pfansatz.guessing", "RecurrenceOperator.no_such_method")]


def unread_exports(exports, sources: dict, readme: str) -> list:
    """The names in `exports` that no file in `sources` (file name -> text)
    reads and that `readme` does not name in code (a code span or block).
    A name is read as a load, as an attribute, as an imported name, or, for
    a submodule, as the module of a relative import."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
                if node.level and node.module:
                    read.add(node.module)
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    named = set(re.findall(r"\w+", " ".join(code)))
    return sorted(name for name in exports if name not in read | named)


def test_every_export_is_read_or_documented():
    sources = {p.name: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_exports(pfansatz.__all__, sources, readme) == []


def test_the_scan_finds_an_unread_export():
    sources = {"a.py": "from .b import used\nfrom .c import x\n\n\ndef f(m):\n"
                       "    return used(m.attr) + x\n"}
    readme = "Call `documented(1)`.\n\n```python\nalso_documented()\n```\nundocumented\n"
    exports = ("used", "attr", "c", "documented", "also_documented", "undocumented", "b2")
    assert unread_exports(exports, sources, readme) == ["b2", "undocumented"]


# ---------------------------------------------------------------------------
# the modules each command loads

# Prints the pfansatz modules loaded once `pfansatz.cli` has run argv, with
# the exit status.
CLI_PROBE = """
import contextlib, io, json, sys
import pfansatz.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = pfansatz.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "pfansatz")]))
"""
PFAFFIAN_MODULES = ["pfansatz", "pfansatz._version", "pfansatz.cli", "pfansatz.pfaffian",
                    "pfansatz.poly", "pfansatz.sequences"]


def run_probe(source: str, *argv, flags: tuple = ()) -> object:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, *flags, "-c", source, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_importing_the_package_loads_only_the_version():
    probe = ("import json, sys\nimport pfansatz\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pfansatz')))")
    assert run_probe(probe) == ["pfansatz", "pfansatz._version"]


def test_pfaffian_loads_no_guessing_or_certification_module(tmp_path):
    """A family or a file of number entries loads no reader of polynomial
    text; a text entry loads it."""
    numbers = tmp_path / "numbers.json"
    numbers.write_text(json.dumps({"dim": 4, "upper": [[1, 2, "3"], [3, 4, "2/5"], [1, 4, 7]]}))
    text = tmp_path / "text.json"
    text.write_text(json.dumps({"dim": 4, "upper": [[1, 2, "3"], [3, 4, "2/5"], [1, 4, "x"]]}))
    for argv in (("pfaffian", "--family", "motzkin", "--dim", "12", "--all-algorithms"),
                 ("pfaffian", "--file", str(numbers))):
        assert run_probe(CLI_PROBE, *argv) == [0, PFAFFIAN_MODULES]
    assert run_probe(CLI_PROBE, "pfaffian", "--file", str(text)) == [
        0, sorted(PFAFFIAN_MODULES + ["pfansatz.polytext"])]


def test_minor_sum_loads_no_guessing_or_pipeline():
    code, modules = run_probe(CLI_PROBE, "minor-sum", "--n", "3")
    assert code == 0
    assert "pfansatz.minorsum" in modules
    assert not {"pfansatz.guessing", "pfansatz.pipeline", "pfansatz.catalog"} & set(modules)


def test_conjecture_and_minor_sum_load_exactly_their_modules():
    """The conjecture check runs `pipeline` and no `linalg`; the minor sum
    runs `minorsum` and `linalg` and no `pipeline`."""
    assert run_probe(CLI_PROBE, "conjecture", "--k", "3", "--n-max", "4") == [
        0, sorted(PFAFFIAN_MODULES + ["pfansatz.pipeline"])]
    assert run_probe(CLI_PROBE, "minor-sum", "--n", "3") == [
        0, sorted(PFAFFIAN_MODULES + ["pfansatz.linalg", "pfansatz.minorsum"])]


def module_level_imports(source: str) -> list:
    """The modules that the top level of `source` imports, as written (a
    relative import keeps its dots)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return sorted(names)


# every command compiles these four modules: a module-level import added to
# one of them is paid by every job's start-up
START_UP_IMPORTS = {
    "cli": ["._version", ".pfaffian", ".poly", ".sequences", "__future__", "argparse",
            "fractions", "json", "os", "sys", "typing"],
    "pfaffian": [".poly", ".sequences", "__future__", "fractions", "itertools", "operator",
                 "typing"],
    "poly": ["__future__", "decimal", "fractions", "math", "operator", "re", "sys", "typing"],
    "sequences": [".poly", "__future__", "fractions", "functools", "math", "typing"],
}


@pytest.mark.parametrize("module", sorted(START_UP_IMPORTS))
def test_start_up_modules_gain_no_module_level_import(module):
    source = (ROOT / "src" / "pfansatz" / f"{module}.py").read_text()
    assert module_level_imports(source) == START_UP_IMPORTS[module]


def test_the_scan_finds_a_module_level_import():
    source = ("import os, json\nfrom . import a\nfrom .b import c\n\n\n"
              "def f():\n    import random\n    return random\n")
    assert module_level_imports(source) == [".", ".b", "json", "os"]


def test_conjecture_and_symbolic_certify_load_no_guessing_or_catalog():
    for argv in (("conjecture", "--k", "3", "--n-max", "4"),
                 ("certify", "--family", "narayana:x=sym", "--n-max", "3")):
        code, modules = run_probe(CLI_PROBE, *argv)
        assert code == 0
        assert "pfansatz.pipeline" in modules
        assert not {"pfansatz.guessing", "pfansatz.catalog"} & set(modules)


# Runs each argv of the JSON list in its first argument through
# `pfansatz.cli` in one interpreter, and prints, per argv, the exit status
# and which modules of the JSON list in its second argument are loaded
# after it.
MODULES_PROBE = """
import contextlib, io, json, sys
import pfansatz.cli
watched = set(json.loads(sys.argv[2]))
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = pfansatz.cli.main(argv)
    seen.append([code, sorted(watched & set(sys.modules))])
print(json.dumps(seen))
"""


def every_command(tmp_path) -> list:
    """One argv per command, `selftest` last."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 4, "upper": [[1, 2, "3"], [3, 4, "2/5"], [1, 4, "x"]]}))
    return [
        ["pfaffian", "--family", "motzkin", "--dim", "6"],
        ["pfaffian", "--file", str(path)],
        ["certify", "--family", "motzkin", "--n-max", "4"],
        ["certify", "--family", "narayana:x=sym", "--n-max", "3"],
        ["guess", "--source", "c:motzkin"],
        ["conjecture", "--k", "3", "--n-max", "4"],
        ["minor-sum", "--n", "3"],
        ["okinawa", "--i-max", "3", "--j-max", "3"],
        ["selftest"],
    ]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    """Under `python -S`, so that no site hook preloads these modules or
    hides them."""
    commands = every_command(tmp_path)
    seen = run_probe(MODULES_PROBE, json.dumps(commands), json.dumps(["dataclasses", "inspect"]),
                     flags=("-S",))
    assert seen == [[0, []]] * len(commands)


def test_only_selftest_loads_the_suites(tmp_path):
    commands = every_command(tmp_path)
    seen = run_probe(MODULES_PROBE, json.dumps(commands), json.dumps(["pfansatz.selftest"]))
    assert seen == [[0, []]] * (len(commands) - 1) + [[0, ["pfansatz.selftest"]]]


def test_only_a_symbolic_certify_past_the_crossover_loads_the_interpolation(tmp_path):
    commands = every_command(tmp_path) + [["certify", "--family", "narayana:x=sym", "--n-max", "4"]]
    seen = run_probe(MODULES_PROBE, json.dumps(commands), json.dumps(["pfansatz.interpolation"]))
    assert seen == [[0, []]] * (len(commands) - 1) + [[0, ["pfansatz.interpolation"]]]


TEXT_READER = json.dumps(["ast", "pfansatz.polytext"])


def test_jobs_without_polynomial_text_load_no_text_reader():
    """Under `python -S`: a family Pfaffian, the conjecture check, the minor
    sum, a symbolic and a rational certify (the catalog's operators and the
    guess regions are built from Polynomials) and a guess on a family's
    table read no polynomial text, so neither `ast` nor `pfansatz.polytext`
    is loaded."""
    commands = [
        ["pfaffian", "--family", "narayana:x=sym", "--dim", "6"],
        ["conjecture", "--k", "3", "--n-max", "4"],
        ["minor-sum", "--n", "3"],
        ["certify", "--family", "narayana:x=sym", "--n-max", "3"],
        ["certify", "--family", "motzkin", "--n-max", "6"],
        ["certify", "--family", "narayana:x=3/7", "--n-max", "6"],
        ["guess", "--source", "c:motzkin"],
    ]
    seen = run_probe(MODULES_PROBE, json.dumps(commands), TEXT_READER, flags=("-S",))
    assert seen == [[0, []]] * len(commands)


def test_closed_form_text_loads_the_text_reader():
    """The converse, under `python -S`: closed-form text goes through the
    one reader of polynomial text."""
    command = ["certify", "--family", "motzkin", "--n-max", "4", "--closed-form", "prod(4*k+1)"]
    seen = run_probe(MODULES_PROBE, json.dumps([command]), TEXT_READER, flags=("-S",))
    assert seen == [[0, ["ast", "pfansatz.polytext"]]]


def test_every_export_resolves_and_star_import_binds_it():
    for name in pfansatz.__all__:
        assert getattr(pfansatz, name) is not None, name
    namespace = {}
    exec("from pfansatz import *", namespace)
    assert set(pfansatz.__all__) <= set(namespace)
    assert set(pfansatz.__all__) <= set(dir(pfansatz))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pfansatz.no_such_name
    assert not hasattr(pfansatz, "gamma")  # no longer exported
