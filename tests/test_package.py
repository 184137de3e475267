"""The package's public surface: everything exported is importable,
nothing else is defined in `src/` without a use there, and the sources
keep to the oldest Python that `pyproject.toml` allows."""

import ast
import dataclasses
import graphlib
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tvec


def test_every_exported_name_resolves():
    missing = [name for name in tvec.__all__ if not hasattr(tvec, name)]
    assert missing == []
    assert len(set(tvec.__all__)) == len(tvec.__all__)


def test_every_definition_is_used_or_exported():
    """Each top-level function and class of `src/tvec` is named somewhere
    in `src/tvec` outside its own definition, or is exported: code that
    only the tests use belongs in `tests/`."""
    statements = []
    definitions = []
    for path in sorted(Path(tvec.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt)
                      if isinstance(n, ast.Attribute)}
            statements.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, stmt))
    unused = [f"{module}:{d.name}" for module, d in definitions
              if d.name not in tvec.__all__
              and not any(d.name in names
                          for stmt, names in statements if stmt is not d)]
    assert unused == []


SOURCES = sorted(Path(tvec.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_rebinds_its_globals(path):
    """State that a command needs belongs to an object the command makes
    and passes on, such as the table of shared def erasures that
    `resolve_defs` gives `erase`: a rebound module global is one state for
    every caller in the process."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Global)]


def test_only_the_command_line_imports_gc():
    """The collector has one owner: `cli.main` pauses it around a command
    and restores it (see `tvec.cli`), and no kernel module touches it."""
    importers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Import)
               and any(alias.name == "gc" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "gc"
               for node in ast.walk(tree)):
            importers.append(path.name)
    assert importers == ["cli.py"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_call_passes_span_by_keyword(path):
    """A node's `span` is the last positional parameter of its class
    (`syntax.frozen`).  CPython builds a dict of the keyword arguments of
    every class call that passes one, and the parser and the walkers make
    a node per step, so each call in `src/tvec` passes the span by
    position."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and any(kw.arg == "span" for kw in node.keywords)]


def test_every_dataclass_is_made_by_frozen():
    """One storage discipline: each dataclass that a module of `src/tvec`
    defines is made by `syntax.frozen`, so it is slotted, its instances
    have no `__dict__`, and it refuses assignment through the shared
    `__setattr__`."""
    made = []
    for path in SOURCES:
        if path.stem != "__init__":
            module = importlib.import_module(f"tvec.{path.stem}")
            made += [value for value in vars(module).values()
                     if isinstance(value, type)
                     and dataclasses.is_dataclass(value)
                     and value.__module__ == module.__name__]
    assert tvec.syntax.Context in made and tvec.Diagnostic in made
    odd = [cls.__qualname__ for cls in made
           if "__slots__" not in vars(cls) or cls.__dictoffset__
           or cls.__setattr__ is not tvec.syntax._setattr]
    assert odd == []


def test_the_checker_decides_no_join_itself():
    """`reduce.joinable` is the one decision of a join, which the checker
    and the self-test both ask.  The checker imports no `normalize`, so it
    cannot normalize join sides on its own again."""
    tree = ast.parse((Path(tvec.__file__).parent / "typecheck.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "joinable" in imported and "normalize" not in imported
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "normalize"]


def _parsed() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in SOURCES}


def _relative_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    """The `from . import m` and `from .m import n` anywhere in `tree`."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_the_module_graph_has_no_cycle():
    """Each module imports only modules listed above it in README's
    "Layout": the checker imports the printer, and the frontend takes
    `Diagnostic` and `Mode` from `syntax`, not from the checker."""
    graph = {stem: {node.module or alias.name
                    for node in _relative_imports(tree)
                    for alias in node.names}
             for stem, tree in _parsed().items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle {' -> '.join(err.args[1])}")
    assert "typecheck" not in graph["frontend"]


def test_no_module_imports_inside_a_body():
    """An import inside a function hides an edge of the module graph, and
    a cycle with it."""
    nested = [f"{stem}.py:{node.lineno}" for stem, tree in _parsed().items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and node.col_offset]
    assert nested == []


def _defined(tree: ast.Module) -> set[str]:
    """The names that the top level of `tree` defines or assigns."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        elif isinstance(stmt, ast.AnnAssign):
            names.add(stmt.target.id)
    return names


def test_every_name_is_imported_from_its_definition():
    """`from .m import n` takes `n` from the module that defines it, so
    no module serves as a second address of another module's names."""
    modules = _parsed()
    relayed = [f"{stem}: {node.module}.{alias.name}"
               for stem, tree in modules.items()
               for node in _relative_imports(tree) for alias in node.names
               if alias.name not in (_defined(modules[node.module])
                                     if node.module else modules)]
    assert relayed == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    """`pyproject.toml` promises Python 3.10."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_regular_expressions_need_no_python_3_11():
    """Atomic groups and possessive quantifiers came in Python 3.11.  Each
    pattern is read with every escape as one plain character, and without
    whitespace, which a verbose pattern ignores."""
    patterns = [
        node.args[0].value
        for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
        and node.args and isinstance(node.args[0], ast.Constant)]
    assert patterns
    for pattern in patterns:
        plain = re.sub(r"\s+", "", re.sub(r"\\.", "e", pattern, flags=re.S))
        for construct in ("(?>", "*+", "++", "?+", "}+"):
            assert construct not in plain, (construct, pattern)


def test_import_compiles_little_generated_code():
    """Every command pays for `import tvec` first.  Node and record
    classes compile their methods once per field shape (`syntax.frozen`),
    so the import compiles few strings; a class made the way a plain
    frozen dataclass is made compiles five or six."""
    src = str(Path(tvec.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    script = textwrap.dedent("""
        import sys
        count = 0
        def hook(event, args):
            global count
            if event == "compile" and args[1] in ("<string>", "<node>"):
                count += 1
        sys.addaudithook(hook)
        import tvec, tvec.cli
        print(count)
        """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 80
