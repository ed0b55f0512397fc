"""Source-level guards of the package: standard library only, no eval, no floats,
no attribute filled lazily but a diagram's canonical word, every command-line word
and map file bounded, the word format kept behind ``diagrams``, and a cheap import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pdgenus
from pdgenus import cli, golden, maps, weight_system

MODULES = sorted(Path(pdgenus.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_is_walked():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "diagrams", "weight_system"}


def _absolute_imports(path):
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    return imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_absolute_imports_are_standard_library(path):
    imported = _absolute_imports(path)
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # dataclasses pulls in inspect, dis, ast and tokenize: about 10 ms of every cold start
    assert "dataclasses" not in _absolute_imports(path)


def _modules_added_by(statement):
    """The modules that ``statement`` adds to a fresh interpreter's ``sys.modules``.

    Modules that the interpreter loads before running it (``site`` and its path
    hooks) do not count.  Whatever ``statement`` prints comes before the last line.
    """
    script = f"import sys; bare = set(sys.modules); {statement}; print(*set(sys.modules) - bare)"
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(pdgenus.__file__).parent.parent)},
    )
    return set(child.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_dataclasses_inspect_or_json():
    added = _modules_added_by("import pdgenus")
    assert "pdgenus.weight_system" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json"})


def test_importing_the_cli_loads_no_golden_ast_dataclasses_or_inspect():
    # only the table command reads the golden table, and golden loads ast
    added = _modules_added_by("import pdgenus.cli")
    assert "pdgenus.cli" in added
    assert added.isdisjoint({"pdgenus.golden", "ast", "dataclasses", "inspect"})


def test_the_table_command_loads_golden():
    added = _modules_added_by("import pdgenus.cli; pdgenus.cli.main(['--json', 'table'])")
    assert {"pdgenus.golden", "ast"} <= added


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_eval_exec_or_float_calls(path):
    calls = [
        node.func.id
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("eval", "exec", "float")
    ]
    assert calls == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_float_constants(path):
    floats = [
        node.value
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert floats == []


def test_all_lists_exactly_the_imported_names():
    init = Path(pdgenus.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(_tree(init))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert set(pdgenus.__all__) == imported
    assert len(pdgenus.__all__) == len(imported)
    assert all(hasattr(pdgenus, name) for name in pdgenus.__all__)


def test_a_map_sets_its_attributes_only_at_construction():
    # a map computes its derived data in __init__ and keeps no lazy caches
    tree = _tree(Path(maps.__file__))
    (cls,) = [n for n in tree.body if getattr(n, "name", None) == "CombinatorialMap"]
    methods = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name != "__init__"]
    assigned = [
        f"{method.name}: self.{node.attr}"
        for method in methods
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]
    assert methods and assigned == []


def _attribute_writes(node, scope):
    """(scope, target) of every attribute stored or deleted under ``node``, where
    ``scope`` is the dotted name of the innermost enclosing class or function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_writes(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del)):
            yield scope, ast.unparse(child)
        elif isinstance(child, ast.Call) and (
            isinstance(child.func, ast.Name) and child.func.id in ("setattr", "delattr")
            or isinstance(child.func, ast.Attribute)
            and child.func.attr in ("__setattr__", "__delattr__")
        ):
            yield scope, ast.unparse(child)
        yield from _attribute_writes(child, scope)


def test_only_the_canonical_word_fills_lazily():
    # Outside construction, an attribute is written only where a diagram keeps its
    # canonical word: values are complete when built and never change afterwards.
    lazy = {("diagrams", "ChordDiagram._canonical_key"), ("diagrams", "_canonical_diagram")}
    writes = [
        f"{path.stem}.{scope}: {target}"
        for path in MODULES
        for scope, target in _attribute_writes(_tree(path), "")
        if scope.rpartition(".")[2] not in ("__init__", "__new__")
        and (path.stem, scope) not in lazy
    ]
    assert writes == []


def test_cli_parses_words_only_in_the_bounded_helper():
    # every word argument goes through _parse_words, which enforces MAX_WORD_CHORDS
    callers = [
        function.name
        for function in ast.walk(_tree(Path(cli.__file__)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "parse"
    ]
    assert callers == ["_parse_words"]


def test_cli_reads_map_files_only_in_the_bounded_helper():
    # every map file goes through _read_map, which enforces MAX_MAP_BYTES
    callers = {
        function.name
        for function in ast.walk(_tree(Path(cli.__file__)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "open"
        or isinstance(node, ast.Attribute) and node.attr in ("open", "from_text")
    }
    assert callers == {"_read_map"}


@pytest.mark.parametrize(
    "path", [Path(m.__file__) for m in (weight_system, golden, cli)], ids=lambda p: p.stem
)
def test_weight_system_leaves_the_word_format_to_diagrams(path):
    # Of diagrams' private names only the lookups by class id may be imported:
    # _class_id (the class of a word) and _class_sources (where each class's
    # polynomial comes from, as class ids), and the class store _classes, read
    # only for the class count, as len(_classes(n)[1]).
    # The rest of the word format (normalization, numbering, rotation, interlace
    # bitmasks) stays behind ChordDiagram, and bisect is not needed to find a class.
    imports = [
        node for node in ast.walk(_tree(path)) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    names = {alias.name for node in imports for alias in node.names}
    private = {
        alias.name
        for node in imports
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("diagrams")
        for alias in node.names
        if alias.name.startswith("_")
    }
    modules = {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert imports and private <= {"_class_id", "_class_sources", "_classes"}
    tree = _tree(path)
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "_classes"]
    assert len(uses) == len(re.findall(r"\blen\(_classes\(\w+\)\[1\]\)", ast.unparse(tree)))
    assert names.isdisjoint({"normalize_labels", "bisect"}) and "bisect" not in modules


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_modules_parse_with_the_oldest_supported_grammar(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
