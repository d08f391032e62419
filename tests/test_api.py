import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import lonely_runner
from lonely_runner.cli import main

# Modules whose public names the package re-exports; the CLI is an entry point.
NOT_REEXPORTED = {"cli", "__main__"}


def library_modules():
    names = sorted(m.name for m in pkgutil.iter_modules(lonely_runner.__path__) if m.name not in NOT_REEXPORTED)
    return [importlib.import_module(f"lonely_runner.{name}") for name in names]


def test_package_all_is_the_union_of_module_alls():
    union = set().union(*(module.__all__ for module in library_modules()))
    assert len(lonely_runner.__all__) == len(set(lonely_runner.__all__))
    assert set(lonely_runner.__all__) == union


def test_public_names_are_pinned():
    # A change to the public surface has to show up as an edit here.
    assert sorted(lonely_runner.__all__) == [
        "ClassificationReport",
        "EnumerationSummary",
        "HalfPlane",
        "LemmaWidths",
        "QGeometry",
        "QLandmarks",
        "SpeedVector",
        "classify",
        "contains",
        "coprime_count_moebius",
        "dyadic_denominator",
        "dyadic_exponent",
        "earliest_suitable_time",
        "find_dyadic_time",
        "is_suitable",
        "lattice_witness_from_time",
        "normalize",
        "q_geometry",
        "suitable_set",
        "sweep",
    ]


def test_every_public_name_resolves():
    for module in library_modules():
        for name in module.__all__:
            assert getattr(lonely_runner, name) is getattr(module, name), f"{module.__name__}.{name}"


# One value of each result record, from the library call that returns it.
CELL = (17, 16, 7, 6, 5, 4, 2)
RECORDS = {
    "EnumerationSummary": lambda: lonely_runner.sweep(6, with_oracle=True),
    "ClassificationReport": lambda: lonely_runner.classify((5, 3, 2), with_oracle=True),
    "HalfPlane": lambda: lonely_runner.q_geometry(CELL).halfplanes[0],
    "QLandmarks": lambda: lonely_runner.q_geometry(CELL).landmarks,
    "LemmaWidths": lambda: lonely_runner.q_geometry(CELL).lemma_widths,
    "QGeometry": lambda: lonely_runner.q_geometry(CELL),
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record) is getattr(lonely_runner, name)
    field = next(iter(type(record).__annotations__))
    for change in (
        lambda: setattr(record, field, None),
        lambda: delattr(record, field),
        lambda: setattr(record, "extra", None),
    ):
        with pytest.raises(AttributeError):
            change()
    assert record == RECORDS[name]()


def test_readme_layout_lists_every_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py) ", block, re.MULTILINE)
    on_disk = sorted(path.name for path in Path(lonely_runner.__path__[0]).glob("*.py"))
    assert sorted(listed) == on_disk


def test_readme_library_use_matches_its_comments():
    # Each line ``expr  # value`` of the block must print as its comment
    # begins; the rest of the comment is prose.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr) and statement.lineno in comments:
            value = repr(eval(code, namespace))
            assert comments[statement.lineno].startswith(value), f"{code}: {value}"
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 5


def test_readme_cli_example_matches_main(capsys):
    # The text block under "Example:" is one command line and the stdout it prints, byte for byte.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("Example:", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    command, expected = block.split("\n", 1)
    prompt, _, args = command.partition(" lonely-runner ")
    assert prompt == "$"
    assert main(args.split()) == 0
    assert capsys.readouterr().out == expected


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_only_named_private_names_cross_modules():
    # A module may reach into another's private names only where this
    # list says so; each entry is (user, "module._name").
    allowed = {
        ("cli", "oracle._suitable_quads"),
        ("dyadic", "oracle._sweep"),
        ("enumeration", "classify._rules"),
    }
    found = set()
    for path in sorted(Path(lonely_runner.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> library module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.add((path.stem, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _private(node.attr):
                if node.value.id in modules:
                    found.add((path.stem, f"{modules[node.value.id]}.{node.attr}"))
    assert found == allowed


def test_every_private_definition_is_used_in_the_library():
    # A private function or class that only the tests call belongs in
    # tests/helpers.py; a use inside its own body does not count.
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(lonely_runner.__path__[0]).glob("*.py")}
    definitions = [
        (stem, node)
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name)
    ]
    assert definitions
    for stem, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        used = any(
            definition.name in (getattr(node, "id", None), getattr(node, "attr", None))
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inside
        )
        assert used, f"{stem}.{definition.name} is used by no other library code"


def _docstrings_and_comments(source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    docstrings = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
    ]
    return "\n".join(comments + docstrings)


def test_prose_names_resolve():
    # Every ``module.name`` that the README, the demos or the library's
    # own docstrings and comments give must still exist; ``module.py`` is a file.
    root = Path(__file__).resolve().parents[1]
    package = Path(lonely_runner.__path__[0])
    modules = {path.stem for path in package.glob("*.py") if not path.stem.startswith("_")}
    texts = {"README.md": (root / "README.md").read_text()}
    texts |= {path.name: path.read_text() for path in sorted((root / "demos").glob("*.py"))}
    texts |= {path.name: _docstrings_and_comments(path.read_text()) for path in sorted(package.glob("*.py"))}
    pattern = re.compile(rf"\b({'|'.join(modules)})\.(?!py\b)(\w+)")
    found = [(where, *match.groups()) for where, text in texts.items() for match in pattern.finditer(text)]
    assert found
    for where, module, name in found:
        assert hasattr(importlib.import_module(f"lonely_runner.{module}"), name), f"{where}: {module}.{name}"
