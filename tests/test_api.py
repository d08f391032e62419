import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import lonely_runner

# Modules whose public names the package re-exports; the CLI is an entry point.
NOT_REEXPORTED = {"cli", "__main__"}


def library_modules():
    names = sorted(m.name for m in pkgutil.iter_modules(lonely_runner.__path__) if m.name not in NOT_REEXPORTED)
    return [importlib.import_module(f"lonely_runner.{name}") for name in names]


def test_package_all_is_the_union_of_module_alls():
    union = set().union(*(module.__all__ for module in library_modules()))
    assert len(lonely_runner.__all__) == len(set(lonely_runner.__all__))
    assert set(lonely_runner.__all__) == union


def test_every_public_name_resolves():
    for module in library_modules():
        for name in module.__all__:
            assert getattr(lonely_runner, name) is getattr(module, name), f"{module.__name__}.{name}"


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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_only_named_private_names_cross_modules():
    # A module may reach into another's private names only where this
    # list says so; each entry is (user, "module._name").
    allowed = {
        ("cli", "oracle._suitable_quads"),
        ("dyadic", "oracle._sweep"),
        ("enumeration", "classify._rules"),
        ("enumeration", "oracle._sweep"),
        ("enumeration", "dyadic._grid_hit"),
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
