"""Every module-level function under src/borelpoints has a library use.

A function is used when library code outside its own definition names it:
a call, a reference or an import.  The imports in `borelpoints/__init__.py`
make the public API, so they count too.  Names in docstrings and comments
do not: they are no code.  A function only the tests call belongs in the
tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "borelpoints"


def named(node) -> set[str]:
    """The names node refers to: bare names, attributes and imports."""
    out = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif isinstance(child, ast.alias):
            out.add(child.name.rpartition(".")[2])
    return out


def unused_functions(sources: dict[str, str]) -> set[str]:
    """The module.function names of the module-level functions in sources,
    a dict from module name to its text, that no code outside their own
    definition names."""
    defined, uses = set(), []  # uses: (owner or None, the names)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((module, stmt.name))
                uses.append(((module, stmt.name), named(stmt)))
            else:
                uses.append((None, named(stmt)))
    return {
        f"{module}.{name}"
        for module, name in defined
        if not any(name in names for owner, names in uses if owner != (module, name))
    }


def test_finder_sees_unused_functions():
    sources = {
        "a": 'def used():\n    """dead"""\n\n\ndef dead():\n    return dead()\n',
        "b": "from .a import used\n\n\ndef caller():\n    return used\n",
        "__init__": "from .b import caller\n",
    }
    assert unused_functions(sources) == {"a.dead"}


def test_every_library_function_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert unused_functions({path.stem: path.read_text() for path in paths}) == set()
