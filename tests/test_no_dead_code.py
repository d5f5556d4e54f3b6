"""Every module-level function under src/borelpoints has a library use.

A function is used when library code outside its own definition names it:
a call, a reference or an import.  Names in docstrings and comments do
not: they are no code.  The imports in `borelpoints/__init__.py` make the
public API, and only count as a use for the functions that the benchmark
traces, listed in SPANS and LEVELS of bench/spans.py.  A function only
the tests and the public API name belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "borelpoints"
SPANS_PATH = ROOT / "bench" / "spans.py"


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


def unused_functions(sources: dict[str, str], traced=frozenset()) -> set[str]:
    """The module.function names of the module-level functions in sources,
    a dict from module name to its text, that no code outside their own
    definition names.  What `__init__` names is a use only for the names
    in traced."""
    defined, uses = set(), []  # uses: (owner or None, the names)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((module, stmt.name))
                uses.append(((module, stmt.name), named(stmt)))
            elif module == "__init__":
                uses.append((None, named(stmt) & traced))
            else:
                uses.append((None, named(stmt)))
    return {
        f"{module}.{name}"
        for module, name in defined
        if not any(name in names for owner, names in uses if owner != (module, name))
    }


def traced_names() -> set[str]:
    """The attributes that bench/spans.py wraps (SPANS) or counts the
    levels of (LEVELS), read from its source."""
    lists = {}
    for stmt in ast.parse(SPANS_PATH.read_text()).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "LEVELS"):
                lists[target.id] = ast.literal_eval(stmt.value)
    return {attr for _, _, attr in lists["SPANS"]} | {
        attr for _, attr, _ in lists["LEVELS"]
    }


def test_finder_sees_unused_functions():
    sources = {
        "a": 'def used():\n    """dead"""\n\n\ndef dead():\n    return dead()\n',
        "b": "from .a import used\n\n\ndef caller():\n    return used\n",
        "__init__": "from .b import caller\n",
    }
    assert unused_functions(sources, {"caller"}) == {"a.dead"}
    # an export alone is no use, unless the benchmark traces the name
    assert unused_functions(sources) == {"a.dead", "b.caller"}


def test_every_library_function_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    sources = {path.stem: path.read_text() for path in paths}
    assert unused_functions(sources, traced_names()) == set()
