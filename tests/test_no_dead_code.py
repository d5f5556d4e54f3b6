"""Every module-level function and class member under src/borelpoints has
a library use.

A function or a member (method, property or classmethod) is used when
library code outside its own definition names it: a call, a reference,
an import, or a string that is an identifier, because `hp --op` reaches
`increment`, `lift` and `difference` through getattr and `cli` reads
`gens` through attrgetter.  Names in docstrings and comments do not:
they are no code.  The imports in `borelpoints/__init__.py` make the
public API, and only count as a use for the functions that the benchmark
traces, listed in SPANS and LEVELS of bench/spans.py.  Dunder members
are exempt, and so are the members the benchmark traces or whose
attributes bench/*.py reads.  A function or member only the tests and
the public API name belongs in the tests.

The check goes by name, not by class: a member counts as used when any
attribute of that name is read.  So `MonomialIdeal.zero`, `.unit` and
`.is_zero`, test-only too, were hidden by `KeyLayout.zero`, a local
`unit` and `Characteristic.is_zero`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "borelpoints"
BENCH = ROOT / "bench"
SPANS_PATH = BENCH / "spans.py"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def named(node) -> set[str]:
    """The names node refers to: bare names, attributes, imports, and
    strings that are identifiers, docstrings aside."""
    docstrings = {
        id(child.value)
        for child in ast.walk(node)
        if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
    }
    out = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif isinstance(child, ast.alias):
            out.add(child.name.rpartition(".")[2])
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and child.value.isidentifier()
            and id(child) not in docstrings
        ):
            out.add(child.value)
    return out


def unused_definitions(
    sources: dict[str, str], traced=frozenset(), read=frozenset()
) -> set[str]:
    """The module.function and module.Class.member names of the
    module-level functions and the class members in sources, a dict from
    module name to its text, that no code outside their own definition
    names.  What `__init__` names is a use only for the names in traced.
    Dunder members, and members named in traced or read, are exempt."""
    defined, uses = {}, []  # defined: key -> name; uses: (owner or None, the names)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, DEFINITIONS):
                key = f"{module}.{stmt.name}"
                defined[key] = stmt.name
                uses.append((key, named(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                for part in (*stmt.bases, *stmt.decorator_list):
                    uses.append((None, named(part)))
                for item in stmt.body:
                    if not isinstance(item, DEFINITIONS):
                        uses.append((None, named(item)))
                        continue
                    key = f"{module}.{stmt.name}.{item.name}"
                    if not item.name.startswith("__") and item.name not in traced | read:
                        defined[key] = item.name
                    uses.append((key, named(item)))
            elif module == "__init__":
                uses.append((None, named(stmt) & traced))
            else:
                uses.append((None, named(stmt)))
    return {
        key
        for key, name in defined.items()
        if not any(name in names for owner, names in uses if owner != key)
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


def bench_attributes() -> set[str]:
    """The attribute names that bench/*.py reads, from their sources."""
    return {
        node.attr
        for path in BENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def test_finder_sees_unused_functions():
    sources = {
        "a": 'def used():\n    """dead"""\n\n\ndef dead():\n    return dead()\n',
        "b": "from .a import used\n\n\ndef caller():\n    return used\n",
        "__init__": "from .b import caller\n",
    }
    assert unused_definitions(sources, {"caller"}) == {"a.dead"}
    # an export alone is no use, unless the benchmark traces the name
    assert unused_definitions(sources) == {"a.dead", "b.caller"}


def test_finder_sees_unused_members():
    source = (
        "class C:\n"
        "    def __eq__(self, other):\n"
        '        """dead"""\n'
        "        return self.called()\n"
        "    def called(self):\n"
        "        return self.called()\n"
        "    @property\n"
        "    def by_name(self):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def dead(cls):\n"
        "        return cls.dead()\n"
        "    @property\n"
        "    def read(self):\n"
        "        return 0\n"
        "\n"
        "\n"
        "def user(c):\n"
        '    return getattr(c, "by_name")\n'
        "\n"
        "\n"
        "user(C())\n"
    )
    assert unused_definitions({"a": source}, read={"read"}) == {"a.C.dead"}
    assert unused_definitions({"a": source}) == {"a.C.dead", "a.C.read"}


def test_every_library_function_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    sources = {path.stem: path.read_text() for path in paths}
    assert unused_definitions(sources, traced_names(), bench_attributes()) == set()
