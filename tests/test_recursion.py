"""Every self-recursive function in the library, with what bounds its depth.

Python stops a recursion at about 1000 frames with a RecursionError
traceback, so a function that calls itself needs a guard that bounds its
depth first (exit 3 in the CLI).  A new self-recursive function fails
test_every_recursion_is_listed until RECURSIVE names its guard.  Loops on
an explicit stack, like the Hilbert numerator's pivot tree and the Reeves
walk, need none.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "borelpoints"

# qualified name -> (the guard, as module.attribute; how it bounds the depth)
RECURSIVE = {
    "classify.explore_tree.build": ("classify.MAX_TREE_DEPTH", "a frame per tree level"),
    "cli._tree_payload": ("classify.MAX_TREE_DEPTH", "a frame per tree level"),
    "cli._tree_lines": ("classify.MAX_TREE_DEPTH", "a frame per tree level"),
}


def _calls_itself(fn: ast.FunctionDef, method: bool) -> bool:
    """Whether fn calls its own name: bare for a function, as an attribute
    other than super()'s for a method."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not method and isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if method and isinstance(f, ast.Attribute) and f.attr == fn.name:
            if not (isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "super"):
                return True
    return False


def self_recursive_functions() -> set[str]:
    """The qualified names of the functions under src/borelpoints that
    call themselves, nested ones and methods included."""
    found = set()

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(child, in_class):
                    found.add(".".join(scope + [child.name]))
                visit(child, scope + [child.name], False)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            else:
                visit(child, scope, in_class)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem], False)
    return found


def test_every_recursion_is_listed():
    assert self_recursive_functions() == set(RECURSIVE)


def test_every_guard_exists():
    for guard, _ in RECURSIVE.values():
        module, attr = guard.split(".")
        assert hasattr(importlib.import_module(f"borelpoints.{module}"), attr), guard

