"""Every function, class and method of `src/ddrt` has a caller in `src/ddrt`.

A definition counts as called when its name occurs outside its own body: as
a name, an attribute, an import alias or a string constant (for
`getattr(obj, "to_json")` and the lazy-import table of `ddrt/__init__.py`).
Occurrences inside a definition that is itself uncalled do not count, and the
check runs to a fixpoint, so a cluster whose members only refer to each other
is caught too. Only dunders are exempt: Python calls them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ddrt

SRC = Path(ddrt.__file__).resolve().parent


def _definitions_and_references(trees: dict[str, ast.Module]):
    """The tracked definitions as (module, qualified name, name), and every
    reference as (name, the tracked definitions whose bodies enclose it)."""
    definitions: list[tuple[str, str, str]] = []
    references: list[tuple[str, frozenset]] = []

    def visit(node: ast.AST, module: str, scope: tuple[tuple[str, str], ...],
              enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # the decorators belong to the enclosing scope, as Python evaluates them there
            for d in node.decorator_list:
                visit(d, module, scope, enclosing)
            is_method = bool(scope) and scope[-1][0] == "class"
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if (not scope or is_method) and not dunder:
                key = (module, ".".join([n for _, n in scope] + [node.name]), node.name)
                definitions.append(key)
                enclosing = enclosing | {key}
            inner = scope + (("class" if isinstance(node, ast.ClassDef) else "def", node.name),)
            for child in ast.iter_child_nodes(node):
                if child not in node.decorator_list:
                    visit(child, module, inner, enclosing)
            return
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None:
            references.append((name, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, enclosing)

    for module, tree in trees.items():
        for node in tree.body:
            visit(node, module, (), frozenset())
    return definitions, references


def uncalled(trees: dict[str, ast.Module]) -> list[str]:
    """The qualified names (`module.name`) of the definitions without a
    caller. The called ones are found as a least fixpoint from the module
    level, so definitions that only call each other stay uncalled."""
    definitions, references = _definitions_and_references(trees)
    by_name: dict[str, list[frozenset]] = {}
    for name, enclosing in references:
        by_name.setdefault(name, []).append(enclosing)
    called: set = set()
    changed = True
    while changed:
        changed = False
        for key in definitions:
            if key not in called and any(
                key not in enc and enc <= called for enc in by_name.get(key[2], ())
            ):
                called.add(key)
                changed = True
    return sorted(f"{key[0]}.{key[1]}" for key in definitions if key not in called)


def _parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    return {module: ast.parse(text) for module, text in sources.items()}


def test_every_definition_in_src_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert uncalled(trees) == []


class TestTheGuard:
    def test_a_self_recursive_function_is_uncalled(self):
        trees = _parse({"m": "def f(n):\n    return f(n - 1)\n"})
        assert uncalled(trees) == ["m.f"]

    def test_a_cluster_that_refers_only_to_itself_is_uncalled(self):
        trees = _parse({"m": "def a():\n    return b()\n\n\ndef b():\n    return a()\n\n\n"
                             "def c():\n    return d()\n\n\ndef d():\n    return 1\n"})
        assert uncalled(trees) == ["m.a", "m.b", "m.c", "m.d"]

    def test_a_caller_in_another_module_counts(self):
        trees = _parse({"m": "def f():\n    return 1\n",
                        "n": "from .m import f\n\nx = f()\n"})
        assert uncalled(trees) == []

    def test_methods_attributes_strings_and_dunders(self):
        trees = _parse({"m": (
            "class A:\n"
            "    def __init__(self):\n        self.x = 1\n"
            "    def used(self):\n        return 1\n"
            "    def by_name(self):\n        return 2\n"
            "    def unused(self):\n        return self.used()\n"
            "\n\nTABLE = {'by_name': 1}\n"
            "\n\ndef g(a: A):\n    return a.used()\n"
            "\n\nprint(g(A()))\n"
        )})
        assert uncalled(trees) == ["m.A.unused"]

    def test_a_decorator_is_a_caller(self):
        trees = _parse({"m": "def deco(f):\n    return f\n\n\n@deco\ndef h():\n    pass\n\n\nh()\n"})
        assert uncalled(trees) == []
