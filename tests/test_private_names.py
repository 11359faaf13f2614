"""Every name that ``src/dfnvem`` defines is used.

A private (``_``-prefixed, not dunder) top-level function, class or
constant, or a private method, that no code in ``src/`` names outside its
own definition is dead: tests may call it, but the program never does.
A public top-level function or class, or a public method, that nothing
in ``src/``, ``tests/`` or ``perfbench/`` names outside its own
definition is dead too.  And every name that the benchmark's tracer
wraps still exists.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dfnvem"


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def definitions(tree):
    """``(name, node)`` of the private top-level functions, classes and
    constants of a module and of the private methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and private(item.name))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, node) for name in names if private(name))


def parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def uses(trees, strings=False):
    """Where each name is used: ``name -> [(path, line)]`` of its
    ``Name`` and ``Attribute`` nodes and, with ``strings``, of string
    constants equal to it (a span table that wraps a function by name),
    except those listed in ``__all__``."""
    found = {}
    for path, tree in trees.items():
        exported = {id(node) for top in tree.body
                    if isinstance(top, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in top.targets)
                    for node in ast.walk(top)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if strings
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in exported
                    else None)
            if name is not None:
                found.setdefault(name, []).append((path, node.lineno))
    return found


def unused(defined, trees, found):
    """The definitions that ``defined`` yields from ``trees`` and that
    ``found`` never names outside their own lines."""
    return [f"{path.name}:{node.lineno} {name}"
            for path, tree in trees.items()
            for name, node in defined(tree)
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in found.get(name, []))]


def test_every_private_name_is_used_in_src():
    trees = parse(sorted(SRC.glob("*.py")))
    dead = unused(definitions, trees, uses(trees))
    assert not dead, "defined in src/ but never used there: " + ", ".join(dead)


def public_definitions(tree):
    """``(name, node)`` of the public top-level functions and classes of a
    module and of the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node


def test_every_public_name_is_used():
    trees = parse(sorted(SRC.glob("*.py")))
    everywhere = {**trees, **parse(sorted(
        [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]))}
    dead = unused(public_definitions, trees, uses(everywhere, strings=True))
    assert not dead, ("defined in src/ but named nowhere in src/, tests/ "
                      "or perfbench/: " + ", ".join(dead))


def test_every_name_the_benchmark_wraps_exists():
    """Each ``(module, attribute)`` row of the span table in
    ``perfbench/run.py``'s ``install_spans`` names an attribute of
    ``dfnvem``; a rename would otherwise show only in a traced benchmark
    run, as a per-layer metric gone missing."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    install, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "install_spans"]
    table, = [node.value for node in ast.walk(install)
              if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["spans"]]
    rows = [(ast.unparse(row.elts[0]), row.elts[1].value) for row in table.elts]
    missing = []
    for owner, attr in rows:
        first, *rest = owner.split(".")
        obj = importlib.import_module(f"dfnvem.{first}")
        for part in rest:
            obj = getattr(obj, part)
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert rows
    assert not missing, "perfbench wraps names dfnvem lacks: " + ", ".join(missing)
