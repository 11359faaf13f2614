"""Every private name that ``src/dfnvem`` defines is used there.

A private (``_``-prefixed, not dunder) top-level function, class or
constant, or a private method, that no code in ``src/`` names outside its
own definition is dead: tests may call it, but the program never does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dfnvem"


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


def test_every_private_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name is not None:
                uses.setdefault(name, []).append((module, node.lineno))
    unused = [f"{module}:{node.lineno} {name}"
              for module, tree in trees.items()
              for name, node in definitions(tree)
              if all(m == module and node.lineno <= line <= node.end_lineno
                     for m, line in uses.get(name, []))]
    assert not unused, "defined in src/ but never used there: " + \
        ", ".join(unused)
