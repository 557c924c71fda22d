"""Module boundaries inside the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fatpt"


def test_no_module_imports_a_private_name_from_a_sibling():
    # ``from . import _kernels`` (a private module) is fine; a private name
    # taken out of another module is not.
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.level > 0 or node.module.split(".")[0] == "fatpt"
            ):
                crossings += [
                    f"{path.name}: from {'.' * node.level}{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert crossings == []


def _referenced_names(tree, skip, own):
    """Names a module refers to outside the subtree ``skip``: imported
    names, attributes, strings that are exactly a name (the ones
    ``monkeypatch.setattr`` and the benchmark's bindings pass) and, in the
    defining module ``own``, loaded names. A bare name elsewhere is a local
    or an imported name, whose import already counts."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and own and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _package_defs(tree):
    """(qualified name, node, own) for each module-level def or class and
    each non-dunder method or property of a module-level class; ``own``
    says whether a bare name in the defining module can reach it, which a
    method's cannot."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item, False


def test_every_helper_has_a_caller():
    # A module-level def or class of the package, or a method or property
    # of one of its classes, that nothing in src/, tests/ or perfbench/
    # refers to, outside its own definition, is dead code and is deleted.
    root = SRC.parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for d in ("src", "tests", "perfbench")
        for path in sorted((root / d).rglob("*.py"))
    }
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, node, own in _package_defs(trees[path])
        if not any(
            node.name in _referenced_names(tree, node, own and other == path) for other, tree in trees.items()
        )
    ]
    assert unused == []
