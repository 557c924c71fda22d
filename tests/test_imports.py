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


def test_no_unused_imports():
    # Every name a module imports is used in it; ``__init__`` imports to
    # re-export. A leftover import is a dependency nothing needs.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


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


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "reverse", "setdefault", "sort", "update",
}


def _module_containers(tree):
    """Names a module binds at its top level to a dict, list or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, _CONTAINERS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter")
        ):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _mutated_names(fn):
    """Names a function mutates in place and does not bind itself: a
    subscript stored or deleted, or a call of a mutating method."""
    local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    mutated = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id not in local:
            mutated.add(target.id)
    return mutated


def test_no_function_mutates_module_state():
    # Results live in arguments and return values: a module-level dict,
    # list or set that a function fills is state shared by every request.
    # ``linsys.alpha_degree``'s lru_cache is the one request cache.
    shared = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        containers = _module_containers(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                shared += [f"{path.name}: {fn.name} mutates {name}" for name in sorted(_mutated_names(fn) & containers)]
    assert shared == []
