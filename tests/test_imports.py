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
