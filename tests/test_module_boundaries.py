"""No module of the package imports an underscore-prefixed name from a
sibling module. A name that two modules share is public in the module
that owns it, so a format or helper has one owner that says so, and a
change to a private name stays inside its module.
"""

import ast
from pathlib import Path

import pytest

import normsim

MODULES = sorted(Path(normsim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_name_is_imported_from_a_sibling(path):
    private = [
        f"{'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "normsim")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
