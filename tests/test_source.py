"""Static checks on the source of the dsx package."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dsx")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
