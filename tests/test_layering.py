"""Layering of the scalar kernel: ``linalg`` is the one module that imports ``modp``.

Every rank, kernel, solve and determinant in the package is read off the two
echelon forms that ``linalg`` dispatches per field.  A second module reaching
into ``modp`` would be a second elimination path; this parses the sources and
fails on one.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ulrichmf"


def imports_modp(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "modp" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "modp" or any(alias.name == "modp" for alias in node.names):
                return True
    return False


def test_only_linalg_imports_modp():
    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if imports_modp(ast.parse(path.read_text(), filename=str(path)))
    )
    assert importers == ["linalg"]


def test_import_check_sees_each_form():
    for source in ("from . import modp", "from .modp import rref",
                   "from ulrichmf import modp", "import ulrichmf.modp"):
        assert imports_modp(ast.parse(source)), source
    for source in ("from . import linalg", "from .fields import PrimeField"):
        assert not imports_modp(ast.parse(source)), source
