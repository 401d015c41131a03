"""Layering of the scalar kernel: ``linalg`` is the one module that imports ``modp``.

Every rank, kernel, solve and determinant in the package is read off the two
echelon forms that ``linalg`` dispatches per field.  A second module reaching
into ``modp`` would be a second elimination path; this parses the sources and
fails on one.  Below the polynomial layer, the scalar modules and the pencil
(its two Gram matrices) use no ``PolyMatrix`` either, and neither does
``knorrer``: its matrices are coefficient tensors, read from and written to
JSON as such, and only the Hilbert check's fallback gets a PolyMatrix, from
``polymatrix.tensor_matrix``, without naming the class.  An Ulrich candidate
keeps its quadrics only as its pencil's Gram matrices.  No function but the
CLI's parser is memoized: a cache on a computation would be state that grows
for the life of the process.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ulrichmf"
SCALAR_MODULES = ("fields", "modp", "linalg", "binary", "pencil")


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


def uses_polymatrix(tree) -> bool:
    """An import of the name PolyMatrix, or an attribute polymatrix.PolyMatrix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "PolyMatrix" for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "PolyMatrix":
            return True
    return False


def test_scalar_modules_use_no_polymatrix():
    users = [name for name in SCALAR_MODULES
             if uses_polymatrix(ast.parse((PACKAGE / f"{name}.py").read_text()))]
    assert users == []


def test_knorrer_uses_no_polymatrix():
    assert not uses_polymatrix(ast.parse((PACKAGE / "knorrer.py").read_text()))


def test_polymatrix_check_sees_each_form():
    for source in ("from .polymatrix import PolyMatrix", "from .polymatrix import doubled_form, "
                   "PolyMatrix", "from . import polymatrix\npolymatrix.PolyMatrix(f, v, [])",
                   "import ulrichmf.polymatrix\nulrichmf.polymatrix.PolyMatrix"):
        assert uses_polymatrix(ast.parse(source)), source
    for source in ("from .polymatrix import doubled_form", "from . import linalg"):
        assert not uses_polymatrix(ast.parse(source)), source


def test_ulrich_candidates_hold_their_quadrics_only_in_the_pencil():
    # q1 and q2 are read off the pencil's Gram matrices; no candidate keeps a Poly
    import json

    from ulrichmf import knorrer
    from ulrichmf.fields import PrimeField
    from ulrichmf.poly import Poly

    field = PrimeField(10009)
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    built = knorrer.build_candidate(field, 2, lam)
    odd = knorrer.ulrich_for_roots(field, [1, 4, 9, 2, 3], seed=1)
    even = knorrer.ulrich_for_roots(field, [1, 4, 9, 16, 2, 3], seed=1)
    read = knorrer.UlrichCandidate.from_json(json.loads(json.dumps(even.to_json())))
    for cand in (built, odd, even, read):
        assert not [key for key, value in vars(cand).items() if isinstance(value, Poly)]
        assert isinstance(cand.q1, Poly) and isinstance(cand.q2, Poly)
        assert cand.pencil.variables == cand.variables


MEMOIZERS = ("cache", "lru_cache")


def memoized_functions(tree) -> list[str]:
    """Functions decorated with functools.cache or lru_cache, by any spelling."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(target, "attr", getattr(target, "id", None)) in MEMOIZERS:
                    found.append(node.name)
    return found


def test_only_the_parser_is_memoized():
    memoized = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                      for name in memoized_functions(ast.parse(path.read_text())))
    assert memoized == ["cli.build_parser"]


def test_memoizer_check_sees_each_form():
    for deco in ("functools.cache", "cache", "functools.lru_cache", "lru_cache",
                 "functools.lru_cache(maxsize=None)", "lru_cache(8)"):
        for source in (f"@{deco}\ndef f(): pass", f"class C:\n    @{deco}\n    def f(self): pass"):
            assert memoized_functions(ast.parse(source)) == ["f"], source
    for source in ("def f(): pass", "@staticmethod\ndef f(): pass", "@functools.wraps(g)\ndef f(): pass"):
        assert memoized_functions(ast.parse(source)) == [], source
