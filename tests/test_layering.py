"""Layering of the package, checked on its sources and on its runs.

``linalg`` is the one module that imports ``modp``.  Every rank, kernel,
solve and determinant in the package is read off the two echelon forms that
``linalg`` dispatches per field.  A second module reaching into ``modp``
would be a second elimination path; this parses the sources and fails on
one.  Below the polynomial layer, the scalar modules and the pencil (its two
Gram matrices) use no ``PolyMatrix`` either, and the pencil imports nothing
from ``polymatrix``: it holds the one JSON codec of a quadric, written from
and read into the Gram matrix.  Neither does ``knorrer`` use a PolyMatrix:
its matrices are coefficient tensors, read from and written to JSON as such,
and only the Hilbert check's fallback gets a PolyMatrix, from
``polymatrix.tensor_matrix``, without naming the class.  An Ulrich candidate
keeps its quadrics only as its pencil's Gram matrices, and no command of
``pencil`` or ``ulrich`` builds a ``Poly`` in more than two variables.  No
function but the CLI's parser is memoized: a cache on a computation would be
state that grows for the life of the process.
"""

import ast
import collections
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ulrichmf"
SCALAR_MODULES = ("fields", "modp", "linalg", "binary", "pencil")


def imports(tree, name: str) -> bool:
    """An import of the package module name, or of anything from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == name for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == name or any(alias.name == name for alias in node.names):
                return True
    return False


def test_only_linalg_imports_modp():
    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if imports(ast.parse(path.read_text(), filename=str(path)), "modp")
    )
    assert importers == ["linalg"]


def test_import_check_sees_each_form():
    for source in ("from . import modp", "from .modp import rref",
                   "from ulrichmf import modp", "import ulrichmf.modp"):
        assert imports(ast.parse(source), "modp"), source
    for source in ("from . import linalg", "from .fields import PrimeField"):
        assert not imports(ast.parse(source), "modp"), source


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


def test_pencil_imports_nothing_from_polymatrix():
    assert not imports(ast.parse((PACKAGE / "pencil.py").read_text()), "polymatrix")


def test_polymatrix_import_check_sees_each_form():
    for source in ("from . import polymatrix", "from .polymatrix import tensor_json",
                   "from ulrichmf.polymatrix import PolyMatrix", "import ulrichmf.polymatrix"):
        assert imports(ast.parse(source), "polymatrix"), source
    for source in ("from . import poly", "from .poly import Poly", "import ulrichmf.poly"):
        assert not imports(ast.parse(source), "polymatrix"), source


def test_knorrer_uses_no_polymatrix():
    assert not uses_polymatrix(ast.parse((PACKAGE / "knorrer.py").read_text()))


def test_polymatrix_check_sees_each_form():
    for source in ("from .polymatrix import PolyMatrix", "from .polymatrix import tensor_json, "
                   "PolyMatrix", "from . import polymatrix\npolymatrix.PolyMatrix(f, v, [])",
                   "import ulrichmf.polymatrix\nulrichmf.polymatrix.PolyMatrix"):
        assert uses_polymatrix(ast.parse(source)), source
    for source in ("from .polymatrix import tensor_json", "from . import linalg"):
        assert not uses_polymatrix(ast.parse(source)), source


def test_ulrich_candidates_hold_their_quadrics_only_in_the_pencil():
    # q1 and q2 are written from the pencil's Gram matrices; no candidate keeps a Poly
    import json

    from ulrichmf import knorrer
    from ulrichmf.fields import PrimeField
    from ulrichmf.pencil import quadric_json
    from ulrichmf.poly import Poly

    field = PrimeField(10009)
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    built = knorrer.build_candidate(field, 2, lam)
    odd = knorrer.ulrich_for_roots(field, [1, 4, 9, 2, 3], seed=1)
    even = knorrer.ulrich_for_roots(field, [1, 4, 9, 16, 2, 3], seed=1)
    read = knorrer.UlrichCandidate.from_json(json.loads(json.dumps(even.to_json())))
    for cand in (built, odd, even, read):
        assert not [key for key, value in vars(cand).items() if isinstance(value, Poly)]
        data = cand.to_json()
        assert data["q1"] == quadric_json(field, cand.pencil.b1)
        assert data["q2"] == quadric_json(field, cand.pencil.b2)
        assert cand.pencil.variables == cand.variables


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
# the pencil goldens with their fields, and the stored candidates of both
# pipelines and of ulrich construct, over F_10009 and Q
PENCIL_INPUTS = [("10009", "pencil_for_roots_5_p"), ("Q", "pencil_for_roots_5_q"),
                 ("10009", "pencil_for_roots_6_p"), ("Q", "pencil_for_roots_6_q")]
CANDIDATES = ["ulrich_for_roots_even", "ulrich_for_roots_q", "ulrich_construct_n3",
              "ulrich_construct_n3_q"]
POLY_RUNS = [
    *(["--field", field, "pencil", action, str(GOLDEN / f"{name}.json")]
      for field, name in PENCIL_INPUTS for action in ("disc", "diag", "smooth")),
    # F_3 has too few points to interpolate the discriminant, F_5 just enough
    *(["--field", field, "pencil", "disc", str(GOLDEN / "pencil_disc_4.json")] for field in "35"),
    *(["--field", field, "ulrich", "construct", "--n", n, "--d", d]
      for field in ("10009", "Q") for n, d in (("2", "1,2,3"), ("3", "1,2,3,4"))),
    # g = 1, 2, 3: 2g + 1 targets for the odd pipeline, 2g + 2 for the even one
    *(["--field", field, "ulrich", "for-roots", "--roots", roots] for field in ("10009", "Q")
      for roots in ("1,4,9,2", "1,4,9,2,3", "1,4,9,16,2,3", "1,4,9,16,2,3,5",
                    "1,4,9,16,25,2,3,5")),
    *(["ulrich", "verify", str(GOLDEN / f"{name}.json")] for name in CANDIDATES),
]


@pytest.fixture
def poly_widths(monkeypatch):
    """The variable count of every Poly built, by ``Poly(...)`` or ``Poly._make``."""
    from ulrichmf.poly import Poly

    widths = collections.Counter()
    real_init, real_make = Poly.__init__, Poly._make

    def init(self, *args):
        real_init(self, *args)
        widths[len(self.vars)] += 1

    def make(field, variables, terms):
        widths[len(variables)] += 1
        return real_make(field, variables, terms)

    monkeypatch.setattr(Poly, "__init__", init)
    monkeypatch.setattr(Poly, "_make", staticmethod(make))
    return widths


@pytest.mark.parametrize("argv", POLY_RUNS, ids=lambda argv: " ".join(
    pathlib.Path(a).stem if a.endswith(".json") else a for a in argv))
def test_no_poly_in_more_than_two_variables(poly_widths, capsys, argv):
    # the JSON carries every quadric and matrix, so each command writes it
    from ulrichmf import cli

    assert cli.main(["--format", "json", *argv]) == 0
    assert capsys.readouterr().err == ""
    assert max(poly_widths, default=0) <= 2, dict(poly_widths)


def test_poly_spy_sees_a_multivariate_poly(poly_widths):
    # negative control: the Poly of a five-variable quadric, as the JSON once was written
    from ulrichmf.fields import QQ
    from ulrichmf.poly import Poly

    Poly.from_json(QQ, [f"z{k}" for k in range(5)], [[[1, 1, 0, 0, 0], 1, 1]])
    Poly(QQ, ("x", "y", "z"), {})
    assert poly_widths == {5: 1, 3: 1}


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
