"""The candidate reader against the route it replaced.

``UlrichCandidate.from_json`` reads each matrix JSON straight into its
coefficient tensor (``polymatrix.tensor_from_json``).  The reference route,
kept in ``tests/poly_reference.py``, reads one Poly per entry into a
PolyMatrix and then takes its tensor.  On every Ulrich golden, on fresh
``for-roots`` output and on single faults in each matrix key, the two give
equal tensors (dtype, values and scalar types) or the same exception type
and message.
"""

import copy
import glob
import json
import os

import numpy as np
import pytest

from ulrichmf import cli, knorrer, linalg, polymatrix
from ulrichmf.fields import QQ, PrimeField, field_from_name
from ulrichmf.poly import Poly, PolyError
from ulrichmf.polymatrix import MatrixError

from tests.poly_reference import linear_tensor, matrix_from_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CANDIDATE_GOLDENS = sorted(glob.glob(os.path.join(GOLDEN, "ulrich_*.json")))
KEYS = knorrer.MATRIX_KEYS


def reference_tensors(data):
    """The replaced reading of a candidate's quadrics and matrices: every key
    read, into Polys and PolyMatrices, before the first non-linear entry is
    reported."""
    field, variables = field_from_name(data["field"]), tuple(data["variables"])

    def load(key, read):
        try:
            return read(field, variables, data[key])
        except PolyError as exc:
            raise PolyError(f"candidate key {key!r}: {exc}") from None

    load("q1", Poly.from_json), load("q2", Poly.from_json)
    matrices = {key: load(key, matrix_from_json) for key in KEYS}
    try:
        return [linear_tensor(matrices[key], key) for key in KEYS]
    except MatrixError as exc:
        raise knorrer.UlrichError(f"candidate certificates failed: {exc}") from None


def package_tensors(data, monkeypatch):
    """The tensors ``UlrichCandidate.from_json`` reads, its certificates not checked."""
    monkeypatch.setattr(knorrer.UlrichCandidate, "_require_certificates", lambda self: None)
    cand = knorrer.UlrichCandidate.from_json(data)
    return [cand.presentation, cand.second_map, cand.cert1, cand.cert2]


def outcome(read):
    try:
        return "read", read()
    except Exception as exc:  # noqa: BLE001 - the exception is the answer compared
        return type(exc), str(exc)


def assert_same_tensors(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert (g == w).all()
        assert [type(c) for c in g.flat] == [type(c) for c in w.flat]


def assert_same_reading(data, monkeypatch):
    """Both readers on data: equal tensors, or the same exception; returns the kind."""
    want = outcome(lambda: reference_tensors(data))
    got = outcome(lambda: package_tensors(data, monkeypatch))
    if want[0] != "read":
        assert got == want
    else:
        assert got[0] == "read", got
        assert_same_tensors(got[1], want[1])
    return want[0]


def load_golden(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("path", CANDIDATE_GOLDENS, ids=os.path.basename)
def test_goldens_read_alike(path, monkeypatch):
    assert assert_same_reading(load_golden(path), monkeypatch) == "read"


def test_every_candidate_golden_is_compared():
    # the four golden fields and both ambient parities
    names = [os.path.basename(p) for p in CANDIDATE_GOLDENS]
    assert len(names) == 7 and "ulrich_for_roots_p61.json" in names
    assert {load_golden(p)["field"] for p in CANDIDATE_GOLDENS} == {
        "Q", "10009", "2147483647", "2305843009213693951"}


# odd (2n + 1 targets, the first n + 1 squares) and even target lists, genus at most 4
FRESH_TARGETS = [(1, 4, 9, 2, 3), (1, 4, 9, 16, 25, 2, 3, 5, 6),
                 (1, 4, 9, 16, 2, 3), (1, 4, 9, 16, 25, 36, 2, 3, 5, 6)]
FRESH_FIELDS = [PrimeField(10009), PrimeField(2**31 - 1), PrimeField(2**61 - 1), QQ]


@pytest.mark.parametrize("targets", FRESH_TARGETS, ids=lambda t: f"{len(t)}roots")
@pytest.mark.parametrize("field", FRESH_FIELDS, ids=str)
def test_fresh_for_roots_output_reads_alike(field, targets, monkeypatch):
    cand = knorrer.ulrich_for_roots(field, targets)
    data = json.loads(cli.canonical_json({**cand.to_json(), "seed": 0}))
    assert assert_same_reading(data, monkeypatch) == "read"
    # the values written; a built tensor may hold Python ints where the read one is int64
    built = [cand.presentation, cand.second_map, cand.cert1, cand.cert2]
    for got, t in zip(package_tensors(data, monkeypatch), built, strict=True):
        assert got.dtype == linalg.scalar_dtype(field)
        assert got.shape == t.shape and (got == t).all()


def first_term(matrix):
    """(entry index, term) of the first term of the first nonempty entry."""
    at = next(k for k, entry in enumerate(matrix["entries"]) if entry)
    return at, matrix["entries"][at][0]


def unit(width, k=0):
    return [int(i == k) for i in range(width)]


def fault(name, matrix, width):
    """The matrix JSON with one fault, changed in place, in a ring of width variables."""
    entries = matrix["entries"]
    at, term = first_term(matrix)
    square = [2] + [0] * (width - 1)
    if name == "not an object":
        return [1, 2]
    if name == "missing rows":
        del matrix["rows"]
    elif name == "boolean rows":
        matrix["rows"] = True
    elif name == "negative cols":
        matrix["cols"] = -1
    elif name == "labels of the wrong type":
        matrix["row_degrees"] = [0, True]
    elif name == "labels not a list":
        matrix["col_degrees"] = 3
    elif name == "too few row labels":
        matrix["row_degrees"] = [0] * (matrix["rows"] - 1)
    elif name == "too many col labels":
        matrix["col_degrees"] = [1] * (matrix["cols"] + 1)
    elif name == "labels of the right count":
        matrix["row_degrees"] = [0] * matrix["rows"]
        matrix["col_degrees"] = [1] * matrix["cols"]
    elif name == "entry not a list":
        entries[at] = {"terms": entries[at]}
    elif name == "malformed term":
        entries[at][0] = term[:2]
    elif name == "float coefficient":
        entries[at][0] = [term[0], 1.5, 1]
    elif name == "zero denominator":
        entries[at][0] = [term[0], term[1], 0]
    elif name == "denominator 5":
        entries[at][0] = [term[0], term[1], 5]
    elif name == "denominator 10009":
        entries[at][0] = [term[0], term[1], 10009]
    elif name == "wrong exponent width":
        entries[at][0] = [term[0] + [0], term[1], term[2]]
    elif name == "cancelled term of the wrong width":
        entries[at] += [[unit(width + 1), 3, 1], [unit(width + 1), -3, 1]]
    elif name == "negative exponent":
        entries[at][0] = [[e - 1 if i == 0 else e + 1 if i == 1 else e
                           for i, e in enumerate(unit(width, 1))], term[1], term[2]]
    elif name == "non-linear term":
        entries[at][0] = [[2 * e for e in term[0]], term[1], term[2]]
    elif name == "constant term":
        entries[at].append([[0] * width, 7, 1])
    elif name == "zero-coefficient non-linear term":
        entries[at].append([square, 0, 1])
    elif name == "zero constant term":
        entries[at].append([[0] * width, 0, 1])
    elif name == "non-linear duplicates summing to zero":
        entries[at] += [[square, 4, 1], [square, -4, 1]]
    elif name == "linear duplicates summing to zero":
        entries[at] += [[term[0], 1, 1], [term[0], -1, 1]]
    elif name == "duplicates summing to nonzero":
        entries[at] += [[term[0], 1, 1], [term[0], 2, 3]]
    elif name == "count mismatch":
        entries.pop()
    elif name == "huge rows x cols":
        matrix["rows"] = matrix["cols"] = 10**6
    else:
        raise AssertionError(name)
    return matrix


# (fault, what the reference gives: "read" or the exception type)
FAULTS = [
    ("not an object", MatrixError), ("missing rows", MatrixError),
    ("boolean rows", MatrixError), ("negative cols", MatrixError),
    ("labels of the wrong type", MatrixError), ("labels not a list", MatrixError),
    ("too few row labels", MatrixError), ("too many col labels", MatrixError),
    ("labels of the right count", "read"), ("entry not a list", PolyError),
    ("malformed term", PolyError), ("float coefficient", PolyError),
    ("zero denominator", PolyError), ("wrong exponent width", PolyError),
    ("cancelled term of the wrong width", "read"), ("negative exponent", PolyError),
    ("non-linear term", knorrer.UlrichError), ("constant term", knorrer.UlrichError),
    ("zero-coefficient non-linear term", "read"), ("zero constant term", "read"),
    ("non-linear duplicates summing to zero", "read"),
    ("linear duplicates summing to zero", "read"), ("duplicates summing to nonzero", "read"),
    ("count mismatch", MatrixError), ("huge rows x cols", MatrixError),
]
FAULTY_GOLDENS = ["ulrich_for_roots_q", "ulrich_for_roots_even", "ulrich_for_roots_p61"]


@pytest.mark.parametrize("golden", FAULTY_GOLDENS)
@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("name, kind", FAULTS, ids=[name for name, _ in FAULTS])
def test_single_faults_read_alike(golden, key, name, kind, monkeypatch):
    data = load_golden(os.path.join(GOLDEN, golden + ".json"))
    data[key] = fault(name, data[key], len(data["variables"]))
    assert assert_same_reading(data, monkeypatch) == kind


def test_a_denominator_vanishing_in_the_field_reads_alike(monkeypatch):
    data = load_golden(os.path.join(GOLDEN, "ulrich_for_roots_even.json"))
    assert data["field"] == "10009"
    for key in KEYS:
        faulty = copy.deepcopy(data)
        faulty[key] = fault("denominator 10009", faulty[key], len(data["variables"]))
        assert assert_same_reading(faulty, monkeypatch) is PolyError
    # a denominator of 5 is a unit in F_10009
    data["presentation"] = fault("denominator 5", data["presentation"], 6)
    assert assert_same_reading(data, monkeypatch) == "read"


@pytest.mark.parametrize("data, kind", [
    ({"rows": 1, "cols": 2, "entries": [[[[1, 0], 1, 5]], [[[0, 1], 2, 3]]]}, PolyError),
    ({"rows": 1, "cols": 2, "entries": [[[[1, 0], 1, 10]], [[[0, 1], 2, 3]]]}, PolyError),
    ({"rows": 1, "cols": 2, "entries": [[[[1, 0], 1, 2]], [[[0, 1], 2, 3]]]}, "read"),
    ({"rows": 10**6, "cols": 10**6, "entries": [[], [], []]}, MatrixError),
])
def test_matrices_over_f5_read_alike(data, kind):
    # F_5: a denominator divisible by 5 has no value
    field, names = PrimeField(5), ("x", "y")
    want = outcome(lambda: [linear_tensor(matrix_from_json(field, names, data))])
    got = outcome(lambda: [polymatrix.tensor_from_json(field, names, data)])
    assert want[0] == kind
    if kind == "read":
        assert_same_tensors(got[1], want[1])
    else:
        assert got == want


def test_every_matrix_is_read_before_a_non_linear_entry_is_reported(monkeypatch):
    data = load_golden(os.path.join(GOLDEN, "ulrich_for_roots_q.json"))
    width = len(data["variables"])
    # a non-linear second_map and a malformed cert_q2: the malformed key is reported
    both = copy.deepcopy(data)
    both["second_map"] = fault("non-linear term", both["second_map"], width)
    both["cert_q2"] = fault("count mismatch", both["cert_q2"], width)
    assert assert_same_reading(both, monkeypatch) is MatrixError
    # two non-linear keys: the first in MATRIX_KEYS order is named
    both["cert_q2"] = fault("non-linear term", copy.deepcopy(data["cert_q2"]), width)
    both["presentation"] = fault("constant term", both["presentation"], width)
    assert assert_same_reading(both, monkeypatch) is knorrer.UlrichError
    with pytest.raises(knorrer.UlrichError, match=r"^candidate certificates failed: "
                                                  r"presentation entry \(\d+,\d+\) is not linear$"):
        package_tensors(both, monkeypatch)


def test_the_count_is_checked_before_the_tensor_is_allocated(monkeypatch):
    # rows x cols entries of 10^6 x 10^6 would not fit; three entries are a
    # mismatch, reported as such
    calls = []
    real = np.full
    monkeypatch.setattr(np, "full", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    data = {"rows": 10**6, "cols": 10**6, "entries": [[], [], []]}
    with pytest.raises(MatrixError, match="^entry count mismatch in matrix JSON$"):
        polymatrix.tensor_from_json(QQ, ("x", "y"), data)
    assert calls == []
    # a matrix with no columns has no entries to check: its tensor is empty
    t = polymatrix.tensor_from_json(QQ, ("x", "y"), {"rows": 10**6, "cols": 0, "entries": []})
    assert t.shape == (2, 10**6, 0) and calls == [(2, 10**6, 0)]


@pytest.mark.parametrize("field", FRESH_FIELDS, ids=str)
def test_tensor_from_json_inverts_tensor_json(field):
    cand = knorrer.ulrich_for_roots(field, (1, 4, 9, 2, 3))
    for t in (cand.presentation, cand.second_map, cand.cert1, cand.cert2):
        text = polymatrix.tensor_json(t).text
        back = polymatrix.tensor_from_json(field, cand.variables, json.loads(text))
        assert back.dtype == linalg.scalar_dtype(field)
        assert back.shape == t.shape and (back == t).all()
        assert polymatrix.tensor_json(back).text == text
