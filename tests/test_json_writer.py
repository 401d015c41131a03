"""The one JSON writer, byte for byte against the writer it replaced.

``polymatrix.tensor_json`` renders a matrix's JSON as text in one pass over
its coefficient tensor, and ``cli.canonical_json`` places such ``RawJSON``
fragments where they stand.  The dict-building writer and the plain
``json.dumps`` (``tests.poly_reference``) are the references: every output
here must equal theirs exactly, and read back to the same tensor.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import cli, knorrer, linalg, polymatrix
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.polymatrix import RawJSON

from tests.poly_reference import canonical_json_reference, tensor_json_reference

FIELDS = [PrimeField(3), PrimeField(10009), PrimeField(2**61 - 1), QQ]
# no rows, no columns, no variables, and one-entry matrices among them
SHAPES = [(4, 3, 5), (1, 2, 3), (3, 0, 2), (3, 2, 0), (0, 2, 2), (5, 1, 1), (2, 6, 4)]


def scalar(field, rng):
    """A nonzero field scalar: any residue mod p, and over Q a canonical
    scalar of either sign, an int or a Fraction, sometimes of 100 bits."""
    if field is QQ:
        top = 2**100 if rng.random() < 0.2 else 99
        return QQ.of(Fraction(rng.choice([-1, 1]) * rng.randrange(1, top), rng.randrange(1, 10)))
    return field.of(rng.randrange(1, field.p))


def random_tensor(field, rng, shape, zero_share):
    t = np.full(shape, field.zero, dtype=linalg.scalar_dtype(field))
    for at in np.ndindex(*shape):
        if rng.random() >= zero_share:
            t[at] = scalar(field, rng)
    return t


def fragment(value) -> RawJSON:
    """value rendered ahead, as canonical_json would write it."""
    return RawJSON(canonical_json_reference(value)[:-1])


def reference_payload(obj):
    """obj with each RawJSON fragment replaced by the value its text encodes."""
    if isinstance(obj, RawJSON):
        return json.loads(obj.text)
    if isinstance(obj, dict):
        return {key: reference_payload(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [reference_payload(value) for value in obj]
    return obj


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_json_matches_the_dict_writer(field):
    rng = random.Random(113)
    for shape in SHAPES:
        names = [f"x{k}" for k in range(shape[0])]
        for zero_share in (0.0, 0.5, 0.9, 1.0):
            t = random_tensor(field, rng, shape, zero_share)
            assert t.dtype == (object if field.name in ("Q", str(2**61 - 1)) else np.int64)
            text = polymatrix.tensor_json(t).text
            want = tensor_json_reference(t)
            assert text + "\n" == canonical_json_reference(want)
            payload = {"seed": 1, "m": polymatrix.tensor_json(t), "a": [polymatrix.tensor_json(t)]}
            assert cli.canonical_json(payload) == canonical_json_reference(
                {"seed": 1, "m": want, "a": [want]})
            back = polymatrix.tensor_from_json(field, names, json.loads(text))
            assert back.dtype == linalg.scalar_dtype(field) and back.shape == t.shape
            assert (back == t).all()
            assert polymatrix.tensor_json(back).text == text


# odd and even pipelines at g = 1 and 2
TARGETS = [(1, 4, 9, 2), (1, 4, 9, 2, 3), (1, 4, 9, 16, 2, 3)]


@pytest.mark.parametrize("targets", TARGETS, ids=lambda t: ",".join(map(str, t)))
@pytest.mark.parametrize("field", [PrimeField(10009), PrimeField(2**31 - 1),
                                   PrimeField(2**61 - 1), QQ], ids=str)
def test_candidate_json_matches_the_dict_writer(field, targets):
    cand = knorrer.ulrich_for_roots(field, targets, seed=2)
    data = {**cand.to_json(), "seed": 2}
    want = {**data, **{key: tensor_json_reference(t)
                       for key, t in zip(knorrer.MATRIX_KEYS, cand.tensors)}}
    assert cli.canonical_json(data) == canonical_json_reference(want)


def marker_strings():
    """Strings made mostly of what a marker token is written with: NULs,
    quotes, backslashes and the text \\u0000."""
    return st.lists(st.sampled_from(["\0", '"', "\\", "u", "0", "\\u0000", "a"]),
                    max_size=8).map("".join)


PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | marker_strings(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(marker_strings(), inner,
                                                                max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(PAYLOADS, st.lists(PAYLOADS, max_size=3))
def test_payload_strings_spelling_the_marker_are_written_verbatim(payload, fragments):
    # fragments stand in a list and under keys beside payload strings that
    # may spell the marker's token, or hold it
    obj = {"payload": payload, "fragments": [fragment(f) for f in fragments],
           **{f"f{i}": fragment(f) for i, f in enumerate(fragments)}}
    text = cli.canonical_json(obj)
    assert text == canonical_json_reference(reference_payload(obj))
    assert json.loads(text) == reference_payload(obj)


def test_a_payload_holding_the_marker_token_is_written_verbatim():
    # "\0" is written as the first marker's token, 'x"\0' holds it, and so on
    empty = fragment({"cols": 0, "entries": [], "rows": 0})
    for spelled in ("\0", "\0\0", 'x"\0', '"\0"', "\\u0000", "\0" * 5):
        obj = {"s": spelled, spelled: [spelled, empty], "m": empty}
        text = cli.canonical_json(obj)
        assert text == canonical_json_reference(reference_payload(obj)), repr(spelled)
        assert json.loads(text)[spelled][0] == spelled


def test_anything_else_is_refused_as_json_refuses_it():
    for obj in ({"a": object()}, [1, {2, 3}], {"m": np.int64(3)}):
        with pytest.raises(TypeError) as want:
            canonical_json_reference(obj)
        with pytest.raises(TypeError, match=f"^{want.value}$"):
            cli.canonical_json(obj)
