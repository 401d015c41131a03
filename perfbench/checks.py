"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``ulrichmf``: every expected value is derived from the
command's own inputs with closed formulas or with plain mod-p arithmetic, so
a check can disagree with the program.  Each check raises ``CheckError``
naming the first mismatch; ``perturb_*`` build the negative controls, outputs
with one entry or one degree changed that the matching check must reject.
"""

from __future__ import annotations

import copy
import random
from math import comb

P = 10009


class CheckError(AssertionError):
    """An operation's output disagrees with the independently computed value."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- group law (prime field and rationals) ------------------------------------


def expected_rank_degree(g: int, size_i: int, size_j: int, size_meet: int):
    """[rank, degree, chi] of L_I (x) L_J for |I|, |J|, |I & J| on genus g.

    L_D has generator degrees (|D| // 2, (2g + 2 - |D|) // 2), rank 1 and degree
    g + 1 minus their sum; the H-twist of an odd-odd product lowers both
    generator degrees by one, which adds 2 to the degree.
    """
    size_delta = size_i + size_j - 2 * size_meet
    degree = g + 1 - size_delta // 2 - (2 * g + 2 - size_delta) // 2
    twisted = size_i % 2 == 1 and size_j % 2 == 1
    if twisted:
        degree += 2
    return [1, degree, degree + 1 - g]


def check_grouplaw(payload: dict, g: int, subset_i, subset_j) -> None:
    i, j = set(subset_i), set(subset_j)
    _require(payload.get("pass") is True, f"group law not certified: pass={payload.get('pass')!r}")
    _require(payload.get("I") == sorted(i), f"I echoed as {payload.get('I')}, sent {sorted(i)}")
    _require(payload.get("J") == sorted(j), f"J echoed as {payload.get('J')}, sent {sorted(j)}")
    _require(payload.get("delta") == sorted(i ^ j), f"delta {payload.get('delta')} != {sorted(i ^ j)}")
    twisted = len(i) % 2 == 1 and len(j) % 2 == 1
    _require(payload.get("h_twist") is twisted, f"h_twist {payload.get('h_twist')!r} != {twisted}")
    want = expected_rank_degree(g, len(i), len(j), len(i & j))
    got = payload.get("product_rank_degree")
    _require(got == want, f"product rank/degree/chi {got} != {want}")


def perturb_grouplaw(payload: dict) -> dict:
    bad = copy.deepcopy(payload)
    bad["product_rank_degree"][1] += 1
    return bad


# -- BGG window -------------------------------------------------------------------


def clifford_dim(g: int, k: int) -> int:
    """dim of the degree-k piece: sum over i = k mod 2 of C(2g+2, i) * ((k - i)/2 + 1)."""
    return sum(
        comb(2 * g + 2, i) * ((k - i) // 2 + 1)
        for i in range(0, min(k, 2 * g + 2) + 1)
        if (k - i) % 2 == 0
    )


def check_bgg(payload: dict, g: int, k0: int, k1: int) -> None:
    want_dims = [clifford_dim(g, k) for k in range(k0, k1 + 2)]
    _require(payload.get("dims") == want_dims, f"dims {payload.get('dims')} != {want_dims}")
    certs = payload.get("certificates")
    want_keys = {str(k) for k in range(k0, k1)}
    _require(isinstance(certs, dict) and set(certs) == want_keys,
             f"certificate degrees {sorted(certs or {})} != {sorted(want_keys)}")
    failed = sorted(k for k, v in certs.items() if v is not True)
    _require(not failed, f"d^2 certificate false in degrees {failed}")


def perturb_bgg(payload: dict) -> dict:
    bad = copy.deepcopy(payload)
    bad["dims"][-1] += 1
    return bad


# -- Ulrich presentation -----------------------------------------------------------


def _coeff(num: int, den: int) -> int:
    return num * pow(den, P - 2, P) % P


def poly_value(terms, point) -> int:
    """Value mod P of a term list [[exponents], numerator, denominator]."""
    total = 0
    for exp, num, den in terms:
        v = _coeff(num, den)
        for x, e in zip(point, exp):
            if e:
                v = v * pow(x, e, P) % P
        total += v
    return total % P


def matrix_value(data: dict, point):
    rows, cols = data["rows"], data["cols"]
    flat = [poly_value(t, point) for t in data["entries"]]
    _require(len(flat) == rows * cols, f"{len(flat)} entries for a {rows} x {cols} matrix")
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*b)] for row in a]


def gram_matrix(terms, nvars: int):
    """Symmetric B with q(x) = x^T B x, from the term list of a quadric."""
    half = pow(2, P - 2, P)
    b = [[0] * nvars for _ in range(nvars)]
    for exp, num, den in terms:
        c = _coeff(num, den)
        support = [i for i, e in enumerate(exp) if e]
        _require(sum(exp) == 2, f"quadric has a term of degree {sum(exp)}")
        if len(support) == 1:
            b[support[0]][support[0]] = (b[support[0]][support[0]] + c) % P
        else:
            i, j = support
            b[i][j] = (b[i][j] + c * half) % P
            b[j][i] = (b[j][i] + c * half) % P
    return b


def det_mod_p(m) -> int:
    m = [list(row) for row in m]
    n = len(m)
    result = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % P), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        result = result * m[c][c] % P
        inv = pow(m[c][c], P - 2, P)
        for r in range(c + 1, n):
            f = m[r][c] * inv % P
            if f:
                m[r] = [(x - f * y) % P for x, y in zip(m[r], m[c])]
    return result % P


def ulrich_rank(ntargets: int) -> int:
    """Rows r of the r x 2r presentation for 2g + 2 targets: 2^(g+1)."""
    return 2 ** (ntargets // 2)


def check_ulrich(payload: dict, targets, seed: int, points: int = 3) -> None:
    nvars = len(targets)
    _require(payload.get("field") == str(P), f"field {payload.get('field')!r}")
    _require(len(payload.get("variables", [])) == nvars,
             f"{len(payload.get('variables', []))} variables for {nvars} targets")
    a_data = payload["presentation"]
    r = ulrich_rank(nvars)
    _require((a_data["rows"], a_data["cols"]) == (r, 2 * r),
             f"presentation is {a_data['rows']} x {a_data['cols']}, expected {r} x {2 * r}")
    rng = random.Random(seed)
    for _ in range(points):
        x = [rng.randrange(P) for _ in range(nvars)]
        a = matrix_value(a_data, x)
        for key, qkey in (("cert_q1", "q1"), ("cert_q2", "q2")):
            q = poly_value(payload[qkey], x)
            want = [[q if i == j else 0 for j in range(r)] for i in range(r)]
            _require(_matmul(a, matrix_value(payload[key], x)) == want,
                     f"A @ C != {qkey} * id at {x}")
        ab = _matmul(a, matrix_value(payload["second_map"], x))
        _require(all(v == 0 for row in ab for v in row), f"A @ B' != 0 at {x}")
    b1 = gram_matrix(payload["q1"], nvars)
    b2 = gram_matrix(payload["q2"], nvars)

    def disc(lam):
        return det_mod_p([[(lam * u + v) % P for u, v in zip(r1, r2)] for r1, r2 in zip(b1, b2)])

    for t in targets:
        _require(disc(t) == 0, f"det(lambda B1 + B2) != 0 at target {t}")
    other = rng.randrange(1, P)
    while other in targets:
        other = rng.randrange(1, P)
    _require(disc(other) != 0, f"det(lambda B1 + B2) vanishes at the non-target {other}")


def perturb_ulrich(payload: dict) -> dict:
    bad = copy.deepcopy(payload)
    entry = next(t for t in bad["presentation"]["entries"] if t)
    entry[0][1] = (entry[0][1] + 1) % P
    return bad
