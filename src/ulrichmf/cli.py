"""Command line interface: constructions, verification suites, table printers.

Global flags --field/--seed/--format have environment overrides
ULRICHMF_FIELD, ULRICHMF_SEED, ULRICHMF_FORMAT.  All output is deterministic
for a fixed configuration: transcripts embed the field, the seed and the
certificate versions, never timings.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from collections.abc import Sequence
from itertools import combinations

from . import __version__, betti, binary, clifford, knorrer, mf
from .fields import DEFAULT_PRIME, NotASquare, PrimeField, field_from_name
from .pencil import (
    HyperellipticData,
    PencilError,
    QuadricPencil,
    gram_matrix,
    quadric_terms,
    simultaneous_diagonalize,
    smoothness_check,
)
from .poly import Poly, PolyError
from .polymatrix import RawJSON

CERTIFICATES = {
    "artinian-hilbert": 1,
    "betti-closed-form": 1,
    "bgg-d2": 1,
    "clifford-relations": 1,
    "discriminant-roots": 1,
    "group-law": 1,
    "isotropy": 1,
    "knorrer-identity": 1,
    "mf-identity": 1,
    "mixed-identity": 1,
}

# every error class of the package subclasses ValueError
INPUT_ERRORS = (ValueError, OSError)


def canonical_json(obj) -> str:
    """The one JSON writer of the package: sorted keys, no spaces, a final
    newline.  A ``RawJSON`` value, text rendered ahead, is written verbatim
    where it stands."""
    fragments = []

    def hold(value):
        if not isinstance(value, RawJSON):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        fragments.append(value.text)
        return marker

    # Each fragment goes in as the string token of a marker, and the text is
    # cut at each token.  A payload string may write the same token (a NUL is
    # written \u0000), so the marker grows until the token occurs once per
    # fragment; holding no quote or separator inside, a payload's token cannot
    # overlap a placed one.
    marker = "\0"
    while True:
        fragments.clear()
        # payloads are trees built fresh per call, so no cycle check is needed
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False,
                          default=hold)
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(fragments) + 1:
            break
        marker += "\0"
    out = [pieces[0]]
    for fragment, piece in zip(fragments, pieces[1:]):
        out += (fragment, piece)
    out.append("\n")
    return "".join(out)


def parse_subset(text: str):
    text = (text or "").strip()
    if not text:
        return set()
    return {int(v) for v in text.split(",")}


def parse_values(text: str):
    return [int(v) for v in (text or "").split(",") if v.strip() != ""]


def load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def curve_from_roots(field, roots) -> HyperellipticData:
    """y^2 = prod (s - r t) over the given branch roots."""
    factors = [binary.root_factor(field, field.of(r)) for r in roots]
    return HyperellipticData.from_factors(field, factors)


def curve_from_args(field, args) -> HyperellipticData:
    if getattr(args, "roots", None):
        return curve_from_roots(field, parse_values(args.roots))
    return curve_from_roots(field, range(1, 2 * args.g + 3))


class _VariableNames(Sequence):
    """x0, ..., x(r-1), each name built when it is read: a descriptor's terms
    are checked against the count r, and only a message or a pencil reads
    the names."""

    def __init__(self, r: int):
        self.r = max(r, 0)

    def __len__(self):
        return self.r

    def __getitem__(self, i):
        if not 0 <= i < self.r:
            raise IndexError(i)
        return f"x{i}"


def pencil_from_descriptor(field, data) -> QuadricPencil:
    if not isinstance(data, dict):
        raise ValueError(f"pencil descriptor must be a JSON object, not {type(data).__name__}")
    for key in ("vars", "q1", "q2"):
        if key not in data:
            raise ValueError(f"pencil descriptor has no {key!r} key")
    r = data["vars"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(
            f"pencil descriptor key 'vars' must be an integer, not {type(r).__name__}"
        )
    names, quadrics = _VariableNames(r), []
    for key in ("q1", "q2"):
        try:
            quadrics.append(quadric_terms(field, names, data[key]))
        except PolyError as exc:
            raise PolyError(f"pencil descriptor key {key!r}: {exc}") from None
    # both are decoded before either is judged, and judged before S is allocated
    if not all(quadrics):
        raise PencilError("bilinear_matrix needs a nonzero homogeneous quadratic")
    return QuadricPencil(field, *(gram_matrix(field, r, q) for q in quadrics), names)


def transcript_header(kind: str, name: str, field, seed) -> list[str]:
    certs = ", ".join(f"{k} v{v}" for k, v in sorted(CERTIFICATES.items()))
    return [
        f"# ulrichmf {__version__} {kind} {name}",
        f"# field: {field.name}",
        f"# seed: {seed}",
        f"# certificates: {certs}",
    ]


def emit(args, lines, payload) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        print("\n".join(lines))


# -- pencil ----------------------------------------------------------------


def cmd_pencil(args, field, seed) -> int:
    data = load_json(args.file)
    p = pencil_from_descriptor(field, data)
    if args.action == "disc":
        disc = p.discriminant()
        emit(args, [str(disc)], {"discriminant": disc.to_json(), "field": field.name})
        return 0
    if args.action == "smooth":
        ok, note = smoothness_check(p)
        emit(
            args,
            [f"smooth: {ok}", f"diagnosis: {note}"],
            {"smooth": ok, "diagnosis": note, "field": field.name},
        )
        return 0 if ok else 1
    diag = simultaneous_diagonalize(p)
    lines = [f"factors ({len(diag.factors)}):"]
    lines += [f"  f{i + 1} = {f}" for i, f in enumerate(diag.factors)]
    lines.append("basis columns are simultaneous eigenvectors; M^T B M diagonal")
    payload = {
        "field": field.name,
        "factors": [f.to_json() for f in diag.factors],
        "basis": [[str(x) for x in row] for row in diag.basis],
    }
    emit(args, lines, payload)
    return 0


# -- mf ----------------------------------------------------------------------


def cmd_mf(args, field, seed) -> int:
    h = curve_from_args(field, args)
    if args.action == "build-li":
        m = mf.line_bundle_mf(h, parse_subset(args.i))
        rank, degree, chi = m.rank_degree()
        lines = [
            f"L_{sorted(parse_subset(args.i))} on genus {h.genus} curve",
            f"generator degrees: {list(m.module.degrees)}",
            f"rank {rank}, degree {degree}, chi {chi}",
            "phi:",
            str(m.phi),
        ]
        payload = {
            "field": field.name,
            "degrees": list(m.module.degrees),
            "phi": m.phi.to_json(),
            "rank": rank,
            "degree": degree,
        }
        emit(args, lines, payload)
        return 0
    if args.action == "tensor":
        prod = mf.tensor_mf(
            mf.line_bundle_mf(h, parse_subset(args.i)),
            mf.line_bundle_mf(h, parse_subset(args.j)),
        )
        rank, degree, chi = prod.rank_degree()
        lines = [
            f"tensor degrees: {list(prod.module.degrees)}",
            f"rank {rank}, degree {degree}, chi {chi}",
            "phi:",
            str(prod.phi),
        ]
        emit(
            args,
            lines,
            {
                "field": field.name,
                "degrees": list(prod.module.degrees),
                "phi": prod.phi.to_json(),
            },
        )
        return 0
    if args.action == "cohomology":
        m = mf.line_bundle_mf(h, parse_subset(args.i))
        n0, n1 = (int(v) for v in args.range.split(":"))
        if n0 > n1:
            raise ValueError(f"--range n0:n1 needs n0 <= n1, got {args.range}")
        table = mf.cohomology_table(m, n0, n1)
        lines = [
            "twists: " + " ".join(str(n) for n in table.twists),
            "h0:     " + " ".join(str(v) for v in table.h0),
            "h1:     " + " ".join(str(v) for v in table.h1),
        ]
        if len(table.twists) >= 2:
            lines.append("staggered (h1(jp) over h0((j+1)p)):")
            lines.append(betti.format_tate_style(table))
        emit(
            args,
            lines,
            {"twists": table.twists, "h0": table.h0, "h1": table.h1},
        )
        return 0
    if args.action == "raynaud":
        m = mf.line_bundle_mf(h, parse_subset(args.i))
        flag = mf.raynaud_check(m)
        emit(args, [f"raynaud: {flag}"], {"raynaud": flag})
        return 0
    report = mf.verify_group_law(h, parse_subset(args.i), parse_subset(args.j))
    lines = [
        f"I = {report['I']}, J = {report['J']}, I delta J = {report['delta']}",
        f"H twist: {report['h_twist']}",
        f"pass: {report['pass']}",
    ]
    if "failure" in report:
        lines.append(f"failure: {report['failure']}")
    emit(args, lines, report)
    return 0 if report["pass"] else 1


# -- clifford ------------------------------------------------------------------


def cmd_clifford(args, field, seed) -> int:
    h = curve_from_args(field, args)
    if args.action == "mul":
        sign, factor, subset = clifford.basis_product(
            h, parse_subset(args.i), parse_subset(args.j)
        )
        lines = [
            f"e_{sorted(parse_subset(args.i))} * e_{sorted(parse_subset(args.j))} "
            f"= {sign} * ({factor}) * e_{sorted(subset)}"
        ]
        payload = {
            "sign": sign,
            "factor": factor.to_json(),
            "subset": sorted(subset),
        }
        emit(args, lines, payload)
        return 0
    if args.action == "center":
        y = clifford.central_element_y(h)
        top = frozenset(range(1, h.nbranch + 1))
        coeff = y.coefficient(top)
        lines = [f"y = ({coeff}) * e_{sorted(top)}", "y^2 = f verified"]
        emit(args, lines, {"coefficient": coeff.to_json(), "subset": sorted(top)})
        return 0
    if args.action == "decompose":
        report = clifford.even_decomposition_check(h, parse_subset(args.i))
        lines = [f"I = {report['I']}", f"pass: {report['pass']}", f"detail: {report.get('detail', '')}"]
        payload = {k: str(v) for k, v in report.items()}
        emit(args, lines, payload)
        return 0 if report["pass"] else 1
    k0, k1 = (int(v) for v in args.window.split(":"))
    if k0 > k1:
        raise ValueError(f"--window k0:k1 needs k0 <= k1, got {args.window}")
    # the printed dims and certificates read degrees k0 .. k1 + 1 only
    window = clifford.regular_module_window(h, k0, k1 + 1)
    result = clifford.bgg_complex(window, k0, k1)
    dims = [window.dim(k) for k in range(k0, k1 + 2)]
    # bgg_complex raises at a failing degree, so every listed degree passed
    lines = [
        f"dims N_{k0}..N_{k1 + 1}: {dims}",
        f"certificates d^2 = q1 T1 + q2 T2: "
        + ", ".join(f"deg {k}: ok" for k in sorted(result["certificates"])),
    ]
    emit(args, lines, {"dims": dims, "certificates": {str(k): v for k, v in result["certificates"].items()}})
    return 0


# -- betti ----------------------------------------------------------------------


def cmd_betti(args, field, seed) -> int:
    if args.action == "table":
        table = betti.tate_shape(args.g, args.terms)
        payload = {
            "g": args.g,
            "lower": table.lower,
            "upper": table.upper,
            "overlap": table.overlap,
        }
        emit(args, [table.render()], payload)
        return 0
    chi, rank_x, admissible = betti.chi_and_parity(args.g, args.r, args.d)
    lines = [
        f"chi = {chi}",
        f"ulrich rank on X = {rank_x}",
        f"admissible (r*g even): {admissible}",
    ]
    emit(
        args,
        lines,
        {"chi": chi, "rank": str(rank_x), "admissible": admissible},
    )
    return 0


# -- ulrich ------------------------------------------------------------------------


def _candidate_report(cand) -> list[str]:
    # a candidate is verified on construction, so its presentation is r x 2r
    lines = [
        f"variables: {', '.join(cand.variables)}",
        f"presentation: {cand.generators} x {2 * cand.generators} linear",
        f"generators: {cand.generators}, module rank: {cand.generators // 4}",
        "certificates: A@B' = 0, A@C1 = q1*id, A@C2 = q2*id verified",
    ]
    for key in sorted(cand.verification):
        lines.append(f"{key}: {cand.verification[key]}")
    return lines


def load_candidate(args, field, data, command) -> knorrer.UlrichCandidate:
    """The candidate in data, verified over its own field, not one the user names."""
    if args.field_given and isinstance(data, dict) and "field" in data:
        own = field_from_name(data["field"])
        if own != field:
            raise ValueError(f"--field/ULRICHMF_FIELD {field.name} differs from the candidate's "
                             f"field {own.name}: {command} checks a candidate over its own field")
    return knorrer.UlrichCandidate.from_json(data)


def cmd_ulrich(args, field, seed) -> int:
    if args.action == "verify":
        if args.file is None:
            raise ValueError("ulrich verify needs a candidate JSON file")
        try:
            cand = load_candidate(args, field, load_json(args.file), "ulrich verify")
        except knorrer.UlrichError as exc:
            emit(args, [f"verification failed: {exc}"], {"pass": False, "error": str(exc)})
            return 1
        ok, transcript = knorrer.artinian_hilbert_check(cand, trials=3, seed=seed)
        lines = _candidate_report(cand) + [f"hilbert: {transcript}", f"pass: {ok}"]
        emit(args, lines, {"pass": ok, "hilbert": transcript})
        return 0 if ok else 1
    if args.action == "construct":
        dvals = [field.of(v) for v in parse_values(args.d)]
        lam = knorrer.diagonal_lambda(field, dvals)
        cand = knorrer.build_candidate(field, args.n, lam)
        ok, note = knorrer.jacobian_check(cand, seed=seed)
        cand.verification["jacobian"] = note
        if not ok:
            emit(args, ["jacobian check failed: " + note], {"error": note})
            return 1
    else:
        cand = knorrer.ulrich_for_roots(field, parse_values(args.roots), seed=seed)
    # text output without --out never reads the JSON
    data = {**cand.to_json(), "seed": seed} if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_json(data))
    emit(args, _candidate_report(cand), data)
    return 0


# -- suites ----------------------------------------------------------------------


def suite_grouplaw(field, seed, args):
    g = 1 if args.g is None else args.g
    h = curve_from_roots(field, range(1, 2 * g + 3))
    classes = mf.canonical_classes(h)
    if g == 1:
        pairs = [(key_i, key_j) for key_i in classes for key_j in classes]
    else:
        rng = random.Random(seed)
        pairs = [rng.sample(classes, 2) for _ in range(50 if args.pairs is None else args.pairs)]
    for key_i, key_j in pairs:
        rep = mf.verify_group_law(h, key_i, key_j)
        yield (
            f"grouplaw I={sorted(key_i)} J={sorted(key_j)}",
            rep["pass"],
            f"delta={rep['delta']} twist={rep['h_twist']}",
        )


def suite_clifford(field, seed, args):
    g = 2 if args.g is None else args.g
    h = curve_from_roots(field, range(1, 2 * g + 3))
    rng = random.Random(seed)
    triples = 200 if args.triples is None else args.triples

    def random_element():
        terms = {}
        universe = list(range(1, h.nbranch + 1))
        for _ in range(3):
            size = rng.randrange(0, h.nbranch + 1)
            subset = frozenset(rng.sample(universe, size))
            coeff = binary.linear_form(
                field, _random_scalar(field, rng), _random_scalar(field, rng)
            )
            if not coeff.is_zero():
                prev = terms.get(subset, Poly.zero(field, binary.ST))
                terms[subset] = prev + coeff
        return clifford.CliffordElement(h, terms)

    bad = 0
    for _ in range(triples):
        a, b, c = random_element(), random_element(), random_element()
        if (a * b) * c != a * (b * c):
            bad += 1
    yield "associativity", bad == 0, f"{triples} random triples, {bad} failures"
    y = clifford.central_element_y(h)
    f_elem = clifford.CliffordElement.basis(h, frozenset(), h.f)
    yield "y-squared", y * y == f_elem, "y^2 = f"
    comm_ok = True
    for size in range(h.nbranch + 1):
        for combo in combinations(range(1, h.nbranch + 1), size):
            w = clifford.CliffordElement.basis(h, combo)
            if size % 2 == 0:
                comm_ok = comm_ok and (y * w == w * y)
            else:
                comm_ok = comm_ok and (y * w + w * y).is_zero()
    yield "y-centrality", comm_ok, "central on even words, anticommutes with odd words"
    for rep in mf.canonical_classes(h, parity=0):
        report = clifford.even_decomposition_check(h, rep)
        yield f"decomposition I={sorted(rep)}", report["pass"], report.get("detail", "")


def suite_betti(field, seed, args):
    g = 3 if args.g is None else args.g
    if g == 3:
        table = betti.tate_shape(3)
        yield (
            "betti-table-g3",
            table.lower == [1, 5, 12, 20, 28, 36]
            and table.upper == [28, 20, 12, 5, 1]
            and table.overlap == 3,
            f"lower={table.lower} upper={table.upper} overlap={table.overlap}",
        )
    _, rank, degree = betti.fu_module(g)
    yield "fu-numerics", rank == 2**g and degree == g * 2 ** (g - 1), f"rank={rank} degree={degree}"
    t = betti.tate_shape(g)
    dual_ok = all(t.upper[-1 - k] == t.lower[k] for k in range(t.overlap))
    yield "strand-duality", dual_ok, f"overlap={t.overlap}"


def suite_knorrer(field, seed, args):
    max_n = 8 if args.max_n is None else args.max_n
    for n in range(max_n + 1):
        phi, psi, _ = knorrer.knorrer_pair(field, n)
        failure = knorrer.knorrer_identity_failure(field, phi, psi)
        yield f"knorrer-identity n={n}", failure is None, failure or f"size {2 ** n}"
    for n in range(min(max_n, 6) + 1):
        failure = knorrer.mixed_identity_failure(field, n)
        yield f"mixed-identity n={n}", failure is None, failure or ""


def suite_ulrich_e2e(field, seed, args):
    if args.roots:
        roots = parse_values(args.roots)
    else:
        n = 2 if args.n is None else args.n
        roots = _random_targets(field, random.Random(seed), 2 * n + 1)
    targets = [field.of(v) for v in roots]
    try:
        cand = knorrer.ulrich_for_roots(field, targets, seed=seed)
    except (knorrer.UlrichError, NotASquare, PencilError) as exc:
        yield "pipeline", False, str(exc)
        return
    # the constructor verified the certificates and recorded the verdict
    yield (
        "certificates",
        cand.verification["certificates"] == "pass",
        f"A@B'=0, A@C1=q1*id, A@C2=q2*id on {cand.generators}x{2 * cand.generators}",
    )
    got = sorted(cand.verification["discriminant_roots"])
    want = sorted(str(v) for v in targets)
    yield "discriminant-roots", got == want, ",".join(got)
    hilbert = cand.verification["hilbert"]
    yield "artinian-hilbert", "pass" in hilbert, hilbert


def _random_scalar(field, rng, lo=0):
    """A seeded scalar: uniform on [lo, p) in F_p, an integer in [lo, 100) over Q."""
    hi = field.p if isinstance(field, PrimeField) else 100
    return field.of(rng.randrange(lo, hi))


def _random_targets(field, rng, count):
    """Distinct nonzero targets; the first half (rounded up) are squares.

    A count the draws cannot always meet is refused before the first draw.
    F_p has (p - 1)/2 nonzero squares and p - 1 nonzero elements, so up to
    p - 1 targets are always drawn.  Over Q the squares are those of 2..99
    and the rest come from 1..99, where the 8 squares 4..81 may already be
    taken: the (count - 1)//2 + 1 squares need count <= 196, and the
    count//2 others need count//2 <= 99 - 8, so at most 183.
    """
    most = field.p - 1 if isinstance(field, PrimeField) else 183
    if count > most:
        raise ValueError(f"cannot draw {count} distinct targets over field {field.name}, "
                         f"the first half squares: at most {most}")
    n_squares = (count + 1) // 2
    picked = []
    seen = set()
    while len(picked) < n_squares:
        r = _random_scalar(field, rng, 2)
        v = field.mul(r, r)
        if v not in seen and not field.is_zero(v):
            seen.add(v)
            picked.append(v)
    while len(picked) < count:
        v = _random_scalar(field, rng, 1)
        if v not in seen:
            seen.add(v)
            picked.append(v)
    return picked


# each suite yields (check, ok, detail) and reads its flags from args
SUITES = {
    "grouplaw": suite_grouplaw,
    "clifford": suite_clifford,
    "betti": suite_betti,
    "knorrer": suite_knorrer,
    "ulrich-e2e": suite_ulrich_e2e,
}


def cmd_suite(args, field, seed) -> int:
    checks = [(c, bool(p), d) for c, p, d in SUITES[args.name](field, seed, args)]
    ok = all(p for _, p, _ in checks)
    lines = transcript_header("suite", args.name, field, seed)
    for check, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        lines.append(f"{check}: {status}" + (f" - {detail}" if detail else ""))
    lines.append(f"result: {'PASS' if ok else 'FAIL'} ({len(checks)} checks)")
    payload = {
        "suite": args.name,
        "field": field.name,
        "seed": seed,
        "version": __version__,
        "certificates": CERTIFICATES,
        "checks": [{"name": c, "pass": p, "detail": d} for c, p, d in checks],
        "pass": ok,
    }
    emit(args, lines, payload)
    return 0 if ok else 1


# -- export -----------------------------------------------------------------------


def cmd_export(args, field, seed) -> int:
    data = load_json(args.file)
    if args.format == "json":
        text = canonical_json(data)
    else:
        if isinstance(data, dict) and {"lower", "upper", "overlap"} <= set(data):
            table = betti.BettiTable(data["lower"], data["upper"], data["overlap"])
            text = table.render() + "\n"
        elif isinstance(data, dict) and {"presentation", "q1", "q2"} <= set(data):
            # loading re-verifies every certificate
            cand = load_candidate(args, field, data, "export")
            text = "\n".join(_candidate_report(cand)) + "\n"
        else:
            print("error: no text rendering for this object", file=sys.stderr)
            return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- main --------------------------------------------------------------------------


FORMATS = ("text", "json")


def _add_global_flags(parser, suppress: bool):
    # the root defaults are None: main fills them from the environment
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--field", default=d, help="odd prime p or Q")
    parser.add_argument(
        "--seed", type=int, default=d, help="seed for every randomized check"
    )
    parser.add_argument("--format", choices=FORMATS, default=d)


def _apply_environment(args) -> None:
    """Fill unset global flags from ULRICHMF_* or the built-in defaults.

    argparse never type-checks a default, so the values are checked here.
    ``args.field_given`` records whether the user named a field at all.
    """
    args.field_given = args.field is not None or "ULRICHMF_FIELD" in os.environ
    if args.field is None:
        args.field = os.environ.get("ULRICHMF_FIELD", str(DEFAULT_PRIME))
    if args.seed is None:
        text = os.environ.get("ULRICHMF_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            raise ValueError(f"ULRICHMF_SEED must be an integer, got {text!r}") from None
    if args.format is None:
        args.format = os.environ.get("ULRICHMF_FORMAT", "text")
        if args.format not in FORMATS:
            raise ValueError(
                f"ULRICHMF_FORMAT must be one of {', '.join(FORMATS)}, got {args.format!r}"
            )


def _at_least(lo):
    """An argparse int type that rejects values below lo."""

    def count(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds only module constants, and
    parsing neither reads the environment nor changes the parser."""
    parser = argparse.ArgumentParser(
        prog="ulrichmf",
        description="Exact matrix factorizations, Clifford algebras and Ulrich "
        "modules for pencils of quadrics",
    )
    _add_global_flags(parser, suppress=False)
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # root-level values unless explicitly repeated
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "pencil", help="discriminants and diagonalization", parents=[common]
    )
    p.add_argument("action", choices=("disc", "diag", "smooth"))
    p.add_argument("file", help="pencil descriptor JSON ('-' for stdin)")

    p = sub.add_parser("mf", help="matrix factorizations on the curve", parents=[common])
    p.add_argument(
        "action", choices=("build-li", "tensor", "cohomology", "raynaud", "grouplaw")
    )
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--roots", help="branch roots, comma separated (default 1..2g+2)")
    p.add_argument("--i", default="", help="subset I, comma separated 1-based")
    p.add_argument("--j", default="", help="subset J")
    p.add_argument("--range", default="0:4", help="twist range n0:n1 for cohomology")

    p = sub.add_parser("clifford", help="Clifford algebra checks", parents=[common])
    p.add_argument("action", choices=("mul", "center", "decompose", "bgg"))
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--roots")
    p.add_argument("--i", default="")
    p.add_argument("--j", default="")
    p.add_argument("--window", default="0:3")

    p = sub.add_parser("betti", help="Betti tables and parity obstruction", parents=[common])
    p.add_argument("action", choices=("table", "chi"))
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--d", type=int, default=0)

    p = sub.add_parser("ulrich", help="Ulrich candidates and verification", parents=[common])
    p.add_argument("action", choices=("construct", "for-roots", "verify"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", default="1,2,3", help="diagonal values for construct")
    p.add_argument("--roots", help="target discriminant roots for for-roots")
    p.add_argument("--out", help="write candidate JSON here")
    p.add_argument("file", nargs="?", help="candidate JSON for verify")

    p = sub.add_parser("suite", help="verification suites with transcripts", parents=[common])
    p.add_argument("name", choices=tuple(SUITES))
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--n", type=_at_least(2), default=None)
    p.add_argument("--pairs", type=_at_least(1), default=None)
    p.add_argument("--triples", type=_at_least(1), default=None)
    p.add_argument("--max-n", dest="max_n", type=_at_least(0), default=None)
    p.add_argument("--roots")

    p = sub.add_parser("export", help="canonical JSON / text re-encoding", parents=[common])
    p.add_argument("file")
    p.add_argument("--out")

    return parser


def _join_dash_values(argv) -> list:
    """``--range -1:4`` as ``--range=-1:4``, and ``--roots -1,4`` as ``--roots=-1,4``:
    argparse takes a lone "-1:4" or "-1,4" for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--range", "--window", "--roots", "--d") and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        _apply_environment(args)
        field = field_from_name(args.field)
        # by name per call: the cached parser must not pin the cmd_* it was
        # built with, since a monkeypatch or a tracing wrapper rebinds them
        code = globals()[f"cmd_{args.command}"](args, field, args.seed)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away: not bad input, and quiet at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
