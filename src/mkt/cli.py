"""Command line front end.

Commands read a JSON document (path or '-' for stdin), run one library
operation, and print a JSON report. Every value of a document (symbol and
matrix entries, their coefficients, moduli, uniformizers) is read once, by
`_read`, into the form the library computes in. Randomized suites are driven by a seed
and produce byte-identical reports for identical invocations. Exit codes:
0 success, 1 malformed input or an unsupported request, 2 a violated
mathematical invariant (which signals a library bug, not user error).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from math import lcm

from .canonical import (INTEGER, RATIONAL_PAIR, REAL_SIGN, UNIT, ZERO,
                        CanonicalClass, canonical_class)
from .commuting import MatrixTuple, composition_series, series_expression
from .errors import (ArityMismatch, BadModulus, MktError, ParseError,
                     RecursionInvariantViolated)
from .factor import forget as forget_factorizations, is_irreducible
from .fields import (EXTENSION, FUNCTION, PRIME, RATIONALS, FieldDescriptor,
                     Polynomial, RationalFunction, extension, function_field,
                     kernel_elements, kernel_kind, prime_field, rationals, table_index,
                     tower_degree)
from .jointdet import (RATIONAL_HILBERT, SPECS, UNIVERSAL, check_axioms,
                       hilbert, make_determinant)
from .linalg import Matrix
from .numutil import PROVEN_PRIME_BOUND, factor_int, is_prime, prime_power
from .sampling import monic_irreducible
from .symbols import MilnorExpression, symbol
from .transfer import reciprocity_check, transfer_ext
from .valuations import (INFINITE, PRIME_PLACE, finite_place, infinite_place,
                         rational_prime, support, tame_symbol)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# JSON input parsing


def _parse_json(text: str, what: str):
    """json.loads, with every way it can fail mapped to a ParseError.

    A JSONDecodeError is a ValueError; so is an integer literal beyond
    Python's digit limit. Deep nesting exhausts the recursion limit.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{what}: {e}") from e


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    doc = _parse_json(text, "invalid JSON")
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def _proven_prime(p: int, what: str) -> int:
    """p, a prime the input names, if is_prime is exact at p."""
    if p >= PROVEN_PRIME_BOUND:
        raise ParseError(f"{what} {p} is not below {PROVEN_PRIME_BOUND}, "
                         "so its primality is not proven")
    return p


def _parse_field(block) -> FieldDescriptor:
    if not isinstance(block, dict) or "kind" not in block:
        raise ParseError('field block must be an object with a "kind"')
    kind = block["kind"]
    if kind == "Q":
        return rationals()
    if kind == "Fq":
        p = block.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParseError('"p" must be a prime integer')
        deg = block.get("deg", 1)
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
            raise ParseError('"deg" must be a positive integer')
        try:
            base = prime_field(_proven_prime(p, '"p"'))
            if deg == 1:
                return base
            mod = block.get("modulus")
            if not isinstance(mod, list) or len(mod) != deg + 1:
                raise ParseError('"modulus" must list deg+1 coefficients, low to high')
            poly = _parse_poly(base, mod)
            if poly.degree != deg:
                raise ParseError(f'"modulus" must have degree {deg}')
            return extension(base, poly)
        except BadModulus as e:
            raise ParseError(f"bad field: {e}") from e
    raise ParseError(f"unknown field kind {kind!r}")


def _wants_real(args, doc: dict) -> bool:
    """--real, or the document's "real", which must be true or false if present."""
    real = doc.get("real", False)
    if not isinstance(real, bool):
        raise ParseError('"real" must be true or false')
    return args.real or real


# the README's rational format; Fraction alone would also take exponents
# such as "1e200000" and expand them digit by digit
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _read(field: FieldDescriptor, v):
    """The document value v in the internal form of field (see linalg):
    (numerator, denominator > 0) over Q, the residue in [0, p) over F_p, the
    table index over a tabled step, the element over any other field. Every
    entry, coefficient, modulus and uniformizer of a document is read here,
    in order, so the first offending value is the one reported."""
    try:
        if field.kind == RATIONALS:
            if type(v) is int:
                return v, 1
            m = _RATIONAL.fullmatch(v) if type(v) is str else None
            if m:
                try:
                    n, d = int(m[1]), int(m[2] or 1)
                except ValueError:  # past Python's digit limit
                    d = 0
                if d:
                    return n, d
            raise ParseError(f"not a rational: {v!r}")
        if field.kind == PRIME:
            if type(v) is str and _INTEGER.fullmatch(v):
                v = int(v)
            if type(v) is not int:
                raise ParseError(f"not a prime-field element: {v!r}")
            return v % field.p
        base = field.base
        if field.kind == EXTENSION:
            if type(v) is not list:
                raise ParseError(f"not an extension element: {v!r}")
            # the CLI's steps are over F_p, where an integer is its residue
            p, d = base.p, field.step_degree
            cs = [c % p if type(c) is int else _read(base, c) for c in v]
            if len(cs) > d:
                raise ParseError(f"bad element {v!r}: coefficient sequence longer "
                                 f"than step degree {d}")
            if kernel_kind(field) is not None:
                return table_index(field, cs)
            return field.element(kernel_elements(base, cs, kernel_kind(base)))
        # a function field k(X)
        if type(v) is dict:
            num = _parse_poly(base, v.get("num"))
            den = _parse_poly(base, v["den"]) if "den" in v else Polynomial.one(base)
            return field.element(RationalFunction(num, den))
        if type(v) is list:
            return field.element(_parse_poly(base, v))
        return field.element(Polynomial.constant(_parse_element(base, v)))
    except (ValueError, TypeError) as e:
        raise ParseError(f"bad element {v!r}: {e}") from e


def _parse_element(field: FieldDescriptor, v):
    """The element of field that the document value v names."""
    x = _read(field, v)
    if field.kind == RATIONALS:
        return field.element(Fraction(*x))
    return kernel_elements(field, [x], kernel_kind(field))[0]


def _parse_poly(base: FieldDescriptor, coeffs) -> Polynomial:
    if not isinstance(coeffs, list):
        raise ParseError("polynomial must be a coefficient list, low to high")
    return Polynomial(base, [_parse_element(base, c) for c in coeffs])


def _parse_symbols(field: FieldDescriptor, terms) -> MilnorExpression:
    if not isinstance(terms, list) or not terms:
        raise ParseError('"symbols" must be a nonempty list of terms')
    out = None
    for t in terms:
        if not isinstance(t, dict) or "entries" not in t:
            raise ParseError('each term needs an "entries" list')
        coeff = t.get("coeff", 1)
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ParseError('"coeff" must be an integer')
        entries = t["entries"]
        if not isinstance(entries, list) or not entries:
            raise ParseError('"entries" must be a nonempty list')
        s = coeff * symbol([_parse_element(field, e) for e in entries], field=field)
        out = s if out is None else out + s
    return out


def _parse_matrices(field: FieldDescriptor, mats) -> MatrixTuple:
    if not isinstance(mats, list) or not mats:
        raise ParseError('"matrices" must be a nonempty list')
    parsed = []
    for m in mats:
        if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
            raise ParseError("each matrix must be a row-major array of arrays")
        parsed.append(_parse_matrix(field, m))
    # a singular slot is refused by the composition series every command runs
    return MatrixTuple._commuting(field, parsed)


def _parse_matrix(field: FieldDescriptor, m: list) -> Matrix:
    """One matrix, its entries read in row-major order by _read; a ragged
    matrix is refused after its entries. Over Q the rows are brought over
    one denominator."""
    rows = [[_read(field, e) for e in row] for row in m]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ArityMismatch("ragged rows")
    if field.kind != RATIONALS:
        return Matrix._from_form(field, rows)
    d = lcm(*[b for r in rows for _, b in r])
    return Matrix._from_ints(field, [[a * (d // b) for a, b in r] for r in rows], d)


def _parse_place_token(tok):
    if tok in ("inf", "infinity", "oo"):
        return "inf"
    if isinstance(tok, str) and _INTEGER.fullmatch(tok):
        tok = int(tok)
    if isinstance(tok, int) and is_prime(tok):
        return _proven_prime(tok, "place")
    raise ParseError(f"not a place: {tok!r}")


def _parse_places(arg: str) -> list:
    """The places of a nonempty comma list."""
    return [_parse_place_token(t.strip()) for t in arg.split(",")]


# ---------------------------------------------------------------------------
# JSON output rendering


def _field_name(field: FieldDescriptor) -> str:
    if field.kind == RATIONALS:
        return "Q"
    if field.kind == PRIME:
        return f"F{field.p}"
    if field.kind == EXTENSION and field.is_finite():
        return f"F{field.characteristic()}^{field.absolute_degree()}"
    if field.kind == FUNCTION:
        return _field_name(field.base) + "(X)"
    return str(field)


def _element_json(e):
    """An element of Q, F_p or an extension step over them, the only fields
    a report renders elements of."""
    f = e.field
    if f.kind == RATIONALS:
        return str(e.rep)
    if f.kind == PRIME:
        return e.rep
    return [_element_json(c) for c in e.rep]


def _terms_json(x: MilnorExpression) -> list:
    return [{"coeff": c, "entries": [_element_json(e) for e in entries]}
            for entries, c in x.items()]


def _class_json(cls: CanonicalClass) -> dict:
    """A class from its components: the ones its kind uses, then whether it is zero."""
    if cls.kind == ZERO:
        return {"zero": True}
    out = {"l": cls.weight, "field": _field_name(cls.field)}
    if cls.kind == INTEGER:
        out["n"] = cls.n
    elif cls.kind == UNIT:
        out["unit"] = _element_json(cls.unit)
    else:
        out["eps_inf"] = cls.eps
    if cls.kind == RATIONAL_PAIR:
        out["tame"] = {str(p): str(r) for p, r in sorted(cls.tame.items())}
    if cls.kind == REAL_SIGN:
        out["real"] = True
    if cls.kind != INTEGER and cls.is_zero():
        out["zero"] = True
    return out


def _place_json(v) -> dict:
    if v.kind == INFINITE:
        return {"place": "inf"}
    if v.kind == PRIME_PLACE:
        return {"place": v.p}
    return {"place": {"pi": [_element_json(c) for c in v.pi.coeffs]}}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _cmd_canon(args) -> tuple[dict, int]:
    doc = _load_document(args.input)
    field = _parse_field(doc.get("field"))
    x = _parse_symbols(field, doc.get("symbols"))
    cls = canonical_class(x, real=_wants_real(args, doc))
    return {"command": "canon", "field": _field_name(field),
            "class": _class_json(cls)}, 0


def _cmd_tame(args) -> tuple[dict, int]:
    doc = _load_document(args.input)
    base = _parse_field(doc.get("field"))
    place = doc.get("place")
    if place is None:
        raise ParseError('tame needs a "place"')
    if isinstance(place, dict) and "pi" in place:
        ff = function_field(base)
        pi = _parse_poly(base, place["pi"])
        v = finite_place(ff, pi)
        x = _parse_symbols(ff, doc.get("symbols"))
    elif place in ("inf", "infinity", "oo"):
        ff = function_field(base)
        v = infinite_place(ff)
        x = _parse_symbols(ff, doc.get("symbols"))
    else:
        if base.kind != RATIONALS:
            raise ParseError("prime places need the rational field block")
        v = rational_prime(_parse_place_token(place))
        x = _parse_symbols(base, doc.get("symbols"))
    t = tame_symbol(v, x)
    return {"command": "tame", **_place_json(v),
            "terms": _terms_json(t), "class": _class_json(canonical_class(t))}, 0


def _cmd_reciprocity(args) -> tuple[dict, int]:
    doc = _load_document(args.input)
    base = _parse_field(doc.get("field"))
    ff = function_field(base)
    x = _parse_symbols(ff, doc.get("symbols"))
    cls, rows = reciprocity_check(x)
    places = [{**_place_json(v), "class": _class_json(canonical_class(n))}
              for v, _t, n in rows]
    report = {"command": "reciprocity", "field": _field_name(ff),
              "total": _class_json(cls), "places": places}
    return report, 0 if cls.is_zero() else 2


def _cmd_transfer(args) -> tuple[dict, int]:
    doc = _load_document(args.input)
    field = _parse_field(doc.get("field"))
    if field.kind != EXTENSION:
        raise ParseError("transfer needs an extension field block (deg >= 2)")
    x = _parse_symbols(field, doc.get("symbols"))
    y = transfer_ext(field, x)
    return {"command": "transfer", "field": _field_name(field),
            "base": _field_name(field.base), "terms": _terms_json(y),
            "class": _class_json(canonical_class(y))}, 0


def _cmd_reduce(args) -> tuple[dict, int]:
    doc = _load_document(args.input)
    field = _parse_field(doc.get("field"))
    x = _parse_matrices(field, doc.get("matrices"))
    series = composition_series(x)
    factors = []
    for f in series:
        factors.append({
            "degree": tower_degree(f.extension, field),
            "scalars": [_element_json(s) for s in f.scalars],
            "multiplicity": f.multiplicity,
        })
    expr = series_expression(field, x.weight, series)
    cls = canonical_class(expr, real=_wants_real(args, doc))
    return {"command": "reduce", "field": _field_name(field),
            "weight": x.weight, "size": x.size, "factors": factors,
            "terms": _terms_json(expr), "class": _class_json(cls)}, 0


def _refuse_places(args) -> None:
    """Only rational-hilbert takes --places; refused before any input is read."""
    if args.places is not None and args.spec != RATIONAL_HILBERT:
        raise ParseError(f"--places applies to {RATIONAL_HILBERT} only, not {args.spec}")


def _cmd_jointdet(args) -> tuple[dict, int]:
    _refuse_places(args)
    doc = _load_document(args.input)
    field = _parse_field(doc.get("field"))
    x = _parse_matrices(field, doc.get("matrices"))
    places = _parse_places(args.places) if args.places else ()
    d = make_determinant(field, x.weight, args.spec, places=places or None)
    value = d(x)
    report = {"command": "jointdet", "field": _field_name(field),
              "spec": d.label, "weight": x.weight}
    if isinstance(value, CanonicalClass):
        report["value"] = _class_json(value)
    else:
        report["value"] = value
    return report, 0


# ---------------------------------------------------------------------------
# randomized suites


def _field_from_q(q: int) -> FieldDescriptor:
    pd = prime_power(q) if q > 1 else None
    if pd is None:
        raise ParseError(f"q = {q} is not a prime power >= 2")
    p, d = pd
    base = prime_field(_proven_prime(p, "characteristic"))
    if d == 1:
        return base
    return extension(base, _default_modulus(base, d))


def _default_modulus(base, d: int) -> Polynomial:
    # first monic irreducible of degree d in lexicographic coefficient order
    p = base.p
    for n in range(p ** d):
        coeffs = []
        m = n
        for _ in range(d):
            coeffs.append(base.from_int(m % p))
            m //= p
        coeffs.append(base.one())
        f = Polynomial(base, coeffs)
        if is_irreducible(f):
            return f
    raise ParseError(f"no irreducible of degree {d} found")  # unreachable


def _count_monic_irreducibles(q: int, deg_max: int, enough: int) -> int:
    """Monic irreducibles of degree <= deg_max over F_q, counted up to `enough`.

    Gauss's formula: N_q(d) = (1/d) * sum over e | d of mu(e) * q^(d/e).
    """
    count = 0
    for d in range(1, deg_max + 1):
        total = 0
        for e in range(1, d + 1):
            if d % e == 0:
                fac = factor_int(e)
                if all(k == 1 for k in fac.values()):
                    total += (-1) ** len(fac) * q ** (d // e)
        count += total // d
        if count >= enough:
            break
    return count


def _suite_reciprocity(args) -> tuple[dict, int]:
    field = _field_from_q(args.q)
    ff = function_field(field)
    rng = random.Random(args.seed)
    weight = args.l + 1
    available = _count_monic_irreducibles(args.q, args.deg_max, weight)
    if available < weight:
        raise ParseError(f"--l {args.l} needs {weight} distinct monic irreducibles, "
                         f"but F_{args.q} has only {available} of degree at most "
                         f"--deg-max {args.deg_max}")
    failures = []
    for i in range(args.trials):
        polys = []
        while len(polys) < weight:
            f = monic_irreducible(field, rng, rng.randint(1, args.deg_max))
            if f not in polys:
                polys.append(f)
        w = symbol([ff.element(f) for f in polys], field=ff)
        cls, _ = reciprocity_check(w)
        if not cls.is_zero():
            failures.append({"trial": i, "class": _class_json(cls)})
    report = {"command": "check", "suite": "reciprocity", "q": args.q,
              "l": args.l, "trials": args.trials, "seed": args.seed,
              "failures": failures, "passed": args.trials - len(failures)}
    return report, 0 if not failures else 2


def _suite_hilbert(args) -> tuple[dict, int]:
    Q = rationals()
    rng = random.Random(args.seed)
    bound = args.bound
    failures = []
    for i in range(args.trials):
        a = Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
        b = Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
        ps = {v.p for v in support(symbol([Q.element(a), Q.element(b)], field=Q))} | {2}
        prod = hilbert(a, b, "inf")
        for p in sorted(ps):
            prod *= hilbert(a, b, p)
        if prod != 1:
            failures.append({"trial": i, "a": str(a), "b": str(b)})
    report = {"command": "check", "suite": "hilbert", "trials": args.trials,
              "seed": args.seed, "bound": bound, "failures": failures,
              "passed": args.trials - len(failures)}
    return report, 0 if not failures else 2


def _suite_axioms(args) -> tuple[dict, int]:
    _refuse_places(args)
    field = _parse_field(_parse_json(args.field, "--field is not valid JSON"))
    text = "inf,3,5" if args.places is None else args.places
    places = _parse_places(text) if text and args.spec == RATIONAL_HILBERT else None
    d = make_determinant(field, args.l, args.spec, places=places)
    rng = random.Random(args.seed)
    violations = check_axioms(d, trials=args.trials, rng=rng)
    report = {"command": "check", "suite": "axioms", "spec": d.label,
              "field": _field_name(field), "l": args.l, "trials": args.trials,
              "seed": args.seed, "violations": violations,
              "passed": not violations}
    return report, 0 if not violations else 2


_SUITES = {"reciprocity": _suite_reciprocity, "hilbert": _suite_hilbert,
           "axioms": _suite_axioms}


# (flag, attribute, smallest accepted value) of the suite parameters
_SUITE_MINIMA = (("--trials", "trials", 0), ("--deg-max", "deg_max", 1),
                 ("--bound", "bound", 1), ("--l", "l", 0))


def _cmd_check(args) -> tuple[dict, int]:
    fn = _SUITES.get(args.suite)
    if fn is None:
        raise ParseError(f"unknown suite {args.suite!r}; "
                         f"choose from {sorted(_SUITES)}")
    for flag, attr, least in _SUITE_MINIMA:
        if getattr(args, attr) < least:
            raise ParseError(f"{flag} must be at least {least}")
    return fn(args)


# ---------------------------------------------------------------------------
# argument parsing / entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.

    parse_args returns a fresh Namespace, so no report depends on an earlier
    command. Subcommand NAME runs _cmd_NAME, looked up when main runs, so the
    parser holds no command function.
    """
    top = argparse.ArgumentParser(
        prog="mkt",
        description="Exact symbol invariants of fields and commuting matrix tuples.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="JSON document path, or - for stdin")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("canon", help="canonical class of a symbol expression")
    add_common(p)
    p.add_argument("--real", action="store_true",
                   help="use the real sign invariant (Q only)")

    p = sub.add_parser("tame", help="tame symbol at a place")
    add_common(p)

    p = sub.add_parser("reciprocity", help="sum of transferred boundaries over all places")
    add_common(p)

    p = sub.add_parser("transfer", help="push a symbol down a finite extension")
    add_common(p)

    p = sub.add_parser("reduce", help="composition factors and class of a matrix tuple")
    add_common(p)
    p.add_argument("--real", action="store_true")

    p = sub.add_parser("jointdet", help="evaluate a joint determinant on a tuple")
    add_common(p)
    p.add_argument("--spec", default=UNIVERSAL, choices=SPECS)
    p.add_argument("--places", default=None,
                   help="comma list of places for rational-hilbert, e.g. inf,3")

    p = sub.add_parser("check", help="seeded randomized property suites")
    p.add_argument("suite", help="reciprocity | hilbert | axioms")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--q", type=int, default=5, help="prime power (reciprocity suite)")
    p.add_argument("--l", type=int, default=2, help="symbol weight parameter")
    p.add_argument("--deg-max", type=int, default=4, dest="deg_max")
    p.add_argument("--bound", type=int, default=10 ** 6, help="hilbert suite bound")
    p.add_argument("--field", default='{"kind":"Q"}',
                   help="field block JSON (axioms suite)")
    p.add_argument("--spec", default=RATIONAL_HILBERT, choices=SPECS)
    p.add_argument("--places", default=None,
                   help="comma list of places for rational-hilbert (default inf,3,5)")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    forget_factorizations()
    try:
        report, code = globals()[f"_cmd_{args.command}"](args)
    except MktError as e:
        report = {"error": {"type": type(e).__name__, "message": str(e)}}
        code = 2 if isinstance(e, RecursionInvariantViolated) else 1
    try:
        _emit(report, args.out)
    except OSError as e:
        _emit({"error": {"type": "ParseError",
                         "message": f"cannot write {args.out}: {e}"}}, None)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
