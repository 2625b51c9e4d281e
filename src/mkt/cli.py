"""Command line front end.

Commands read a JSON document (path or '-' for stdin), run one library
operation, and print a JSON report. Randomized suites are driven by a seed
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

from .canonical import (INTEGER, RATIONAL_PAIR, REAL_SIGN, UNIT, ZERO,
                        CanonicalClass, canonical_class)
from .commuting import MatrixTuple, composition_series, series_expression
from .errors import MktError, ParseError, RecursionInvariantViolated
from .factor import forget as forget_factorizations, is_irreducible
from .fields import (EXTENSION, FUNCTION, PRIME, RATIONALS, FieldDescriptor,
                     Polynomial, RationalFunction, extension, function_field,
                     prime_field, rationals, tower_degree)
from .fields import forget as forget_fields
from .jointdet import (RATIONAL_HILBERT, SPECS, UNIVERSAL, check_axioms,
                       hilbert, make_determinant)
from .linalg import Matrix
from .numutil import factor_int, is_prime
from .sampling import monic_irreducible
from .symbols import MilnorExpression, symbol
from .transfer import reciprocity_check, transfer_ext
from .valuations import (INFINITE, PRIME_PLACE, REAL, finite_place,
                         infinite_place, rational_prime, tame_symbol)

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


def _parse_field(block) -> FieldDescriptor:
    if not isinstance(block, dict) or "kind" not in block:
        raise ParseError('field block must be an object with a "kind"')
    kind = block["kind"]
    if kind == "Q":
        return rationals()
    if kind == "Fq":
        p = block.get("p")
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise ParseError('"p" must be a prime integer')
        deg = block.get("deg", 1)
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
            raise ParseError('"deg" must be a positive integer')
        base = prime_field(p)
        if deg == 1:
            return base
        mod = block.get("modulus")
        if not isinstance(mod, list) or len(mod) != deg + 1:
            raise ParseError('"modulus" must list deg+1 coefficients, low to high')
        poly = _parse_poly(base, mod)
        if not poly.is_monic() or not is_irreducible(poly):
            raise ParseError("modulus must be monic and irreducible")
        return extension(base, poly, check=False)
    raise ParseError(f"unknown field kind {kind!r}")


# the README's rational format; Fraction alone would also take exponents
# such as "1e200000" and expand them digit by digit
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    m = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    if m:
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"not a rational: {v!r}") from e
    raise ParseError(f"not a rational: {v!r}")


def _parse_element(field: FieldDescriptor, v):
    try:
        if field.kind == RATIONALS:
            return field.element(_parse_rational(v))
        if field.kind == PRIME:
            if isinstance(v, str) and _INTEGER.fullmatch(v):
                v = int(v)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"not a prime-field element: {v!r}")
            return field.from_int(v)
        if field.kind == EXTENSION:
            if isinstance(v, list):
                return field.element(tuple(_parse_element(field.base, c) for c in v))
            raise ParseError(f"not an extension element: {v!r}")
        if field.kind == FUNCTION:
            base = field.base
            if isinstance(v, dict):
                num = _parse_poly(base, v.get("num"))
                den = _parse_poly(base, v.get("den", [1]))
                return field.element(RationalFunction(num, den))
            if isinstance(v, list):
                return field.element(_parse_poly(base, v))
            return field.element(Polynomial.constant(_parse_element(base, v)))
    except MktError:
        raise
    except (ValueError, TypeError) as e:
        raise ParseError(f"bad element {v!r}: {e}") from e
    raise ParseError(f"no element parser for {field}")


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
        parsed.append(Matrix(field, [[_parse_element(field, e) for e in row]
                                     for row in m]))
    return MatrixTuple(field, parsed)


def _parse_place_token(tok):
    if tok in ("inf", "infinity", "oo"):
        return "inf"
    if isinstance(tok, str) and _INTEGER.fullmatch(tok):
        tok = int(tok)
    if isinstance(tok, int) and is_prime(tok):
        return tok
    raise ParseError(f"not a place: {tok!r}")


def _parse_places(arg: str) -> list:
    if not arg:
        raise ParseError("empty place list")
    return [_parse_place_token(t.strip()) for t in arg.split(",")]


# ---------------------------------------------------------------------------
# JSON output rendering


def _field_name(field: FieldDescriptor) -> str:
    if field.kind == RATIONALS:
        return "Q"
    if field.kind == PRIME:
        return f"F{field.p}"
    if field.kind == EXTENSION and field.is_finite():
        deg = tower_degree(field, prime_field(field.characteristic()))
        return f"F{field.characteristic()}^{deg}"
    if field.kind == FUNCTION:
        return _field_name(field.base) + "(X)"
    return str(field)


def _element_json(e):
    f = e.field
    if f.kind == RATIONALS:
        return str(e.rep)
    if f.kind == PRIME:
        return e.rep
    if f.kind == EXTENSION:
        return [_element_json(c) for c in e.rep]
    num = [_element_json(c) for c in e.rep.num.coeffs]
    den = [_element_json(c) for c in e.rep.den.coeffs]
    return {"num": num, "den": den}


def _terms_json(x: MilnorExpression) -> list:
    return [{"coeff": c, "entries": [_element_json(e) for e in entries]}
            for entries, c in x.items()]


def _class_json(cls: CanonicalClass) -> dict:
    if cls.kind == ZERO:
        return {"zero": True}
    out = {"l": cls.weight}
    if cls.field is not None:
        out["field"] = _field_name(cls.field)
    if cls.kind == INTEGER:
        out["n"] = cls.n
    elif cls.kind == UNIT:
        out["unit"] = _element_json(cls.unit)
        if cls.unit.is_one():
            out["zero"] = True
    elif cls.kind == RATIONAL_PAIR:
        out["eps_inf"] = cls.eps
        out["tame"] = {str(p): str(r) for p, r in sorted(cls.tame.items())}
        if cls.is_zero():
            out["zero"] = True
    else:
        out["eps_inf"] = cls.eps
        if cls.kind == REAL_SIGN:
            out["real"] = True
        if cls.is_zero():
            out["zero"] = True
    return out


def _place_json(v) -> dict:
    if v.kind == INFINITE:
        return {"place": "inf"}
    if v.kind == PRIME_PLACE:
        return {"place": v.p}
    if v.kind == REAL:
        return {"place": "real"}
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
    cls = canonical_class(x, real=bool(args.real or doc.get("real")))
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
    cls = canonical_class(expr, real=bool(args.real or doc.get("real")))
    return {"command": "reduce", "field": _field_name(field),
            "weight": x.weight, "size": x.size, "factors": factors,
            "terms": _terms_json(expr), "class": _class_json(cls)}, 0


def _cmd_jointdet(args) -> tuple[dict, int]:
    if args.places is not None and args.spec != RATIONAL_HILBERT:
        raise ParseError(f"--places applies to {RATIONAL_HILBERT} only, not {args.spec}")
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
    if q < 2:
        raise ParseError("q must be a prime power >= 2")
    fac = factor_int(q)
    if len(fac) != 1:
        raise ParseError(f"{q} is not a prime power")
    (p, d), = fac.items()
    base = prime_field(p)
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
    rng = random.Random(args.seed)
    bound = args.bound
    failures = []
    for i in range(args.trials):
        a = Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
        b = Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
        ps = set()
        for x in (a, b):
            ps.update(factor_int(abs(x.numerator)))
            ps.update(factor_int(x.denominator))
        ps.add(2)
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
    field = _parse_field(_parse_json(args.field, "--field is not valid JSON"))
    places = _parse_places(args.places) if args.places else None
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
    p.add_argument("--places", default="inf,3,5")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    forget_factorizations()
    forget_fields()
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
