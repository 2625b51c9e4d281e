"""Independent checks of mkt's reports against what gen.py planted.

Each check returns a list of failure messages; an empty list is a pass. The
Hilbert symbol here is the textbook formula (Serre, A Course in Arithmetic,
III.1), written without mkt.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from probe import HILBERT_PLACES


def _split(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert(a: Fraction, b: Fraction, place) -> int:
    """(a, b) at a place of Q, in {+1, -1}; a and b nonzero."""
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    # multiplying by the square of the denominator leaves the symbol unchanged
    x, y = a.numerator * a.denominator, b.numerator * b.denominator
    alpha, u = _split(x, place)
    beta, v = _split(y, place)
    if place == 2:
        eps = lambda t: ((t - 1) // 2) % 2
        omega = lambda t: ((t * t - 1) // 8) % 2
        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1

    def legendre(t):
        return 1 if pow(t % place, (place - 1) // 2, place) == 1 else -1
    out = -1 if alpha * beta % 2 and place % 4 == 3 else 1
    if beta % 2:
        out *= legendre(u)
    if alpha % 2:
        out *= legendre(v)
    return out


def _exit_ok(name, code, report) -> list[str]:
    if code != 0:
        return [f"{name} exited {code}: {report.get('error')}"]
    if "error" in report:
        return [f"{name} reported an error: {report['error']}"]
    return []


def check_reciprocity(outs, planted) -> list[str]:
    (code, report), = outs
    bad = _exit_ok("reciprocity", code, report)
    if bad:
        return bad
    if report.get("total") != {"zero": True}:
        bad.append(f"total is not zero: {report.get('total')}")
    places = sorted(str(p["place"]) for p in report.get("places", []))
    want = sorted([str({"pi": f}) for f in planted["places"]] + ["inf"])
    if places != want:
        bad.append(f"places {places} are not the planted {want}")
    return bad


def _tuple_common(outs, planted) -> list[str]:
    (rc, red), (jc, jd) = outs
    bad = _exit_ok("reduce", rc, red) + _exit_ok("jointdet", jc, jd)
    if bad:
        return bad
    if red.get("weight") != 2 or red.get("size") != planted["size"]:
        bad.append(f"weight/size {red.get('weight')}/{red.get('size')} "
                   f"!= 2/{planted['size']}")
    return bad


def _split_factors(factors, parse) -> Counter:
    out = Counter()
    for f in factors:
        if f["degree"] == 1:
            out[tuple(parse(s) for s in f["scalars"])] += f["multiplicity"]
    return out


def _planted_split(planted) -> Counter:
    out = Counter()
    for pair, size in planted["blocks"]:
        out[pair] += size
    return out


def check_q_tuple(outs, planted) -> list[str]:
    bad = _tuple_common(outs, planted)
    if bad:
        return bad
    red, jd = outs[0][1], outs[1][1]
    factors = red.get("factors", [])
    if any(f["degree"] != 1 for f in factors):
        bad.append("a factor over Q has degree > 1")
    got = _split_factors(factors, Fraction)
    if got != _planted_split(planted):
        bad.append(f"factors {dict(got)} != planted {dict(_planted_split(planted))}")
    want = 1
    for (a, b), size in planted["blocks"]:
        for place in HILBERT_PLACES:
            want *= hilbert(a, b, place) ** size
    if jd.get("value") != want:
        bad.append(f"hilbert value {jd.get('value')} != {want}")
    return bad


def check_ff_tuple(outs, planted) -> list[str]:
    bad = _tuple_common(outs, planted)
    if bad:
        return bad
    red, jd = outs[0][1], outs[1][1]
    factors = red.get("factors", [])
    if sum(f["degree"] * f["multiplicity"] for f in factors) != planted["size"]:
        bad.append("degree x multiplicity does not sum to the size")
    got = _split_factors(factors, lambda s: s[0] + 3 * s[1])
    if got != _planted_split(planted):
        bad.append(f"split factors {dict(got)} != planted {dict(_planted_split(planted))}")
    quad = sum(f["multiplicity"] for f in factors if f["degree"] == 2)
    if quad != planted["companions"] or any(f["degree"] > 2 for f in factors):
        bad.append(f"{quad} factors over F_81, planted {planted['companions']}")
    if not red.get("class", {}).get("zero"):
        bad.append(f"class is not zero: {red.get('class')}")
    if jd.get("value") != 1:
        bad.append(f"joint determinant {jd.get('value')} != 1")
    return bad


CHECKS = {"ff_reciprocity": check_reciprocity, "q_tuples": check_q_tuple,
          "ff_tuples": check_ff_tuple}
