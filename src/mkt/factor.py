"""Polynomial factorization and irreducibility.

Finite fields (prime fields and their towers): squarefree decomposition,
distinct-degree splitting, then randomized equal-degree splitting. The
randomness is seeded from the polynomial's own coefficients, so results are
deterministic run to run.

Rationals: squarefree decomposition, then factorization of each primitive
integer part modulo one good prime followed by subset recombination. The
prime is chosen above twice a coefficient bound for true factors, so lifted
candidates are exact and no Hensel stage is needed. Desk-scale degrees only.

`factor` refuses proper extensions of Q and function fields with
UnsupportedFactorization; only the private `irreducible_factors` splits over
a height-one extension Q(alpha), by Trager's norm method.

Results are memoized, keyed on the immutable Polynomial: the transfer
recursion factors the same entries and reopens places at the same factors
many times over. Every factor that `factor` returns is recorded as
irreducible, so a later `is_irreducible` on it is one lookup. Each dict is
emptied when it reaches _MEMO_CAP entries, and `forget()` empties both; the
CLI calls it before every command, so no command's report or cost depends on
an earlier one in the same process.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from mkt import zkernel
from mkt.errors import UnsupportedFactorization, ZeroPolynomial
from mkt.fields import (
    EXTENSION,
    FUNCTION,
    PRIME,
    RATIONALS,
    FieldDescriptor,
    FieldElement,
    Polynomial,
    _ext_element,
    _kind,
    _values,
    _wrap,
    coordinates,
    embed_poly,
    poly_gcd,
    prime_field,
)
from mkt.linalg import Matrix, _cleared, companion_matrix, minpoly_matrix
from mkt.numutil import factor_int, next_prime
from mkt.towers import multiplication_matrix

# entries per memo dict; one CLI command's working set fits well below it
_MEMO_CAP = 4096
# f -> (unit, ((g, m), ...)) of factor(f)
_FACTORED: dict[Polynomial, tuple[FieldElement, tuple[tuple[Polynomial, int], ...]]] = {}
# f -> is_irreducible(f), for degree >= 2; seeded with the factors above
_IRREDUCIBLE: dict[Polynomial, bool] = {}


def forget() -> None:
    """Empty the memo of `factor` and `is_irreducible`."""
    _FACTORED.clear()
    _IRREDUCIBLE.clear()


def _remember(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value


def _stable_seed(f: Polynomial) -> int:
    """Deterministic seed derived from coefficients (hash() is randomized)."""
    acc = 0x9E3779B97F4A7C15
    prime_base = prime_field(f.field.characteristic())
    for c in f.coeffs:
        for v in coordinates(c, prime_base):
            acc = (acc * 0x100000001B3 + v.rep + 1) % (1 << 61)
    return acc


def poly_powmod(a: Polynomial, e: int, f: Polynomial) -> Polynomial:
    fld = f.field
    k = _kind(fld)
    return _wrap(fld, zkernel.zp_powmod(_values(k, a.coeffs), e, _values(k, f.coeffs), k), k)


# -- finite fields -----------------------------------------------------------

def _pth_root_poly(f: Polynomial) -> Polynomial:
    """Inverse Frobenius: g with g^p = f; f must have only X^(pi) terms."""
    fld = f.field
    p = fld.characteristic()
    q = fld.order()
    root_exp = q // p
    out = []
    for i in range(0, f.degree + 1, p):
        c = f.coeffs[i] if i <= f.degree else fld.zero()
        out.append(c ** root_exp)
    return Polynomial(fld, out)


def _squarefree(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Squarefree parts of a monic nonconstant f with their multiplicities.
    The p-th roots are taken only in characteristic p, where a derivative
    can vanish and a cofactor can remain."""
    p = f.field.characteristic()
    result: list[tuple[Polynomial, int]] = []
    d = f.derivative()
    if d.is_zero():
        for g, m in _squarefree(_pth_root_poly(f)):
            result.append((g, m * p))
        return result
    c = poly_gcd(f, d)
    w = f // c
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            result.append((z, m))
        w = y
        c = c // y
        m += 1
    if c.degree > 0:
        for g, mm in _squarefree(_pth_root_poly(c)):
            result.append((g, mm * p))
    return result


def _distinct_degree(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Split monic squarefree f into products of same-degree irreducibles."""
    fld = f.field
    q = fld.order()
    out = []
    h = Polynomial.x(fld) % f
    x = Polynomial.x(fld)
    d = 0
    while f.degree > 2 * (d + 1) - 1 and f.degree > 0:
        d += 1
        h = poly_powmod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree_split(f: Polynomial, d: int, rng: random.Random) -> Polynomial:
    """One nontrivial monic factor of f, where f is a product of >= 2
    irreducibles all of degree d."""
    fld = f.field
    q = fld.order()
    n = f.degree
    while True:
        a = Polynomial(fld, [_random_element(fld, rng) for _ in range(n)])
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            return g.monic()
        if q % 2 == 1:
            t = poly_powmod(a, (q ** d - 1) // 2, f) - Polynomial.one(fld)
        else:
            # char 2: additive trace map
            e = d * _log2_order(q)
            t = a % f
            acc = t
            for _ in range(e - 1):
                t = t * t % f
                acc = (acc + t) % f
            t = acc
        g = poly_gcd(t, f)
        if 0 < g.degree < n:
            return g.monic()


def _log2_order(q: int) -> int:
    e = q.bit_length() - 1
    assert 1 << e == q
    return e


def _random_element(fld: FieldDescriptor, rng: random.Random) -> FieldElement:
    if fld.kind == PRIME:
        return fld.from_int(rng.randrange(fld.p))
    return _ext_element(fld, tuple(_random_element(fld.base, rng)
                                   for _ in range(fld.step_degree)))


def _factor_finite_squarefree(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    out = []
    for prod, d in _distinct_degree(f):
        stack = [prod]
        while stack:
            g = stack.pop()
            if g.degree == d:
                out.append(g.monic())
                continue
            h = _equal_degree_split(g, d, rng)
            stack.append(h)
            stack.append(g // h)
    return out


# -- rationals ---------------------------------------------------------------

def _primitive(ints: list[int]) -> list[int]:
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g == 0:
        return list(ints)
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints]


def _symmetric_lift(ints: list[int], p: int) -> list[int]:
    half = p // 2
    return [v - p if v > half else v for v in ints]


def _good_prime(ints: list[int]) -> int:
    n = len(ints) - 1
    height = max(abs(v) for v in ints)
    norm2 = math.isqrt(sum(v * v for v in ints)) + 1
    bound = (2 ** n) * (norm2 + height) * max(1, abs(ints[-1]))
    p = next_prime(max(2 * bound, 101))
    while True:
        if ints[-1] % p != 0:
            fp = [v % p for v in ints]
            dfp = [(i * ints[i]) % p for i in range(1, len(ints))]
            if len(zkernel.zp_gcd(zkernel.trim(fp), zkernel.trim(dfp), p)) == 1:
                return p
        p = next_prime(p)


def _divides_q(h_ints: list[int], g: Polynomial) -> bool:
    Q = g.field
    h = Polynomial(Q, [Fraction(v) for v in h_ints])
    return (g % h).is_zero()


def _factor_q_squarefree(f: Polynomial) -> list[Polynomial]:
    """Monic irreducible rational factors of a monic squarefree f over Q."""
    Q = f.field
    if f.degree == 1:
        return [f]
    ints = _primitive(_cleared([c.rep for c in f.coeffs])[0])
    p = _good_prime(ints)
    Fp = prime_field(p)
    fp = Polynomial.from_ints(Fp, ints).monic()
    rng = random.Random(_stable_seed(fp))
    modular = _factor_finite_squarefree(fp, rng)
    modular.sort(key=Polynomial.coeff_key)
    if len(modular) == 1:
        return [f]
    result_ints: list[list[int]] = []
    pool = modular
    g_ints = ints
    s = 1
    while 2 * s <= len(pool):
        hit = None
        gq = Polynomial(Q, [Fraction(v) for v in g_ints]).monic()
        for combo in combinations(range(len(pool)), s):
            cand = [g_ints[-1] % p]
            for i in combo:
                cand = zkernel.zp_mul(cand, _values(p, pool[i].coeffs), p)
            lifted = _primitive(_symmetric_lift(cand, p))
            if sum(len(pool[i].coeffs) - 1 for i in combo) != len(lifted) - 1:
                continue
            if _divides_q(lifted, gq):
                hit = (combo, lifted)
                break
        if hit is None:
            s += 1
            continue
        combo, lifted = hit
        result_ints.append(lifted)
        quot = gq // Polynomial(Q, [Fraction(v) for v in lifted])
        g_ints = _primitive(_cleared([c.rep for c in quot.coeffs])[0])
        pool = [pool[i] for i in range(len(pool)) if i not in combo]
    if len(g_ints) > 1:
        result_ints.append(g_ints)
    out = [Polynomial(Q, [Fraction(v) for v in ints]).monic() for ints in result_ints]
    return out


# -- public interface --------------------------------------------------------

def factor(f: Polynomial) -> tuple[FieldElement, list[tuple[Polynomial, int]]]:
    """Factor f as unit * prod(g_i^m_i) with g_i monic irreducible.

    The reconstruction is exact. Factors are sorted by (degree, coefficient
    key). Supported coefficient fields: finite fields and Q.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    fld = f.field
    if fld.kind == FUNCTION or (fld.kind == EXTENSION and not fld.is_finite()):
        raise UnsupportedFactorization(f"factorization over {fld} is not supported")
    known = _FACTORED.get(f)
    if known is not None:
        return known[0], list(known[1])
    unit = f.lc()
    if f.degree == 0:
        return unit, []
    fm = f.monic()
    out: list[tuple[Polynomial, int]] = []
    if f.degree == 1:
        out.append((fm, 1))
    elif fld.kind == RATIONALS:
        for part, mult in _squarefree(fm):
            for g in _factor_q_squarefree(part):
                out.append((g, mult))
    else:
        rng = random.Random(_stable_seed(fm))
        for part, mult in _squarefree(fm):
            for g in _factor_finite_squarefree(part, rng):
                out.append((g, mult))
    out.sort(key=lambda pair: pair[0].coeff_key())
    _remember(_FACTORED, f, (unit, tuple(out)))
    for g, _m in out:
        if g.degree >= 2:
            _remember(_IRREDUCIBLE, g, True)
    return unit, out


def irreducible_factors(m: Polynomial) -> list[Polynomial]:
    """The irreducible factors of a monic m, each repeated by its exponent.

    Over Q and finite fields they come from `factor`. Over a height-one
    extension L = Q(alpha) Trager's method splits each squarefree part g of
    degree >= 2: for the first s = 0, 1, 2, ... with N = Norm(g(x - s alpha))
    squarefree, the factors of g are gcd(g, h(x + s alpha)), h over the
    factors of N over Q.
    """
    L = m.field
    if L.kind != EXTENSION or L.is_finite():
        return [g for g, e in factor(m)[1] for _ in range(e)]
    if m.degree == 1:
        return [m]
    return [f for g, e in _squarefree(m)
            for f in (_trager(g) if g.degree > 1 else [g]) for _ in range(e)]


def _trager(g: Polynomial) -> list[Polynomial]:
    """The monic irreducible factors of a squarefree g over L = Q(alpha)."""
    L, Q = g.field, g.field.base
    s = 0
    while True:
        # g is squarefree, so the companion of g(x - s alpha) flattened to
        # Q-blocks is semisimple: its minimal polynomial is N iff of full degree
        blocks = [[multiplication_matrix(x, Q).rows for x in row]
                  for row in companion_matrix(_shift(g, -L.gen() * s)).rows]
        flat = Matrix(Q, [[y for blk in brow for y in blk[i]]
                          for brow in blocks for i in range(L.step_degree)])
        norm = minpoly_matrix(flat)
        if norm.degree == flat.nrows:
            return [poly_gcd(g, _shift(embed_poly(h, L), L.gen() * s)) for h, _ in factor(norm)[1]]
        s += 1


def _shift(f: Polynomial, c: FieldElement) -> Polynomial:
    """f(x + c), by Horner."""
    acc = Polynomial.zero(f.field)
    for a in reversed(f.coeffs):
        acc = acc * Polynomial(f.field, [c, f.field.one()]) + a
    return acc


def is_irreducible(f: Polynomial) -> bool:
    """Irreducibility over finite fields (powmod criterion) or Q (factor)."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is not irreducible")
    if f.degree == 0:
        return False
    if f.degree == 1:
        return True
    fld = f.field
    if not fld.is_finite() and fld.kind != RATIONALS:
        raise UnsupportedFactorization(f"irreducibility over {fld} is not supported")
    known = _IRREDUCIBLE.get(f)
    if known is None:
        known = _irreducible_uncached(f)
        _remember(_IRREDUCIBLE, f, known)
    return known


def _irreducible_uncached(f: Polynomial) -> bool:
    fld = f.field
    if fld.kind == RATIONALS:
        _, factors = factor(f)
        return len(factors) == 1 and factors[0][1] == 1
    q = fld.order()
    n = f.degree
    x = Polynomial.x(fld)
    h = poly_powmod(x, q ** n, f)
    if not (h - x).is_zero():
        return False
    for t in factor_int(n):
        h = poly_powmod(x, q ** (n // t), f)
        if poly_gcd(h - x, f).degree != 0:
            return False
    return True
