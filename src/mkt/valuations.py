"""Discrete places and the boundary (tame) map on symbol expressions.

Places covered: the finite places v_pi and the degree place v_inf of a
rational function field k(X), the p-adic places of Q, and the real place
(sign data only; it carries no residue map).

The boundary map needs two things of each entry x = pi^n u: n and the
residue of the unit u. Both come off the trial division that finds n
(`_split_poly`), which divides the `zkernel` values of num or den by pi's,
in the kernel kind of k, with no Polynomial per division: the remainder of
the first division by pi that fails is (f / pi^n) mod pi, and its values are
read straight into the residue field (`fields.element_from_values`: over a
tabled residue field one table index). A denominator of 1 (the denominator
is monic) needs no division at all. At the infinite place they are
deg den - deg num and lc(num); at a prime p they come off the integer
quotients. So `tame_symbol` builds no unit; `unit_part` does, from the same
divisions' quotients, for callers that want u itself.
"""

from __future__ import annotations

from fractions import Fraction

from mkt.errors import (ArityMismatch, BadModulus, DegenerateInput,
                        DescriptorMismatch, UnsupportedField, ZeroInput)
from mkt.factor import factor, is_irreducible
from mkt import zkernel
from mkt.fields import (FUNCTION, RATIONALS, FieldDescriptor, FieldElement,
                        Polynomial, RationalFunction, element_from_values,
                        extension, kernel_elements, kernel_kind, kernel_values,
                        prime_field, rationals)
from mkt.numutil import PROVEN_PRIME_BOUND, factor_int, is_prime, split_rational
from mkt.symbols import MilnorExpression

FINITE = "finite"
INFINITE = "infinite"
PRIME_PLACE = "prime"
REAL = "real"


class Valuation:
    """A place of k(X) or Q, with exact residue arithmetic."""

    __slots__ = ("kind", "field", "pi", "p", "_residue_field", "_pi_values")

    def __init__(self, kind, field, pi=None, p=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_residue_field", None)
        # pi's coefficients in the kernel kind of k, the divisor of _split_poly
        object.__setattr__(self, "_pi_values", None if pi is None else
                           kernel_values(kernel_kind(pi.field), pi.coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Valuation is immutable")

    def residue_field(self) -> FieldDescriptor:
        cached = self._residue_field
        if cached is None:
            if self.kind == FINITE:
                k = self.field.base
                cached = k if self.pi.degree == 1 else extension(k, self.pi)
            elif self.kind == INFINITE:
                cached = self.field.base
            elif self.kind == PRIME_PLACE:
                cached = prime_field(self.p)
            else:
                raise UnsupportedField("the real place has no residue field")
            object.__setattr__(self, "_residue_field", cached)
        return cached

    def __eq__(self, other):
        return (isinstance(other, Valuation) and self.kind == other.kind
                and self.field == other.field and self.pi == other.pi
                and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.field, self.pi, self.p))

    def __repr__(self):
        if self.kind == FINITE:
            return f"v({self.pi})"
        if self.kind == INFINITE:
            return "v(inf)"
        if self.kind == PRIME_PLACE:
            return f"v({self.p})"
        return "v(real)"


def finite_place(ff: FieldDescriptor, pi: Polynomial) -> Valuation:
    """The place of k(X) at a monic irreducible pi over k."""
    if ff.kind != FUNCTION:
        raise UnsupportedField("finite places live over a rational function field")
    if pi.field != ff.base:
        raise DescriptorMismatch("uniformizer over the wrong coefficient field")
    if not pi.is_monic() or pi.degree < 1 or not is_irreducible(pi):
        raise DegenerateInput("the uniformizer must be monic irreducible")
    return Valuation(FINITE, ff, pi=pi)


def infinite_place(ff: FieldDescriptor) -> Valuation:
    """The degree place of k(X): v(f) = deg den - deg num."""
    if ff.kind != FUNCTION:
        raise UnsupportedField("the infinite place lives over a rational function field")
    return Valuation(INFINITE, ff)


def rational_prime(p: int) -> Valuation:
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise BadModulus(f"{p} is not prime")
    return Valuation(PRIME_PLACE, rationals(), p=p)


def real_place() -> Valuation:
    return Valuation(REAL, rationals())


def _check_value(v: Valuation, x: FieldElement):
    if not isinstance(x, FieldElement) or x.field != v.field:
        raise DescriptorMismatch(f"value not in the valued field {v.field}")
    if x.is_zero():
        raise ZeroInput("zero has no valuation")


def _split_poly(f: list, pi: list, kind) -> tuple[int, list, list]:
    """(n, f / pi^n, (f / pi^n) mod pi) for f != 0, pi^n the highest power
    of pi dividing f, all as kernel values of kind.

    The residue is the remainder of the first division that fails, or f / pi^n
    itself once its degree is below deg pi.
    """
    n = 0
    while len(f) >= len(pi):
        q, r = zkernel.zp_divmod(f, pi, kind)
        if r:
            return n, f, r
        f = q
        n += 1
    return n, f, f


def valuate(v: Valuation, x: FieldElement) -> int:
    """The (normalized, surjective onto Z) valuation of a nonzero element."""
    return unit_part(v, x)[0]


def unit_part(v: Valuation, x: FieldElement) -> tuple[int, FieldElement]:
    """Split x = pi^n * u with u a v-unit; returns (n, u)."""
    if v.kind == REAL:
        raise UnsupportedField("the real place is not discrete")
    _check_value(v, x)
    if v.kind == FINITE:
        rf, k = x.rep, v.field.base
        kind = kernel_kind(k)
        a, num, _ = _split_poly(kernel_values(kind, rf.num.coeffs), v._pi_values, kind)
        b, den, _ = _split_poly(kernel_values(kind, rf.den.coeffs), v._pi_values, kind)
        return a - b, v.field.element(RationalFunction(
            Polynomial(k, kernel_elements(k, num, kind)),
            Polynomial(k, kernel_elements(k, den, kind))))
    if v.kind == INFINITE:
        rf = x.rep
        n = rf.den.degree - rf.num.degree
        k = v.field.base
        xpow = Polynomial.x(k) ** abs(n)
        if n >= 0:
            u = RationalFunction(rf.num * xpow, rf.den)
        else:
            u = RationalFunction(rf.num, rf.den * xpow)
        return n, v.field.element(u)
    n, num, den = split_rational(x.rep, v.p)
    return n, rationals().element(Fraction(num, den))


def _read_residue(k: FieldDescriptor, kv: FieldDescriptor, r: list, kind) -> FieldElement:
    """The element of the residue field kv of a place of k(X) whose
    coefficients over k are the kernel values r of kind; kv is k itself at a
    place of degree one."""
    return kernel_elements(k, r, kind)[0] if kv is k else element_from_values(kv, r)


def _residue_split(v: Valuation, kv: FieldDescriptor, x: FieldElement
                   ) -> tuple[int, FieldElement]:
    """(n, residue of u in kv) for x = pi^n * u, read off the divisions that
    find n: no unit is built."""
    rf = x.rep
    if v.kind == FINITE:
        k, pi = v.field.base, v._pi_values
        kind = kernel_kind(k)
        a, _, r = _split_poly(kernel_values(kind, rf.num.coeffs), pi, kind)
        res = _read_residue(k, kv, r, kind)
        if rf.den.degree == 0:  # den is monic, so it is 1
            return a, res
        b, _, s = _split_poly(kernel_values(kind, rf.den.coeffs), pi, kind)
        return a - b, res / _read_residue(k, kv, s, kind)
    if v.kind == INFINITE:
        # u = x * X^n with n = deg den - deg num; den is monic
        return rf.den.degree - rf.num.degree, rf.num.lc()
    n, num, den = split_rational(rf, v.p)
    return n, kv.from_int(num) / kv.from_int(den)


def tame_symbol(v: Valuation, x: MilnorExpression) -> MilnorExpression:
    """Boundary map at v: weight l over the valued field to weight l-1 over
    the residue field.

    Each entry is split as pi^n * u and the symbol is expanded multilinearly
    in the pi-versus-unit choice. A subset S of pi-positions contributes the
    product of their exponents; repeated pi entries collapse to -1 (such
    symbols are 2-torsion, so the in-place replacement is exact), the
    surviving pi is moved to the last slot with the usual sign, and the
    boundary then strips it, leaving the residues of the unit parts.

    A term with an entry equal to one vanishes, so only the subsets S whose
    other entries all differ from one are visited: S holds every pi-position
    of residue one, no entry of valuation zero has residue one, and when
    -1 = 1, S has one element. The rest of S ranges over the free
    pi-positions, those of residue other than one, in the order of the
    subsets' bit masks.
    """
    if x.weight < 1:
        raise ArityMismatch("the boundary map needs weight >= 1")
    if v.kind == REAL:
        raise UnsupportedField("the real place has no boundary map")
    if x.field != v.field:
        raise DescriptorMismatch("expression not over the valued field")
    kv = v.residue_field()
    minus1 = kv.minus_one()
    acc: dict[tuple, int] = {}
    for entries, coeff in x.items():
        m = len(entries)
        vals, residues, forced, free = [], [], [], []
        for i, e in enumerate(entries):
            n, res = _residue_split(v, kv, e)
            if n:
                (forced if res.is_one() else free).append(i)
            elif res.is_one():
                break  # this entry is one in every term of the expansion
            vals.append(n)
            residues.append(res)
        else:
            if not minus1.is_one():
                subsets = (forced + [free[b] for b in range(len(free)) if mask >> b & 1]
                           for mask in range(0 if forced else 1, 1 << len(free)))
            elif forced:  # -1 = 1 kills every subset of two or more
                subsets = [forced] if len(forced) == 1 else []
            else:
                subsets = [[i] for i in free]
            for subset in subsets:
                chosen = set(subset)
                j0 = min(chosen)
                mult = coeff
                for i in subset:
                    mult *= vals[i]
                if (m - 1 - j0) % 2:
                    mult = -mult
                key = tuple([minus1 if i in chosen else residues[i]
                             for i in range(m) if i != j0])
                acc[key] = acc.get(key, 0) + mult
    return MilnorExpression._trusted(kv, x.weight - 1, acc)


def support(x: MilnorExpression) -> list[Valuation]:
    """Places that can see x: where some entry is a non-unit.

    Over k(X) the infinite place is always included (it is the one place
    with no uniformizer among the entries' irreducible factors). Over Q the
    list is every prime dividing some entry, 2 included; BadModulus is
    raised for one at or above PROVEN_PRIME_BOUND, where is_prime, and so
    factor_int, is only probable.
    """
    field = x.field
    if field.kind == FUNCTION:
        pis: set[Polynomial] = set()
        for entries, _ in x.items():
            for e in entries:
                rf = e.rep
                for poly in (rf.num, rf.den):
                    if poly.degree >= 1:
                        for g, _m in factor(poly)[1]:
                            pis.add(g)
        # factor has proven each pi monic irreducible: no check from finite_place
        places = [Valuation(FINITE, field, pi=pi)
                  for pi in sorted(pis, key=Polynomial.coeff_key)]
        places.append(infinite_place(field))
        return places
    if field.kind == RATIONALS:
        primes: set[int] = set()
        for entries, _ in x.items():
            for e in entries:
                q = e.rep
                primes.update(factor_int(abs(q.numerator)))
                primes.update(factor_int(q.denominator))
        primes = sorted(primes)
        if primes and primes[-1] >= PROVEN_PRIME_BOUND:
            raise BadModulus(f"support prime {primes[-1]} is not below "
                             f"{PROVEN_PRIME_BOUND}, so its primality is not proven")
        # below the bound factor_int's primes pass is_prime: no check from
        # rational_prime
        return [Valuation(PRIME_PLACE, field, p=p) for p in primes]
    raise UnsupportedField(f"no place structure over {field}")
