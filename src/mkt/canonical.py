"""Canonical forms of symbol classes over the supported exact fields.

Complete invariants by weight:

- weight 0: the integer coefficient.
- weight 1: the unit value prod a_i^{c_i}.
- finite fields, weight >= 2: the group is trivial, so the class is Zero.
- Q, weight 2: the pair (sign at the real place, tame residues at the odd
  primes). Together these detect every class exactly.
- Q, weight >= 3: the group is order two, detected by the real-place sign.
- real-sign mode: only the real-place sign of a rational expression.
"""

from __future__ import annotations

from mkt.errors import (ArityMismatch, DescriptorMismatch, UnsupportedField)
from mkt.fields import RATIONALS, FieldElement
from mkt.symbols import MilnorExpression
from mkt.valuations import support, tame_symbol

INTEGER = "integer"
UNIT = "unit"
ZERO = "zero"
RATIONAL_PAIR = "rational"
RATIONAL_SIGN = "rational_sign"
REAL_SIGN = "real_sign"


def unit_value(x: MilnorExpression) -> FieldElement:
    """The product prod a^c over the terms of a weight-one expression."""
    if x.weight != 1:
        raise ArityMismatch("unit values come from weight-one expressions")
    acc = x.field.one()
    for entries, c in x.items():
        acc = acc * entries[0] ** c
    return acc


def _real_eps(x: MilnorExpression) -> int:
    """Sign invariant: a term counts iff all entries are negative and the
    coefficient is odd."""
    eps = 1
    for entries, c in x.items():
        if c % 2 == 0:
            continue
        if all(e.sign() < 0 for e in entries):
            eps = -eps
    return eps


def _odd_tame(x: MilnorExpression) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in support(x):
        if v.p == 2:
            continue
        t = tame_symbol(v, x)
        u = unit_value(t)
        if not u.is_one():
            out[v.p] = u.rep
    return out


class CanonicalClass:
    """A decided symbol class: the product of its invariants n, unit, eps and
    tame, each at its identity (0, None, +1, {}) where its kind does not use
    it, so the group law is componentwise; the kind names the group."""

    __slots__ = ("kind", "field", "weight", "n", "unit", "eps", "tame")

    def __init__(self, kind, field, weight, n=0, unit=None, eps=1, tame=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "tame", dict(tame or {}))

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalClass is immutable")

    def is_zero(self) -> bool:
        """Every component is at its identity; unused ones always are."""
        return (self.n == 0 and (self.unit is None or self.unit.is_one())
                and self.eps == 1 and not self.tame)

    def _compat(self, other: "CanonicalClass"):
        if not isinstance(other, CanonicalClass):
            raise DescriptorMismatch("expected a CanonicalClass")
        if (self.kind != other.kind or self.field != other.field
                or self.weight != other.weight):
            raise DescriptorMismatch("classes from different groups")

    def __add__(self, other: "CanonicalClass") -> "CanonicalClass":
        """The componentwise law: n adds, units, signs and residues multiply."""
        self._compat(other)
        unit = None if self.unit is None else self.unit * other.unit
        tame = {p: self.tame.get(p, 1) * other.tame.get(p, 1) % p
                for p in self.tame.keys() | other.tame.keys()}
        return CanonicalClass(self.kind, self.field, self.weight, n=self.n + other.n,
                              unit=unit, eps=self.eps * other.eps,
                              tame={p: r for p, r in tame.items() if r != 1})

    def __neg__(self) -> "CanonicalClass":
        unit = None if self.unit is None else self.unit.inverse()
        tame = {p: pow(r, -1, p) for p, r in self.tame.items()}
        return CanonicalClass(self.kind, self.field, self.weight, n=-self.n,
                              unit=unit, eps=self.eps, tame=tame)

    def __sub__(self, other: "CanonicalClass") -> "CanonicalClass":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CanonicalClass) and self.kind == other.kind
                and self.field == other.field and self.weight == other.weight
                and self.n == other.n and self.unit == other.unit
                and self.eps == other.eps and self.tame == other.tame)

    def __hash__(self):
        return hash((self.kind, self.field, self.weight, self.n, self.unit,
                     self.eps, tuple(sorted(self.tame.items()))))

    def __repr__(self):
        if self.kind == INTEGER:
            return f"K0({self.n})"
        if self.kind == UNIT:
            return f"unit({self.unit})"
        if self.kind == ZERO:
            return "Zero"
        if self.kind == RATIONAL_PAIR:
            body = ", ".join(f"t{p}={r}" for p, r in sorted(self.tame.items()))
            return f"(eps={self.eps:+d}{', ' + body if body else ''})"
        tag = "real" if self.kind == REAL_SIGN else "sign"
        return f"{tag}(eps={self.eps:+d})"


def combine_values(u, v):
    """The group operation on determinant values: classes add, numbers multiply."""
    if isinstance(u, CanonicalClass):
        return u + v
    return u * v


def is_trivial_value(u) -> bool:
    """Whether a determinant value is the identity of its group."""
    if isinstance(u, CanonicalClass):
        return u.is_zero()
    return u == 1


def canonical_class(x: MilnorExpression, real: bool = False) -> CanonicalClass:
    """Decide the class of x in its symbol group.

    With real=True the expression must be rational and only the real-place
    sign is computed (the invariant of the base change to R).
    """
    field = x.field
    w = x.weight
    if real:
        if field.kind != RATIONALS:
            raise UnsupportedField("real-sign classes need a rational expression")
        if w == 0:
            return CanonicalClass(INTEGER, field, 0, n=x.coefficient([]))
        return CanonicalClass(REAL_SIGN, field, w, eps=_real_eps(x))
    if w == 0:
        return CanonicalClass(INTEGER, field, 0, n=x.coefficient([]))
    if w == 1:
        return CanonicalClass(UNIT, field, 1, unit=unit_value(x))
    if field.is_finite():
        return CanonicalClass(ZERO, field, w)
    if field.kind == RATIONALS:
        if w == 2:
            return CanonicalClass(RATIONAL_PAIR, field, 2,
                                  eps=_real_eps(x), tame=_odd_tame(x))
        return CanonicalClass(RATIONAL_SIGN, field, w, eps=_real_eps(x))
    raise UnsupportedField(f"no canonical form over {field} in weight {w}")
