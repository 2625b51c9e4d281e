"""Formal integer combinations of symbols over a fixed field.

A weight-l symbol is a tuple of l nonzero field elements written {a_1,...,a_l};
an expression is a finite Z-linear combination of symbols of one common
weight. Expressions are purely syntactic: no relation is applied unless an
operator (boundary, rewriting) does so explicitly.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from mkt.errors import (ArityMismatch, DegenerateDifferences, DegenerateInput,
                        DescriptorMismatch, ZeroEntry)
from mkt.fields import FieldDescriptor, FieldElement


def _check_entries(field: FieldDescriptor, entries: Sequence) -> tuple:
    out = []
    for e in entries:
        if isinstance(e, int):
            e = field.from_int(e)
        if not isinstance(e, FieldElement) or e.field != field:
            raise DescriptorMismatch("symbol entries must share the expression field")
        if e.is_zero():
            raise ZeroEntry("symbol entries must be nonzero")
        out.append(e)
    return tuple(out)


class MilnorExpression:
    """Z-linear combination of weight-l symbols over one field."""

    __slots__ = ("field", "weight", "_terms", "_sorted")

    def __init__(self, field: FieldDescriptor, weight: int,
                 terms: Mapping[tuple, int] | None = None):
        if weight < 0:
            raise ArityMismatch("weight must be nonnegative")
        clean: dict[tuple, int] = {}
        for entries, c in (terms or {}).items():
            if not isinstance(c, int):
                raise DegenerateInput("coefficients must be integers")
            if c == 0:
                continue
            if len(entries) != weight:
                raise ArityMismatch("mixed weights in one expression")
            key = _check_entries(field, entries)
            clean[key] = clean.get(key, 0) + c
            if clean[key] == 0:
                del clean[key]
        self._fill(field, weight, clean)

    @classmethod
    def _trusted(cls, field: FieldDescriptor, weight: int,
                 terms: dict[tuple, int]) -> "MilnorExpression":
        """An expression whose keys are entries of checked expressions over
        field, of length weight; only the zero coefficients are dropped."""
        x = object.__new__(cls)
        x._fill(field, weight, {k: c for k, c in terms.items() if c})
        return x

    def _fill(self, field: FieldDescriptor, weight: int, terms: dict) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, name, value):
        raise AttributeError("MilnorExpression is immutable")

    def items(self) -> list[tuple[tuple, int]]:
        """Terms as (entries, coefficient), canonically ordered."""
        cached = self._sorted
        if cached is None:
            cached = sorted(self._terms.items(),
                            key=lambda kv: [e.key() for e in kv[0]])
            object.__setattr__(self, "_sorted", cached)
        return list(cached)

    def __iter__(self):
        return iter(self.items())

    def coefficient(self, entries: Sequence) -> int:
        return self._terms.get(_check_entries(self.field, entries), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def _binop(self, other: "MilnorExpression", flip: bool) -> "MilnorExpression":
        if not isinstance(other, MilnorExpression):
            raise DescriptorMismatch("expected a MilnorExpression")
        if other.field != self.field:
            raise DescriptorMismatch("expressions over different fields")
        if other.weight != self.weight:
            raise ArityMismatch("expressions of different weights")
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0) + (-c if flip else c)
        return MilnorExpression._trusted(self.field, self.weight, acc)

    def __add__(self, other):
        return self._binop(other, flip=False)

    def __sub__(self, other):
        return self._binop(other, flip=True)

    def __neg__(self):
        return MilnorExpression._trusted(self.field, self.weight,
                                         {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MilnorExpression._trusted(self.field, self.weight,
                                             {k: c * other for k, c in self._terms.items()})
        if isinstance(other, MilnorExpression):
            if other.field != self.field:
                raise DescriptorMismatch("expressions over different fields")
            acc: dict[tuple, int] = {}
            for k1, c1 in self._terms.items():
                for k2, c2 in other._terms.items():
                    key = k1 + k2
                    acc[key] = acc.get(key, 0) + c1 * c2
            return MilnorExpression._trusted(self.field, self.weight + other.weight, acc)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def map_entries(self, fn: Callable[[FieldElement], FieldElement],
                    field: FieldDescriptor | None = None) -> "MilnorExpression":
        """Apply a field map entrywise (embeddings, isomorphisms)."""
        target = field or self.field
        acc: dict[tuple, int] = {}
        for k, c in self._terms.items():
            key = tuple(fn(e) for e in k)
            acc[key] = acc.get(key, 0) + c
        return MilnorExpression(target, self.weight, acc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MilnorExpression) and self.field == other.field
                and self.weight == other.weight and self._terms == other._terms)

    def __hash__(self):
        return hash((self.field, self.weight, tuple(self.items())))

    def __repr__(self):
        if not self._terms:
            return f"0<w{self.weight}>"
        parts = []
        for entries, c in self.items():
            body = "{" + ", ".join(str(e) for e in entries) + "}"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def symbol(entries: Sequence, field: FieldDescriptor | None = None) -> MilnorExpression:
    """The single symbol {a_1,...,a_l} with coefficient one."""
    entries = list(entries)
    if field is None:
        for e in entries:
            if isinstance(e, FieldElement):
                field = e.field
                break
        if field is None:
            raise DegenerateInput("cannot infer the field; pass it explicitly")
    return MilnorExpression(field, len(entries), {tuple(entries): 1})


def zero_expression(field: FieldDescriptor, weight: int) -> MilnorExpression:
    return MilnorExpression(field, weight, {})


def cyclic_difference_identity(points: Sequence[FieldElement]
                               ) -> tuple[MilnorExpression, MilnorExpression]:
    """Both sides of the cyclic difference identity on l+1 points.

    For pairwise distinct x_0,...,x_l the signed sum of the difference
    symbols {x_{i+1}-x_i, ..., x_{i+l}-x_i} (indices cyclic) equals
    {-1,...,-1}. Returns (left side, right side); the equality holds at the
    level of symbol classes, not termwise.
    """
    pts = list(points)
    if len(pts) < 2:
        raise DegenerateInput("need at least two points")
    field = pts[0].field
    weight = len(pts) - 1
    m = len(pts)
    lhs = zero_expression(field, weight)
    for i in range(m):
        entries = []
        for s in range(1, m):
            d = pts[(i + s) % m] - pts[i]
            if d.is_zero():
                raise DegenerateDifferences("coincident points")
            entries.append(d)
        sign = -1 if (weight * (i + 1)) % 2 else 1
        lhs = lhs + symbol(entries, field) * sign
    rhs = symbol([field.minus_one()] * weight, field)
    return lhs, rhs


def symbol_shift_identity(c: FieldElement, d: FieldElement, variant: str = "difference"
                          ) -> tuple[MilnorExpression, MilnorExpression]:
    """A two-entry symbol rewritten through one of two difference forms.

    variant "difference": {c,d} = {c/d, d-c} + {-1, d}, needs d != c.
    variant "sum":        {c,d} = {-c/d, d+c},          needs d != -c.
    Returns (left side, right side); equal as symbol classes.
    """
    if c.is_zero() or d.is_zero():
        raise ZeroEntry("symbol entries must be nonzero")
    field = c.field
    lhs = symbol([c, d], field)
    if variant == "difference":
        if (d - c).is_zero():
            raise DegenerateInput("difference variant needs d != c")
        rhs = symbol([c / d, d - c], field) + symbol([field.minus_one(), d], field)
    elif variant == "sum":
        if (d + c).is_zero():
            raise DegenerateInput("sum variant needs d != -c")
        rhs = symbol([-(c / d), d + c], field)
    else:
        raise ValueError(f"unknown variant: {variant!r}")
    return lhs, rhs
