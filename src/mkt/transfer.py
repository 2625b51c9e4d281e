"""Transfers (norms) of symbol expressions along finite field extensions.

The route: an expression over a simple extension k_v = k[x]/(pi_v) is first
rewritten into combinations {a_1,...,a_s, f_1(alpha),...,f_r(alpha)} with
the a_i constants from k and the f_i monic irreducible over k of strictly
increasing degrees below deg pi_v. Those generator forms are then pushed
down to k, by a route the form alone picks: constants-only forms scale by
the extension degree, single-poly forms take the norm of the polynomial,
the resultant Res(pi_v, f) (projection formula), and forms with two or more polys run the reciprocity
recursion over the places of k(X), which strictly decreases degrees and so
terminates. The recursion is also correct on single-poly forms; the tests
check the norm route against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from mkt.canonical import canonical_class
from mkt.errors import (ArityMismatch, DescriptorMismatch, RecursionInvariantViolated,
                        UnsupportedField, UnsupportedTower)
from mkt.factor import factor
from mkt.fields import (EXTENSION, FUNCTION, FieldDescriptor, element_from_poly,
                        embed, function_field, is_ancestor, poly_of_element,
                        poly_resultant, tower_steps)
from mkt.symbols import MilnorExpression, symbol, zero_expression
from mkt.valuations import (INFINITE, Valuation, finite_place, infinite_place,
                            support, tame_symbol)

CONST = "c"
POLY = "p"


@dataclass(frozen=True)
class ResidueSymbolForm:
    """One generator form {a_1,...,a_s, f_1(alpha),...,f_r(alpha)}.

    constants: elements of the base field k, none equal to one.
    polys: monic irreducible over k, strictly increasing degrees.
    """

    coeff: int
    constants: tuple
    polys: tuple

    @property
    def rank(self) -> int:
        return len(self.polys)


def _entry_items(g) -> list[tuple]:
    """Multilinear expansion choices for the entry g(alpha) of kv = k[x]/(m),
    g a nonzero polynomial over k of degree below deg m.

    Returns (tag, payload, exponent) triples; an empty list means the entry
    is one and the whole term dies. Items with value one never appear.
    """
    if g.degree <= 0:
        a = g.constant_term()
        return [] if a.is_one() else [(CONST, a, 1)]
    unit, parts = factor(g)
    items: list[tuple] = [] if unit.is_one() else [(CONST, unit, 1)]
    # deg f < deg m, so f(alpha) is neither 0 nor 1
    items += [(POLY, f, m) for f, m in parts]
    return items


def _tag_key(tagged: tuple):
    tag, payload = tagged
    if tag == CONST:
        return (0, payload.key())
    return (1, payload.coeff_key())


def _sorted_with_sign(entries: tuple) -> tuple[tuple, int]:
    order = sorted(range(len(entries)), key=lambda i: _tag_key(entries[i]))
    inv = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                inv += 1
    out = tuple(entries[i] for i in order)
    return out, (-1 if inv % 2 else 1)


def rewrite_to_generators(x: MilnorExpression) -> list[ResidueSymbolForm]:
    """Rewrite an expression over a simple extension into generator forms.

    Each output form has constant entries first and polynomial entries of
    strictly increasing degrees after; the rewriting only uses relations
    that hold for symbol classes, so the sum of the forms equals x.
    """
    kv = x.field
    if kv.kind != EXTENSION:
        raise UnsupportedField("generator forms need a simple extension field")
    k = kv.base
    minus1 = k.minus_one()
    minus1_dead = minus1.is_one()  # characteristic two
    work: list[tuple[int, tuple]] = []
    for entries, c in x.items():
        lists = [_entry_items(poly_of_element(e)) for e in entries]
        if any(not lst for lst in lists):
            continue
        stack = [(c, ())]
        for lst in lists:
            stack = [(cf * exp, chosen + ((tag, payload),))
                     for cf, chosen in stack
                     for tag, payload, exp in lst]
        work.extend(stack)

    acc: dict[tuple, int] = {}
    while work:
        coeff, entries = work.pop()
        entries, sign = _sorted_with_sign(entries)
        coeff *= sign
        offender = None
        for i in range(len(entries) - 1):
            t1, p1 = entries[i]
            t2, p2 = entries[i + 1]
            if t1 == POLY and t2 == POLY and p1.degree == p2.degree:
                offender = i
                break
        if offender is None:
            consts = tuple(p for t, p in entries if t == CONST)
            polys = tuple(p for t, p in entries if t == POLY)
            key = (consts, polys)
            acc[key] = acc.get(key, 0) + coeff
            continue
        i = offender
        f, g = entries[i][1], entries[i + 1][1]
        rest_before, rest_after = entries[:i], entries[i + 2:]
        if f == g:
            # {f, f} = {-1, f}; in characteristic two that is {1, f} = 0
            if not minus1_dead:
                work.append((coeff,
                             rest_before + ((CONST, minus1), (POLY, f)) + rest_after))
            continue
        # {f, g} = {h, g} - {h, f} + {-1, f} with h = f - g (degree drops)
        for tag, payload, exp in _entry_items(f - g):
            work.append((coeff * exp,
                         rest_before + ((tag, payload), (POLY, g)) + rest_after))
            work.append((-coeff * exp,
                         rest_before + ((tag, payload), (POLY, f)) + rest_after))
        if not minus1_dead:
            work.append((coeff,
                         rest_before + ((CONST, minus1), (POLY, f)) + rest_after))

    forms = [ResidueSymbolForm(c, consts, polys)
             for (consts, polys), c in acc.items() if c]
    forms.sort(key=lambda fm: (len(fm.polys),
                               [f.coeff_key() for f in fm.polys],
                               [a.key() for a in fm.constants]))
    return forms


def _form_transfer(v: Valuation, form: ResidueSymbolForm) -> MilnorExpression:
    k = v.field.base
    d = v.pi.degree
    weight = len(form.constants) + len(form.polys)
    if form.rank == 0:
        if weight == 0:
            return MilnorExpression(k, 0, {(): form.coeff * d})
        return symbol(form.constants, k) * (form.coeff * d)
    if form.rank == 1:
        # the norm of f(alpha) from k[x]/(pi_v) down to k, straight from f
        nb = poly_resultant(v.pi, form.polys[0])
        if nb.is_one():
            return zero_expression(k, weight)
        return symbol((*form.constants, nb), k) * form.coeff
    return _reciprocity_transfer(v, form)


def _reciprocity_transfer(v: Valuation, form: ResidueSymbolForm) -> MilnorExpression:
    """Push one generator form down to k through the places of k(X)."""
    ff = v.field
    k = ff.base
    kv = v.residue_field()
    entries = [embed(a, ff) for a in form.constants]
    entries += [ff.element(f) for f in form.polys]
    entries.append(ff.element(v.pi))
    y = symbol(entries, ff)
    expected = symbol([embed(a, kv) for a in form.constants]
                      + [element_from_poly(kv, f) for f in form.polys], kv)
    if tame_symbol(v, y) != expected:
        raise RecursionInvariantViolated("the lift does not reduce to its form")
    weight = expected.weight
    acc = zero_expression(k, weight)
    for f in form.polys:
        w = finite_place(ff, f)
        t = tame_symbol(w, y)
        if t.is_zero():
            continue
        if f.degree >= v.pi.degree:
            raise RecursionInvariantViolated("generator degree failed to decrease")
        acc = acc + transfer(w, t)
    acc = acc + tame_symbol(infinite_place(ff), y)
    return (-acc) * form.coeff


def transfer(v: Valuation, x: MilnorExpression) -> MilnorExpression:
    """Norm map along the residue extension of a finite place.

    x lives over the residue field of v; the result lives over the
    coefficient field k. Weight is preserved; degree-one places give the
    identity.
    """
    if v.kind != "finite":
        raise UnsupportedField("transfers go along finite places")
    kv = v.residue_field()
    if x.field != kv:
        raise DescriptorMismatch("expression not over the residue field")
    if v.pi.degree == 1:
        return x
    k = v.field.base
    if x.weight == 0:
        return MilnorExpression(k, 0, {(): x.coefficient([]) * v.pi.degree})
    out = zero_expression(k, x.weight)
    for form in rewrite_to_generators(x):
        out = out + _form_transfer(v, form)
    return out


def transfer_ext(E: FieldDescriptor, x: MilnorExpression) -> MilnorExpression:
    """Transfer along a single extension step E = k[x]/(m) down to k."""
    if E.kind != EXTENSION:
        raise UnsupportedField("transfer_ext needs an extension field")
    if x.field != E:
        raise DescriptorMismatch("expression not over the named field")
    if E.modulus.degree == 1:
        # degree-one step: the norm is evaluation at the root of the modulus
        root = -E.modulus.coeffs[0]
        return x.map_entries(lambda e: poly_of_element(e).evaluate(root), E.base)
    ff = function_field(E.base)
    return transfer(finite_place(ff, E.modulus), x)


def transfer_tower(x: MilnorExpression, base: FieldDescriptor) -> MilnorExpression:
    """Transfer from a tower top all the way down to base.

    Transfers are functorial, so this is the composite of the one-step
    transfers down the tower. A step over an extension of Q would factor
    over a number field, so towers of height >= 2 over Q are refused.
    """
    L = x.field
    if not is_ancestor(base, L):
        raise DescriptorMismatch(f"{base} is not below {L}")
    if not L.is_finite() and len(tower_steps(L, base)) > 1:
        raise UnsupportedTower("height >= 2 towers over Q are out of scope")
    while x.field != base:
        x = transfer_ext(x.field, x)
    return x


def base_change(x: MilnorExpression, L: FieldDescriptor) -> MilnorExpression:
    """Entrywise inclusion of an expression into an overfield."""
    if not is_ancestor(x.field, L):
        raise DescriptorMismatch(f"{x.field} is not below {L}")
    return x.map_entries(lambda e: embed(e, L), L)


def reciprocity_check(w: MilnorExpression):
    """Sum of transferred boundaries over every place of k(X).

    Returns (canonical class of the sum, per-place rows). The class is zero
    exactly when reciprocity holds for w; rows carry (place, boundary,
    transferred boundary) for reporting.
    """
    ff = w.field
    if ff.kind != FUNCTION:
        raise UnsupportedField("reciprocity runs over a rational function field")
    if w.weight < 1:
        raise ArityMismatch("reciprocity needs weight >= 1")
    k = ff.base
    total = zero_expression(k, w.weight - 1)
    rows = []
    for v in support(w):
        t = tame_symbol(v, w)
        n = t if v.kind == INFINITE else transfer(v, t)
        total = total + n
        rows.append((v, t, n))
    return canonical_class(total), rows
