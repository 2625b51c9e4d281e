"""Transfers (norms) of symbol expressions along finite field extensions.

The transfer from k_v = k[x]/(pi_v) down to k is Bass and Tate's: if y over
k(X) has boundary x at the place v, Weil reciprocity gives
N_v(x) = -(sum over finite w != v of N_w(d_w y)) - d_inf y, for any such
lift y. `transfer` pushes each term c{g_1(alpha),...,g_l(alpha)} of x down
on its own, the g_i of degree below deg pi_v, by a route the number of
non-constant g_i picks: with none, the term is c deg pi_v {g_1,...,g_l}
over k; with one, that entry becomes Res(pi_v, g_i), its norm (the
projection formula); with two or more, the term lifts to
y = {g_1,...,g_l, pi_v} and the reciprocity sum runs over the places of the
irreducible factors of the g_i, all of degree below deg pi_v, so the
recursion terminates.
"""

from __future__ import annotations

from mkt.canonical import canonical_class
from mkt.errors import (ArityMismatch, DescriptorMismatch, RecursionInvariantViolated,
                        UnsupportedField)
from mkt.factor import factor
from mkt.fields import (EXTENSION, FUNCTION, FieldDescriptor, Polynomial, embed,
                        function_field, is_ancestor, poly_of_element,
                        poly_resultant, tower_steps)
from mkt.symbols import MilnorExpression, combination, symbol, zero_expression
from mkt.valuations import (FINITE, INFINITE, Valuation, infinite_place, support,
                            tame_symbol)


def _term_transfer(v: Valuation, entries: tuple, c: int) -> MilnorExpression:
    """The transfer of c{entries} from the residue field of v down to k; no
    entry is one."""
    k = v.field.base
    d = v.pi.degree
    gs = [poly_of_element(e) for e in entries]
    moving = [i for i, g in enumerate(gs) if g.degree >= 1]
    if len(moving) < 2:
        consts = [g.constant_term() for g in gs]
        if not moving:
            return symbol(consts, k) * (c * d)
        i = moving[0]
        consts[i] = poly_resultant(v.pi, gs[i])
        if consts[i].is_one():
            return zero_expression(k, len(gs))
        return symbol(consts, k) * c
    ff = v.field
    y = symbol([ff.element(g) for g in gs] + [ff.element(v.pi)], ff)
    if tame_symbol(v, y) != symbol(entries, v.residue_field()):
        raise RecursionInvariantViolated("the lift does not reduce to its term")
    places = {f for i in moving for f, _ in factor(gs[i])[1]}
    parts = []
    for f in sorted(places, key=Polynomial.coeff_key):
        # factor has proven f monic irreducible: no check from finite_place
        w = Valuation(FINITE, ff, pi=f)
        t = tame_symbol(w, y)
        if t.is_zero():
            continue
        if f.degree >= d:
            raise RecursionInvariantViolated("place degree failed to decrease")
        parts.append((transfer(w, t), -c))
    parts.append((tame_symbol(infinite_place(ff), y), -c))
    return combination(k, len(gs), parts)


def transfer(v: Valuation, x: MilnorExpression) -> MilnorExpression:
    """Norm map along the residue extension of a finite place.

    x lives over the residue field of v; the result lives over the
    coefficient field k. Weight is preserved; degree-one places give the
    identity.
    """
    if v.kind != FINITE:
        raise UnsupportedField("transfers go along finite places")
    kv = v.residue_field()
    if x.field != kv:
        raise DescriptorMismatch("expression not over the residue field")
    if v.pi.degree == 1:
        return x
    return combination(v.field.base, x.weight,
                       [(_term_transfer(v, entries, c), 1) for entries, c in x.items()
                        if not any(e.is_one() for e in entries)])


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
    # extension() has proven the modulus irreducible: no check from finite_place
    return transfer(Valuation(FINITE, function_field(E.base), pi=E.modulus), x)


def transfer_tower(x: MilnorExpression, base: FieldDescriptor) -> MilnorExpression:
    """Transfer from a tower top all the way down to base.

    Transfers are functorial, so this is the composite of the one-step
    transfers down the tower.
    """
    for E in reversed(tower_steps(x.field, base)):
        x = transfer_ext(E, x)
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
    rows = []
    for v in support(w):
        t = tame_symbol(v, w)
        rows.append((v, t, t if v.kind == INFINITE else transfer(v, t)))
    return canonical_class(combination(ff.base, w.weight - 1,
                                       [(n, 1) for _, _, n in rows])), rows
