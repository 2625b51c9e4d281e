"""Minimal polynomials, norms, and simple presentations of field towers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from mkt.errors import (DegenerateInput, DescriptorMismatch, UnsupportedTower,
                        ZeroElement)
from mkt.fields import (EXTENSION, FieldDescriptor, FieldElement, Polynomial,
                        all_elements, coordinates, embed, extension,
                        from_coordinates, is_ancestor, poly_of_element, poly_resultant,
                        tower_degree, tower_steps)
from mkt.linalg import Matrix, minpoly_matrix


def tower_basis(L: FieldDescriptor, base: FieldDescriptor) -> list[FieldElement]:
    """Monomial basis of L over base, ordered to match coordinates()."""
    d = tower_degree(L, base)
    zero, one = base.zero(), base.one()
    out = []
    for i in range(d):
        vec = [zero] * d
        vec[i] = one
        out.append(from_coordinates(vec, L, base))
    return out


def multiplication_matrix(x: FieldElement, base: FieldDescriptor) -> Matrix:
    """Matrix of y -> x*y on x's field viewed as a base-vector space."""
    L = x.field
    if L == base:
        return Matrix(base, [[x]])
    basis = tower_basis(L, base)
    cols = [coordinates(x * b, base) for b in basis]
    d = len(basis)
    return Matrix(base, [[cols[j][i] for j in range(d)] for i in range(d)])


def minimal_polynomial(x: FieldElement, base: FieldDescriptor) -> Polynomial:
    """Monic minimal polynomial of a field element over base, which may be
    any field in its tower (linalg.minpoly_matrix takes matrices)."""
    if not isinstance(x, FieldElement):
        raise DescriptorMismatch(f"cannot take a minimal polynomial of {type(x).__name__}")
    L = x.field
    if L == base:
        return Polynomial(base, [-x, base.one()])
    if not is_ancestor(base, L):
        raise DescriptorMismatch(f"{base} is not below {L}")
    return minpoly_matrix(multiplication_matrix(x, base))


def norm_element(x: FieldElement, base: FieldDescriptor) -> FieldElement:
    """Field norm of x down to base, which may be any field in its tower.

    For a step L = k[x]/(m), m monic, N_{L/k}(g(x)) = Res(m, g), so the norm
    is that resultant over k, taken one step at a time down the tower as
    transfers are. No matrix is built; the determinant of multiplication by
    x, multiplication_matrix(x, base).det(), is the same value.
    """
    if x.is_zero():
        raise ZeroElement("norm of zero is not a unit")
    for step in reversed(tower_steps(x.field, base)):
        x = poly_resultant(step.modulus, poly_of_element(x))
    return x


@dataclass(frozen=True)
class SimplePresentation:
    """A tower L/base re-presented as a single extension step.

    to_simple / from_simple are inverse field isomorphisms between L and
    simple_field; when L is already a single step they are identities.
    """

    field: FieldDescriptor
    base: FieldDescriptor
    simple_field: FieldDescriptor
    modulus: Polynomial
    _to: Callable[[FieldElement], FieldElement]
    _from: Callable[[FieldElement], FieldElement]

    def to_simple(self, x: FieldElement) -> FieldElement:
        return self._to(x)

    def from_simple(self, y: FieldElement) -> FieldElement:
        return self._from(y)


def _primitive_candidates(L: FieldDescriptor,
                          base: FieldDescriptor) -> Iterator[FieldElement]:
    # sum of the step generators first (usually primitive), then everything
    acc = L.zero()
    for step in tower_steps(L, base):
        acc = acc + embed(step.gen(), L)
    yield acc
    for e in all_elements(L):
        yield e


def present_as_simple(L: FieldDescriptor, base: FieldDescriptor) -> SimplePresentation:
    """Collapse the tower L/base into one extension step base[x]/(m).

    Height-one towers come back unchanged. Taller towers need a finite base:
    over characteristic zero no primitive-element search is attempted and
    UnsupportedTower is raised.
    """
    if L.kind != EXTENSION:
        raise DegenerateInput(f"{L} is not an extension step")
    steps = tower_steps(L, base)
    if not steps:
        raise DegenerateInput("the tower has height zero")
    if len(steps) == 1:
        ident = lambda x: x
        return SimplePresentation(L, base, L, L.modulus, ident, ident)
    if not L.is_finite():
        raise UnsupportedTower(
            "height >= 2 towers are only collapsed over finite fields")
    d = tower_degree(L, base)
    gamma = None
    modulus = None
    for cand in _primitive_candidates(L, base):
        m = minimal_polynomial(cand, base)
        if m.degree == d:
            gamma, modulus = cand, m
            break
    assert gamma is not None  # finite fields always have a primitive element
    simple = extension(base, modulus)
    pows = []
    cur = L.one()
    for _ in range(d):
        pows.append(coordinates(cur, base))
        cur = cur * gamma
    change = Matrix(base, [[pows[j][i] for j in range(d)] for i in range(d)])
    change_inv = change.inverse()

    def to_simple(x: FieldElement) -> FieldElement:
        if x.field != L:
            raise DescriptorMismatch("element not in the presented tower")
        c = change_inv.apply(coordinates(x, base))
        return from_coordinates(list(c), simple, base)

    def from_simple(y: FieldElement) -> FieldElement:
        if y.field != simple:
            raise DescriptorMismatch("element not in the simple presentation")
        acc = L.zero()
        g = L.one()
        for c in y.rep:
            acc = acc + embed(c, L) * g
            g = g * gamma
        return acc

    return SimplePresentation(L, base, simple, modulus, to_simple, from_simple)
