"""Seeded random generators for elements, polynomials, symbols and tuples.

Everything here is a pure function of the supplied random.Random instance,
so test runs and CLI reports are reproducible from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DegenerateInput
from .factor import is_irreducible
from .fields import (EXTENSION, PRIME, RATIONALS, FieldDescriptor, FieldElement,
                     Polynomial)
from .linalg import Matrix, companion_matrix, jordan_block
from .commuting import MatrixTuple
from .symbols import MilnorExpression, combination, symbol

__all__ = [
    "random_element", "random_unit", "monic_irreducible",
    "random_symbol", "invertible_matrix", "commuting_tuple",
]


def random_element(field: FieldDescriptor, rng: random.Random, span: int = 9) -> FieldElement:
    if field.kind == RATIONALS:
        return field.element(Fraction(rng.randint(-span, span), rng.randint(1, span)))
    if field.kind == PRIME:
        return field.from_int(rng.randrange(field.p))
    if field.kind == EXTENSION:
        return field.element(tuple(random_element(field.base, rng, span)
                                   for _ in range(field.step_degree)))
    raise DegenerateInput(f"no sampler for {field}")


def random_unit(field: FieldDescriptor, rng: random.Random, span: int = 9) -> FieldElement:
    while True:
        x = random_element(field, rng, span)
        if not x.is_zero():
            return x


def monic_irreducible(field: FieldDescriptor, rng: random.Random, degree: int,
                      span: int = 9) -> Polynomial:
    """A uniform-ish random monic irreducible of the exact degree given."""
    if degree < 1:
        raise DegenerateInput("degree must be positive")
    while True:
        coeffs = [random_element(field, rng, span) for _ in range(degree)]
        coeffs.append(field.one())
        f = Polynomial(field, coeffs)
        if is_irreducible(f):
            return f


def random_symbol(field: FieldDescriptor, rng: random.Random, weight: int,
                  terms: int = 1, span: int = 9) -> MilnorExpression:
    parts = []
    for _ in range(terms):
        entries = [random_unit(field, rng, span) for _ in range(weight)]
        parts.append((symbol(entries, field=field), rng.choice([1, 1, 2, -1])))
    return combination(field, weight, parts)


def invertible_matrix(field: FieldDescriptor, rng: random.Random, n: int,
                      span: int = 5) -> Matrix:
    while True:
        m = Matrix(field, [[random_element(field, rng, span) for _ in range(n)]
                           for _ in range(n)])
        if not m.det().is_zero():
            return m


def commuting_tuple(field: FieldDescriptor, rng: random.Random, weight: int,
                    size: int, span: int = 5) -> MatrixTuple:
    """A random weight-l commuting invertible tuple of the given size.

    Built blockwise: every slot shares one block partition; a block carries
    either upper-triangular a*I + c*N slots (eigenvalues in the ground field)
    or slots that are polynomials in one companion matrix of a random
    irreducible quadratic (an extension-scalar factor). The whole tuple is
    conjugated by a random invertible matrix.
    """
    if weight < 1 or size < 1:
        raise DegenerateInput("weight and size must be positive")
    blocks: list[list[Matrix]] = []   # blocks[b][slot]
    remaining = size
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.35:
            b = 2
            pi = monic_irreducible(field, rng, 2, span=3)
            comp = companion_matrix(pi)
            ident = Matrix.identity(field, b)
            slots = []
            for _ in range(weight):
                while True:
                    g0 = random_element(field, rng, span)
                    g1 = random_element(field, rng, span)
                    m = ident * g0 + comp * g1
                    if not m.det().is_zero():
                        slots.append(m)
                        break
        else:
            b = rng.randint(1, min(3, remaining))
            n_shift = jordan_block(field, 0, b)
            ident = Matrix.identity(field, b)
            slots = [ident * random_unit(field, rng, span) +
                     n_shift * random_element(field, rng, span)
                     for _ in range(weight)]
        blocks.append(slots)
        remaining -= b
    mats = []
    for s in range(weight):
        m = blocks[0][s]
        for blk in blocks[1:]:
            m = m.direct_sum(blk[s])
        mats.append(m)
    conj = invertible_matrix(field, rng, size, span=2)
    # the blocks commute and are invertible by construction
    return MatrixTuple._trusted(field, mats).conjugate(conj)
