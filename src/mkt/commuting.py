"""Commuting invertible matrix tuples and their reduction to symbol classes.

A weight-l tuple is l pairwise commuting invertible matrices over a common
field. Tuples generate a group under direct sum. A one-parameter family is
a tuple over k(t) = function_field(k) that is invertible over k[t]; its two
endpoints, at t = 1 and t = 0, must map to the same class.

The reduction finds the simple factors of the module V the tuple defines in
layers. For each irreducible factor pi of the first slot a's minimal
polynomial, repeated by its exponent, ker pi(a) and the image pi(a)V are
invariant and V/ker pi(a) is isomorphic to the image, so the factors of V
are those of the kernel plus those of the image. On the kernel a acts as a
root of pi, a scalar of field[x]/(pi), and the other slots recurse there.
A slot that acts on the whole current space as a scalar c (a 1 x 1 slot,
c * I, or a on the last layer when the last pi is x - c) is the base case:
c goes in front of the other slots' factors on the same space, with no
minimal polynomial, factoring, kernel or restriction.
Over an extension Q(alpha) the factors pi come from Trager's norm method
(`factor.irreducible_factors`); a nonlinear one would need a second
extension step over Q and raises UnsupportedTower. Each factor gives the
scalars by which the slots act on it, in a finite extension of the ground
field, and their symbol is transferred back down. The result is a Milnor
expression whose canonical class is the complete invariant this package
exposes for tuples over Q and finite fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .canonical import CanonicalClass, canonical_class
from .errors import (ArityMismatch, DegenerateInput, DescriptorMismatch,
                     NotUnitDeterminant, RecursionInvariantViolated,
                     UnsupportedField, UnsupportedTower)
from .factor import irreducible_factors
from .fields import (EXTENSION, FUNCTION, FieldDescriptor, FieldElement,
                     Polynomial, embed, extension, function_field, tower_steps)
from .linalg import Matrix, SpanTracker, minpoly_matrix, poly_eval_matrix
from .symbols import MilnorExpression, symbol, zero_expression
from .transfer import transfer_tower

__all__ = [
    "MatrixTuple", "CompositionFactor",
    "kronecker", "composition_series", "series_expression", "reduce_tuple",
    "class_of_tuple",
    "homotopy_mult", "homotopy_swap", "homotopy_shear", "homotopy_steinberg",
]


def _check_commuting(mats: Sequence) -> None:
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                raise DegenerateInput(f"slots {i} and {j} do not commute")


def _check_family_slot(m: Matrix) -> None:
    """A slot over k(t) must be invertible over k[t]: polynomial entries and
    a nonzero constant determinant."""
    if any(e.rep.den.degree > 0 for r in m.rows for e in r):
        raise NotUnitDeterminant("family entries must be polynomials in t")
    d = m.det()
    if d.rep.num.degree != 0:
        raise NotUnitDeterminant(f"determinant {d} is not a nonzero constant")


def _square_slots(field: FieldDescriptor, matrices: Sequence) -> tuple:
    mats = tuple(matrices)
    if not mats:
        raise DegenerateInput("a tuple needs at least one slot")
    n = mats[0].nrows
    for m in mats:
        if not isinstance(m, Matrix):
            raise DegenerateInput("tuple slots must be matrices")
        if m.field != field:
            raise DescriptorMismatch("slot over the wrong field")
        if not m.is_square or m.nrows != n:
            raise ArityMismatch("slots must be square of one common size")
    return mats


class MatrixTuple:
    """l pairwise commuting invertible n x n matrices over one field.

    Over k(t) the tuple is a one-parameter family: every slot must be
    invertible over k[t], and boundary() gives its two endpoints.
    """

    __slots__ = ("field", "size", "weight", "matrices")

    def __init__(self, field: FieldDescriptor, matrices: Sequence[Matrix]):
        mats = _square_slots(field, matrices)
        for m in mats:
            if field.kind == FUNCTION:
                _check_family_slot(m)
            elif m.det().is_zero():
                raise DegenerateInput("singular slot")
        _check_commuting(mats)
        self._fill(field, mats)

    @classmethod
    def _commuting(cls, field: FieldDescriptor, matrices: Sequence[Matrix]) -> "MatrixTuple":
        """A tuple over Q or a finite field checked for shape and commutation
        only. A singular slot is refused by composition_series, which every
        use of the tuple runs: the slot acts as 0 on some factor there."""
        mats = _square_slots(field, matrices)
        _check_commuting(mats)
        return cls._trusted(field, mats)

    @classmethod
    def _trusted(cls, field: FieldDescriptor, matrices: Sequence[Matrix]) -> "MatrixTuple":
        """A tuple whose slots follow from checked tuples by a map that keeps
        them square of one size, invertible and commuting; nothing is
        rechecked."""
        x = object.__new__(cls)
        x._fill(field, tuple(matrices))
        return x

    def _fill(self, field: FieldDescriptor, mats: tuple) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", mats[0].nrows)
        object.__setattr__(self, "weight", len(mats))
        object.__setattr__(self, "matrices", mats)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixTuple is immutable")

    @classmethod
    def identity(cls, field, n: int, weight: int) -> "MatrixTuple":
        ident = Matrix.identity(field, n)
        return cls(field, [ident] * weight)

    @classmethod
    def scalars(cls, field, values: Sequence) -> "MatrixTuple":
        """The 1 x 1 tuple of the given nonzero scalars."""
        return cls(field, [Matrix(field, [[v]]) for v in values])

    def direct_sum(self, other: "MatrixTuple") -> "MatrixTuple":
        if self.field != other.field:
            raise DescriptorMismatch("tuples over different fields")
        if self.weight != other.weight:
            raise ArityMismatch("tuples of different weights")
        mats = [a.direct_sum(b) for a, b in zip(self.matrices, other.matrices)]
        return MatrixTuple._trusted(self.field, mats)

    def conjugate(self, s: Matrix) -> "MatrixTuple":
        inv = s.inverse()
        mats = [s * m * inv for m in self.matrices]
        # over k(t), s^-1 may have entries outside k[t]
        if self.field.kind == FUNCTION:
            return MatrixTuple(self.field, mats)
        return MatrixTuple._trusted(self.field, mats)

    def with_slot(self, i: int, m: Matrix) -> "MatrixTuple":
        mats = list(self.matrices)
        mats[i] = m
        return MatrixTuple(self.field, mats)

    def swap_slots(self, i: int, j: int) -> "MatrixTuple":
        mats = list(self.matrices)
        mats[i], mats[j] = mats[j], mats[i]
        return MatrixTuple._trusted(self.field, mats)

    def boundary(self) -> tuple["MatrixTuple", "MatrixTuple"]:
        """(family at t = 1, family at t = 0), for a tuple over k(t)."""
        if self.field.kind != FUNCTION:
            raise UnsupportedField("only a tuple over k(t) has endpoints")
        k = self.field.base
        return self._at(k.one()), self._at(k.zero())

    def _at(self, point: FieldElement) -> "MatrixTuple":
        # evaluation k[t] -> k is a ring map: the slots still commute, and
        # each determinant is the nonzero constant of the family's
        k = point.field
        return MatrixTuple._trusted(k, [m.map_entries(lambda e: e.rep.num.evaluate(point), k)
                                        for m in self.matrices])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return self.field == other.field and self.matrices == other.matrices

    def __hash__(self):
        return hash((self.field, self.matrices))

    def __repr__(self):
        return f"MatrixTuple(weight={self.weight}, size={self.size}, field={self.field})"


def kronecker(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    """Product tuple of weight p+q: x's slots padded on the right, y's on the left.

    Slot convention: (A_1 ox I, ..., A_p ox I, I ox B_1, ..., I ox B_q).
    """
    if x.field != y.field:
        raise DescriptorMismatch("tuples over different fields")
    iy = Matrix.identity(y.field, y.size)
    ix = Matrix.identity(x.field, x.size)
    mats = [a.kron(iy) for a in x.matrices] + [ix.kron(b) for b in y.matrices]
    return MatrixTuple._trusted(x.field, mats)


# ---------------------------------------------------------------------------
# homotopy constructors: tuples over k(t) = function_field(k)


def _lift(m: Matrix, kt: FieldDescriptor) -> Matrix:
    return m.map_entries(lambda e: embed(e, kt), kt)


def _blocks(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    """The block matrix [[tl, tr], [bl, br]]."""
    return Matrix(tl.field, [a + b for a, b in zip(tl.rows + bl.rows, tr.rows + br.rows)])


def _mult_family(b: Matrix, c: Matrix) -> Matrix:
    # [[0, I], [-BC, t(I+BC) + (1-t)(B+C)]]
    kt = function_field(b.field)
    n = b.nrows
    ident = Matrix.identity(kt, n)
    bc = _lift(b * c, kt)
    lin0 = _lift(b + c, kt)
    return _blocks(Matrix.zeros(kt, n), ident,
                   -bc, lin0 + (ident + bc - lin0) * kt.gen())


def _doubled(m: Matrix) -> Matrix:
    return _lift(m.direct_sum(m), function_field(m.field))


def homotopy_mult(b: Matrix, c: Matrix, bystanders: Sequence[Matrix] = ()) -> MatrixTuple:
    """Family whose endpoints realize slot-one multiplicativity.

    At t=1 the first slot is similar to I (+) BC, at t=0 to B (+) C; the
    bystander slots ride along doubled. B, C and the bystanders must all
    commute.
    """
    if b.field != c.field or b.nrows != c.nrows:
        raise DescriptorMismatch("factors must match in field and size")
    MatrixTuple(b.field, [b, c, *bystanders])
    # so the doubled bystanders commute with the family slot, built from B
    # and C, for every t, and its determinant is the constant det(BC)
    mats = [_mult_family(b, c)]
    mats.extend(_doubled(a) for a in bystanders)
    return MatrixTuple._trusted(function_field(b.field), mats)


def homotopy_swap(x: MatrixTuple, i: int, j: int) -> MatrixTuple:
    """Family placing the same multiplicative block in slots i and j.

    Its two endpoints differ, in the group the tuples generate, by twice the
    i<->j transposition of x; every class-level invariant therefore sees the
    swap as a sign change.
    """
    if x.weight < 2 or i == j or not (0 <= i < x.weight) or not (0 <= j < x.weight):
        raise DegenerateInput("need two distinct valid slots")
    h = _mult_family(x.matrices[i], x.matrices[j])
    mats = [h if s in (i, j) else _doubled(a) for s, a in enumerate(x.matrices)]
    # the slots of x commute and are invertible, so the family's do and have
    # constant determinants
    return MatrixTuple._trusted(function_field(x.field), mats)


def homotopy_shear(a: Matrix, b: Matrix, c: Matrix,
                   bystanders: Sequence[tuple[Matrix, Matrix]] = ()) -> MatrixTuple:
    """Family [[A, Ct], [0, B]]: block triangular at t=1, block diagonal at t=0.

    A is p x p, B is q x q, C is p x q. Bystanders are (top, bottom) pairs,
    p x p and q x q, joined block-diagonally; the assembled slots are
    verified at t = 1.
    """
    if a.field != b.field or a.field != c.field:
        raise DescriptorMismatch("blocks over different fields")
    p, q = a.nrows, b.nrows
    if c.nrows != p or c.ncols != q:
        raise ArityMismatch("off-diagonal block has the wrong shape")
    for top, bottom in bystanders:
        if (top.nrows, top.ncols, bottom.nrows, bottom.ncols) != (p, p, q, q):
            raise ArityMismatch("bystander blocks must be p x p and q x q")
    # with those shapes a bystander (T, U) commutes with the shear slot for
    # every t exactly when it does at t = 1 (TC = CU), and det is
    # det(A) det(B) for every t
    k = a.field
    at1 = MatrixTuple(k, [_blocks(a, c, Matrix.zeros(k, q, p), b),
                          *(top.direct_sum(bottom) for top, bottom in bystanders)])
    kt = function_field(k)
    mats = [_blocks(_lift(a, kt), _lift(c, kt) * kt.gen(),
                    Matrix.zeros(kt, q, p), _lift(b, kt))]
    mats.extend(_lift(m, kt) for m in at1.matrices[1:])
    return MatrixTuple._trusted(kt, mats)


def homotopy_steinberg(a: FieldElement, b: FieldElement,
                       bystanders: Sequence[FieldElement] = ()) -> MatrixTuple:
    """Family connecting the weight-2 tuples (a, 1-a) and (b, 1-b).

    First slot: the companion matrix of
    X^3 + (a(t-1) - bt) X^2 + (b(t-1) - at) X + ab; second slot: identity
    minus the first. Determinants are -ab and (1-a)(1-b), so both a and b
    must avoid 0 and 1. Optional scalar bystanders are appended as scalar
    slots.
    """
    field = a.field
    if b.field != field:
        raise DescriptorMismatch("scalars over different fields")
    one = field.one()
    for v in (a, b):
        if v.is_zero() or v == one:
            raise DegenerateInput("scalars must avoid 0 and 1")
    kt = function_field(field)
    t = kt.gen()
    ea, eb = embed(a, kt), embed(b, kt)
    comp = Matrix(kt, [
        [0, 0, -(ea * eb)],
        [1, 0, eb + (ea - eb) * t],
        [0, 1, ea + (eb - ea) * t],
    ])
    ident = Matrix.identity(kt, 3)
    mats = [comp, ident - comp]
    for v in bystanders:
        if v.is_zero():
            raise DegenerateInput("bystander scalars must be nonzero")
        mats.append(ident * embed(v, kt))
    # comp and I - comp commute, with determinants -ab and (1-a)(1-b)
    return MatrixTuple._trusted(kt, mats)


# ---------------------------------------------------------------------------
# composition series


@dataclass(frozen=True)
class CompositionFactor:
    extension: FieldDescriptor
    scalars: tuple
    multiplicity: int


def _coordinates(span: SpanTracker, v):
    c = span._coordinates(v)
    if c is None:
        raise RecursionInvariantViolated("subspace is not operator invariant")
    return c


def _restrict(field, ops: Sequence[Matrix], vectors: Sequence) -> list[Matrix]:
    """The matrices of ops on the invariant subspace the vectors span, in the
    basis of the vectors that are independent of the ones before them. Here
    and in _layers vectors are in the internal form of field (see linalg)."""
    if not ops:
        return []
    span = SpanTracker(field, ops[0].nrows)
    keep = [k for k, v in enumerate(vectors) if span._offer(v) is None]
    return [Matrix._from_columns(field, [_coordinates(span, op._apply(vectors[j]))
                                         for j in keep], keep)
            for op in ops]


def _kernel_layers(field, ops: list[Matrix], pi: Polynomial, ker: list) -> list[tuple]:
    """The simple factors of ker pi(a), a = ops[0], for pi irreducible.

    On the kernel a acts as the class of x in field[x]/(pi). A linear pi
    makes that a scalar. Otherwise the kernel is a vector space over
    field[x]/(pi); with other slots, each kernel vector v outside the blocks
    so far starts a block v, av, ..., a^(d-1)v, which is one coordinate
    over the extension, until the blocks fill the kernel. A single slot
    needs only the dimension. Over an extension of Q that step is refused.
    """
    d = pi.degree
    if d == 1:
        big, scalar, e = field, -pi.coeffs[0], len(ker)
        rops = _restrict(field, ops[1:], ker)
    elif field.kind == EXTENSION and not field.is_finite():
        raise UnsupportedTower("splitting this tuple needs a second extension step over Q")
    else:
        if len(ops) == 1:
            e = len(ker) // d
        else:
            a = ops[0]
            span = SpanTracker(field, a.nrows)
            starts = []
            for v in ker:
                if len(starts) * d == len(ker):
                    break
                if span._contains(v):
                    continue
                block = [v]
                for _ in range(1, d):
                    block.append(a._apply(block[-1]))
                if not all(span._offer(u) is None for u in block):
                    raise RecursionInvariantViolated("cyclic block collapsed")
                starts.append(v)
            e = len(starts)
        if e * d != len(ker):
            raise RecursionInvariantViolated("kernel dimension not divisible by the step degree")
        # the span holds the blocks in order, so coordinates d at a time are
        # the entries over big
        big = extension(field, pi)
        scalar = big.gen()
        rops = []
        for op in ops[1:]:
            m = Matrix._from_columns(field, [_coordinates(span, op._apply(v)) for v in starts],
                                     range(e * d))
            rops.append(Matrix(big, [[big.element(tuple(r[j] for r in m.rows[i * d:(i + 1) * d]))
                                      for j in range(e)] for i in range(e)]))
    return _scalar_layers(scalar, big, rops, e)


def _scalar_layers(c: FieldElement, field, rest: list[Matrix], dim: int) -> list[tuple]:
    """The factors of field^dim when a slot acts on it as the scalar c: those
    of the remaining slots, each with c in front. Every scalar of every
    factor passes here, and a slot is singular exactly when it acts as 0 on
    some factor, so c = 0 refuses the tuple."""
    if c.is_zero():
        raise DegenerateInput("singular slot")
    return [(top, (embed(c, top),) + scal, mult) for top, scal, mult in _layers(field, rest, dim)]


def _layers(field, ops: list[Matrix], dim: int) -> list[tuple]:
    """(top, scalars, multiplicity) for the simple factors of field^dim under ops.

    The space of dimension 0 has no factors. When a = ops[0] is a scalar
    c * I (every 1 x 1 is), the factors are those of the other slots on the
    same space with c in front, and a needs no minimal polynomial. Otherwise
    write the minimal polynomial of a as pi_1 ... pi_r, irreducible factors
    repeated by their exponents. pi_1(a) commutes with every slot, so its
    kernel K and image W are invariant and V/K is isomorphic to W: the
    factors of V are those of K and those of W. On W the minimal polynomial
    of a is pi_2 ... pi_r, so the next layer takes pi_2. On the last layer
    it is pi_r itself, so pi_r(a) = 0 and its kernel is everything; a linear
    pi_r = x - c makes a the scalar c there, the same base case.
    """
    if not dim:
        return []
    if not ops:
        return [(field, (), dim)]
    a = ops[0]
    c = a._scalar()
    if c is not None:
        return _scalar_layers(c, field, ops[1:], dim)
    pis = irreducible_factors(minpoly_matrix(a))
    out = []
    for pi in pis[:-1]:
        p = poly_eval_matrix(pi, ops[0])
        out += _kernel_layers(field, ops, pi, p._kernel_basis())
        ops = _restrict(field, ops, p._columns())
    n, last = ops[0].nrows, pis[-1]
    if last.degree == 1:
        return out + _scalar_layers(-last.coeffs[0], field, ops[1:], n)
    return out + _kernel_layers(field, ops, last, Matrix.identity(field, n)._columns())


def _tower_key(top: FieldDescriptor, base: FieldDescriptor):
    steps = tower_steps(top, base)
    return (len(steps), tuple(s.modulus.coeff_key() for s in steps))


def composition_series(x: MatrixTuple) -> list[CompositionFactor]:
    """Simple factors of the module defined by the tuple, with multiplicities.

    Each factor is an iterated extension of the ground field together with
    the scalars by which the slots act on it. The multiset is a conjugation
    invariant of the tuple.
    """
    field = x.field
    if field.kind == FUNCTION:
        raise UnsupportedTower("tuples over function fields are out of scope")
    seen: dict = {}
    for top, scal, mult in _layers(field, list(x.matrices), x.size):
        key = (_tower_key(top, field), tuple(s.key() for s in scal))
        if key in seen:
            seen[key][2] += mult
        else:
            seen[key] = [top, scal, mult]
    return [CompositionFactor(*seen[k]) for k in sorted(seen)]


def series_expression(field: FieldDescriptor, weight: int,
                      series: Sequence[CompositionFactor]) -> MilnorExpression:
    """The scalars of each composition factor as a symbol, transferred to field."""
    total = zero_expression(field, weight)
    for f in series:
        piece = transfer_tower(symbol(list(f.scalars), field=f.extension), field)
        total = total + f.multiplicity * piece
    return total


def reduce_tuple(x: MatrixTuple) -> MilnorExpression:
    """The symbol expression of a tuple: transferred scalars of its simple factors.

    For weight 1 the class of the result is the class of the determinant.
    """
    return series_expression(x.field, x.weight, composition_series(x))


def class_of_tuple(x: MatrixTuple, real: bool = False) -> CanonicalClass:
    return canonical_class(reduce_tuple(x), real=real)
