"""Exact dense linear algebra over the field layer.

Everything here works on small matrices (module decompositions, Krylov
minimal polynomials), so the code favors clarity over asymptotics. There is
one elimination routine, SpanTracker: an incremental echelon basis,
pivoting on the first nonzero entry, whose rows carry their coefficients
in the vectors offered to it (elimination on [A | I]). Determinant,
inverse, rank, kernel, solving and the Krylov minimal polynomial are all
read off a tracker. Over k(t) the same routine takes the determinant of
a matrix with polynomial entries.

Matrix-vector products (`apply`) have one kernel per field kind, and a
matrix product applies the left factor to each column of the right one.

In `linalg` and across into `commuting` a vector travels in the internal
form of its field, and a matrix keeps its rows in that form; a matrix
built from that form makes its elements on first read of `rows`. Only the
values handed back become elements, and they equal those of element
arithmetic because pivots, relations and coordinates are unique. Over Q
the form is one pair (integer numerators, denominator), and the arithmetic
is fraction-free on Python ints: a tracker keeps primitive integer rows
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968). Off Q it is the list of kernel values in
the field's `fields.kernel_kind` (residues over F_p, table indices over a
tabled field, elements elsewhere), and each step is a `zkernel` call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence

from mkt.errors import ArityMismatch, DegenerateInput, DescriptorMismatch
from mkt.fields import (RATIONALS, FieldDescriptor, FieldElement, Polynomial, kernel_elements,
                        kernel_kind, kernel_values, poly_gcd)
from mkt.zkernel import add_multiple, dots, inverse, negate, scaled


def _coerce_entry(field: FieldDescriptor, e) -> FieldElement:
    if isinstance(e, FieldElement):
        if e.field is not field:
            raise DescriptorMismatch(f"entry over {e.field}, matrix over {field}")
        return e
    if isinstance(e, int):
        return field.from_int(e)
    raise DescriptorMismatch(f"cannot use {type(e).__name__} as a matrix entry")


def cleared(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with xs[k] == ints[k] / d; d is the lcm of the denominators."""
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _vector(field: FieldDescriptor, v: Sequence[FieldElement]):
    """v in the internal form of field (see the module docstring)."""
    if field.kind == RATIONALS:
        return cleared([x.rep for x in v])
    return kernel_values(kernel_kind(field), v)


def _entries(field: FieldDescriptor, v) -> list[FieldElement]:
    """The elements of the vector v, given in the internal form of field."""
    if field.kind != RATIONALS:
        return list(kernel_elements(field, v, kernel_kind(field)))
    return [FieldElement(field, Fraction(n, v[1])) for n in v[0]]


class Matrix:
    """Immutable dense matrix with exact field entries."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_internal")

    def __init__(self, field: FieldDescriptor, rows: Iterable[Iterable]):
        rs = tuple(tuple(_coerce_entry(field, e) for e in row) for row in rows)
        if rs:
            w = len(rs[0])
            for r in rs:
                if len(r) != w:
                    raise ArityMismatch("ragged rows")
        self._fill(field, rs)

    @classmethod
    def _trusted(cls, field: FieldDescriptor, rows: Iterable[Iterable], ncols: int = 0) -> "Matrix":
        """A matrix whose rows, of one length, hold elements of field made by
        arithmetic on checked matrices; nothing is rechecked. ncols is the
        width of a matrix with no rows."""
        out = object.__new__(cls)
        out._fill(field, tuple(map(tuple, rows)), ncols=ncols)
        return out

    @classmethod
    def _from_ints(cls, field: FieldDescriptor, rows: list[list[int]], d: int) -> "Matrix":
        """rows / d over Q, for integer rows of one length and d != 0, kept
        over the least positive denominator."""
        g = gcd(d, *[x for r in rows for x in r]) * (1 if d > 0 else -1)
        if g != 1:
            rows, d = [[x // g for x in r] for r in rows], d // g
        return cls._from_form(field, (rows, d))

    @classmethod
    def _from_form(cls, field: FieldDescriptor, form) -> "Matrix":
        """The matrix whose rows are form, in the internal form of field (see
        _form); over Q, as _from_ints leaves it."""
        out = object.__new__(cls)
        out._fill(field, None, form)
        return out

    def _fill(self, field: FieldDescriptor, rows: tuple | None, form=None, ncols: int = 0) -> None:
        if rows is None:
            lines = form[0] if field.kind == RATIONALS else form
        else:
            lines = rows
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(lines))
        object.__setattr__(self, "ncols", len(lines[0]) if lines else ncols)
        object.__setattr__(self, "_internal", form)  # _form, when given
        if rows is not None:
            object.__setattr__(self, "rows", rows)

    def __getattr__(self, name):
        # only the rows of a matrix built by _from_form are missing until read
        if name != "rows":
            raise AttributeError(name)
        form = self._internal
        vectors = [(r, form[1]) for r in form[0]] if self.field.kind == RATIONALS else form
        rows = tuple(tuple(_entries(self.field, v)) for v in vectors)
        object.__setattr__(self, "rows", rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls._trusted(field, [[one if i == j else zero for j in range(n)]
                                    for i in range(n)])

    @classmethod
    def zeros(cls, field, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        zero = field.zero()
        return cls._trusted(field, [[zero] * m for _ in range(n)], m)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def _form(self):
        """The rows in the internal form, built on first use: (integer rows,
        d) with self = rows / d over Q, lists of kernel values elsewhere."""
        if self._internal is None:
            if self.field.kind == RATIONALS:
                d = lcm(*[e.rep.denominator for r in self.rows for e in r])
                form = ([[e.rep.numerator * (d // e.rep.denominator) for e in r]
                         for r in self.rows], d)
            else:
                k = kernel_kind(self.field)
                form = [kernel_values(k, r) for r in self.rows]
            object.__setattr__(self, "_internal", form)
        return self._internal

    def _columns(self) -> list:
        """The columns, in the internal form of the field."""
        q = self.field.kind == RATIONALS
        rows, d = self._form() if q else (self._form(), 1)
        cols = list(zip(*rows)) if rows else [()] * self.ncols
        return [(c, d) for c in cols] if q else cols

    @classmethod
    def _from_columns(cls, field: FieldDescriptor, cols: list, keep: Iterable[int]) -> "Matrix":
        """The matrix whose column j is cols[j], given in the internal form of
        field, read at the positions keep."""
        if field.kind == RATIONALS:
            big = lcm(*[d for _, d in cols])
            lifted = [(nums, big // d) for nums, d in cols]
            return cls._from_ints(field, [[nums[k] * f for nums, f in lifted] for k in keep], big)
        rows = list(zip(*cols))
        return cls._from_form(field, [list(rows[k]) for k in keep])

    def _scalar(self) -> FieldElement | None:
        """c when self is c times the identity, for a square self of size >= 1."""
        q = self.field.kind == RATIONALS
        rows, d = self._form() if q else (self._form(), 1)
        c = rows[0][0]
        if all(x == c if i == j else not x for i, r in enumerate(rows) for j, x in enumerate(r)):
            return _entries(self.field, ([c], d) if q else [c])[0]
        return None

    def __eq__(self, other) -> bool:
        # a field gives a value one internal form (over Q both integer forms
        # are over the least positive denominator)
        return (isinstance(other, Matrix) and self.field is other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self._form() == other._form())

    def __hash__(self):
        return hash((self.field, self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix._trusted(self.field, [[a + b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix._trusted(self.field, [[a - b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.field, [[-a for a in r] for r in self.rows], self.ncols)

    def _shape_check(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise DescriptorMismatch("expected a Matrix")
        if self.field != other.field:
            raise DescriptorMismatch("matrices over different fields")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ArityMismatch("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.field != other.field:
                raise DescriptorMismatch("matrices over different fields")
            if self.ncols != other.nrows:
                raise ArityMismatch("inner dimensions disagree")
            if not (self.nrows and self.ncols and other.ncols):
                return Matrix.zeros(self.field, self.nrows, other.ncols)
            # column j of the product is self applied to column j of other
            return Matrix._from_columns(self.field, [self._apply(c) for c in other._columns()],
                                        range(self.nrows))
        e = _coerce_entry(self.field, other)
        return Matrix._trusted(self.field, [[a * e for a in r] for r in self.rows], self.ncols)

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; v is a sequence of entries."""
        vs = [_coerce_entry(self.field, e) for e in v]
        if len(vs) != self.ncols:
            raise ArityMismatch("vector length mismatch")
        if not vs:
            return (self.field.zero(),) * self.nrows
        return tuple(_entries(self.field, self._apply(_vector(self.field, vs))))

    def _apply(self, vs):
        """self * vs, for a nonempty vector of the right length in the
        internal form of self's field; the product comes in that form too."""
        if self.field.kind == RATIONALS:
            rows, d = self._form()
            u, e = vs
            return [sum(map(mul, r, u)) for r in rows], d * e
        return dots(self._form(), vs, kernel_kind(self.field))

    def map_entries(self, fn: Callable, field: FieldDescriptor | None = None) -> "Matrix":
        fld = field or self.field
        return Matrix._trusted(fld, [[_coerce_entry(fld, fn(a)) for a in r] for r in self.rows],
                               self.ncols)

    def det(self) -> FieldElement:
        """Product of the pivots of the columns, times the sign of their rows."""
        if not self.is_square:
            raise ArityMismatch("determinant needs a square matrix")
        span = SpanTracker(self.field, self.nrows)
        for c in self._columns():
            if span._offer(c) is not None:
                return self.field.zero()
        det = prod(span.pivot_values, start=self.field.one())
        return det if _permutation_sign(span.pivots) == 1 else -det

    def inverse(self) -> "Matrix":
        """Column j of the inverse writes e_j in the columns of self."""
        if not self.is_square:
            raise ArityMismatch("inverse needs a square matrix")
        n = self.nrows
        span = SpanTracker(self.field, n)
        for c in self._columns():
            if span._offer(c) is not None:
                raise DegenerateInput("matrix is singular")
        return Matrix._from_columns(self.field, [span._coordinates(e) for e in
                                                 Matrix.identity(self.field, n)._columns()],
                                    range(n))

    def rank(self) -> int:
        span = SpanTracker(self.field, self.nrows)
        for c in self._columns():
            span._offer(c)
        return span.rank

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right null space, as vectors of length ncols.

        Each column that depends on the columns before it gives one vector:
        its relation to them, with coefficient 1 on itself.
        """
        return [tuple(_entries(self.field, v)) for v in self._kernel_basis()]

    def _kernel_basis(self) -> list:
        """kernel_basis in the internal form of the field."""
        span = SpanTracker(self.field, self.nrows)
        q = self.field.kind == RATIONALS
        zero, one = (0, 1) if q else (span._zero, span._one)
        basis = []
        for j, c in enumerate(self._columns()):
            rel = span._offer(c)
            if rel is not None:
                tail = [zero] * (self.ncols - j - 1)
                basis.append((rel[0] + [rel[1]] + tail, rel[1]) if q else (*rel, one, *tail))
        return basis

    def solve(self, b: Sequence) -> tuple | None:
        """One solution of A x = b, or None when inconsistent.

        The entries on columns that depend on earlier columns are zero.
        """
        bs = [_coerce_entry(self.field, e) for e in b]
        if len(bs) != self.nrows:
            raise ArityMismatch("rhs length mismatch")
        span = SpanTracker(self.field, self.nrows)
        for c in self._columns():
            span._offer(c)
        x = span._coordinates(_vector(self.field, bs))
        return None if x is None else tuple(_entries(self.field, x))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) is self[i][j] * other."""
        if self.field != other.field:
            raise DescriptorMismatch("matrices over different fields")
        out = []
        for i in range(self.nrows):
            for k in range(other.nrows):
                line = []
                for j in range(self.ncols):
                    a = self.rows[i][j]
                    line.extend(a * b for b in other.rows[k])
                out.append(line)
        return Matrix._trusted(self.field, out, self.ncols * other.ncols)

    def direct_sum(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DescriptorMismatch("matrices over different fields")
        zero = self.field.zero()
        n1, m1, n2, m2 = self.nrows, self.ncols, other.nrows, other.ncols
        out = []
        for i in range(n1):
            out.append(list(self.rows[i]) + [zero] * m2)
        for i in range(n2):
            out.append([zero] * m1 + list(other.rows[i]))
        return Matrix._trusted(self.field, out, m1 + m2)

    def conjugate(self, s: "Matrix") -> "Matrix":
        """s * self * s^-1."""
        return s * self * s.inverse()

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return f"[{body}]"


def _permutation_sign(perm: Sequence[int]) -> int:
    # a cycle of length L contributes (-1)^(L-1)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            sign = -sign
        sign = -sign
    return sign


class SpanTracker:
    """Incremental echelon basis of the span of the vectors offered to it.

    This is the package's one elimination routine: Gaussian elimination on
    the augmented matrix [A | I]. A vector is reduced against the stored
    rows in the order they were stored; each stored row is zero on the
    pivots of the rows stored before it, so one forward pass clears every
    pivot. Every stored row carries a tail after its entries: its
    coefficients in the vectors offered before it and in its own vector.
    An offered vector is reduced with a tail that is 1 on itself, so the
    pass that clears it also writes the cleared vector in the offered
    vectors. That is the relation of an offered vector that adds nothing,
    and reducing a vector with a zero tail gives minus its coordinates. An
    offered vector that adds nothing never becomes a row, so its
    coefficient in every tail is zero.

    Off Q, vectors, rows, multipliers and coefficients are kernel values of
    the field's kind, and every step is a `zkernel` call on that kind. A row
    keeps its entries after the pivot, then its tail, scaled so that its
    pivot entry is -1: clearing entry f at a pivot is then an addition of f
    times the row, one call for the entries and the tail, as a row's tail is
    never longer than the vector's. Over Q the tracker is a _RationalSpan,
    which keeps primitive integer rows instead.
    """

    def __new__(cls, field: FieldDescriptor, dim: int):
        return object.__new__(_RationalSpan if field.kind == RATIONALS else cls)

    def __init__(self, field: FieldDescriptor, dim: int):
        self.field = field
        self.dim = dim
        self.offered = 0
        self.pivots: list[int] = []
        self._kind = kernel_kind(field)
        self._pivot_values: list = []                # kernel values; (a, b) for a / b over Q
        self._rows: list[list] = []                  # the kernel forms; integer rows over Q
        if field.kind == RATIONALS:
            self._denominators: list[int] = []       # d_k of offered vector k
        else:
            self._zero, self._one, self._minus_one = kernel_values(
                self._kind, (field.zero(), field.one(), field.minus_one()))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivot_values(self) -> list[FieldElement]:
        """The pivot entries before scaling."""
        return list(kernel_elements(self.field, self._pivot_values, self._kind))

    def _reduce(self, w: list) -> list:
        """w with every pivot cleared, in place; a tail after its first dim
        entries is carried along."""
        k, zero = self._kind, self._zero
        for p, row in zip(self.pivots, self._rows):
            f = w[p]
            if f:
                w[p] = zero
                w[p + 1:p + 1 + len(row)] = add_multiple(w[p + 1:], f, row, k)
        return w

    def offer(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        """Insert v. None when v enlarged the span; otherwise the relation
        (r_0, ..., r_{m-1}) with v + sum_k r_k * offered[k] = 0."""
        rel = self._offer(_vector(self.field, v))
        return None if rel is None else _entries(self.field, rel)

    def add(self, v: Sequence[FieldElement]) -> bool:
        """Insert v; returns True when it enlarged the span."""
        return self._offer(_vector(self.field, v)) is None

    def coordinates(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        """Coefficients writing v in the offered vectors, or None outside the span.

        Offered vectors that added nothing get coefficient zero.
        """
        c = self._coordinates(_vector(self.field, v))
        return None if c is None else _entries(self.field, c)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return self._contains(_vector(self.field, v))

    # the same on vectors in the internal form of the field (see the module
    # docstring); the relation and the coordinates come in that form too
    def _contains(self, v) -> bool:
        return not any(self._reduce(list(v)))

    def _offer(self, v) -> list | None:
        index, dim = self.offered, self.dim
        self.offered += 1
        w = self._reduce([*v, *[self._zero] * index, self._one])
        for p in range(dim):
            if w[p]:
                break
        else:
            return w[dim:dim + index]
        k, a = self._kind, w[p]
        self.pivots.append(p)
        self._pivot_values.append(a)
        self._rows.append(scaled(w[p + 1:], negate(inverse(a, k), k), k))
        return None

    def _coordinates(self, v) -> list | None:
        dim = self.dim
        w = self._reduce([*v, *[self._zero] * self.offered])
        if any(w[:dim]):
            return None
        return scaled(w[dim:], self._minus_one, self._kind)


class _RationalSpan(SpanTracker):
    """SpanTracker over Q on Python ints.

    Offered vector k comes as integer numerators n_k over one denominator
    d_k, and its tail coefficients are on n_k. Row i (in _rows) is a whole
    primitive integer vector with a positive pivot entry, its tail included.
    A vector is reduced by cross-multiplication, w <- a * w - c * row with a
    and c the pivot entries of the row and of w over their gcd. The vector's
    own coefficient sits in one trailing slot, so after the pass it holds
    the multiple lam with w = lam * n + sum of rows, and the pivot entry a
    of w is the element path's pivot times lam * d.
    """

    @property
    def pivot_values(self) -> list[FieldElement]:
        return [FieldElement(self.field, Fraction(a, b)) for a, b in self._pivot_values]

    def _reduce(self, w: list[int]) -> list[int]:
        for p, row in zip(self.pivots, self._rows):
            c = w[p]
            if not c:
                continue
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            n = len(row)
            if a == 1:
                w[:n] = [x - c * y for x, y in zip(w, row)]
            else:
                w = [a * x - c * y for x, y in zip(w, row)] + [a * x for x in w[n:]]
        return w

    def _written(self, w: list[int], d: int) -> tuple[list[int], int]:
        """(x, e) for the reduced w of a vector n / d that reduced to zero:
        the vector plus sum_k x_k / e * offered[k] is zero."""
        nums = [t * dk for t, dk in zip(w[self.dim:-1], self._denominators)]
        e = w[-1] * d
        g = gcd(e, *nums)
        return [x // g for x in nums], e // g

    def _contains(self, v: tuple[Sequence[int], int]) -> bool:
        return not any(self._reduce(list(v[0])))

    def _offer(self, v: tuple[Sequence[int], int]) -> tuple[list[int], int] | None:
        nums, d = v
        index, dim = self.offered, self.dim
        self.offered += 1
        self._denominators.append(d)
        w = self._reduce([*nums, *[0] * index, 1])
        for p in range(dim):
            if w[p]:
                break
        else:
            return self._written(w, d)
        a = w[p]
        g = gcd(*w) if a > 0 else -gcd(*w)
        self.pivots.append(p)
        self._pivot_values.append((a, w[-1] * d))
        self._rows.append([x // g for x in w])
        return None

    def _coordinates(self, v: tuple[Sequence[int], int]) -> tuple[list[int], int] | None:
        nums, d = v
        w = self._reduce([*nums, *[0] * self.offered, 1])
        if any(w[:self.dim]):
            return None
        x, e = self._written(w, d)
        return x, -e


def _plus_scalar(m: Matrix, c: FieldElement) -> Matrix:
    """m + c * I, adding c on the diagonal only."""
    if c.is_zero():
        return m
    if m.field.kind == RATIONALS:
        (rows, d), a, b = m._form(), c.rep.numerator, c.rep.denominator
        return Matrix._from_ints(m.field, [[x * b + a * d if i == j else x * b
                                            for j, x in enumerate(r)]
                                           for i, r in enumerate(rows)], d * b)
    k = kernel_kind(m.field)
    cv, one = kernel_values(k, (c, m.field.one()))
    return Matrix._from_form(m.field, [r[:i] + add_multiple(r[i:i + 1], cv, [one], k) + r[i + 1:]
                                       for i, r in enumerate(m._form())])


def poly_eval_matrix(f: Polynomial, a: Matrix) -> Matrix:
    """f(a) by Horner, each coefficient added on the diagonal; the first step
    is a * lead, or a itself for monic f. f's coefficients must live in a's
    field."""
    if f.field != a.field:
        raise DescriptorMismatch("polynomial and matrix fields disagree")
    if f.degree < 1:
        return Matrix.identity(a.field, a.nrows) * f.constant_term()
    lead = f.coeffs[-1]
    out = _plus_scalar(a if lead.is_one() else a * lead, f.coeffs[-2])
    for c in reversed(f.coeffs[:-2]):
        out = _plus_scalar(out * a, c)
    return out


def _cyclic_annihilator(a: Matrix, v) -> Polynomial:
    # minimal monic g with g(a) v = 0, v in the internal form of a's field:
    # the first Krylov vector a^k v that depends on v, ..., a^(k-1) v; at
    # most nrows + 1 of them are offered
    span = SpanTracker(a.field, a.nrows)
    while True:
        rel = span._offer(v)
        if rel is not None:
            return Polynomial(a.field, _entries(a.field, rel) + [a.field.one()])
        v = a._apply(v)


def minpoly_matrix(a: Matrix) -> Polynomial:
    """Minimal polynomial of a square matrix, monic."""
    if not a.is_square:
        raise ArityMismatch("minimal polynomial needs a square matrix")
    field = a.field
    n = a.nrows
    if n == 0:
        return Polynomial.one(field)
    acc = None
    for e in Matrix.identity(field, n)._columns():
        g = _cyclic_annihilator(a, e)
        if acc is None:
            acc = g  # the first annihilator is the lcm so far
        elif not (acc % g).is_zero():
            acc = (acc * g) // poly_gcd(acc, g)
        if acc.degree >= n:
            break
    return acc.monic()


def companion_matrix(f: Polynomial) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if not f.is_monic() or f.degree < 1:
        raise DegenerateInput("companion matrix needs a monic polynomial of degree >= 1")
    field = f.field
    n = f.degree
    zero, one = field.zero(), field.one()
    rows = []
    for i in range(n):
        row = [zero] * n
        if i > 0:
            row[i - 1] = one
        row[n - 1] = -f.coeffs[i]
        rows.append(row)
    return Matrix(field, rows)


def jordan_block(field, eigenvalue, size: int) -> Matrix:
    lam = _coerce_entry(field, eigenvalue)
    zero, one = field.zero(), field.one()
    rows = []
    for i in range(size):
        row = [zero] * size
        row[i] = lam
        if i + 1 < size:
            row[i + 1] = one
        rows.append(row)
    return Matrix(field, rows)
