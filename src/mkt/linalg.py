"""Exact dense linear algebra over the field layer.

Everything here works on small matrices (module decompositions, Krylov
minimal polynomials), so the code favors clarity over asymptotics. There is
one elimination routine, SpanTracker: an incremental echelon basis that
can write each of its rows in the vectors offered to it, pivoting on the
first nonzero entry. Determinant, inverse, rank, kernel, solving and
the Krylov minimal polynomial are all read off a tracker. Over k(t) the
same routine takes the determinant of a matrix with polynomial entries.

Matrix-vector products (`apply`) have one kernel per field kind, and a
matrix product applies the left factor to each column of the right one.

Over Q the arithmetic runs on Python ints, fraction-free: a tracker keeps
primitive integer rows (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968), and a matrix
applies itself through its integer rows over one common denominator.
Fractions are made only for the values handed back, which equal those of
the element path because pivots, relations and coordinates are unique.

Over a finite field with a table (`fields._Table`, order <= 27, built
with the field) the same holds on table indices: a tracker keeps rows of
indices, a matrix applies itself through index rows built on first use,
and a + f * b is add[a][mul[f][b]]. Only the values handed back become
elements. The element path stays for every other field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from mkt.errors import ArityMismatch, DegenerateInput, DescriptorMismatch
from mkt.fields import (RATIONALS, FieldDescriptor, FieldElement, Polynomial, poly_gcd,
                        table_indices)


def _coerce_entry(field: FieldDescriptor, e) -> FieldElement:
    if isinstance(e, FieldElement):
        if e.field != field:
            raise DescriptorMismatch(f"entry over {e.field}, matrix over {field}")
        return e
    if isinstance(e, int):
        return field.from_int(e)
    raise DescriptorMismatch(f"cannot use {type(e).__name__} as a matrix entry")


def cleared(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with xs[k] == ints[k] / d; d is the lcm of the denominators."""
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _fractions(field: FieldDescriptor, nums: Iterable[int], d: int) -> list[FieldElement]:
    return [FieldElement(field, Fraction(n, d)) for n in nums]


class Matrix:
    """Immutable dense matrix with exact field entries."""

    __slots__ = ("field", "rows", "_fast")

    def __init__(self, field: FieldDescriptor, rows: Iterable[Iterable]):
        rs = tuple(tuple(_coerce_entry(field, e) for e in row) for row in rows)
        if rs:
            w = len(rs[0])
            for r in rs:
                if len(r) != w:
                    raise ArityMismatch("ragged rows")
        self._fill(field, rs)

    @classmethod
    def _trusted(cls, field: FieldDescriptor, rows: Iterable[Iterable]) -> "Matrix":
        """A matrix whose rows, of one length, hold elements of field made by
        arithmetic on checked matrices; nothing is rechecked."""
        out = object.__new__(cls)
        out._fill(field, tuple(map(tuple, rows)))
        return out

    def _fill(self, field: FieldDescriptor, rows: tuple) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        # the rows on a fast path, built on first use: (integer rows,
        # denominator) over Q, table-index rows over a tabled field
        object.__setattr__(self, "_fast", None)

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
        return cls._trusted(field, [[zero] * m for _ in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def _int_rows(self) -> tuple[list[list[int]], int]:
        """(rows, d) with self = rows / d, over Q."""
        if self._fast is None:
            d = lcm(*[e.rep.denominator for r in self.rows for e in r])
            ints = [[e.rep.numerator * (d // e.rep.denominator) for e in r] for r in self.rows]
            object.__setattr__(self, "_fast", (ints, d))
        return self._fast

    def _index_rows(self) -> list[list[int]]:
        """The rows as table indices, over a tabled field."""
        if self._fast is None:
            object.__setattr__(self, "_fast", [table_indices(self.field, r)
                                               for r in self.rows])
        return self._fast

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix._trusted(self.field, [[a + b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix._trusted(self.field, [[a - b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.field, [[-a for a in r] for r in self.rows])

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
            # column j of the product is self applied to column j of other
            cols = [self._apply(other.col(j)) for j in range(other.ncols)]
            return Matrix._trusted(self.field, list(zip(*cols)) or [()] * self.nrows)
        e = _coerce_entry(self.field, other)
        return Matrix._trusted(self.field, [[a * e for a in r] for r in self.rows])

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; v is a sequence of entries."""
        vs = [_coerce_entry(self.field, e) for e in v]
        if len(vs) != self.ncols:
            raise ArityMismatch("vector length mismatch")
        return self._apply(vs)

    def _apply(self, vs: Sequence[FieldElement]) -> tuple:
        """self * vs, for entries of self's field and the right length."""
        if self.field.kind == RATIONALS:
            rows, d = self._int_rows()
            u, e = cleared([x.rep for x in vs])
            return tuple(_fractions(self.field, [sum(map(mul, r, u)) for r in rows], d * e))
        tab = self.field._table
        if tab is not None:
            add, elems = tab.add, tab.elems
            # multiplication is commutative: mul[u_k][a] is u_k * a
            us = [tab.mul[i] for i in table_indices(self.field, vs)]
            out = []
            for r in self._index_rows():
                acc = 0
                for a, mu in zip(r, us):
                    acc = add[acc][mu[a]]
                out.append(elems[acc])
            return tuple(out)
        zero = self.field.zero()
        out = []
        for r in self.rows:
            acc = zero
            for a, b in zip(r, vs):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def map_entries(self, fn: Callable, field: FieldDescriptor | None = None) -> "Matrix":
        return Matrix(field or self.field, [[fn(a) for a in r] for r in self.rows])

    def det(self) -> FieldElement:
        """Product of the pivots of the rows, times the sign of their columns."""
        if not self.is_square:
            raise ArityMismatch("determinant needs a square matrix")
        span = SpanTracker(self.field, self.ncols)
        for r in self.rows:
            if not span.add(r):
                return self.field.zero()
        det = self.field.one()
        for a in span.pivot_values:
            det = det * a
        return det if _permutation_sign(span.pivots) == 1 else -det

    def inverse(self) -> "Matrix":
        """Row j of the inverse writes e_j in the rows of self."""
        if not self.is_square:
            raise ArityMismatch("inverse needs a square matrix")
        n = self.nrows
        span = SpanTracker(self.field, n)
        for r in self.rows:
            if not span.add(r):
                raise DegenerateInput("matrix is singular")
        return Matrix._trusted(self.field, [span.coordinates(e)
                                            for e in Matrix.identity(self.field, n).rows])

    def rank(self) -> int:
        span = SpanTracker(self.field, self.ncols)
        for r in self.rows:
            span.add(r)
        return span.rank

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right null space, as vectors of length ncols.

        Each column that depends on the columns before it gives one vector:
        its relation to them, with coefficient 1 on itself.
        """
        span = SpanTracker(self.field, self.nrows)
        zero, one = self.field.zero(), self.field.one()
        basis = []
        for j in range(self.ncols):
            rel = span.offer(self.col(j))
            if rel is not None:
                basis.append(tuple(rel) + (one,) + (zero,) * (self.ncols - j - 1))
        return basis

    def solve(self, b: Sequence) -> tuple | None:
        """One solution of A x = b, or None when inconsistent.

        The entries on columns that depend on earlier columns are zero.
        """
        bs = [_coerce_entry(self.field, e) for e in b]
        if len(bs) != self.nrows:
            raise ArityMismatch("rhs length mismatch")
        span = SpanTracker(self.field, self.nrows)
        for j in range(self.ncols):
            span.add(self.col(j))
        x = span.coordinates(bs)
        return None if x is None else tuple(x)

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
        return Matrix._trusted(self.field, out)

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
        return Matrix._trusted(self.field, out)

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

    This is the package's one elimination routine. A vector is reduced
    against the stored rows in the order they were stored; each stored row
    is zero on the pivots of the rows stored before it, so one forward pass
    clears every pivot. Every stored row also remembers how it was reduced,
    which gives the coordinates of any vector in the span and the linear
    relation of any offered vector that adds nothing. Those coefficients are
    built on first use, so det and rank never pay for them.

    Off Q, rows are scaled so that their pivot entry is -1: clearing entry f
    at a pivot is then an addition of f times the row. Over Q the tracker is
    a _RationalSpan, which keeps primitive integer rows instead, and over a
    field with a table it is a _TabledSpan, which keeps rows of indices.
    """

    def __new__(cls, field: FieldDescriptor, dim: int):
        if field.kind == RATIONALS:
            return object.__new__(_RationalSpan)
        return object.__new__(cls if field._table is None else _TabledSpan)

    def __init__(self, field: FieldDescriptor, dim: int):
        self.field = field
        self.dim = dim
        self.offered = 0
        self.pivots: list[int] = []
        self.pivot_values: list[FieldElement] = []   # pivot entries before scaling
        # the element path's forms; the subclasses keep their own in these lists
        self._rows: list[list] = []                  # row entries after the pivot
        # row i = scale * (offered[index] + sum f * row j over its steps)
        self._origins: list[tuple] = []              # (index, scale, steps)
        self._combos: list = []                      # row i = sum combo[k] * offered[k]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, v: Sequence[FieldElement]):
        """(w, steps) with w = v + sum f * row j over (j, f) in steps, zero on every pivot."""
        w = list(v)
        zero = self.field.zero()
        steps = []
        for j, (p, tail) in enumerate(zip(self.pivots, self._rows)):
            f = w[p]
            if f.is_zero():
                continue
            w[p] = zero
            w[p + 1:] = [a + f * b for a, b in zip(w[p + 1:], tail)]
            steps.append((j, f))
        return w, steps

    def _combine(self, steps, length: int) -> list[FieldElement]:
        """sum f * row j over steps, as coefficients of the first length offered vectors."""
        # build the missing rows' coefficients in order: each refers only to earlier rows
        while len(self._combos) < len(self._origins):
            index, scale, row_steps = self._origins[len(self._combos)]
            self._combos.append([c * scale for c in self._sum(row_steps, index)] + [scale])
        return self._sum(steps, length)

    def _sum(self, steps, length: int) -> list[FieldElement]:
        comb = [self.field.zero()] * length
        for j, f in steps:
            for k, c in enumerate(self._combos[j]):
                comb[k] = comb[k] + f * c
        return comb

    def offer(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        """Insert v. None when v enlarged the span; otherwise the relation
        (r_0, ..., r_{m-1}) with v + sum_k r_k * offered[k] = 0."""
        w, steps = self._reduce(v)
        index = self.offered
        self.offered += 1
        for p, a in enumerate(w):
            if not a.is_zero():
                break
        else:
            return self._combine(steps, index)
        s = -a.inverse()
        self.pivots.append(p)
        self.pivot_values.append(a)
        self._rows.append([x * s for x in w[p + 1:]])
        self._origins.append((index, s, steps))
        return None

    def add(self, v: Sequence[FieldElement]) -> bool:
        """Insert v; returns True when it enlarged the span."""
        return self.offer(v) is None

    def coordinates(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        """Coefficients writing v in the offered vectors, or None outside the span.

        Offered vectors that added nothing get coefficient zero.
        """
        w, steps = self._reduce(v)
        if not all(a.is_zero() for a in w):
            return None
        return [-c for c in self._combine(steps, self.offered)]

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return not any(self._reduce(v)[0])


class _RationalSpan(SpanTracker):
    """SpanTracker over Q on Python ints.

    Row i (in _rows) is a whole primitive integer vector with a positive
    pivot entry. An offered vector has its denominators cleared once and is
    reduced by cross-multiplication, w <- a * w - c * row j with a and c the
    pivot entries of row j and w over their gcd, so w = lam * v + sum mu *
    row j with integers lam and mu. That w is lam times the element path's
    w, so the pivot values agree. Row i remembers (index, lam, steps, g)
    with row i = (lam * offered[index] + sum mu * row j) / g, and its
    coefficients in the offered vectors are one (numerators, denominator)
    pair.
    """

    def _reduce(self, v: Sequence[FieldElement]):
        """(w, lam, steps): w = lam * v + sum mu * row j over [j, mu] in steps,
        zero on every pivot, all ints."""
        w, lam = cleared([x.rep for x in v])
        steps = []
        for j, (p, row) in enumerate(zip(self.pivots, self._rows)):
            c = w[p]
            if not c:
                continue
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a == 1:
                w = [x - c * y for x, y in zip(w, row)]
            else:
                w = [a * x - c * y for x, y in zip(w, row)]
                lam *= a
                for step in steps:
                    step[1] *= a
            steps.append([j, -c])
        return w, lam, steps

    def _combine(self, steps, length: int) -> tuple[list[int], int]:
        """(nums, d): sum mu * row j over steps is sum_k nums[k] / d * offered[k], k < length."""
        while len(self._combos) < len(self._origins):
            index, lam, row_steps, g = self._origins[len(self._combos)]
            nums, d = self._sum(row_steps, index)
            nums.append(lam * d)
            d *= g
            common = gcd(d, *nums)
            self._combos.append(([n // common for n in nums], d // common))
        return self._sum(steps, length)

    def _sum(self, steps, length: int) -> tuple[list[int], int]:
        d = lcm(*[self._combos[j][1] for j, _ in steps])
        comb = [0] * length
        for j, mu in steps:
            nums, dj = self._combos[j]
            f = mu * (d // dj)
            for k, c in enumerate(nums):
                comb[k] += f * c
        return comb, d

    def offer(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        w, lam, steps = self._reduce(v)
        index = self.offered
        self.offered += 1
        for p, a in enumerate(w):
            if a:
                break
        else:
            nums, d = self._combine(steps, index)
            return _fractions(self.field, nums, d * lam)
        g = gcd(*w) if a > 0 else -gcd(*w)
        self.pivots.append(p)
        self.pivot_values.append(FieldElement(self.field, Fraction(a, lam)))
        self._rows.append([x // g for x in w])
        self._origins.append((index, lam, steps, g))
        return None

    def coordinates(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        w, lam, steps = self._reduce(v)
        if any(w):
            return None
        nums, d = self._combine(steps, self.offered)
        return _fractions(self.field, nums, -d * lam)


class _TabledSpan(SpanTracker):
    """SpanTracker over a tabled finite field, on table indices.

    The element path's rows, steps and coefficients with every element
    replaced by its index in the field's table.
    """

    def _reduce(self, v: Sequence[FieldElement]):
        w = table_indices(self.field, v)
        add, mul = self.field._table.add, self.field._table.mul
        steps = []
        for j, (p, tail) in enumerate(zip(self.pivots, self._rows)):
            f = w[p]
            if not f:
                continue
            w[p] = 0
            mf = mul[f]
            w[p + 1:] = [add[a][mf[b]] for a, b in zip(w[p + 1:], tail)]
            steps.append((j, f))
        return w, steps

    def _combine(self, steps, length: int) -> list[int]:
        while len(self._combos) < len(self._origins):
            index, scale, row_steps = self._origins[len(self._combos)]
            ms = self.field._table.mul[scale]
            self._combos.append([ms[c] for c in self._sum(row_steps, index)] + [scale])
        return self._sum(steps, length)

    def _sum(self, steps, length: int) -> list[int]:
        add, mul = self.field._table.add, self.field._table.mul
        comb = [0] * length
        for j, f in steps:
            mf = mul[f]
            row = self._combos[j]
            comb[:len(row)] = [add[a][mf[c]] for a, c in zip(comb, row)]
        return comb

    def offer(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        w, steps = self._reduce(v)
        index = self.offered
        self.offered += 1
        tab = self.field._table
        for p, a in enumerate(w):
            if a:
                break
        else:
            return [tab.elems[c] for c in self._combine(steps, index)]
        s = tab.neg[tab.inv[a]]
        ms = tab.mul[s]
        self.pivots.append(p)
        self.pivot_values.append(tab.elems[a])
        self._rows.append([ms[x] for x in w[p + 1:]])
        self._origins.append((index, s, steps))
        return None

    def coordinates(self, v: Sequence[FieldElement]) -> list[FieldElement] | None:
        w, steps = self._reduce(v)
        if any(w):
            return None
        tab = self.field._table
        return [tab.elems[tab.neg[c]] for c in self._combine(steps, self.offered)]


def solve_in_span(field, basis: Sequence[Sequence[FieldElement]],
                  target: Sequence[FieldElement]) -> list[FieldElement] | None:
    """Coefficients writing target as a combination of basis vectors, or None."""
    span = SpanTracker(field, len(target))
    for v in basis:
        span.add(v)
    return span.coordinates(target)


def _plus_scalar(m: Matrix, c: FieldElement) -> Matrix:
    """m + c * I, adding c on the diagonal only."""
    if c.is_zero():
        return m
    return Matrix._trusted(m.field, [r[:i] + (r[i] + c,) + r[i + 1:]
                                     for i, r in enumerate(m.rows)])


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


def _cyclic_annihilator(a: Matrix, v: Sequence[FieldElement]) -> Polynomial:
    # minimal monic g with g(a) v = 0: the first Krylov vector a^k v that
    # depends on v, ..., a^(k-1) v; at most nrows + 1 of them are offered
    span = SpanTracker(a.field, a.nrows)
    cur = tuple(v)
    while True:
        rel = span.offer(cur)
        if rel is not None:
            return Polynomial(a.field, rel + [a.field.one()])
        cur = a.apply(cur)


def minpoly_matrix(a: Matrix) -> Polynomial:
    """Minimal polynomial of a square matrix, monic."""
    if not a.is_square:
        raise ArityMismatch("minimal polynomial needs a square matrix")
    field = a.field
    n = a.nrows
    if n == 0:
        return Polynomial.one(field)
    zero, one = field.zero(), field.one()
    acc = None
    for j in range(n):
        g = _cyclic_annihilator(a, tuple(one if i == j else zero for i in range(n)))
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
