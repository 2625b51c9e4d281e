"""Exact matrix operations, checked against cofactor expansion and known identities."""

from itertools import combinations

import pytest

from tests.conftest import make_field
from mkt.errors import DegenerateInput
from mkt.fields import Polynomial, function_field, prime_field
from mkt.linalg import (Matrix, SpanTracker, companion_matrix, jordan_block,
                        minpoly_matrix, poly_eval_matrix, solve_in_span)


def rand_matrix(field, rng, n, span=6):
    return Matrix(field, [[field.element(rng.randint(-span, span))
                           for _ in range(n)] for _ in range(n)])


def det_cofactor(m):
    """Independent determinant oracle: Laplace expansion along the first row."""
    rows = [list(m.row(i)) for i in range(m.nrows)]
    return _det_rec(m.field, rows)


def _det_rec(field, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = field.zero()
    sign = field.one()
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total = total + sign * rows[0][j] * _det_rec(field, minor)
        sign = -sign
    return total


class TestMatrix:
    def test_det_against_cofactor(self, rng, Q):
        for n in (1, 2, 3, 4):
            m = rand_matrix(Q, rng, n)
            assert m.det() == det_cofactor(m)

    def test_det_f7(self, rng):
        F7 = prime_field(7)
        for _ in range(10):
            m = rand_matrix(F7, rng, 3)
            assert m.det() == det_cofactor(m)

    def test_inverse(self, rng, Q):
        for _ in range(10):
            m = rand_matrix(Q, rng, 3)
            if m.det().is_zero():
                continue
            assert m * m.inverse() == Matrix.identity(Q, 3)

    def test_kernel(self, Q):
        m = Matrix(Q, [[Q.element(1), Q.element(2)], [Q.element(2), Q.element(4)]])
        basis = m.kernel_basis()
        assert len(basis) == 1
        v = basis[0]
        for i in range(2):
            r = m.row(i)
            assert (r[0] * v[0] + r[1] * v[1]).is_zero()

    def test_solve(self, rng, Q):
        m = rand_matrix(Q, rng, 3)
        while m.det().is_zero():
            m = rand_matrix(Q, rng, 3)
        b = [Q.element(rng.randint(-5, 5)) for _ in range(3)]
        x = m.solve(b)
        got = [sum((m.row(i)[j] * x[j] for j in range(3)), Q.zero())
               for i in range(3)]
        assert got == b

    def test_kron_mixed_product(self, rng, Q):
        # (A kron B)(C kron D) = AC kron BD
        a, b, c, d = (rand_matrix(Q, rng, 2, span=3) for _ in range(4))
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)

    def test_direct_sum_det(self, rng, Q):
        a = rand_matrix(Q, rng, 2)
        b = rand_matrix(Q, rng, 3)
        assert a.direct_sum(b).det() == a.det() * b.det()


ELIMINATION_FIELDS = [0, 7, 9]   # Q, F_7 and the F_9 extension


def rand_entry(field, rng):
    if field.kind == "extension":
        p = field.characteristic()
        return field.element(tuple(field.base.from_int(rng.randrange(p))
                                   for _ in range(field.step_degree)))
    return field.from_int(rng.randint(-4, 4))


def rand_rect(field, rng, n, m, rank=None):
    """A random n x m matrix; with rank given, a product through rank columns."""
    def raw(a, b):
        return Matrix(field, [[rand_entry(field, rng) for _ in range(b)]
                              for _ in range(a)])
    if rank is None:
        return raw(n, m)
    if rank == 0:
        return Matrix.zeros(field, n, m)
    return raw(n, rank) * raw(rank, m)


def sample_matrices(field, rng):
    """Seeded square and rectangular matrices, most of them rank-deficient."""
    out = []
    for n, m in [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (3, 5), (4, 3)]:
        out.append(rand_rect(field, rng, n, m))
        for r in sorted({0, 1, min(n, m) - 1}):
            out.append(rand_rect(field, rng, n, m, rank=r))
    return out


def rank_by_minors(m):
    """Size of the largest nonzero minor, through the cofactor oracle."""
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(m.nrows), k):
            for cols in combinations(range(m.ncols), k):
                sub = Matrix(m.field, [[m.row(i)[j] for j in cols] for i in rows])
                if not det_cofactor(sub).is_zero():
                    return k
    return 0


def apply(m, v):
    return [sum((a * b for a, b in zip(r, v)), m.field.zero()) for r in m.rows]


@pytest.mark.parametrize("q", ELIMINATION_FIELDS)
class TestElimination:
    def test_rank_against_minors(self, q, rng):
        field = make_field(q)
        for m in sample_matrices(field, rng):
            assert m.rank() == rank_by_minors(m)

    def test_kernel_basis(self, q, rng):
        field = make_field(q)
        for m in sample_matrices(field, rng):
            basis = m.kernel_basis()
            assert len(basis) == m.ncols - m.rank()
            for v in basis:
                assert len(v) == m.ncols
                assert all(x.is_zero() for x in apply(m, v))
            if basis:
                assert Matrix(field, basis).rank() == len(basis)

    def test_det_against_cofactor(self, q, rng):
        field = make_field(q)
        for m in sample_matrices(field, rng):
            if m.is_square:
                assert m.det() == det_cofactor(m)

    def test_det_row_swap(self, q, rng):
        field = make_field(q)
        for n in (2, 3, 4):
            m = rand_rect(field, rng, n, n)
            rows = list(m.rows)
            rows[0], rows[-1] = rows[-1], rows[0]
            assert Matrix(field, rows).det() == -m.det()

    def test_inverse_singular(self, q, rng):
        field = make_field(q)
        for n in (1, 2, 3, 4):
            m = rand_rect(field, rng, n, n, rank=n - 1)
            assert m.det().is_zero()
            with pytest.raises(DegenerateInput):
                m.inverse()

    def test_inverse(self, q, rng):
        field = make_field(q)
        for m in sample_matrices(field, rng):
            if m.is_square and not m.det().is_zero():
                ident = Matrix.identity(field, m.nrows)
                assert m * m.inverse() == ident and m.inverse() * m == ident

    def test_solve(self, q, rng):
        field = make_field(q)
        for m in sample_matrices(field, rng):
            x = [rand_entry(field, rng) for _ in range(m.ncols)]
            b = apply(m, x)
            sol = m.solve(b)
            assert sol is not None and apply(m, sol) == b

    def test_solve_inconsistent(self, q, rng):
        field = make_field(q)
        for n, m in [(2, 2), (3, 3), (4, 2), (3, 4)]:
            a = rand_rect(field, rng, n, m, rank=min(n, m) - 1)
            # b outside the column space: appending it raises the rank
            while True:
                b = [rand_entry(field, rng) for _ in range(n)]
                aug = Matrix(field, [list(r) + [e] for r, e in zip(a.rows, b)])
                if rank_by_minors(aug) > rank_by_minors(a):
                    break
            assert a.solve(b) is None

    def test_span_tracker_reconstructs(self, q, rng):
        field = make_field(q)
        zero = field.zero()

        def combo(coeffs, vecs, dim):
            acc = [zero] * dim
            for c, v in zip(coeffs, vecs):
                acc = [x + c * y for x, y in zip(acc, v)]
            return acc

        for m in sample_matrices(field, rng):
            span = SpanTracker(field, m.ncols)
            offered = []
            for r in m.rows:
                rel = span.offer(r)
                if rel is not None:
                    # r + sum rel[k] * offered[k] = 0
                    assert len(rel) == len(offered)
                    assert all(x.is_zero() for x in
                               combo(rel + [field.one()], offered + [r], m.ncols))
                offered.append(r)
            assert span.rank == m.rank()
            for r in offered:
                c = span.coordinates(r)
                assert c is not None and combo(c, offered, m.ncols) == list(r)
            target = combo([rand_entry(field, rng) for _ in offered], offered, m.ncols)
            assert combo(span.coordinates(target), offered, m.ncols) == target
            assert span.contains(target)


class TestMinpoly:
    def test_companion_roundtrip(self, rng, Q):
        coeffs = [Q.element(rng.randint(-4, 4)) for _ in range(3)] + [Q.one()]
        f = Polynomial(Q, coeffs)
        assert minpoly_matrix(companion_matrix(f)) == f

    def test_jordan_block(self, Q):
        # minpoly of a Jordan block is (X - a)^n
        j = jordan_block(Q, Q.element(5), 3)
        f = minpoly_matrix(j)
        x_minus_a = Polynomial(Q, [Q.element(-5), Q.one()])
        assert f == x_minus_a * x_minus_a * x_minus_a

    def test_annihilates(self, rng):
        F5 = prime_field(5)
        m = rand_matrix(F5, rng, 4)
        f = minpoly_matrix(m)
        assert poly_eval_matrix(f, m) == Matrix.zeros(F5, 4, 4)


class TestSolveInSpan:
    def test_member(self, Q):
        b1 = (Q.element(1), Q.element(0), Q.element(1))
        b2 = (Q.element(0), Q.element(1), Q.element(1))
        target = (Q.element(2), Q.element(3), Q.element(5))
        coeffs = solve_in_span(Q, [b1, b2], target)
        assert coeffs == [Q.element(2), Q.element(3)]

    def test_non_member(self, Q):
        b1 = (Q.element(1), Q.element(0), Q.element(0))
        target = (Q.element(0), Q.element(1), Q.element(0))
        assert solve_in_span(Q, [b1], target) is None


class TestFunctionFieldMatrix:
    """Matrices over Q(t) with entries in Q[t], as in homotopy families."""

    def test_det_against_cofactor(self, rng, Q):
        entries = [[Polynomial(Q, [Q.element(rng.randint(-3, 3)),
                                   Q.element(rng.randint(-3, 3))])
                    for _ in range(3)] for _ in range(3)]
        kt = function_field(Q)
        m = Matrix(kt, [[kt.element(e) for e in r] for r in entries])
        # cofactor oracle over the polynomial ring
        def rec(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = Polynomial.zero(Q)
            for j, head in enumerate(rows[0]):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                term = head * rec(minor)
                total = total + term if j % 2 == 0 else total - term
            return total
        assert m.det() == kt.element(rec(entries))

    def test_evaluate_commutes_with_det(self, rng, Q):
        entries = [[Polynomial(Q, [Q.element(rng.randint(-3, 3)),
                                   Q.element(rng.randint(-3, 3))])
                    for _ in range(2)] for _ in range(2)]
        kt = function_field(Q)
        d = Matrix(kt, [[kt.element(e) for e in r] for r in entries]).det().rep
        assert d.den.degree == 0
        for t in (0, 1, 2):
            pt = Q.element(t)
            at = Matrix(Q, [[e.evaluate(pt) for e in r] for r in entries])
            assert at.det() == d.num.evaluate(pt)
