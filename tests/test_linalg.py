"""Exact matrix operations, checked against cofactor expansion and known identities."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from tests.conftest import TwinField, f16_over_f4, f81_over_f9, gauss_jordan, make_field
from mkt.errors import DegenerateInput
from mkt.fields import Polynomial, function_field, prime_field, rationals
from mkt.linalg import (Matrix, SpanTracker, companion_matrix, jordan_block,
                        minpoly_matrix, poly_eval_matrix)
from mkt.sampling import invertible_matrix


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

    @pytest.mark.parametrize("q", [0, 5])
    def test_shapes_with_an_empty_dimension(self, q):
        # every product with an empty dimension, the inner one among them
        field = make_field(q)
        for n, k, m in [(2, 0, 3), (0, 0, 3), (2, 0, 0), (0, 2, 3), (2, 2, 0)]:
            got = Matrix.zeros(field, n, k) * Matrix.zeros(field, k, m)
            assert (got.nrows, got.ncols) == (n, m)
            assert got == Matrix.zeros(field, n, m)
        # a matrix with no rows keeps its width
        z, one = Matrix.zeros(field, 0, 3), field.one()
        assert z != Matrix.zeros(field, 0, 2)
        assert all(w.ncols == 3 for w in (z + z, z - z, -z, z * one, z.map_entries(lambda e: e)))
        assert z.direct_sum(Matrix.zeros(field, 0, 2)).ncols == 5
        assert z.kron(Matrix.identity(field, 2)).ncols == 6
        assert z.rank() == 0 and len(z.kernel_basis()) == 3


# Mersenne prime whose residues are far beyond a machine word once multiplied
M61 = 2 ** 61 - 1

# Q, F_4 (characteristic 2, where -x is x), F_7, F_9, F_81 as a step over F_9,
# F_2 (where -1 is 1) and F_{2^61 - 1}: F_2, F_7 and F_{2^61 - 1} run
# elimination on residues, F_4 and F_9 on table indices, F_81 on elements
ELIMINATION_FIELDS = [0, 4, 7, 9, 81, 2, M61]


def elimination_field(q):
    if q == "16/4":
        return f16_over_f4()
    if q == M61:
        return prime_field(q)
    return f81_over_f9() if q == 81 else make_field(q)


def rand_entry(field, rng):
    if field.kind == "extension" and field.base.kind == "extension":
        return field.element(tuple(rand_entry(field.base, rng)
                                   for _ in range(field.step_degree)))
    if field.kind == "extension":
        p = field.characteristic()
        return field.element(tuple(field.base.from_int(rng.randrange(p))
                                   for _ in range(field.step_degree)))
    if field.kind == "function":
        # a + b t with b != 0, as in homotopy families: never a constant
        return field.from_int(rng.randint(-4, 4)) + field.from_int(rng.randint(1, 4)) * field.gen()
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
        field = elimination_field(q)
        for m in sample_matrices(field, rng):
            assert m.rank() == rank_by_minors(m)

    def test_kernel_basis(self, q, rng):
        field = elimination_field(q)
        for m in sample_matrices(field, rng):
            basis = m.kernel_basis()
            assert len(basis) == m.ncols - m.rank()
            for v in basis:
                assert len(v) == m.ncols
                assert all(x.is_zero() for x in apply(m, v))
            if basis:
                assert Matrix(field, basis).rank() == len(basis)

    def test_det_against_cofactor(self, q, rng):
        field = elimination_field(q)
        for m in sample_matrices(field, rng):
            if m.is_square:
                assert m.det() == det_cofactor(m)

    def test_det_row_swap(self, q, rng):
        field = elimination_field(q)
        for n in (2, 3, 4):
            m = rand_rect(field, rng, n, n)
            rows = list(m.rows)
            rows[0], rows[-1] = rows[-1], rows[0]
            assert Matrix(field, rows).det() == -m.det()

    def test_inverse_singular(self, q, rng):
        field = elimination_field(q)
        for n in (1, 2, 3, 4):
            m = rand_rect(field, rng, n, n, rank=n - 1)
            assert m.det().is_zero()
            with pytest.raises(DegenerateInput):
                m.inverse()

    def test_inverse(self, q, rng):
        field = elimination_field(q)
        for m in sample_matrices(field, rng):
            if m.is_square and not m.det().is_zero():
                n, inv = m.nrows, m.inverse()
                ident = Matrix.identity(field, n)
                assert m * inv == ident and inv * m == ident
                # entry (i, j) is the (j, i) cofactor over the determinant
                det = det_cofactor(m)
                for i in range(n):
                    for j in range(n):
                        minor = [r[:i] + r[i + 1:] for k, r in enumerate(m.rows) if k != j]
                        cof = _det_rec(field, minor) if minor else field.one()
                        assert inv.row(i)[j] == (cof if (i + j) % 2 == 0 else -cof) / det

    def test_solve(self, q, rng):
        field = elimination_field(q)
        for m in sample_matrices(field, rng):
            x = [rand_entry(field, rng) for _ in range(m.ncols)]
            b = apply(m, x)
            sol = m.solve(b)
            assert sol is not None and apply(m, sol) == b

    def test_solve_inconsistent(self, q, rng):
        field = elimination_field(q)
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
        # Q(t) rides along with Q: homotopy families take their k(t)
        # determinants through this tracker
        fields = [elimination_field(q)] + ([function_field(rationals())] if q == 0 else [])
        for field in fields:
            zero = field.zero()

            def combo(coeffs, vecs, dim):
                acc = [zero] * dim
                for c, v in zip(coeffs, vecs):
                    acc = [x + c * y for x, y in zip(acc, v)]
                return acc

            for m in sample_matrices(field, rng):
                span = SpanTracker(field, m.ncols)
                offered, dependent = [], []
                for i, r in enumerate(m.rows):
                    rel = span.offer(r)
                    if rel is not None:
                        # r + sum rel[k] * offered[k] = 0
                        assert len(rel) == len(offered)
                        assert all(x.is_zero() for x in
                                   combo(rel + [field.one()], offered + [r], m.ncols))
                        dependent.append(i)
                    offered.append(r)
                assert span.rank == m.rank()
                target = combo([rand_entry(field, rng) for _ in offered], offered, m.ncols)
                for r in offered + [target]:
                    c = span.coordinates(r)
                    assert c is not None and combo(c, offered, m.ncols) == list(r)
                    # an offered vector that added nothing has no coefficient
                    assert all(c[i].is_zero() for i in dependent)
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

    @pytest.mark.parametrize("q", [0, 5, 9, 2, M61])
    def test_derogatory_against_power_relation(self, q):
        """Conjugated direct sums of Jordan blocks with repeated eigenvalues,
        of equal companion blocks, and scalar matrices: the minimal polynomial
        is the first dependency among I, A, A^2, ..."""
        field = elimination_field(q)
        rng = random.Random(1700 + q)
        derogatory = 0
        for _ in range(8):
            lam, mu = rand_entry(field, rng), rand_entry(field, rng)
            comp = companion_matrix(Polynomial(field, [rand_entry(field, rng),
                                                       rand_entry(field, rng), field.one()]))
            parts = rng.choice([
                [jordan_block(field, lam, 2), jordan_block(field, lam, 1),
                 jordan_block(field, mu, 2)],
                [comp, comp, jordan_block(field, lam, 1)],
                [jordan_block(field, lam, 1)] * rng.randint(1, 4),
                [jordan_block(field, lam, 3), jordan_block(field, lam, 2)],
            ])
            a = parts[0]
            for b in parts[1:]:
                a = a.direct_sum(b)
            # unconjugated, the unit vectors see one block each
            for b in (a, a.conjugate(invertible_matrix(field, rng, a.nrows))):
                m = minpoly_matrix(b)
                assert m == Polynomial(field, power_relation(b))
                derogatory += m.degree < b.nrows
        assert derogatory >= 8


class TestPolyEval:
    @pytest.mark.parametrize("q", ELIMINATION_FIELDS)
    def test_matches_the_sum_of_powers(self, q):
        """f(a) equals the sum of c_i a^i over powers built by repeated
        products, for the zero polynomial, constants and degrees up to 4."""
        field = elimination_field(q)
        rng = random.Random(70 + q)
        for n in (1, 2, 3):
            a = rand_rect(field, rng, n, n)
            powers = [Matrix.identity(field, n)]
            for _ in range(4):
                powers.append(powers[-1] * a)
            for degree in range(-1, 5):
                coeffs = [rand_entry(field, rng) for _ in range(degree + 1)]
                if coeffs and coeffs[-1].is_zero():
                    coeffs[-1] = -field.one()
                expected = Matrix.zeros(field, n)
                for c, power in zip(coeffs, powers):
                    expected = expected + power * c
                assert poly_eval_matrix(Polynomial(field, coeffs), a) == expected

    @pytest.mark.parametrize("q", ELIMINATION_FIELDS)
    def test_monic_matches_the_sum_of_powers(self, q):
        """Monic f of degrees 1-4, whose a * lead step is skipped, with zero
        and nonzero lower coefficients."""
        field = elimination_field(q)
        rng = random.Random(170 + q)
        for n in (1, 2, 3):
            a = rand_rect(field, rng, n, n)
            powers = [Matrix.identity(field, n)]
            for _ in range(4):
                powers.append(powers[-1] * a)
            for degree in range(1, 5):
                for _ in range(3):
                    coeffs = [rand_entry(field, rng) for _ in range(degree)] + [field.one()]
                    expected = Matrix.zeros(field, n)
                    for c, power in zip(coeffs, powers):
                        expected = expected + power * c
                    assert poly_eval_matrix(Polynomial(field, coeffs), a) == expected


def power_relation(a):
    """Coefficients, lowest first, of the first relation c_0 vec(I) + ... +
    vec(A^k) = 0 among the flattened powers of a, by plain elimination on
    field elements."""
    field, zero, one = a.field, a.field.zero(), a.field.one()
    basis = []  # (pivot, row scaled to 1 there, its combination of powers)
    power, k = Matrix.identity(field, a.nrows), 0
    while True:
        vec = [x for r in power.rows for x in r]
        combo = [zero] * k + [one]
        for p, row, rc in basis:
            f = vec[p]
            vec = [x - f * y for x, y in zip(vec, row)]
            combo = [x - f * y for x, y in zip(combo, rc + [zero] * (k + 1 - len(rc)))]
        pivot = next((i for i, x in enumerate(vec) if not x.is_zero()), None)
        if pivot is None:
            return combo
        inv = vec[pivot].inverse()
        basis.append((pivot, [x * inv for x in vec], [x * inv for x in combo]))
        power, k = power * a, k + 1


def twin_values(twin, xs):
    """The elements xs of an mkt field as elements of its untabled twin."""
    return None if xs is None else [twin(twin.read(x)) for x in xs]


def interned(field, xs):
    tab = field._table
    return tab is None or all(x is tab.elems[x.ix] for x in xs)


class TwinSpan:
    """SpanTracker's answers in an untabled twin's arithmetic. A vector
    less the one combination of the stored rows that is zero on their
    pivots is unique, and so are its first nonzero entry (pivot and pivot
    value) and its coefficients in the offered vectors."""

    def __init__(self, twin, dim):
        self.zero, self.one = twin(twin.zero), twin(twin.one)
        self.dim, self.offered = dim, 0
        self.rows, self.pivots, self.pivot_values = [], [], []

    def _reduce(self, v, tail):
        """(entries, coefficients) of v with the pivots cleared, starting
        from the coefficients tail."""
        w = list(v) + tail
        for p, row in zip(self.pivots, self.rows):
            if w[p]:
                f = w[p] / row[p]
                w = [x - f * y for x, y in zip(w, row + [self.zero] * (len(w) - len(row)))]
        return w[:self.dim], w[self.dim:]

    def offer(self, v):
        n = self.offered
        self.offered += 1
        w, tail = self._reduce(v, [self.zero] * n + [self.one])
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            return tail[:n]
        self.pivots.append(p)
        self.pivot_values.append(w[p])
        self.rows.append(w + tail)
        return None

    def coordinates(self, v):
        w, tail = self._reduce(v, [self.zero] * self.offered)
        return None if any(w) else [-c for c in tail]


@pytest.mark.parametrize("q", [4, 9, "16/4", 81])
class TestTabledElimination:
    """Elimination and products on table indices, and on elements over the
    untabled F_81, against the arithmetic of the field's untabled twin
    (conftest.TwinField), which shares no code with mkt.fields."""

    def test_tracker_matches_untabled_twin(self, q, rng):
        field = elimination_field(q)
        twin = TwinField.like(field)
        one = twin(twin.one)
        for m in sample_matrices(field, rng):
            rows = [twin_values(twin, r) for r in m.rows]
            fast, slow = SpanTracker(field, m.ncols), TwinSpan(twin, m.ncols)
            for r, t in zip(m.rows, rows):
                rel = fast.offer(r)
                assert twin_values(twin, rel) == slow.offer(t)
                assert rel is None or interned(field, rel)
            assert fast.pivots == slow.pivots
            assert twin_values(twin, fast.pivot_values) == slow.pivot_values
            assert interned(field, fast.pivot_values)
            vectors = list(m.rows) + [[rand_entry(field, rng) for _ in range(m.ncols)]]
            vectors.append(m.rows[0] if m.nrows < 2 else
                           [a + rand_entry(field, rng) * b for a, b in zip(*m.rows[:2])])
            for v in vectors:
                c = fast.coordinates(v)
                assert twin_values(twin, c) == slow.coordinates(twin_values(twin, v))
                assert c is None or interned(field, c)
                assert fast.contains(v) == (c is not None)
            assert m.rank() == len(gauss_jordan(rows, m.ncols, one)[1])
            assert ([twin_values(twin, k) for k in m.kernel_basis()]
                    == oracle_kernel(rows, m.ncols, one))
            if m.is_square:
                n = m.nrows
                unit = [[one if i == j else one - one for j in range(n)] for i in range(n)]
                red, _, det = gauss_jordan([r + e for r, e in zip(rows, unit)], n, one)
                assert twin.read(m.det()) == det.v
                if det:
                    assert [twin_values(twin, r) for r in m.inverse().rows] == [r[n:] for r in red]

    def test_products_and_apply_match_untabled_twin(self, q, rng):
        field = elimination_field(q)
        twin = TwinField.like(field)
        zero = twin(twin.zero)
        for n, k, m in [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5)]:
            a, b = rand_rect(field, rng, n, k), rand_rect(field, rng, k, m)
            v = [rand_entry(field, rng) for _ in range(k)]
            ta = [twin_values(twin, r) for r in a.rows]
            ab = a * b
            assert ([twin_values(twin, r) for r in ab.rows]
                    == mat_mul(ta, [twin_values(twin, r) for r in b.rows], zero))
            assert all(interned(field, r) for r in ab.rows)
            assert (twin_values(twin, a.apply(v))
                    == [x for r in mat_mul(ta, [[x] for x in twin_values(twin, v)], zero)
                        for x in r])
            assert ab * Matrix.identity(field, m) == ab


def product_entry(field, rng):
    """A random entry: rationals with large denominators over Q, quotients
    of small polynomials over Q(t)."""
    if field.kind == "rationals":
        return field.element(frac_entry(rng))
    if field.kind == "function":
        k = field.base
        num = Polynomial(k, [k.element(frac_entry(rng)) for _ in range(rng.randint(0, 3))])
        den = Polynomial(k, [k.element(rng.randint(1, 3)), k.element(rng.randint(-2, 2))])
        return field.element(num) / field.element(den)
    return rand_entry(field, rng)


def schoolbook(field, a, b, ncols):
    """The n x ncols product of the entry lists a (n x k) and b (k x ncols)
    by the triple loop."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), field.zero())
             for j in range(ncols)] for i in range(len(a))]


PRODUCT_FIELDS = {
    "Q": rationals,
    "F7": lambda: prime_field(7),
    "F9": lambda: make_field(9),
    "F16/F4": f16_over_f4,
    "F81/F9": f81_over_f9,
    "Q(t)": lambda: function_field(rationals()),
}


@pytest.mark.parametrize("name", PRODUCT_FIELDS)
def test_product_against_schoolbook(name):
    """Matrix * Matrix against the triple loop, in every kernel: integer rows
    over Q, residues, tabled indices, untabled steps and rational functions."""
    field = PRODUCT_FIELDS[name]()
    rng = random.Random(7)
    # 0 x 0, n x 0 by 0 x 0, 1 x n by n x 1, n x 1 by 1 x n, rectangular
    shapes = [(0, 0, 0), (3, 0, 0), (1, 4, 1), (4, 1, 4), (2, 3, 4), (4, 2, 3), (3, 3, 3)]
    for n, k, m in shapes:
        for _ in range(2):
            a = [[product_entry(field, rng) for _ in range(k)] for _ in range(n)]
            b = [[product_entry(field, rng) for _ in range(m)] for _ in range(k)]
            got = Matrix(field, a) * Matrix(field, b)
            assert (got.nrows, len(got.rows[0]) if got.rows else 0) == (n, m if n else 0)
            assert [list(r) for r in got.rows] == schoolbook(field, a, b, m)


def tracker_of(field, basis):
    span = SpanTracker(field, len(basis[0]))
    for v in basis:
        span.add(v)
    return span


class TestSpanCoordinates:
    def test_member(self, Q):
        b1 = (Q.element(1), Q.element(0), Q.element(1))
        b2 = (Q.element(0), Q.element(1), Q.element(1))
        target = (Q.element(2), Q.element(3), Q.element(5))
        coeffs = tracker_of(Q, [b1, b2]).coordinates(target)
        assert coeffs == [Q.element(2), Q.element(3)]

    def test_non_member(self, Q):
        b1 = (Q.element(1), Q.element(0), Q.element(0))
        target = (Q.element(0), Q.element(1), Q.element(0))
        assert tracker_of(Q, [b1]).coordinates(target) is None


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


# ---------------------------------------------------------------------------
# elimination over Q against a test-local Fraction Gauss-Jordan


def frac_entry(rng):
    """A rational with a small signed numerator and a denominator up to 10^30."""
    den = rng.choice([1, 1, 2, 3, 7, 12, rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 30)])
    return Fraction(rng.randint(-9, 9), den)


def frac_rows(rng, n, m):
    """n x m Fraction rows: full, low rank, with zero or repeated rows."""
    shape = rng.choice(["full", "low", "zero", "repeat"])
    if shape == "low" and min(n, m) > 1:
        r = rng.randint(1, min(n, m) - 1)
        left = [[frac_entry(rng) for _ in range(r)] for _ in range(n)]
        right = [[frac_entry(rng) for _ in range(m)] for _ in range(r)]
        return mat_mul(left, right)
    rows = [[frac_entry(rng) for _ in range(m)] for _ in range(n)]
    if shape == "zero" and n:
        rows[rng.randrange(n)] = [Fraction(0)] * m
    if shape == "repeat" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i] = [x * rng.choice([1, -1, Fraction(-3, 7)]) for x in rows[j]]
    return rows


def q_samples(seed):
    """Seeded square (0-7) and rectangular Fraction matrices."""
    rng = random.Random(seed)
    shapes = [(n, n) for n in range(8)] + [(2, 5), (5, 2), (3, 4), (6, 3), (1, 7), (7, 1)]
    return [frac_rows(rng, n, m) for n, m in shapes for _ in range(3)]


def mat_mul(a, b, zero=Fraction(0)):
    cols = list(zip(*b)) if b else []
    return [[sum((x * y for x, y in zip(r, c)), zero) for c in cols] for r in a]


def oracle_kernel(rows, ncols, one=Fraction(1)):
    """Per dependent column j: -(its coordinates on the earlier pivot
    columns), 1 at j, and zeros everywhere else."""
    red, pivots, _ = gauss_jordan(rows, ncols, one)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [one - one] * ncols
        v[j] = one
        for i, p in enumerate(pivots):
            if p < j:
                v[p] = -red[i][j]
        out.append(v)
    return out


def oracle_minpoly(rows):
    """Coefficients, lowest first, of the first monic relation among
    vec(I), vec(A), vec(A^2), ... found by Gauss-Jordan."""
    n = len(rows)
    if not n:
        return [Fraction(1)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    vecs = []
    while True:
        vecs.append([x for r in power for x in r])
        # columns are the powers; a relation is a kernel vector with a 1 last
        kern = oracle_kernel([list(c) for c in zip(*vecs)], len(vecs))
        if kern:
            return kern[0]
        power = mat_mul(power, rows)


def q_matrix(rows):
    Q = rationals()
    return Matrix(Q, [[Q.element(x) for x in r] for r in rows])


def fracs(v):
    return [x.rep for x in v]


def span_of(rows, ncols):
    return len(gauss_jordan(rows, ncols)[1])


class TestRationalElimination:
    """Q takes the integer-row path; a Fraction Gauss-Jordan is the oracle."""

    def test_det_rank_and_inverse(self):
        for rows in q_samples(1):
            ncols = len(rows[0]) if rows else 0
            m = q_matrix(rows)
            _, pivots, det = gauss_jordan(rows, ncols)
            assert m.rank() == len(pivots)
            if not m.is_square:
                continue
            assert m.det().rep == det
            if det == 0:
                with pytest.raises(DegenerateInput):
                    m.inverse()
                continue
            inv = m.inverse()
            ident = [[Fraction(int(i == j)) for j in range(m.nrows)] for i in range(m.nrows)]
            assert mat_mul(rows, [fracs(r) for r in inv.rows]) == ident
            assert m * inv == Matrix.identity(m.field, m.nrows)

    def test_products_and_apply(self):
        rng = random.Random(2)
        for rows in q_samples(2):
            ncols = len(rows[0]) if rows else 0
            other = frac_rows(rng, ncols, rng.randint(0, 4)) if ncols else []
            v = [frac_entry(rng) for _ in range(ncols)]
            m = q_matrix(rows)
            if other:
                got = m * q_matrix(other)
                assert [fracs(r) for r in got.rows] == mat_mul(rows, other)
            assert fracs(m.apply(m.field.element(x) for x in v)) == \
                [sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows]

    def test_kernel_basis(self):
        for rows in q_samples(3):
            ncols = len(rows[0]) if rows else 0
            m = q_matrix(rows)
            basis = [fracs(v) for v in m.kernel_basis()]
            assert basis == oracle_kernel(rows, ncols)
            for v in basis:
                assert mat_mul(rows, [[x] for x in v]) == [[0]] * len(rows)

    def test_offer_relation(self):
        Q = rationals()
        for rows in q_samples(4):
            ncols = len(rows[0]) if rows else 0
            span = SpanTracker(Q, ncols)
            offered, pivot_values = [], []
            for r in rows:
                rel = span.offer([Q.element(x) for x in r])
                # r with the pivots of the earlier rows cleared; its first
                # nonzero entry is the pivot of elimination in offering order
                w = list(r)
                for red, p in zip(*gauss_jordan(offered, ncols)[:2]):
                    w = [x - w[p] * y for x, y in zip(w, red)]
                if any(w):
                    assert rel is None
                    pivot_values.append(next(x for x in w if x))
                else:
                    assert rel is not None
                    rel = fracs(rel)
                    assert len(rel) == len(offered)
                    assert [x + sum((c * o[k] for c, o in zip(rel, offered)), Fraction(0))
                            for k, x in enumerate(r)] == [0] * ncols
                offered.append(r)
            assert fracs(span.pivot_values) == pivot_values

    def test_coordinates_and_solve(self):
        Q = rationals()
        rng = random.Random(5)
        for rows in q_samples(5):
            ncols = len(rows[0]) if rows else 0
            span = SpanTracker(Q, ncols)
            for r in rows:
                span.add([Q.element(x) for x in r])
            coeffs = [frac_entry(rng) for _ in rows]
            inside = [sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0))
                      for k in range(ncols)]
            assert span.contains([Q.element(x) for x in inside])
            got = fracs(span.coordinates([Q.element(x) for x in inside]))
            assert [sum((c * r[k] for c, r in zip(got, rows)), Fraction(0))
                    for k in range(ncols)] == inside
            outside = [frac_entry(rng) for _ in range(ncols)]
            if span_of(rows + [outside], ncols) > span_of(rows, ncols):
                assert span.coordinates([Q.element(x) for x in outside]) is None
                assert not span.contains([Q.element(x) for x in outside])
            # the same vectors as columns: A x = inside has a solution
            cols = [list(c) for c in zip(*rows)]
            if cols:
                m = q_matrix(cols)
                x = fracs(m.solve([Q.element(b) for b in inside]))
                assert [sum((a * y for a, y in zip(c, x)), Fraction(0))
                        for c in cols] == inside
                if span_of(rows + [outside], ncols) > span_of(rows, ncols):
                    assert m.solve([Q.element(b) for b in outside]) is None

    def test_minpoly(self):
        for rows in q_samples(6):
            n = len(rows)
            if rows and len(rows[0]) != n:
                continue
            coeffs = fracs(minpoly_matrix(q_matrix(rows)).coeffs)
            # it annihilates A ...
            acc = [[Fraction(0)] * n for _ in range(n)]
            for c in reversed(coeffs):
                acc = [[x + (c if i == j else 0) for j, x in enumerate(r)]
                       for i, r in enumerate(mat_mul(acc, rows))]
            assert acc == [[0] * n for _ in range(n)]
            # ... and no monic polynomial of lower degree does, so no proper divisor
            assert coeffs == oracle_minpoly(rows)


# ---------------------------------------------------------------------------
# the integer forms over Q against the element API


def twin_samples(seed):
    """Seeded Fraction matrices: 0 x 0, 1 x 1, square and rectangular, each
    also with a zero row and with a zero column."""
    rng = random.Random(seed)
    out = [[], [[frac_entry(rng)]], [[Fraction(0)]]]
    for n, m in [(2, 2), (3, 3), (4, 4), (2, 5), (5, 2), (3, 4)]:
        for _ in range(2):
            rows = frac_rows(rng, n, m)
            out.append(rows)
            i, j = rng.randrange(n), rng.randrange(m)
            out.append([[Fraction(0)] * m if k == i else r for k, r in enumerate(rows)])
            out.append([[Fraction(0) if k == j else x for k, x in enumerate(r)] for r in rows])
    return out


def int_form(rng, xs):
    """xs as (integer numerators, denominator) over a common denominator
    times a random factor: negative, or sharing a factor with every entry."""
    d = lcm(*[x.denominator for x in xs]) * rng.choice([1, -1, 6, -35, 10 ** 20])
    return [int(x * d) for x in xs], d


def values(pair):
    nums, d = pair
    return [Fraction(n, d) for n in nums]


def from_int_rows(rng, rows):
    """The matrix rows over Q built from integer rows over one denominator."""
    nums, d = int_form(rng, [x for r in rows for x in r])
    m = len(rows[0]) if rows else 0
    return Matrix._from_ints(rationals(), [nums[i * m:(i + 1) * m] for i in range(len(rows))], d)


class TestIntegerForms:
    """Matrices built from integer rows and vectors given as (numerators,
    denominator) pairs, against q_matrix and the public element API."""

    def test_built_from_integer_rows(self):
        rng = random.Random(31)
        for rows in twin_samples(31):
            a, b = from_int_rows(rng, rows), q_matrix(rows)
            assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
            # equality before either has made its element rows
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert a.rows == b.rows and [fracs(r) for r in a.rows] == rows
            assert a._form() == b._form()
            if rows and any(any(r) for r in rows):
                assert a != from_int_rows(rng, [[-x for x in r] for r in rows])

    def test_pair_paths_match_the_element_api(self):
        Q = rationals()
        rng = random.Random(32)
        for rows in twin_samples(32):
            ncols = len(rows[0]) if rows else 0
            m = from_int_rows(rng, rows)
            v = [frac_entry(rng) for _ in range(ncols)]
            assert values(m._apply(int_form(rng, v))) == fracs(m.apply(Q.element(x) for x in v))
            pairs, elements = SpanTracker(Q, ncols), SpanTracker(Q, ncols)
            for r in rows:
                rel = pairs._offer(int_form(rng, r))
                expected = elements.offer([Q.element(x) for x in r])
                assert (rel is None) == (expected is None)
                assert rel is None or values(rel) == fracs(expected)
            assert pairs.pivot_values == elements.pivot_values
            coeffs = [frac_entry(rng) for _ in rows]
            inside = [sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0))
                      for k in range(ncols)]
            for u in (inside, [frac_entry(rng) for _ in range(ncols)]):
                got = pairs._coordinates(int_form(rng, u))
                expected = elements.coordinates([Q.element(x) for x in u])
                assert (got is None) == (expected is None)
                assert got is None or values(got) == fracs(expected)
                assert pairs._contains(int_form(rng, u)) == elements.contains(
                    [Q.element(x) for x in u])

    def test_kernel_minpoly_and_poly_eval_match_the_oracles(self):
        Q = rationals()
        rng = random.Random(33)
        for rows in twin_samples(33):
            ncols = len(rows[0]) if rows else 0
            m = from_int_rows(rng, rows)
            assert [fracs(v) for v in m.kernel_basis()] == oracle_kernel(rows, ncols)
            assert [values(v) for v in m._kernel_basis()] == oracle_kernel(rows, ncols)
            if len(rows) != ncols:
                continue
            assert fracs(minpoly_matrix(m).coeffs) == oracle_minpoly(rows)
            coeffs = [frac_entry(rng) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
            expected = [[Fraction(0)] * ncols for _ in rows]
            for c in reversed(coeffs):
                expected = [[x + (c if i == j else 0) for j, x in enumerate(r)]
                            for i, r in enumerate(mat_mul(expected, rows))]
            got = poly_eval_matrix(Polynomial(Q, [Q.element(c) for c in coeffs]), m)
            assert [fracs(r) for r in got.rows] == expected
