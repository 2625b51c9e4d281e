"""Exact matrix operations, checked against cofactor expansion and known identities."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tests.conftest import (f16_over_f4, f81_over_f9, make_field, twin_element,
                            untabled_twin)
from mkt.errors import DegenerateInput
from mkt.fields import Polynomial, forget, function_field, prime_field, rationals
from mkt.linalg import (Matrix, SpanTracker, companion_matrix, jordan_block,
                        minpoly_matrix, poly_eval_matrix, solve_in_span)
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


# Q, F_4 (characteristic 2, where -x is x), F_7, F_9, and F_81 as a step over
# F_9; F_4 and F_9 run elimination on table indices, F_81 on elements
ELIMINATION_FIELDS = [0, 4, 7, 9, 81]


def elimination_field(q):
    if q == "16/4":
        return f16_over_f4()
    return f81_over_f9() if q == 81 else make_field(q)


def rand_entry(field, rng):
    if field.kind == "extension" and field.base.kind == "extension":
        return field.element(tuple(rand_entry(field.base, rng)
                                   for _ in range(field.step_degree)))
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
                ident = Matrix.identity(field, m.nrows)
                assert m * m.inverse() == ident and m.inverse() * m == ident

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
        field = elimination_field(q)
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

    @pytest.mark.parametrize("q", [0, 5, 9])
    def test_derogatory_against_power_relation(self, q):
        """Conjugated direct sums of Jordan blocks with repeated eigenvalues,
        of equal companion blocks, and scalar matrices: the minimal polynomial
        is the first dependency among I, A, A^2, ..."""
        field = make_field(q)
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


def twin_vector(twin, v):
    return [twin_element(twin, x) for x in v]


def twin_matrix(twin, m):
    return Matrix(twin, [twin_vector(twin, r) for r in m.rows])


def interned(field, xs):
    elems = field._table.elems
    return all(x is elems[x.ix] for x in xs)


@pytest.mark.parametrize("q", [4, 9, "16/4"])
class TestTabledElimination:
    """Elimination and products on table indices against the element path,
    run on an equal descriptor that never builds a table."""

    @pytest.fixture(autouse=True)
    def cold(self):
        forget()
        yield
        forget()

    def test_tracker_matches_untabled_twin(self, q, rng):
        field = elimination_field(q)
        twin = untabled_twin(field)
        for m in sample_matrices(field, rng):
            t = twin_matrix(twin, m)
            fast, slow = SpanTracker(field, m.ncols), SpanTracker(twin, m.ncols)
            assert type(fast) is not SpanTracker and type(slow) is SpanTracker
            for r, s in zip(m.rows, t.rows):
                rel = fast.offer(r)
                assert rel == slow.offer(s)
                assert rel is None or interned(field, rel)
            assert fast.pivots == slow.pivots and fast.pivot_values == slow.pivot_values
            assert interned(field, fast.pivot_values)
            vectors = list(m.rows) + [[rand_entry(field, rng) for _ in range(m.ncols)]]
            vectors.append(m.rows[0] if m.nrows < 2 else
                           [a + rand_entry(field, rng) * b for a, b in zip(*m.rows[:2])])
            for v in vectors:
                c = fast.coordinates(v)
                assert c == slow.coordinates(twin_vector(twin, v))
                assert c is None or interned(field, c)
                assert fast.contains(v) == slow.contains(twin_vector(twin, v)) == (c is not None)
            assert m.rank() == t.rank() and m.kernel_basis() == t.kernel_basis()
            if m.is_square:
                assert m.det() == t.det()
                if not m.det().is_zero():
                    assert m.inverse() == t.inverse()

    def test_products_and_apply_match_untabled_twin(self, q, rng):
        field = elimination_field(q)
        twin = untabled_twin(field)
        for n, k, m in [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5)]:
            a, b = rand_rect(field, rng, n, k), rand_rect(field, rng, k, m)
            v = [rand_entry(field, rng) for _ in range(k)]
            ab = a * b
            assert ab == twin_matrix(twin, a) * twin_matrix(twin, b)
            assert all(interned(field, r) for r in ab.rows)
            assert a.apply(v) == twin_matrix(twin, a).apply(twin_vector(twin, v))
            # index rows, built on first use, hold the entries' indices
            assert ab * Matrix.identity(field, m) == ab
            assert ab._index_rows() == [[x.ix for x in r] for r in ab.rows]


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


def mat_mul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols] for r in a]


def gauss_jordan(rows, ncols):
    """(reduced rows, pivot columns, det): plain Fraction Gauss-Jordan with
    row swaps; det is the signed product of the pivots (square input only)."""
    a = [list(r) for r in rows]
    pivots, det, top = [], Fraction(1), 0
    for j in range(ncols):
        i = next((i for i in range(top, len(a)) if a[i][j]), None)
        if i is None:
            continue
        if i != top:
            a[i], a[top] = a[top], a[i]
            det = -det
        det *= a[top][j]
        piv = a[top][j]
        a[top] = [x / piv for x in a[top]]
        for k in range(len(a)):
            if k != top and a[k][j]:
                f = a[k][j]
                a[k] = [x - f * y for x, y in zip(a[k], a[top])]
        pivots.append(j)
        top += 1
    return a, pivots, det if top == len(a) else Fraction(0)


def oracle_kernel(rows, ncols):
    """Per dependent column j: -(its coordinates on the earlier pivot
    columns), 1 at j, and zeros everywhere else."""
    red, pivots, _ = gauss_jordan(rows, ncols)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
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
