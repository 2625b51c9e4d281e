"""Commuting tuples, homotopy families, composition series, and the reduction map."""

import random
from fractions import Fraction
from functools import partial

import pytest

from mkt import commuting
from mkt.canonical import canonical_class
from mkt.commuting import (MatrixTuple, class_of_tuple, composition_series,
                           homotopy_mult, homotopy_shear, homotopy_steinberg,
                           homotopy_swap, kronecker, reduce_tuple)
from mkt.errors import (ArityMismatch, DegenerateInput, NotUnitDeterminant,
                        UnsupportedField, UnsupportedTower)
from mkt.fields import (Polynomial, embed, extension, function_field, prime_field,
                        rationals)
from mkt.jointdet import check_axioms, make_determinant
from mkt.linalg import Matrix, companion_matrix, jordan_block, poly_eval_matrix
from mkt.sampling import (commuting_tuple, invertible_matrix, monic_irreducible,
                          random_element, random_unit)
from mkt.symbols import symbol
from mkt.transfer import transfer_tower
from tests.conftest import f81_over_f9, make_field

Qf = rationals()
Qt = function_field(Qf)
T = Qt.gen()


def qmat(rows):
    return Matrix(Qf, [[Qf.element(Fraction(v)) for v in r] for r in rows])


def blocks(tl, tr, bl, br):
    """The block matrix [[tl, tr], [bl, br]]."""
    return Matrix(tl.field, [a + b for a, b in zip(tl.rows + bl.rows, tr.rows + br.rows)])


def scalar_tuple(field, *vals):
    return MatrixTuple.scalars(field, [field.element(v) for v in vals])


class TestConstruction:
    def test_non_commuting_rejected(self):
        a = qmat([[1, 1], [0, 1]])
        b = qmat([[1, 0], [1, 1]])
        with pytest.raises(DegenerateInput):
            MatrixTuple(Qf, [a, b])

    def test_singular_rejected(self):
        with pytest.raises(DegenerateInput):
            MatrixTuple(Qf, [qmat([[1, 1], [1, 1]])])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ArityMismatch):
            MatrixTuple(Qf, [qmat([[2]]), qmat([[1, 0], [0, 1]])])


class TestDirectSum:
    def test_scalars(self):
        # [TRIVIAL] (a) + (b) stacks to diag(a, b)
        x = scalar_tuple(Qf, 2).direct_sum(scalar_tuple(Qf, 3))
        assert x.size == 2
        assert x.matrices[0] == qmat([[2, 0], [0, 3]])

    def test_identity_slot_neutral(self, rng):
        # [PAPER] appending an identity tuple does not move the class
        x = commuting_tuple(Qf, rng, 2, 2)
        y = x.direct_sum(MatrixTuple.identity(Qf, 3, 2))
        assert class_of_tuple(x) == class_of_tuple(y)

    def test_mixed_sizes_commute(self, rng):
        x = commuting_tuple(Qf, rng, 2, 2)
        y = commuting_tuple(Qf, rng, 2, 3)
        z = x.direct_sum(y)
        assert z.size == 5
        assert class_of_tuple(z) == class_of_tuple(x) + class_of_tuple(y)


class TestKronecker:
    def test_mixed_product_identity(self, rng):
        # [PAPER] (A kron I)(I kron B) = A kron B in both orders
        x = commuting_tuple(Qf, rng, 1, 2)
        y = commuting_tuple(Qf, rng, 1, 2)
        z = kronecker(x, y)
        a = z.matrices[0]
        b = z.matrices[1]
        assert a * b == b * a
        assert a * b == x.matrices[0].kron(y.matrices[0])

    def test_scalar_case(self):
        # [TRIVIAL] scalars concatenate
        z = kronecker(scalar_tuple(Qf, 2), scalar_tuple(Qf, 3))
        assert z.weight == 2 and z.size == 1
        assert class_of_tuple(z) == canonical_class(
            symbol([Qf.element(2), Qf.element(3)]))

    def test_class_multiplicative_on_scalars(self, rng):
        """[DERIVED] reduction of a Kronecker product multiplies the symbols."""
        for _ in range(20):
            a = Qf.element(rng.choice([2, 3, 5, -1, Fraction(1, 2)]))
            b = Qf.element(rng.choice([2, 3, 5, -1, 7]))
            z = kronecker(MatrixTuple.scalars(Qf, [a]),
                          MatrixTuple.scalars(Qf, [b]))
            assert class_of_tuple(z) == canonical_class(symbol([a, b]))


class TestBoundary:
    def test_constant_family(self):
        # [TRIVIAL] a constant family has equal endpoints
        x = scalar_tuple(Qf, 2, 3)
        h = MatrixTuple(Qt, [m.map_entries(lambda e: embed(e, Qt), Qt)
                             for m in x.matrices])
        at1, at0 = h.boundary()
        assert at1.matrices == x.matrices and at0.matrices == x.matrices

    def test_mult_family_endpoints(self):
        """[PAPER] the multiplicativity family joins I (+) BC with B (+) C."""
        b = qmat([[2, 0], [0, 3]])
        c = qmat([[5, 0], [0, 7]])
        h = homotopy_mult(b, c)
        at1, at0 = h.boundary()
        assert at1.size == at0.size == 4
        assert class_of_tuple(at1) == class_of_tuple(at0)

    def test_unit_det_enforced(self):
        # entries with parameter-dependent determinant are rejected
        with pytest.raises(NotUnitDeterminant):
            MatrixTuple(Qt, [Matrix(Qt, [[T]])])

    def test_non_polynomial_entries_rejected(self):
        # diag(t, 1/t) has determinant 1 but no inverse over Q[t]
        with pytest.raises(NotUnitDeterminant):
            MatrixTuple(Qt, [Matrix(Qt, [[T, 0], [0, T.inverse()]])])

    def test_conjugate_family_keeps_the_checks(self):
        # diag(t, 1) is invertible over Q(t) but not over Q[t]: the
        # conjugate has the entry -6/t
        h = homotopy_mult(qmat([[2]]), qmat([[3]]))
        with pytest.raises(NotUnitDeterminant):
            h.conjugate(Matrix(Qt, [[T, 0], [0, 1]]))

    def test_boundary_needs_function_field(self):
        with pytest.raises(UnsupportedField):
            scalar_tuple(Qf, 2, 3).boundary()


class TestHomotopyFamilies:
    def test_steinberg_determinants(self):
        """[PAPER] det A(t) = -ab and det(I - A(t)) = (1-a)(1-b), constant in t."""
        a, b = Qf.element(3), Qf.element(5)
        h = homotopy_steinberg(a, b)
        d0 = h.matrices[0].det()
        d1 = h.matrices[1].det()
        assert d0 == embed(-(a * b), Qt)
        assert d1 == embed((Qf.one() - a) * (Qf.one() - b), Qt)

    def test_steinberg_endpoint_classes(self, rng):
        for _ in range(10):
            a = Qf.element(rng.choice([2, 3, 5, -2, Fraction(2, 3)]))
            b = Qf.element(rng.choice([2, 3, 5, -3, Fraction(5, 7)]))
            h = homotopy_steinberg(a, b)
            at1, at0 = h.boundary()
            assert class_of_tuple(at1) == class_of_tuple(at0)

    def test_steinberg_rejects_unit_arguments(self):
        with pytest.raises(DegenerateInput):
            homotopy_steinberg(Qf.element(1), Qf.element(3))

    def test_shear_endpoints(self):
        """[PAPER] the shear family is block-diagonal at t=0 and the given
        block-triangular matrix at t=1."""
        a = qmat([[2, 0], [0, 2]])
        b = qmat([[3, 0], [0, 3]])
        c = qmat([[1, 2], [3, 4]])
        # the bystander blocks must intertwine c, so keep them scalar-equal
        pair = (qmat([[5, 0], [0, 5]]), qmat([[5, 0], [0, 5]]))
        h = homotopy_shear(a, b, c, bystanders=[pair])
        at1, at0 = h.boundary()
        top_right = [at0.matrices[0].row(i)[j] for i in range(2)
                     for j in range(2, 4)]
        assert all(e.is_zero() for e in top_right)
        assert class_of_tuple(at1) == class_of_tuple(at0)

    def test_swap_endpoints(self, rng):
        x = commuting_tuple(Qf, rng, 2, 2)
        h = homotopy_swap(x, 0, 1)
        at1, at0 = h.boundary()
        assert class_of_tuple(at1) == class_of_tuple(at0)

    def test_trusted_families_pass_the_public_checks(self, rng):
        # the families skip the constructor's checks over k(t); their slots
        # must pass them anyway
        x = commuting_tuple(Qf, rng, 4, 3)
        jordan = qmat([[5, 1], [0, 5]])
        families = [homotopy_swap(commuting_tuple(Qf, rng, 3, 2), 0, 2),
                    homotopy_steinberg(Qf.element(3), Qf.element(Fraction(2, 3)),
                                       [Qf.element(-2)]),
                    homotopy_mult(x.matrices[0], x.matrices[1], x.matrices[2:]),
                    homotopy_shear(qmat([[2, 1], [0, 2]]), qmat([[3, 1], [0, 3]]),
                                   qmat([[1, 0], [0, 1]]),
                                   bystanders=[(jordan, jordan),
                                               (qmat([[2, 0], [0, 2]]), qmat([[2, 0], [0, 2]]))])]
        for h in families:
            assert MatrixTuple(h.field, h.matrices) == h

    def test_shear_bystander_must_intertwine(self):
        # (T, U) commutes with A and with B, but T C != C U
        c = qmat([[1, 2], [3, 4]])
        pair = (qmat([[5, 0], [0, 5]]), qmat([[5, 0], [0, 7]]))
        with pytest.raises(DegenerateInput):
            homotopy_shear(qmat([[2, 0], [0, 2]]), qmat([[3, 0], [0, 3]]), c,
                           bystanders=[pair])

    def test_shear_bystander_blocks_must_match_a_and_b(self):
        # the pair's sum is S(1), so the t = 1 tuple commutes, but its 2 x 2
        # top and 1 x 1 bottom do not split along A (1 x 1) and B (2 x 2),
        # and over k(t) the slots do not commute
        a, b, c = qmat([[2]]), qmat([[3, 0], [0, 5]]), qmat([[1, 0]])
        pair = (qmat([[2, 1], [0, 3]]), qmat([[5]]))
        with pytest.raises(ArityMismatch):
            homotopy_shear(a, b, c, bystanders=[pair])
        with pytest.raises(ArityMismatch):
            homotopy_shear(a, b, c, bystanders=[(qmat([[2]]), qmat([[3, 0]]))])

    def test_mult_bystander_must_commute_with_both_factors(self):
        # the swap commutes with B + C = 3I and BC = 2I, so with the family
        # slot for every t, but not with B itself
        b, c = qmat([[1, 0], [0, 2]]), qmat([[2, 0], [0, 1]])
        with pytest.raises(DegenerateInput):
            homotopy_mult(b, c, [qmat([[0, 1], [1, 0]])])

    def test_mult_requires_commuting(self):
        b = qmat([[1, 1], [0, 1]])
        c = qmat([[1, 0], [1, 1]])
        with pytest.raises(DegenerateInput):
            homotopy_mult(b, c)


class TestCompositionSeries:
    def test_diagonal_pair(self):
        # [TRIVIAL] diag splits into eigenline factors
        x = MatrixTuple(Qf, [qmat([[2, 0], [0, 3]]), qmat([[5, 0], [0, 7]])])
        factors = composition_series(x)
        seen = {tuple(str(s) for s in f.scalars) for f in factors}
        assert seen == {("2", "5"), ("3", "7")}
        assert all(f.extension == Qf and f.multiplicity == 1 for f in factors)

    def test_companion_is_simple_over_f2(self):
        """[DERIVED] the companion of X^2+X+1 over F_2 fixes no line.

        All three nonzero vectors of F_2^2 are checked directly; the module
        is simple, so the single factor is F_4 with the generator acting.
        """
        F2 = prime_field(2)
        f = Polynomial.from_ints(F2, [1, 1, 1])
        m = companion_matrix(f)
        vecs = [(F2.one(), F2.zero()), (F2.zero(), F2.one()),
                (F2.one(), F2.one())]
        for v in vecs:
            img = tuple(sum((m.row(i)[j] * v[j] for j in range(2)),
                            F2.zero()) for i in range(2))
            # over F_2 a fixed line means a fixed nonzero vector
            assert img != v
        factors = composition_series(MatrixTuple(F2, [m]))
        assert len(factors) == 1
        f0 = factors[0]
        assert f0.multiplicity == 1
        assert f0.extension.kind == "extension"
        assert f0.scalars[0] == f0.extension.gen()

    def test_jordan_pair_multiplicity(self):
        # [DERIVED] invariant flags of a Jordan block all share one eigenline
        a, b = Qf.element(2), Qf.element(3)
        x = MatrixTuple(Qf, [jordan_block(Qf, a, 2),
                             Matrix.identity(Qf, 2).map_entries(lambda e: e * b)])
        factors = composition_series(x)
        assert len(factors) == 1
        assert factors[0].multiplicity == 2
        assert [str(s) for s in factors[0].scalars] == ["2", "3"]

    def test_conjugation_invariance(self, rng):
        for field in (Qf, prime_field(5)):
            x = commuting_tuple(field, rng, 2, 3)
            s = invertible_matrix(field, rng, 3)
            y = x.conjugate(s)
            a = [(f.multiplicity, tuple(str(v) for v in f.scalars))
                 for f in composition_series(x)]
            b = [(f.multiplicity, tuple(str(v) for v in f.scalars))
                 for f in composition_series(y)]
            assert sorted(a) == sorted(b)

    # X^2 + 1 and its companion; S is a fixed invertible change of basis
    I2 = qmat([[1, 0], [0, 1]])
    A = qmat([[0, -1], [1, 0]])
    S = qmat([[1, 2, 0, 1], [0, 1, -1, 0], [3, 0, 1, 2], [1, 1, 0, 1]])

    def gaussian_series(self, a, b):
        """The factors of (a, b) conjugated by S, and Q[x]/(x^2 + 1)."""
        x = MatrixTuple(Qf, [a, b]).conjugate(self.S)
        return composition_series(x), extension(Qf, Polynomial.from_ints(Qf, [1, 0, 1]))

    def test_rational_extension_splits_through_q(self):
        """[DERIVED] Over E = Q[x]/(x^2 + 1) the second slot has eigenvalues 1
        and 2; its minimal polynomial is split over E through its norm to Q."""
        factors, E = self.gaussian_series(self.A.direct_sum(self.A),
                                          self.I2.direct_sum(self.I2 * 2))
        assert [(f.extension, f.scalars, f.multiplicity) for f in factors] == [
            (E, (E.gen(), E.one()), 1), (E, (E.gen(), E.from_int(2)), 1)]

    def test_conjugate_eigenvalues_split_over_extension(self):
        """[DERIVED] Over E the second slot of (A + A, A + (-A)) acts by x and
        by -x. Its minimal polynomial X^2 + 1 has a norm to Q that is
        squarefree only after the shift X -> X - 2x, so the two factors come
        from the third Trager shift. The class is {x, -x} + {x, x} = 0."""
        factors, E = self.gaussian_series(self.A.direct_sum(self.A),
                                          self.A.direct_sum(-self.A))
        i = E.gen()
        assert [(f.extension, f.scalars, f.multiplicity) for f in factors] == [
            (E, (i, -i), 1), (E, (i, i), 1)]
        x = MatrixTuple(Qf, [self.A.direct_sum(self.A), self.A.direct_sum(-self.A)])
        assert class_of_tuple(x).is_zero()

    def test_companion_jordan_block_multiplicity(self):
        # [DERIVED] [[A, I], [0, A]] has one factor, E with x acting, twice
        z = Matrix.zeros(Qf, 2)
        a = blocks(self.A, self.I2, z, self.A)
        factors, E = self.gaussian_series(a, Matrix.identity(Qf, 4) * 3)
        assert [(f.extension, f.scalars, f.multiplicity) for f in factors] == [
            (E, (E.gen(), E.from_int(3)), 2)]

    def test_single_root_over_rational_extension(self):
        """[DERIVED] Over E the second slot [[A, I], [0, A]] is the Jordan block
        of x with size 2: its minimal polynomial (X - x)^2 has one root."""
        z = Matrix.zeros(Qf, 2)
        factors, E = self.gaussian_series(self.A.direct_sum(self.A),
                                          blocks(self.A, self.I2, z, self.A))
        assert [(f.extension, f.scalars, f.multiplicity) for f in factors] == [
            (E, (E.gen(), E.gen()), 2)]

    def test_height_two_rational_tower_escalates(self):
        """A 4-dimensional pair needing a genuine second extension step over Q
        is out of policy and must say so."""
        j = qmat([[0, -1], [1, 0]])
        z = Matrix.zeros(Qf, 2, 2)
        i2 = Matrix.identity(Qf, 2)
        a = j.direct_sum(j)
        rows = [[z, i2], [j, z]]
        b = Matrix(Qf, [[rows[bi][bj].row(i)[k] for bj in range(2)
                         for k in range(2)]
                        for bi in range(2) for i in range(2)])
        x = MatrixTuple(Qf, [a, b])
        with pytest.raises(UnsupportedTower):
            composition_series(x)


def shift_block(field, a, c, size):
    """a * I + c * N on field^size, N the nilpotent upper shift."""
    zero = field.zero()
    return Matrix(field, [[a if j == i else c if j == i + 1 else zero for j in range(size)]
                          for i in range(size)])


def scalar_block(field, pairs, size):
    """Slots a_k * I + c_k * N for the (a_k, c_k) in pairs: size copies of the
    factor over field where the slots act by the a_k."""
    return ([shift_block(field, a, c, size) for a, c in pairs],
            {(field, tuple(a for a, _ in pairs)): size})


def companion_block(pi, gs):
    """Slots g_k(C), C the companion of pi; the first nonconstant g_k must be
    x. One factor over field[x]/(pi), where slot k acts by g_k(x)."""
    L = extension(pi.field, pi)
    c = companion_matrix(pi)
    scalars = tuple(sum((embed(a, L) * L.gen() ** i for i, a in enumerate(g.coeffs)), L.zero())
                    for g in gs)
    return [poly_eval_matrix(g, c) for g in gs], {(L, scalars): 1}


def planted_fields():
    return {"Q": Qf, "F9": make_field(9), "F81/F9": f81_over_f9()}


class TestPlantedSeries:
    """Direct sums of blocks with known factors, conjugated by a random
    invertible matrix: the composition series is the planted multiset."""

    @staticmethod
    def check(field, blocks, rng):
        mats, planted = None, {}
        for block_mats, factors in blocks:
            mats = block_mats if mats is None else [a.direct_sum(b)
                                                    for a, b in zip(mats, block_mats)]
            for key, mult in factors.items():
                planted[key] = planted.get(key, 0) + mult
        x = MatrixTuple(field, mats).conjugate(invertible_matrix(field, rng, mats[0].nrows))
        assert {(f.extension, f.scalars): f.multiplicity
                for f in composition_series(x)} == planted

    @pytest.mark.parametrize("name", ["Q", "F9", "F81/F9"])
    def test_scalar_blocks(self, name):
        """1 x 1 tuples, a scalar first slot, scalar blocks (c = 0) and
        eigenvalues repeated across blocks; every last pi is linear."""
        field = planted_fields()[name]
        rng = random.Random(sum(map(ord, name)))
        # a nonzero scalar, and a nilpotent coefficient that may be zero
        unit, elem = partial(random_unit, field, rng), partial(random_element, field, rng)
        zero = field.zero()
        for _ in range(3):
            a, b = unit(), unit()
            for blocks in (
                    [scalar_block(field, [(unit(), zero), (unit(), zero)], 1)],
                    [scalar_block(field, [(unit(), zero) for _ in range(3)], 1)],
                    [scalar_block(field, [(a, zero), (unit(), elem()), (unit(), elem())], 2),
                     scalar_block(field, [(a, zero), (unit(), zero), (unit(), elem())], 3)],
                    [scalar_block(field, [(unit(), zero), (unit(), zero)], 2),
                     scalar_block(field, [(unit(), zero), (unit(), zero)], 1)],
                    [scalar_block(field, [(a, elem()), (b, elem())], 2),
                     scalar_block(field, [(a, zero), (unit(), elem())], 2),
                     scalar_block(field, [(unit(), elem()), (b, zero)], 1)],
                    [scalar_block(field, [(a, elem()), (b, zero)], 3),
                     scalar_block(field, [(a, zero), (b, zero)], 2)]):
                self.check(field, blocks, rng)

    def test_companion_blocks_over_f9(self):
        """Companion blocks make the last pi of a slot nonlinear, next to
        scalar blocks with the same or other eigenvalues."""
        field = make_field(9)
        rng = random.Random(1709)
        # a nonzero scalar, and a nilpotent coefficient that may be zero
        unit, elem = partial(random_unit, field, rng), partial(random_element, field, rng)
        zero = field.zero()
        x = Polynomial.x(field)
        for _ in range(4):
            pi = monic_irreducible(field, rng, 2)
            a, g, h = unit(), x + elem(), x + elem()
            for blocks in (
                    [companion_block(pi, [x, g])],
                    [companion_block(pi, [x, g]),
                     scalar_block(field, [(unit(), elem()), (unit(), elem())], 2)],
                    [companion_block(pi, [x, g]), companion_block(pi, [x, h]),
                     scalar_block(field, [(a, zero), (unit(), elem())], 1)],
                    [companion_block(pi, [Polynomial.constant(a), x, g]),
                     scalar_block(field, [(a, zero), (unit(), elem()), (unit(), zero)], 2)],
                    [companion_block(pi, [x, Polynomial.constant(a)]),
                     companion_block(monic_irreducible(field, rng, 2), [x, h])]):
                self.check(field, blocks, rng)

    def test_empty_tuple_has_no_factors(self):
        empty = Matrix(Qf, [])
        x = MatrixTuple(Qf, [empty, empty])
        assert composition_series(x) == []
        assert class_of_tuple(x).is_zero()

    def test_scalar_first_slot_costs_no_minimal_polynomial(self, monkeypatch):
        """Neither a 1 x 1 slot nor a scalar c * I gets a minimal polynomial
        or a factorization; the other slots do."""
        calls = []

        def spy(name, fn):
            def wrapped(arg):
                calls.append((name, arg))
                return fn(arg)
            monkeypatch.setattr(commuting, name, wrapped)

        spy("minpoly_matrix", commuting.minpoly_matrix)
        spy("irreducible_factors", commuting.irreducible_factors)
        composition_series(scalar_tuple(Qf, 2, 3, 5))
        assert calls == []
        b = qmat([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
        composition_series(MatrixTuple(Qf, [qmat([[3, 0, 0], [0, 3, 0], [0, 0, 3]]), b]))
        assert [name for name, _ in calls] == ["minpoly_matrix", "irreducible_factors"]
        assert calls[0][1] == b


class TestSampling:
    @pytest.mark.parametrize("q", [0, 7, 9])
    def test_sampled_tuples_are_checked_slotwise_conjugates(self, q, monkeypatch):
        """A sampled tuple equals the one built by conjugating slot by slot
        through the public constructor, from the same random draws."""
        field = make_field(q)
        shapes = [(1, 3), (2, 4), (3, 5), (2, 6)]

        def sample():
            return [commuting_tuple(field, random.Random(seed), weight, size)
                    for seed, (weight, size) in enumerate(shapes)]

        fast = sample()
        monkeypatch.setattr(MatrixTuple, "conjugate", lambda x, s: MatrixTuple(
            x.field, [m.conjugate(s) for m in x.matrices]))
        assert fast == sample()


class TestReduce:
    def test_weight_one_is_determinant(self, rng):
        """[PAPER] l=1 reduction is the determinant class."""
        for field in (Qf, prime_field(5)):
            for _ in range(20):
                m = invertible_matrix(field, rng, 3)
                x = MatrixTuple(field, [m])
                assert class_of_tuple(x) == canonical_class(
                    symbol([m.det()], field=field))

    def test_jordan_pair_reduces_to_double_symbol(self):
        # [DERIVED] the Jordan pair carries 2{a,b}
        a, b = Qf.element(2), Qf.element(3)
        x = MatrixTuple(Qf, [jordan_block(Qf, a, 2),
                             Matrix.identity(Qf, 2).map_entries(lambda e: e * b)])
        assert reduce_tuple(x) == 2 * symbol([a, b])
        assert class_of_tuple(x) == canonical_class(2 * symbol([a, b]))

    def test_finite_field_pairs_vanish(self, rng):
        # [PAPER] no weight-2 invariants over a finite field
        for q in (3, 5, 9):
            F = make_field(q)
            x = commuting_tuple(F, rng, 2, 3)
            assert class_of_tuple(x).is_zero()

    def test_elementary_matrix_trivial(self):
        # [PAPER] shears carry no K_1 class
        e = qmat([[1, 5], [0, 1]])
        assert class_of_tuple(MatrixTuple(Qf, [e])).is_zero()

    def test_companion_pair_transfers(self):
        """[DERIVED] a simple companion pair over F_2 reduces through F_4."""
        F2 = prime_field(2)
        f = Polynomial.from_ints(F2, [1, 1, 1])
        m = companion_matrix(f)
        x = MatrixTuple(F2, [m, m * m])
        F4 = make_field(4)
        g = F4.gen()
        expect = transfer_tower(symbol([g, g * g], field=F4), F2)
        assert class_of_tuple(x) == canonical_class(expect)

    def test_direct_sum_additive(self, rng):
        for _ in range(10):
            x = commuting_tuple(Qf, rng, 2, 2)
            y = commuting_tuple(Qf, rng, 2, 2)
            assert class_of_tuple(x.direct_sum(y)) \
                == class_of_tuple(x) + class_of_tuple(y)

    def test_real_mode(self):
        x = scalar_tuple(Qf, -2, -3)
        assert class_of_tuple(x, real=True).eps == -1
        y = scalar_tuple(Qf, -2, 3)
        assert class_of_tuple(y, real=True).is_zero()


class TestRelationsReport:
    def test_no_violations_rational(self, rng):
        assert check_axioms(make_determinant(Qf, 2, "universal"), trials=6, rng=rng) == []

    def test_no_violations_finite(self, rng):
        F7 = prime_field(7)
        assert check_axioms(make_determinant(F7, 2, "universal"), trials=6, rng=rng) == []

    def test_swap_negates(self, rng):
        x = commuting_tuple(Qf, rng, 2, 2)
        y = x.swap_slots(0, 1)
        assert class_of_tuple(y) == -class_of_tuple(x)

    def test_slot_product_additive(self, rng):
        x = commuting_tuple(Qf, rng, 2, 2)
        a = x.matrices[0]
        b = invertible_matrix(Qf, rng, 2)
        # make b commute with everything: use a polynomial in the slot matrix
        b = a * a + Matrix.identity(Qf, 2).map_entries(
            lambda e: e * Qf.element(3))
        if b.det().is_zero():
            return
        y = x.with_slot(0, a * b)
        z = x.with_slot(0, b)
        assert class_of_tuple(y) == class_of_tuple(x) + class_of_tuple(z)
