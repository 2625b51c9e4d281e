"""The acceptance gate: eleven exact criteria, one reported line each.

Every criterion records a PASS/FAIL line that the session prints after the
run (see conftest.pytest_terminal_summary). All checks are exact; the two
timed criteria assert their stated wall-clock budgets.
"""

import functools
import random
import time
from fractions import Fraction

from mkt.canonical import canonical_class
from mkt.commuting import (MatrixTuple, class_of_tuple, composition_series,
                           homotopy_mult, homotopy_shear, homotopy_steinberg,
                           homotopy_swap)
from mkt.fields import Polynomial, extension, function_field, prime_field, rationals
from mkt.jointdet import check_axioms, hilbert, make_determinant
from mkt.linalg import Matrix
from mkt.numutil import factor_int
from mkt.sampling import (commuting_tuple, invertible_matrix, monic_irreducible,
                          random_symbol, random_unit)
from mkt.symbols import cyclic_difference_identity, symbol
from mkt.towers import norm_element
from mkt.transfer import base_change, reciprocity_check, transfer_tower
from tests.conftest import ACCEPTANCE_REPORT, NORM_PAIRS, all_units, make_field

Qf = rationals()


def _record(line: str):
    with ACCEPTANCE_REPORT.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def criterion(n: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            t0 = time.monotonic()
            try:
                fn(*a, **kw)
            except BaseException:
                _record(f"criterion {n:2d} FAIL  {desc}")
                raise
            dt = time.monotonic() - t0
            _record(f"criterion {n:2d} PASS  {desc}  [{dt:.1f}s]")
        return run
    return deco


def scalar_tuple(field, vals):
    return MatrixTuple.scalars(field, [field.element(v) for v in vals])


def nonzero_rational(rng, span=9):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q != 0:
            return q


@criterion(1, "weil reciprocity, 200 random symbols, q in {2,3,5,9}, l in {1,2}")
def test_c01_weil_reciprocity():
    rng = random.Random(101)
    t0 = time.monotonic()
    for q in (2, 3, 5, 9):
        k = make_field(q)
        ff = function_field(k)
        for l in (1, 2):
            for _ in range(25):
                polys = []
                while len(polys) < l + 1:
                    f = monic_irreducible(k, rng, rng.randint(1, 4))
                    if f not in polys:
                        polys.append(f)
                w = symbol([ff.element(f) for f in polys])
                total, _rows = reciprocity_check(w)
                assert total.is_zero()
    assert time.monotonic() - t0 < 60.0


@criterion(2, "transfer equals the norm on every unit of six extensions")
def test_c02_transfer_is_norm():
    for q, d in NORM_PAIRS:
        L = make_field(q ** d)
        base = prime_field(q)
        count = 0
        for u in all_units(L):
            got = canonical_class(transfer_tower(symbol([u], field=L), base))
            want = canonical_class(symbol([norm_element(u, base)], field=base))
            assert got == want
            count += 1
        assert count == q ** d - 1


@criterion(3, "100 random 2-symbols per extension transfer to the zero class")
def test_c03_finite_k2_vanishes():
    rng = random.Random(103)
    for q, d in NORM_PAIRS:
        L = make_field(q ** d)
        base = prime_field(q)
        for _ in range(100):
            w = random_symbol(L, rng, 2)
            assert canonical_class(transfer_tower(w, base)).is_zero()


@criterion(4, "steinberg and self-negation vanish; classes add, over Q")
def test_c04_rational_k2_canonicalization():
    rng = random.Random(104)
    for _ in range(100):
        a = nonzero_rational(rng)
        if a == 1:
            continue
        ea = Qf.element(a)
        one = Qf.one()
        assert canonical_class(symbol([ea, one - ea])).is_zero()
        assert canonical_class(symbol([ea, -ea])).is_zero()
    for _ in range(200):
        x = random_symbol(Qf, rng, 2)
        y = random_symbol(Qf, rng, 2)
        assert canonical_class(x + y) == canonical_class(x) + canonical_class(y)


@criterion(5, "cyclic difference identity for l=2; right side is {-1,-1}")
def test_c05_cyclic_identity():
    rng = random.Random(105)
    minus = canonical_class(symbol([Qf.element(-1), Qf.element(-1)]))
    done = 0
    while done < 100:
        pts = {nonzero_rational(rng, 20) for _ in range(3)}
        if len(pts) < 3:
            continue
        lhs, rhs = cyclic_difference_identity([Qf.element(p) for p in pts])
        assert canonical_class(lhs) == canonical_class(rhs)
        assert canonical_class(rhs) == minus
        done += 1


@criterion(6, "hilbert product formula on 500 pairs, bounds 10^6")
def test_c06_hilbert_product():
    rng = random.Random(106)
    t0 = time.monotonic()
    for _ in range(500):
        a = Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 6),
                     rng.randint(1, 10 ** 6))
        b = Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 6),
                     rng.randint(1, 10 ** 6))
        places = {2}
        for n in (a.numerator, a.denominator, b.numerator, b.denominator):
            places.update(factor_int(abs(n)))
        total = hilbert(a, b, "inf")
        for p in places:
            total *= hilbert(a, b, p)
        assert total == 1
    assert time.monotonic() - t0 < 10.0


@criterion(7, "weight-1 determinant law, jordan pairs, elementary matrices")
def test_c07_reduction_anchors():
    rng = random.Random(107)
    for field in (Qf, prime_field(5)):
        for _ in range(100):
            m = invertible_matrix(field, rng, rng.randint(1, 4))
            got = class_of_tuple(MatrixTuple(field, [m]))
            assert got == canonical_class(symbol([m.det()], field=field))
    for _ in range(20):
        a = Qf.element(nonzero_rational(rng))
        b = Qf.element(nonzero_rational(rng))
        jordan = Matrix(Qf, [[a, Qf.one()], [Qf.zero(), a]])
        x = MatrixTuple(Qf, [jordan, Matrix.identity(Qf, 2).map_entries(
            lambda e: e * b)])
        assert class_of_tuple(x) == canonical_class(2 * symbol([a, b]))
    for field in (Qf, prime_field(5)):
        for n in (2, 3):
            for lam in (1, 2, 3):
                e = Matrix.identity(field, n)
                rows = [list(e.row(i)) for i in range(n)]
                rows[0][n - 1] = field.element(lam)
                shear = Matrix(field, rows)
                assert class_of_tuple(MatrixTuple(field, [shear])).is_zero()


@criterion(8, "endpoint classes agree for 50 runs of each homotopy family")
def test_c08_homotopy_invariance():
    rng = random.Random(108)
    fields = (Qf, prime_field(5))

    def agree(fam):
        at1, at0 = fam.boundary()
        assert class_of_tuple(at1) == class_of_tuple(at0)

    for field in fields:
        for _ in range(25):
            wide = commuting_tuple(field, rng, 3, rng.randint(1, 2))
            agree(homotopy_mult(wide.matrices[0], wide.matrices[1],
                                wide.matrices[2:]))
        for _ in range(25):
            x = commuting_tuple(field, rng, 2, rng.randint(1, 2))
            agree(homotopy_swap(x, 0, 1))
        for _ in range(25):
            one = field.one()
            while True:
                a, b = random_unit(field, rng), random_unit(field, rng)
                if a != one and b != one:
                    break
            agree(homotopy_steinberg(a, b))
        for _ in range(25):
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            amat = invertible_matrix(field, rng, p)
            bmat = invertible_matrix(field, rng, q)
            cmat = Matrix(field, [[random_unit(field, rng) for _ in range(q)]
                                  for _ in range(p)])
            agree(homotopy_shear(amat, bmat, cmat))


@criterion(9, "real sign: all-negative tuples and the factor parity rule")
def test_c09_real_sign():
    rng = random.Random(109)
    for l in (2, 3, 4):
        d = make_determinant(Qf, l, "real-sign")
        assert d(scalar_tuple(Qf, [-1] * l)) == -1
    for _ in range(100):
        l = rng.choice([2, 3])
        d = make_determinant(Qf, l, "real-sign")
        blocks = []
        expected = 1
        for _b in range(rng.randint(1, 2)):
            n = rng.randint(1, 3)
            vals = [nonzero_rational(rng) for _ in range(l)]
            mats = [Matrix.identity(Qf, n).map_entries(
                lambda e, v=v: e * Qf.element(v)) for v in vals]
            blocks.append(MatrixTuple(Qf, mats))
            if all(v < 0 for v in vals):
                expected *= (-1) ** n
        x = blocks[0]
        for blk in blocks[1:]:
            x = x.direct_sum(blk)
        assert d(x) == expected
        # cross-check the parity rule against the computed factors
        refactored = 1
        for f in composition_series(x):
            if all(s.rep < 0 for s in f.scalars):
                refactored *= (-1) ** f.multiplicity
        assert refactored == expected


@criterion(10, "axiom checker: zero violations for the three determinants")
def test_c10_axioms():
    d1 = make_determinant(Qf, 2, "real-sign")
    d2 = make_determinant(Qf, 2, "rational-hilbert", places=["inf", 3, 5])
    d3 = make_determinant(prime_field(7), 2, "finite-field-trivial")
    for i, d in enumerate((d1, d2, d3)):
        assert check_axioms(d, trials=100, rng=random.Random(110 + i)) == []


@criterion(11, "projection formula on 50 pairs per supported extension")
def test_c11_projection_formula():
    rng = random.Random(111)
    towers = [(make_field(q ** d), prime_field(q)) for q, d in NORM_PAIRS]
    sqrt2 = extension(Qf, Polynomial.from_ints(Qf, [-2, 0, 1]))
    towers.append((sqrt2, Qf))
    for L, base in towers:
        for _ in range(50):
            z = random_unit(base, rng)
            w = random_unit(L, rng)
            lifted = base_change(symbol([z], field=base), L)
            lhs = transfer_tower(lifted * symbol([w], field=L), base)
            rhs = symbol([z], field=base) * transfer_tower(
                symbol([w], field=L), base)
            assert canonical_class(lhs) == canonical_class(rhs)
