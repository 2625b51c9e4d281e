import pathlib
import random

import pytest

from mkt.factor import is_irreducible
from mkt.fields import (EXTENSION, FieldDescriptor, Polynomial, all_elements, extension,
                        prime_field, rationals)

# the acceptance tests append one line per criterion; printed after capture
ACCEPTANCE_REPORT = pathlib.Path(__file__).with_name(".acceptance_report")

# (q, d): the extensions F_{q^d} / F_q the transfer oracles enumerate
NORM_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))


def pytest_sessionstart(session):
    if ACCEPTANCE_REPORT.exists():
        ACCEPTANCE_REPORT.unlink()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT.exists():
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT.read_text().splitlines():
            terminalreporter.write_line(line)
        ACCEPTANCE_REPORT.unlink()


def make_field(q):
    """Finite field of order q with a fixed small modulus, or Q for q == 0."""
    if q == 0:
        return rationals()
    table = {
        2: None, 3: None, 5: None, 7: None, 11: None,
        4: (2, [1, 1, 1]),
        8: (2, [1, 1, 0, 1]),
        9: (3, [1, 0, 1]),
        16: (2, [1, 1, 0, 0, 1]),
        25: (5, [2, 0, 1]),
        27: (3, [1, 2, 0, 1]),
    }
    if q not in table:
        raise ValueError(q)
    if table[q] is None:
        return prime_field(q)
    p, mod = table[q]
    base = prime_field(p)
    return extension(base, Polynomial.from_ints(base, mod))


def all_units(field):
    """Every nonzero element of a finite field, in a fixed order."""
    p = field.characteristic()
    if field.kind == "prime":
        return [field.from_int(i) for i in range(1, p)]
    deg = len(field.modulus.coeffs) - 1
    base = field.base
    out = []
    for n in range(1, p ** deg):
        coeffs = []
        m = n
        for _ in range(deg):
            coeffs.append(base.from_int(m % p))
            m //= p
        out.append(field.element(tuple(coeffs)))
    return out


def quadratic_over(k):
    """A quadratic step over k: the first irreducible X^2 + bX + c in
    all_elements order."""
    for b in all_elements(k):
        for c in all_elements(k):
            f = Polynomial(k, [c, b, k.one()])
            if is_irreducible(f):
                return extension(k, f)
    raise AssertionError(f"{k} has irreducible quadratics")


def f81_over_f9():
    """F_81 as a step over F_9, above the table cap."""
    return quadratic_over(make_field(9))


def f16_over_f4():
    """F_16 as a step over F_4: a tabled step over a tabled field."""
    return quadratic_over(make_field(4))


def untabled_twin(L):
    """A descriptor equal to L without a table: extension() builds tables,
    the bare constructor does not."""
    if L.kind != EXTENSION:
        return L
    base = untabled_twin(L.base)
    modulus = Polynomial(base, [twin_element(base, c) for c in L.modulus.coeffs])
    return FieldDescriptor(EXTENSION, base=base, modulus=modulus)


def twin_element(K, x):
    if K.kind != EXTENSION:
        return x
    return K.element(tuple(twin_element(K.base, c) for c in x.rep))


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def Q():
    return rationals()
