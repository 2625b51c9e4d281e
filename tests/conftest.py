import pathlib
import random
from fractions import Fraction

import pytest

from mkt.factor import is_irreducible
from mkt.fields import Polynomial, all_elements, extension, prime_field, rationals

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


class TwinField:
    """An untabled twin of a finite field: F_p, or base[x]/(modulus) over a
    TwinField base, in test-local arithmetic on ints and int tuples that
    shares no code with mkt.fields. A value of F_p is an int in [0, p); a
    value of base[x]/(m) is a tuple of step-degree base values, lowest
    first. Products are reduced modulo the monic m by long division, and the
    inverse of x != 0 is x^(q - 2).

    `read` takes an mkt element of the twinned field to its value, and
    `__call__` wraps a value as a TwinElement, which has the operators and
    `inverse()` of a field element, so generic code runs on it unchanged."""

    def __init__(self, base, modulus=()):
        self.base = base
        if isinstance(base, int):
            self.p, self.degree, self.order = base, 1, base
            self.zero, self.one = 0, 1
        else:
            self.p = base.p
            self.modulus = tuple(modulus)
            self.degree = len(self.modulus) - 1
            self.order = base.order ** self.degree
            self.zero = (base.zero,) * self.degree
            self.one = (base.one,) + self.zero[1:]

    @classmethod
    def like(cls, field):
        """The twin of the mkt prime field or extension step field."""
        if field.kind == "prime":
            return cls(field.p)
        base = cls.like(field.base)
        return cls(base, [base.read(c) for c in field.modulus.coeffs])

    def read(self, e):
        """The value of the mkt element e of the twinned field."""
        if isinstance(self.base, int):
            return e.rep
        return tuple(self.base.read(c) for c in e.rep)

    def __call__(self, v):
        return TwinElement(self, v)

    def from_int(self, n):
        if isinstance(self.base, int):
            return n % self.p
        return (self.base.from_int(n),) + self.zero[1:]

    def add(self, x, y):
        if isinstance(self.base, int):
            return (x + y) % self.p
        return tuple(self.base.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        if isinstance(self.base, int):
            return -x % self.p
        return tuple(self.base.neg(a) for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if isinstance(self.base, int):
            return x * y % self.p
        k, d, m = self.base, self.degree, self.modulus
        prod = [k.zero] * (2 * d - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] = k.add(prod[i + j], k.mul(a, b))
        # x^top = -(m_0 + ... + m_{d-1} x^{d-1}) x^(top - d), top first
        for top in range(2 * d - 2, d - 1, -1):
            c = prod[top]
            for i in range(d):
                prod[top - d + i] = k.sub(prod[top - d + i], k.mul(c, m[i]))
        return tuple(prod[:d])

    def pow(self, x, e):
        if e < 0:
            x, e = self.inv(x), -e
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, x)
            x, e = self.mul(x, x), e >> 1
        return out

    def inv(self, x):
        assert x != self.zero, "inverse of zero"
        return self.pow(x, self.order - 2)

    def values(self):
        """Every value, in the order of mkt's all_elements: the lowest
        coefficient varies fastest."""
        if isinstance(self.base, int):
            return list(range(self.p))
        out = [()]
        for _ in range(self.degree):
            out = [t + (c,) for c in self.base.values() for t in out]
        return out

    def index(self, x):
        """The position of x in values()."""
        if isinstance(self.base, int):
            return x
        i = 0
        for c in reversed(x):
            i = i * self.base.order + self.base.index(c)
        return i


class TwinElement:
    """A value of a TwinField with the operators of a field element."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field, self.v = field, v

    def _other(self, other):
        return other.v if isinstance(other, TwinElement) else self.field.from_int(other)

    def __add__(self, other):
        return TwinElement(self.field, self.field.add(self.v, self._other(other)))

    def __sub__(self, other):
        return TwinElement(self.field, self.field.sub(self.v, self._other(other)))

    def __neg__(self):
        return TwinElement(self.field, self.field.neg(self.v))

    def __mul__(self, other):
        return TwinElement(self.field, self.field.mul(self.v, self._other(other)))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        return TwinElement(self.field, self.field.pow(self.v, e))

    def inverse(self):
        return TwinElement(self.field, self.field.inv(self.v))

    def __bool__(self):
        return self.v != self.field.zero

    def __eq__(self, other):
        return isinstance(other, TwinElement) and self.v == other.v

    def __repr__(self):
        return f"Twin{self.v!r}"


def gauss_jordan(rows, ncols, one=Fraction(1)):
    """(reduced rows, pivot columns, det): plain Gauss-Jordan with row swaps
    on the first ncols columns, on Fractions or any elements with field
    operators whose truth means nonzero; det is the signed product of the
    pivots (square input only)."""
    a = [list(r) for r in rows]
    pivots, det, top = [], one, 0
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
    return a, pivots, det if top == len(a) else one - one


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def Q():
    return rationals()
