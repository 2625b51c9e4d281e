"""Field descriptors, exact field elements, polynomials, rational functions.

Supported fields: the rationals, prime fields F_p, simple extension steps
k[x]/(m) stacked into towers, and rational function fields k(X). All values
are immutable and hashable; arithmetic never leaves exact representations
(Fraction for Q, residues for F_p, fixed-length coefficient tuples for
extension steps, reduced num/den pairs for k(X)).

Descriptors are canonical: `extension` and `function_field` hand out one
object per field, so descriptor equality is almost always an identity test.
A finite extension step of order q <= _TABLE_MAX that has done q operations
on the coefficient path builds a _Table: its q elements, interned, and full
q x q addition and multiplication tables on their indices, built once from
Zech logarithms (Huber, IEEE Trans. IT 1990). After that +, -, *, inverse
and == are list lookups, and `linalg` runs elimination and matrix products
on rows of indices (`table_indices`). `forget()` drops the descriptor caches
and every table; an index is a function of the value, so indices kept from
before stay valid when the table is built again.

Polynomial +, -, *, divmod, gcd and resultant, and the product and inverse
of an extension-step element, are each one call into `zkernel`, made in the
coefficient field's kernel kind (`_kind`): integer residues over a prime
field, table indices over a tabled field, the elements themselves over any
other. `_values` hands the coefficients in and `_wrap` turns the result back
into a Polynomial, read in the kind the call was made with: a table can be
built during a call on elements, when the operation budget runs out.

Coefficient lists everywhere are ordered lowest degree first, highest degree
last. The zero polynomial has degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from mkt import zkernel
from mkt.errors import (
    BadModulus,
    DescriptorMismatch,
    DivisionByZero,
    UnsupportedField,
    ZeroPolynomial,
)
from mkt.numutil import factor_int, is_prime

RATIONALS = "rationals"
PRIME = "prime"
EXTENSION = "extension"
FUNCTION = "function"


# a finite extension step of at most this many elements may build a _Table.
# The measured hot fields are F_9 and, now and then, F_81; at F_{251^2} a
# 63,001-element table saved no time and raised peak RSS from 21.8 to 38.7 MB,
# so larger fields keep coefficient tuples.
_TABLE_MAX = 81


class FieldDescriptor:
    """Identity of a field. Structural equality; do not mutate."""

    __slots__ = ("kind", "p", "base", "modulus", "_hash", "_mod_values", "_order",
                 "_table", "_budget")

    def __init__(self, kind: str, p: int | None = None,
                 base: "FieldDescriptor | None" = None,
                 modulus: "Polynomial | None" = None):
        self.kind = kind
        self.p = p
        self.base = base
        self.modulus = modulus
        self._hash = None
        # (kernel kind, kernel coefficients) of the modulus, for the arithmetic
        # of this step; see _modulus_values
        self._mod_values = None
        self._order = None
        self._table = None
        # coefficient-path operations left before the table is built; set
        # by extension() on fields that qualify, never reaches 0 otherwise
        self._budget = -1

    # -- construction ------------------------------------------------------

    @property
    def step_degree(self) -> int:
        """Degree of this extension step over its base (1 for base fields)."""
        if self.kind == EXTENSION:
            return self.modulus.degree
        return 1

    def characteristic(self) -> int:
        if self.kind == RATIONALS:
            return 0
        if self.kind == PRIME:
            return self.p
        return self.base.characteristic()

    def is_finite(self) -> bool:
        if self.kind == PRIME:
            return True
        if self.kind == EXTENSION:
            return self.base.is_finite()
        return False

    def absolute_degree(self) -> int:
        """Total degree over the prime field (finite) or over Q."""
        if self.kind == EXTENSION:
            return self.modulus.degree * self.base.absolute_degree()
        if self.kind == FUNCTION:
            raise UnsupportedField("function fields have no finite degree")
        return 1

    def order(self) -> int:
        if self._order is None:
            if not self.is_finite():
                raise UnsupportedField("infinite field has no order")
            self._order = self.characteristic() ** self.absolute_degree()
        return self._order

    # -- elements ----------------------------------------------------------

    def zero(self) -> "FieldElement":
        if self._table is not None:
            return self._table.elems[0]
        return self.from_int(0)

    def one(self) -> "FieldElement":
        if self._table is not None:
            return self._table.elems[1]
        return self.from_int(1)

    def minus_one(self) -> "FieldElement":
        return self.from_int(-1)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == RATIONALS:
            return FieldElement(self, Fraction(n))
        if self.kind == PRIME:
            return FieldElement(self, n % self.p)
        if self.kind == EXTENSION:
            if self._table is not None:
                # n sits in the constant coefficient all the way down
                return self._table.elems[n % self.characteristic()]
            d = self.step_degree
            rep = (self.base.from_int(n),) + tuple(self.base.zero() for _ in range(d - 1))
        else:
            k = self.base
            rep = RationalFunction(Polynomial(k, [k.from_int(n)]), Polynomial.one(k))
        return FieldElement(self, rep)

    def element(self, value) -> "FieldElement":
        """Coerce value into this field.

        Accepts ints anywhere, Fractions over Q, coefficient sequences for
        extension steps, and Polynomial/RationalFunction over k for k(X).
        """
        if isinstance(value, FieldElement):
            if value.field != self:
                raise DescriptorMismatch(f"element of {value.field} given to {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if self.kind == RATIONALS and isinstance(value, Fraction):
            return FieldElement(self, value)
        if self.kind == EXTENSION and isinstance(value, (tuple, list)):
            d = self.step_degree
            if len(value) > d:
                raise ValueError(f"coefficient sequence longer than step degree {d}")
            coeffs = [self.base.element(c) for c in value]
            coeffs += [self.base.zero()] * (d - len(coeffs))
            return _ext_element(self, tuple(coeffs))
        if self.kind == FUNCTION:
            if isinstance(value, RationalFunction):
                if value.num.field != self.base:
                    raise DescriptorMismatch("rational function over wrong coefficient field")
                return FieldElement(self, value)
            if isinstance(value, Polynomial):
                if value.field != self.base:
                    raise DescriptorMismatch("polynomial over wrong coefficient field")
                return FieldElement(self, RationalFunction(value, Polynomial.one(self.base)))
        raise ValueError(f"cannot coerce {value!r} into {self}")

    def gen(self) -> "FieldElement":
        """The class of x in k[x]/(m), or X in k(X)."""
        if self.kind == EXTENSION:
            d = self.step_degree
            coeffs = [self.base.zero()] * d
            if d == 1:
                # x = root of a linear modulus is a base constant
                return FieldElement(self, (-self.modulus.coeffs[0],))
            coeffs[1] = self.base.one()
            return FieldElement(self, tuple(coeffs))
        if self.kind == FUNCTION:
            return FieldElement(self, RationalFunction(Polynomial.x(self.base),
                                                       Polynomial.one(self.base)))
        raise UnsupportedField("gen() needs an extension or function field")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        if self.kind != other.kind or self.p != other.p:
            return False
        if self.kind in (RATIONALS, PRIME):
            return True
        if self.kind == FUNCTION:
            return self.base == other.base
        return self.base == other.base and self.modulus.same_coeffs(other.modulus)

    def __hash__(self):
        if self._hash is None:
            if self.kind in (RATIONALS, PRIME):
                self._hash = hash((self.kind, self.p))
            elif self.kind == FUNCTION:
                self._hash = hash((self.kind, self.base))
            else:
                self._hash = hash((self.kind, self.base, self.modulus.coeff_key()))
        return self._hash

    def __repr__(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F_{self.p}"
        if self.kind == FUNCTION:
            return f"{self.base!r}(X)"
        return f"{self.base!r}[x]/({self.modulus})"


_RATIONALS = FieldDescriptor(RATIONALS)
_PRIME_CACHE: dict[int, FieldDescriptor] = {}
# modulus -> base[x]/(modulus); base -> base(X); both emptied by forget()
_EXTENSIONS: dict["Polynomial", FieldDescriptor] = {}
_FUNCTION_FIELDS: dict[FieldDescriptor, FieldDescriptor] = {}
# descriptors holding a _Table
_TABLED: list[FieldDescriptor] = []


def forget() -> None:
    """Drop the cached extension and function-field descriptors and every
    element table, so that the next computation starts cold."""
    for fld in _TABLED:
        fld._table = None
        fld._budget = fld.order()
    _TABLED.clear()
    _EXTENSIONS.clear()
    _FUNCTION_FIELDS.clear()


def rationals() -> FieldDescriptor:
    return _RATIONALS


def prime_field(p: int) -> FieldDescriptor:
    got = _PRIME_CACHE.get(p)
    if got is None:
        if not is_prime(p):
            raise BadModulus(f"{p} is not prime")
        got = FieldDescriptor(PRIME, p=p)
        _PRIME_CACHE[p] = got
    return got


def extension(base: FieldDescriptor, modulus: "Polynomial", check: bool = True) -> FieldDescriptor:
    """Simple extension base[x]/(modulus); modulus must be monic irreducible."""
    if modulus.field != base:
        raise DescriptorMismatch("modulus is not over the base field")
    if modulus.degree < 1:
        raise BadModulus("modulus must have degree >= 1")
    if not modulus.is_monic():
        raise BadModulus("modulus must be monic")
    if base.kind == FUNCTION:
        raise UnsupportedField("extensions of function fields are not supported")
    if check:
        from mkt.factor import is_irreducible

        if not is_irreducible(modulus):
            raise BadModulus(f"modulus {modulus} is reducible")
    got = _EXTENSIONS.get(modulus)
    if got is None:
        got = FieldDescriptor(EXTENSION, base=base, modulus=modulus)
        if base.is_finite() and got.order() <= _TABLE_MAX:
            got._budget = got.order()
        _EXTENSIONS[modulus] = got
    return got


def function_field(base: FieldDescriptor) -> FieldDescriptor:
    if base.kind == FUNCTION:
        raise UnsupportedField("iterated function fields are not supported")
    got = _FUNCTION_FIELDS.get(base)
    if got is None:
        got = _FUNCTION_FIELDS[base] = FieldDescriptor(FUNCTION, base=base)
    return got


class _Table:
    """The interned elements of one finite extension step, with index tables.

    elems[i] is the i-th element of all_elements(field) and carries ix == i,
    so elems[0] is zero and elems[1] is one. add[i][j] and mul[i][j] are the
    indices of elems[i] + elems[j] and elems[i] * elems[j]; neg[i] and inv[i]
    those of -elems[i] and 1 / elems[i] (inv[0] is 0). With g a fixed
    primitive element and m = q - 1: for i != 0, log[i] is the k in [0, m)
    with g^k = elems[i], and exp[k] is the index of g^k, stored for k in
    [0, 2m) so that a sum of two logs needs no reduction.
    """

    __slots__ = ("elems", "add", "mul", "neg", "inv", "exp", "log", "m")

    def __init__(self, elems, exp, log, zech):
        q = len(elems)
        m = q - 1
        self.elems, self.exp, self.log, self.m = elems, exp, log, m
        self.mul = [[0] * q] + [[0] + [exp[li + lj] for lj in log[1:]] for li in log[1:]]
        # elems[i] + elems[j] = g^li (1 + g^(lj - li)); zech[n] is log(1 + g^n),
        # or -1 where 1 + g^n = 0
        self.add = [list(range(q))]
        for i in range(1, q):
            li = log[i]
            sums = [exp[li + z] if z >= 0 else 0 for z in zech]
            self.add.append([i] + [sums[lj - li] for lj in log[1:]])
        self.neg = [row.index(0) for row in self.add]
        self.inv = [0] + [exp[m - li] for li in log[1:]]


def _spend(fld: FieldDescriptor) -> None:
    """Count one coefficient-path operation of fld; after order(fld) of them
    the table pays for itself (ski rental), so build it."""
    fld._budget -= 1
    if not fld._budget:
        _build_table(fld)


def _build_table(fld: FieldDescriptor) -> None:
    fld._budget = -1  # the arithmetic below must not trigger a second build
    base = fld.base
    q = fld.order()
    m = q - 1
    base_elems = list(all_elements(base))
    nb = len(base_elems)
    elems = list(all_elements(fld))
    for i, e in enumerate(elems):
        e.ix = i
    primes = list(factor_int(m)) if m > 1 else []
    # elems[:nb] is the base field, which holds a generator only when the
    # step has degree 1
    g = next(e for e in elems[nb:] or elems[1:]
             if all(not (e ** (m // r)).is_one() for r in primes))
    exp = [0] * (2 * m)
    log = [0] * q
    x = fld.one()
    for k in range(m):
        i = _index(x)
        exp[k] = exp[k + m] = i
        log[i] = k
        x = x * g
    base_one = base.one()
    plus_one = [_index(b + base_one) for b in base_elems]
    zech = [-1] * m
    for n in range(m):
        i = exp[n]
        j = i - i % nb + plus_one[i % nb]
        if j:
            zech[n] = log[j]
    fld._table = _Table(elems, exp, log, zech)
    _TABLED.append(fld)


def _index(x: "FieldElement") -> int:
    """Position of x in all_elements(x.field); x lies in a finite field.

    The position is a function of the value, so it is kept in x.ix."""
    if x.ix is not None:
        return x.ix
    if x.field.kind == PRIME:
        return x.rep
    x.ix = _rep_index(x.field, x.rep)
    return x.ix


def table_indices(fld: FieldDescriptor, xs: Iterable["FieldElement"]) -> list[int]:
    """Positions of the elements xs of fld in all_elements(fld), which index
    fld._table."""
    out = []
    for x in xs:
        if x.field is not fld and x.field != fld:
            raise DescriptorMismatch(f"element of {x.field} given to {fld}")
        out.append(_index(x))
    return out


def _rep_index(fld: FieldDescriptor, rep: tuple) -> int:
    nb = fld.base.order()
    i = 0
    for c in reversed(rep):
        i = i * nb + _index(c)
    return i


def _ext_element(fld: FieldDescriptor, rep: tuple) -> "FieldElement":
    """The element of fld with coefficient tuple rep; interned when fld has
    a table."""
    if fld._table is not None:
        return fld._table.elems[_rep_index(fld, rep)]
    return FieldElement(fld, rep)


class FieldElement:
    """An element of the field named by `field`. Immutable."""

    __slots__ = ("field", "rep", "_hash", "ix")

    def __init__(self, field: FieldDescriptor, rep):
        self.field = field
        self.rep = rep
        self._hash = None
        # position in all_elements(field): set on table elements when they
        # are built, on other elements of a tabled field by _index
        self.ix = None

    def is_zero(self) -> bool:
        if self.ix is not None:
            return not self.ix
        k = self.field.kind
        if k == RATIONALS or k == PRIME:
            return self.rep == 0
        if k == EXTENSION:
            return all(c.is_zero() for c in self.rep)
        return self.rep.num.degree < 0

    def is_one(self) -> bool:
        return self == self.field.one()

    def __bool__(self):
        return not self.is_zero()

    def sign(self) -> int:
        """Sign in {-1, 0, 1}; rationals only (ordered-field queries)."""
        if self.field.kind != RATIONALS:
            raise UnsupportedField("sign is only defined over Q")
        r = self.rep
        return (r > 0) - (r < 0)

    # -- arithmetic --------------------------------------------------------
    #
    # A field with a _Table works on indices: two elements of that very
    # descriptor take one lookup, anything else is coerced first. Otherwise
    # an extension step works on coefficients and counts each operation
    # toward its table.

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise DescriptorMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction) and self.field.kind == RATIONALS:
            return FieldElement(self.field, other)
        return None

    def __add__(self, other):
        fld = self.field
        tab = fld._table
        if tab is not None:
            if other.__class__ is not FieldElement or other.field is not fld:
                other = self._coerce(other)
                if other is None:
                    return NotImplemented
            try:
                return tab.elems[tab.add[self.ix][other.ix]]
            except TypeError:  # an operand that is not a table element
                return tab.elems[tab.add[_index(self)][_index(other)]]
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, self.rep + b.rep)
        if k == PRIME:
            return FieldElement(fld, (self.rep + b.rep) % fld.p)
        if k == EXTENSION:
            _spend(fld)
            return FieldElement(fld, tuple(x + y for x, y in zip(self.rep, b.rep)))
        return FieldElement(fld, self.rep.add(b.rep))

    __radd__ = __add__

    def __neg__(self):
        fld = self.field
        tab = fld._table
        if tab is not None:
            return tab.elems[tab.neg[_index(self)]]
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, -self.rep)
        if k == PRIME:
            return FieldElement(fld, (-self.rep) % fld.p)
        if k == EXTENSION:
            _spend(fld)
            return FieldElement(fld, tuple(-x for x in self.rep))
        return FieldElement(fld, self.rep.neg())

    def __sub__(self, other):
        fld = self.field
        tab = fld._table
        if tab is not None:
            if other.__class__ is not FieldElement or other.field is not fld:
                other = self._coerce(other)
                if other is None:
                    return NotImplemented
            try:
                return tab.elems[tab.add[self.ix][tab.neg[other.ix]]]
            except TypeError:
                return tab.elems[tab.add[_index(self)][tab.neg[_index(other)]]]
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b - self

    def __mul__(self, other):
        fld = self.field
        tab = fld._table
        if tab is not None:
            if other.__class__ is not FieldElement or other.field is not fld:
                other = self._coerce(other)
                if other is None:
                    return NotImplemented
            try:
                return tab.elems[tab.mul[self.ix][other.ix]]
            except TypeError:
                return tab.elems[tab.mul[_index(self)][_index(other)]]
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, self.rep * b.rep)
        if k == PRIME:
            return FieldElement(fld, self.rep * b.rep % fld.p)
        if k == EXTENSION:
            _spend(fld)
            base = fld.base
            k = _kind(base)
            prod = zkernel.zp_mulmod(_rep_values(self, k), _rep_values(b, k),
                                     _modulus_values(fld, k), k)
            return _ext_from_coeffs(fld, _elements(base, prod, k))
        return FieldElement(fld, self.rep.mul(b.rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        fld = self.field
        tab = fld._table
        if tab is not None:
            return tab.elems[tab.inv[_index(self)]]
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, 1 / self.rep)
        if k == PRIME:
            return FieldElement(fld, pow(self.rep, fld.p - 2, fld.p))
        if k == EXTENSION:
            _spend(fld)
            base = fld.base
            k = _kind(base)
            inv = zkernel.zp_invmod(_rep_values(self, k), _modulus_values(fld, k), k)
            return _ext_from_coeffs(fld, _elements(base, inv, k))
        return FieldElement(fld, self.rep.inverse())

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.inverse()

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b * self.inverse()

    def __pow__(self, e: int):
        tab = self.field._table
        if tab is not None and not self.is_zero():
            return tab.elems[tab.exp[tab.log[_index(self)] * e % tab.m]]
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- identity ----------------------------------------------------------

    def _key(self):
        k = self.field.kind
        if k == EXTENSION:
            return tuple(c._key() for c in self.rep)
        if k == FUNCTION:
            return (self.rep.num.coeff_key(), self.rep.den.coeff_key())
        return self.rep

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.field is other.field and self.ix is not None and other.ix is not None:
            return self.ix == other.ix
        return self.field == other.field and self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self._key()))
        return self._hash

    def __repr__(self):
        k = self.field.kind
        if k == RATIONALS or k == PRIME:
            return str(self.rep)
        if k == FUNCTION:
            return repr(self.rep)
        names = "abcdefg"
        depth = 0
        f = self.field.base
        while f.kind == EXTENSION:
            depth += 1
            f = f.base
        name = names[depth % len(names)]
        parts = []
        for i, c in enumerate(self.rep):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(repr(c))
            elif i == 1:
                parts.append(f"{c!r}*{name}" if not c.is_one() else name)
            else:
                parts.append(f"{c!r}*{name}^{i}" if not c.is_one() else f"{name}^{i}")
        return " + ".join(parts) if parts else "0"


def _ext_from_coeffs(fld: FieldDescriptor, coeffs: list[FieldElement]) -> FieldElement:
    d = fld.step_degree
    out = list(coeffs) + [fld.base.zero()] * (d - len(coeffs))
    return _ext_element(fld, tuple(out[:d]))


def _kind(field: FieldDescriptor):
    """The zkernel coefficient kind of field, as it stands now: p over a
    prime field, the _Table over a tabled one, None over any other."""
    return field.p or field._table


def _values(kind, coeffs) -> list:
    """Kernel coefficients of kind: residue ints, table indices, or the
    elements themselves."""
    if kind is None:
        return list(coeffs)
    if kind.__class__ is int:
        return [c.rep for c in coeffs]
    out = [c.ix for c in coeffs]
    if None in out:  # a coefficient made before the table
        out = [_index(c) for c in coeffs]
    return out


def _elements(field: FieldDescriptor, values: list, kind) -> tuple:
    """The elements of field with kernel coefficients values of kind."""
    if kind is None:
        return tuple(values)
    if kind.__class__ is int:
        return tuple([FieldElement(field, v) for v in values])
    elems = kind.elems
    return tuple([elems[i] for i in values])


def _wrap(field: FieldDescriptor, values: list, kind) -> "Polynomial":
    """The polynomial over field with kernel coefficients values (trimmed),
    read in the kind the kernel call was made with."""
    out = Polynomial.__new__(Polynomial)
    out.field = field
    out.coeffs = _elements(field, values, kind)
    out._hash = None
    return out


def _rep_values(x: FieldElement, kind) -> list:
    """Kernel coefficients of an extension-step element over its base."""
    return zkernel.trim(_values(kind, x.rep))


def _modulus_values(fld: FieldDescriptor, kind) -> list:
    """Kernel coefficients of fld's modulus in kind, the base's kind now.

    The base's kind changes when its table is built or forgotten, so the
    cache holds the kind it was computed for."""
    got = fld._mod_values
    if got is None or got[0] is not kind:
        got = fld._mod_values = (kind, _values(kind, fld.modulus.coeffs))
    return got[1]


class Polynomial:
    """Dense univariate polynomial over a field descriptor."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FieldDescriptor, coeffs: Iterable):
        elems = [field.element(c) if not isinstance(c, FieldElement) else c
                 for c in coeffs]
        for c in elems:
            if c.field is not field and c.field != field:
                raise DescriptorMismatch("coefficient over wrong field")
        self.field = field
        self.coeffs = tuple(zkernel.trim(elems))
        self._hash = None

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, [field.one()])

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def constant(cls, c: FieldElement) -> "Polynomial":
        return cls(c.field, [c])

    @classmethod
    def from_ints(cls, field, ints: Iterable[int]) -> "Polynomial":
        return cls(field, [field.from_int(n) for n in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def constant_term(self) -> FieldElement:
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise DescriptorMismatch("polynomials over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial(self.field, [self.field.element(other)
                                           if isinstance(other, int) else other])
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        fld = self.field
        k = _kind(fld)
        return _wrap(fld, zkernel.zp_add(_values(k, self.coeffs), _values(k, b.coeffs), k), k)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        fld = self.field
        k = _kind(fld)
        return _wrap(fld, zkernel.zp_sub(_values(k, self.coeffs), _values(k, b.coeffs), k), k)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b - self

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)) and not isinstance(other, Polynomial):
            c = self.field.element(other) if isinstance(other, int) else other
            return Polynomial(self.field, [x * c for x in self.coeffs])
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        fld = self.field
        k = _kind(fld)
        return _wrap(fld, zkernel.zp_mul(_values(k, self.coeffs), _values(k, b.coeffs), k), k)

    __rmul__ = __mul__

    def __divmod__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        fld = self.field
        k = _kind(fld)
        q, r = zkernel.zp_divmod(_values(k, self.coeffs), _values(k, b.coeffs), k)
        return _wrap(fld, q, k), _wrap(fld, r, k)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        if self.is_monic():
            return self
        inv = self.lc().inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field,
                          [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def evaluate(self, point: FieldElement) -> FieldElement:
        """Horner evaluation; `point` may live in an extension of this field."""
        target = point.field
        if target == self.field:
            acc = self.field.zero()
            for c in reversed(self.coeffs):
                acc = acc * point + c
            return acc
        if not is_ancestor(self.field, target):
            raise DescriptorMismatch("evaluation point not in an extension of the coefficients")
        acc = target.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + embed(c, target)
        return acc

    def same_coeffs(self, other: "Polynomial") -> bool:
        return self.coeffs == other.coeffs

    def coeff_key(self):
        return tuple(c._key() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.coeff_key()))
        return self._hash

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(repr(c))
            else:
                xs = "X" if i == 1 else f"X^{i}"
                parts.append(xs if c.is_one() else f"{c!r}*{xs}")
        return " + ".join(parts)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd; poly_gcd(0, 0) = 0."""
    if f.field != g.field:
        raise DescriptorMismatch("gcd of polynomials over different fields")
    fld = f.field
    k = _kind(fld)
    return _wrap(fld, zkernel.zp_gcd(_values(k, f.coeffs), _values(k, g.coeffs), k), k)


def poly_resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """Res(f, g): lc(f)^deg(g) times the product of g over the roots of f,
    by Euclid's algorithm in the kernel; zero when f or g is zero. For f
    monic irreducible it is the norm of g(x) from k[x]/(f) down to k."""
    if f.field != g.field:
        raise DescriptorMismatch("resultant of polynomials over different fields")
    fld = f.field
    if not f.coeffs or not g.coeffs:
        return fld.zero()
    k = _kind(fld)
    res = zkernel.zp_resultant(_values(k, f.coeffs), _values(k, g.coeffs), k)
    return _elements(fld, [res], k)[0]


class RationalFunction:
    """Reduced quotient of polynomials; denominator monic and nonzero."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.field != den.field:
            raise DescriptorMismatch("numerator/denominator field mismatch")
        if num.is_zero():
            num, den = Polynomial.zero(num.field), Polynomial.one(num.field)
        else:
            g = poly_gcd(num, den) if den.degree > 0 else den  # a gcd with a unit is 1
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.lc()
            if not lead.is_one():
                inv = lead.inverse()
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den
        self._hash = None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def add(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def neg(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def mul(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num)
        return f"({self.num})/({self.den})"


# -- embeddings and coordinates ---------------------------------------------

def is_ancestor(k: FieldDescriptor, L: FieldDescriptor) -> bool:
    """True when k appears in L's tower (k == L included)."""
    while True:
        if k == L:
            return True
        if L.kind in (EXTENSION, FUNCTION):
            L = L.base
        else:
            return False


def embed(x: FieldElement, L: FieldDescriptor) -> FieldElement:
    """Include x along the tower k -> L."""
    if x.field == L:
        return x
    if L.kind == EXTENSION:
        below = embed(x, L.base)
        return _ext_from_coeffs(L, [below])
    if L.kind == FUNCTION:
        below = embed(x, L.base)
        return L.element(Polynomial.constant(below))
    raise DescriptorMismatch(f"{x.field} does not embed into {L}")


def embed_poly(f: Polynomial, L: FieldDescriptor) -> Polynomial:
    if f.field == L:
        return f
    return Polynomial(L, [embed(c, L) for c in f.coeffs])


def tower_degree(L: FieldDescriptor, base: FieldDescriptor) -> int:
    d = 1
    while L != base:
        if L.kind != EXTENSION:
            raise DescriptorMismatch(f"{base} is not below {L}")
        d *= L.step_degree
        L = L.base
    return d


def tower_steps(L: FieldDescriptor, base: FieldDescriptor) -> list[FieldDescriptor]:
    """Descriptors from base (exclusive) up to L (inclusive), bottom first."""
    steps = []
    while L != base:
        if L.kind != EXTENSION:
            raise DescriptorMismatch(f"{base} is not below {L}")
        steps.append(L)
        L = L.base
    steps.reverse()
    return steps


def coordinates(x: FieldElement, base: FieldDescriptor) -> list[FieldElement]:
    """Coordinates of x over base w.r.t. the tower basis.

    Basis order: for L = M[x]/(m) with M-basis (b_j), the L-basis over the
    bottom is (b_j * x^i) listed i-major, matching from_coordinates.
    """
    if x.field == base:
        return [x]
    if x.field.kind != EXTENSION or not is_ancestor(base, x.field):
        raise DescriptorMismatch(f"{base} is not below {x.field}")
    out: list[FieldElement] = []
    for c in x.rep:
        out.extend(coordinates(c, base))
    return out


def from_coordinates(vec: list[FieldElement], L: FieldDescriptor,
                     base: FieldDescriptor) -> FieldElement:
    if L == base:
        if len(vec) != 1:
            raise ValueError("coordinate length mismatch")
        return vec[0]
    step = tower_degree(L.base, base)
    if len(vec) != step * L.step_degree:
        raise ValueError("coordinate length mismatch")
    coeffs = [from_coordinates(vec[i * step:(i + 1) * step], L.base, base)
              for i in range(L.step_degree)]
    return _ext_from_coeffs(L, coeffs)


def element_from_poly(L: FieldDescriptor, g: Polynomial) -> FieldElement:
    """The class of g(x) in L = k[x]/(m); g must be over k with deg g < deg m."""
    if L.kind != EXTENSION:
        raise UnsupportedField("element_from_poly needs an extension step")
    if g.field != L.base:
        raise DescriptorMismatch("polynomial not over the base field")
    if g.degree >= L.step_degree:
        g = g % L.modulus
    return _ext_from_coeffs(L, list(g.coeffs))


def poly_of_element(x: FieldElement) -> Polynomial:
    """Canonical representative of an extension element as a base polynomial."""
    if x.field.kind != EXTENSION:
        raise UnsupportedField("poly_of_element needs an extension element")
    return Polynomial(x.field.base, list(x.rep))


def all_elements(field: FieldDescriptor) -> Iterator[FieldElement]:
    """Every element of a finite field, in a fixed order."""
    if field.kind == PRIME:
        for v in range(field.p):
            yield FieldElement(field, v)
        return
    if field.kind == EXTENSION and field.is_finite():
        if field._table is not None:
            yield from field._table.elems
            return
        # product() varies its last slot fastest; the first coefficient
        # varies fastest here
        for rep in product(all_elements(field.base), repeat=field.step_degree):
            yield FieldElement(field, rep[::-1])
        return
    raise UnsupportedField("all_elements needs a finite field")

