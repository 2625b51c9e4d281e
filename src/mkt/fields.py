"""Field descriptors, exact field elements, polynomials, rational functions.

Supported fields: the rationals, prime fields F_p, simple extension steps
k[x]/(m) stacked into towers, and rational function fields k(X). All values
are immutable and hashable; arithmetic never leaves exact representations
(Fraction for Q, residues for F_p, fixed-length coefficient tuples for
extension steps, reduced num/den pairs for k(X)).

Descriptors are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): `rationals`, `prime_field`, `extension`
and `function_field` are the only makers, and each hands out the one live
object of its field, so descriptor equality is identity and the default
hash serves. Extensions and function fields are interned weakly: a
descriptor that nothing uses leaves its cache when the garbage collector
takes it (its tower refers to itself, so that waits for a collection), and
a later call makes it afresh. Each descriptor keeps its tower, the tuple of
descriptors from Q or F_p up to itself, and its characteristic, finiteness,
degree and steps over a subfield are read off that tuple.
`extension` proves its modulus irreducible once, when it makes the
descriptor, so no descriptor is ever made over a reducible modulus. A
finite step of order q <= _TABLE_MAX is proven by the walk that builds its
_Table, any other step by `factor.is_irreducible`. The table comes at
birth: its q elements, interned, and full q x q addition and multiplication
tables on their indices, built from Zech logarithms (Huber, IEEE Trans. IT
1990). The table lives as long as the descriptor, and every element of a
tabled field is one of its table's elements, so +, -, *, inverse and == are
list lookups. Every other field computes on coefficients for its whole
life. One constructor, `_ext_from_coeffs`, makes every element of an
extension step from its base elements (all_elements aside): the interned
table element over a tabled step, and a zero-padded coefficient tuple over
any other step.

Polynomial +, -, *, divmod, gcd and resultant, and the product and inverse
of an extension-step element, are each one call into `zkernel`, made in the
coefficient field's kernel kind (`kernel_kind`): integer residues over a
prime field, table indices over a tabled field, the elements themselves over
any other. `kernel_values` hands the coefficients in, and `kernel_elements`
(through `_wrap` for a Polynomial) turns the result back into elements.
`linalg` keeps its vectors and matrix rows off Q in the same kernel form.

Each element has one key, `FieldElement.key()`, and each polynomial one,
`Polynomial.coeff_key()` = (degree, coefficient keys). Within one field a
key is the value's identity and its canonical order: `==` and hash read it,
and every module sorts symbols, factors, places and forms by it. It is
built on first use and kept in the object.

Coefficient lists everywhere are ordered lowest degree first, highest degree
last. The zero polynomial has degree -1.
"""

from __future__ import annotations

from fractions import Fraction
import weakref
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
from mkt.numutil import is_prime

RATIONALS = "rationals"
PRIME = "prime"
EXTENSION = "extension"
FUNCTION = "function"


# extension() builds a _Table for a finite step of at most this many elements.
# A build takes 0.09 ms for F_9, 0.26 ms for F_27 and 1.4 ms for F_81
# (Python 3.11, 2-core x86 host). The hot field is F_9; the F_81 residue
# fields of degree-2 places over F_9 are made hundreds of times but used
# lightly, and a cap of 81, with builds of 3-4.6 ms, cut the ff_reciprocity
# benchmark by 28-31% in items/s. At F_{251^2} a 63,001-element table saved
# no time and raised peak RSS from 21.8 to 38.7 MB.
_TABLE_MAX = 27


# the makers' pass to FieldDescriptor.__init__
_MAKER = object()


class FieldDescriptor:
    """Identity of a field: the one live object for it, so == is `is`. Only
    rationals, prime_field, extension and function_field make one; do not
    mutate."""

    __slots__ = ("kind", "p", "base", "modulus", "tower", "_mod_values",
                 "_order", "_table", "__weakref__")

    def __init__(self, maker, kind: str, p: int | None = None,
                 base: "FieldDescriptor | None" = None,
                 modulus: "Polynomial | None" = None):
        if maker is not _MAKER:
            raise TypeError("field descriptors come from rationals(), prime_field(), "
                            "extension() and function_field()")
        self.kind = kind
        self.p = p
        self.base = base
        self.modulus = modulus
        # the descriptors from Q or F_p up to this one, bottom first
        self.tower = (self,) if base is None else base.tower + (self,)
        # the modulus's coefficients in the base's kernel kind, for the
        # arithmetic of this step
        self._mod_values = (None if modulus is None
                            else kernel_values(kernel_kind(base), modulus.coeffs))
        self._order = None
        # set by extension() on small finite steps, kept for life
        self._table = None

    # -- construction ------------------------------------------------------

    @property
    def step_degree(self) -> int:
        """Degree of this extension step over its base (1 for base fields)."""
        if self.kind == EXTENSION:
            return self.modulus.degree
        return 1

    def characteristic(self) -> int:
        return self.tower[0].p or 0

    def is_finite(self) -> bool:
        return self.kind != FUNCTION and self.tower[0].kind == PRIME

    def absolute_degree(self) -> int:
        """Total degree over the prime field (finite) or over Q."""
        if self.kind == FUNCTION:
            raise UnsupportedField("function fields have no finite degree")
        return tower_degree(self, self.tower[0])

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
            return _ext_from_coeffs(self, [self.base.from_int(n)])
        k = self.base
        rep = RationalFunction(Polynomial(k, [k.from_int(n)]), Polynomial.one(k))
        return FieldElement(self, rep)

    def element(self, value) -> "FieldElement":
        """Coerce value into this field.

        Accepts ints anywhere, Fractions over Q, coefficient sequences for
        extension steps, and Polynomial/RationalFunction over k for k(X).
        """
        if isinstance(value, FieldElement):
            if value.field is not self:
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
            return _ext_from_coeffs(self, [self.base.element(c) for c in value])
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
            if self.step_degree == 1:
                # x = root of a linear modulus is a base constant
                return _ext_from_coeffs(self, [-self.modulus.coeffs[0]])
            return _ext_from_coeffs(self, [self.base.zero(), self.base.one()])
        if self.kind == FUNCTION:
            return FieldElement(self, RationalFunction(Polynomial.x(self.base),
                                                       Polynomial.one(self.base)))
        raise UnsupportedField("gen() needs an extension or function field")

    def __reduce__(self):
        # copy, deepcopy and pickle remake a descriptor through its maker too
        if self.kind == RATIONALS:
            return rationals, ()
        if self.kind == PRIME:
            return prime_field, (self.p,)
        if self.kind == FUNCTION:
            return function_field, (self.base,)
        return extension, (self.base, self.modulus)

    def __repr__(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F_{self.p}"
        if self.kind == FUNCTION:
            return f"{self.base!r}(X)"
        return f"{self.base!r}[x]/({self.modulus})"


_RATIONALS = FieldDescriptor(_MAKER, RATIONALS)
_PRIME_CACHE: dict[int, FieldDescriptor] = {}
# modulus -> base[x]/(modulus) and base -> base(X), for as long as the
# descriptor lives; a table goes with its descriptor
_EXTENSIONS: weakref.WeakValueDictionary[Polynomial, FieldDescriptor] = \
    weakref.WeakValueDictionary()
_FUNCTION_FIELDS: weakref.WeakValueDictionary[FieldDescriptor, FieldDescriptor] = \
    weakref.WeakValueDictionary()


def rationals() -> FieldDescriptor:
    return _RATIONALS


def prime_field(p: int) -> FieldDescriptor:
    got = _PRIME_CACHE.get(p)
    if got is None:
        if not is_prime(p):
            raise BadModulus(f"{p} is not prime")
        got = FieldDescriptor(_MAKER, PRIME, p=p)
        _PRIME_CACHE[p] = got
    return got


def extension(base: FieldDescriptor, modulus: "Polynomial") -> FieldDescriptor:
    """Simple extension base[x]/(modulus), modulus monic irreducible.

    The modulus is proven irreducible once, when its descriptor is made, and
    BadModulus raised if it is not: a finite step of order <= _TABLE_MAX by
    the power walk of _build_table, any other step by is_irreducible. A
    cached descriptor is returned with no second proof.
    """
    if modulus.field is not base:
        raise DescriptorMismatch("modulus is not over the base field")
    got = _EXTENSIONS.get(modulus)
    if got is not None:
        return got
    if modulus.degree < 1:
        raise BadModulus("modulus must have degree >= 1")
    if not modulus.is_monic():
        raise BadModulus("modulus must be monic")
    if base.kind == FUNCTION:
        raise UnsupportedField("extensions of function fields are not supported")
    got = FieldDescriptor(_MAKER, EXTENSION, base=base, modulus=modulus)
    if base.is_finite() and got.order() <= _TABLE_MAX:
        proven = _build_table(got)
    else:
        from mkt.factor import is_irreducible

        proven = is_irreducible(modulus)
    if not proven:
        raise BadModulus(f"modulus {modulus} is reducible")
    _EXTENSIONS[modulus] = got
    return got


def function_field(base: FieldDescriptor) -> FieldDescriptor:
    if base.kind == FUNCTION:
        raise UnsupportedField("iterated function fields are not supported")
    got = _FUNCTION_FIELDS.get(base)
    if got is None:
        got = _FUNCTION_FIELDS[base] = FieldDescriptor(_MAKER, FUNCTION, base=base)
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


def _build_table(fld: FieldDescriptor) -> bool:
    """Give fld its _Table and return True if its modulus is irreducible;
    return False otherwise.

    The walk is the proof: a ring of order q is a field exactly when some
    element has multiplicative order q - 1 (Lidl and Niederreiter, Finite
    Fields, ch. 2), and over a reducible modulus no element does.
    """
    base = fld.base
    q = fld.order()
    m = q - 1
    base_elems = list(all_elements(base))
    nb = len(base_elems)
    elems = list(all_elements(fld))
    for i, e in enumerate(elems):
        e.ix = i
    exp = [0] * (2 * m)
    log = [0] * q
    # the walk multiplies coefficient lists in the base's kernel kind, and
    # a list's index is its table_index, so candidate j has the base-nb
    # digits of j as coefficients. Indices below nb are the base field,
    # which holds a generator only when the step has degree 1. The generator
    # is the first candidate whose powers first return to one after m steps,
    # and its walk fills exp and log; over a reducible modulus no element's
    # powers do
    kind, mod = kernel_kind(base), fld._mod_values
    for j in range(nb if q > nb else 1, q):
        g = []
        while j:
            j, r = divmod(j, nb)
            g.append(r)
        x = [1]
        for k in range(m):
            i = table_index(fld, x)
            if k and i == 1:
                break
            exp[k] = exp[k + m] = i
            log[i] = k
            x = zkernel.zp_mulmod(x, g, mod, kind)
        else:
            if table_index(fld, x) == 1:
                break
    else:
        return False
    base_one = base.one()
    plus_one = kernel_values(kind, [b + base_one for b in base_elems])
    zech = [-1] * m
    for n in range(m):
        i = exp[n]
        j = i - i % nb + plus_one[i % nb]
        if j:
            zech[n] = log[j]
    fld._table = _Table(elems, exp, log, zech)
    return True


def table_index(fld: FieldDescriptor, values: list) -> int:
    """The index in fld's table (the position in all_elements(fld)) of the
    element whose coefficients over fld.base are values, lowest first, given
    as kernel values of the base (residues in [0, p) over F_p); fewer than
    the step degree leave the rest zero. It is Horner's rule in base order."""
    nb = fld.base.order()
    i = 0
    for v in reversed(values):
        i = i * nb + v
    return i


class FieldElement:
    """An element of the field named by `field`. Immutable."""

    __slots__ = ("field", "rep", "_key", "ix")

    def __init__(self, field: FieldDescriptor, rep):
        self.field = field
        self.rep = rep
        self._key = None  # key(), built on first use
        # position in all_elements(field), set on table elements only
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
        if self.ix is not None:
            return self.ix == 1
        k = self.field.kind
        if k == RATIONALS or k == PRIME:
            return self.rep == 1
        if k == EXTENSION:
            rep = self.rep
            return rep[0].is_one() and all(c.is_zero() for c in rep[1:])
        rf = self.rep  # den is monic, so num = den = 1 means deg den = 0
        return rf.den.degree == 0 and rf.num.degree == 0 and rf.num.coeffs[0].is_one()

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
    # descriptor take one lookup, anything else is coerced into the table
    # first. Every other field works on its representations.

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other if other.field is self.field else self.field.element(other)
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
            return tab.elems[tab.add[self.ix][other.ix]]
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, self.rep + b.rep)
        if k == PRIME:
            return FieldElement(fld, (self.rep + b.rep) % fld.p)
        if k == EXTENSION:
            return _ext_from_coeffs(fld, [x + y for x, y in zip(self.rep, b.rep)])
        return FieldElement(fld, self.rep.add(b.rep))

    __radd__ = __add__

    def __neg__(self):
        fld = self.field
        tab = fld._table
        if tab is not None:
            return tab.elems[tab.neg[self.ix]]
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, -self.rep)
        if k == PRIME:
            return FieldElement(fld, (-self.rep) % fld.p)
        if k == EXTENSION:
            return _ext_from_coeffs(fld, [-x for x in self.rep])
        return FieldElement(fld, self.rep.neg())

    def __sub__(self, other):
        fld = self.field
        tab = fld._table
        if tab is not None:
            if other.__class__ is not FieldElement or other.field is not fld:
                other = self._coerce(other)
                if other is None:
                    return NotImplemented
            return tab.elems[tab.add[self.ix][tab.neg[other.ix]]]
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
            return tab.elems[tab.mul[self.ix][other.ix]]
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, self.rep * b.rep)
        if k == PRIME:
            return FieldElement(fld, self.rep * b.rep % fld.p)
        if k == EXTENSION:
            base = fld.base
            k = kernel_kind(base)
            prod = zkernel.zp_mulmod(_rep_values(self, k), _rep_values(b, k),
                                     fld._mod_values, k)
            return _ext_from_coeffs(fld, kernel_elements(base, prod, k))
        return FieldElement(fld, self.rep.mul(b.rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        fld = self.field
        tab = fld._table
        if tab is not None:
            return tab.elems[tab.inv[self.ix]]
        k = fld.kind
        if k == RATIONALS:
            return FieldElement(fld, 1 / self.rep)
        if k == PRIME:
            return FieldElement(fld, pow(self.rep, fld.p - 2, fld.p))
        if k == EXTENSION:
            base = fld.base
            k = kernel_kind(base)
            inv = zkernel.zp_invmod(_rep_values(self, k), fld._mod_values, k)
            return _ext_from_coeffs(fld, kernel_elements(base, inv, k))
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
            return tab.elems[tab.exp[tab.log[self.ix] * e % tab.m]]
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

    def key(self):
        """The element's identity within its field, and its canonical order:
        rep over Q and F_p, the coefficients' keys for an extension step,
        (num.coeff_key(), den.coeff_key()) over k(X)."""
        k = self._key
        if k is None:
            kind = self.field.kind
            if kind == EXTENSION:
                k = tuple([c.key() for c in self.rep])
            elif kind == FUNCTION:
                k = (self.rep.num.coeff_key(), self.rep.den.coeff_key())
            else:
                k = self.rep
            self._key = k
        return k

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.key() == other.key()

    def __hash__(self):
        k = self._key
        if k is None:
            k = self.key()
        if k.__class__ is Fraction and k.denominator == 1:
            return hash(k.numerator)  # equal to hash(k), without Fraction.__hash__
        return hash(k)

    def __repr__(self):
        k = self.field.kind
        if k == RATIONALS or k == PRIME:
            return str(self.rep)
        if k == FUNCTION:
            return repr(self.rep)
        # the generator's name counts the extension steps below this one
        names = "abcdefg"
        name = names[(len(self.field.tower) - 2) % len(names)]
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


def _ext_from_coeffs(fld: FieldDescriptor, coeffs: list) -> FieldElement:
    """The element of the extension step fld whose coefficients are coeffs,
    elements of fld.base, lowest first; fewer than the step degree leave the
    rest zero. Over a tabled step it is the interned table element."""
    base = fld.base
    tab = fld._table
    if tab is not None:
        return tab.elems[table_index(fld, kernel_values(kernel_kind(base), coeffs))]
    rep = tuple(coeffs)
    return FieldElement(fld, rep + (base.zero(),) * (fld.step_degree - len(rep)))


def kernel_kind(field: FieldDescriptor):
    """The zkernel coefficient kind of field: p over a prime field, the
    _Table over a tabled one, None over any other."""
    return field.p or field._table


def kernel_values(kind, coeffs) -> list:
    """Kernel coefficients of kind: residue ints, table indices, or the
    elements themselves."""
    if kind is None:
        return list(coeffs)
    if kind.__class__ is int:
        return [c.rep for c in coeffs]
    return [c.ix for c in coeffs]


def kernel_elements(field: FieldDescriptor, values: list, kind) -> tuple:
    """The elements of field with kernel coefficients values of kind."""
    if kind is None:
        return tuple(values)
    if kind.__class__ is int:
        return tuple([FieldElement(field, v) for v in values])
    elems = kind.elems
    return tuple([elems[i] for i in values])


def _wrap(field: FieldDescriptor, values: list, kind) -> "Polynomial":
    """The polynomial over field with kernel coefficients values (trimmed)
    of kind."""
    out = Polynomial.__new__(Polynomial)
    out.field = field
    out.coeffs = kernel_elements(field, values, kind)
    out._key = None
    return out


def _rep_values(x: FieldElement, kind) -> list:
    """Kernel coefficients of an extension-step element over its base."""
    return zkernel.trim(kernel_values(kind, x.rep))


class Polynomial:
    """Dense univariate polynomial over a field descriptor."""

    __slots__ = ("field", "coeffs", "_key")

    def __init__(self, field: FieldDescriptor, coeffs: Iterable):
        elems = [c if c.__class__ is FieldElement and c.field is field else field.element(c)
                 for c in coeffs]
        self.field = field
        self.coeffs = tuple(zkernel.trim(elems))
        self._key = None  # coeff_key(), built on first use

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
        k = kernel_kind(fld)
        return _wrap(fld, zkernel.zp_add(kernel_values(k, self.coeffs),
                                         kernel_values(k, b.coeffs), k), k)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        fld = self.field
        k = kernel_kind(fld)
        return _wrap(fld, zkernel.zp_sub(kernel_values(k, self.coeffs),
                                         kernel_values(k, b.coeffs), k), k)

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
        k = kernel_kind(fld)
        return _wrap(fld, zkernel.zp_mul(kernel_values(k, self.coeffs),
                                         kernel_values(k, b.coeffs), k), k)

    __rmul__ = __mul__

    def __divmod__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        fld = self.field
        k = kernel_kind(fld)
        q, r = zkernel.zp_divmod(kernel_values(k, self.coeffs), kernel_values(k, b.coeffs), k)
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
        """Horner evaluation at a point of the coefficient field."""
        if point.field != self.field:
            raise DescriptorMismatch("evaluation point not in the coefficient field")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def coeff_key(self):
        """(degree, coefficient keys): the polynomial's identity over its
        field, and its canonical order."""
        k = self._key
        if k is None:
            k = self._key = (len(self.coeffs) - 1, tuple([c.key() for c in self.coeffs]))
        return k

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field is other.field and self.coeff_key() == other.coeff_key()

    def __hash__(self):
        k = self._key
        return hash(k if k is not None else self.coeff_key())

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
    k = kernel_kind(fld)
    return _wrap(fld, zkernel.zp_gcd(kernel_values(k, f.coeffs), kernel_values(k, g.coeffs), k), k)


def poly_powmod(a: Polynomial, e: int, f: Polynomial) -> Polynomial:
    """a^e mod f."""
    fld = f.field
    k = kernel_kind(fld)
    return _wrap(fld, zkernel.zp_powmod(kernel_values(k, a.coeffs), e,
                                        kernel_values(k, f.coeffs), k), k)


def poly_resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """Res(f, g): lc(f)^deg(g) times the product of g over the roots of f,
    by Euclid's algorithm in the kernel; zero when f or g is zero. For f
    monic irreducible it is the norm of g(x) from k[x]/(f) down to k."""
    if f.field != g.field:
        raise DescriptorMismatch("resultant of polynomials over different fields")
    fld = f.field
    if not f.coeffs or not g.coeffs:
        return fld.zero()
    k = kernel_kind(fld)
    res = zkernel.zp_resultant(kernel_values(k, f.coeffs), kernel_values(k, g.coeffs), k)
    return kernel_elements(fld, [res], k)[0]


class RationalFunction:
    """Reduced quotient of polynomials; denominator monic and nonzero."""

    __slots__ = ("num", "den")

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

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num)
        return f"({self.num})/({self.den})"


# -- embeddings and coordinates ---------------------------------------------

def is_ancestor(k: FieldDescriptor, L: FieldDescriptor) -> bool:
    """True when k appears in L's tower (k == L included)."""
    return k in L.tower


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
    for step in tower_steps(L, base):
        d *= step.modulus.degree
    return d


def tower_steps(L: FieldDescriptor, base: FieldDescriptor) -> tuple[FieldDescriptor, ...]:
    """Extension steps from base (exclusive) up to L (inclusive), bottom first."""
    n = len(base.tower)
    steps = L.tower[n:]
    if (len(L.tower) < n or L.tower[n - 1] != base
            or any(step.kind != EXTENSION for step in steps)):
        raise DescriptorMismatch(f"{base} is not below {L}")
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

