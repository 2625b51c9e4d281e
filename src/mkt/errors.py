"""Error vocabulary shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto exit codes without string matching.
"""


class MktError(Exception):
    """Base class for all package errors."""


class DescriptorMismatch(MktError):
    """Operands belong to different field descriptors."""


class DivisionByZero(MktError, ZeroDivisionError):
    pass


class ZeroElement(MktError):
    pass


class ZeroEntry(MktError):
    """A Milnor symbol entry is zero."""


class ZeroPolynomial(MktError):
    pass


class ZeroInput(MktError):
    pass


class BadModulus(MktError):
    """Modulus is not monic/irreducible, or an integer modulus is not an odd prime."""


class UnsupportedField(MktError):
    """No canonical form (or no such operation) for this field."""


class UnsupportedFactorization(MktError):
    """Polynomial factorization is not supported over this coefficient field."""


class UnsupportedTower(MktError):
    """Tower of extensions outside the supported policy (e.g. height >= 2 over Q)."""


class DegenerateDifferences(MktError):
    """Sample points for the cyclic difference identity are not pairwise distinct."""


class DegenerateInput(MktError):
    pass


class ArityMismatch(MktError):
    pass


class NotUnitDeterminant(MktError):
    """A family slot over k(t) is not invertible over k[t]."""


class RecursionInvariantViolated(MktError):
    """Internal guard: transfer recursion failed to reduce degrees strictly."""


class UnsupportedCombination(MktError):
    """Joint-determinant specification incompatible with the field/weight."""


class ParseError(MktError):
    """Malformed CLI input document."""
