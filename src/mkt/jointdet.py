"""Joint determinants on commuting tuples, and the local symbols behind them.

A joint determinant is a map from weight-l tuples to an abelian group that
is multilinear in the slots, additive over block-diagonal sums, invariant
under conjugation, and constant along one-parameter polynomial families.
Every such map factors through the symbol class of the tuple, so each
concrete determinant here is a post-processing of the reduced expression
(reduce_tuple) or of its class (class_of_tuple):

  * universal          - the class itself (any supported field);
  * real-sign          - the sign invariant over Q (order two);
  * rational-hilbert   - a product of local Hilbert symbols over a chosen
                         place set (Q, weight >= 2); at weight 2 it is read
                         off the reduced expression term by term, so no
                         entry is factored;
  * finite-field-trivial - constantly +1 over a finite field (weight >= 2),
                         with a self-check that the class really vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

from .canonical import combine_values, is_trivial_value
from .commuting import (MatrixTuple, class_of_tuple, homotopy_mult,
                        homotopy_shear, homotopy_steinberg, homotopy_swap,
                        reduce_tuple)
from .errors import (BadModulus, DegenerateInput, RecursionInvariantViolated,
                     UnsupportedCombination, ZeroInput)
from .fields import PRIME, RATIONALS, FieldDescriptor, FieldElement
from .linalg import Matrix
from .numutil import is_prime, split_rational
from .sampling import commuting_tuple, invertible_matrix, random_unit
from .valuations import PRIME_PLACE, REAL, Valuation

__all__ = [
    "legendre", "hilbert", "JointDeterminant", "make_determinant",
    "check_axioms", "UNIVERSAL", "REAL_SIGN_SPEC", "RATIONAL_HILBERT",
    "FINITE_TRIVIAL", "SPECS",
]

UNIVERSAL = "universal"
REAL_SIGN_SPEC = "real-sign"
RATIONAL_HILBERT = "rational-hilbert"
FINITE_TRIVIAL = "finite-field-trivial"
SPECS = (UNIVERSAL, REAL_SIGN_SPEC, RATIONAL_HILBERT, FINITE_TRIVIAL)


def _as_fraction(a) -> Fraction:
    if isinstance(a, FieldElement):
        if a.field.kind != RATIONALS:
            raise DegenerateInput("expected a rational number")
        return a.rep
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    raise DegenerateInput(f"expected a rational number, got {type(a).__name__}")


def legendre(a, p: int) -> int:
    """The quadratic residue symbol of a modulo an odd prime p, in {+1, -1}."""
    if p == 2 or p < 2 or not is_prime(p):
        raise BadModulus("legendre symbol needs an odd prime modulus")
    if isinstance(a, FieldElement) and a.field.kind == PRIME:
        if a.field.p != p:
            raise BadModulus("element modulus disagrees with p")
        n = a.rep
    else:
        q = _as_fraction(a)
        if q.numerator % p == 0:
            raise ZeroInput("residue is zero mod p")
        if q.denominator % p == 0:
            raise ZeroInput("not a unit mod p")
        n = (q.numerator * pow(q.denominator, -1, p)) % p
    if n % p == 0:
        raise ZeroInput("residue is zero mod p")
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def _place_token(place):
    """Normalize a place argument to 'inf' or a prime int."""
    if isinstance(place, Valuation):
        if place.kind == REAL:
            return "inf"
        if place.kind == PRIME_PLACE:
            return place.p
        raise DegenerateInput("hilbert symbols live over Q places")
    if place in ("inf", "infinity", "real", "oo"):
        return "inf"
    if isinstance(place, int):
        if not is_prime(place):
            raise BadModulus(f"{place} is not a prime")
        return place
    raise DegenerateInput(f"not a place of Q: {place!r}")


def hilbert(a, b, place) -> int:
    """The Hilbert symbol (a, b) at a place of Q, valued in {+1, -1}.

    place is 'inf', a prime, or a Valuation over Q. At the real place the
    symbol is -1 exactly when both arguments are negative; at an odd prime
    it is the quadratic residue symbol of the tame component; at 2 it is
    computed from the residues of the odd parts modulo 8.
    """
    qa, qb = _as_fraction(a), _as_fraction(b)
    if qa == 0 or qb == 0:
        raise ZeroInput("hilbert symbol of zero")
    tok = _place_token(place)
    if tok == "inf":
        return -1 if (qa < 0 and qb < 0) else 1
    p = tok
    # qa = p^alpha * u and qb = p^beta * v with p-units u and v
    alpha, un, ud = split_rational(qa, p)
    beta, vn, vd = split_rational(qb, p)
    if p != 2:
        # legendre of the tame component (-1)^(alpha beta) u^beta v^(-alpha)
        sign = -1 if (alpha * beta) % 2 == 1 and p % 4 == 3 else 1
        out = sign
        if beta % 2 == 1:
            out *= legendre(Fraction(un, ud), p)
        if alpha % 2 == 1:
            out *= legendre(Fraction(vn, vd), p)
        return out
    # odd numerators and denominators: inverses mod 8 are themselves
    u8, v8 = un * ud % 8, vn * vd % 8
    eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
    om_u, om_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
    e = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if e % 2 == 1 else 1


@dataclass(frozen=True)
class JointDeterminant:
    """A named evaluator on commuting tuples satisfying the four axioms."""

    field: FieldDescriptor
    weight: int
    spec: str
    places: tuple = ()
    evaluator: Callable = dc_field(default=None, repr=False)

    def __call__(self, x: MatrixTuple):
        if x.field != self.field:
            raise DegenerateInput("tuple over the wrong field")
        if x.weight != self.weight:
            raise DegenerateInput(f"expected weight {self.weight}, got {x.weight}")
        return self.evaluator(x)

    @property
    def label(self) -> str:
        if self.places:
            return f"{self.spec}({', '.join(str(p) for p in self.places)})"
        return self.spec


def make_determinant(field: FieldDescriptor, weight: int, spec: str,
                     places=None) -> JointDeterminant:
    """Build one of the provided joint determinants.

    spec: 'universal' (class-valued, any field), 'real-sign' (Q),
    'rational-hilbert' (Q, weight >= 2, needs a place set; for weight >= 3
    the only nontrivial local datum left is the real sign, which is what is
    used), or 'finite-field-trivial' (finite fields, weight >= 2).
    """
    if weight < 1:
        raise UnsupportedCombination("weight must be positive")
    if spec == UNIVERSAL:
        return JointDeterminant(field, weight, spec, (),
                                lambda x: class_of_tuple(x))
    if spec == REAL_SIGN_SPEC:
        if field.kind != RATIONALS:
            raise UnsupportedCombination("the sign determinant needs Q")
        return JointDeterminant(field, weight, spec, (),
                                lambda x: class_of_tuple(x, real=True).eps)
    if spec == RATIONAL_HILBERT:
        if field.kind != RATIONALS:
            raise UnsupportedCombination("hilbert determinants need Q")
        if weight < 2:
            raise UnsupportedCombination("hilbert determinants need weight >= 2")
        toks = tuple(sorted({_place_token(p) for p in (places or ())},
                            key=lambda t: (t == "inf", t if t != "inf" else 0)))
        if not toks:
            raise UnsupportedCombination("need a nonempty place set")
        if weight == 2:
            def ev(x, toks=toks):
                # the Hilbert symbol is bimultiplicative, so each place reads
                # the odd-coefficient terms of the reduced expression; no
                # entry is factored
                out = 1
                for (a, b), c in reduce_tuple(x).items():
                    if c % 2:
                        for t in toks:
                            out *= hilbert(a, b, t)
                return out
        else:
            def ev(x):
                return class_of_tuple(x).eps
        return JointDeterminant(field, weight, spec, toks, ev)
    if spec == FINITE_TRIVIAL:
        if not field.is_finite():
            raise UnsupportedCombination("triviality statement needs a finite field")
        if weight < 2:
            raise UnsupportedCombination(
                "weight-1 determinants over a finite field are not trivial")

        def ev(x):
            cls = class_of_tuple(x)
            if not cls.is_zero():
                raise RecursionInvariantViolated(
                    "nonzero class over a finite field")
            return 1
        return JointDeterminant(field, weight, spec, (), ev)
    raise UnsupportedCombination(f"unknown determinant spec: {spec!r}")


def check_axioms(d: JointDeterminant, trials: int = 100,
                 rng: random.Random | None = None) -> list[str]:
    """Randomized verification of the four defining axioms of d.

    Runs `trials` instances of each axiom: slotwise multilinearity,
    block-diagonal additivity, conjugation invariance, and equality at the
    endpoints of the one-parameter families the package can construct.
    Each conjugation trial's tuple also checks two relations the axioms
    imply: an identity slot gives the trivial value, and (weight >= 2)
    swapping the first two slots inverts the value. Returns the list of
    violations (expected empty).
    """
    rng = rng or random.Random(0)
    field, weight = d.field, d.weight
    report: list[str] = []

    def expect(cond: bool, msg: str):
        if not cond:
            report.append(msg)

    for i in range(trials):
        size = rng.randint(1, 3)
        wide = commuting_tuple(field, rng, weight + 1, size)
        rest = list(wide.matrices[2:])
        a, b = wide.matrices[0], wide.matrices[1]
        ab = a * b
        if ab.det().is_zero():
            continue
        x1 = MatrixTuple(field, [a] + rest)
        x2 = MatrixTuple(field, [b] + rest)
        x12 = MatrixTuple(field, [ab] + rest)
        expect(d(x12) == combine_values(d(x1), d(x2)),
               f"multilinearity failed at trial {i}")

    for i in range(trials):
        x = commuting_tuple(field, rng, weight, rng.randint(1, 2))
        y = commuting_tuple(field, rng, weight, rng.randint(1, 2))
        expect(d(x.direct_sum(y)) == combine_values(d(x), d(y)),
               f"block-diagonal additivity failed at trial {i}")

    for i in range(trials):
        x = commuting_tuple(field, rng, weight, rng.randint(1, 3))
        s = invertible_matrix(field, rng, x.size)
        dx = d(x)
        expect(d(x.conjugate(s)) == dx,
               f"conjugation invariance failed at trial {i}")
        expect(is_trivial_value(d(x.with_slot(0, Matrix.identity(field, x.size)))),
               f"identity slot not trivial at trial {i}")
        if weight >= 2:
            expect(is_trivial_value(combine_values(d(x.swap_slots(0, 1)), dx)),
                   f"swap did not invert the value at trial {i}")

    for i in range(trials):
        kind = rng.choice(["mult", "swap", "steinberg", "shear"])
        fam = None
        if kind == "mult":
            wide = commuting_tuple(field, rng, weight + 1, rng.randint(1, 2))
            rest = list(wide.matrices[2:])
            a, b = wide.matrices[0], wide.matrices[1]
            fam = homotopy_mult(a, b, rest)
        elif kind == "swap" and weight >= 2:
            x = commuting_tuple(field, rng, weight, rng.randint(1, 2))
            fam = homotopy_swap(x, 0, 1)
        elif kind == "steinberg" and weight >= 2:
            one = field.one()
            while True:
                aa = random_unit(field, rng)
                bb = random_unit(field, rng)
                if aa != one and bb != one:
                    break
            byst = []
            for _ in range(weight - 2):
                byst.append(random_unit(field, rng))
            fam = homotopy_steinberg(aa, bb, byst)
        elif kind == "shear" and weight == 1:
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            amat = invertible_matrix(field, rng, p)
            bmat = invertible_matrix(field, rng, q)
            cmat = Matrix(field, [[random_unit(field, rng) for _ in range(q)]
                                  for _ in range(p)])
            fam = homotopy_shear(amat, bmat, cmat)
        if fam is None:
            continue
        at1, at0 = fam.boundary()
        expect(d(at1) == d(at0), f"homotopy endpoints differ at trial {i} ({kind})")
    return report
