"""Frey curves y^2 = x*(x - A)*(x + B) for a^p + 2^alpha*b^p + c^p = 0.

A candidate solution (a, b, c) with any alpha >= 0 is reduced to alpha mod
p, 2^(alpha div p) moving into b, normalized so that a = -1 mod 4, then
mapped to the monomial triple

    A = a^p,   B = 2^alpha * b^p,   C = c^p,   A + B + C = 0,

and to the curve above, whose non-minimal discriminant is 16*(A*B*C)^2.
Every invariant (conductor exponent at 2 and 2-adic minimal discriminant
exponent, both keyed on ord_2(B), odd radical, odd discriminant
valuations) is computed here in closed form, never by Tate's algorithm:
the two routes share no code, and cross-checking them is the point.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Tuple

from .arith import DEFAULT_FACTOR_BOUND, factorize, require_prime, require_range, valuation
from .weierstrass import WeierstrassModel

__all__ = [
    "CONDUCTOR_EXPONENT_AT_2",
    "CurveInvariants",
    "FreyParams",
    "MonomialTriple",
    "alpha_fits",
    "build_frey",
    "canonical_triple",
    "cartan_type",
    "frey_model",
    "invariants",
    "is_trivial_level",
    "normalize",
    "sign_normalized",
]

#: Conductor exponent at 2 keyed on ord_2(B) (every value >= 5 maps to 1).
#: 16 | B, i.e. ord_2(B) >= 4, is exactly the semistable range (t <= 1).
CONDUCTOR_EXPONENT_AT_2: Dict[int, int] = {1: 5, 2: 3, 3: 3, 4: 0}


class FreyParams(NamedTuple):
    p: int
    alpha: int
    a: int
    b: int
    c: int
    normalized: bool


class MonomialTriple(NamedTuple):
    A: int
    B: int
    C: int

    def validate(self) -> None:
        if self.A == 0 or self.B == 0 or self.C == 0:
            raise ValueError("triple entries must be non-zero")
        if self.A + self.B + self.C != 0:
            raise ValueError("triple must sum to zero")
        if math.gcd(self.A, self.B, self.C) != 1:
            raise ValueError("triple must be coprime")
        if self.B % 2 != 0:
            raise ValueError("not a Frey triple (B must be even)")
        if self.A % 4 != 3:
            raise ValueError("not a Frey triple (A must be -1 mod 4)")


class CurveInvariants(NamedTuple):
    t: int
    odd_radical: int
    conductor: int
    semistable: bool
    u: int
    odd_disc_valuations: Dict[int, int]


def sign_normalized(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """Flip the sign of all three entries unless a = -1 mod 4 already (a odd)."""
    if a % 2 == 0:
        raise ValueError("sign normalization needs an odd first entry")
    return (a, b, c) if a % 4 == 3 else (-a, -b, -c)


def canonical_triple(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """Canonical orbit representative under a<->c swap and global sign flip.

    For odd a and c this is the lexicographically smaller of the two
    sign-normalized orderings, so the first entry is -1 mod 4 and, when
    both orderings keep that congruence, the one with a <= c is chosen.
    Mixed-parity triples fall back to the lex-min of the full orbit.
    """
    if a % 2 != 0 and c % 2 != 0:
        return min(sign_normalized(a, b, c), sign_normalized(c, b, a))
    orbit = [(a, b, c), (c, b, a), (-a, -b, -c), (-c, -b, -a)]
    return min(orbit)


def alpha_fits(p: int, alpha: int, bound: int, L: int = 2) -> bool:
    """False if a^p + L^alpha*b^p + c^p = 0, b != 0 has no solution with |a|, |c| <= bound:
    L^alpha*|b|^p = |a^p + c^p| <= 2*bound^p < 2^(p*bit_length(bound) + 1)."""
    return alpha * (L.bit_length() - 1) <= p * bound.bit_length()


def normalize(p: int, alpha: int, a: int, b: int, c: int) -> FreyParams:
    """Validate a candidate solution for any alpha >= 0, move 2^(alpha div p)
    into b and fix signs so that a = -1 mod 4.

    Idempotent: normalizing the output again returns the same params.
    """
    require_range(alpha, "alpha", 0)
    require_prime(p, "p", 3)
    if alpha % p == 0:
        raise ValueError(
            "not a solution (Fermat case: alpha reduces to 0 mod p, and "
            "a^p + b^p + c^p = 0 has no solutions in non-zero integers)"
        )
    if a == 0 or b == 0 or c == 0:
        raise ValueError("entries must be non-zero")
    # Cheap refusals first, by the size rule and then modulo the prime
    # 2^61 - 1; only the exact equation accepts.
    q = (1 << 61) - 1
    if (
        not alpha_fits(p, alpha, max(abs(a), abs(c)))
        or (pow(a, p, q) + pow(2, alpha, q) * pow(b, p, q) + pow(c, p, q)) % q
        or a**p + 2**alpha * b**p + c**p
    ):
        raise ValueError("not a solution")
    alpha, b = alpha % p, b << alpha // p
    if math.gcd(a, b, c) != 1:
        raise ValueError("not primitive")
    a, b, c = sign_normalized(a, b, c)
    return FreyParams(p=p, alpha=alpha, a=a, b=b, c=c, normalized=True)


def build_frey(params: FreyParams) -> Tuple[MonomialTriple, WeierstrassModel]:
    """Monomial triple and curve model attached to normalized parameters."""
    if not params.normalized:
        raise ValueError("params must be normalized first")
    A = params.a**params.p
    B = 2**params.alpha * params.b**params.p
    C = params.c**params.p
    triple = MonomialTriple(A=A, B=B, C=C)
    triple.validate()
    return triple, frey_model(triple)


def frey_model(triple: MonomialTriple) -> WeierstrassModel:
    """y^2 = x*(x - A)*(x + B); its discriminant is 16*(A*B*C)^2."""
    return WeierstrassModel(0, triple.B - triple.A, 0, -triple.A * triple.B, 0)


def invariants(
    triple: MonomialTriple, factor_bound: int = DEFAULT_FACTOR_BOUND
) -> CurveInvariants:
    """Closed-form conductor and discriminant data for a Frey triple.

    ``u`` (minimal discriminant = 2^u * (A*B*C)^2) is 4 while v_2(Delta) =
    4 + 2*ord_2(B) < 12 keeps the model minimal at 2; once 16 | B it is -8.
    """
    triple.validate()
    ord2_b = valuation(triple.B, 2)
    t = CONDUCTOR_EXPONENT_AT_2.get(ord2_b, 1)
    u = -8 if ord2_b >= 4 else 4

    odd_vals: Dict[int, int] = {}
    for entry in (triple.A, triple.B, triple.C):
        for ell, e in factorize(entry, factor_bound).items():
            if ell != 2:
                odd_vals[ell] = odd_vals.get(ell, 0) + 2 * e

    odd_radical = 1
    for ell in odd_vals:
        odd_radical *= ell

    return CurveInvariants(
        t=t,
        odd_radical=odd_radical,
        conductor=2**t * odd_radical,
        semistable=ord2_b >= 4,
        u=u,
        odd_disc_valuations=odd_vals,
    )


def is_trivial_level(inv: CurveInvariants) -> bool:
    """True when the odd radical is 1, i.e. the conductor is a power of 2.

    Happens exactly for the trivial-solution curve family.
    """
    return inv.odd_radical == 1


def cartan_type(p: int) -> str:
    """Which non-split/split Cartan case p falls in: split iff p = 1 mod 4."""
    require_prime(p, "p", 3)
    return "Split" if p % 4 == 1 else "NonSplit"
