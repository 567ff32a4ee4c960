"""Local reduction data of integral Weierstrass models via Tate's algorithm.

The algorithm runs at every prime, including 2 and 3, with no valuation
shortcuts, so this module can serve as an independent oracle for the
closed-form conductor tables elsewhere in the package; nothing here
consults the table side.  Each root it needs over F_p has one closed form
for all odd p, save a cusp at 3 (x = -b6) and the triple root -dq of P at
3 and 2, where cubing is the identity; at 2 the rest are read off parities.

Layout of the main loop (one pass per candidate model; a non-minimal
model is rescaled by p and the loop restarts):

1.  v(disc) = 0                        -> good reduction, type I0.
2.  translate the singular point of the reduction to (0, 0);
    v(c4) = 0                          -> multiplicative, type I_n.
3.  p^2 does not divide a6             -> type II.
4.  p^3 does not divide b8             -> type III.
5.  p^3 does not divide b6             -> type IV.
6.  normalize so p | a1, a2; p^2 | a3, a4; p^3 | a6; examine the cubic
    P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) over F_p:
    distinct roots                     -> type I0*.
7.  double root (translated to T = 0)  -> types I_m*, m >= 1, found by
    alternately testing a quadratic in Y and one in X for repeated roots.
8.  triple root (translated to T = 0)  -> types IV*, III*, II* in turn,
    else the model is non-minimal: rescale by p and restart.

Conductor exponents follow from the type and v(disc) by Ogg's formula
f = v(disc) + 1 - (number of components), valid in all residue
characteristics (wild parts included automatically).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .arith import (
    DEFAULT_FACTOR_BOUND,
    factorize,
    legendre_symbol,
    require_prime,
    valuation,
)
from .weierstrass import WeierstrassModel

__all__ = [
    "ADDITIVE",
    "GOOD",
    "LocalData",
    "MULT_NONSPLIT",
    "MULT_SPLIT",
    "all_local_data",
    "global_conductor",
    "local_data",
    "local_data_with_model",
]

GOOD = "Good"
MULT_SPLIT = "MultiplicativeSplit"
MULT_NONSPLIT = "MultiplicativeNonsplit"
ADDITIVE = "Additive"


class LocalData(NamedTuple):
    """Reduction data of a curve at one prime.

    ``scalings`` counts how many times the algorithm replaced the input
    model by a p-rescaled one before reaching a minimal model; each step
    lowers the discriminant valuation by 12.
    """

    prime: int
    conductor_exponent: int
    min_disc_valuation: int
    kodaira_type: str
    reduction: str
    scalings: int


def _exact_div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise AssertionError("non-exact division inside Tate's algorithm")
    return q


def _tangents_rational(a1: int, a2: int, p: int) -> bool:
    """Whether T^2 + a1*T - a2 (the node's tangent quadratic) splits over F_p."""
    if p == 2:
        # A node at 2 has c4 = a1^4 odd (mod 2), so a1 is odd and
        # T^2 + T - a2 splits over F_2 exactly when a2 is even.
        return a2 % 2 == 0
    disc = (a1 * a1 + 4 * a2) % p
    if disc == 0:
        raise AssertionError("degenerate tangent quadratic at a node")
    return legendre_symbol(disc, p) == 1


def local_data_with_model(
    model: WeierstrassModel, ell: int
) -> Tuple[LocalData, WeierstrassModel]:
    """Tate's algorithm at ell; returns local data and an ell-minimal model.

    The returned model is ell-integrally equivalent to the input and
    minimal at ell (its discriminant valuation is the minimal one).
    """
    require_prime(ell, "ell")
    model.require_nonsingular()
    p = ell
    p2, p3 = p * p, p**3
    E = model
    scalings = 0
    while True:
        delta = E.discriminant()
        if delta % p != 0:
            return LocalData(p, 0, 0, "I0", GOOD, scalings), E
        n = valuation(delta, p)
        b2, b4, b6, _ = E.b_invariants()
        c4 = E.c_invariants()[0]
        a1, a2, a3, a4, a6 = E

        # Translate the singular point of the reduction to (0, 0).
        if p == 2:
            if b2 % 2 == 0:
                r = a4 % 2
                t = (r * (1 + a2 + a4) + a6) % 2
            else:
                r = a3 % 2
                t = (r + a4) % 2
        else:
            if c4 % p:  # a node at x = (18*b6 - b2*b4)/c4
                r = (18 * b6 - b2 * b4) * pow(c4, -1, p) % p
            else:  # a cusp at x = -b2/12, or at 3, where 12 is not a unit, x = -b6
                r = -b2 * pow(12, -1, p) % p if p > 3 else -b6 % p
            t = (-(a1 * r + a3) * pow(2, -1, p)) % p
        E = E.translated(r=r, t=t)
        a1, a2, a3, a4, a6 = E

        if c4 % p != 0:  # c4 is translation-invariant
            red = MULT_SPLIT if _tangents_rational(a1, a2, p) else MULT_NONSPLIT
            return LocalData(p, 1, n, "I%d" % n, red, scalings), E

        if a6 % p2 != 0:
            return LocalData(p, n, n, "II", ADDITIVE, scalings), E
        _, _, b6, b8 = E.b_invariants()
        if b8 % p3 != 0:
            return LocalData(p, n - 1, n, "III", ADDITIVE, scalings), E
        if b6 % p3 != 0:
            return LocalData(p, n - 2, n, "IV", ADDITIVE, scalings), E

        # Normalize so that p | a1, a2; p^2 | a3, a4; p^3 | a6.
        if p == 2:
            s = a2 % 2
            t = 2 * ((a6 // 4) % 2)
        else:
            s = (-a1 * pow(2, -1, p)) % p
            t = (-a3 * pow(2, -1, p2)) % p2
        E = E.translated(s=s, t=t)
        a1, a2, a3, a4, a6 = E

        bq = _exact_div(a2, p)
        cq = _exact_div(a4, p2)
        dq = _exact_div(a6, p3)
        disc_p = (
            18 * bq * cq * dq
            - 4 * bq**3 * dq
            + bq * bq * cq * cq
            - 4 * cq**3
            - 27 * dq * dq
        )
        if disc_p % p != 0:
            return LocalData(p, n - 4, n, "I0*", ADDITIVE, scalings), E

        x_p = 3 * cq - bq * bq
        if x_p % p != 0:
            # Double root of P: types I_m*, m >= 1.
            if p == 2:
                r0 = cq % 2
            else:
                r0 = ((bq * cq - 9 * dq) * pow(2 * x_p % p, -1, p)) % p
            E = E.translated(r=p * r0)
            m = 1
            px = p2  # a4 examined through p*px, a6 through px*py
            py = p2  # a3 examined through py
            while True:
                if m > n:
                    raise AssertionError("runaway I_m* loop")
                a1, a2, a3, a4, a6 = E
                a3q = _exact_div(a3, py)
                a6q = _exact_div(a6, px * py)
                if (a3q * a3q + 4 * a6q) % p != 0:
                    break
                y0 = a6q % 2 if p == 2 else (-a3q * pow(2, -1, p)) % p
                E = E.translated(t=py * y0)
                m += 1
                py *= p
                a1, a2, a3, a4, a6 = E
                a2q = _exact_div(a2, p)
                a4q = _exact_div(a4, p * px)
                a6q = _exact_div(a6, px * py)
                if (a4q * a4q - 4 * a2q * a6q) % p != 0:
                    break
                x0 = a6q % 2 if p == 2 else (-a4q * pow(2 * a2q % p, -1, p)) % p
                E = E.translated(r=px * x0)
                m += 1
                px *= p
            return LocalData(p, n - 4 - m, n, "I%d*" % m, ADDITIVE, scalings), E

        # Triple root of P: translate it to T = 0.  It is -bq/3, or, where
        # 3 is not a unit, -dq, since cubing is the identity on F_2 and F_3.
        r0 = (-bq * pow(3, -1, p) if p > 3 else -dq) % p
        E = E.translated(r=p * r0)
        a1, a2, a3, a4, a6 = E

        a3q = _exact_div(a3, p2)
        a6q = _exact_div(a6, p2 * p2)
        if (a3q * a3q + 4 * a6q) % p != 0:
            return LocalData(p, n - 6, n, "IV*", ADDITIVE, scalings), E
        y0 = a6q % 2 if p == 2 else (-a3q * pow(2, -1, p)) % p
        E = E.translated(t=p2 * y0)
        a1, a2, a3, a4, a6 = E

        if a4 % (p2 * p2) != 0:
            return LocalData(p, n - 7, n, "III*", ADDITIVE, scalings), E
        if a6 % (p3 * p3) != 0:
            return LocalData(p, n - 8, n, "II*", ADDITIVE, scalings), E

        # Non-minimal at p: rescale and start over.
        E = E.rescaled_down(p)
        scalings += 1


def local_data(model: WeierstrassModel, ell: int) -> LocalData:
    """Reduction data (conductor exponent, Kodaira type, ...) of model at ell."""
    return local_data_with_model(model, ell)[0]


def all_local_data(
    model: WeierstrassModel, factor_bound: int = DEFAULT_FACTOR_BOUND
) -> List[LocalData]:
    """Local data at every prime dividing the discriminant, ascending.

    Raises FactorizationError if the discriminant cannot be fully
    factored within the bound.
    """
    factors = factorize(model.require_nonsingular(), factor_bound)
    return [local_data(model, p) for p in sorted(factors)]


def global_conductor(local: Sequence[LocalData]) -> int:
    """Conductor of the curve, as the product of the local factors p^f_p.

    ``local`` is the curve's ``all_local_data`` list.
    """
    conductor = 1
    for data in local:
        conductor *= data.prime**data.conductor_exponent
    return conductor
