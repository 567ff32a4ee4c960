"""Frobenius traces by character sums and mod-p trace congruence evidence."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .arith import is_prime, primes_up_to
from . import tate
from .weierstrass import WeierstrassModel

__all__ = [
    "CONGRUENCE_DISCLAIMER",
    "DEFAULT_ELL_CAP",
    "CongruenceReport",
    "TraceRecord",
    "count_points",
    "mod_p_congruent",
    "trace_table",
]

#: Largest ell accepted by count_points unless the caller raises the cap.
DEFAULT_ELL_CAP = 10**4

CONGRUENCE_DISCLAIMER = (
    "trace agreement mod p over a finite range is evidence for congruent "
    "mod-p Galois representations, never a proof"
)


class TraceRecord(NamedTuple):
    ell: int
    a_ell: Optional[int]
    reduction: str  # "Good" | "Bad"


class CongruenceReport(NamedTuple):
    p: int
    lmax: int
    compared_primes: List[int]
    congruent: bool
    first_violation: Optional[Tuple[int, int, int]]
    disclaimer: str = CONGRUENCE_DISCLAIMER


def count_points(
    model: WeierstrassModel, ell: int, ell_cap: int = DEFAULT_ELL_CAP
) -> int:
    """Trace of Frobenius a_ell = ell + 1 - #E(F_ell) for odd good ell.

    Computed as -sum_x chi(g(x)) for the quadratic character chi of
    F_ell: completing the square replaces the curve by
    Y^2 = g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6, which is valid for odd ell
    and leaves the character sum unchanged (the factor 4 is a square).
    chi is tabulated once by squaring (ell - 1)/2 residues, so the cost
    is O(ell) multiplications and table lookups, with no exponentiation.
    A model that is non-minimal at ell is replaced by its ell-minimal
    model before counting.
    """
    if ell == 2:
        raise ValueError("ell = 2 is excluded from trace computations")
    if ell < 3 or not is_prime(ell):
        raise ValueError("ell must be an odd prime")
    if ell > ell_cap:
        raise ValueError("ell exceeds the configured cap (%d)" % ell_cap)
    model.require_nonsingular()
    if model.discriminant() % ell == 0:
        data, minimal = tate.local_data_with_model(model, ell)
        if data.reduction != tate.GOOD:
            raise ValueError("bad reduction at %d" % ell)
        model = minimal
    b2, b4, b6, _ = model.b_invariants()
    r2, r4, r6 = b2 % ell, (2 * b4) % ell, b6 % ell
    chi = [-1] * ell
    chi[0] = 0
    for s in range(1, (ell + 1) // 2):
        chi[s * s % ell] = 1
    return -sum(chi[(((4 * x + r2) * x + r4) * x + r6) % ell] for x in range(ell))


def trace_table(model: WeierstrassModel, lmax: int) -> List[TraceRecord]:
    """Trace records at every odd prime ell <= lmax.

    Bad-reduction primes are marked reduction="Bad" with a_ell = None;
    primes where only the given model (not the curve) is singular are
    counted on the ell-minimal model.
    """
    if lmax < 3:
        raise ValueError("lmax must be >= 3")
    model.require_nonsingular()
    disc = model.discriminant()
    records: List[TraceRecord] = []
    for ell in primes_up_to(lmax):
        if ell == 2:
            continue
        curve = model
        if disc % ell == 0:
            data, curve = tate.local_data_with_model(model, ell)
            if data.reduction != tate.GOOD:
                records.append(TraceRecord(ell=ell, a_ell=None, reduction="Bad"))
                continue
        records.append(
            TraceRecord(ell=ell, a_ell=count_points(curve, ell, ell_cap=lmax), reduction="Good")
        )
    return records


def mod_p_congruent(
    model1: WeierstrassModel, model2: WeierstrassModel, p: int, lmax: int
) -> CongruenceReport:
    """Compare traces of two curves mod p over odd primes ell <= lmax.

    Excluded from comparison: ell = 2 (always), ell = p, and primes of
    bad reduction for either curve.  The verdict is finite-range evidence
    only; see the report's disclaimer field.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    compared: List[int] = []
    first_violation: Optional[Tuple[int, int, int]] = None
    for rec1, rec2 in zip(trace_table(model1, lmax), trace_table(model2, lmax), strict=True):
        ell = rec1.ell
        if ell == p or rec1.reduction != "Good" or rec2.reduction != "Good":
            continue
        compared.append(ell)
        if first_violation is None and (rec1.a_ell - rec2.a_ell) % p != 0:
            first_violation = (ell, rec1.a_ell, rec2.a_ell)
    return CongruenceReport(
        p=p,
        lmax=lmax,
        compared_primes=compared,
        congruent=first_violation is None,
        first_violation=first_violation,
    )
