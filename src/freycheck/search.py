"""Bounded-height exhaustive searches.

Two families are covered:

* solutions of a^p + L^alpha * b^p + c^p = 0 with |a|, |b|, |c| <= H
  (L = 2 by default), enumerated over (a, b) with c found by looking
  -(a^p + L^alpha * b^p) up in a table of the exact p-th powers c^p,
  0 < |c| <= H, never by root extraction or floating point;
* arithmetic progressions of perfect n-th powers with positive bases,
  found in the same way in a table of exact n-th powers.

Each lookup is one set intersection per row (one a, or one x_1), run in
C by the dict-keys view; memory stays O(H).

The equation is homogeneous of degree p, so primitive solutions
determine all solutions; imprimitive records, when requested, are
tagged with their content gcd.  Search output is canonicalized under
the a<->c swap and the global sign flip and sorted, so results are
deterministic and independent of work partitioning.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .arith import is_prime, ordered_map, process_count
from .frey import canonical_triple

__all__ = [
    "SIGMA_PRIMES",
    "CaseResult",
    "SearchOutcome",
    "SearchSpec",
    "SolutionRecord",
    "TRIVIAL_FORM",
    "classify_ap_outcome",
    "classify_search_outcome",
    "search_ap_powers",
    "search_star",
    "verify_theorem_claims",
]

#: Coefficient primes L for which a^p + L^alpha*b^p + c^p = 0 is known to
#: have no non-zero solutions whenever p >= 11 is prime, p != L, alpha >= 0.
SIGMA_PRIMES = frozenset({3, 5, 7, 11, 13, 17, 19, 23, 29, 53, 59})

#: Canonical form of the trivial solution family a = c = -b (L = 2, alpha = 1).
TRIVIAL_FORM = (-1, 1, -1)


class _SearchSpecFields(NamedTuple):
    p: int
    alpha: int
    height: int
    L: int = 2
    require_primitive: bool = True


class SearchSpec(_SearchSpecFields):
    """One search; every way of making one (``_replace``, unpickling) validates."""

    __slots__ = ()

    def __new__(
        cls, p: int, alpha: int, height: int, L: int = 2, require_primitive: bool = True
    ) -> "SearchSpec":
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not is_prime(L):
            raise ValueError("L must be prime")
        if height < 1:
            raise ValueError("height must be >= 1")
        return super().__new__(cls, p, alpha, height, L, require_primitive)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "SearchSpec":
        return cls(*iterable)

    @property
    def reduced_alpha(self) -> int:
        """alpha mod p; 0 marks the Fermat case."""
        return self.alpha % self.p


class SolutionRecord(NamedTuple):
    a: int
    b: int
    c: int
    normalized_form: Tuple[int, int, int]
    trivial: bool
    content: int = 1


def _search_chunk(args: Tuple[SearchSpec, int, int]) -> List[Tuple[int, int, int]]:
    """Raw solutions with a in [a_lo, a_hi); a > 0 only (sign flip recovers).

    A key of ``roots`` is c^p for some 0 < |c| <= H, so a hit already has
    c != 0 and |c| <= H; p is odd, so each key has one root.
    """
    spec, a_lo, a_hi = args
    p, height = spec.p, spec.height
    coeff = spec.L**spec.alpha
    roots = {c**p: c for c in range(-height, height + 1) if c}
    terms = [coeff * b_pow for b_pow in roots]
    raw: List[Tuple[int, int, int]] = []
    for a in range(a_lo, a_hi):
        a_pow = a**p
        for target in roots.keys() & map(operator.sub, repeat(-a_pow), terms):
            c = roots[target]
            b = roots[(-target - a_pow) // coeff]
            if spec.require_primitive and math.gcd(a, b, c) != 1:
                continue
            raw.append((a, b, c))
    return raw


def _records_from_raw(
    spec: SearchSpec, raw: Sequence[Tuple[int, int, int]]
) -> List[SolutionRecord]:
    coeff = spec.L**spec.alpha
    by_key: Dict[Tuple[Tuple[int, int, int], int], SolutionRecord] = {}
    for a, b, c in raw:
        # Exact re-verification of every candidate before it is emitted.
        if a**spec.p + coeff * b**spec.p + c**spec.p != 0:
            raise AssertionError("search emitted a non-solution")
        content = math.gcd(a, b, c)
        form = canonical_triple(a // content, b // content, c // content)
        key = (form, content)
        if key not in by_key:
            by_key[key] = SolutionRecord(
                a=content * form[0],
                b=content * form[1],
                c=content * form[2],
                normalized_form=form,
                trivial=form == TRIVIAL_FORM,
                content=content,
            )
    return sorted(by_key.values(), key=lambda rec: (rec.normalized_form, rec.content))


def _search_specs(specs: Sequence[SearchSpec], workers: int) -> List[List[SolutionRecord]]:
    """The records of every spec, from one ordered_map over all a-ranges.

    Each spec's range 1..H is cut into at most ``process_count(workers)``
    chunks, as each chunk builds its own O(H) table of powers; the parts
    are grouped back by position in ``specs``, so repeated specs stay
    separate and the result does not depend on ``workers``.
    """
    owners: List[int] = []
    chunks: List[Tuple[SearchSpec, int, int]] = []
    for i, spec in enumerate(specs):
        step = -(-spec.height // process_count(workers))
        for lo in range(1, spec.height + 1, step):
            owners.append(i)
            chunks.append((spec, lo, min(lo + step, spec.height + 1)))
    raw: List[List[Tuple[int, int, int]]] = [[] for _ in specs]
    for i, part in zip(owners, ordered_map(_search_chunk, chunks, workers)):
        raw[i].extend(part)
    return [_records_from_raw(spec, triples) for spec, triples in zip(specs, raw)]


def search_star(spec: SearchSpec, workers: int = 1) -> List[SolutionRecord]:
    """All solutions of a^p + L^alpha*b^p + c^p = 0 with entries in [-H, H].

    One record per orbit under the a<->c swap and the global sign flip,
    sorted by canonical form; deterministic for any ``workers`` value.
    """
    return _search_specs([spec], workers)[0]


class SearchOutcome(NamedTuple):
    """How solution records, or progression base tuples, relate to the known results."""

    claim: str  # "established" | "empirical"
    expected: str  # "empty" | "trivial-only" | "none"
    counterexamples: Union[List[SolutionRecord], List[Tuple[int, ...]]]

    @property
    def conforms(self) -> bool:
        return not self.counterexamples


def classify_search_outcome(
    spec: SearchSpec, records: Sequence[SolutionRecord]
) -> SearchOutcome:
    """Label findings against the known results for (p, alpha, L).

    L = 2: reduced alpha 0 expects nothing (Fermat), 1 expects only the
    trivial family, >= 2 expects nothing; these are established results.
    Odd L in SIGMA_PRIMES with p >= 11, p != L expects nothing, but the
    claim label stays "empirical" for the whole odd-L family (an empty
    scan cannot distinguish a theorem from an accident of the height).
    Everything else is an empirical scan with no expected verdict.
    """
    alpha_red = spec.reduced_alpha
    if spec.L == 2:
        if alpha_red == 1:
            return SearchOutcome(
                claim="established",
                expected="trivial-only",
                counterexamples=[rec for rec in records if not rec.trivial],
            )
        return SearchOutcome(
            claim="established", expected="empty", counterexamples=list(records)
        )
    if spec.L in SIGMA_PRIMES and spec.p >= 11 and spec.p != spec.L:
        return SearchOutcome(
            claim="empirical", expected="empty", counterexamples=list(records)
        )
    return SearchOutcome(claim="empirical", expected="none", counterexamples=[])


class CaseResult(NamedTuple):
    spec: SearchSpec
    records: List[SolutionRecord]
    outcome: SearchOutcome

    @property
    def conforms(self) -> bool:
        return self.outcome.conforms


def verify_theorem_claims(
    p_list: Sequence[int],
    alpha_list: Sequence[int],
    height: int,
    workers: int = 1,
) -> List[CaseResult]:
    """Search every (p, alpha) with alpha < p over L = 2 and classify results.

    The whole grid shares one ordered_map, so at most one pool starts.
    """
    specs = [
        SearchSpec(p=p, alpha=alpha, height=height)
        for p in p_list for alpha in alpha_list if alpha < p
    ]
    return [
        CaseResult(spec=spec, records=records, outcome=classify_search_outcome(spec, records))
        for spec, records in zip(specs, _search_specs(specs, workers))
    ]


def search_ap_powers(
    n: int, k: int, height: int, distinct_only: bool = True
) -> List[Tuple[int, ...]]:
    """k-term arithmetic progressions x_1^n <= ... <= x_k^n of n-th powers.

    Bases are positive and at most ``height``; progressions are emitted
    as non-decreasing base tuples in lexicographic order.  With
    ``distinct_only`` the common difference must be non-zero (constant
    progressions are excluded).
    """
    if n < 2:
        raise ValueError("exponent n must be >= 2")
    if k not in (3, 4):
        raise ValueError("only 3- and 4-term progressions are supported")
    if height < 1:
        raise ValueError("height must be >= 1")
    roots = {x**n: x for x in range(1, height + 1)}
    doubled = [2 * x_pow for x_pow in roots]
    results: List[Tuple[int, ...]] = []
    for x1 in range(1, height + 1):
        x1_pow = x1**n
        x2_start = x1 + 1 if distinct_only else x1
        # x3^n = 2 x2^n - x1^n over every x2 in range, one lookup each.
        candidates = map(operator.sub, doubled[x2_start - 1 :], repeat(x1_pow))
        for x3_pow in roots.keys() & candidates:
            x2 = roots[(x3_pow + x1_pow) // 2]
            x3 = roots[x3_pow]
            if k == 3:
                results.append((x1, x2, x3))
                continue
            x4 = roots.get(2 * x3_pow - x2**n)
            if x4 is not None:
                results.append((x1, x2, x3, x4))
    # Each (x1, x2) gives at most one progression, so sorting restores the
    # lexicographic order of the row-by-row enumeration.
    results.sort()
    _check_progressions(n, height, distinct_only, results)
    return results


def _check_progressions(
    n: int, height: int, distinct_only: bool, tuples: Sequence[Tuple[int, ...]]
) -> None:
    """Exact re-verification of every progression before it is emitted."""
    for bases in tuples:
        if not all(1 <= x <= height for x in bases) or list(bases) != sorted(bases):
            raise AssertionError("ap-search emitted bases out of range or order")
        diffs = {y**n - x**n for x, y in zip(bases, bases[1:])}
        if len(diffs) != 1 or (distinct_only and 0 in diffs):
            raise AssertionError("ap-search emitted a non-progression")


def classify_ap_outcome(
    n: int, k: int, distinct_only: bool, tuples: Sequence[Tuple[int, ...]]
) -> SearchOutcome:
    """Label progression findings against established non-existence results.

    Non-constant progressions are ruled out for four squares, three
    fourth powers, and three n-th powers for every n >= 3 (any n >= 3 is
    divisible by 4 or by an odd prime, reducing to a settled or
    conjectured three-power case; a hit is reportable either way).
    Three squares are expected to exist, so k = 3, n = 2 carries no claim.
    """
    none_expected = distinct_only and (k == 4 or n >= 3)
    if none_expected:
        return SearchOutcome(
            claim="established", expected="empty", counterexamples=list(tuples)
        )
    return SearchOutcome(claim="empirical", expected="none", counterexamples=[])
