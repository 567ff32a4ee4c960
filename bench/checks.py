"""Independent checks of freycheck output.

Nothing here imports freycheck: the arithmetic below is a second,
deliberately naive implementation, so a wrong answer from the package
cannot also pass its own check.  Every check raises CheckError with a
one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Model = Tuple[int, int, int, int, int]


class CheckError(Exception):
    """An output of freycheck disagrees with the benchmark's own computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# naive arithmetic


def primes_to(n: int) -> List[int]:
    if n < 2:
        return []
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            for j in range(i * i, n + 1, i):
                flags[j] = False
    return [i for i, flag in enumerate(flags) if flag]


def factor(n: int) -> Dict[int, int]:
    """Complete factorization of |n| by trial division up to sqrt(|n|)."""
    n = abs(n)
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def discriminant(model: Model) -> int:
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def naive_trace(model: Model, ell: int) -> int:
    """ell - #{affine points mod ell}, by enumerating every (x, y)."""
    a1, a2, a3, a4, a6 = (a % ell for a in model)
    points = 0
    for x in range(ell):
        rhs = (((x + a2) * x + a4) * x + a6) % ell
        lin = (a1 * x + a3) % ell
        points += sum(1 for y in range(ell) if (y * y + lin * y - rhs) % ell == 0)
    return ell - points


def order_of_two(p: int) -> int:
    k, value = 1, 2 % p
    while value != 1:
        value = value * 2 % p
        k += 1
    return k


def bernoulli_numerators(kmax: int) -> Dict[int, int]:
    """Numerators of B_k for even 2 <= k <= kmax, from exact rationals."""
    b = [Fraction(1)]
    for m in range(1, kmax + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return {k: b[k].numerator for k in range(2, kmax + 1, 2)}


# ---------------------------------------------------------------------------
# output parsers


def _rows(text: str) -> List[List[str]]:
    return list(csv.reader(io.StringIO(text)))


def key_values(text: str, fmt: str) -> Dict[str, str]:
    """The flat key/value rows that csv and human output use for reports."""
    if fmt == "csv":
        rows = _rows(text)
        require(rows[:1] == [["key", "value"]], "csv header is not key,value")
        return {row[0]: row[1] for row in rows[1:]}
    out = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        out[parts[0]] = parts[1] if len(parts) > 1 else ""
    return out


def _int_list(value: str) -> List[int]:
    return [int(v) for v in value.split()]


def _optional_list(value: str) -> Optional[List[int]]:
    return None if value in ("", "None") else _int_list(value)


# ---------------------------------------------------------------------------
# per-command checks


def check_denes(text: str, p_max: int) -> None:
    expected_primes = [p for p in primes_to(p_max) if p >= 5]
    reports = [json.loads(line) for line in text.splitlines()]
    require([r["p"] for r in reports] == expected_primes, "denes primes differ from 5..N")
    numerators = bernoulli_numerators(min(p_max, 120))
    for r in reports:
        p = r["p"]
        require(r["wieferich_violation"] == (pow(2, p - 1, p * p) == 1), "wieferich at %d" % p)
        require(r["ord2"] == order_of_two(p), "ord2 at %d" % p)
        order_ok = r["ord2"] % 2 == 0 or r["ord2"] == (p - 1) // 2
        require(r["order_condition"] == order_ok, "order_condition at %d" % p)
        if p <= 120:
            irregular = [k for k in range(2, p - 2, 2) if numerators[k] % p == 0]
            require(r["irregular_indices"] == irregular, "irregular indices at %d" % p)
        require(r["is_regular"] == (not r["irregular_indices"]), "is_regular at %d" % p)
        holds = r["is_regular"] and order_ok and not r["wieferich_violation"]
        require(r["criterion_holds"] == holds, "criterion_holds at %d" % p)


def parse_traces(text: str, fmt: str) -> List[Tuple[int, Optional[int], str]]:
    if fmt == "json":
        return [(r["ell"], r["a_ell"], r["reduction"]) for r in json.loads(text)["records"]]
    if fmt == "csv":
        rows = _rows(text)
        require(rows[:1] == [["ell", "a_ell", "reduction"]], "traces csv header")
        return [(int(e), int(a) if a else None, red) for e, a, red in rows[1:]]
    out = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        a_ell = int(parts[1]) if len(parts) == 3 else None
        out.append((int(parts[0]), a_ell, parts[-1]))
    return out


def check_trace_rows(
    rows: Sequence[Tuple[int, Optional[int], str]], model: Model, lmax: int, recount_to: int
) -> Dict[int, int]:
    """Hasse bound, bad primes dividing the discriminant, small ell recounted."""
    disc = discriminant(model)
    require([r[0] for r in rows] == primes_to(lmax)[1:], "trace rows are not the odd primes <= lmax")
    traces = {}
    for ell, a_ell, reduction in rows:
        if reduction == "Bad":
            require(a_ell is None and disc % ell == 0, "Bad row at %d" % ell)
            continue
        require(reduction == "Good" and a_ell is not None, "row at %d" % ell)
        require(a_ell * a_ell <= 4 * ell, "Hasse bound fails at %d" % ell)
        if ell <= recount_to and disc % ell != 0:
            require(a_ell == naive_trace(model, ell), "a_%d differs from a naive count" % ell)
        traces[ell] = a_ell
    return traces


def check_congruence(text: str, fmt: str, models: Tuple[Model, Model], p: int, lmax: int, recount_to: int) -> None:
    if fmt == "json":
        report = json.loads(text)["report"]
        compared, congruent, violation = (
            report["compared_primes"], report["congruent"], report["first_violation"])
    else:
        kv = key_values(text, fmt)
        compared = _int_list(kv["report.compared_primes"])
        congruent = kv["report.congruent"] == "True"
        violation = _optional_list(kv["report.first_violation"])
    discs = [discriminant(m) for m in models]
    expected = [ell for ell in primes_to(lmax)[1:] if ell != p and all(d % ell for d in discs)]
    require(compared == expected, "compared primes are not the common good primes")
    require(congruent == (violation is None), "congruent flag disagrees with first_violation")
    for ell in (e for e in compared if e <= recount_to):
        a1, a2 = (naive_trace(m, ell) for m in models)
        if (a1 - a2) % p:
            require(violation == [ell, a1, a2], "first violation should be at %d" % ell)
            return
    if violation is not None:
        ell, a1, a2 = violation
        require(ell > recount_to and ell in compared, "violation at an unexpected ell")
        require((a1 - a2) % p != 0 and max(a1 * a1, a2 * a2) <= 4 * ell, "violation witness")


def check_conductor(text: str, fmt: str, model: Model, disc_factors: Dict[int, int]) -> None:
    """Local data at exactly the primes of the discriminant; odd primes are
    multiplicative with exponent 1 (Frey-shaped model, gcd(A, B) = 1); the
    conductor is the product of prime^exponent."""
    disc = discriminant(model)
    require(math.prod(ell**e for ell, e in disc_factors.items()) == abs(disc), "disc factors")
    if fmt == "csv":
        rows = _rows(text)
        header = ["prime", "conductor_exponent", "min_disc_valuation", "kodaira_type", "reduction"]
        require(rows[:1] == [header], "conductor csv header")
        local = [dict(zip(header, row)) for row in rows[1:]]
        conductor = None
    elif fmt == "json":
        doc = json.loads(text)
        local, conductor = doc["local_data"], doc["conductor"]
        require(doc["discriminant"] == disc, "discriminant")
    else:
        kv = key_values(text, fmt)
        local, conductor = json.loads(kv["local_data"]), int(kv["conductor"])
        require(int(kv["discriminant"]) == disc, "discriminant")
    require([int(d["prime"]) for d in local] == sorted(disc_factors), "local data primes")
    product = 1
    for d in local:
        ell, f = int(d["prime"]), int(d["conductor_exponent"])
        product *= ell**f
        if ell != 2:
            require(f == 1 and d["reduction"].startswith("Multiplicative"), "reduction at %d" % ell)
            require(int(d["min_disc_valuation"]) == disc_factors[ell], "disc valuation at %d" % ell)
    require(conductor is None or conductor == product, "conductor is not the product of local factors")


def check_analyze(text: str, fmt: str) -> None:
    """The trivial solution: both routes agree on conductor 32."""
    if fmt == "json":
        cross = json.loads(text)["cross_check"]
        agree, table, oracle = cross["agree"], cross["conductor_table"], cross["conductor_oracle"]
    else:
        kv = key_values(text, fmt)
        agree = kv["cross_check.agree"] == "True"
        table, oracle = int(kv["cross_check.conductor_table"]), int(kv["cross_check.conductor_oracle"])
    require(agree and table == oracle == 32, "analyze routes disagree or conductor != 32")


def check_search(text: str, p: int, alpha: int, height: int) -> None:
    doc = json.loads(text)
    require(doc["conforms"] is True, "search does not conform")
    coeff = 2**alpha
    for r in doc["records"]:
        a, b, c = r["a"], r["b"], r["c"]
        require(max(abs(a), abs(b), abs(c)) <= height, "record above the height")
        require(a**p + coeff * b**p + c**p == 0, "record is not a solution")
    if alpha == 1:
        forms = [tuple(r["normalized_form"]) for r in doc["records"]]
        require((-1, 1, -1) in forms, "trivial solution missing")


def check_ap(text: str, n: int, k: int, height: int) -> None:
    doc = json.loads(text)
    require(doc["conforms"] is True, "ap-search does not conform")
    for bases in doc["progressions"]:
        require(len(bases) == k and 0 < min(bases) and max(bases) <= height, "bases")
        powers = [x**n for x in bases]
        require(len({b - a for a, b in zip(powers, powers[1:])}) == 1, "not a progression")
