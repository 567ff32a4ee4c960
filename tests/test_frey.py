"""Frey-curve normalization, construction, and the closed-form invariants.

The dual-route requirement lives here: the table-side conductor, t and
minimal-discriminant 2-exponent u must equal the reduction-algorithm
values on every synthetic triple, and neither side may be computed from
the other (``TestRouteBoundary`` checks that the two modules stay apart).
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import freycheck.tate as tate
from freycheck.arith import valuation
from freycheck.cli import jsonable
from freycheck.frey import (
    CONDUCTOR_EXPONENT_AT_2,
    CurveInvariants,
    FreyParams,
    MonomialTriple,
    alpha_fits,
    build_frey,
    canonical_triple,
    cartan_type,
    frey_model,
    invariants,
    is_trivial_level,
    normalize,
    sign_normalized,
)
from freycheck.tate import all_local_data, local_data

from oracles import (
    frey_conductor_oracle,
    naive_odd_prime_factors,
    reduce_alpha,
    search_star_table,
    synthetic_frey_triples,
)


class TestRouteBoundary:
    """The table route (frey) and the Tate route (tate) share no code."""

    @staticmethod
    def _imported_names(module):
        """Every dotted part of every name the module's source imports."""
        tree = ast.parse(Path(tate.__file__).with_name(module + ".py").read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                source = getattr(node, "module", None) or ""
                for alias in node.names:
                    found.update(source.split("."), alias.name.split("."))
        return found

    def test_neither_module_imports_the_other(self):
        assert "tate" not in self._imported_names("frey")
        assert "frey" not in self._imported_names("tate")

    def test_invariants_run_no_tate_step(self, monkeypatch):
        triples = [MonomialTriple(*t) for t in synthetic_frey_triples()]
        expected = [invariants(triple) for triple in triples]

        def refuse(*args, **kwargs):
            raise AssertionError("the table route ran Tate's algorithm")

        monkeypatch.setattr(tate, "local_data_with_model", refuse)
        assert [invariants(triple) for triple in triples] == expected


class TestNormalize:
    def test_flips_to_minus_one_mod_4(self):
        params = normalize(5, 1, 1, -1, 1)
        assert (params.a, params.b, params.c) == (-1, 1, -1)
        assert params.normalized

    def test_idempotent(self):
        params = normalize(5, 1, -1, 1, -1)
        again = normalize(params.p, params.alpha, params.a, params.b, params.c)
        assert (again.a, again.b, again.c) == (params.a, params.b, params.c)

    def test_not_a_solution(self):
        with pytest.raises(ValueError, match="not a solution"):
            normalize(5, 2, 1, 1, 1)

    def test_not_primitive(self):
        # (-2)^5 + 2 * 2^5 + (-2)^5 = 0 but gcd = 2.
        with pytest.raises(ValueError, match="not primitive"):
            normalize(5, 1, -2, 2, -2)

    def test_even_a_or_c_is_not_primitive(self):
        # With alpha reduced to 1..p-1, an even a forces c even, so 2^p
        # divides 2^alpha*b^p and b is even too (and with a and c
        # swapped): the gcd refusal always comes first.
        even = [
            (p, alpha, a, b, c)
            for p in (3, 5, 7)
            for alpha in range(3 * p + 2)
            for a, b, c in search_star_table(p, alpha, 40, require_primitive=False)
            if a % 2 == 0 or c % 2 == 0
        ]
        assert len(even) == 165
        for solution in even:
            with pytest.raises(ValueError) as refused:
                normalize(*solution)
            assert str(refused.value) == "not primitive", solution

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError, match="non-zero"):
            normalize(5, 1, 0, 1, -1)

    def test_alpha_range(self):
        for alpha in (0, 5, -1):
            with pytest.raises(ValueError, match="alpha"):
                normalize(5, alpha, -1, 1, -1)
        # alpha = 7 reduces to 2 with b = 2, and 2^7 is too large for |a| = |c| = 1.
        with pytest.raises(ValueError, match="^not a solution$"):
            normalize(5, 7, -1, 1, -1)

    def test_alpha_0_is_the_fermat_case(self):
        fermat = (
            "not a solution (Fermat case: alpha reduces to 0 mod p, and "
            "a^p + b^p + c^p = 0 has no solutions in non-zero integers)"
        )
        with pytest.raises(ValueError) as refused:
            normalize(5, 0, -1, 1, -1)
        assert str(refused.value) == fermat

    def test_p_must_be_odd_prime(self):
        for p in (2, 9, 15):
            with pytest.raises(ValueError, match="p must be a prime >= 3, got %d" % p):
                normalize(p, 1, -1, 1, -1)

    def test_trivial_family_collapses(self):
        # a = c = -b solves the alpha = 1 equation for every odd p.
        for p in (3, 5, 7, 11):
            params = normalize(p, 1, 1, -1, 1)
            assert (params.a, params.b, params.c) == (-1, 1, -1)

    def test_accepted_params_satisfy_frey_conditions(self):
        for p in (3, 5, 7, 11, 13):
            params = normalize(p, 1, 1, -1, 1)
            triple, _ = build_frey(params)
            assert triple.A + triple.B + triple.C == 0
            assert triple.A % 4 == 3
            assert triple.B % 2 == 0


class TestAlphaReduction:
    """``normalize`` reads any alpha >= 0 as reduce-then-normalize did."""

    @staticmethod
    def outcome(call):
        """The params ``call`` returns, or the message of its ValueError."""
        try:
            return call()
        except ValueError as refusal:
            return str(refusal)

    @settings(max_examples=400, deadline=None)
    @given(
        p=st.sampled_from([1, 2, 3, 5, 7, 9, 11]),
        alpha=st.integers(min_value=-1, max_value=60),
        triple=st.one_of(
            # a = c = -2^k b: a solution at alpha = k*p + 1, primitive only for k = 0, b = 1 or -1.
            st.builds(
                lambda k, b: (-(2**k) * b, b, -(2**k) * b),
                st.integers(min_value=0, max_value=12),
                st.sampled_from([1, -1, 3]),
            ),
            st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3),
        ),
    )
    def test_matches_reduce_then_normalize(self, p, alpha, triple):
        a, b, c = triple

        def reference():
            alpha_red, b_red = reduce_alpha(alpha, b, p)
            return normalize(p, alpha_red, a, b_red, c)

        assert self.outcome(lambda: normalize(p, alpha, a, b, c)) == self.outcome(reference)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_size_rule_keeps_the_largest_trivial_alpha(self, p):
        # a = c = -2^k, b = 1 solves alpha = k*p + 1 with |a|, |c| = 2^k,
        # whose bit length is k + 1: inside the rule, and one alpha past
        # (k + 1) * p is outside it.  "not primitive" is refused after the
        # exact equation held.
        assert normalize(p, 1, -1, 1, -1).b == 1
        for k in range(6):
            assert alpha_fits(p, k * p + 1, 2**k)
            assert not alpha_fits(p, (k + 1) * p + 1, 2**k)
            if k:
                with pytest.raises(ValueError, match="^not primitive$"):
                    normalize(p, k * p + 1, -(2**k), 1, -(2**k))


class TestBuildFrey:
    def test_trivial_solution_model(self):
        triple, model = build_frey(normalize(5, 1, 1, -1, 1))
        assert (triple.A, triple.B, triple.C) == (-1, 2, -1)
        # y^2 = x*(x + 1)*(x + 2)
        assert tuple(model) == (0, 3, 0, 2, 0)

    def test_same_monomials_for_any_odd_p(self):
        for p in (3, 7, 11, 13):
            triple, _ = build_frey(normalize(p, 1, 1, -1, 1))
            assert (triple.A, triple.B, triple.C) == (-1, 2, -1)

    def test_model_discriminant_formula(self):
        triple, model = build_frey(normalize(5, 1, -1, 1, -1))
        abc = triple.A * triple.B * triple.C
        assert model.discriminant() == 16 * abc * abc

    def test_requires_normalized(self):
        raw = FreyParams(p=5, alpha=1, a=1, b=-1, c=1, normalized=False)
        with pytest.raises(ValueError, match="normalized"):
            build_frey(raw)


class TestMonomialTriple:
    def test_validate_passes_on_trivial(self):
        MonomialTriple(-1, 2, -1).validate()

    def test_b_must_be_even(self):
        with pytest.raises(ValueError, match="B must be even"):
            MonomialTriple(3, -5, 2).validate()

    def test_a_congruence(self):
        with pytest.raises(ValueError, match="-1 mod 4"):
            MonomialTriple(1, 2, -3).validate()

    @pytest.mark.parametrize("triple", [(-1, 0, 1), (0, 2, -2), (3, -3, 0)])
    def test_entries_must_be_non_zero(self, triple):
        # (-1, 0, 1) passes every other rule.
        with pytest.raises(ValueError, match="triple entries must be non-zero"):
            MonomialTriple(*triple).validate()

    def test_sum_and_gcd(self):
        with pytest.raises(ValueError, match="sum to zero"):
            MonomialTriple(-1, 2, 1).validate()
        with pytest.raises(ValueError, match="coprime"):
            MonomialTriple(3, 6, -9).validate()


class TestInvariantsTrivial:
    def test_trivial_solution_values(self):
        triple, _ = build_frey(normalize(5, 1, 1, -1, 1))
        inv = invariants(triple)
        assert inv.t == 5
        assert inv.odd_radical == 1
        assert inv.conductor == 32
        assert not inv.semistable
        assert inv.u == 4
        assert inv.odd_disc_valuations == {}
        assert is_trivial_level(inv)

    def test_odd_disc_valuations_divisible_by_p_for_genuine_solutions(self):
        # The only genuine solutions in reach are the trivial family, whose
        # valuation map is empty: the congruence is reported vacuously, not
        # skipped.
        for p in (5, 7, 11, 13):
            triple, _ = build_frey(normalize(p, 1, 1, -1, 1))
            inv = invariants(triple)
            assert inv.odd_disc_valuations == {}
            assert all(v % p == 0 for v in inv.odd_disc_valuations.values())

    def test_roundtrip(self):
        triple, _ = build_frey(normalize(5, 1, 1, -1, 1))
        inv = invariants(triple)
        doc = json.loads(json.dumps(jsonable(inv)))
        doc["odd_disc_valuations"] = {int(k): v for k, v in doc["odd_disc_valuations"].items()}
        assert CurveInvariants(**doc) == inv


class TestTableAgainstOracle:
    """Closed-form table route vs independent reduction-algorithm route."""

    def test_synthetic_triples(self):
        checked = 0
        seen_t = set()
        for A, B, C in synthetic_frey_triples():
            triple = MonomialTriple(A, B, C)
            inv = invariants(triple)
            # Independent closed-form recomputation (naive factorization).
            odd_primes = naive_odd_prime_factors(A * B * C)
            t_expected, conductor_expected = frey_conductor_oracle(A, B, C, odd_primes)
            assert inv.t == t_expected
            assert inv.conductor == conductor_expected
            # Reduction-algorithm route on the same model.
            model = frey_model(triple)
            conductor_oracle = 1
            t_oracle = 0
            for data in all_local_data(model):
                conductor_oracle *= data.prime**data.conductor_exponent
                if data.prime == 2:
                    t_oracle = data.conductor_exponent
            assert inv.conductor == conductor_oracle, (A, B, C)
            assert inv.t == t_oracle, (A, B, C)
            # Structural expectations.
            v2 = valuation(B, 2)
            assert inv.semistable == (B % 16 == 0) == (inv.t <= 1)
            if inv.t == 1:
                assert inv.u == -8
            if v2 <= 3:
                assert inv.u == 4  # model already minimal at 2
            seen_t.add(inv.t)
            checked += 1
        assert checked >= 100
        assert seen_t == {0, 1, 3, 5}

    def test_u_follows_rescale_count(self):
        # Delta_min = 2^u * (A*B*C)^2 and the raw model has Delta =
        # 16 * (A*B*C)^2, so u = 4 - 12 * (number of 2-rescales).  The
        # triples span ord_2(B) = 1..8, across the table's 3 -> 4 boundary.
        for A, B, C in synthetic_frey_triples():
            triple = MonomialTriple(A, B, C)
            inv = invariants(triple)
            data = local_data(frey_model(triple), 2)
            v2 = valuation(B, 2)
            assert inv.u == 4 - 12 * data.scalings
            assert data.min_disc_valuation == 2 * v2 + inv.u

    def test_t_table_content(self):
        assert CONDUCTOR_EXPONENT_AT_2 == {1: 5, 2: 3, 3: 3, 4: 0}
        for v2 in range(5, 12):
            assert CONDUCTOR_EXPONENT_AT_2.get(v2, 1) == 1

    def test_spot_minimal_valuations(self):
        # ord_2(B) = 5 forces u = -8 (t = 1); ord_2(B) = 4 forces good
        # reduction at 2 (t = 0), so the minimal discriminant is odd.
        inv5 = invariants(MonomialTriple(-1, 32, -31))
        assert inv5.t == 1 and inv5.u == -8 and inv5.conductor == 2 * 31
        inv4 = invariants(MonomialTriple(-1, 16, -15))
        assert inv4.t == 0 and inv4.semistable
        assert local_data(frey_model(MonomialTriple(-1, 16, -15)), 2).reduction == "Good"


class TestCanonicalTriple:
    def test_trivial(self):
        assert canonical_triple(1, -1, 1) == (-1, 1, -1)
        assert canonical_triple(-1, 1, -1) == (-1, 1, -1)

    def test_prefers_smaller_first_entry_when_both_normalized(self):
        assert canonical_triple(3, 2, 7) == (3, 2, 7)
        assert canonical_triple(7, 2, 3) == (3, 2, 7)

    def test_sign_normalized_requires_odd(self):
        with pytest.raises(ValueError):
            sign_normalized(2, 1, 1)

    @given(
        a=st.integers(min_value=-25, max_value=25).filter(lambda n: n % 2 != 0),
        b=st.integers(min_value=-25, max_value=25).filter(lambda n: n != 0),
        c=st.integers(min_value=-25, max_value=25).filter(lambda n: n % 2 != 0),
    )
    def test_orbit_invariance(self, a, b, c):
        rep = canonical_triple(a, b, c)
        for other in [(c, b, a), (-a, -b, -c), (-c, -b, -a)]:
            assert canonical_triple(*other) == rep
        assert rep[0] % 4 == 3

    @given(
        a=st.integers(min_value=-25, max_value=25).filter(lambda n: n % 2 == 0),
        b=st.integers(min_value=-25, max_value=25),
        c=st.integers(min_value=-25, max_value=25),
    )
    def test_mixed_parity_falls_back_to_orbit_minimum(self, a, b, c):
        rep = canonical_triple(a, b, c)
        orbit = [(a, b, c), (c, b, a), (-a, -b, -c), (-c, -b, -a)]
        assert rep == min(orbit)
        for other in orbit:
            assert canonical_triple(*other) == rep


class TestCartan:
    def test_examples(self):
        assert cartan_type(5) == "Split"
        assert cartan_type(7) == "NonSplit"
        assert cartan_type(13) == "Split"

    def test_rejects_two_and_composites(self):
        for bad in (2, 9):
            with pytest.raises(ValueError):
                cartan_type(bad)


class TestTrivialLevel:
    def test_true_only_for_power_of_two_conductor(self):
        triple, _ = build_frey(normalize(7, 1, 1, -1, 1))
        assert is_trivial_level(invariants(triple))
        synthetic = MonomialTriple(-9, 2, 7)
        assert not is_trivial_level(invariants(synthetic))
