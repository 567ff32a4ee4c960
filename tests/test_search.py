"""Bounded-height searches: the search by admissible sums and the
Pythagorean progressions against the cubic brute force, the row-by-row
table lookups and the root-extraction oracles; canonical deduplication,
the trivial family at alpha >= p, partition determinism, the pool
threshold, and the power-progression searches.
"""

import json
import math
import os

import pytest

import freycheck.cli as cli
import freycheck.search as search_mod
from freycheck.arith import MAX_HEIGHT
from freycheck.cli import jsonable
from freycheck.frey import canonical_triple
from freycheck.search import (
    MAX_AP_WORK,
    SIGMA_PRIMES,
    SearchOutcome,
    SearchSpec,
    SolutionRecord,
    _check_progressions,
    _records_from_raw,
    _search_chunk,
    classify_ap_outcome,
    classify_search_outcome,
    search_ap_powers,
    search_star,
    verify_theorem_claims,
)

from oracles import (
    ap_powers_exact_root,
    ap_powers_table,
    brute_force_ap_powers,
    brute_force_star,
    search_star_exact_root,
    search_star_table,
)


class TestSearchSpec:
    def test_valid(self):
        spec = SearchSpec(p=5, alpha=2, height=10)
        assert spec.L == 2 and spec.require_primitive
        assert spec.reduced_alpha == 2

    def test_p_3_allowed(self):
        assert SearchSpec(p=3, alpha=1, height=5).p == 3

    def test_rejections(self):
        with pytest.raises(ValueError, match="odd prime"):
            SearchSpec(p=4, alpha=1, height=5)
        with pytest.raises(ValueError, match="odd prime"):
            SearchSpec(p=2, alpha=1, height=5)
        with pytest.raises(ValueError, match="alpha"):
            SearchSpec(p=5, alpha=-1, height=5)
        with pytest.raises(ValueError, match="L must be prime"):
            SearchSpec(p=5, alpha=1, height=5, L=6)
        with pytest.raises(ValueError, match="height"):
            SearchSpec(p=5, alpha=1, height=0)

    def test_height_up_to_max_height(self):
        assert SearchSpec(p=5, alpha=1, height=MAX_HEIGHT).height == MAX_HEIGHT
        refused = "height exceeds MAX_HEIGHT = 1000000"
        with pytest.raises(ValueError, match=refused):
            SearchSpec(p=5, alpha=1, height=MAX_HEIGHT + 1)
        with pytest.raises(ValueError, match=refused):
            search_ap_powers(2, 3, MAX_HEIGHT + 1)
        # An empty grid is refused too: the bound does not depend on alpha.
        with pytest.raises(ValueError, match=refused):
            verify_theorem_claims([5], [7], MAX_HEIGHT + 1)

    def test_replace_validates(self):
        spec = SearchSpec(p=5, alpha=1, height=5)
        assert spec._replace(height=7) == SearchSpec(p=5, alpha=1, height=7)
        with pytest.raises(ValueError, match="odd prime"):
            spec._replace(p=9)
        with pytest.raises(ValueError, match="height"):
            spec._replace(height=0)

    def test_reduced_alpha_marks_fermat_case(self):
        assert SearchSpec(p=5, alpha=10, height=5).reduced_alpha == 0

    def test_roundtrip(self):
        record = SolutionRecord(
            a=-1, b=1, c=-1, normalized_form=(-1, 1, -1), trivial=True
        )
        doc = json.loads(json.dumps(jsonable(record)))
        doc["normalized_form"] = tuple(doc["normalized_form"])
        assert SolutionRecord(**doc) == record


class TestSearchStar:
    def test_p5_alpha1_trivial_only(self):
        records = search_star(SearchSpec(p=5, alpha=1, height=25))
        assert len(records) == 1
        rec = records[0]
        assert (rec.a, rec.b, rec.c) == (-1, 1, -1)
        assert rec.trivial and rec.content == 1

    def test_p5_alpha2_empty(self):
        assert search_star(SearchSpec(p=5, alpha=2, height=25)) == []

    def test_p11_L3_alpha1_empty(self):
        assert search_star(SearchSpec(p=11, alpha=1, height=20, L=3)) == []

    def test_records_satisfy_equation(self):
        for spec in (
            SearchSpec(p=3, alpha=1, height=20),
            SearchSpec(p=3, alpha=1, height=12, require_primitive=False),
        ):
            coeff = spec.L**spec.alpha
            for rec in search_star(spec):
                assert rec.a**spec.p + coeff * rec.b**spec.p + rec.c**spec.p == 0

    def test_agrees_with_brute_force(self):
        grid = [
            (3, 1, 2, 15),
            (3, 2, 2, 15),
            (5, 1, 2, 12),
            (5, 2, 2, 12),
            (3, 1, 3, 10),
            (5, 3, 2, 10),
        ]
        for p, alpha, L, height in grid:
            spec = SearchSpec(p=p, alpha=alpha, height=height, L=L)
            records = search_star(spec)
            raw = brute_force_star(p, alpha, height, L=L)
            # Same orbit sets after canonicalization.
            expected_forms = {canonical_triple(a, b, c) for a, b, c in raw}
            assert {rec.normalized_form for rec in records} == expected_forms, (
                p,
                alpha,
                L,
                height,
            )

    def test_imprimitive_tagging(self):
        spec = SearchSpec(p=3, alpha=1, height=4, require_primitive=False)
        records = search_star(spec)
        contents = sorted(rec.content for rec in records)
        assert contents == [1, 2, 3, 4]
        for rec in records:
            assert (rec.a, rec.b, rec.c) == tuple(
                rec.content * x for x in rec.normalized_form
            )
            assert rec.normalized_form == (-1, 1, -1)

    def test_primitive_filter_default(self):
        records = search_star(SearchSpec(p=3, alpha=1, height=4))
        assert [rec.content for rec in records] == [1]

    def test_partition_determinism(self, force_pools):
        spec = SearchSpec(p=3, alpha=1, height=18, require_primitive=False)
        force_pools(1)
        expected = search_star(spec)
        for cpus in (2, 3, 4):
            force_pools(cpus)
            assert search_star(spec) == expected

    def test_sorted_output(self):
        spec = SearchSpec(p=3, alpha=1, height=10, require_primitive=False)
        records = search_star(spec)
        keys = [(rec.normalized_form, rec.content) for rec in records]
        assert keys == sorted(keys)

    def test_chunks_follow_the_pool_not_workers(self, pool_sizes, monkeypatch, force_pools):
        # Each lookup is a share here, so the work asks for thousands of
        # processes; the chunks follow the pool the CPUs allow.
        spec = SearchSpec(p=3, alpha=1, height=50)
        force_pools(1)
        expected = search_star(spec)
        calls = []
        chunk = search_mod._search_chunk

        def counted(args):
            calls.append(args)
            return chunk(args)

        monkeypatch.setattr(search_mod, "_search_chunk", counted)
        force_pools(2)
        assert search_star(spec) == expected
        assert len(calls) == 2 and pool_sizes == [2]

    @pytest.mark.parametrize("cores", [1, None])
    def test_no_pool_on_one_core(self, pool_sizes, force_pools, cores):
        spec = SearchSpec(p=3, alpha=1, height=12, require_primitive=False)
        force_pools(4)
        expected = search_star(spec)
        force_pools(cores)
        assert search_star(spec) == expected
        assert pool_sizes == [4]

    @pytest.mark.parametrize("p,alpha", [(3, 4), (3, 7), (5, 6)])
    def test_trivial_family_when_alpha_at_least_p(self, p, alpha):
        """With alpha >= p the trivial family is a = c = -2^(alpha // p) * b:
        b is rescaled by the p-th power taken out of 2^alpha."""
        spec = SearchSpec(p=p, alpha=alpha, height=12, require_primitive=False)
        k = 2 ** (alpha // p)
        records = search_star(spec)
        assert [rec.normalized_form for rec in records] == [(-k, 1, -k)] * (12 // k)
        assert all(rec.trivial for rec in records)
        outcome = classify_search_outcome(spec, records)
        assert outcome.expected == "trivial-only" and outcome.conforms

    def test_trivial_flag_needs_the_rescaled_b(self):
        """(-1, 1, -1) solves no equation with alpha = 4 at p = 3, and
        (-2, 1, -2) is trivial only when 2^(alpha // p) = 2."""
        spec = SearchSpec(p=3, alpha=1, height=5)
        assert not search_mod._is_trivial(spec, (-2, 1, -2))
        assert search_mod._is_trivial(spec._replace(alpha=4), (-2, 1, -2))
        assert not search_mod._is_trivial(spec._replace(alpha=4), (-1, 1, -1))

    def test_admissible_sums(self):
        """s = L^i p^j u^p up to 2H; with L = p the two prime factors merge."""
        assert search_mod._admissible_sums(SearchSpec(p=3, alpha=1, height=5, L=3)) == [
            1, 3, 8, 9,
        ]
        sums = search_mod._admissible_sums(SearchSpec(p=13, alpha=3, height=1000))
        # 2^i * 13^j <= 2000: 11 values with j = 0, 8 with j = 1, 4 with j = 2.
        assert len(sums) == 23 and sums[-1] == 13 * 2**7

    def test_every_solution_has_an_admissible_sum(self):
        """The divisibility behind the search, on the oracle's solutions:
        a primitive solution oriented so that a = max(|a|, |c|) has an
        admissible sum a + c."""
        # 4^3 - 7*3^3 + 5^3 = 0 has a + c = 3^2: the p^j factor is needed.
        assert (4, -3, 5) in search_star_table(3, 1, 10, L=7)
        for p, alpha, L, height in [
            (3, 2, 3, 60), (3, 1, 2, 60), (3, 4, 2, 60), (5, 1, 2, 20), (3, 1, 7, 10), (3, 2, 7, 40),
        ]:
            spec = SearchSpec(p=p, alpha=alpha, height=height, L=L)
            sums = set(search_mod._admissible_sums(spec))
            raw = search_star_table(p, alpha, height, L=L)
            assert raw
            for a, b, c in raw:
                top = a if abs(a) >= abs(c) else c
                sign = 1 if top > 0 else -1
                assert sign * (a + c) in sums, (a, b, c)


class TestPoolThreshold:
    """A pool starts only when the estimated lookups, (number of sums) * H
    summed over the specs, reach two ``LOOKUPS_PER_PROCESS``, and has one
    process per such share; the chunks are stubbed, so no real search of
    that size runs."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(search_mod, "_search_chunk", lambda args: calls.append(args) or [])
        return calls

    @staticmethod
    def _lookups(specs):
        return sum(len(search_mod._admissible_sums(s)) * s.height for s in specs)

    def test_small_sweeps_run_in_process(self, pool_sizes, chunks):
        verify_theorem_claims([3, 5, 7, 11, 13], [1, 2, 3, 4], 25)
        assert pool_sizes == [] and len(chunks) == 18

    def test_large_search_starts_a_pool(self, pool_sizes, chunks):
        # 3,840,000 lookups: two shares, so two of the eight CPUs.
        spec = SearchSpec(p=5, alpha=1, height=40000)
        assert self._lookups([spec]) // search_mod.LOOKUPS_PER_PROCESS == 2
        search_star(spec)
        assert pool_sizes == [2] and len(chunks) == 2

    def test_threshold_is_on_the_whole_grid(self, pool_sizes, chunks):
        height = 10000
        specs = [SearchSpec(p=p, alpha=a, height=height) for p in (3, 5) for a in (1, 2)]
        lookups = self._lookups(specs)
        share = search_mod.LOOKUPS_PER_PROCESS
        assert max(self._lookups([s]) for s in specs) < 2 * share and lookups // share == 2
        verify_theorem_claims([3, 5], [1, 2], height)
        assert pool_sizes == [2] and len(chunks) == 8


class TestAgainstRootExtraction:
    """The searches against the root-extraction loops of an earlier
    version, at heights the cubic brute force cannot reach."""

    STAR_GRID = [
        (p, alpha, L)
        for p in (3, 5, 7, 13)
        for alpha in sorted({0, 1, 2, p - 1} | ({7} if p == 13 else set()))
        for L in (2, 3)
    ]

    @pytest.mark.parametrize("p,alpha,L", STAR_GRID)
    def test_search_star(self, p, alpha, L, force_pools):
        height = 200 if p == 3 else 120
        raw = search_star_exact_root(p, alpha, height, L=L)
        for require_primitive in (False, True):
            spec = SearchSpec(
                p=p, alpha=alpha, height=height, L=L,
                require_primitive=require_primitive,
            )
            expected = [t for t in raw if not require_primitive or math.gcd(*t) == 1]
            force_pools(1)
            records = search_star(spec)
            assert records == _records_from_raw(spec, expected)
            if not require_primitive:
                force_pools(2)
                assert search_star(spec) == records

    @pytest.mark.parametrize("distinct_only", (True, False))
    @pytest.mark.parametrize("k", (3, 4))
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_ap_powers(self, n, k, distinct_only):
        for height in (1, 500 if n == 2 else 200):
            assert search_ap_powers(n, k, height, distinct_only) == ap_powers_exact_root(
                n, k, height, distinct_only
            )

    def test_hits_exist_on_the_grid(self):
        """The comparisons above are not between empty lists only."""
        assert (1, -1, 2) in search_star_exact_root(3, 2, 10, L=3)
        assert (7, 13, 17) in ap_powers_exact_root(2, 3, 20)
        assert (1, 1, 1, 1) in ap_powers_exact_root(3, 4, 1, distinct_only=False)


class TestAgainstTableLookup:
    """The search by sums and the Pythagorean progressions against the
    row-by-row table lookups they replaced."""

    @pytest.mark.parametrize("L", (2, 3, 5, 7))
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_search_star_grid(self, p, L):
        """Every alpha in 0..2p+1 (so alpha >= p, and L = p where it
        occurs), at heights up to 40, primitive or not."""
        for alpha in range(2 * p + 2):
            for height in (1, 2, 6, 40):
                for require_primitive in (True, False):
                    spec = SearchSpec(p, alpha, height, L, require_primitive)
                    expected = search_star_table(p, alpha, height, L, require_primitive)
                    assert search_star(spec) == _records_from_raw(spec, expected), spec

    def test_search_star_larger_heights(self):
        for p, alpha, L, height in [(3, 2, 3, 700), (3, 1, 2, 700), (5, 6, 2, 400), (7, 7, 7, 300)]:
            for require_primitive in (True, False):
                spec = SearchSpec(p, alpha, height, L, require_primitive)
                expected = search_star_table(p, alpha, height, L, require_primitive)
                assert search_star(spec) == _records_from_raw(spec, expected), spec

    def test_chunks_return_primitive_hits_and_their_multiples(self):
        spec = SearchSpec(p=3, alpha=2, height=60, L=3, require_primitive=False)
        raw = _search_chunk((spec, search_mod._admissible_sums(spec)))
        assert sorted(raw) == sorted(set(raw))
        assert sorted(_records_from_raw(spec, raw)) == sorted(
            _records_from_raw(spec, search_star_table(3, 2, 60, L=3, require_primitive=False))
        )

    @pytest.mark.parametrize("distinct_only", (True, False))
    @pytest.mark.parametrize("k", (3, 4))
    def test_square_progressions(self, k, distinct_only):
        for height in list(range(1, 80)) + [400]:
            assert search_ap_powers(2, k, height, distinct_only) == ap_powers_table(
                2, k, height, distinct_only
            ), height


class TestScale:
    """Heights the O(H^2) sweeps could not reach in a test run, through the CLI."""

    @staticmethod
    def _run(capsys, *args):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        return json.loads(captured.out)

    def test_search_p5_alpha1_height_20000(self, capsys):
        doc = self._run(capsys, "search", "--p", "5", "--alpha", "1", "--height", "20000")
        assert [(r["a"], r["b"], r["c"]) for r in doc["records"]] == [(-1, 1, -1)]

    def test_four_squares_height_20000(self, capsys):
        doc = self._run(capsys, "ap-search", "--n", "2", "--k", "4", "--height", "20000")
        assert doc["progressions"] == [] and doc["conforms"] is True

    def test_three_squares_height_2000(self, capsys):
        doc = self._run(capsys, "ap-search", "--n", "2", "--k", "3", "--height", "2000")
        assert [tuple(t) for t in doc["progressions"]] == ap_powers_table(2, 3, 2000)


class TestClassification:
    def test_alpha1_expects_trivial_only(self):
        spec = SearchSpec(p=5, alpha=1, height=25)
        records = search_star(spec)
        outcome = classify_search_outcome(spec, records)
        assert outcome.claim == "established"
        assert outcome.expected == "trivial-only"
        assert outcome.conforms

    def test_alpha2_expects_empty(self):
        spec = SearchSpec(p=5, alpha=2, height=25)
        outcome = classify_search_outcome(spec, [])
        assert outcome.expected == "empty" and outcome.conforms

    def test_fermat_case_expects_empty(self):
        spec = SearchSpec(p=5, alpha=0, height=10)
        outcome = classify_search_outcome(spec, [])
        assert outcome.expected == "empty"
        assert classify_search_outcome(spec, search_star(spec)).conforms

    def test_nontrivial_record_is_a_counterexample(self):
        spec = SearchSpec(p=5, alpha=1, height=5)
        fake = SolutionRecord(a=3, b=2, c=7, normalized_form=(3, 2, 7), trivial=False)
        outcome = classify_search_outcome(spec, [fake])
        assert not outcome.conforms and outcome.counterexamples == [fake]

    def test_sigma_family_is_empirical(self):
        assert SIGMA_PRIMES == {3, 5, 7, 11, 13, 17, 19, 23, 29, 53, 59}
        spec = SearchSpec(p=11, alpha=1, height=10, L=3)
        outcome = classify_search_outcome(spec, [])
        assert outcome.claim == "empirical" and outcome.expected == "empty"
        small_p = SearchSpec(p=5, alpha=1, height=10, L=3)
        outcome_small = classify_search_outcome(small_p, [])
        assert outcome_small.claim == "empirical" and outcome_small.expected == "none"
        off_family = SearchSpec(p=11, alpha=1, height=10, L=31)
        assert classify_search_outcome(off_family, []).expected == "none"


class TestVerifyDrivers:
    def test_cubic_cases(self):
        """p = 3: alpha = 1 admits exactly the trivial family, alpha = 2 nothing."""
        cases = verify_theorem_claims([3], [1, 2], 50)
        by_alpha = {case.spec.alpha: case for case in cases}
        assert set(by_alpha) == {1, 2}
        assert [
            (rec.a, rec.b, rec.c) for rec in by_alpha[1].records
        ] == [(-1, 1, -1)]
        assert by_alpha[2].records == []
        assert all(case.conforms for case in cases)

    def test_cubic_cases_height_1(self):
        cases = verify_theorem_claims([3], [1, 2], 1)
        by_alpha = {case.spec.alpha: case for case in cases}
        assert [rec.normalized_form for rec in by_alpha[1].records] == [(-1, 1, -1)]

    def test_verify_theorem_claims_skips_alpha_at_least_p(self):
        cases = verify_theorem_claims([3, 5], [1, 2, 3, 4], 6)
        pairs = [(case.spec.p, case.spec.alpha) for case in cases]
        assert pairs == [(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)]

    def test_verify_theorem_claims_checks_every_p(self):
        # Before any search, also for a p that no alpha < p would search.
        for p_list in ([9], [-5], [1], [5, 9], [11, 4]):
            with pytest.raises(ValueError, match="p must be an odd prime"):
                verify_theorem_claims(p_list, [11], 5)

    def test_verify_theorem_claims_empty_plist(self):
        assert verify_theorem_claims([], [1, 2], 10) == []

    def test_one_pool_for_the_whole_grid(self, pool_sizes, force_pools):
        grid = ([3, 5], [1, 2], 7)
        force_pools(1)
        expected = verify_theorem_claims(*grid)
        force_pools(2)
        assert verify_theorem_claims(*grid) == expected
        assert pool_sizes == [2]

    @pytest.mark.parametrize("cores", [1, None])
    def test_no_pool_on_one_core(self, pool_sizes, force_pools, cores):
        grid = ([3, 5], [1, 2], 7)
        force_pools(4)
        expected = verify_theorem_claims(*grid)
        force_pools(cores)
        assert verify_theorem_claims(*grid) == expected
        assert pool_sizes == [4]

    def test_repeated_cases_stay_separate(self, force_pools):
        force_pools(2)
        cases = verify_theorem_claims([5, 5], [1, 1], 9)
        assert len(cases) == 4
        force_pools(1)
        assert cases == verify_theorem_claims([5, 5], [1, 1], 9)

    def test_case_report_shape(self):
        case = verify_theorem_claims([5], [1], 8)[0]
        doc = jsonable(cli._case_payload(case))
        assert doc["conforms"] is True
        assert doc["expected"] == "trivial-only"
        assert doc["records"][0]["normalized_form"] == [-1, 1, -1]


class TestApPowers:
    def test_square_3ap_anchors(self):
        found = search_ap_powers(2, 3, 20)
        assert (7, 13, 17) in found
        assert (1, 5, 7) in found and (2, 10, 14) in found

    def test_square_3ap_matches_brute_force(self):
        for height in (10, 25):
            assert search_ap_powers(2, 3, height) == brute_force_ap_powers(
                2, 3, height
            )

    def test_square_4ap_empty(self):
        assert search_ap_powers(2, 4, 120) == []

    def test_fourth_power_3ap_empty(self):
        assert search_ap_powers(4, 3, 100) == []

    def test_cube_3ap_empty(self):
        assert search_ap_powers(3, 3, 100) == []

    def test_constant_progressions_when_allowed(self):
        found = search_ap_powers(2, 3, 5, distinct_only=False)
        assert (1, 1, 1) in found and (5, 5, 5) in found

    def test_progressions_are_sorted_tuples(self):
        found = search_ap_powers(2, 3, 30)
        assert found == sorted(found)
        for x1, x2, x3 in found:
            assert 0 < x1 < x2 < x3 <= 30
            assert x2**2 - x1**2 == x3**2 - x2**2

    def test_recheck_rejects_bad_progressions(self):
        _check_progressions(2, 7, True, [(1, 5, 7)])
        _check_progressions(2, 7, False, [(1, 1, 1)])
        for bases in [(1, 5, 6), (1, 5, 7, 8), (5, 1, 7), (0, 5, 7), (1, 5, 8)]:
            with pytest.raises(AssertionError):
                _check_progressions(2, 7, True, [bases])
        with pytest.raises(AssertionError):
            _check_progressions(2, 7, True, [(1, 1, 1)])

    def test_validation(self):
        with pytest.raises(ValueError):
            search_ap_powers(1, 3, 10)
        with pytest.raises(ValueError):
            search_ap_powers(2, 5, 10)
        with pytest.raises(ValueError):
            search_ap_powers(2, 3, 0)

    def test_sweep_budget_bounds_n_at_least_3_only(self, monkeypatch):
        # The largest accepted height for n = 3, for k = 3 and 4 alike, and
        # the next; n = 2 is not budgeted.
        top = 30000
        work = search_mod._ap_sweep_work
        assert work(3, top) <= MAX_AP_WORK < work(3, top + 1)
        monkeypatch.setattr(search_mod, "_power_progressions", lambda roots: [])
        monkeypatch.setattr(search_mod, "_square_progressions", lambda h: [])
        assert search_ap_powers(3, 3, top) == search_ap_powers(3, 4, top) == []
        assert search_ap_powers(2, 3, top + 1) == []
        monkeypatch.setattr(search_mod, "_power_progressions", lambda roots: pytest.fail("swept"))
        for n in (3, 4, 7):
            refused = "n = %d at height %d needs about %d units of work, above MAX_AP_WORK = %d" % (
                n, top + 1, work(n, top + 1), MAX_AP_WORK
            )
            with pytest.raises(ValueError, match=refused):
                search_ap_powers(n, 4, top + 1)

    def test_sweep_budget_grows_with_n(self, monkeypatch):
        # Longer powers cost more: at n = 200,000 the height 300 (44,850
        # lookups) is refused, and the table of powers alone counts.
        monkeypatch.setattr(search_mod, "_power_progressions", lambda roots: pytest.fail("swept"))
        with pytest.raises(ValueError, match="n = 200000 at height 300 needs about"):
            search_ap_powers(200000, 3, 300)
        work = search_mod._ap_sweep_work
        assert work(200000, 300) > work(3, 300) * 1000
        # One lookup, but a table of two powers of 2 * 10^8 bits.
        assert work(10**8, 2) > MAX_AP_WORK
        assert work(3, 2) > 0

    def test_classification(self):
        hits = search_ap_powers(2, 3, 20)
        assert classify_ap_outcome(2, 3, True, hits).conforms  # no claim broken
        assert classify_ap_outcome(2, 3, True, hits).claim == "empirical"
        bad = classify_ap_outcome(2, 4, True, [(1, 2, 3, 4)])
        assert not bad.conforms and bad.expected == "empty"
        assert classify_ap_outcome(4, 3, True, []).claim == "established"
        assert classify_ap_outcome(2, 4, False, [(1, 1, 1, 1)]).conforms
        assert isinstance(bad, SearchOutcome)
