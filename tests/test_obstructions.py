import math
import random
from itertools import combinations

import pytest

import rackq as rq
from rackq import (
    CycleProfile,
    DuplicateLength,
    NonPositive,
    ProfileSyntaxError,
    cor34_verdict,
    decompose_lengths,
    full_verdict,
    hayashi_check,
    parse_profile,
    prop35_verdict,
    prop315_verdict,
)

import oracles


def prof(m0, *lengths, mults=None):
    """m0 fixed points plus the given lengths, each of multiplicity one
    unless ``mults`` says otherwise."""
    fixed = ((1, m0),) if m0 else ()
    return CycleProfile(fixed + tuple(zip(lengths, mults or (1,) * len(lengths))))


class TestParseProfile:
    def test_dotted(self):
        pf = parse_profile("1^2.2^2.3^4.6^4")
        assert (pf.m0, pf.moving_lengths(), pf.moving_mults()) == (2, (2, 3, 6), (2, 4, 4))

    def test_single_length(self):
        pf = parse_profile("5")
        assert (pf.m0, pf.moving_lengths(), pf.moving_mults()) == (0, (5,), (1,))

    def test_whitespace_and_implicit_mult(self):
        pf = parse_profile("1^1 2 3")
        assert (pf.m0, pf.moving_lengths(), pf.moving_mults()) == (1, (2, 3), (1, 1))

    def test_unordered_input_is_sorted(self):
        pf = parse_profile("6 2 10")
        assert pf.moving_lengths() == (2, 6, 10)

    def test_syntax_errors(self):
        for bad in ("", "x", "2^", "^2", "2^3^4", "-2", "\u0661 2", "2^\u00b2", "\uff12"):
            with pytest.raises(ProfileSyntaxError):
                parse_profile(bad)

    def test_duplicate_length(self):
        with pytest.raises(DuplicateLength):
            parse_profile("2 2")
        with pytest.raises(DuplicateLength):
            parse_profile("1 1^2")

    def test_nonpositive(self):
        with pytest.raises(NonPositive):
            parse_profile("0^2")
        with pytest.raises(NonPositive):
            parse_profile("2^0")

    def test_round_trip_via_str(self):
        pf = parse_profile("1^2 6 10 15")
        assert parse_profile(str(pf)) == pf


class TestProfileType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CycleProfile(((1, -1), (2, 1)))
        with pytest.raises(ValueError):
            CycleProfile(((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            CycleProfile(((2, 0),))
        with pytest.raises(ValueError):
            CycleProfile(((2**33, 1),))

    def test_length_cap_applies_to_parsed_strings(self):
        assert parse_profile(f"2 {2**32}").moving_lengths() == (2, 2**32)
        with pytest.raises(ValueError, match="capped at 2\\^32"):
            parse_profile(f"2 {2**32 + 1}")

    def test_parsed_and_table_profiles_are_one_type(self):
        table_profile = rq.pattern((0, 4, 3, 2, 1))
        assert (table_profile.m0, table_profile.moving_lengths()) == (1, (2,))
        assert parse_profile(str(table_profile)) == table_profile


class TestProp35:
    def test_two_coprime_lengths(self):
        v = prop35_verdict(prof(0, 2, 3))
        assert v.kind == "ExcludedProp35"
        assert v.scope == "racks"
        assert v.witness == {"i": 1, "P": 2, "Q": 3}

    def test_divisible_chain_not_excluded(self):
        assert prop35_verdict(prof(0, 2, 3, 6)).kind == "NotExcluded"

    def test_single_length(self):
        assert prop35_verdict(prof(0, 4)).kind == "NotExcluded"

    def test_no_lengths(self):
        assert prop35_verdict(prof(3)).kind == "NotExcluded"

    def test_multiplicities_are_ignored(self):
        a = prop35_verdict(prof(0, 2, 3))
        b = prop35_verdict(prof(5, 2, 3, mults=(7, 9)))
        assert a.kind == b.kind == "ExcludedProp35"

    def test_matches_quadratic_splits(self):
        for k in range(1, 6):
            for lengths in combinations(range(2, 25), k):
                v = prop35_verdict(prof(0, *lengths))
                assert v.witness == oracles.prop35_splits(lengths), lengths
                assert v.excluded == (v.witness is not None)


class TestCor34:
    def test_two_coprime_lengths(self):
        v = cor34_verdict(prof(0, 2, 3))
        assert v.kind == "ExcludedCor34"
        assert v.witness["P"] == 2 and v.witness["Q"] == 3

    def test_6_10_15_survives_every_bipartition(self):
        assert cor34_verdict(prof(0, 6, 10, 15)).kind == "NotExcluded"

    def test_single_length(self):
        assert cor34_verdict(prof(0, 2)).kind == "NotExcluded"

    def test_catches_non_contiguous_split(self):
        # (10, 12, 15): both contiguous splits have dividing lcms, but
        # {12} against {10, 15} does not.
        assert prop35_verdict(prof(0, 10, 12, 15)).kind == "NotExcluded"
        v = cor34_verdict(prof(0, 10, 12, 15))
        assert v.kind == "ExcludedCor34"
        assert v.witness == {"S": [12], "T": [10, 15], "P": 12, "Q": 30}

    def test_guard(self):
        # No length guard: sets far beyond the reach of the 2^(k-1) sweep
        # get a verdict.  The divisors above 1 of 720720 are divisor-closed,
        # so one side of every bipartition holds their lcm.
        divisors = tuple(d for d in range(2, 720721) if 720720 % d == 0)
        assert len(divisors) == 239
        assert cor34_verdict(prof(0, *divisors)).kind == "NotExcluded"
        v = cor34_verdict(prof(0, *range(2, 202)))
        assert v.kind == "ExcludedCor34"
        assert v.witness["S"] == [101]
        assert sorted(v.witness["S"] + v.witness["T"]) == list(range(2, 202))
        p, q = math.lcm(*v.witness["S"]), math.lcm(*v.witness["T"])
        assert (v.witness["P"], v.witness["Q"]) == (p, q)
        assert p % q != 0 and q % p != 0

    def test_matches_sweep_with_explicit_side_conditions(self):
        # Mutual non-division of P and Q already implies that each side's
        # lcm misses some length, so verdicts and witnesses agree with the
        # sweep that also checks this.
        for k in (1, 2, 3, 4):
            for lengths in combinations(range(2, 25), k):
                v = cor34_verdict(prof(0, *lengths))
                assert v.witness == oracles.cor34_sweep(lengths), lengths
                assert v.excluded == (v.witness is not None)

    def test_matches_sweep_on_seeded_longer_sets(self):
        rng = random.Random(20191)
        later_witnesses = 0
        for _ in range(2000):
            lengths = tuple(sorted(rng.sample(range(2, 200), rng.randint(5, 12))))
            v = cor34_verdict(prof(0, *lengths))
            assert v.witness == oracles.cor34_sweep(lengths), lengths
            later_witnesses += v.excluded and v.witness["S"] != [lengths[0]]
        assert later_witnesses > 0

    @pytest.mark.slow
    def test_matches_sweep_on_every_set_of_up_to_5_lengths(self):
        for k in range(1, 6):
            for lengths in combinations(range(2, 31), k):
                v = cor34_verdict(prof(0, *lengths))
                assert v.witness == oracles.cor34_sweep(lengths), lengths

    def test_prop35_positive_implies_cor34_positive(self):
        # Exhaust all strictly increasing length sets of size <= 3 from a
        # small pool; the bipartition rule must subsume the split rule.
        pool = range(2, 13)
        for k in (2, 3):
            for lengths in combinations(pool, k):
                q = prof(0, *lengths)
                if prop35_verdict(q).kind == "ExcludedProp35":
                    assert cor34_verdict(q).kind == "ExcludedCor34", lengths


class TestDecomposeLengths:
    def test_6_10_15(self):
        d = decompose_lengths(6, 10, 15)
        assert d.class_sets()["C"] == (2,)
        assert d.class_sets()["B"] == (3,)
        assert d.class_sets()["A"] == (5,)
        assert (d.p, d.q, d.r, d.s) == (2, 3, 5, 1)
        assert (d.p_prime, d.q_prime, d.r_prime) == (1, 1, 1)
        assert d.reconstruction() == (6, 10, 15)

    def test_12_15_20(self):
        d = decompose_lengths(12, 15, 20)
        assert d.class_sets()["C"] == (3,)
        assert d.class_sets()["B"] == (2,)
        assert d.class_sets()["A"] == (5,)
        assert (d.p, d.q, d.r, d.s) == (3, 4, 5, 1)
        assert d.reconstruction() == (12, 15, 20)

    def test_unclassifiable_prime(self):
        d = decompose_lengths(4, 8, 16)
        assert d.classes == ("none",)
        assert not d.all_classified

    def test_shared_factor_goes_to_d(self):
        d = decompose_lengths(12, 20, 30)
        # 12 = 2^2*3, 20 = 2^2*5, 30 = 2*3*5: exponents of 2 are (2,2,1) -> C
        # 3: (1,0,1) -> B; 5: (0,1,1) -> A
        assert d.classes == ("C", "B", "A")
        assert (d.p, d.q, d.r, d.s) == (4, 3, 5, 1)
        assert (d.p_prime, d.q_prime, d.r_prime) == (2, 1, 1)
        assert d.reconstruction() == (12, 20, 30)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            decompose_lengths(6, 6, 10)
        with pytest.raises(ValueError):
            decompose_lengths(1, 2, 3)

    def test_reconstruction_and_coprimality_small_range(self):
        for l1, l2, l3 in combinations(range(2, 61), 3):
            d = decompose_lengths(l1, l2, l3)
            assert d.p_prime and d.p % d.p_prime == 0
            assert d.q % d.q_prime == 0
            assert d.r % d.r_prime == 0
            for a, b in combinations((d.p, d.q, d.r, d.s), 2):
                assert math.gcd(a, b) == 1
            if d.all_classified:
                assert d.reconstruction() == (l1, l2, l3)


class TestProp315:
    def test_6_10_15(self):
        v = prop315_verdict(prof(2, 6, 10, 15))
        assert v.kind == "ExcludedProp315"
        assert v.scope == "crossed-sets"
        assert (v.witness.p, v.witness.q, v.witness.r, v.witness.s) == (2, 3, 5, 1)

    def test_12_15_20(self):
        assert prop315_verdict(prof(1, 12, 15, 20)).kind == "ExcludedProp315"

    def test_divisibility_chain_not_excluded(self):
        assert prop315_verdict(prof(3, 2, 4, 8)).kind == "NotExcluded"

    def test_wrong_shape_not_applicable(self):
        assert prop315_verdict(prof(0, 2, 4)).kind == "NotApplicable"
        assert prop315_verdict(prof(0, 2, 3, 6, mults=(2, 1, 1))).kind == "NotApplicable"

    def test_defers_to_split_rule(self):
        v = prop315_verdict(prof(0, 2, 3, 5))
        assert v.kind == "ExcludedProp35"
        assert v.rules_consulted == ("Prop315", "Prop35")

    def test_deferral_can_still_be_inconclusive(self):
        # (10, 12, 15): 12 does not divide lcm(10, 15) = 30, and neither
        # contiguous split fires.
        v = prop315_verdict(prof(0, 10, 12, 15))
        assert v.kind == "NotExcluded"
        assert v.rules_consulted == ("Prop315", "Prop35")


class TestHayashiCheck:
    def test_case_profiles(self):
        assert hayashi_check(parse_profile("1^2.2^2.3^4.6^4"))
        assert not hayashi_check(parse_profile("6 10 15"))
        assert hayashi_check(parse_profile("1^5"))


class TestFullVerdict:
    def test_split_rule_first(self):
        v = full_verdict(parse_profile("1^1 2 3"), "racks")
        assert v.kind == "ExcludedProp35"
        assert v.rules_consulted == ("Prop35",)

    def test_crossed_scope_reaches_third_rule(self):
        v = full_verdict(parse_profile("1^2 6 10 15"), "crossed-sets")
        assert v.kind == "ExcludedProp315"
        assert v.rules_consulted == ("Prop35", "Cor34", "Prop315")

    def test_rack_scope_cannot_use_crossed_rule(self):
        v = full_verdict(parse_profile("1^2 6 10 15"), "racks")
        assert v.kind == "NotExcluded"
        assert v.rules_consulted == ("Prop35", "Cor34")

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            full_verdict(prof(0, 2), "everything")

    def test_census_soundness_in_both_scopes(self, rack_reps):
        # No real indecomposable rack's profile may be excluded in rack
        # scope, and no real indecomposable crossed set's profile in
        # crossed-set scope.
        for n in range(1, 6):
            for rt in rack_reps[n]:
                if not rq.is_indecomposable(rt):
                    continue
                q = rq.rack_profile(rt)
                assert not full_verdict(q, "racks").excluded, rt.rows
                if rq.is_crossed_set(rt):
                    assert not full_verdict(q, "crossed-sets").excluded, rt.rows

    def test_census_soundness_order_6(self, rack_reps6):
        for rt in rack_reps6:
            if not rq.is_indecomposable(rt):
                continue
            q = rq.rack_profile(rt)
            assert not full_verdict(q, "racks").excluded
            if rq.is_crossed_set(rt):
                assert not full_verdict(q, "crossed-sets").excluded

    def test_not_excluded_implies_hayashi_for_unit_triples(self):
        # In crossed-set scope, any profile with at most three lengths of
        # multiplicity one that survives every rule satisfies the
        # divisibility conjecture (largest length 100 sweep).
        for k in (1, 2, 3):
            for lengths in combinations(range(2, 101), k):
                q = prof(0, *lengths)
                v = full_verdict(q, "crossed-sets")
                if not v.excluded:
                    assert hayashi_check(q), lengths
