import doctest
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from rackq import perm
from rackq.perm import (
    CycleProfile,
    compose,
    cycle_decomposition,
    from_cycles,
    inverse,
    is_permutation,
    order,
    pattern,
    power,
    support,
)

import oracles

DIHEDRAL5_PHI0 = (0, 4, 3, 2, 1)  # y -> -y mod 5


def perms(max_n=12):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(tuple)
    )


def same_size_pairs(max_n=10):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(tuple),
            st.permutations(list(range(n))).map(tuple),
        )
    )


class TestBasics:
    def test_is_permutation(self):
        assert is_permutation((1, 0, 2))
        assert not is_permutation((1, 1, 2))
        assert not is_permutation((0, 3))

    def test_checked_rejects(self):
        with pytest.raises(ValueError):
            perm.checked([0, 0, 1])


class TestCycleDecomposition:
    def test_identity_three_points(self):
        assert cycle_decomposition(tuple(range(3))) == [(0,), (1,), (2,)]

    def test_single_transposition(self):
        assert cycle_decomposition((1, 0, 2)) == [(0, 1), (2,)]

    def test_dihedral5_translation(self):
        assert cycle_decomposition(DIHEDRAL5_PHI0) == [(0,), (1, 4), (2, 3)]

    @given(perms())
    def test_round_trip(self, p):
        assert from_cycles(len(p), cycle_decomposition(p)) == p


class TestCycleLengths:
    """The lengths read off ``cycle_decomposition`` against the cycle walk
    they replaced."""

    def test_every_permutation_up_to_six_points(self):
        for n in range(7):
            for p in permutations(range(n)):
                assert perm.cycle_lengths(p) == oracles.cycle_lengths_walk(p), p

    def test_every_row_of_the_family_tables(self, family_tables):
        for name, rt in family_tables.items():
            for row in rt.rows:
                assert perm.cycle_lengths(row) == oracles.cycle_lengths_walk(row), name


class TestPattern:
    def test_identity(self):
        assert str(pattern(tuple(range(4)))) == "1^4"

    def test_dihedral5(self):
        assert str(pattern(DIHEDRAL5_PHI0)) == "1^1 2^2"

    def test_mixed(self):
        assert str(pattern((1, 2, 0, 4, 3))) == "2^1 3^1"

    @given(perms())
    def test_total_covers_all_points(self, p):
        assert pattern(p).total() == len(p)

    @given(same_size_pairs())
    def test_conjugation_preserves_pattern(self, pq):
        p, q = pq
        assert pattern(compose(compose(q, p), inverse(q))) == pattern(p)


class TestOrderSupport:
    def test_order_identity(self):
        assert order(tuple(range(5))) == 1

    def test_order_lcm(self):
        assert order((1, 2, 0, 4, 3)) == 6

    def test_order_dihedral5(self):
        assert order(DIHEDRAL5_PHI0) == 2

    def test_support(self):
        assert support(tuple(range(7))) == 0
        assert support((1, 0, 2)) == 2

    def test_support_of_6_10_15_cycles(self):
        # Any permutation with one 6-, one 10- and one 15-cycle moves 31 points.
        p = from_cycles(33, [range(0, 6), range(6, 16), range(16, 31)])
        assert support(p) == 31

    @given(perms())
    def test_order_matches_power(self, p):
        t = order(p)
        assert power(p, t) == tuple(range(len(p)))
        for smaller in range(1, min(t, 4)):
            assert power(p, smaller) != tuple(range(len(p))) or smaller == t


class TestGroupOps:
    def test_compose_convention(self):
        p, q = (2, 0, 1), (1, 2, 0)
        assert compose(p, q) == tuple(p[q[i]] for i in range(3))

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            compose((0, 1), (0, 1, 2))

    def test_inverse_cancels(self):
        p = (2, 0, 1)
        assert compose(p, inverse(p)) == tuple(range(3))
        assert compose(inverse(p), p) == tuple(range(3))

    def test_power_basics(self):
        p = (1, 2, 0)
        assert power(p, 0) == tuple(range(3))
        assert power(p, 3) == tuple(range(3))
        assert power(p, -1) == inverse(p)
        assert power(p, -2) == compose(inverse(p), inverse(p))

    def test_power_dihedral5_is_involution(self):
        assert power(DIHEDRAL5_PHI0, 2) == tuple(range(5))

    @given(same_size_pairs())
    def test_compose_associates_with_inverse(self, pq):
        p, q = pq
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


class TestCycleProfileType:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            CycleProfile(((2, 1), (2, 3)))
        with pytest.raises(ValueError):
            CycleProfile(((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            CycleProfile(((0, 1),))
        with pytest.raises(ValueError):
            CycleProfile(((2, 0),))

    def test_m0_and_moving(self):
        prof = CycleProfile(((1, 2), (2, 2), (6, 4)))
        assert prof.m0 == 2
        assert prof.moving_lengths() == (2, 6)
        assert prof.moving_mults() == (2, 4)
        assert prof.total() == 2 + 4 + 24

    def test_m0_absent(self):
        assert CycleProfile(((5, 1),)).m0 == 0

    def test_from_cycle_lengths(self):
        prof = CycleProfile.from_cycle_lengths([2, 1, 2, 3])
        assert str(prof) == "1^1 2^2 3^1"


class TestFromCycles:
    def test_basic(self):
        assert from_cycles(4, [(0, 2), (1, 3)]) == (2, 3, 0, 1)

    def test_missing_points_fixed(self):
        assert from_cycles(4, [(1, 2)]) == (0, 2, 1, 3)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            from_cycles(3, [(0, 1), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_cycles(3, [(0, 3)])


def test_docstring_examples():
    failed, attempted = doctest.testmod(perm)
    assert attempted > 0
    assert failed == 0
