import math
import random
import time
from itertools import permutations

import pytest

import rackq as rq
from rackq import (
    AffineSpec,
    CarrierTooLarge,
    NonInvertibleAlpha,
    affine,
    conjugation_class_quandle,
    cyclic_rack,
    dihedral,
    trivial,
)
from rackq.tableio import emit_table

import oracles


class TestTrivial:
    def test_order_one(self):
        assert trivial(1).rows == ((0,),)

    def test_all_rows_identity(self):
        assert trivial(3).rows == ((0, 1, 2),) * 3

    def test_decomposable_beyond_order_one(self):
        assert not rq.is_indecomposable(trivial(5))
        assert rq.is_indecomposable(trivial(1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trivial(0)


class TestCyclicRack:
    def test_order_two_rows(self):
        assert cyclic_rack(2).rows == ((1, 0), (1, 0))

    def test_order_four_flags(self):
        rt = cyclic_rack(4)
        assert not rq.is_quandle(rt)
        assert rq.is_indecomposable(rt)
        assert all(str(prof) == "4^1" for prof in rt.patterns)

    def test_order_one_coincides_with_trivial(self):
        assert cyclic_rack(1) == trivial(1)


class TestDihedral:
    def test_order_three_translation(self):
        assert dihedral(3).rows[0] == (0, 2, 1)
        assert str(rq.rack_profile(dihedral(3))) == "1^1 2^1"

    def test_order_nine_profile(self):
        rt = dihedral(9)
        assert rq.is_indecomposable(rt)
        assert str(rq.rack_profile(rt)) == "1^1 2^4"

    def test_even_orders_decompose(self):
        rt = dihedral(4)
        assert not rq.is_indecomposable(rt)
        assert oracles.orbit_of(rt.rows, 0) == frozenset({0, 2})

    def test_degree_at_most_two(self):
        for n in range(2, 40):
            assert rq.classify(dihedral(n)).degree <= 2

    def test_matches_formula(self):
        for n in range(1, 61):
            assert emit_table(dihedral(n)) == emit_table(oracles.dihedral_formula(n)), n


def factors_through(moduli, alpha):
    """Whether every entry a at (i, j) gives a map Z_{n_j} -> Z_{n_i}: the
    integer map t -> a*t mod n_i takes one value on each residue class
    mod n_j."""
    return all(
        a * t % moduli[i] == a * (t + moduli[j]) % moduli[i]
        for i, row in enumerate(alpha)
        for j, a in enumerate(row)
        for t in range(moduli[j])
    )


def outcome(build, *args):
    """The table ``build`` returns, or the type and message of the
    ``RackError`` it raises."""
    try:
        return build(*args)
    except rq.RackError as exc:
        return type(exc), str(exc)


def assert_same_affine(spec):
    """affine() gives the table or error of the code it replaced, kept as
    ``oracles.affine_per_point``, and the same table bytes or error type
    and message as the two-branch reference.  Returns whether a table was
    built."""
    assert outcome(affine, spec) == outcome(oracles.affine_per_point, spec), spec
    try:
        want = emit_table(oracles.affine_two_branch(spec))
    except NonInvertibleAlpha as exc:
        with pytest.raises(NonInvertibleAlpha) as got:
            affine(spec)
        assert str(got.value) == str(exc), spec
        return False
    assert emit_table(affine(spec)) == want, spec
    return True


class TestAffine:
    def test_multiplication_by_two_mod_five(self):
        rt = affine(AffineSpec((5,), ((2,),)))
        assert rt.rows[0] == (0, 2, 4, 1, 3)
        assert str(rq.pattern(rt.rows[0])) == "1^1 4^1"

    def test_alpha_minus_one_is_dihedral(self):
        for n in (2, 3, 5, 8, 13):
            assert affine(AffineSpec((n,), ((n - 1,),))) == dihedral(n)

    def test_mod_fifteen_orbits(self):
        rt = affine(AffineSpec((15,), ((2,),)))
        assert str(rq.pattern(rt.rows[0])) == "1^1 2^1 4^3"

    def test_non_invertible_alpha(self):
        with pytest.raises(NonInvertibleAlpha, match=r"^alpha=2 is not invertible mod 4$"):
            affine(AffineSpec((4,), ((2,),)))
        with pytest.raises(
            NonInvertibleAlpha,
            match=r"^alpha=\(\(1, 0\), \(1, 0\)\) is not a bijection on the group$",
        ):
            affine(AffineSpec((2, 2), ((1, 0), (1, 0))))

    def test_multi_modulus_matches_single_path(self):
        # On one modulus, affine() must agree with the per-element formula
        # over the spec's elements, index_of and alpha, taken from oracles.
        fast = affine(AffineSpec((6,), ((5,),)))
        spec = AffineSpec((6,), ((5,),))
        elements = oracles.affine_elements(spec)
        assert [oracles.affine_index_of(spec, e) for e in elements] == list(range(6))
        generic_rows = []
        for x, ex in enumerate(elements):
            ax = oracles.affine_apply(spec, ex)
            row = []
            for ey in elements:
                ay = oracles.affine_apply(spec, ey)
                row.append(oracles.affine_index_of(spec, tuple((ex[i] - ax[i] + ay[i]) for i in range(1))))
            generic_rows.append(tuple(row))
        assert fast.rows == tuple(generic_rows)

    def test_field_style_matrix_on_z2_squared(self):
        # Companion matrix of x^2 + x + 1 acts like a cube root of unity.
        rt = affine(AffineSpec((2, 2), ((0, 1), (1, 1))))
        assert rq.validate(rt.n, rt.rows) == rt
        assert rq.is_indecomposable(rt)
        assert rq.degree(rt) == 3
        assert str(rq.rack_profile(rt)) == "1^1 3^1"

    def test_mixed_radix_element_order(self):
        spec = AffineSpec((3, 3), ((0, 1), (1, 0)))
        assert oracles.affine_elements(spec)[:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]
        # Row 0 is alpha itself, which swaps the coordinates: index
        # k = k_0 + 3 k_1 goes to k_1 + 3 k_0.
        assert affine(spec).rows[0] == (0, 3, 6, 1, 4, 7, 2, 5, 8)

    def test_connectivity_criterion_cross_check(self):
        # Orbit-based connectivity agrees with "1 - alpha is a bijection"
        # for every cyclic group of order <= 30 and every unit alpha.
        for n in range(2, 31):
            for a in range(n):
                if math.gcd(a, n) != 1:
                    continue
                rt = affine(AffineSpec((n,), ((a,),)))
                assert rq.is_indecomposable(rt) == (math.gcd(1 - a, n) == 1), (n, a)

    def test_cyclic_groups_match_two_branch_reference(self):
        for n in range(1, 61):
            for a in range(-1, n + 1):
                assert_same_affine(AffineSpec((n,), ((a,),)))

    def test_cyclic_groups_match_per_point_code(self):
        # Every multiplier in -n..2n, so alpha is reduced mod n on both
        # sides of zero and non-units reach NonInvertibleAlpha.
        for n in range(1, 61):
            for a in range(-n, 2 * n + 1):
                spec = AffineSpec((n,), ((a,),))
                assert outcome(affine, spec) == outcome(oracles.affine_per_point, spec), spec

    @pytest.mark.slow
    def test_large_cyclic_groups_match_two_branch_reference(self):
        for n in (99, 151, 199):
            for a in range(-1, n + 1):
                assert_same_affine(AffineSpec((n,), ((a,),)))

    def test_seeded_matrices_match_two_branch_reference(self):
        # The sweep's vector spaces, mixed moduli, and moduli that contain 1.
        # A matrix that is not a homomorphism is rejected by AffineSpec.
        rng = random.Random(20191)
        vector_spaces = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2))
        shapes = [(p,) * k for p, k in vector_spaces]
        shapes += [(m, 2) for m in range(3, 8)] + [(2, 3, 1), (1, 1), (1, 4), (6, 1, 2)]
        rejected = 0
        for moduli in shapes:
            k = len(moduli)
            for _ in range(20):
                alpha = tuple(tuple(rng.randrange(-2, 8) for _ in range(k)) for _ in range(k))
                if factors_through(moduli, alpha):
                    assert_same_affine(AffineSpec(moduli, alpha))
                else:
                    rejected += 1
                    with pytest.raises(ValueError, match=r"is not a homomorphism from Z_"):
                        AffineSpec(moduli, alpha)
        assert rejected == 132

    def test_gathered_rows_match_two_branch_reference(self):
        # Groups where n / n_last is large, so many rows with last
        # coordinate 0 are gathered rather than sliced, and n = 1.
        rng = random.Random(8)
        shapes = ((2,) * 6, (3, 3, 3), (5, 5), (4, 6), (6, 1, 2), (1,), (1, 1))
        for moduli in shapes:
            k = len(moduli)
            built = tried = 0
            while tried < 25:
                alpha = tuple(tuple(rng.randrange(-2, 8) for _ in range(k)) for _ in range(k))
                if factors_through(moduli, alpha):
                    tried += 1
                    built += assert_same_affine(AffineSpec(moduli, alpha))
            assert built >= 3, moduli

    def test_bad_spec_shapes(self):
        with pytest.raises(ValueError):
            AffineSpec((), ())
        with pytest.raises(ValueError):
            AffineSpec((3,), ((1, 0),))
        with pytest.raises(ValueError):
            AffineSpec((0,), ((1,),))
        # Every entry must be an int: no truncation, no parsing of strings.
        # A matrix whose rows are not sequences is refused like any bad shape.
        with pytest.raises(rq.RackError, match=r"^alpha must be a 1x1 matrix$"):
            AffineSpec((5,), (2,))
        with pytest.raises(rq.RackError, match=r"^moduli\[0\] must be an integer, got 5\.9$"):
            AffineSpec((5.9,), ((2,),))
        with pytest.raises(rq.RackError, match=r"^alpha\[0\]\[0\] must be an integer, got 2\.5$"):
            AffineSpec((5,), ((2.5,),))
        with pytest.raises(rq.RackError, match=r"^moduli\[0\] must be an integer, got '5'$"):
            AffineSpec(("5",), (("2",),))
        with pytest.raises(rq.RackError, match=r"^alpha\[0\]\[0\] must be an integer, got 'x'$"):
            AffineSpec((5,), (("x",),))
        # Entry (i, j) maps Z_{n_j} to Z_{n_i}, so n_i must divide n_j * entry.
        with pytest.raises(
            ValueError,
            match=r"^alpha\[1\]\[0\]=3 is not a homomorphism from Z_5 to Z_2: 2 does not divide 5\*3$",
        ):
            AffineSpec((5, 2), ((3, 0), (3, 7)))
        with pytest.raises(ValueError, match=r"^alpha\[1\]\[0\]=1 is not a homomorphism from Z_1 to Z_4"):
            AffineSpec((1, 4), ((1, 0), (1, 1)))
        # Z_4 -> Z_2 and Z_2 -> Z_4 entries that are homomorphisms.
        assert assert_same_affine(AffineSpec((4, 2), ((1, 0), (1, 1))))
        assert assert_same_affine(AffineSpec((2, 4), ((1, 2), (2, 1))))


def cycle_type_reps(degree):
    """One permutation of each cycle type on ``degree`` points."""

    def partitions(n, largest):
        if n == 0:
            yield []
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield [k, *rest]

    for lengths in partitions(degree, degree):
        rep, start = [], 0
        for k in lengths:
            rep += [start + (i + 1) % k for i in range(k)]
            start += k
        yield tuple(rep)


def assert_same_classes(degree):
    """Every cycle type on ``degree`` points gives the same table bytes as
    the transposition-closure reference, and the same table as the code
    it replaced, kept as ``oracles.conjugation_class_composed``."""
    reps = list(cycle_type_reps(degree))
    assert len({rq.pattern(rep) for rep in reps}) == (1, 1, 2, 3, 5, 7, 11, 15)[degree]
    for rep in reps:
        got = conjugation_class_quandle(degree, rep)
        assert got == oracles.conjugation_class_composed(degree, rep), rep
        assert emit_table(got) == emit_table(oracles.conjugation_class_bfs(degree, rep)), rep


def conjugate_calls(degree, rep):
    """How many times conjugation_class_quandle calls ``_conjugate``."""
    calls = 0
    conjugate = rq.constructors._conjugate

    def counting(g, i):
        nonlocal calls
        calls += 1
        return conjugate(g, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rq.constructors, "_conjugate", counting)
        conjugation_class_quandle(degree, rep)
    return calls


class TestConjugationClass:
    def test_transpositions_in_s3(self):
        rt = conjugation_class_quandle(3, (1, 0, 2))
        assert rt.n == 3
        assert rq.is_crossed_set(rt)
        assert rq.is_indecomposable(rt)

    def test_three_cycles_in_s3_give_trivial_pair(self):
        rt = conjugation_class_quandle(3, (1, 2, 0))
        assert rt == trivial(2)
        assert not rq.is_indecomposable(rt)

    def test_transpositions_in_s4(self):
        rt = conjugation_class_quandle(4, (1, 0, 2, 3))
        assert rt.n == 6
        assert rq.is_crossed_set(rt)
        assert rq.is_indecomposable(rt)
        assert str(rq.rack_profile(rt)) == "1^2 2^2"

    def test_carrier_sorted_lexicographically(self):
        rt = conjugation_class_quandle(3, (1, 0, 2))
        # carrier is [(0,2,1), (1,0,2), (2,1,0)]; row 0 is conjugation by (0,2,1)
        assert rt.rows[0] == (0, 2, 1)

    def test_class_guard(self):
        # 9-cycles in the symmetric group on 9 points: 8! = 40320 members,
        # a table of 1.6 billion cells.
        nine_cycle = tuple(list(range(1, 9)) + [0])
        with pytest.raises(CarrierTooLarge, match=r"^carrier size 40320 exceeds"):
            conjugation_class_quandle(9, nine_cycle)

    def test_every_cycle_type_up_to_s6_matches_reference(self):
        for degree in range(1, 7):
            assert_same_classes(degree)

    @pytest.mark.slow
    def test_every_cycle_type_of_s7_matches_reference(self):
        assert_same_classes(7)

    def test_errors_match_composed_code(self):
        cases = [(4, (1, 0, 2)), (3, (0, 0, 1)), (3, (1, 2)), (0, ()),
                 (9, tuple(range(1, 9)) + (0,)), (1000, (1, 0, *range(2, 1000)))]
        for degree, rep in cases:
            want = outcome(oracles.conjugation_class_composed, degree, rep)
            assert isinstance(want, tuple), (degree, rep)
            assert outcome(conjugation_class_quandle, degree, rep) == want, (degree, rep)

    def test_each_member_is_conjugated_once_per_transposition(self):
        # The BFS conjugates by every t_i; the class-index arrays and the
        # representative's row reuse what it found.  Conjugation by t_i is
        # an involution, so {m, t_i m t_i} is conjugated once: the calls
        # are sum over i of (N + f_i) / 2, f_i the members that commute
        # with t_i, and never more than (d - 1) * N.  Computing the arrays
        # again would double this, which no time bound would see.
        for degree in range(4, 7):
            for rep in cycle_type_reps(degree):
                members = {rq.compose(p, rq.compose(rep, rq.inverse(p))) for p in permutations(range(degree))}
                if len(members) == 1:
                    continue
                fixed = [sum(g[i] in (i, i + 1) and g[i + 1] in (i, i + 1) for g in members)
                         for i in range(degree - 1)]
                calls = conjugate_calls(degree, rep)
                assert calls == sum((len(members) + f) // 2 for f in fixed), rep
                assert calls <= (degree - 1) * len(members), rep

    def test_large_class_rows_are_conjugations(self):
        # The (4,2) class of S_8: 8!/(4*2) = 2,520 members, so 6.35 million
        # entries, each row gathered from its BFS parent's.
        rep = (1, 2, 3, 0, 5, 4, 6, 7)
        start = time.perf_counter()
        rt = conjugation_class_quandle(8, rep)
        assert time.perf_counter() - start < 2.0
        assert rt.n == 2520
        carrier = sorted({rq.compose(p, rq.compose(rep, rq.inverse(p))) for p in permutations(range(8))})
        index = {g: i for i, g in enumerate(carrier)}
        for x in random.Random(2520).sample(range(2520), 6):
            g = carrier[x]
            ginv = rq.inverse(g)
            assert rt.rows[x] == tuple(index[rq.compose(g, rq.compose(h, ginv))] for h in carrier), x

    def test_class_is_sized_before_it_is_built(self):
        # Transpositions of S_1000: 499,500 members.  Listing the 499,500
        # transpositions alone would take gigabytes.
        transposition = (1, 0, *range(2, 1000))
        start = time.perf_counter()
        message = r"^carrier size 499500 exceeds the budget of 33554432 table cells$"
        with pytest.raises(CarrierTooLarge, match=message):
            conjugation_class_quandle(1000, transposition)
        assert time.perf_counter() - start < 1.0

    def test_large_degree_with_small_class(self):
        start = time.perf_counter()
        assert conjugation_class_quandle(20_000, tuple(range(20_000))) == trivial(1)
        assert time.perf_counter() - start < 1.0

    def test_rep_must_match_degree(self):
        with pytest.raises(ValueError):
            conjugation_class_quandle(4, (1, 0, 2))


class TestFamilyValidity:
    def test_every_constructor_output_passes_validate(self, family_tables):
        for name, rt in family_tables.items():
            assert rq.validate(rt.n, rt.rows) == rt, name

    def test_family_classification(self, family_tables):
        for name, rt in family_tables.items():
            if name.startswith(("dihedral", "affine", "trivial")):
                assert rq.is_quandle(rt), name
            if name.startswith("dihedral") or name.startswith("conj"):
                assert rq.is_crossed_set(rt), name
        assert not rq.is_quandle(family_tables["cyclic(7)"])
