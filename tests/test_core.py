import random
import time
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

import rackq as rq
from rackq import (
    OutOfRangeEntry,
    R1Violation,
    R2Violation,
    RackTable,
    dihedral,
    fixed_set,
    is_braided,
    is_crossed_set,
    is_quandle,
    is_subrack,
    subrack_closure,
    trivial,
    validate,
)

import oracles


class TestValidate:
    def test_trivial_table_is_valid(self):
        rt = validate(3, [[0, 1, 2]] * 3)
        assert rt == trivial(3)

    def test_cyclic_table_is_valid_rack_not_quandle(self):
        rt = validate(3, [[1, 2, 0]] * 3)
        assert not is_quandle(rt)

    def test_non_bijective_row(self):
        with pytest.raises(R1Violation) as exc:
            validate(3, [[0, 0, 1], [0, 1, 2], [0, 1, 2]])
        assert exc.value.row == 0

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeEntry) as exc:
            validate(2, [[0, 2], [1, 0]])
        assert (exc.value.x, exc.value.y, exc.value.value) == (0, 1, 2)

    def test_r2_witness_is_first_in_scan_order(self):
        with pytest.raises(R2Violation) as exc:
            validate(2, [[0, 1], [1, 0]])
        assert (exc.value.x, exc.value.y, exc.value.z) == (1, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate(2, [[0, 1]])
        with pytest.raises(ValueError):
            validate(2, [[0, 1], [1, 0, 1]])

    def test_non_sequence_table(self):
        with pytest.raises(rq.RackError, match=r"^expected an 2x2 table$"):
            validate(2, 5)

    def test_non_sequence_row(self):
        with pytest.raises(rq.RackError, match=r"^expected an 2x2 table$"):
            validate(2, [[0, 1], 5])

    def test_nonpositive_order(self):
        with pytest.raises(ValueError):
            validate(0, [])

    def test_agrees_with_brute_oracle_at_order_2(self):
        for rows in oracles.all_tables(2):
            expected = oracles.is_rack_table(rows)
            try:
                validate(2, rows)
                got = True
            except rq.TableValidationError:
                got = False
            assert got == expected


def validate_outcome(check, n, rows):
    """The table ``check`` returns, or the type, message and witness
    attributes of what it raises."""
    try:
        return check(n, rows)
    except rq.RackError as exc:
        return type(exc).__name__, str(exc), vars(exc)


def mutations(rows, rng):
    """Seeded defects of one table: an entry swap inside a row, a replaced
    row, a row copied from another, an out-of-range entry, and a ``True``
    and a ``1.0`` entry."""
    n = len(rows)

    def edit(change):
        table = [list(row) for row in rows]
        change(table, rng.randrange(n), rng.randrange(n))
        return table

    def swap(t, x, y):
        z = rng.randrange(n)
        t[x][y], t[x][z] = t[x][z], t[x][y]

    def replace(t, x, _):
        t[x] = rng.sample(range(n), n)

    def copy(t, x, y):
        t[x] = list(t[y])

    def out_of_range(t, x, y):
        t[x][y] = rng.choice((-1, n, n + 3))

    def true(t, x, y):
        t[x][y] = True

    def float_one(t, x, y):
        t[x][y] = 1.0

    return [edit(f) for f in (swap, replace, copy, out_of_range, true, float_one)]


def tables(max_n=4, min_n=1):
    """Arbitrary square tables: each row a permutation, or entries in -1..n and booleans."""
    def of_order(n):
        row = st.one_of(
            st.permutations(range(n)),
            st.lists(st.one_of(st.integers(-1, n), st.booleans()), min_size=n, max_size=n),
        )
        return st.lists(row, min_size=n, max_size=n)

    return st.integers(min_n, max_n).flatmap(of_order)


class TestValidateMatchesCubicScan:
    """validate checks R2 on a generating set of rows; the cubic scan in
    ``oracles.validate_cubic`` checks every triple.  Both must give the same
    table or the same exception, message and witness."""

    def assert_same(self, rows):
        n = len(rows)
        want = validate_outcome(oracles.validate_cubic, n, rows)
        assert validate_outcome(validate, n, rows) == want, rows

    def test_families_and_their_mutations(self, family_tables):
        rng = random.Random(2019)
        for rt in family_tables.values():
            self.assert_same(rt.rows)
            for rows in mutations(rt.rows, rng):
                self.assert_same(rows)

    def test_racks_up_to_order_6_and_their_mutations(self, rack_reps, rack_reps6):
        rng = random.Random(2019)
        for rt in [rt for n in sorted(rack_reps) for rt in rack_reps[n]] + rack_reps6:
            self.assert_same(rt.rows)
            for rows in mutations(rt.rows, rng):
                self.assert_same(rows)

    def test_many_checked_rows_and_their_mutations(self, decomposable_tables):
        # A swap inside a row keeps R1, so R2 decides: one swap in the row of
        # each orbit's least point, and one in the last row.
        rng = random.Random(2019)
        for rt in (decomposable_tables["affine(78,5)"], decomposable_tables["20 x dihedral(3)"]):
            self.assert_same(rt.rows)
            for x in sorted({min(orbit) for orbit in rt.orbits} | {rt.n - 1}):
                rows = [list(row) for row in rt.rows]
                y, z = rng.sample(range(rt.n), 2)
                rows[x][y], rows[x][z] = rows[x][z], rows[x][y]
                self.assert_same(rows)
            for rows in mutations(rt.rows, rng):
                self.assert_same(rows)

    @given(tables())
    def test_arbitrary_small_tables(self, rows):
        self.assert_same(rows)

    def test_large_dihedral_is_fast(self):
        rt = dihedral(301)
        start = time.perf_counter()
        assert validate(rt.n, rt.rows) == rt
        assert time.perf_counter() - start < 0.5


def boundary_tables():
    """Tables on 7 and 8 points, either side of the least order that
    validate holds as bytes, and on 255, 256 and 257, either side of the
    largest: dihedral, cyclic, trivial, and affine on Z_n with a unit α and
    with a unit α for which 1 − α is not a unit (on the primes 7 and 257
    only α = 1 is such, which is the trivial table; on 8 and 256 every unit
    is such)."""
    alphas = {7: (3,), 8: (3, 5), 255: (2, 4), 256: (3, 5), 257: (3,)}
    tables = []
    for n, units in alphas.items():
        tables += [dihedral(n), rq.cyclic_rack(n), trivial(n)]
        tables += [rq.affine(rq.AffineSpec((n,), ((a,),))) for a in units]
    return tables


class TestValidateMatchesGatherLoop:
    """From 8 to 256 points validate composes rows as bytes; on fewer or
    more it gathers, as ``oracles.validate_gather`` does at every order.
    Both must give the same table or the same exception, message and
    witness, on both sides of each switch."""

    def assert_same(self, rows):
        n = len(rows)
        want = validate_outcome(oracles.validate_gather, n, rows)
        assert validate_outcome(validate, n, rows) == want, n

    def test_boundary_tables_and_their_mutations(self):
        # One swap in the row of each orbit's least point; a trivial table
        # has n one-point orbits whose swaps are all alike, so 16 of them.
        rng = random.Random(2019)
        for rt in boundary_tables():
            self.assert_same(rt.rows)
            for rows in mutations(rt.rows, rng):
                self.assert_same(rows)
            least = [min(orbit) for orbit in rt.orbits]
            for x in sorted(rng.sample(least, min(len(least), 16))):
                rows = [list(row) for row in rt.rows]
                y, z = rng.sample(range(rt.n), 2)
                rows[x][y], rows[x][z] = rows[x][z], rows[x][y]
                self.assert_same(rows)

    @given(tables(max_n=9, min_n=7))
    def test_arbitrary_tables_at_the_least_byte_order(self, rows):
        self.assert_same(rows)

    def test_swaps_fail_on_both_sides_of_the_switch(self):
        # A swap in row 0 of a dihedral table breaks R2 at every order here.
        for n in (7, 8, 255, 256, 257):
            rows = [list(row) for row in dihedral(n).rows]
            rows[0][1], rows[0][2] = rows[0][2], rows[0][1]
            with pytest.raises(R2Violation):
                validate(n, rows)


class TestValidateChecksGenerators:
    """validate checks R2 only on the rows that ``core._generators`` yields:
    a row in the orbit of those already checked, or equal to one of them,
    is skipped.  The counts pin the skip, which no time bound sees."""

    @staticmethod
    def checked_rows(rt):
        checked = []
        generators = rq.core._generators

        def recording(*args):
            for x in generators(*args):
                checked.append(x)
                yield x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rq.core, "_generators", recording)
            assert validate(rt.n, rt.rows) == rt
        return checked

    def test_dihedral_checks_two_rows(self):
        for n in (301, 300):
            assert self.checked_rows(dihedral(n)) == [0, 1], n

    def test_decomposable_tables(self, decomposable_tables):
        counts = {name: len(self.checked_rows(rt)) for name, rt in decomposable_tables.items()}
        assert counts == {
            "affine(192,5)": 4,
            "affine(147,10)": 3,
            "affine(78,5)": 2,
            "affine(192,17)": 12,
            "20 x dihedral(3)": 40,
        }


class TestOrbitShortcutsMatchPairScans:
    """is_crossed_set and is_braided test one point per orbit, and
    subrack_closure is an orbit under the seed's rows; all rely on R2.  The
    pair scans kept in ``oracles`` assume no axiom and pin them on every
    rack of order <= 6, the family tables and racks with many orbits and
    generators."""

    @pytest.fixture(scope="class")
    def racks(self, rack_reps, rack_reps6, family_tables, decomposable_tables):
        return ([rt for n in sorted(rack_reps) for rt in rack_reps[n]] + rack_reps6
                + list(family_tables.values()) + list(decomposable_tables.values()))

    def test_predicates_match_pair_scans(self, racks):
        for rt in racks:
            assert is_crossed_set(rt) == oracles.is_crossed_set_pairs(rt), rt
            assert is_braided(rt) == oracles.is_braided_pairs(rt), rt

    def test_closure_matches_pair_worklist_on_every_small_seed(self, racks):
        # Above order 64, a pair holds the least point of an orbit.
        for rt in racks:
            pairs = combinations(range(rt.n), 2) if rt.n <= 64 else (
                (min(orbit), y) for orbit in rt.orbits for y in range(rt.n))
            for seed in chain(combinations(range(rt.n), 1), pairs):
                assert subrack_closure(rt, seed) == oracles.subrack_closure_pairs(rt, seed), seed


class TestInnerMap:
    def test_trivial_rows_are_identity(self):
        rt = trivial(4)
        for x in range(4):
            assert rt.rows[x] == (0, 1, 2, 3)

    def test_dihedral5(self):
        assert dihedral(5).rows[0] == (0, 4, 3, 2, 1)

    def test_cyclic4(self):
        rt = rq.cyclic_rack(4)
        for x in range(4):
            assert rt.rows[x] == (1, 2, 3, 0)

    def test_out_of_range(self):
        # fixed_set reads the translation by x, so it refuses an x outside the carrier.
        for x in (3, -1):
            with pytest.raises(rq.RackError, match=rf"^point {x} outside 0\.\.2$"):
                fixed_set(trivial(3), x, 1)


class TestPredicates:
    def test_cyclic3_is_not_quandle(self):
        assert not is_quandle(rq.cyclic_rack(3))

    def test_trivial_satisfies_everything(self):
        rt = trivial(4)
        assert is_quandle(rt) and is_crossed_set(rt) and is_braided(rt)

    def test_dihedral5_quandle_and_crossed(self):
        rt = dihedral(5)
        assert is_quandle(rt)
        assert is_crossed_set(rt)

    def test_braided_matches_pairwise_oracle(self):
        # Literal check of "x fixes y, or x applied to (y acting on x) is y"
        # on a spread of tables, including dihedral(5) where it fails.
        tables = [
            trivial(4),
            dihedral(3),
            dihedral(5),
            dihedral(9),
            rq.cyclic_rack(2),
            rq.cyclic_rack(3),
            rq.conjugation_class_quandle(4, (1, 0, 2, 3)),
            rq.affine(rq.AffineSpec((2, 2), ((0, 1), (1, 1)))),
        ]
        for rt in tables:
            rows = rt.rows
            expected = all(
                rows[x][y] == y or rows[x][rows[y][x]] == y
                for x in range(rt.n)
                for y in range(rt.n)
            )
            assert is_braided(rt) == expected

    def test_braided_examples(self):
        assert is_braided(dihedral(3))
        assert not is_braided(dihedral(5))
        # cyclic racks never fix a point and applying x twice to x gives
        # x back, not y, so the pair condition fails for every x != y
        assert not is_braided(rq.cyclic_rack(2))
        assert not is_braided(rq.cyclic_rack(3))
        # multiplication by a generator of F_4* on (Z_2)^2: degree-3 braided
        assert is_braided(rq.affine(rq.AffineSpec((2, 2), ((0, 1), (1, 1)))))

    def test_crossed_set_implies_quandle(self):
        assert not is_crossed_set(rq.cyclic_rack(4))


class TestSubrackClosure:
    def test_whole_carrier_is_closed(self):
        rt = dihedral(7)
        assert subrack_closure(rt, range(7)) == frozenset(range(7))

    def test_quandle_singleton_is_closed(self):
        assert subrack_closure(dihedral(5), {0}) == frozenset({0})

    def test_dihedral5_pair_generates_everything(self):
        assert subrack_closure(dihedral(5), {0, 1}) == frozenset(range(5))

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            subrack_closure(dihedral(5), set())

    def test_out_of_range_seed_rejected(self):
        with pytest.raises(ValueError):
            subrack_closure(dihedral(5), {5})

    def test_matches_hand_saturation(self, rack_reps):
        for rt in rack_reps[4]:
            for seed in ({0}, {1, 2}, {0, 3}):
                assert subrack_closure(rt, seed) == oracles.closure_by_hand(rt.rows, seed)

    def test_idempotent_and_monotone(self, rack_reps):
        for rt in rack_reps[5][:20]:
            small = subrack_closure(rt, {0})
            big = subrack_closure(rt, {0, 1})
            assert small <= big
            assert subrack_closure(rt, small) == small
            assert is_subrack(rt, small)


class TestIsSubrack:
    def test_empty_is_not(self):
        assert not is_subrack(dihedral(5), set())

    def test_coset_in_dihedral9(self):
        assert is_subrack(dihedral(9), {0, 3, 6})

    def test_non_closed_pair(self):
        assert not is_subrack(dihedral(5), {0, 1})

    def test_matches_pair_scan_on_every_subset(self, rack_reps):
        for n in range(1, 5):
            for rt in rack_reps[n]:
                for mask in range(1 << n):
                    subset = {x for x in range(n) if mask >> x & 1}
                    want = oracles.is_subrack_pairs(rt, subset)
                    assert is_subrack(rt, subset) == want, (rt.rows, subset)

    def test_points_outside_the_carrier_raise(self):
        for points in ({-1, 0, 1, 2}, {3}):
            with pytest.raises(ValueError, match="0..2"):
                is_subrack(dihedral(3), points)


class TestFixedSet:
    def test_full_order_fixes_everything(self):
        rt = dihedral(5)
        assert fixed_set(rt, 0, 2) == frozenset(range(5))

    def test_dihedral5_t1(self):
        assert fixed_set(dihedral(5), 0, 1) == frozenset({0})

    def test_cyclic4_has_no_fixed_points(self):
        assert fixed_set(rq.cyclic_rack(4), 0, 2) == frozenset()

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            fixed_set(dihedral(5), 0, 0)

    def test_nonempty_fixed_sets_are_subracks(self, rack_reps):
        for n in (3, 4):
            for rt in rack_reps[n]:
                for x in range(rt.n):
                    top = rq.order(rt.rows[x])
                    for t in range(1, top + 1):
                        fs = fixed_set(rt, x, t)
                        if fs:
                            assert is_subrack(rt, fs)


class TestComplementGeneration:
    def test_complement_of_proper_subrack_generates_everything(self, rack_reps):
        # For an indecomposable rack, the complement of any proper subrack
        # generates the whole carrier; proper subracks found by subset search.
        from itertools import combinations

        for n in (3, 4):
            for rt in rack_reps[n]:
                if not rq.is_indecomposable(rt):
                    continue
                carrier = frozenset(range(n))
                for size in range(1, n):
                    for subset in combinations(range(n), size):
                        if is_subrack(rt, subset):
                            rest = carrier - frozenset(subset)
                            assert subrack_closure(rt, rest) == carrier, (rt.rows, subset)


class TestHomomorphismLaw:
    def test_exhaustive_on_families(self, family_tables):
        for name, rt in family_tables.items():
            rows = rt.rows
            for x in range(rt.n):
                for y in range(rt.n):
                    lhs = rq.compose(rows[x], rows[y])
                    rhs = rq.compose(rows[rows[x][y]], rows[x])
                    assert lhs == rhs, name


class TestRackTableValue:
    def test_equality_and_hash(self):
        assert dihedral(5) == dihedral(5)
        assert hash(dihedral(5)) == hash(dihedral(5))
        assert dihedral(5) != trivial(5)

    def test_rows_are_tuples(self):
        rt = validate(2, [[0, 1], [0, 1]])
        assert isinstance(rt.rows, tuple)
        assert all(isinstance(row, tuple) for row in rt.rows)
