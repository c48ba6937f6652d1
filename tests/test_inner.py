import gc
import math
import pickle
import sys
import weakref

import pytest

import rackq as rq
from rackq import (
    AffineSpec,
    NotIndecomposable,
    affine,
    classify,
    cyclic_rack,
    degree,
    dihedral,
    hayashi_holds_for,
    is_indecomposable,
    rack_profile,
    trivial,
)

import oracles


class TestOrbitPartition:
    def test_trivial_three_singletons(self):
        parts = trivial(3).orbits
        assert parts == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_dihedral5_single_orbit(self):
        assert dihedral(5).orbits == (frozenset(range(5)),)

    def test_dihedral4_parity_classes(self):
        assert dihedral(4).orbits == (frozenset({0, 2}), frozenset({1, 3}))

    def test_matches_generator_and_inverse_closure(self, rack_reps):
        # Orbits computed with generators alone must agree with closure
        # under generators and inverses.
        for rt in rack_reps[4]:
            for orbit in rt.orbits:
                assert orbit == oracles.orbit_of(rt.rows, min(orbit))


class TestIndecomposable:
    def test_cyclic6(self):
        assert is_indecomposable(cyclic_rack(6))

    def test_trivial2(self):
        assert not is_indecomposable(trivial(2))

    def test_affine_z5(self):
        assert is_indecomposable(affine(AffineSpec((5,), ((2,),))))


class TestRackProfile:
    def test_dihedral9(self):
        rt = dihedral(9)
        assert str(rack_profile(rt)) == "1^1 2^4"
        # One profile object per orbit, kept on the table.
        assert rack_profile(rt) is rack_profile(rt) is rt.patterns[0]

    def test_cyclic5(self):
        assert str(rack_profile(cyclic_rack(5))) == "5^1"

    def test_s4_transpositions(self):
        rt = rq.conjugation_class_quandle(4, (1, 0, 2, 3))
        assert str(rack_profile(rt)) == "1^2 2^2"

    def test_decomposable_rejected(self):
        with pytest.raises(NotIndecomposable):
            rack_profile(trivial(2))

    def test_constancy_across_small_census(self, rack_reps):
        # Counted row by row, independently of the shared per-orbit count.
        for n in range(1, 6):
            for rt in rack_reps[n]:
                if is_indecomposable(rt):
                    assert {rq.pattern(row) for row in rt.rows} == {rack_profile(rt)}


class TestPerPointPatterns:
    def test_trivial3(self):
        assert [str(p) for p in trivial(3).patterns] == ["1^3"] * 3

    def test_dihedral4(self):
        assert [str(p) for p in dihedral(4).patterns] == ["1^2 2^1"] * 4

    def test_dihedral5(self):
        assert [str(p) for p in dihedral(5).patterns] == ["1^1 2^2"] * 5


class TestDegree:
    def test_dihedral7(self):
        assert degree(dihedral(7)) == 2

    def test_cyclic6(self):
        assert degree(cyclic_rack(6)) == 6

    def test_trivial1(self):
        assert degree(trivial(1)) == 1

    def test_decomposable_rejected(self):
        with pytest.raises(NotIndecomposable):
            degree(trivial(2))

    def test_degree_is_lcm_of_profile(self, rack_reps):
        for rt in rack_reps[5]:
            if is_indecomposable(rt):
                prof = rack_profile(rt)
                assert degree(rt) == math.lcm(*(l for l, _ in prof.entries))


class TestHayashi:
    def test_dihedral9(self):
        assert hayashi_holds_for(dihedral(9))

    def test_cyclic_racks(self):
        assert hayashi_holds_for(cyclic_rack(7))

    def test_requires_indecomposable(self):
        with pytest.raises(NotIndecomposable):
            hayashi_holds_for(trivial(3))


class TestConjugacyRelation:
    def test_translation_of_image_is_conjugate(self, family_tables):
        # The translation of x applied to y equals the conjugate of y's
        # translation by x's; exhaustive over each family table.
        for name, rt in family_tables.items():
            if rt.n > 20:
                continue
            rows = rt.rows
            for x in range(rt.n):
                for y in range(rt.n):
                    lhs = rows[rows[x][y]]
                    rhs = rq.compose(rq.compose(rows[x], rows[y]), rq.inverse(rows[x]))
                    assert lhs == rhs, name


class TestClassify:
    def test_dihedral5_flags(self):
        flags = classify(dihedral(5))
        assert flags == rq.ClassFlags(
            is_quandle=True,
            is_crossed_set=True,
            is_braided=False,
            is_indecomposable=True,
            degree=2,
        )

    def test_cyclic4_flags(self):
        flags = classify(cyclic_rack(4))
        assert (flags.is_quandle, flags.is_indecomposable, flags.degree) == (False, True, 4)

    def test_decomposable_degree_is_lcm(self):
        # trivial(2) has identity translations only
        assert classify(trivial(2)).degree == 1


def _count_cycle_lengths(monkeypatch) -> list:
    """Record every call of perm.cycle_lengths, wherever rackq binds it."""
    calls = []
    original = rq.perm.cycle_lengths

    def counted(p):
        calls.append(p)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rackq" and getattr(module, "cycle_lengths", None) is original:
            monkeypatch.setattr(module, "cycle_lengths", counted)
    return calls


class TestTableAnalysis:
    def test_cycle_lengths_run_once_per_orbit(self, monkeypatch):
        calls = _count_cycle_lengths(monkeypatch)
        rt = dihedral(31)
        classify(rt)
        rt.patterns
        rack_profile(rt)
        degree(rt)
        hayashi_holds_for(rt)
        assert len(calls) == 1
        for rt, orbits in ((dihedral(4), 2), (trivial(5), 5)):
            calls.clear()
            classify(rt)
            rt.patterns
            assert len(calls) == orbits

    def test_connectivity_counts_no_cycles(self, monkeypatch):
        calls = _count_cycle_lengths(monkeypatch)
        assert is_indecomposable(dihedral(31))
        assert calls == []

    def test_table_is_not_kept_alive(self):
        rt = dihedral(7)
        rack_profile(rt)
        ref = weakref.ref(rt)
        del rt
        gc.collect()
        assert ref() is None

    def test_cached_analysis_keeps_equality_hash_and_pickling(self):
        rt = dihedral(5)
        rack_profile(rt)
        fresh = dihedral(5)
        assert rt == fresh and hash(rt) == hash(fresh)
        restored = pickle.loads(pickle.dumps(rt))
        assert restored == rt and (restored.orbits, restored.patterns) == (rt.orbits, rt.patterns)

    def test_matches_per_row_computation(self, family_tables, rack_reps):
        tables = list(family_tables.values())
        for n in range(1, 6):
            tables.extend(rack_reps[n])
        for rt in tables:
            rows = rt.rows
            assert rt.patterns == tuple(map(rq.pattern, rows))
            assert classify(rt).degree == math.lcm(*(rq.order(row) for row in rows))
            if is_indecomposable(rt):
                assert all(rack_profile(rt) == rq.pattern(row) for row in rows)
                assert degree(rt) == rq.order(rows[0])

    def test_matches_per_row_oracle(self, family_tables, rack_reps, rack_reps6):
        tables = list(family_tables.values()) + rack_reps6
        for n in range(1, 6):
            tables.extend(rack_reps[n])
        for rt in tables:
            assert (rt.orbits, rt.patterns) == oracles.table_analysis_per_row(rt)

    def test_matches_per_row_oracle_on_many_orbits(self):
        # Disjoint unions of small racks, and a trivial rack: one orbit per
        # block, built through validate.
        unions = [(dihedral(3), 67), (dihedral(5), 40), (cyclic_rack(2), 100), (trivial(1), 300)]
        for block, copies in unions:
            k = block.n
            n = k * copies
            rows = [
                tuple(c * k + block.rows[x % k][y % k] if y // k == c else y for y in range(n))
                for c in range(copies)
                for x in range(c * k, c * k + k)
            ]
            rt = rq.validate(n, rows)
            assert len(rt.orbits) == copies
            assert (rt.orbits, rt.patterns) == oracles.table_analysis_per_row(rt)
