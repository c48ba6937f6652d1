import math
import multiprocessing
import os
import random
from itertools import permutations

import pytest

import rackq as rq
from rackq import enumeration
from rackq import (
    EnumerationFilter,
    OrderTooLarge,
    are_isomorphic,
    canonical_form,
    census,
    dihedral,
    enumerate_racks,
    emit_report,
    relabel,
    trivial,
)

import oracles


class TestGeneratorOracleAgreement:
    def test_rack_counts_match_exhaustive_filter_up_to_order_3(self):
        for n in (1, 2, 3):
            valid = [rows for rows in oracles.all_tables(n) if oracles.is_rack_table(rows)]
            classes = oracles.iso_classes(valid)
            rep = census(n)
            assert rep.total_labelled == len(valid)
            assert rep.total_up_to_iso == len(classes)
            # The emitted representatives are exactly the lex-minimal
            # member of each class.
            emitted = [rt.rows for rt in enumerate_racks(n)]
            assert sorted(emitted) == sorted(cls[0] for cls in classes)

    def test_quandle_counts_match_exhaustive_filter_up_to_order_3(self):
        for n in (1, 2, 3):
            valid = [
                rows
                for rows in oracles.all_tables(n)
                if oracles.is_rack_table(rows) and oracles.is_quandle_table(rows)
            ]
            classes = oracles.iso_classes(valid)
            rep = census(n, EnumerationFilter(require_quandle=True))
            assert (rep.total_labelled, rep.total_up_to_iso) == (len(valid), len(classes))

    def test_order_4_quandles_match_row_product_filter(self):
        valid = [
            rows for rows in oracles.quandle_row_tables(4) if oracles.is_rack_table(rows)
        ]
        classes = oracles.iso_classes(valid)
        assert len(classes) == 7
        rep = census(4, EnumerationFilter(require_quandle=True))
        assert (rep.total_labelled, rep.total_up_to_iso) == (len(valid), 7)


class TestKnownCounts:
    def test_rack_classes_up_to_order_5(self, rack_reps):
        assert [len(rack_reps[n]) for n in range(1, 6)] == [1, 2, 6, 19, 74]

    def test_quandle_classes(self):
        counts = [
            census(n, EnumerationFilter(require_quandle=True)).total_up_to_iso
            for n in range(1, 6)
        ]
        assert counts == [1, 1, 3, 7, 22]

    def test_connected_quandles_order_5(self):
        rep = census(5, EnumerationFilter(require_quandle=True, require_indecomposable=True))
        assert rep.total_up_to_iso == 3

    def test_connected_quandles_order_6(self):
        rep = census(6, EnumerationFilter(require_quandle=True, require_indecomposable=True))
        assert rep.total_up_to_iso == 2

    def test_racks_order_6(self):
        rep = census(6)
        assert (rep.total_up_to_iso, rep.total_labelled) == (353, 36538)

    # Published counts: OEIS A181771 (racks), A057851 (quandles) and
    # A181769 (connected quandles).
    @pytest.mark.slow
    def test_racks_order_7(self):
        assert census(7).total_up_to_iso == 2080

    @pytest.mark.slow
    def test_quandles_order_7(self):
        assert census(7, EnumerationFilter(require_quandle=True)).total_up_to_iso == 298

    @pytest.mark.slow
    def test_connected_quandles_order_7(self):
        rep = census(7, EnumerationFilter(require_quandle=True, require_indecomposable=True))
        assert rep.total_up_to_iso == 5

    def test_histogram_sums_to_total_for_indecomposable(self, rack_reps):
        for n in range(1, 6):
            rep = census(n, EnumerationFilter(require_indecomposable=True))
            assert sum(rep.histogram.values()) == rep.total_up_to_iso
            expected = sum(1 for rt in rack_reps[n] if rq.is_indecomposable(rt))
            assert rep.total_up_to_iso == expected


class TestCanonicalForm:
    def test_trivial_is_its_own_canonical_form(self):
        assert canonical_form(trivial(3)) == trivial(3)

    def test_idempotent(self, rack_reps):
        for rt in rack_reps[4]:
            assert canonical_form(canonical_form(rt)) == canonical_form(rt)

    def test_relabeling_invariant(self, rack_reps):
        rng = random.Random(7)
        sigmas = list(permutations(range(4)))
        for rt in rack_reps[4][:8]:
            want = canonical_form(rt)
            for _ in range(50):
                sigma = rng.choice(sigmas)
                assert canonical_form(relabel(rt, sigma)) == want

    def test_dihedral3_relabelings_share_form(self):
        want = canonical_form(dihedral(3))
        for sigma in permutations(range(3)):
            assert canonical_form(relabel(dihedral(3), sigma)) == want

    def test_guard(self):
        with pytest.raises(OrderTooLarge):
            canonical_form(rq.RackTable(8, ((0,),) * 8))

    def test_canonical_never_exceeds_original(self, rack_reps):
        for rt in rack_reps[5][:30]:
            assert canonical_form(rt).rows <= rt.rows


class TestAreIsomorphic:
    def test_relabeled_dihedral(self):
        moved = relabel(dihedral(5), (3, 1, 2, 0, 4))
        assert are_isomorphic(dihedral(5), moved)

    def test_distinct_order_3_quandles(self):
        assert not are_isomorphic(trivial(3), dihedral(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            are_isomorphic(trivial(2), trivial(3))

    def test_affine_alpha_and_inverse_are_not_isomorphic_on_z5(self):
        # Multiplication by 2 and by 3 = 2^-1 give distinct quandles: no
        # relabeling carries one onto the other (exhaustive search).
        a2 = rq.affine(rq.AffineSpec((5,), ((2,),)))
        a3 = rq.affine(rq.AffineSpec((5,), ((3,),)))
        assert oracles.iso_exists(a2.rows, a3.rows) is None
        assert not are_isomorphic(a2, a3)

    def test_agrees_with_direct_search(self, rack_reps):
        rng = random.Random(11)
        reps = rack_reps[4]
        for _ in range(15):
            a = rng.choice(reps)
            b = rng.choice(reps)
            direct = oracles.iso_exists(a.rows, b.rows) is not None
            assert are_isomorphic(a, b) == direct


class TestStreamContract:
    def test_emitted_tables_validate_and_pass_filters(self):
        filt = EnumerationFilter(require_quandle=True, require_indecomposable=True)
        for rt in enumerate_racks(5, filt):
            assert rq.validate(rt.n, rt.rows) == rt
            assert rq.is_quandle(rt)
            assert rq.is_indecomposable(rt)
            assert canonical_form(rt) == rt

    def test_stream_is_lexicographic_and_stable(self):
        first = [rt.rows for rt in enumerate_racks(4)]
        second = [rt.rows for rt in enumerate_racks(4)]
        assert first == second == sorted(first)

    def test_parallel_matches_sequential(self):
        filt = EnumerationFilter(require_quandle=True)
        seq = list(enumerate_racks(4, filt))
        par = list(enumerate_racks(4, filt, workers=2))
        assert seq == par
        rep_s = census(4, filt)
        rep_p = census(4, filt, workers=2)
        assert (rep_s.total_labelled, rep_s.total_up_to_iso, rep_s.histogram) == (
            rep_p.total_labelled,
            rep_p.total_up_to_iso,
            rep_p.histogram,
        )

    def test_order_guards(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_racks(8))
        with pytest.raises(OrderTooLarge):
            list(enumerate_racks(0))

    def test_crossed_set_filter_implies_quandle(self):
        filt = EnumerationFilter(require_crossed_set=True)
        assert filt.require_quandle
        for rt in enumerate_racks(4, filt):
            assert rq.is_crossed_set(rt)

    def test_braided_filter(self):
        for rt in enumerate_racks(4, EnumerationFilter(require_braided=True)):
            assert rq.is_braided(rt)

    def test_census_sink_receives_representatives(self):
        seen = []
        rep = census(3, sink=seen.append)
        assert len(seen) == rep.total_up_to_iso
        assert [rt.rows for rt in seen] == [rt.rows for rt in enumerate_racks(3)]


# Every distinct filter combination: crossed sets imply quandles.
FILTERS = [
    EnumerationFilter(q, c, b, i)
    for q, c in ((False, False), (True, False), (True, True))
    for b in (False, True)
    for i in (False, True)
]


def _filter_id(filt):
    names = ("quandle", "crossed_set", "braided", "indecomposable")
    return "+".join(name for name in names if getattr(filt, f"require_{name}")) or "racks"


def _assert_matches_unpruned(n, filt):
    expected, reps = oracles.unpruned_census(n, filt)
    assert emit_report(census(n, filt)) == emit_report(expected), (n, filt)
    assert [rt.rows for rt in enumerate_racks(n, filt)] == reps, (n, filt)


class TestOrderlySearch:
    """The pruned search with orbit counting against the unpruned one."""

    @pytest.mark.parametrize("filt", FILTERS, ids=_filter_id)
    def test_matches_unpruned_search_up_to_order_5(self, filt):
        for n in range(1, 6):
            _assert_matches_unpruned(n, filt)

    @pytest.mark.slow
    @pytest.mark.parametrize("indecomposable", (False, True))
    def test_matches_unpruned_search_order_6_quandles(self, indecomposable):
        _assert_matches_unpruned(
            6, EnumerationFilter(require_quandle=True, require_indecomposable=indecomposable)
        )

    def test_automorphism_counts(self, rack_reps):
        for n in range(1, 8):
            assert enumeration._prefix_automorphisms(trivial(n).rows, n) == math.factorial(n)
        assert enumeration._prefix_automorphisms(dihedral(3).rows, 3) == 6
        for rt in rack_reps[4]:
            assert enumeration._prefix_automorphisms(rt.rows, 4) == oracles.automorphism_count(
                rt.rows
            )

    def test_non_canonical_table_has_no_count(self):
        moved = relabel(dihedral(5), (1, 0, 2, 3, 4))
        assert canonical_form(moved) != moved
        assert enumeration._prefix_automorphisms(moved.rows, 5) == 0

    def test_first_rows_are_the_canonical_tables_first_rows(self, rack_reps):
        for n in range(1, 6):
            firsts = enumeration._first_rows(n, False)
            assert firsts == tuple(sorted(firsts))
            assert {rt.rows[0] for rt in rack_reps[n]} <= set(firsts)
        assert len(enumeration._first_rows(5, False)) == 12


class TestWorkerClamp:
    """The pool size never exceeds the jobs or the CPUs.  The pool is
    replaced by an in-process stand-in that records its size."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, jobs):
                return map(func, jobs)

        class Context:
            Pool = RecordingPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
        return sizes

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(10**9, 2, 2), (10**9, 64, 3), (2, 64, 2), (10**9, None, 1)],
    )
    def test_clamped(self, pool_sizes, monkeypatch, workers, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        filt = EnumerationFilter(require_quandle=True)
        assert len(enumeration._first_rows(4, True)) == 3
        rep = census(4, filt, workers=workers)
        assert pool_sizes == [expected]
        assert emit_report(rep) == emit_report(census(4, filt))
