import dataclasses
import hashlib
import math
import multiprocessing
import os
import random
import re
from collections import Counter
from itertools import permutations, product

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
    def test_racks_order_7(self, census7):
        assert census7.total_up_to_iso == 2080

    def test_quandles_order_7(self):
        assert census(7, EnumerationFilter(require_quandle=True)).total_up_to_iso == 298

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

    def test_non_rack_is_a_typed_error(self):
        # r_0 is a 3-cycle and r_0 r_0 = r_{r_0(0)} r_0 = r_0 fails.
        table = rq.RackTable(3, ((1, 2, 0), (0, 1, 2), (0, 1, 2)))
        with pytest.raises(rq.TableValidationError):
            canonical_form(table)
        with pytest.raises(rq.TableValidationError):
            are_isomorphic(dihedral(3), table)


def _with_relabelings(tables, seed):
    """Each table followed by one seeded relabeling of it."""
    rng = random.Random(seed)
    return [t for rt in tables for t in (rt, relabel(rt, rng.sample(range(rt.n), rt.n)))]


class TestCanonicalFormAgainstSweep:
    """The coset search against the n! relabeling sweep it replaced."""

    def test_racks_up_to_order_6(self, rack_reps, rack_reps6):
        tables = [rt for n in range(1, 6) for rt in rack_reps[n]] + rack_reps6
        for rt in _with_relabelings(tables, 13):
            assert canonical_form(rt) == oracles.canonical_sweep(rt), rt

    def test_quandles_order_7(self):
        quandles = list(enumerate_racks(7, EnumerationFilter(require_quandle=True)))
        assert len(quandles) == 298
        for rt in _with_relabelings(quandles, 17):
            assert canonical_form(rt) == oracles.canonical_sweep(rt), rt

    @pytest.mark.slow
    def test_racks_order_7(self):
        # Sweeping a relabeling of each representative leads back to it.
        tables = _with_relabelings(enumerate_racks(7), 19)
        assert len(tables) == 2 * 2080
        for rt, moved in zip(tables[::2], tables[1::2]):
            assert canonical_form(moved) == oracles.canonical_sweep(moved) == rt, moved
            assert canonical_form(rt) == rt


class TestRelabel:
    @pytest.mark.parametrize("sigma", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3), (0, 1, -1)])
    def test_sigma_must_permute_the_points(self, sigma):
        with pytest.raises(ValueError, match="not a permutation of 0..") as exc:
            relabel(dihedral(3), sigma)
        assert str(sigma) in str(exc.value)


class TestAreIsomorphic:
    def test_relabeled_dihedral(self):
        moved = relabel(dihedral(5), (3, 1, 2, 0, 4))
        assert are_isomorphic(dihedral(5), moved)

    def test_distinct_order_3_quandles(self):
        assert not are_isomorphic(trivial(3), dihedral(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            are_isomorphic(trivial(2), trivial(3))

    @pytest.mark.parametrize("p", (5, 7))
    def test_affine_quandles_of_distinct_alpha_are_not_isomorphic(self, p):
        # Connected Alexander quandles of one order are isomorphic exactly
        # when their Z[t^±1]-modules are (Nelson, Topology Proc. 27, 2003),
        # so Z_p with α = 2..p-1 gives pairwise distinct quandles.  Each is
        # isomorphic to its relabelings.
        quandles = [rq.affine(rq.AffineSpec((p,), ((alpha,),))) for alpha in range(2, p)]
        for i, a in enumerate(quandles):
            for b in quandles[i + 1:]:
                assert oracles.iso_exists(a.rows, b.rows) is None
                assert not are_isomorphic(a, b)
            rng = random.Random(p)
            for _ in range(3):
                assert are_isomorphic(a, relabel(a, rng.sample(range(p), p)))

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
        # Each pool job starts from one first row, so the row filters prune
        # there as in the sequential search.
        for n, filt, count in (
            (4, EnumerationFilter(require_quandle=True), 7),
            (5, EnumerationFilter(require_indecomposable=True), 4),
            (5, EnumerationFilter(require_braided=True), 3),
            (5, EnumerationFilter(require_crossed_set=True), 9),
        ):
            seq, par = [], []
            rep_s = census(n, filt, sink=seq.append)
            rep_p = census(n, filt, workers=2, sink=par.append)
            assert len(seq) == count and seq == par, filt
            assert emit_report(rep_s) == emit_report(rep_p), filt

    def test_order_guards(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_racks(8))
        with pytest.raises(OrderTooLarge):
            list(enumerate_racks(0))

    @pytest.mark.parametrize("order", [5.0, 3.0, None, True, "3"])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(OrderTooLarge, match=rf"^order must be in 1\.\.7, got {order}$"):
            census(order)
        with pytest.raises(OrderTooLarge):
            list(enumerate_racks(order))

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


class TestOutputPin:
    # One sha256 over the census reports and the streamed rows for all 16
    # filter flag combinations at orders 1-6, recorded from the tuple search
    # that the byte search replaced.
    DIGEST = "afe2d3f5c46d20b443b0fa7cb48305ab1fc12be5a2825a01f003ffa749f16679"

    def test_reports_and_streams_are_unchanged(self):
        h = hashlib.sha256()
        for n in range(1, 7):
            for flags in product((False, True), repeat=4):
                seen = []
                report = census(n, EnumerationFilter(*flags), sink=seen.append)
                h.update(emit_report(report).encode())
                for rt in seen:
                    assert all(type(v) is int for row in rt.rows for v in row)
                    h.update(repr(rt.rows).encode())
        assert h.hexdigest() == self.DIGEST

    # The same sha256 at order 7 for the filters that the row test prunes,
    # recorded from the search that applied every filter to full tables.
    DIGEST_7 = "00dfa29064b828f777a0c5aa978b64174dc9128c461c8dc91d2626319c1af497"

    @pytest.mark.slow
    def test_order_7_pruned_filters_are_unchanged(self):
        h = hashlib.sha256()
        for filt in (
            EnumerationFilter(require_indecomposable=True),
            EnumerationFilter(require_braided=True),
            EnumerationFilter(require_quandle=True, require_crossed_set=True),
        ):
            seen = []
            h.update(emit_report(census(7, filt, sink=seen.append)).encode())
            for rt in seen:
                h.update(repr(rt.rows).encode())
        assert h.hexdigest() == self.DIGEST_7


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


def _prefix_count(rows, n):
    """``_prefix_automorphisms`` on the tuple rows of a prefix, held as the
    search holds them: bytes, and bytes padded to 256 entries."""
    rows = list(map(bytes, rows))
    padded = [row + enumeration._PAD[n:] for row in rows]
    return enumeration._prefix_automorphisms(rows, padded, n, enumeration._row_labels(rows, n))


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
            assert _prefix_count(trivial(n).rows, n) == math.factorial(n)
        assert _prefix_count(dihedral(3).rows, 3) == 6
        for n in (4, 5):
            for rt in rack_reps[n]:
                assert _prefix_count(rt.rows, n) == oracles.automorphism_count(rt.rows)

    def test_non_canonical_table_has_no_count(self):
        moved = relabel(dihedral(5), (1, 0, 2, 3, 4))
        assert canonical_form(moved) != moved
        assert _prefix_count(moved.rows, 5) == 0

    def test_first_rows_are_the_canonical_tables_first_rows(self, rack_reps):
        for n in range(1, 6):
            firsts = enumeration._first_rows(n, False)
            assert firsts == tuple(sorted(firsts))
            assert {bytes(rt.rows[0]) for rt in rack_reps[n]} <= set(firsts)
        assert len(enumeration._first_rows(5, False)) == 12

    @pytest.mark.parametrize("quandle", (False, True))
    def test_first_rows_are_the_least_conjugates(self, quandle):
        for n in range(1, 8):
            firsts = enumeration._first_rows(n, quandle)
            assert list(map(tuple, firsts)) == oracles.least_conjugates(n, quandle)
        assert len(enumeration._first_rows(7, quandle)) == (11 if quandle else 30)

    def test_centralizer_sizes(self):
        # Every closed form: cycles on consecutive labels, with lengths
        # sorted inside {0..k-1}, then k's cycle, then the rest sorted.
        for n in range(1, 8):
            for k in range(n):
                for inner in enumeration._partitions(k, k):
                    for lead in range(1, n - k + 1):
                        for rest in enumeration._partitions(n - k - lead, n):
                            row = enumeration._cycles_row((*inner, lead, *rest))
                            pairs = enumeration._centralizer(row, k)
                            group = [g for g, _ in pairs]
                            size = math.prod(
                                length**m * math.factorial(m)
                                for block in (inner, rest)
                                for length, m in Counter(block).items()
                            )
                            assert len(group) == len(set(group)) == size, (row, k)
                            for g, ginv in pairs:
                                assert all(g[row[x]] == row[g[x]] for x in range(n))
                                assert g[k] == k and sorted(g[:k]) == list(range(k))
                                assert g[n:] == enumeration._PAD[n:]
                                assert ginv == bytes(rq.inverse(g[:n])), (row, k, g)

    def test_cycles_row_matches_the_row_builder(self):
        def compositions(n):
            if not n:
                yield ()
            for first in range(1, n + 1):
                for rest in compositions(n - first):
                    yield (first, *rest)

        for n in range(8):
            for lengths in compositions(n):
                want = oracles.cycles_row_builder(lengths)
                assert enumeration._cycles_row(lengths) == bytes(want), lengths


def _passes_on_full_table(rt, filt):
    """The filters as the unpruned census applies them, to the full table."""
    return (
        (not filt.require_quandle or rq.is_quandle(rt))
        and (not filt.require_crossed_set or oracles.is_crossed_set_pairs(rt))
        and (not filt.require_braided or oracles.is_braided_pairs(rt))
        and (not filt.require_indecomposable or rq.is_indecomposable(rt))
    )


def _rows_pass(test, rt):
    """True if every row of ``rt`` passes ``test`` given the rows before it."""
    rows = list(map(bytes, rt.rows))
    return all(test(rows[:r], rows[r], r) for r in range(rt.n))


class TestRowTest:
    """The filters decided row by row, against the same filters on the
    full table, and the pruning they give the search."""

    @pytest.mark.parametrize("filt", FILTERS, ids=_filter_id)
    def test_every_prefix_of_a_passing_table_passes(self, filt, rack_reps, rack_reps6):
        test = enumeration._row_test(filt)
        if test is None:
            assert not (filt.require_crossed_set or filt.require_braided or filt.require_indecomposable)
            return
        tables = [rt for n in range(1, 6) for rt in rack_reps[n]] + rack_reps6
        passing = [rt for rt in tables if _passes_on_full_table(rt, filt)]
        assert passing
        for rt in passing:
            assert _rows_pass(test, rt), (_filter_id(filt), rt.rows)

    @pytest.mark.parametrize(
        "filt",
        (EnumerationFilter(require_braided=True), EnumerationFilter(require_crossed_set=True)),
        ids=_filter_id,
    )
    def test_pair_filters_are_exactly_the_row_tests(self, filt, rack_reps, rack_reps6):
        # Every pair (x, y) is checked once, when row max(x, y) is placed,
        # so a quandle passes every row exactly when it passes the filter.
        test = enumeration._row_test(filt)
        tables = [rt for n in range(1, 6) for rt in rack_reps[n]] + rack_reps6
        candidates = [rt for rt in tables if not filt.require_quandle or rq.is_quandle(rt)]
        verdicts = [_rows_pass(test, rt) for rt in candidates]
        assert verdicts == [_passes_on_full_table(rt, filt) for rt in candidates]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_indecomposable_rows_share_row_0s_cycle_type(self, rack_reps6):
        test = enumeration._row_test(EnumerationFilter(require_indecomposable=True))
        for rt in rack_reps6:
            same = len({tuple(sorted(oracles.cycle_lengths_walk(row))) for row in rt.rows}) == 1
            assert _rows_pass(test, rt) == same, rt.rows

    @pytest.mark.parametrize(
        "flag, base",
        (
            ("require_indecomposable", EnumerationFilter()),
            ("require_braided", EnumerationFilter()),
            ("require_crossed_set", EnumerationFilter(require_quandle=True)),
        ),
        ids=("indecomposable", "braided", "crossed_set"),
    )
    def test_filters_prune_the_prefix_tests(self, monkeypatch, flag, base):
        prefix_automorphisms = enumeration._prefix_automorphisms

        def prefix_tests(filt):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    enumeration,
                    "_prefix_automorphisms",
                    lambda *args: calls.append(args) or prefix_automorphisms(*args),
                )
                census(6, filt)
            return len(calls)

        assert prefix_tests(dataclasses.replace(base, **{flag: True})) < prefix_tests(base)


def _visited(monkeypatch, n, quandle):
    """Run one census, recording each prefix whose next row's candidates
    are drawn, forced or not, with its k leading identity rows, and each
    prefix test with its result.  Prefixes are recorded as tuple rows."""
    prefixes, tested = [], []
    propagated_rows = enumeration._propagated_rows
    prefix_automorphisms = enumeration._prefix_automorphisms

    def recording_rows(rows, r, n, require_quandle, k):
        prefixes.append((tuple(map(tuple, rows)), k))
        return propagated_rows(rows, r, n, require_quandle, k)

    def recording_test(rows, padded, n, labels):
        result = prefix_automorphisms(rows, padded, n, labels)
        tested.append((tuple(map(tuple, rows)), result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_propagated_rows", recording_rows)
        patch.setattr(enumeration, "_prefix_automorphisms", recording_test)
        census(n, EnumerationFilter(require_quandle=quandle))
    return prefixes, tested


def _keeps_block(row, k):
    """True if row maps the block {0..k-1} onto itself."""
    return all(v < k for v in row[:k])


class TestSearchAgainstSlowPaths:
    """The propagated candidates and the coset canonicity test against the
    n! candidate filter and the n! relabeling sweep they replaced, on every
    prefix that the order-5 rack and order-6 quandle searches visit."""

    @pytest.mark.parametrize("n, quandle", ((5, False), (6, True)))
    def test_propagated_rows_are_the_filtered_permutations(self, monkeypatch, n, quandle):
        # The propagator builds only the rows that keep the block of the k
        # leading identity rows.  A row it leaves out sends some c < k to a
        # later point v, so R2 makes r_v = r_r r_c r_r⁻¹ the identity and no
        # completion is canonical.  The sweep moves points of the prefix
        # only, so it cannot see this before row v; the tuple prefix test
        # that the byte one replaced rejects each such row at once.
        prefixes, _ = _visited(monkeypatch, n, quandle)
        assert len(prefixes) > 20
        forced = clashes = dropped = 0
        for rows, k in prefixes:
            got = enumeration._propagated_rows(list(map(bytes, rows)), len(rows), n, quandle, k)
            assert all(type(row) is bytes for row in got)
            filtered = oracles.filtered_rows(rows, n, quandle)
            kept = [row for row in filtered if _keeps_block(row, k)]
            assert list(map(tuple, got)) == kept, rows
            for row in filtered:
                if not _keeps_block(row, k):
                    assert max(row[:k]) > len(rows), (rows, row)
                    assert oracles.prefix_automorphisms_tuples((*rows, row), n) == 0, (rows, row)
                    dropped += 1
            rivals = oracles.forced_rows(rows)
            forced += bool(rivals)
            if len(rivals) > 1:
                # Two placed pairs force different rows: they clash.
                assert got == [], rows
                clashes += 1
        assert forced > 20 and clashes > 0 and dropped > 20

    @pytest.mark.parametrize("n, quandle", ((5, False), (6, True)))
    def test_prefix_test_matches_the_sweep(self, monkeypatch, n, quandle):
        _, tested = _visited(monkeypatch, n, quandle)
        leaves = 0
        for rows, result in tested:
            swept = oracles.prefix_sweep(rows, n)
            if len(rows) == n:
                leaves += 1
                assert result == swept, rows
            elif result:
                # Rejections may be earlier than the sweep's: they are sound
                # (see the census oracles), but a count must be exact.
                assert result == swept, rows
        assert leaves > 50

    @pytest.mark.parametrize("n, quandle", ((5, False), (6, True)))
    def test_prefix_test_matches_the_tuple_version(self, monkeypatch, n, quandle):
        # The byte prefix test against the itemgetter one it replaced, which
        # rejects early where it does.
        _, tested = _visited(monkeypatch, n, quandle)
        assert len(tested) > 100 and any(result == 0 for _, result in tested)
        for rows, result in tested:
            assert oracles.prefix_automorphisms_tuples(rows, n) == result, rows

    def test_labelling_is_the_least_conjugate(self):
        for n in range(1, 6):
            for row in permutations(range(n)):
                for k in range(n):
                    if not _keeps_block(row, k):
                        continue
                    for q in range(k, n):
                        cf, sq, sqinv = enumeration._labelling(bytes(row), q, k)
                        least = oracles.least_labelling(row, q, k)
                        assert sqinv[n:] == enumeration._PAD[n:]
                        sqinv = sqinv[:n]
                        assert sq == bytes(rq.inverse(sqinv))
                        assert cf == bytes(least), (row, q, k)
                        assert sq[q] == k and sorted(sq[:k]) == list(range(k))
                        assert bytes(sq[row[sqinv[y]]] for y in range(n)) == cf

    def test_labelling_matches_the_cycle_type_version(self):
        # The closed form comes from relabeling the row by s; the tuple
        # version builds it from the cycle type with the row builder.
        rng = random.Random(23)
        cases = [(row, k) for row in permutations(range(6)) for k in range(6)]
        cases = [(row, k) for row, k in cases if _keeps_block(row, k)]
        for _ in range(300):
            k = rng.randrange(7)
            cases.append((tuple(rng.sample(range(k), k) + rng.sample(range(k, 7), 7 - k)), k))
        assert len(cases) == 1092 + 300
        for row, k in cases:
            n = len(row)
            for q in range(k, n):
                cf, sq, sqinv = enumeration._labelling(bytes(row), q, k)
                closed, sq_get, sqinv_tuple = oracles.labelling_tuples(row, q, k)
                assert cf == bytes(closed), (row, q, k)
                assert sq == bytes(sq_get(range(n))), (row, q, k)
                assert sqinv == bytes(sqinv_tuple) + enumeration._PAD[n:], (row, q, k)


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

    @pytest.mark.parametrize("workers", ["2", 2.0, True, [2]])
    def test_workers_must_be_an_int(self, pool_sizes, workers):
        # Refused before the search starts, as a non-int order is.
        message = rf"^workers must be an int or None, got {re.escape(repr(workers))}$"
        with pytest.raises(rq.RackError, match=message):
            census(4, workers=workers)
        assert pool_sizes == []
