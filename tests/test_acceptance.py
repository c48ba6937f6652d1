"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion, order-6 census tiers included, runs in the default lane:
the orderly search builds the order-6 census in about a second.  None of
these tests is marked "slow", so ``pytest -m "not slow"`` runs the whole
gate too.
"""
import json
import math
from itertools import combinations

import rackq as rq
from rackq import AffineSpec, EnumerationFilter
from rackq.cli import main

import oracles


def _ok(label, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"{label}: PASS{suffix}")


def _indecomposable_reps(reps):
    return [rt for rt in reps if rq.is_indecomposable(rt)]


def test_criterion_1_dihedral_profiles():
    for n in range(3, 102, 2):
        rt = rq.dihedral(n)
        assert rq.is_indecomposable(rt), n
        prof = rq.rack_profile(rt)
        assert prof.entries == ((1, 1), (2, (n - 1) // 2)), n
    _ok("criterion 1", "dihedral profiles 1^1 2^((n-1)/2) for odd n in [3, 101]")


def test_criterion_2_cyclic_racks():
    for n in range(2, 65):
        rt = rq.cyclic_rack(n)
        assert not rq.is_quandle(rt), n
        assert rq.is_indecomposable(rt), n
        assert rq.rack_profile(rt).entries == ((n, 1),), n
    _ok("criterion 2", "cyclic racks have profile n^1 for n in [2, 64]")


def _assert_no_excluded_profiles(profiles, order):
    for key in profiles:
        pf = rq.parse_profile(key)
        verdict = rq.full_verdict(pf, "racks")
        assert not verdict.excluded, (order, key, verdict.kind)


def test_criterion_3_split_rule_soundness_up_to_5():
    for n in range(1, 6):
        rep = rq.census(n, EnumerationFilter(require_indecomposable=True))
        assert sum(rep.histogram.values()) == rep.total_up_to_iso
        _assert_no_excluded_profiles(rep.histogram, n)
    _ok("criterion 3", "no census profile through order 5 is excluded in rack scope")


def test_criterion_3_split_rule_soundness_order_6(rack_reps6):
    profiles = {str(rq.rack_profile(rt)) for rt in _indecomposable_reps(rack_reps6)}
    _assert_no_excluded_profiles(profiles, 6)
    _ok("criterion 3 (order-6 tier)", f"{len(profiles)} profiles, none excluded")


def test_criterion_4_divisibility_up_to_5(rack_reps):
    for n in range(1, 6):
        for rt in _indecomposable_reps(rack_reps[n]):
            assert rq.hayashi_holds_for(rt), (n, rt.rows)
    _ok("criterion 4", "every indecomposable rack through order 5 satisfies divisibility")


def test_criterion_4_divisibility_order_6(rack_reps6):
    racks = _indecomposable_reps(rack_reps6)
    for rt in racks:
        assert rq.hayashi_holds_for(rt)
    _ok("criterion 4 (order-6 tier)", f"{len(racks)} indecomposable racks checked")


def test_criterion_4_cli_confirms_supplied_tables(capsys, tmp_path):
    # Externally produced table files are confirmed through the CLI; the
    # known order-42 quandle profile is checked at profile level.
    path = tmp_path / "d9.txt"
    path.write_text(rq.emit_table(rq.dihedral(9)))
    assert main(["hayashi", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"profile": "1^1 2^4", "holds": True}
    assert main(["hayashi", "--profile", "1^2.2^2.3^4.6^4"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    _ok("criterion 4 (cli)", "hayashi confirms supplied tables and profile strings")


def test_criterion_5_crossed_set_exclusions(capsys):
    for m0 in range(6):
        profile = f"1^{m0} 6 10 15" if m0 else "6 10 15"
        assert main(["obstruct", "--profile", profile, "--scope", "crossed-sets"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "ExcludedProp315", (m0, payload)
        assert main(["obstruct", "--profile", profile, "--scope", "racks"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "NotExcluded", (m0, payload)
    d = rq.decompose_lengths(6, 10, 15)
    assert (d.p, d.q, d.r, d.s) == (2, 3, 5, 1)
    _ok("criterion 5", "1^m0 6 10 15 excluded for crossed sets only, m0 in [0, 5]")


def test_criterion_6_reconstruction_up_to_200():
    checked = 0
    for l1, l2, l3 in combinations(range(2, 201), 3):
        d = rq.decompose_lengths(l1, l2, l3)
        if d.all_classified:
            assert d.reconstruction() == (l1, l2, l3), (l1, l2, l3)
            checked += 1
    assert checked > 0
    _ok("criterion 6", f"reconstruction exact on {checked} fully classified triples")


def test_criterion_7_affine_regular_cycle():
    checked = 0
    for n in range(1, 201):
        for a in range(n):
            if math.gcd(a, n) != 1 or math.gcd(1 - a, n) != 1:
                continue
            rt = rq.affine(AffineSpec((n,), ((a,),)))
            assert rq.is_indecomposable(rt), (n, a)
            lengths = rq.rack_profile(rt).moving_lengths()
            largest = lengths[-1] if lengths else 1
            assert largest == rq.degree(rt), (n, a)
            assert rq.hayashi_holds_for(rt), (n, a)
            checked += 1
    _ok("criterion 7", f"{checked} affine quandles have a regular cycle")


BRAIDED_DEGREES = {1, 2, 3, 4, 6}


def _check_braided_degrees(racks, order):
    braided = [rt for rt in racks if rq.is_braided(rt)]
    for rt in braided:
        assert rq.degree(rt) in BRAIDED_DEGREES, (order, rt.rows)
        assert rq.rack_profile(rt).moving_lengths() != (2, 3), (order, rt.rows)
    return len(braided)


def test_criterion_8_braided_degrees_up_to_5(rack_reps):
    total = 0
    for n in range(1, 6):
        total += _check_braided_degrees(_indecomposable_reps(rack_reps[n]), n)
    assert total > 0
    _ok("criterion 8", f"{total} braided indecomposable racks have degree in {{1,2,3,4,6}}")


def test_criterion_8_braided_degrees_order_6(rack_reps6):
    count = _check_braided_degrees(_indecomposable_reps(rack_reps6), 6)
    _ok("criterion 8 (order-6 tier)", f"{count} braided indecomposable racks checked")


def test_criterion_9_generator_oracle_equivalence():
    for n in (1, 2, 3):
        valid = [rows for rows in oracles.all_tables(n) if oracles.is_rack_table(rows)]
        classes = oracles.iso_classes(valid)
        rep = rq.census(n)
        assert rep.total_labelled == len(valid), n
        assert rep.total_up_to_iso == len(classes), n
    valid4 = [rows for rows in oracles.quandle_row_tables(4) if oracles.is_rack_table(rows)]
    assert len(oracles.iso_classes(valid4)) == 7
    rep4 = rq.census(4, EnumerationFilter(require_quandle=True))
    assert rep4.total_up_to_iso == 7
    assert rep4.total_labelled == len(valid4)
    _ok("criterion 9", "census equals brute-force filters (raw and up-to-iso)")


def _property_suite(tables):
    """The cross-cutting axiom and round-trip properties of criterion 10."""
    for rt in tables:
        rows = rt.rows
        n = rt.n
        # homomorphism law, exhaustively
        for x in range(n):
            for y in range(n):
                assert rq.compose(rows[x], rows[y]) == rq.compose(rows[rows[x][y]], rows[x])
        # profile constancy on indecomposable tables, counted row by row
        if rq.is_indecomposable(rt):
            assert {rq.pattern(row) for row in rows} == {rq.rack_profile(rt)}
        # closure idempotence and subrack-ness
        for seed in ({0}, {0, n - 1}):
            closed = rq.subrack_closure(rt, seed)
            assert rq.subrack_closure(rt, closed) == closed
            assert rq.is_subrack(rt, closed)
        # fixed sets of crossed sets are subracks containing the point,
        # and translations by members permute the complement
        if rq.is_crossed_set(rt):
            carrier = frozenset(range(n))
            for x in range(n):
                top = rq.order(rows[x])
                for t in range(1, top + 1):
                    fs = rq.fixed_set(rt, x, t)
                    assert x in fs
                    assert rq.is_subrack(rt, fs)
                    complement = carrier - fs
                    for y in fs:
                        assert {rows[y][z] for z in complement} == complement
        # fixed-set bipartition property on indecomposable tables
        if rq.is_indecomposable(rt):
            deg = rq.degree(rt)
            for x in range(n):
                sets = {t: rq.fixed_set(rt, x, t) for t in range(2, deg + 1)}
                for p in range(2, deg + 1):
                    for q in range(2, deg + 1):
                        if len(sets[p] | sets[q]) == n:
                            assert len(sets[p]) == n or len(sets[q]) == n, (x, p, q)
        # parse/emit round-trip
        assert rq.load_table(rq.emit_table(rt)) == rt


def test_criterion_10_property_suites(rack_reps, family_tables):
    tables = list(family_tables.values())
    for n in range(1, 6):
        tables.extend(rack_reps[n])
    _property_suite(tables)
    _ok("criterion 10", f"axiom and round-trip suites green on {len(tables)} tables")


def test_criterion_10_property_suites_order_6(rack_reps6):
    _property_suite(rack_reps6)
    _ok("criterion 10 (order-6 tier)", f"suites green on {len(rack_reps6)} tables")
