import json
import random
import sys
import threading
from dataclasses import replace
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

import rackq as rq
from rackq import (
    R1Violation,
    TableParseError,
    dihedral,
    emit_report,
    emit_table,
    load_table,
    parse_table,
    trivial,
)

import oracles
from strategies import TABLE_TEXTS

DIHEDRAL3_TEXT = "3\n1 3 2\n3 2 1\n2 1 3\n"


class TestParseTable:
    def test_order_one(self):
        assert parse_table("1\n1\n").to_rack() == trivial(1)

    def test_dihedral3(self):
        assert load_table(DIHEDRAL3_TEXT) == dihedral(3)

    def test_axioms_checked_after_parse(self):
        doc = parse_table("2\n1 1\n2 2\n")
        with pytest.raises(R1Violation) as exc:
            doc.to_rack()
        assert exc.value.row == 0

    def test_to_rack_reports_entries_outside_range(self):
        # Only a document built by hand holds these; each is shifted as it
        # is, not wrapped into 0..n-1, and reported at its place.
        rows = parse_table(DIHEDRAL3_TEXT).rows
        for value in (0, -1, -3, 4, 9):
            edited = [list(row) for row in rows]
            edited[1][2] = value
            doc = rq.TableDocument(3, tuple(map(tuple, edited)))
            with pytest.raises(rq.OutOfRangeEntry) as exc:
                doc.to_rack()
            assert (exc.value.x, exc.value.y, exc.value.value) == (1, 2, value - 1)

    def test_comments_blank_lines_and_annotations(self):
        text = "# name: pentagon\n\n# source: handmade\n# free-form remark\n5\n" + "\n".join(
            " ".join(str(v + 1) for v in row) for row in dihedral(5).rows
        )
        doc = parse_table(text)
        assert doc.name == "pentagon"
        assert doc.source == "handmade"
        assert doc.to_rack() == dihedral(5)

    def test_missing_order(self):
        with pytest.raises(TableParseError, match="^line 1: missing order line$"):
            parse_table("# only a comment\n")

    def test_non_integer_order(self):
        with pytest.raises(TableParseError, match="^line 1: order line must be a positive integer") as exc:
            parse_table("three\n")
        assert exc.value.line == 1

    def test_row_count_mismatch(self):
        with pytest.raises(TableParseError, match="^line 3: expected 3 table rows, found 2$"):
            parse_table("3\n1 2 3\n2 3 1\n")

    def test_row_width_mismatch(self):
        with pytest.raises(TableParseError, match="^line 3: expected 2 entries, found 1$") as exc:
            parse_table("2\n1 2\n2\n")
        assert exc.value.line == 3

    def test_entry_out_of_range(self):
        with pytest.raises(TableParseError, match="^line 3, column 2: entry 3 outside 1..2$") as exc:
            parse_table("2\n1 2\n2 3\n")
        assert (exc.value.line, exc.value.col) == (3, 2)

    def test_bad_token_location(self):
        with pytest.raises(TableParseError, match="^line 3, column 2: bad integer 'x'$") as exc:
            parse_table("2\n1 2\n2 x\n")
        assert (exc.value.line, exc.value.col) == (3, 2)

    def test_only_ascii_digits(self):
        # "\u00b2" (superscript two) and "\u0661" (Arabic-Indic one) pass
        # str.isdigit but are not table entries.
        cases = [("\u0661\n1\n", (1, None)), ("2\n1 2\n2 \u00b2\n", (3, 2)),
                 ("2\n\u0661 2\n1 2\n", (2, 1))]
        for text, where in cases:
            with pytest.raises(TableParseError, match="order line must be a positive|bad integer") as exc:
                parse_table(text)
            assert (exc.value.line, exc.value.col) == where, text

    def test_long_numerals_are_located(self):
        # Too long for int(): the order line is a syntax error on its line,
        # and a body entry is out of range at its column.
        with pytest.raises(TableParseError, match="^line 2: order line has 5000 digits, too many") as exc:
            parse_table("# long\n" + "7" * 5000 + "\n")
        assert (exc.value.line, exc.value.col) == (2, None)
        with pytest.raises(TableParseError, match=r"^line 3, column 2: entry 4+ outside 1\.\.2$") as exc:
            parse_table("2\n1 2\n2 " + "0" * 10 + "4" * 5000 + "\n")
        assert (exc.value.line, exc.value.col) == (3, 2)
        assert str(exc.value) == f"line 3, column 2: entry {'4' * 5000} outside 1..2"
        # Zero padding alone does not make a numeral too long.
        assert parse_table("0" * 5000 + "2\n1 2\n2 " + "0" * 5000 + "1\n").rows == ((1, 2), (2, 1))


def parse_outcome(parse, text):
    """The document ``parse`` returns, or the type, message and location of
    what it raises."""
    try:
        return parse(text)
    except rq.RackError as exc:
        return type(exc).__name__, str(exc), vars(exc)


class TestParseFastPath:
    """parse_table reads a line of canonical numerals in 1..n through one
    lookup; the others take the per-token path, kept as
    ``oracles.parse_table_per_token``."""

    # An explicit sign, zero padding, a non-ASCII digit, a word, both ends
    # of the range and past them, and a numeral too long for int().
    LONG = "1" * 5000
    TOKENS = ("+5", "007", "\u0661", "x", "1", "12", "0", "13", LONG)

    def assert_same(self, text):
        got = parse_outcome(parse_table, text)
        try:
            want = parse_outcome(oracles.parse_table_per_token, text)
        except ValueError:
            # The oracle's int() refuses the long numeral without a location;
            # parse_table reports it as out of range where it first appears.
            line, entries = next(
                (i, l.split()) for i, l in enumerate(text.split("\n"), 1) if self.LONG in l.split()
            )
            col = entries.index(self.LONG) + 1
            assert got[0] == "TableParseError"
            assert got[1].startswith(f"line {line}, column {col}: entry {self.LONG} outside")
            assert got[2] == {"line": line, "col": col}
        else:
            assert got == want

    def test_one_token_replaced(self):
        lines = emit_table(dihedral(12), name="d12").split("\n")
        for token, row, col in product(self.TOKENS, (0, 5, 11), (0, 6, 11)):
            edited = list(lines)
            entries = edited[row + 2].split(" ")
            entries[col] = token
            edited[row + 2] = " ".join(entries)
            self.assert_same("\n".join(edited))

    def test_two_tokens_replaced(self):
        # The first bad token in the row decides the error, whatever follows.
        lines = emit_table(dihedral(12)).split("\n")
        for first, second in product(self.TOKENS, repeat=2):
            edited = list(lines)
            entries = edited[4].split(" ")
            entries[2], entries[9] = first, second
            edited[4] = " ".join(entries)
            self.assert_same("\n".join(edited))

    def test_valid_files(self, family_tables):
        for rt in family_tables.values():
            self.assert_same(emit_table(rt))

    @pytest.mark.parametrize("n", (9, 10, 99, 100))
    def test_width_boundary(self, n):
        # n is read by the lookup, n + 1 (one digit wider at n = 9 and 99)
        # is out of range, and a padded numeral of an in-range value goes
        # token by token and is accepted.
        lines = emit_table(trivial(n)).split("\n")
        for token, col in product((str(n), str(n + 1), "0" + str(n), "01", "0010"), (0, n - 1)):
            edited = list(lines)
            entries = edited[2].split(" ")
            entries[col] = token
            edited[2] = " ".join(entries)
            self.assert_same("\n".join(edited))

    def test_separators(self):
        # Tabs and runs of spaces split tokens like a single space.
        text = "3\n1 \t3  2\n3\t2\t\t1\n2   1 \t 3\n"
        self.assert_same(text)
        assert parse_table(text) == parse_table(DIHEDRAL3_TEXT)
        self.assert_same(text.replace("2   1", "2   01"))
        self.assert_same(text.replace("3\t2\t\t1", "3\t2\t\tx"))

    def test_only_bad_token_is_last(self):
        lines = emit_table(dihedral(12)).split("\n")
        for token in self.TOKENS:
            edited = list(lines)
            edited[7] = edited[7].rsplit(" ", 1)[0] + " " + token
            self.assert_same("\n".join(edited))

    @pytest.mark.parametrize("n", (1, 2))
    def test_orders_one_and_two(self, n):
        # At order 1 a token is alone on its line; at order 2 it is first or last.
        lines = emit_table(trivial(n)).split("\n")
        self.assert_same("\n".join(lines))
        for token, row, col in product(self.TOKENS + ("2", "3"), range(n), range(n)):
            edited = list(lines)
            entries = edited[row + 1].split(" ")
            entries[col] = token
            edited[row + 1] = " ".join(entries)
            self.assert_same("\n".join(edited))

    def test_huge_order_with_short_body(self):
        # An order over the table budget is refused on its line, before
        # the body is read; one inside it reaches the row count.
        cases = {
            f"{10**12}\n1 2\n2 1\n": "line 1: carrier size 1000000000000 exceeds the budget of 33554432 table cells",
            "# big\n5793\n1 2\n": "line 2: carrier size 5793 exceeds the budget of 33554432 table cells",
            "5792\n1 2\n2 1\n": "line 3: expected 5792 table rows, found 2",
            "0\n": "line 1: carrier size must be positive, got 0",
        }
        for text, message in cases.items():
            with pytest.raises(TableParseError) as exc:
                parse_table(text)
            assert str(exc.value) == message


class TestToRackChecksAxiomsDirectly:
    """A document of n rows of n entries in 1..n is shifted by one lookup
    into ints in 0..n-1, which go to the axiom check without
    ``validate``'s input gate; any other goes through ``validate``.  Both
    must give the table or the error and witness of the cubic scan kept as
    ``oracles.validate_cubic``."""

    def assert_same(self, rows):
        n = len(rows)
        doc = rq.TableDocument(n, tuple(tuple(v + 1 for v in row) for row in rows))
        want = parse_outcome(partial(oracles.validate_cubic, n), rows)
        assert parse_outcome(rq.TableDocument.to_rack, doc) == want, rows

    @staticmethod
    def validate_calls(doc):
        calls = []
        validate = rq.tableio.validate

        def recording(n, rows):
            calls.append(n)
            return validate(n, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rq.tableio, "validate", recording)
            try:
                doc.to_rack()
            except rq.RackError:
                pass
        return len(calls)

    def test_families_and_their_defects(self, family_tables):
        # A swap inside a row keeps R1 and may break R2; a copied row, a
        # random row and an entry past either end break R1 or the range.
        rng = random.Random(24)
        for rt in family_tables.values():
            n = rt.n
            self.assert_same(rt.rows)
            for _ in range(4):
                x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                edits = [list(map(list, rt.rows)) for _ in range(4)]
                edits[0][x][y], edits[0][x][z] = edits[0][x][z], edits[0][x][y]
                edits[1][x] = list(rt.rows[y])
                edits[2][x] = rng.sample(range(n), n)
                edits[3][x][y] = rng.choice((-1, n))
                for rows in edits:
                    self.assert_same(rows)

    def test_later_r1_defect_is_reported_before_earlier_r2_defect(self):
        rows = [list(row) for row in dihedral(7).rows]
        rows[1][2], rows[1][4] = rows[1][4], rows[1][2]  # R2 fails at row 1
        with pytest.raises(rq.R2Violation):
            load_table(emit_table(rq.RackTable(7, tuple(map(tuple, rows)))))
        self.assert_same(rows)
        rows[5][3] = rows[5][0]  # row 5 is not a permutation
        with pytest.raises(R1Violation) as exc:
            load_table(emit_table(rq.RackTable(7, tuple(map(tuple, rows)))))
        assert exc.value.row == 5
        self.assert_same(rows)

    def test_only_other_shapes_reach_validate(self):
        assert self.validate_calls(parse_table(emit_table(dihedral(9)))) == 0
        assert self.validate_calls(parse_table("2\n1 1\n2 2\n")) == 0
        rows = parse_table(DIHEDRAL3_TEXT).rows
        others = [
            rq.TableDocument(1, ((1,),)),
            rq.TableDocument(3, rows[:2]),
            rq.TableDocument(3, (rows[0], rows[1][:2], rows[2])),
            rq.TableDocument(3, (rows[0], rows[1] + (1,), rows[2])),
            rq.TableDocument(3, (rows[0], (1,), rows[2])),
            rq.TableDocument(3, (rows[0], (0, 1, 2), rows[2])),
        ]
        for doc in others:
            assert self.validate_calls(doc) == 1, doc
        with pytest.raises(rq.RackError, match=r"^expected an 3x3 table$"):
            others[3].to_rack()


class TestEmitTable:
    @staticmethod
    def assert_matches_oracle(table):
        for name, source in ((None, None), ("t", None), (None, "s"), ("t", "s")):
            want = oracles.emit_table_per_entry(table, name=name, source=source)
            assert emit_table(table, name=name, source=source) == want

    def test_matches_per_entry_oracle_families(self, family_tables):
        for rt in family_tables.values():
            self.assert_matches_oracle(rt)
            self.assert_matches_oracle(parse_table(emit_table(rt, name="n", source="s")))

    def test_matches_per_entry_oracle_census(self, rack_reps):
        for reps in rack_reps.values():
            for rt in reps:
                self.assert_matches_oracle(rt)

    # Order 1 and the orders at which the width of n's numeral changes.
    @pytest.mark.parametrize("n", (1, 9, 10, 99, 100))
    def test_width_edges(self, n):
        for rt in (trivial(n), dihedral(n)):
            self.assert_matches_oracle(rt)
            assert load_table(emit_table(rt)) == rt

    def test_round_trip_families(self, family_tables):
        for name, rt in family_tables.items():
            assert load_table(emit_table(rt)) == rt, name

    def test_round_trip_census_representatives(self, rack_reps):
        for rt in rack_reps[4]:
            text = emit_table(rt)
            assert load_table(text) == rt
            assert emit_table(parse_table(text)) == text

    def test_unvalidated_entry_outside_carrier_is_not_written(self):
        # No entry is written as another point's numeral.
        for value in (-1, -2, 2):
            with pytest.raises(KeyError):
                emit_table(rq.RackTable(2, ((0, 1), (value, 0))))

    def test_annotations_survive(self):
        text = emit_table(dihedral(3), name="tri", source="unit test")
        doc = parse_table(text)
        assert (doc.name, doc.source) == ("tri", "unit test")

    def test_exact_bytes(self):
        assert emit_table(dihedral(3)) == DIHEDRAL3_TEXT

    @given(name=st.none() | st.text(), source=st.none() | st.text())
    @example(name="x\n5", source=None)
    @example(name="  spaced  ", source=" ")
    def test_annotations_round_trip_or_raise(self, family_tables, name, source):
        stripped = tuple((v or "").strip() for v in (name, source))
        for key in ("trivial(1)", "dihedral(3)", "conj(S4 3-cycles)"):
            try:
                text = emit_table(family_tables[key], name=name, source=source)
            except ValueError:
                assert any(len(v.splitlines()) > 1 for v in stripped)
                continue
            doc = parse_table(text)
            assert (doc.name, doc.source) == tuple(v or None for v in stripped)
            assert emit_table(doc) == text


class TestParseTableFuzz:
    @given(TABLE_TEXTS)
    @example("#  name:  d3 \r\n# source:\n3\n1 3 2\n3 2 1\n2 1 3")
    @example("\t1\r\n 01 \n# name:")
    def test_parse_answers_or_raises_and_documents_round_trip(self, text):
        try:
            doc = parse_table(text)
        except TableParseError:
            return
        # An empty annotation is left out when the document is written.
        doc = replace(doc, name=doc.name or None, source=doc.source or None)
        emitted = emit_table(doc)
        assert parse_table(emitted) == doc
        assert emit_table(parse_table(emitted)) == emitted


class TestEmitReport:
    def test_profile_schema(self):
        prof = rq.pattern((0, 4, 3, 2, 1))
        assert emit_report(prof) == '{"m0":1,"lengths":[2],"mults":[2]}'

    def test_profile_query_schema(self):
        pf = rq.parse_profile("1^2 6 10 15")
        assert emit_report(pf) == '{"m0":2,"lengths":[6,10,15],"mults":[1,1,1]}'

    def test_split_rule_witness(self):
        v = rq.full_verdict(rq.parse_profile("1^1 2 3"), "racks")
        payload = json.loads(emit_report(v))
        assert payload["kind"] == "ExcludedProp35"
        assert payload["witness"] == {"i": 1, "P": 2, "Q": 3}
        assert payload["rules_consulted"] == ["Prop35"]

    def test_crossed_rule_witness_carries_decomposition(self):
        v = rq.full_verdict(rq.parse_profile("1^2 6 10 15"), "crossed-sets")
        payload = json.loads(emit_report(v))
        assert payload["kind"] == "ExcludedProp315"
        assert payload["witness"]["p"] == 2
        assert payload["witness"]["classes"] == ["C", "B", "A"]

    def test_class_flags(self):
        payload = json.loads(emit_report(rq.classify(dihedral(5))))
        assert payload == {
            "is_quandle": True,
            "is_crossed_set": True,
            "is_braided": False,
            "is_indecomposable": True,
            "degree": 2,
        }

    def test_census_report_sorted_histogram(self):
        rep = rq.census(3)
        payload = json.loads(emit_report(rep))
        assert payload["order"] == 3
        assert payload["total_up_to_iso"] == 6
        assert list(payload["histogram"]) == sorted(payload["histogram"])

    def test_byte_stability(self):
        v = rq.full_verdict(rq.parse_profile("1^2 6 10 15"), "crossed-sets")
        assert emit_report(v) == emit_report(v)

    def test_orbit_partition_serialization(self):
        payload = json.loads(emit_report(dihedral(4).orbits))
        assert payload == [[0, 2], [1, 3]]

    def test_unknown_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
            emit_report(object())
        with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
            oracles.emit_report_dumps(object())


def sweep_verdicts(profiles):
    """Both scopes of ``full_verdict`` and ``prop315_verdict`` alone, per
    profile."""
    return [
        verdict
        for pf in profiles
        for verdict in (
            rq.full_verdict(pf, "racks"),
            rq.full_verdict(pf, "crossed-sets"),
            rq.prop315_verdict(pf),
        )
    ]


class TestEmitReportMatchesDumps:
    """The shared encoder writes the bytes ``json.dumps`` wrote, with a
    verdict read through ``dataclasses.fields``."""

    def test_verdicts_of_the_sweep(self, profile_sweep):
        verdicts = sweep_verdicts(profile_sweep)
        assert {v.kind for v in verdicts} == {
            "ExcludedProp35", "ExcludedCor34", "ExcludedProp315", "NotExcluded", "NotApplicable",
        }
        for v in verdicts:
            assert emit_report(v) == oracles.emit_report_dumps(v)

    def test_prop315_records(self):
        pfs = [rq.parse_profile(text) for text in ("10 12 15", "2 3 5", "6 10 15", "2 4", "2 4 8")]
        verdicts = [rq.prop315_verdict(pf) for pf in pfs]
        assert [(v.kind, v.rules_consulted) for v in verdicts] == [
            ("NotExcluded", ("Prop315", "Prop35")),
            ("ExcludedProp35", ("Prop315", "Prop35")),
            ("ExcludedProp315", ("Prop315",)),
            ("NotApplicable", ("Prop315",)),
            ("NotExcluded", ("Prop315",)),
        ]
        assert emit_report(verdicts[0]) == (
            '{"kind":"NotExcluded","scope":"racks","witness":null,'
            '"rules_consulted":["Prop315","Prop35"]}'
        )
        for v in verdicts:
            assert emit_report(v) == oracles.emit_report_dumps(v)

    def test_other_values(self):
        values = [
            rq.decompose_lengths(6, 10, 15),
            rq.decompose_lengths(4, 6, 9),
            rq.parse_profile("1^2.2^2.3^4.6^4"),
            rq.classify(dihedral(5)),
            frozenset({3, 1, 2}),
            [rq.pattern(row) for row in dihedral(12).rows],
            {"order": 4, "flags": rq.classify(dihedral(4))},
            parse_table("# name: Diedergruppe \u00e4\n# source: \u03a3\u2080\n" + DIHEDRAL3_TEXT),
        ]
        values += [
            rq.census(n, rq.EnumerationFilter(*flags))
            for n in range(1, 6)
            for flags in product((False, True), repeat=4)
        ]
        for value in values:
            assert emit_report(value) == oracles.emit_report_dumps(value)

    def test_shared_encoder_across_threads(self, profile_sweep):
        # Four threads, more than the cores of a small machine, switching as
        # often as the interpreter allows.
        verdicts = sweep_verdicts(profile_sweep)
        expected = [emit_report(v) for v in verdicts]
        start = threading.Barrier(4, timeout=10)
        results = [None] * 4

        def encode_all(slot):
            start.wait()
            results[slot] = [emit_report(v) for v in verdicts]

        threads = [threading.Thread(target=encode_all, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
