import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import rackq as rq
from rackq import cli
from rackq.cli import main

from strategies import TABLE_TEXTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv)


def decomposable_tables(rack_reps):
    """Every decomposable rack of order 5, then one of order 10 that joins a
    pentagon, a triangle and two fixed points: three orbit profiles over
    four orbits."""
    tables = [rt for rt in rack_reps[5] if len(rt.orbits) > 1]
    d5, d3 = rq.dihedral(5).rows, rq.dihedral(3).rows
    tables.append(rq.validate(10, [
        *(row + (5, 6, 7, 8, 9) for row in d5),
        *((0, 1, 2, 3, 4) + tuple(v + 5 for v in row) + (8, 9) for row in d3),
        *(tuple(range(10)),) * 2,
    ]))
    assert len(tables[-1].orbits) == 4
    return tables


class TestMake:
    def test_dihedral_table_bytes(self, capsys):
        code, out, err = run(capsys, "make", "dihedral", "3")
        assert code == 0 and err == ""
        assert out == "3\n1 3 2\n3 2 1\n2 1 3\n"

    def test_each_family_round_trips(self, capsys):
        cases = [
            (("make", "trivial", "4"), rq.trivial(4)),
            (("make", "cyclic", "6"), rq.cyclic_rack(6)),
            (("make", "dihedral", "9"), rq.dihedral(9)),
            (("make", "affine", "--moduli", "5", "--alpha", "2"),
             rq.affine(rq.AffineSpec((5,), ((2,),)))),
            (("make", "affine", "--moduli", "2,2", "--alpha", "0,1;1,1"),
             rq.affine(rq.AffineSpec((2, 2), ((0, 1), (1, 1))))),
            (("make", "conj", "--degree", "4", "--rep", "(1 2)"),
             rq.conjugation_class_quandle(4, (1, 0, 2, 3))),
        ]
        for argv, expected in cases:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert rq.load_table(out) == expected

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run(capsys, "make", "affine", "--moduli", "4", "--alpha", "2")
        assert code == 1
        assert "invertible" in err
        for family in ("trivial", "cyclic", "dihedral"):
            code, out, err = run(capsys, "make", family, "0")
            assert (code, out, err) == (1, "", "carrier size must be positive, got 0\n"), family
        # Sizes no sequence can hold are refused before anything is built.
        huge = "9" * 30
        cases = [(("make", family, huge), huge) for family in ("trivial", "cyclic", "dihedral")]
        cases.append((("make", "affine", "--moduli", huge, "--alpha", "3"), huge))
        for argv, size in cases:
            code, out, err = run(capsys, *argv)
            want = f"carrier size must be at most {sys.maxsize}, got {size}\n"
            assert (code, out, err) == (1, "", want), argv

    def test_affine_matrix_must_be_a_homomorphism(self, capsys):
        code, out, err = run(capsys, "make", "affine", "--moduli", "5,2", "--alpha", "3,0;3,7")
        assert (code, out) == (1, "")
        assert err == "alpha[1][0]=3 is not a homomorphism from Z_5 to Z_2: 2 does not divide 5*3\n"

    def test_conj_rep_takes_only_ascii_digits(self, capsys):
        for rep in ("(\u0661 2)", "(\u00b2 2)"):
            code, out, err = run(capsys, "make", "conj", "--degree", "4", "--rep", rep)
            assert (code, out) == (1, ""), rep
            assert "bad character" in err

    def test_point_lists_take_only_ascii_digits(self, capsys):
        code, _, err = run(capsys, "make", "affine", "--moduli", "\u0665", "--alpha", "2")
        assert code == 1
        assert "bad point list" in err
        # Numerals too long for int() are refused by the same message.
        long = "9" * 5000
        for moduli, alpha in ((long, "1"), ("5", long), ("5", "2," + long)):
            code, out, err = run(capsys, "make", "affine", "--moduli", moduli, "--alpha", alpha)
            assert (code, out) == (1, "")
            assert err.startswith("bad point list '")

    def test_conj_rep_cycle_notation(self, capsys):
        code, out, _ = run(capsys, "make", "conj", "--degree", "5", "--rep", "(1 2)(3 4)")
        assert code == 0
        rt = rq.load_table(out)
        assert rt.n == 15  # double transpositions in S_5

    def test_conj_rep_malformed_cycle_notation(self, capsys):
        cases = {
            "1 2": "point 1 outside parentheses in cycle notation '1 2'",
            "(1 2)3": "point 3 outside parentheses in cycle notation '(1 2)3'",
            "1 2)": "point 1 outside parentheses in cycle notation '1 2)'",
            "(1 2))": "unmatched ')' in cycle notation '(1 2))'",
            "((1 2))": "nested parenthesis in cycle notation '((1 2))'",
            "(1 2": "unclosed parenthesis in cycle notation '(1 2'",
            "(1 2)(2 3)": "point 2 appears more than once in cycle notation '(1 2)(2 3)'",
            "(1 3 1)": "point 1 appears more than once in cycle notation '(1 3 1)'",
            f"({'9' * 5000})": f"cycle point outside 1..3 in '({'9' * 5000})'",
            f"({'0' * 5000}1 2)(1 3)":
                f"point 1 appears more than once in cycle notation '({'0' * 5000}1 2)(1 3)'",
        }
        for rep, message in cases.items():
            code, out, err = run(capsys, "make", "conj", "--degree", "3", "--rep", rep)
            assert (code, out, err) == (1, "", message + "\n"), rep

    def test_conj_class_too_large_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "make", "conj", "--degree", "1000", "--rep", "(1 2)")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", "conjugacy class exceeds 10000 elements\n")

    @pytest.mark.parametrize("degree", ["1000000000", "1" + "0" * 30])
    def test_conj_huge_degree_is_sized_before_building(self, capsys, degree):
        # A permutation of this degree would need gigabytes, or more
        # points than a list can index.
        code, out, err = run(capsys, "make", "conj", "--degree", degree, "--rep", "(1 2)")
        assert (code, out, err) == (1, "", "conjugacy class exceeds 10000 elements\n")

    @pytest.mark.parametrize("degree", ["5", "1000000000", "1" + "0" * 30])
    @pytest.mark.parametrize("rep", ["()", "(1)(2)"])
    def test_conj_identity_is_its_own_class_at_any_degree(self, capsys, degree, rep):
        # Nothing of length degree is built for a rep that moves no point.
        code, out, err = run(capsys, "make", "conj", "--degree", degree, "--rep", rep)
        assert (code, out, err) == (0, "1\n1\n", "")


class TestProfilePipeline:
    def test_dihedral9_profile(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "9")
        code, out, _ = run_with_stdin(capsys, monkeypatch, table_text, "profile", "-")
        assert code == 0
        assert out.strip() == "1^1 2^4"

    def test_decomposable_suggests_per_point(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "trivial", "3")
        code, _, err = run_with_stdin(capsys, monkeypatch, table_text, "profile", "-")
        assert code == 1
        assert err == (
            "rack is decomposable, so it has no single profile; "
            "use RackTable.patterns for the pattern of every translation; "
            "rerun with --per-point for per-point patterns\n"
        )

    def test_per_point_output(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "trivial", "3")
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, table_text, "profile", "-", "--per-point"
        )
        assert code == 0
        assert out.splitlines() == ["1: 1^3", "2: 1^3", "3: 1^3"]

    def test_per_point_of_decomposable_tables(self, capsys, monkeypatch, rack_reps):
        for rt in decomposable_tables(rack_reps):
            code, out, _ = run_with_stdin(
                capsys, monkeypatch, rq.emit_table(rt), "profile", "-", "--per-point"
            )
            want = "".join(f"{x + 1}: {rq.pattern(row)}\n" for x, row in enumerate(rt.rows))
            assert (code, out) == (0, want)


class TestCheck:
    def test_dihedral5(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "d5.txt"
        path.write_text(rq.emit_table(rq.dihedral(5)))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 5
        assert payload["is_quandle"] and payload["is_crossed_set"]
        assert payload["is_braided"] is False
        assert payload["is_indecomposable"] and payload["degree"] == 2
        assert payload["per_point_patterns"][0] == {"point": 1, "pattern": "1^1 2^2"}

    def test_patterns_of_decomposable_tables(self, capsys, monkeypatch, rack_reps):
        # Each orbit's profile is formatted once; the bytes are those of
        # formatting the pattern of every row.
        for rt in decomposable_tables(rack_reps):
            code, out, _ = run_with_stdin(capsys, monkeypatch, rq.emit_table(rt), "check", "-")
            want = {"order": rt.n, **json.loads(rq.emit_report(rq.classify(rt)))}
            want["per_point_patterns"] = [
                {"point": x + 1, "pattern": str(rq.pattern(row))} for x, row in enumerate(rt.rows)
            ]
            assert (code, out) == (0, rq.emit_report(want) + "\n")

    @pytest.mark.parametrize("n", [256, 257])
    def test_either_side_of_byte_rows(self, capsys, tmp_path, n):
        # On 256 points validate composes rows as bytes, on 257 it gathers.
        # r_x(y) = 2x - y fixes x and x + n/2 when n is even, x alone if odd.
        profile = f"1^2 2^{n // 2 - 1}" if n % 2 == 0 else f"1^1 2^{n // 2}"
        points = ",".join(f'{{"point":{x},"pattern":"{profile}"}}' for x in range(1, n + 1))
        report = (f'{{"order":{n},"is_quandle":true,"is_crossed_set":true,"is_braided":false,'
                  f'"is_indecomposable":{"true" if n % 2 else "false"},"degree":2,'
                  f'"per_point_patterns":[{points}]}}\n')
        r1 = [list(row) for row in rq.dihedral(n).rows]
        r1[200][3] = r1[200][4]
        r2 = [list(row) for row in rq.dihedral(n).rows]
        r2[129][3], r2[129][200] = r2[129][200], r2[129][3]
        outcomes = []
        for rows in (rq.dihedral(n).rows, r1, r2):
            path = tmp_path / "table.txt"
            path.write_text(rq.emit_table(rq.RackTable(n, tuple(map(tuple, rows)))))
            outcomes.append(run(capsys, "check", str(path)))
        assert outcomes == [
            (0, report, ""),
            (1, "", "row 200 is not a permutation of the carrier\n"),
            (1, "", f"self-distributivity fails at triple (0, {n - 129}, {n - 200})\n"),
        ]

    def test_invalid_table_surfaces_witness(self, capsys, monkeypatch):
        code, _, err = run_with_stdin(capsys, monkeypatch, "2\n1 1\n2 2\n", "check", "-")
        assert code == 1
        assert "row 0" in err

    def test_non_ascii_entry_is_located(self, capsys, monkeypatch):
        code, out, err = run_with_stdin(
            capsys, monkeypatch, "2\n1 2\n2 \u00b2\n", "check", "-"
        )
        assert (code, out) == (1, "")
        assert err == "line 3, column 2: bad integer '\u00b2'\n"

    def test_long_numerals_are_located(self, capsys, monkeypatch):
        for text, where in (("7" * 5000 + "\n", "line 1: "),
                            ("2\n1 2\n2 " + "4" * 5000 + "\n", "line 3, column 2: ")):
            code, out, err = run_with_stdin(capsys, monkeypatch, text, "check", "-")
            assert (code, out) == (1, "")
            assert err.startswith(where)


class TestClosure:
    def test_dihedral5_pair(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "5")
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, table_text, "closure", "-", "--seed", "1,2"
        )
        assert code == 0
        assert out.strip() == "1,2,3,4,5"

    def test_singleton(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "5")
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, table_text, "closure", "-", "--seed", "1"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_coset_subrack(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "9")
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, table_text, "closure", "-", "--seed", "1,4,7"
        )
        assert code == 0
        assert out.strip() == "1,4,7"

    def test_bad_seed(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "5")
        code, _, err = run_with_stdin(
            capsys, monkeypatch, table_text, "closure", "-", "--seed", "0,1"
        )
        assert code == 1
        assert "seed" in err

    def test_seed_takes_only_plain_integers(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "5")
        for seed in ("1_0", "+1", "1,+2"):
            code, out, err = run_with_stdin(
                capsys, monkeypatch, table_text, "closure", "-", "--seed", seed
            )
            assert (code, out) == (1, ""), seed
            assert f"bad point list {seed!r}" in err


class TestObstruct:
    def test_crossed_scope_excludes(self, capsys):
        code, out, _ = run(
            capsys, "obstruct", "--profile", "1^2 6 10 15", "--scope", "crossed-sets"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "ExcludedProp315"
        assert payload["scope"] == "crossed-sets"

    def test_rack_scope_does_not(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--profile", "1^2 6 10 15", "--scope", "racks")
        assert json.loads(out)["kind"] == "NotExcluded"

    def test_default_scope_is_racks(self, capsys):
        _, out, _ = run(capsys, "obstruct", "--profile", "1^1 2 3")
        payload = json.loads(out)
        assert payload["kind"] == "ExcludedProp35"

    def test_many_lengths_get_a_verdict(self, capsys):
        divisors = [d for d in range(2, 720721) if 720720 % d == 0]
        code, out, _ = run(capsys, "obstruct", "--profile", " ".join(map(str, divisors)))
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "NotExcluded"
        assert payload["rules_consulted"] == ["Prop35", "Cor34"]

    def test_bad_profile(self, capsys):
        code, _, err = run(capsys, "obstruct", "--profile", "2 2")
        assert code == 1
        assert "length 2" in err


class TestHayashi:
    def test_profile_flag(self, capsys):
        code, out, _ = run(capsys, "hayashi", "--profile", "1^2.2^2.3^4.6^4")
        assert code == 0
        assert json.loads(out) == {"profile": "1^2 2^2 3^4 6^4", "holds": True}

    def test_failing_profile(self, capsys):
        _, out, _ = run(capsys, "hayashi", "--profile", "6 10 15")
        assert json.loads(out) == {"profile": "6^1 10^1 15^1", "holds": False}

    def test_table_file(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "dihedral", "9")
        code, out, _ = run_with_stdin(capsys, monkeypatch, table_text, "hayashi", "-")
        assert code == 0
        assert json.loads(out) == {"profile": "1^1 2^4", "holds": True}

    def test_table_and_profile_give_same_label(self, capsys, tmp_path):
        _, table_text, _ = run(capsys, "make", "dihedral", "9")
        path = tmp_path / "d9.txt"
        path.write_text(table_text)
        code_table, from_table, _ = run(capsys, "hayashi", str(path))
        code_profile, from_profile, _ = run(capsys, "hayashi", "--profile", "1^1 2^4")
        assert code_table == code_profile == 0
        assert from_table == from_profile == '{"profile":"1^1 2^4","holds":true}\n'

    def test_decomposable_table_names_a_command(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "trivial", "3")
        code, out, err = run_with_stdin(capsys, monkeypatch, table_text, "hayashi", "-")
        assert (code, out) == (1, "")
        assert err == (
            "rack is decomposable, so it has no single profile; "
            "use RackTable.patterns for the pattern of every translation; "
            "rackq profile --per-point gives per-point patterns\n"
        )

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "hayashi")
        assert code == 1
        assert "exactly one" in err
        code, _, err = run(capsys, "hayashi", "x.txt", "--profile", "5")
        assert code == 1


class TestEnumerate:
    def test_order3_quandles(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "3", "--quandle")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_up_to_iso"] == 3
        assert payload["filters"]["quandle"] is True

    def test_dump_writes_parseable_tables(self, capsys, tmp_path):
        dump = tmp_path / "out"
        code, out, _ = run(
            capsys, "enumerate", "--order", "3", "--quandle", "--dump", str(dump)
        )
        assert code == 0
        files = sorted(dump.iterdir())
        assert len(files) == 3
        tables = [rq.load_table(f.read_text()) for f in files]
        assert tables == list(
            rq.enumerate_racks(3, rq.EnumerationFilter(require_quandle=True))
        )

    def test_threads_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, "enumerate", "--order", "3", "--threads", "2")
        assert code == 0
        assert json.loads(out)["total_up_to_iso"] == 6
        # The pool writes the same report and files as the sequential run.
        runs = []
        for threads in ((), ("--threads", "2")):
            dump = tmp_path / f"dump{len(runs)}"
            code, out, err = run(capsys, "enumerate", "--order", "5", "--dump", str(dump), *threads)
            assert (code, err) == (0, "")
            runs.append((out, {f.name: f.read_bytes() for f in dump.iterdir()}))
        assert len(runs[0][1]) == 74
        assert runs[0] == runs[1]

    def test_guard_is_domain_error(self, capsys):
        for order in ("9", "0"):
            code, _, err = run(capsys, "enumerate", "--order", order)
            assert code == 1
            assert err == f"order must be in 1..7, got {order}\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obstruct"])
        assert exc.value.code == 2

    def test_integer_flags_take_only_ascii_digits(self, capsys):
        for argv in (["make", "dihedral", "\u0663"], ["make", "dihedral", "x"],
                     ["enumerate", "--order", "\u0662"], ["make", "dihedral", "9" * 5000]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert f"invalid int value: {argv[-1]!r}" in capsys.readouterr().err

    def test_integer_flags_take_only_plain_integers(self, capsys):
        for text in ("1_0", "+5", " 5", "5 "):
            for argv in (["make", "dihedral", text], ["enumerate", "--order", text]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2, argv
                assert f"invalid int value: {text!r}" in capsys.readouterr().err

    def test_parser_is_reused_unchanged_after_a_usage_error(self, capsys, monkeypatch):
        # The parser is built once per process; a failed parse must leave it
        # as a fresh process builds it.
        monkeypatch.setenv("COLUMNS", "80")
        bad, good = ["enumerate", "--order", "x"], ["enumerate", "--order", "4", "--quandle"]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        code, out, _ = run(capsys, *good)
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": os.path.dirname(os.path.dirname(rq.__file__))}
        script = "import sys; from rackq.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                text=True, env=env) for argv in (bad, good)]
        assert (fresh[0].returncode, fresh[0].stderr) == (2, err)
        assert (fresh[1].returncode, fresh[1].stdout) == (code, out)

    def test_negative_order_stays_a_domain_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--order", "-3")
        assert (code, out) == (1, "")
        assert err == "order must be in 1..7, got -3\n"


class TestByteStability:
    def test_repeated_runs_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "enumerate", "--order", "4", "--quandle")
            outputs.add(out)
        assert len(outputs) == 1

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/table.txt")
        assert code == 1
        assert err


# Short runs of the characters the text grammars use, and numerals at the
# length where int() starts to refuse them.
_PIECES = st.one_of(
    st.text(alphabet="0123456789^.,;-+_() \t\n\u0661\u00b2x", max_size=6),
    st.builds(str.__mul__, st.sampled_from("019"), st.integers(4295, 4305)),
)


_TEXTS = st.lists(_PIECES, max_size=4).map("".join)


class TestParserFuzz:
    @given(text=_TEXTS, degree=st.integers(-1, 9))
    @example(text="9" * 5000, degree=3)
    @example(text="1 2^" + "9" * 5000, degree=3)
    @example(text=f"({'9' * 5000})", degree=3)
    @example(text=f"5,{'0' * 5000}2", degree=3)
    def test_text_parsers_answer_or_raise_typed_errors(self, text, degree):
        parsers = (rq.parse_profile, cli._parse_point_list, partial(cli._parse_cycle_notation, degree))
        for parse in parsers:
            try:
                parse(text)
            except rq.RackError as exc:
                assert "Exceeds the limit" not in str(exc)


_JUNK = st.sampled_from(("", "x", "+3", "\u0661", "3.0", "9" * 5000))
_PROFILE = st.sampled_from(("1^2 6 10 15", "2 3", "1^1 2^2", "6.10.15", "2 4294967297")) | _TEXTS
_SEED = st.sampled_from(("1", "1,2", "0", "3 1")) | _JUNK
_SCOPE = st.sampled_from(rq.obstructions.SCOPES) | _JUNK
# Cycle notation whose classes stay small at degree <= 9 (at most 378 members).
_REP = st.lists(
    st.sampled_from(("(1 2)", "(3 4)", "(2 3 5)", "(9)", "(1 1)", "(10)", "(", ")", " ", "x")),
    max_size=2,
).map("".join)
_READS_TABLE = st.sampled_from(
    (["check", "-"], ["profile", "-"], ["profile", "-", "--per-point"], ["hayashi", "-"])
)
# (argv, stdin) pairs over every subcommand that reads text.
_INVOCATIONS = st.one_of(
    st.tuples(_READS_TABLE, TABLE_TEXTS),
    st.tuples(st.builds(lambda seed: ["closure", "-", "--seed", seed], _SEED), TABLE_TEXTS),
    st.tuples(
        st.builds(
            lambda pf, scope: ["obstruct", "--profile", pf, "--scope", scope], _PROFILE, _SCOPE
        ),
        st.just(""),
    ),
    st.tuples(st.builds(lambda pf: ["hayashi", "--profile", pf], _PROFILE), st.just("")),
    st.tuples(
        st.builds(
            lambda order, flags: ["enumerate", "--order", order, *flags],
            st.integers(-1, 4).map(str) | _JUNK,
            st.sampled_from(([], ["--quandle"], ["--indecomposable"])),
        ),
        st.just(""),
    ),
    st.tuples(
        st.builds(
            lambda degree, rep: ["make", "conj", "--degree", degree, "--rep", rep],
            st.integers(-1, 9).map(str) | _JUNK,
            _REP,
        ),
        st.just(""),
    ),
)


class TestMainFuzz:
    @given(_INVOCATIONS)
    @example((["check", "-"], "# name: d3\n3\n1 3 2\n3 2 1\n2 1 3\n"))
    @example((["closure", "-", "--seed", "1"], "2\n2 1\n2 1\n"))
    @example((["obstruct", "--profile", "1^2 6 10 15", "--scope", "crossed-sets"], ""))
    @example((["obstruct", "--profile", "2 4294967297"], ""))
    @example((["make", "conj", "--degree", "9", "--rep", "(1 2)(3 4)"], ""))
    def test_main_exits_0_1_or_2(self, invocation):
        argv, stdin = invocation
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        assert code in (0, 1), argv
