import io
import json
import os
import subprocess
import sys
import time
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

import rackq as rq
from rackq import cli
from rackq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv)


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
        assert "--per-point" in err

    def test_per_point_output(self, capsys, monkeypatch):
        _, table_text, _ = run(capsys, "make", "trivial", "3")
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, table_text, "profile", "-", "--per-point"
        )
        assert code == 0
        assert out.splitlines() == ["1: 1^3", "2: 1^3", "3: 1^3"]


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

    def test_threads_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "3", "--threads", "2")
        assert code == 0
        assert json.loads(out)["total_up_to_iso"] == 6

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


class TestParserFuzz:
    @given(text=st.lists(_PIECES, max_size=4).map("".join), degree=st.integers(-1, 9))
    @example(text="9" * 5000, degree=3)
    @example(text="1 2^" + "9" * 5000, degree=3)
    @example(text=f"({'9' * 5000})", degree=3)
    @example(text=f"5,{'0' * 5000}2", degree=3)
    def test_text_parsers_answer_or_raise_typed_errors(self, text, degree):
        parsers = (rq.parse_profile, cli._parse_point_list, partial(cli._parse_cycle_notation, degree))
        for parse in parsers:
            try:
                parse(text)
            except (ValueError, rq.RackError) as exc:
                assert "Exceeds the limit" not in str(exc)
