import contextlib
import io
import json
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from goldmanab import cli, int_ideals
from goldmanab.abelian import abelianize
from goldmanab.bracket import bracket
from goldmanab.cli import main
from goldmanab.selftest import run_selftest
from goldmanab.symplectic import MAX_RANK, intersection_pairing

from conftest import signatures, words


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestComputeCommands:
    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--closed", "1", "a1^2 a2", "a1 a2^3")
        assert code == 0
        assert json.loads(out) == {"value": "5"}

    def test_pair_value_is_a_string(self, capsys):
        _, out, _ = run_cli(capsys, "pair", "--closed", "1", "a1", "a1")
        assert json.loads(out) == {"value": "0"}

    def test_center(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--boundary", "1", "3")
        assert code == 0
        assert json.loads(out) == {"generators": ["a3", "a4"]}

    def test_center_closed_is_empty(self, capsys):
        _, out, _ = run_cli(capsys, "center", "--closed", "2")
        assert json.loads(out) == {"generators": []}

    def test_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--closed", "1", "a1^2 a2", "a1 a2^3")
        assert code == 0
        assert json.loads(out) == {
            "ring": "Z",
            "terms": [{"exp": [3, 4], "coef": "5"}],
        }

    def test_ab_cancellation(self, capsys):
        code, out, _ = run_cli(
            capsys, "ab", "--closed", "1", "--coefs", "1,-1", "a1 a2 a1^-1", "a2"
        )
        assert code == 0
        assert json.loads(out) == {"ring": "Z", "terms": []}

    def test_ab_rational_coefficients(self, capsys):
        _, out, _ = run_cli(capsys, "ab", "--closed", "1", "--coefs", "1/2", "a1")
        assert json.loads(out) == {"ring": "Q", "terms": [{"exp": [1, 0], "coef": "1/2"}]}

    def test_ab_infers_q_from_any_non_integer_coefficient(self, capsys):
        _, out, _ = run_cli(capsys, "ab", "--closed", "1", "--coefs", "0.5", "a1")
        assert json.loads(out) == {"ring": "Q", "terms": [{"exp": [1, 0], "coef": "1/2"}]}
        _, out, _ = run_cli(capsys, "ab", "--closed", "1", "--coefs", "1_000,-2", "a1", "a2")
        assert json.loads(out)["ring"] == "Z"
        assert_input_error(capsys, "ab", "--closed", "1", "--ring", "Z", "--coefs", "0.5", "a1")
        assert_input_error(capsys, "ab", "--closed", "1", "--coefs=1/0", "a1")

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "text", "pair", "--closed", "1", "a1", "a2")
        assert code == 0
        assert out == 'value: "1"\n'


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


class TestWordCommandsMatchTheLibrary:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from("ZQ"))
    def test_bracket_and_pair(self, data, ring):
        sig = data.draw(signatures())
        u, v = data.draw(words(sig.n)), data.draw(words(sig.n))
        surface = (["--closed", str(sig.genus)] if sig.is_closed
                   else ["--boundary", str(sig.genus), str(sig.boundary)])
        # The bracket of the abelianized words, each with coefficient 1 in the ring.
        expected = bracket(sig, abelianize([(1, u)], sig.n, ring), abelianize([(1, v)], sig.n, ring))
        assert _stdout("bracket", "--ring", ring, *surface, str(u), str(v)) == (
            json.dumps(expected.to_json_obj(), indent=2) + "\n")
        assert _stdout("pair", *surface, str(u), str(v)) == (
            json.dumps({"value": str(intersection_pairing(sig, u, v))}, indent=2) + "\n")


class TestIdealCommands:
    def test_ideal_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "ik",
            "--K", "[(1,0)]", "--box", "10", "--samples", "500", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["seed"] == 7
        assert "counterexample" not in report

    def test_ideal_check_rejects_corrupted_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "table",
            "--table", '{"radius": 2, "values": [[[1,0],2],[[1,1],3]]}',
            "--box", "2", "--seed", "1", "--exhaustive",
        )
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] is False
        assert "counterexample" in report

    def test_ik_family(self, capsys):
        code, out, _ = run_cli(capsys, "ik-family", "--K0", "[(1,0)]", "--count", "2")
        assert code == 0
        assert json.loads(out) == {
            "submodules": [{"K": [[1, 0]]}, {"K": [[-2, -2], [1, 0]]}]
        }

    def test_closure_and_membership(self, capsys):
        gen = json.dumps(
            {
                "ring": "Q",
                "terms": [
                    {"exp": [1, 0, 0], "coef": "2"},
                    {"exp": [1, 0, 1], "coef": "3"},
                    {"exp": [0, 0, 2], "coef": "5"},
                ],
            }
        )
        code, out, _ = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", gen)
        assert code == 0
        ideal = json.loads(out)
        assert ideal["labels"] == [[{"c": [0, 0, 0], "q": "1"}, {"c": [0, 0, 1], "q": "3/2"}]]
        assert ideal["central_basis"] == [
            {"ring": "Q", "terms": [{"exp": [0, 0, 2], "coef": "1"}]}
        ]

        member = json.dumps({"ring": "Q", "terms": [{"exp": [0, 0, 2], "coef": "9"}]})
        code, out, _ = run_cli(
            capsys, "ideal-member", "--boundary", "1", "2",
            "--ideal", json.dumps(ideal), "--elem", member,
        )
        assert code == 0 and json.loads(out) == {"verdict": True}

        outsider = json.dumps({"ring": "Q", "terms": [{"exp": [0, 0, 1], "coef": "1"}]})
        code, out, _ = run_cli(
            capsys, "ideal-member", "--boundary", "1", "2",
            "--ideal", json.dumps(ideal), "--elem", outsider,
        )
        assert code == 1 and json.loads(out) == {"verdict": False}


class TestChainCommands:
    def test_project(self, capsys):
        code, out, _ = run_cli(capsys, "chain-project", "--n", "1", "--c", "1", "a1^5")
        assert code == 0
        assert json.loads(out) == {"word": "a1"}

    def test_project_identity_output(self, capsys):
        _, out, _ = run_cli(capsys, "chain-project", "--n", "2", "--c", "1", "a1^4")
        assert json.loads(out) == {"word": ""}

    def test_project_at_a_huge_level(self, capsys):
        code, out, _ = run_cli(capsys, "chain-project", "--n", str(10**12), "--c", "1", "a1^3 a2")
        assert code == 0
        assert json.loads(out) == {"word": "a1^3 a2"}

    def test_separate_finds_level(self, capsys):
        code, out, _ = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "12", "a1^4", "")
        assert code == 0
        assert json.loads(out) == {"level": 3}

    def test_separate_conjugate_pair(self, capsys):
        code, out, _ = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "5", "a1 a2", "a2 a1")
        assert code == 1
        assert json.loads(out) == {"result": "conjugate"}

    def test_separate_budget_exhausted(self, capsys):
        code, out, _ = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "2", "a1^8", "")
        assert code == 1
        assert json.loads(out) == {"result": "not separated", "nmax": 2}


class TestErrorHandling:
    def test_malformed_word(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--closed", "1", "b1", "a1")
        assert code == 2
        assert out == "" and "malformed" in err

    def test_generator_outside_surface_alphabet(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--closed", "1", "a3", "a1")
        assert code == 2 and "out of range" in err

    def test_bad_surface(self, capsys):
        code, _, err = run_cli(capsys, "center", "--closed", "0")
        assert code == 2 and "genus" in err

    def test_bad_ideal_json(self, capsys):
        code, _, err = run_cli(
            capsys, "ideal-member", "--closed", "1", "--ideal", "{", "--elem", "{}"
        )
        assert code == 2 and "invalid JSON" in err

    def test_generator_json_without_keys(self, capsys):
        code, out, err = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", "{}")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_exception_tuple_of_wrong_length(self, capsys):
        code, out, err = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "ik",
            "--K", "[(1,0,0)]", "--seed", "1",
        )
        assert code == 2 and out == "" and "length" in err

    def test_zero_denominator_coefficient(self, capsys):
        code, out, err = run_cli(capsys, "ab", "--closed", "1", "--coefs=1/0", "a1")
        assert code == 2 and out == "" and "coefficient" in err

    def test_zero_denominator_in_element_json(self, capsys):
        elem = json.dumps({"ring": "Q", "terms": [{"exp": [1, 0, 0], "coef": "1/0"}]})
        code, out, _ = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", elem)
        assert code == 2 and out == ""

    def test_negative_nmax(self, capsys):
        code, out, err = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "-3", "a1", "a2")
        assert code == 2 and out == "" and "--nmax" in err

    @pytest.mark.parametrize("c", ["0", "-2"])
    @pytest.mark.parametrize("words, n", [(("a1", "a1"), 1), (("a1", "a2"), 2)],
                             ids=["conjugate", "distinct"])
    def test_chain_separate_rejects_c_below_one(self, capsys, c, words, n):
        code, out, err = run_cli(capsys, "chain-separate", "--c", c, "--nmax", "3", *words)
        assert code == 2 and out == ""
        assert err == f"error: distinguished generator {c} out of range 1..{n}\n"

    def test_fractional_exponent_in_element_json(self, capsys):
        elem = json.dumps({"ring": "Q", "terms": [{"exp": [1.7, 0, 0], "coef": "1"}]})
        code, out, err = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", elem)
        assert code == 2 and out == "" and "exact integer" in err

    def test_fractional_exception_tuple(self, capsys):
        code, out, err = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "ik",
            "--K", "[(1.5,0)]", "--seed", "1",
        )
        assert code == 2 and out == "" and "exact integer" in err

    def test_fractional_base_tuple(self, capsys):
        code, out, err = run_cli(capsys, "ik-family", "--K0", "[(1.5,0)]", "--count", "2")
        assert code == 2 and out == "" and "exact integer" in err

    def test_fractional_table_key(self, capsys):
        table = json.dumps({"radius": 1, "values": [[[0.5, 0], 2]]})
        code, out, err = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "table",
            "--table", table, "--seed", "1",
        )
        assert code == 2 and out == "" and "exact integer" in err

    def test_element_of_wrong_length(self, capsys):
        elem = json.dumps({"ring": "Q", "terms": [{"exp": [1, 0], "coef": "1"}]})
        code, out, err = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", elem)
        assert code == 2 and out == "" and "length" in err

    def test_negative_selftest_scale(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--seed", "1", "--scale", "-1")
        assert code == 2 and out == "" and "scale" in err

    def test_non_finite_selftest_scale(self, capsys):
        for scale in ("nan", "inf"):
            code, out, err = run_cli(capsys, "selftest", "--seed", "1", "--scale", scale)
            assert code == 2 and out == "" and "scale" in err

    def test_selftest_scale_over_the_sample_cap(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--seed", "1", "--scale", "1e9")
        assert code == 2 and out == "" and "cap" in err

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "goldmanab", "no-such-command"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_seed_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "goldmanab", "selftest"],
            capture_output=True,
        )
        assert proc.returncode == 2


def assert_input_error(capsys, *argv):
    """Exit 2, nothing on stdout, one error line and no traceback on stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    return err


IK_CHECK = ("ideal-check", "--closed", "1", "--rule", "ik", "--K", "[(1,0)]", "--seed", "1")
MEMBER = ("ideal-member", "--boundary", "1", "2")
ELEM = json.dumps({"ring": "Q", "terms": [{"exp": [1, 0, 0], "coef": "1"}]})


def ideal_json(labels=(), central_basis=()):
    return json.dumps({"labels": list(labels), "central_basis": list(central_basis)})


class TestInputErrorBoundary:
    @pytest.mark.parametrize("table", ["[]", "5", '"x"', "null"])
    def test_table_that_is_not_an_object(self, capsys, table):
        err = assert_input_error(
            capsys, "ideal-check", "--closed", "1", "--rule", "table", "--table", table, "--seed", "1"
        )
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "table",
        [
            {"radius": 1.9, "values": [[[1, 0], 2]]},
            {"radius": 1, "values": [[[1, 0], 2.5]]},
            {"radius": 1, "default": 1.5},
        ],
    )
    def test_float_numbers_in_table(self, capsys, table):
        err = assert_input_error(
            capsys, "ideal-check", "--closed", "1", "--rule", "table",
            "--table", json.dumps(table), "--box", "1", "--seed", "1", "--exhaustive",
        )
        assert "exact integer" in err

    def test_table_without_radius(self, capsys):
        err = assert_input_error(
            capsys, "ideal-check", "--closed", "1", "--rule", "table", "--table", "{}", "--seed", "1"
        )
        assert "missing key 'radius'" in err

    @pytest.mark.parametrize("ring, coef", [("Q", 0.1), ("Z", 1.7)])
    def test_float_coefficient_in_element(self, capsys, ring, coef):
        elem = json.dumps({"ring": ring, "terms": [{"exp": [0, 0, 1], "coef": coef}]})
        err = assert_input_error(capsys, *MEMBER, "--ideal", ideal_json(), "--elem", elem)
        assert "string or an integer" in err

    def test_float_coefficient_in_generator(self, capsys):
        gen = json.dumps({"ring": "Q", "terms": [{"exp": [1, 0, 0], "coef": 0.1}]})
        assert_input_error(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", gen)

    def test_float_label_weight(self, capsys):
        label = [{"c": [0, 0, 0], "q": "1"}, {"c": [0, 0, 1], "q": 0.5}]
        assert_input_error(capsys, *MEMBER, "--ideal", ideal_json([label]), "--elem", ELEM)

    @pytest.mark.parametrize("elem", [ELEM, json.dumps({"ring": "Q", "terms": []})])
    def test_label_of_wrong_length(self, capsys, elem):
        ideal = ideal_json([[{"c": [0, 0], "q": "1"}]])
        err = assert_input_error(capsys, *MEMBER, "--ideal", ideal, "--elem", elem)
        assert "length" in err

    def test_non_central_label(self, capsys):
        ideal = ideal_json([[{"c": [0, 0, 0], "q": "1"}, {"c": [1, 0, 0], "q": "2"}]])
        err = assert_input_error(capsys, *MEMBER, "--ideal", ideal, "--elem", ELEM)
        assert "central" in err

    def test_central_row_of_wrong_length(self, capsys):
        row = {"ring": "Q", "terms": [{"exp": [0, 1], "coef": "1"}]}
        elem = json.dumps({"ring": "Q", "terms": [{"exp": [0, 0, 1], "coef": "1"}]})
        err = assert_input_error(capsys, *MEMBER, "--ideal", ideal_json((), [row]), "--elem", elem)
        assert "length" in err

    def test_negative_samples(self, capsys):
        err = assert_input_error(capsys, *IK_CHECK, "--samples", "-5")
        assert "samples" in err

    @pytest.mark.parametrize("exhaustive", [(), ("--exhaustive",)])
    def test_negative_box(self, capsys, exhaustive):
        err = assert_input_error(capsys, *IK_CHECK, "--box", "-1", *exhaustive)
        assert "radius" in err

    def test_ideal_json_that_is_not_an_object(self, capsys):
        assert_input_error(capsys, *MEMBER, "--ideal", "[]", "--elem", ELEM)

    def test_missing_key_is_named(self, capsys):
        err = assert_input_error(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", "{}")
        assert "missing key 'ring'" in err

    def test_integer_generator_refused(self, capsys):
        gen = json.dumps({"ring": "Z", "terms": [{"exp": [1, 0, 0], "coef": "1"}]})
        err = assert_input_error(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", gen)
        assert "rational" in err

    DEEP_JSON = "[" * 5000
    DEEP_TUPLES = "+" * 5000 + "1"

    @pytest.mark.parametrize("argv", [
        ("ideal-closure", "--closed", "1", "--gen", DEEP_JSON),
        (*MEMBER, "--ideal", DEEP_JSON, "--elem", ELEM),
        (*MEMBER, "--ideal", ideal_json(), "--elem", DEEP_JSON),
        ("ideal-check", "--closed", "1", "--rule", "table", "--table", DEEP_JSON, "--seed", "1"),
        ("ik-family", "--K0", DEEP_TUPLES, "--count", "1"),
        ("ik-family", "--K0", "+" * 100_000 + "1", "--count", "1"),
        ("ideal-check", "--closed", "1", "--rule", "ik", "--K", DEEP_TUPLES, "--seed", "1"),
    ], ids=["gen", "ideal", "elem", "table", "K0", "K0-parser-stack", "K"])
    def test_deeply_nested_input(self, capsys, argv):
        # The JSON decoder and the Python parser give up with RecursionError,
        # or MemoryError when the parser's own stack overflows.
        assert_input_error(capsys, *argv)

    def test_program_fault_keeps_its_traceback(self, monkeypatch):
        def broken(args):
            raise AttributeError("a fault of the program, not of the input")

        monkeypatch.setattr(cli, "_cmd_center", broken)
        with pytest.raises(AttributeError):
            main(["center", "--closed", "1"])


class TestSelftestCommand:
    def test_scale_zero_is_noop_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "1", "--scale", "0")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert all(s["samples"] == 0 for s in report["suites"])

    def test_small_scale_passes_and_echoes_seed(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "9", "--scale", "0.01")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 9
        assert report["all_passed"] is True

    def test_negative_scale_refused(self):
        with pytest.raises(ValueError, match="scale"):
            run_selftest(1, -1)

    def test_byte_identical_reports(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "goldmanab", "selftest", "--seed", "42",
                 "--scale", "0.02"],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout


class TestStartup:
    def test_cli_import_loads_neither_dataclasses_nor_selftest(self):
        code = ("import sys, goldmanab.cli; print(sorted("
                "{'dataclasses', 'inspect', 'goldmanab.selftest'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")


class TestInjectedFault:
    def test_flipped_pairing_sign_breaks_jacobi_suite(self, monkeypatch):
        # Mutation check: flip the sign of <a1, a2> inside the bracket's
        # pairing row without flipping its mirror entry.  The form stops
        # being antisymmetric, so the bracket suites must fail with a
        # counterexample.
        import importlib

        bracket_mod = importlib.import_module("goldmanab.bracket")
        from goldmanab import selftest as st_mod
        from goldmanab.symplectic import _pairing_row as true_row

        def corrupted(genus, x):
            row = true_row(genus, x)
            row[1] -= 2 * x[0]
            return row

        monkeypatch.setattr(bracket_mod, "_pairing_row", corrupted)
        report = st_mod.run_selftest(3, scale=0.05)
        assert report["all_passed"] is False
        failing = {
            (s["suite"], f["property"])
            for s in report["suites"]
            for f in s["failures"]
        }
        assert ("bracket", "jacobi") in failing
        assert ("bracket", "antisymmetry") in failing
        for suite in report["suites"]:
            for failure in suite["failures"]:
                assert "counterexample" in failure
        # The shrunken counterexamples of both shrink paths, elements and
        # words, are pinned: the shrinker must keep its greedy order.
        found = {
            f["property"]: f["counterexample"]
            for s in report["suites"] if s["suite"] == "bracket"
            for f in s["failures"]
        }
        assert found["antisymmetry"] == {
            "element_0": {"ring": "Q", "terms": [{"exp": [-5, -1], "coef": "-1"},
                                                 {"exp": [-1, -4], "coef": "-1"}]},
            "element_1": {"ring": "Q", "terms": [{"exp": [5, -1], "coef": "-1"},
                                                 {"exp": [5, 3], "coef": "1"}]},
            "sig": "closed genus 1",
        }
        assert found["matches_intersection_number"] == {
            "word_0": "a1^-1",
            "word_1": "a2",
            "sig": "genus 1 with 2 boundary components",
        }


TABLE_CHECK = ("ideal-check", "--closed", "1", "--rule", "table", "--seed", "1", "--table")


class TestJsonShapeErrors:
    """JSON of the wrong shape exits 2 with a message naming the option and the shape."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("ideal-closure", "--closed", "1", "--gen", "[]"),
             "--gen: a module element must be a JSON object, got a list"),
            (("ideal-closure", "--closed", "1", "--gen", '{"ring": "Q", "terms": 5}'),
             "--gen: 'terms' of a module element must be a JSON list, got a number"),
            (("ideal-closure", "--closed", "1", "--gen", '{"ring": "Q", "terms": [[1, 2]]}'),
             "--gen: a term of a module element must be a JSON object, got a list"),
            (("ideal-closure", "--closed", "1", "--gen",
              '{"ring": "Q", "terms": [{"exp": 3, "coef": "1"}]}'),
             "--gen: 'exp' of a term must be a JSON list, got a number"),
            ((*MEMBER, "--ideal", '{"labels": {}, "central_basis": 3}', "--elem", ELEM),
             "--ideal: 'labels' of an ideal must be a JSON list, got an object"),
            ((*MEMBER, "--ideal", '{"labels": [], "central_basis": 3}', "--elem", ELEM),
             "--ideal: 'central_basis' of an ideal must be a JSON list, got a number"),
            ((*MEMBER, "--ideal", '{"labels": [{"c": [0, 0, 0]}], "central_basis": []}',
              "--elem", ELEM),
             "--ideal: a label must be a JSON list, got an object"),
            ((*MEMBER, "--ideal", '{"labels": [[5]], "central_basis": []}', "--elem", ELEM),
             "--ideal: a pair of a label must be a JSON object, got a number"),
            ((*MEMBER, "--ideal", '{"labels": [[{"c": 0, "q": "1"}]], "central_basis": []}',
              "--elem", ELEM),
             "--ideal: 'c' of a label pair must be a JSON list, got a number"),
            ((*MEMBER, "--ideal", ideal_json(), "--elem", '"x"'),
             "--elem: a module element must be a JSON object, got a string"),
            ((*TABLE_CHECK, '{"radius": 1, "values": 5}'),
             "--table: 'values' of the table must be a JSON list, got a number"),
            ((*TABLE_CHECK, '{"radius": 1, "values": [[1, 0]]}'),
             "--table: the exponents of a table entry must be a JSON list, got a number"),
            ((*TABLE_CHECK, '{"radius": 1, "values": [[[1, 0], 2, 3]]}'),
             "--table: each entry of 'values' must be a JSON list [exponents, value]"),
            ((*TABLE_CHECK, '{"radius": 1, "values": [7]}'),
             "--table: each entry of 'values' must be a JSON list [exponents, value]"),
        ],
    )
    def test_message_says_what_was_expected(self, capsys, argv, expected):
        err = assert_input_error(capsys, *argv)
        assert err == f"error: {expected}\n"


class TestLimits:
    @pytest.mark.parametrize("argv", [
        ("--K0", "[]", "--n", "-1", "--count", "1"),
        ("--K0", "[]", "--n", "0", "--count", "1"),
        ("--K0", "[]", "--n", "0", "--count", "2"),
        ("--K0", "[()]", "--count", "2"),
    ])
    def test_ik_family_needs_a_positive_tuple_length(self, capsys, argv):
        err = assert_input_error(capsys, "ik-family", *argv)
        assert "tuple length must be >= 1" in err

    def test_ik_family_over_the_cap(self, capsys):
        err = assert_input_error(capsys, "ik-family", "--K0", "[(1,0)]", "--count", "500")
        assert f"more than the cap of {int_ideals.MAX_FAMILY_TUPLES}" in err

    def test_ik_family_of_long_tuples_returns_at_once(self):
        # No tuple of the radius-1 shell (3^40 of them) has a gcd above 1.
        k0 = "[(" + ",".join(["1"] + ["0"] * 39) + ")]"
        proc = subprocess.run(
            [sys.executable, "-m", "goldmanab", "ik-family", "--K0", k0, "--count", "3"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        base, added = [1] + [0] * 39, [[-2] * 40, [-2] * 39 + [0]]
        assert json.loads(proc.stdout) == {
            "submodules": [{"K": sorted([base, *added[:j]])} for j in range(3)]
        }

    def test_exhaustive_sweep_over_the_cap(self, capsys):
        err = assert_input_error(
            capsys, "ideal-check", "--closed", "2", "--rule", "ik", "--K", "[]",
            "--box", "30", "--seed", "1", "--exhaustive",
        )
        assert f"visits {61 ** 8} pairs" in err

    def test_exhaustive_sweep_far_over_the_cap(self, capsys):
        start = time.perf_counter()
        err = assert_input_error(
            capsys, "ideal-check", "--closed", "50000", "--rule", "ik", "--K", "[]",
            "--box", "1000", "--exhaustive", "--seed", "1",
        )
        assert time.perf_counter() - start < 1
        assert f"more than the cap of {int_ideals.MAX_EXHAUSTIVE_PAIRS}" in err

    def test_sampled_check_over_the_cap(self, capsys):
        err = assert_input_error(capsys, *IK_CHECK, "--box", "3", "--samples", "1000000000000")
        assert f"1000000000000 samples exceed the cap of {int_ideals.MAX_EXHAUSTIVE_PAIRS}" in err

    def test_table_over_the_cap(self, capsys):
        err = assert_input_error(
            capsys, "ideal-check", "--closed", "2", "--rule", "table",
            "--table", '{"radius": 12}', "--seed", "1",
        )
        assert f"25^4 entries, more than the cap of {int_ideals.MAX_TABLE_ENTRIES}" in err

    @pytest.mark.parametrize("surface", [
        ("--closed", "99999999999"), ("--boundary", "0", str(MAX_RANK + 2))])
    def test_rank_over_the_cap(self, capsys, surface):
        err = assert_input_error(capsys, "pair", *surface, "a1", "a1")
        assert f"exceeds MAX_RANK = {MAX_RANK}" in err

    def test_sampled_check_drawing_too_many_coordinates(self):
        # A radius-0 table fits the table cap at any n; 10^7 samples on
        # n = 10^6 would draw 2*10^13 coordinates.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "goldmanab", "ideal-check", "--closed", "500000",
             "--rule", "table", "--table", '{"radius": 0}', "--box", "1",
             "--samples", "10000000", "--seed", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert f"more than the cap of {int_ideals.MAX_SAMPLED_DRAWS}" in proc.stderr
