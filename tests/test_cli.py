import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from parkfact.cli import _VIA_INPUT_KIND, main
from parkfact.parking import parking_enumerators
from parkfact.polynomials import tree_recursion_I


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_inversion_enumerator_text(self, capsys):
        code, out, _ = run(capsys, "poly", "--name", "I", "--n", "2")
        assert code == 0
        assert out == "t^2 + t^3 + q*t^2\n"

    def test_json_terms(self, capsys):
        code, out, _ = run(capsys, "poly", "--name", "I", "--n", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"q": 0, "t": 2, "c": "1"},
            {"q": 0, "t": 3, "c": "1"},
            {"q": 1, "t": 2, "c": "1"},
        ]

    def test_all_names_agree_at_n2(self, capsys):
        results = {}
        for name in ["I", "F", "B", "jump"]:
            code, out, _ = run(capsys, "poly", "--name", name, "--n", "2")
            assert code == 0
            results[name] = out
        assert len(set(results.values())) == 1

    def test_parking_names_read_the_parking_enumerators(self, capsys):
        enums = parking_enumerators(4)
        for name, poly in (("area", enums.area), ("bounce", enums.bounce),
                           ("jump", enums.jump_cojump), ("B", enums.pinv_copinv)):
            code, out, _ = run(capsys, "poly", "--name", name, "--n", "4")
            assert code == 0
            assert out == f"{poly}\n"

    def test_f_with_sigma(self, capsys):
        code, out, _ = run(capsys, "poly", "--name", "F", "--n", "3",
                           "--sigma", "0 1 3 2")
        assert code == 0
        assert "q^2*t^5" in out

    def test_safety_limit(self, capsys):
        code, _, err = run(capsys, "poly", "--name", "F", "--n", "99")
        assert code == 1
        assert "safety limit" in err

    def test_recursion_names_have_no_safety_limit(self, capsys, monkeypatch):
        monkeypatch.delenv("PARKFACT_MAX_N", raising=False)
        code, out, _ = run(capsys, "poly", "--name", "I", "--n", "9")
        assert code == 0
        assert out == str(tree_recursion_I(9)[9]) + "\n"
        for name in ("C", "D"):
            code, _, _ = run(capsys, "poly", "--name", name, "--n", "9")
            assert code == 0
        code, _, err = run(capsys, "poly", "--name", "F", "--n", "9")
        assert code == 1
        assert "safety limit" in err
        code, _, err = run(capsys, "poly", "--name", "I", "--n", "-1")
        assert code == 1
        assert "nonnegative" in err

    def test_limit_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKFACT_MAX_N", "2")
        code, _, err = run(capsys, "poly", "--name", "B", "--n", "3")
        assert code == 1
        monkeypatch.setenv("PARKFACT_MAX_N", "9")
        code, out, _ = run(capsys, "poly", "--name", "B", "--n", "3")
        assert code == 0


class TestMap:
    def test_l_inverse_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "map", "--from", "parking", "--via", "l-inverse",
            "--sigma", "0 1 2 3 4 5 6", "--input", "2,4,0,1,4,0",
        )
        assert code == 0
        assert out == "(2 3)(4 5)(0 2)(1 2)(4 6)(0 4)\n"

    def test_lower_upper(self, capsys):
        text = "(1 2)(3 5)(1 3)(7 8)(0 6)(7 9)(0 7)(1 6)(4 5)"
        code, out, _ = run(capsys, "map", "--via", "lower", "--input", text)
        assert (code, out) == (0, "1,3,1,7,0,7,0,1,4\n")
        code, out, _ = run(capsys, "map", "--via", "upper", "--input", text)
        assert (code, out) == (0, "2,5,3,8,6,9,7,6,5\n")

    def test_theta_round_trip(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "theta", "--input", "0,0")
        assert code == 0
        tree_text = out.strip()
        code, out, _ = run(capsys, "map", "--via", "theta-inverse",
                           "--input", tree_text)
        assert (code, out) == (0, "0,0\n")

    def test_push(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "push",
                           "--input", "1,3,1,7,0,7,0,1,4")
        assert (code, out) == (0, "2,5,3,8,6,9,7,6,5\n")

    def test_arch_fact_round_trip(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "arch",
                           "--input", "(1 4)(1 5)(3 4)(0 2)(0 4)",
                           "--sigma", "0 2 4 5 1 3")
        assert code == 0
        code, out2, _ = run(capsys, "map", "--via", "fact",
                            "--input", out.strip(), "--sigma", "0 2 4 5 1 3")
        assert (code, out2) == (0, "(1 4)(1 5)(3 4)(0 2)(0 4)\n")

    def test_phi_k(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "phi-k", "--k", "2",
                           "--input", "(0 1)(0 2)")
        assert (code, out) == (0, "(0 1)\n")

    def test_u_inverse(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "u-inverse",
                           "--input", "1", "--sigma", "0 1")
        assert (code, out) == (0, "(0 1)\n")

    def test_complement(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "complement", "--input", "0,1,0")
        assert (code, out) == (0, "3,2,3\n")

    def test_invalid_input_exits_one(self, capsys):
        code, _, err = run(capsys, "map", "--via", "l-inverse", "--input", "1,1")
        assert code == 1
        assert "error" in err

    def test_malformed_input_is_one_error_line(self, capsys):
        for argv in (
            ("map", "--via", "fact", "--input", '{"n":1}'),
            ("map", "--via", "theta-inverse", "--input", "0:-,1:0,1:0,2:1"),
            ("map", "--via", "fact", "--input", '{"n": 1, "arcs": [5]}'),
            ("map", "--via", "fact", "--input", '{"n": 1, "arcs": 5}'),
            ("map", "--via", "fact", "--input", '{"n": 1, "arcs": [[0, 1, null]]}'),
            ("map", "--via", "fact", "--input", '{"n": null, "arcs": []}'),
            ("map", "--via", "fact", "--input", '{"n": 1, "arcs": [[0, 1, 1.7]]}'),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_non_unimodal_sigma_exits_one(self, capsys):
        code, _, err = run(capsys, "map", "--via", "l-inverse",
                           "--input", "0,0,0", "--sigma", "0 2 1 3")
        assert code == 1
        assert "unimodal" in err


class TestEnumerate:
    def test_trees(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "trees", "--n", "2")
        assert code == 0
        assert sorted(out.splitlines()) == [
            "0:-,1:0,2:0", "0:-,1:0,2:1", "0:-,1:2,2:0",
        ]

    def test_parking_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "parking", "--n", "2",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [tuple(r["entries"]) for r in rows] == [(0, 0), (0, 1), (1, 0)]

    def test_factorizations_with_sigma(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "factorizations",
                           "--n", "3", "--sigma", "0 1 3 2")
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_unimodal(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "unimodal", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["(0 3 2 1)", "(0 1 3 2)", "(0 2 3 1)", "(0 1 2 3)"]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--kind", "arch", "--n", "3")
        _, second, _ = run(capsys, "enumerate", "--kind", "arch", "--n", "3")
        assert first == second

    def test_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--kind", "trees", "--n", "9")
        assert code == 1


class TestStats:
    def test_parking(self, capsys):
        code, out, _ = run(capsys, "stats", "--kind", "parking",
                           "--input", "1,3,1,7,0,7,0,1,4")
        assert code == 0
        record = dict(line.split(": ", 1) for line in out.splitlines())
        assert record["area"] == "12"
        assert record["bounce"] == "22"
        assert record["pinv"] == "8"
        assert record["copinv"] == "14"
        assert record["jump"] == "12"

    def test_tree_json(self, capsys):
        code, out, _ = run(capsys, "stats", "--kind", "tree",
                           "--input", "0:-,1:0,2:1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert (record["inv"], record["coinv"], record["depth"]) == (0, 3, 3)

    def test_factorization(self, capsys):
        code, out, _ = run(capsys, "stats", "--kind", "factorization",
                           "--input", "(0 1)(0 2)", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["area_lower"] == 1
        assert record["area_upper"] == 2
        assert record["simple"] is True
        assert record["simple_index"] == 2

    def test_factorization_non_member(self, capsys):
        code, out, _ = run(capsys, "stats", "--kind", "factorization",
                           "--input", "(0 1)(0 1)", "--format", "json")
        assert code == 0
        assert "note" in json.loads(out)


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "worked-examples")
        assert code == 0
        assert out.startswith("PASS worked-examples")

    def test_all_suites_at_four(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "4")
        assert code == 0
        assert len(out.splitlines()) == 13
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_by_number(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "2")
        assert code == 0
        assert out.startswith("PASS polynomial-pins")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 1
        assert "unknown suite" in err

    def test_failure_exits_two_with_counterexample(self, capsys, monkeypatch):
        from parkfact import verify

        def broken(n_max=None):
            return verify.CheckResult("bounce", False, "counterexample: p=0,0")

        monkeypatch.setitem(verify.SUITES, "bounce", broken)
        code, out, _ = run(capsys, "verify", "--suite", "bounce")
        assert code == 2
        assert "FAIL bounce: counterexample: p=0,0" in out

    def test_internal_error_is_one_line_exit_two(self, capsys, monkeypatch):
        from parkfact import cli

        def broken(args):
            raise AssertionError("caps do not chain into a path")

        monkeypatch.setitem(cli._HANDLERS, "verify", broken)
        code, out, err = run(capsys, "verify", "--suite", "bounce")
        assert code == 2
        assert out == ""
        assert err == "internal error: caps do not chain into a path\n"


class TestRender:
    def test_path_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "--kind", "path",
                           "--input", "1,3,1,7,0,7,0,1,4", "--with-bounce")
        assert code == 0
        assert " b" in out

    def test_path_svg(self, capsys):
        code, out, _ = run(capsys, "render", "--kind", "path", "--input", "0,1,0",
                           "--format", "svg")
        assert code == 0
        assert out.startswith("<svg ")

    def test_arch(self, capsys):
        code, out, _ = run(capsys, "render", "--kind", "arch",
                           "--input", "(1 4)(1 5)(3 4)(0 2)(0 4)",
                           "--sigma", "0 2 4 5 1 3", "--format", "svg")
        assert code == 0
        assert out.count("<path") == 5

    def test_major_path(self, capsys):
        code, out, _ = run(capsys, "render", "--kind", "path", "--input",
                           "2,5,3,8,6,9,7,6,5", "--major")
        assert code == 0

    def test_bounce_requires_parking(self, capsys):
        code, _, err = run(capsys, "render", "--kind", "path", "--input", "2,1",
                           "--major", "--with-bounce")
        assert code == 1


class TestExplore:
    def test_n3_report(self, capsys):
        code, out, _ = run(capsys, "explore", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("I_3(q,t) = ")
        assert "(0 1 3 2): differs" in out
        assert "(0 1 2 3): equal" in out
        assert lines[-1].startswith("summary:")

    def test_cap(self, capsys):
        code, _, err = run(capsys, "explore", "--n", "7")
        assert code == 1
        assert "safety limit" in err


class TestParsing:
    def test_bad_subcommand(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run(capsys, "poly")
        assert code == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0,0\n"))
        code, out, _ = run(capsys, "map", "--via", "theta", "--input", "-")
        assert code == 0


# every subcommand that reads --input, with no --n so the object sets it
INPUT_COMMANDS = (
    [("stats", "--kind", kind) for kind in ("tree", "parking", "major", "factorization")]
    + [("map", "--via", via) for via in _VIA_INPUT_KIND]
    + [("map", "--via", "phi-k", "--k", "1")]
    + [("render", "--kind", kind) for kind in ("path", "arch")]
)

# short words over the wire formats' characters: numbers stay below 10^4,
# and "-" alone (read stdin) is left out
WIRE_TEXT = st.text("0123 ,:-()", max_size=8).filter(lambda text: text != "-")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.text("0n", max_size=2)
    | st.sampled_from([1.0, 1.7, math.inf, math.nan]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "arcs"]), inner, max_size=2),
    max_leaves=6,
)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code == 0 or (
        code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")
    ), (code, err)


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(INPUT_COMMANDS), WIRE_TEXT)
    def test_any_text_input_exits_zero_or_one_error_line(self, command, text):
        assert_clean_exit(*run_quietly([*command, f"--input={text}"]))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({"n": JSON_VALUES, "arcs": JSON_VALUES}) | JSON_VALUES)
    def test_any_json_arch_exits_zero_or_one_error_line(self, obj):
        text = json.dumps(obj)
        assert_clean_exit(*run_quietly(["map", "--via", "fact", f"--input={text}"]))
