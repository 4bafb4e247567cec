import hashlib
import importlib.util
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import tree_recursion_by_dict

from parkfact import cli, verify
from parkfact import factorizations as _fact
from parkfact.arch import arch_from_json, arch_to_factorization
from parkfact.cli import _VIAS, main
from parkfact.factorizations import enumerate_factorizations, restricted_enumerators
from parkfact.parking import (
    bounce,
    complement,
    copinv,
    enumerate_majors,
    enumerate_parking,
    parking_enumerators,
    pinv,
    to_path,
)
from parkfact.permutations import FullCycle
from parkfact.polynomials import tree_recursion_I
from parkfact.render import render_path_ascii

ROOT = Path(__file__).resolve().parent.parent
CLI = (sys.executable, "-m", "parkfact.cli")


def cli_env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


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
        monkeypatch.setenv("PARKFACT_MAX_N", "nine")
        code, out, err = run(capsys, "poly", "--name", "B", "--n", "3")
        assert (code, out) == (1, "")
        assert err == "error: PARKFACT_MAX_N must be an integer, got 'nine'\n"

    def test_restricted_names(self, capsys):
        r = restricted_enumerators(4)
        for name, poly in (("Fhat", r.simple), ("Finc", r.increasing),
                           ("Fdec", r.decreasing), ("Fmax", r.max_diff),
                           ("Fperm", r.perm_lower)):
            code, out, _ = run(capsys, "poly", "--name", name, "--n", "4")
            assert (code, out) == (0, f"{poly}\n")

    @pytest.mark.parametrize("name, family", [
        ("Fhat", "without_top"), ("Finc", "increasing"), ("Fdec", "decreasing"),
        ("Fmax", None), ("Fperm", "perm_lower"),
    ])
    def test_a_restricted_name_sums_only_its_family(self, capsys, monkeypatch, name, family):
        # F_n itself may be summed (family ""), no other restricted family
        block_sums, families = _fact._block_sums, set()

        def recording(sigma, family=""):
            families.add(family)
            return block_sums(sigma, family)

        monkeypatch.setattr(_fact, "_block_sums", recording)
        code, _, _ = run(capsys, "poly", "--name", name, "--n", "5")
        assert code == 0
        assert families - {""} == ({family} if family else set())

    @pytest.mark.parametrize("name", ["I", "B", "D", "C", "Fhat", "Finc", "Fdec",
                                      "Fmax", "Fperm", "area", "bounce", "jump"])
    def test_names_without_sigma_refuse_it(self, capsys, name):
        code, out, err = run(capsys, "poly", "--name", name, "--n", "3",
                             "--sigma", "0 2 1 3")
        assert (code, out, err) == (1, "", f"error: poly --name {name} does not read --sigma\n")


class TestMap:
    def test_l_inverse_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "map", "--via", "l-inverse",
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
        code, out, _ = run(capsys, "map", "--via", "phi-k-inverse", "--k", "2",
                           "--n", "2", "--input", "(0 1)")
        assert (code, out) == (0, "(0 1)(0 2)\n")
        code, out, err = run(capsys, "map", "--via", "phi-k", "--k", "4",
                             "--input", "(0 1)(0 1)(0 1)(0 2)")
        assert (code, out) == (1, "")
        assert "not a minimal factorization" in err

    def test_u_inverse(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "u-inverse",
                           "--input", "1", "--sigma", "0 1")
        assert (code, out) == (0, "(0 1)\n")

    def test_complement(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "complement", "--input", "0,1,0")
        assert (code, out) == (0, "3,2,3\n")
        code, out, _ = run(capsys, "map", "--via", "complement", "--input", "3,2,3")
        assert (code, out) == (0, "0,1,0\n")

    def test_either_family_is_read_off_the_entries(self, capsys):
        for n in range(5):
            for p in enumerate_parking(n):
                for value in (p, complement(p)):
                    code, out, _ = run(capsys, "map", "--via", "complement",
                                       "--input", str(value))
                    assert (code, out) == (0, f"{complement(value)}\n")
                    code, out, _ = run(capsys, "render", "--kind", "path",
                                       "--input", str(value))
                    assert (code, out) == (0, render_path_ascii(to_path(value)))

    def test_neither_family_is_one_error_line(self, capsys):
        for argv in (("map", "--via", "complement"), ("render", "--kind", "path")):
            code, out, err = run(capsys, *argv, "--input", "2,0")
            assert (code, out) == (1, "")
            assert err == ("error: neither a parking function nor a major "
                           "sequence: (2, 0)\n")

    def test_reflect_conjugate_reads_a_factorization_or_a_visit_word(self, capsys):
        for text, expected in (("0 2 1 3", "(0 3 1 2)"), ("(0 2 1 3)", "(0 3 1 2)"),
                               ("(0 1)(0 2)", "(1 2)(0 2)"), ("(0 1)", "(0 1)")):
            code, out, _ = run(capsys, "map", "--via", "reflect-conjugate",
                               "--input", text)
            assert (code, out) == (0, expected + "\n")

    def test_reflect_reverse(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "reflect-reverse",
                           "--input", "(0 1)(0 2)")
        assert (code, out) == (0, "(0 2)(1 2)\n")

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
            ("map", "--via", "theta", "--input", "(0,1"),
            ("map", "--via", "theta", "--input", "0,1)"),
            ("map", "--via", "theta", "--input", "((0,1))"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_non_unimodal_sigma_exits_one(self, capsys):
        code, _, err = run(capsys, "map", "--via", "l-inverse",
                           "--input", "0,0,0", "--sigma", "0 2 1 3")
        assert code == 1
        assert "unimodal" in err

    @pytest.mark.parametrize("argv, message", [
        (("map", "--via", "fact", "--input", '{"n": -1, "arcs": []}'),
         "ground set size must be nonnegative, got n = -1"),
        (("map", "--via", "phi-k-inverse", "--k", "1", "--n", "0", "--input", ""),
         "phi-k-inverse needs --n >= 1, got --n 0"),
    ])
    def test_a_ground_set_below_one_is_named_as_given(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_sigma_of_the_wrong_size_exits_one(self, capsys):
        code, out, err = run(capsys, "map", "--via", "l-inverse",
                             "--input", "0,0", "--sigma", "0 1 2 3")
        assert (code, out) == (1, "")
        assert err == "error: sigma is on [3] but the object needs [2]\n"


BIG = "1000000000"
OVER = 100_001  # one past the single-object cap
ASCII_CAP = 2_000  # the largest n render --format ascii draws


def star(n):
    return ",".join(["0:-", *(f"{v}:0" for v in range(1, n + 1))])


class TestSingleObjectCap:
    # n comes from --n, the largest factor entry, the arch JSON "n", the
    # number of sequence entries, the tree's largest vertex or the visit
    # word's largest entry; a billion would ask for a billion-element cycle
    # or product
    @pytest.mark.parametrize("argv", [
        ("map", "--via", "arch", "--input", f"(0 {BIG})"),
        ("map", "--via", "phi-k", "--k", "1", "--input", f"(0 {BIG})"),
        ("map", "--via", "phi-k-inverse", "--k", "1", "--n", BIG, "--input", ""),
        ("map", "--via", "fact", "--input", f'{{"n": {BIG}, "arcs": []}}'),
        ("stats", "--kind", "factorization", "--n", BIG, "--input", "(0 1)"),
        ("render", "--kind", "arch", "--input", f"(0 {BIG})"),
    ])
    def test_refused_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n = ") and "limit 100000" in err

    # each command here takes about a second or less at this size even
    # uncapped, so a missing cap fails the test instead of stalling it; the
    # quadratic ones (l-inverse, stats --kind parking) never run here
    @pytest.mark.parametrize("argv", [
        ("map", "--via", "theta", "--input", ",".join(["0"] * OVER)),
        ("stats", "--kind", "major", "--input", ",".join([str(OVER)] * OVER)),
        ("map", "--via", "complement", "--input", ",".join(["0"] * OVER)),
        ("map", "--via", "reflect-conjugate", "--input", " ".join(map(str, range(OVER + 1)))),
        ("map", "--via", "theta-inverse", "--input", star(OVER)),
    ])
    def test_every_shape_is_capped(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: n = {OVER} exceeds the single-object limit 100000\n"

    def test_the_cap_itself_is_allowed(self, capsys):
        code, out, _ = run(capsys, "map", "--via", "lower", "--input", "(0 100000)")
        assert (code, out) == (0, "0\n")
        code, _, err = run(capsys, "map", "--via", "lower", "--input", "(0 100001)")
        assert code == 1 and "limit 100000" in err
        cap = OVER - 1
        code, out, _ = run(capsys, "map", "--via", "complement",
                           "--input", ",".join(["0"] * cap))
        assert (code, out) == (0, ",".join([str(cap)] * cap) + "\n")
        code, out, _ = run(capsys, "map", "--via", "theta-inverse", "--input", star(cap))
        assert (code, out) == (0, ",".join(["0"] * cap) + "\n")

    def test_bounce_render_memory_stays_linear(self, capsys):
        # the renderers read only the bounce contacts; every D set of the
        # staircase holds the labels above its vertex, about n^2/2 in all,
        # 190.8 MiB at this size when they were built
        staircase = ",".join(map(str, range(2_000)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "render", "--kind", "path", "--with-bounce",
                                 "--format", "svg", "--input", staircase)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "") and "#cc0000" in out
        assert peak < 10 * 2**20, peak

    @pytest.mark.parametrize("staircase", [False, True])
    def test_push_is_linear_up_to_the_cap(self, capsys, staircase):
        # push must stay linear: a point-by-point diagonal walk took 3.5 s
        # on the staircase at n = 4,000 and would take about 35 minutes here
        def text(n):
            return ",".join(map(str, range(n) if staircase else [0] * n))

        cap = OVER - 1
        expected = [str(cap)] * cap if staircase else map(str, range(1, cap + 1))
        code, out, _ = run(capsys, "map", "--via", "push", "--input", text(cap))
        assert (code, out) == (0, ",".join(expected) + "\n")
        code, out, err = run(capsys, "map", "--via", "push", "--input", text(OVER))
        assert (code, out) == (1, "")
        assert err == f"error: n = {OVER} exceeds the single-object limit 100000\n"


# the options each map, stats and render entry reads, of --sigma, --n, --k
# and --with-bounce; every other of them that its subcommand declares is
# refused
READS = {
    **{("map", "--via", via): ("--n",) for via in ("lower", "L", "upper", "U")},
    ("map", "--via", "l-inverse"): ("--sigma",),
    ("map", "--via", "u-inverse"): ("--sigma",),
    ("map", "--via", "theta"): (),
    ("map", "--via", "theta-inverse"): (),
    ("map", "--via", "phi-k"): ("--n", "--k"),
    ("map", "--via", "phi-k-inverse"): ("--n", "--k"),
    ("map", "--via", "arch"): ("--sigma", "--n"),
    ("map", "--via", "fact"): ("--sigma",),
    ("map", "--via", "push"): (),
    ("map", "--via", "reflect-conjugate"): ("--n",),
    ("map", "--via", "reflect-reverse"): ("--n",),
    ("map", "--via", "complement"): (),
    **{("stats", "--kind", kind): () for kind in ("tree", "parking", "major")},
    ("stats", "--kind", "factorization"): ("--n",),
    ("render", "--kind", "path"): ("--with-bounce",),
    ("render", "--kind", "arch"): ("--sigma", "--n"),
}
DECLARED = {"map": ("--sigma", "--n", "--k"), "stats": ("--n",),
            "render": ("--sigma", "--n", "--with-bounce")}
OPTION_ARGV = {"--sigma": ("--sigma", "0 9 9"), "--n": ("--n", "7"), "--k": ("--k", "1"),
               "--with-bounce": ("--with-bounce",)}
# the map and stats entries that read --format json; every other map entry
# refuses it (render's --format takes svg or ascii, and both kinds read it)
FORMAT_READERS = {("map", "--via", "theta"),
                  *(command for command in READS if command[0] == "stats")}


class TestUnreadOptions:
    def test_every_entry_is_listed(self):
        assert sorted(command[2] for command in READS if command[0] == "map") == sorted(_VIAS)

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, reads in READS.items()
        for option in DECLARED[command[0]] if option not in reads
    ])
    def test_refused_with_one_error_line(self, capsys, command, option):
        code, out, err = run(capsys, *command, "--input", "0,0", *OPTION_ARGV[option])
        assert (code, out, err) == (1, "", f"error: {' '.join(command)} does not read {option}\n")

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, reads in READS.items() for option in reads
    ])
    def test_read_options_are_not_refused(self, capsys, command, option):
        _, _, err = run(capsys, *command, "--input", "0,0", *OPTION_ARGV[option])
        assert "does not read" not in err

    @pytest.mark.parametrize("command", [command for command in READS if command[0] != "render"])
    def test_format_is_refused_unless_read(self, capsys, command):
        code, out, err = run(capsys, *command, "--input", "0,0", "--format", "json")
        if command in FORMAT_READERS:
            assert "does not read" not in err
        else:
            assert (code, out, err) == (
                1, "", f"error: {' '.join(command)} does not read --format\n")

    def test_n_zero_counts_as_given(self, capsys):
        code, _, err = run(capsys, "map", "--via", "theta", "--input", "0", "--n", "0")
        assert (code, err) == (1, "error: map --via theta does not read --n\n")


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

    def test_majors(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "majors", "--n", "3")
        assert code == 0
        assert out.splitlines() == [str(m) for m in enumerate_majors(3)]

    def test_listing_memory_stays_flat(self):
        # lines are written a chunk at a time: the whole listing of the
        # trees at n = 7 is 8 MiB of text
        class Sink(io.TextIOBase):
            lines = 0

            def write(self, text):
                self.lines += text.count("\n")
                return len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(["enumerate", "--kind", "trees", "--n", "7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.lines) == (0, 8**6)
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("kind", ["trees", "parking", "majors", "unimodal"])
    def test_kinds_without_sigma_refuse_it(self, capsys, kind):
        code, out, err = run(capsys, "enumerate", "--kind", kind, "--n", "1",
                             "--sigma", "0 9 9")
        assert (code, out, err) == (
            1, "", f"error: enumerate --kind {kind} does not read --sigma\n")

    def test_unimodal_refuses_format(self, capsys):
        code, out, err = run(capsys, "enumerate", "--kind", "unimodal", "--n", "3",
                             "--format", "json")
        assert (code, out, err) == (
            1, "", "error: enumerate --kind unimodal does not read --format\n")

    def test_arch_json_decodes_to_the_factorizations(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "arch", "--n", "3",
                           "--format", "json")
        assert code == 0
        sigma = FullCycle.canonical(3)
        decoded = [arch_to_factorization(arch_from_json(json.loads(line)), sigma)
                   for line in out.splitlines()]
        assert decoded == list(enumerate_factorizations(sigma))

    def test_unimodal(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "unimodal", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["(0 3 2 1)", "(0 1 3 2)", "(0 2 3 1)", "(0 1 2 3)"]
        code, out, err = run(capsys, "enumerate", "--kind", "unimodal", "--n", "0")
        assert (code, out) == (1, "")
        assert err == "error: unimodal enumeration needs n >= 1\n"

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

    def test_parking_bounce_fields_match_the_library(self, capsys):
        for n in range(5):
            for p in enumerate_parking(n):
                code, out, _ = run(capsys, "stats", "--kind", "parking",
                                   "--input", str(p), "--format", "json")
                assert code == 0
                contacts, value = bounce(p)
                record = json.loads(out)
                assert (record["bounce"], record["contacts"], record["pinv"],
                        record["copinv"]) == (value, list(contacts), pinv(p), copinv(p))

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
        assert record["total_difference"] == 3
        assert record["simple"] is True
        assert record["simple_index"] == 2

    def test_factorization_non_member(self, capsys):
        # the second word multiplies out to the full cycle (0 1), with three factors
        for text in ("(0 1)(0 1)", "(0 1)(0 1)(0 1)"):
            code, out, _ = run(capsys, "stats", "--kind", "factorization",
                               "--input", text, "--format", "json")
            assert code == 0
            assert "note" in json.loads(out)


ALL_SUITES_AT_FOUR = [
    "PASS cardinalities: four families all have (n+1)^(n-1) members for n = 0..4",
    "PASS polynomial-pins: I_0..I_3 and D_0..D_4 match their published values exactly",
    "PASS tree-factorization: I_n(q,t) by tree sum and by recursion = F_n(q,t) "
    "exactly for n = 0..4",
    "PASS bounce: B_n = I_n = F_n and pinv+copinv = bounce for n = 0..4",
    "PASS area-jump: area and jump/cojump enumerators match I_n for n = 0..4",
    "PASS unimodal: L and U are bijections exactly on unimodal cycles for n = 1..4",
    "PASS l-inverse: reconstruction inverts L on every unimodal cycle for n = 0..4",
    "PASS arch-criterion: membership in F_sigma matches diagram validity on the "
    "canonical cycle plus two unimodal cycles for n = 1..4",
    "PASS simple-decomposition: simple-family identity, decomposition round trip, "
    "area additivity and rotation shifts hold for n = 1..4",
    "PASS special-families: max-diff, increasing, decreasing and permutation-lower "
    "identities hold for n = 1..4",
    "PASS worked-examples: every worked-example pin (length-9 run and its pushing, "
    "bounce table, l_inverse tables, (0 1 3 2) terms) is exact",
    "PASS pushing: pushed labels reproduce the upper path of every p for n = 0..4",
    "PASS symmetry: t^(-n) I_n(q,t) is symmetric under q <-> t for n = 0..4",
]


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "worked-examples")
        assert code == 0
        assert out.startswith("PASS worked-examples")

    def test_all_suites_at_four(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "4")
        assert code == 0
        assert out.splitlines() == ALL_SUITES_AT_FOUR

    @pytest.mark.parametrize("suite, n", [("worked-examples", "5"), ("polynomial-pins", "2")])
    def test_n_is_refused_by_a_sizeless_suite(self, capsys, suite, n):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert (code, out, err) == (1, "", f"error: verify --suite {suite} does not read --n\n")

    @pytest.mark.parametrize("suite", ["all", "unimodal", "arch-criterion", "special-families"])
    def test_n_zero_is_refused(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "0")
        assert (code, out, err) == (1, "", "error: verify needs --n >= 1\n")

    @pytest.mark.parametrize("suite, n, refused, limit", [
        ("arch-criterion", "6", "arch-criterion", 5), ("unimodal", "7", "unimodal", 6),
        ("l-inverse", "7", "l-inverse", 6), ("all", "6", "arch-criterion", 5),
        ("all", "8", "unimodal", 6),
    ])
    def test_n_above_a_feasible_maximum_is_refused(self, capsys, suite, n, refused, limit):
        # one line and no suite run, also where other suites could run at n
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert (code, out, err) == (
            1, "", f"error: suite {refused} is feasible only up to n = {limit}, got n = {n}\n")

    @staticmethod
    def run_with_extra_pairs(capsys, monkeypatch, extra):
        # only the per-object loop of simple-decomposition reads the stream
        from parkfact import factorizations

        stream = factorizations.iter_factor_pairs

        def with_extra(sigma):
            yield from stream(sigma)
            if sigma.n == 2:
                yield extra

        monkeypatch.setattr(factorizations, "iter_factor_pairs", with_extra)
        return run(capsys, "verify", "--suite", "simple-decomposition", "--n", "2")

    def test_a_non_member_in_the_stream_is_a_failure(self, capsys, monkeypatch):
        code, out, err = self.run_with_extra_pairs(capsys, monkeypatch, ((0, 1), (0, 1)))
        assert code == 2
        assert err == ""
        assert out.startswith("FAIL simple-decomposition:")
        assert "f=(0 1)(0 1)" in out

    def test_a_malformed_stream_is_an_internal_error(self, capsys, monkeypatch):
        code, out, err = self.run_with_extra_pairs(capsys, monkeypatch, ((0, 1), (0, 5)))
        assert code == 2
        assert out == ""
        assert err.startswith("internal error: ")
        assert len(err.splitlines()) == 1

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


class TestVerifyWorkers:
    """verify with more than one suite runs them on a process pool (one
    worker per usable CPU, here pinned at 2); what it prints and returns is
    what the serial loop (pinned at 1 CPU) prints and returns."""

    @pytest.fixture
    def forked(self, monkeypatch):
        """Fork the workers, so that a patched suite reaches them."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(cli, "_WORKER_START", "fork")

    @staticmethod
    def run(capfd, monkeypatch, cpus, *argv):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        code = main(["verify", "--suite", "all", *argv])
        out, err = capfd.readouterr()
        assert multiprocessing.active_children() == []  # no worker outlives main
        return code, out, err

    def run_both(self, capfd, monkeypatch, *argv):
        serial = self.run(capfd, monkeypatch, 1, *argv)
        assert self.run(capfd, monkeypatch, 2, *argv) == serial
        return serial

    def test_importing_the_cli_loads_no_pool(self):
        probe = ("import sys, parkfact.cli; print([m for m in "
                 "('concurrent.futures', 'multiprocessing') if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_pool_prints_what_the_serial_loop_prints(self, capfd, monkeypatch):
        code, out, err = self.run_both(capfd, monkeypatch, "--n", "3")
        assert (code, err) == (0, "")
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"PASS {name}" for name in verify.SUITES]

    @pytest.mark.usefixtures("forked")
    def test_a_failing_suite_in_a_worker(self, capfd, monkeypatch):
        def broken(n_max=None):
            return verify.CheckResult("bounce", False, "counterexample: p=0,0")

        monkeypatch.setitem(verify.SUITES, "bounce", broken)
        code, out, err = self.run_both(capfd, monkeypatch, "--n", "3")
        assert (code, err) == (2, "")
        assert "\nFAIL bounce: counterexample: p=0,0\n" in out
        assert out.endswith("\n1 of 13 suites failed\n")

    @pytest.mark.usefixtures("forked")
    def test_an_internal_error_in_a_worker(self, capfd, monkeypatch):
        def broken(n_max=None):
            raise AssertionError("caps do not chain into a path")

        monkeypatch.setitem(verify.SUITES, "unimodal", broken)
        code, out, err = self.run_both(capfd, monkeypatch, "--n", "3")
        assert (code, err) == (2, "internal error: caps do not chain into a path\n")
        before = list(verify.SUITES)[:list(verify.SUITES).index("unimodal")]
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"PASS {name}" for name in before]

    @pytest.mark.usefixtures("forked")
    def test_a_dead_worker_is_an_internal_error(self, capfd, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "l-inverse", lambda n_max=None: os._exit(1))
        code, out, err = self.run(capfd, monkeypatch, 2, "--n", "3")
        assert code == 2
        assert err.startswith("internal error: ") and len(err.splitlines()) == 1
        # the suites before the dead one may have been lost with it
        printed = [line.split(":")[0] for line in out.splitlines()]
        before = list(verify.SUITES)[:list(verify.SUITES).index("l-inverse")]
        assert printed == [f"PASS {name}" for name in before[:len(printed)]]

    @pytest.mark.usefixtures("forked")
    def test_closed_stdout_cancels_the_pending_suites(self, capfd, monkeypatch, tmp_path):
        # each suite leaves a mark when it starts; all but the first take a while
        for name, suite in list(verify.SUITES.items()):
            def marked(n_max=None, name=name, suite=suite):
                (tmp_path / name).touch()
                if name != "cardinalities":
                    time.sleep(0.3)
                return suite(n_max)

            monkeypatch.setitem(verify.SUITES, name, marked)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as closed:  # the first line fails
            monkeypatch.setattr(sys, "stdout", closed)
            code, _, err = self.run(capfd, monkeypatch, 2, "--n", "3")
        assert (code, err) == (1, "")
        assert len(list(tmp_path.iterdir())) < len(verify.SUITES)

    def test_closed_stdout_ends_quietly(self):
        # unbuffered, so the first line written already finds the pipe closed
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-u", "-m", "parkfact.cli", "verify",
                                   "--suite", "all", "--n", "3"], env=cli_env(),
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


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
                           "2,5,3,8,6,9,7,6,5")
        assert code == 0

    def test_bounce_requires_parking(self, capsys):
        code, _, err = run(capsys, "render", "--kind", "path", "--input", "2,1",
                           "--with-bounce")
        assert code == 1
        assert err == "error: the bounce path is defined for parking functions\n"

    def test_ascii_cap_itself_is_allowed(self, capsys):
        code, out, err = run(capsys, "render", "--kind", "arch", "--input", "(0 1)",
                             "--n", str(ASCII_CAP))
        assert (code, err) == (0, "") and out.startswith("/")

    @pytest.mark.parametrize("argv", [
        ("render", "--kind", "arch", "--input", "(0 1)", "--n", str(ASCII_CAP + 1)),
        ("render", "--kind", "path", "--input", ",".join(["0"] * (ASCII_CAP + 1))),
    ])
    def test_ascii_above_the_cap_is_refused_before_drawing(self, capsys, argv):
        # an ASCII picture holds about n^2 characters; the refusal builds none
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (f"error: n = {ASCII_CAP + 1} exceeds the ASCII picture limit "
                       f"{ASCII_CAP}; --format svg has no such limit\n")
        assert peak < 2**20, peak
        code, out, _ = run(capsys, *argv, "--format", "svg")
        assert code == 0 and out.startswith("<svg ")


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
        code, out, err = run(capsys, "explore", "--n", "0")
        assert (code, out) == (1, "")
        assert err == "error: explore needs n >= 1\n"


class TestRecursionCallers:
    @pytest.mark.parametrize("argv", [
        ("poly", "--name", "D", "--n", "12"), ("explore", "--n", "4"),
    ])
    def test_output_matches_the_dict_recursion(self, capsys, monkeypatch, argv):
        code, out, _ = run(capsys, *argv)
        asked = []

        def last_by_dict(n):
            asked.append(n)
            return tree_recursion_by_dict(n)[n]

        monkeypatch.setattr("parkfact.polynomials._tree_recursion_last", last_by_dict)
        assert (code, out) == run(capsys, *argv)[:2]
        assert asked == [int(argv[-1])]  # the patched route is the one taken


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

    def test_closed_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, "map", "--via", "theta", "--input", "-")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ("stats", "--kind", "tree"), ("map", "--via", "theta"), ("render", "--kind", "path"),
    ])
    def test_input_double_dash(self, capsys, command):
        # argparse stores an empty list, not a string, for --input=--
        code, out, err = run(capsys, *command, "--input=--")
        assert (code, out, err) == (1, "", "error: --input needs a value\n")

    @pytest.mark.parametrize("command", [
        ("enumerate", "--kind", "factorizations", "--n", "3"),
        ("enumerate", "--kind", "arch", "--n", "3"),
        ("poly", "--name", "F", "--n", "3"),
        ("map", "--via", "l-inverse", "--input", "0,0"),
        ("map", "--via", "u-inverse", "--input", "1,2"),
        ("map", "--via", "arch", "--input", "(0 1)"),
        ("map", "--via", "fact", "--input", '{"n": 1, "arcs": [[0, 1, 1]]}'),
        ("render", "--kind", "arch", "--input", "(0 1)"),
    ])
    def test_empty_sigma_is_refused(self, capsys, command):
        # an empty --sigma is given, so it is parsed, not read as the canonical cycle
        code, out, err = run(capsys, *command, "--sigma", "")
        assert (code, out, err) == (1, "", "error: expected a single cycle word, got ''\n")

    @pytest.mark.parametrize("text, err", [
        ("(1 1)", "error: transposition needs 0 <= lo < hi, got (1, 1)\n"),
        ("(2 -1)", "error: transposition needs 0 <= lo < hi, got (-1, 2)\n"),
        ("(0 5)", "error: factor (0 5) exceeds ground set [0, 3]\n"),
        ("(1 2 3)", "error: factor [1, 2, 3] is not a pair\n"),
        ("(1 2)(3", "error: stray text outside cycle groups: '(1 2)(3'\n"),
    ])
    def test_factor_diagnostics(self, capsys, text, err):
        assert run(capsys, "map", "--via", "lower", "--n", "3", "--input", text) == (1, "", err)

    @pytest.mark.parametrize("argv", [
        ("map", "--via", "complement", "--input", "0_0"),
        ("map", "--via", "complement", "--input", "+0,0"),
        ("map", "--via", "theta", "--input", "\u0660,\u0661"),  # Arabic-Indic 0, 1
        ("map", "--via", "l-inverse", "--sigma", "0 \u0661", "--input", "0"),
        ("map", "--via", "lower", "--input", "(0 +1)"),
        ("map", "--via", "theta-inverse", "--input", "0:-,1:0_0"),
        ("map", "--via", "theta-inverse", "--input", "0:-,\u0661:0"),
    ])
    def test_only_ascii_decimal_integers_are_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid literal for int() with base 10: ")

    @pytest.mark.parametrize("argv, err", [
        (("map", "--via", "lower", "--n", "\u0661", "--input", "(0 1)"),  # Arabic-Indic 1
         "error: argument --n: invalid int value: '\u0661'\n"),
        (("map", "--via", "lower", "--n", "1_0", "--input", "(0 1)"),
         "error: argument --n: invalid int value: '1_0'\n"),
        (("map", "--via", "phi-k", "--k", "\u0662", "--input", "(0 1)"),
         "error: argument --k: invalid int value: '\u0662'\n"),
        (("poly", "--name", "B", "--n", "x"),
         "error: argument --n: invalid int value: 'x'\n"),
    ])
    def test_int_options_follow_the_token_rule(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", err)

    def test_safety_limit_follows_the_token_rule(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKFACT_MAX_N", "\u0661\u0660")  # Arabic-Indic 10
        assert run(capsys, "poly", "--name", "B", "--n", "3") == (
            1, "", "error: PARKFACT_MAX_N must be an integer, got '\u0661\u0660'\n")

    @pytest.mark.parametrize("argv, err", [
        (("map", "--via", "complement", "--input=-1,0"),
         "error: neither a parking function nor a major sequence: (-1, 0)\n"),
        (("map", "--via", "theta-inverse", "--input", "0:-,1:-1"),
         "error: parent[1] = -1 out of range\n"),
    ])
    def test_negative_tokens_reach_the_family_validators(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", err)

    def test_closed_stdout_ends_quietly(self):
        # the reader leaves after one line of 16,807, as `| head -1` does
        child = subprocess.Popen(
            [*CLI, "enumerate", "--kind", "trees", "--n", "6"],
            env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout.readline() == b"0:-,1:0,2:0,3:0,4:0,5:0,6:0\n"
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (1, b"")

    def test_stdout_closed_before_a_buffered_write_ends_quietly(self):
        # a block-buffered stdout holds the whole output until main flushes it
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([*CLI, "poly", "--name", "I", "--n", "3"], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_unknown_via(self, capsys):
        code, _, err = run(capsys, "map", "--via", "sideways", "--input", "0")
        assert code == 1
        assert err == (
            "error: argument --via: invalid choice: 'sideways' (choose from 'lower', "
            "'L', 'upper', 'U', 'l-inverse', 'u-inverse', 'theta', 'theta-inverse', "
            "'phi-k', 'phi-k-inverse', 'arch', 'fact', 'push', 'reflect-conjugate', "
            "'reflect-reverse', 'complement')\n"
        )


# every subcommand that reads --input, with no --n so the object sets it
INPUT_COMMANDS = (
    [("stats", "--kind", kind) for kind in ("tree", "parking", "major", "factorization")]
    + [("map", "--via", via) for via in _VIAS]
    + [("map", "--via", "phi-k", "--k", "1")]
    + [("render", "--kind", kind) for kind in ("path", "arch")]
)

# short words over the wire formats' characters, up to 16 of them, so that a
# number can run far past the single-object cap of 10^5, as in
# "(0 1000000000)"; "-" alone (read stdin) is left out
WIRE_TEXT = st.text("0123 ,:-()", max_size=16).filter(lambda text: text != "-")

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


def benchmark_calls(seed, count):
    """The argv lists of perfbench/inputs.build_calls, the map-calls
    workload's seeded calls; the benchmark is loaded, never changed."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    spec.loader.exec_module(inputs)
    return [call.argv for call in inputs.build_calls(seed, count)]


def output_digest(argvs):
    """SHA-256 over the (argv, exit, stdout, stderr) record of each call."""
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


# the digest of the 1,000 seed-1 benchmark calls; a change that alters any
# output on purpose re-pins it and says why in CHANGES.md
BENCHMARK_CALLS_DIGEST = "9309f458f059cadd2022d880f47b7ad78c8df95c81b3ab8c62adfb915587f3f5"


def test_benchmark_calls_are_byte_identical():
    assert output_digest(benchmark_calls(1, 1000)) == BENCHMARK_CALLS_DIGEST


def parse_outcome(parser, argv):
    """What parse_args makes of argv: its Namespace, its CliError text, or
    its SystemExit code with what it printed (help)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return parser.parse_args(argv)
    except cli.CliError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def test_the_named_subparser_parses_as_all_seven():
    argvs = [
        *benchmark_calls(1, 1000), [], ["--help"], ["nope"], ["-h", "map"],
        ["map", "--via", "theta", "--input", "0,0", "stray"],
        ["enumerate", "--kind", "trees", "--n", "3"], ["poly", "--name", "I", "--n", "4"],
        ["verify", "--suite", "all"], ["explore", "--n", "3"],
        *([command, "--help"] for command in cli._HANDLERS),
    ]
    for argv in argvs:
        command = argv[0] if argv and argv[0] in cli._HANDLERS else None
        assert (parse_outcome(cli.build_parser(command), argv)
                == parse_outcome(cli.build_parser(), argv)), argv


class TestNoState:
    """main keeps nothing from one call to the next: each call prints what
    it prints in a fresh process, whose main reads sys.argv (argv=None)."""

    CALLS = [
        ("render", "--kind", "path", "--input", "0,0,1"),  # --format defaults to ascii
        ("map", "--via", "theta", "--input", "0,0,1", "--format", "json"),
        ("stats", "--kind", "parking", "--input", "0,0,1"),  # no --format
        ("render", "--kind", "path", "--input", "0,0", "--format", "png"),
    ]

    @staticmethod
    def alone(argv):
        done = subprocess.run([*CLI, *argv], env=cli_env(), capture_output=True,
                              text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_a_fresh_process_prints_what_main_prints(self, capsys):
        argv = ("map", "--via", "l-inverse", "--input", "0,0,1")
        assert self.alone(argv) == run(capsys, *argv)

    def test_calls_in_a_row_print_what_each_prints_alone(self, capsys):
        alone = [self.alone(argv) for argv in self.CALLS]
        assert [run(capsys, *argv) for argv in self.CALLS] == alone
        assert [run(capsys, *argv) for argv in reversed(self.CALLS)] == alone[::-1]
