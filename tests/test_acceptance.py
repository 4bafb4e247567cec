"""Acceptance gate: one test per verification suite, at full desk scale.

Every criterion is exact (integer arithmetic throughout, no tolerances).
Each test prints its own PASS/FAIL line so a -s run reads as a checklist;
the heavy sweeps (all full cycles at n = 5, trees through n = 7) are
intentionally kept in this module rather than the unit tests.
"""

import ast
import hashlib
import importlib
from pathlib import Path

import pytest

from parkfact import arch as _arch
from parkfact import factorizations as _fact
from parkfact import inverse_maps as _inv
from parkfact import parking as _park
from parkfact import polynomials as _poly
from parkfact import trees as _trees
from parkfact import verify
from parkfact.cli import main
from parkfact.polynomials import BivariatePoly


def _run(name: str, size: str) -> None:
    # each suite runs at its registered default, and `size` pins that
    # default: a lowered n_max would print a different range (the two
    # sizeless suites pin a fragment of their fixed claim instead)
    result = verify.run_suite(name)
    print(result.line())
    assert result.ok, result.detail
    assert size in result.detail, result.detail


def test_criterion_01_cardinalities():
    # |T_n| = |P_n| = |F_n| = |A_n| = (n+1)^(n-1) for n = 0..6
    _run("cardinalities", "n <= 6")


def test_criterion_02_polynomial_pins():
    # I_0..I_3 and D_0..D_4 equal their published expansions exactly
    _run("polynomial-pins", "I_0..I_3 and D_0..D_4")


def test_criterion_03_trees_match_factorizations():
    # inversion enumerator = factorization enumerator, n = 0..6
    _run("tree-factorization", "n <= 6")


def test_criterion_04_bounce_refinement():
    # B_n = I_n = F_n and pinv + copinv = bounce pointwise, n = 0..6
    _run("bounce", "n <= 6")


def test_criterion_05_area_and_parking_process():
    # I_n(q,1) is the area enumerator; jump/cojump enumerator = I_n(q,t)
    _run("area-jump", "n <= 6")


def test_criterion_06_unimodal_characterization():
    # over all n! full cycles, n = 3..5: L and U bijective iff unimodal,
    # with witnesses certifying every failure; 2^(n-1) unimodal cycles
    _run("unimodal", "n = 3..5")


def test_criterion_07_inverse_algorithm():
    # exhaustive reconstruction with loop invariants checked, n <= 5,
    # plus the two byte-exact worked runs
    _run("l-inverse", "n <= 5")


def test_criterion_08_arch_criterion():
    # membership in F_sigma <=> valid diagram, all transposition words,
    # n <= 4, canonical plus two non-canonical unimodal cycles
    _run("arch-criterion", "n <= 4")


def test_criterion_09_simple_decomposition():
    # simple-family product identity, decompose/recompose round trip,
    # area additivity, and the rotation area shifts, n <= 6
    _run("simple-decomposition", "n <= 6")


def test_criterion_10_special_families():
    # max-difference, increasing, decreasing, permutation-lower families
    _run("special-families", "n <= 6")


def test_criterion_11_worked_examples():
    # the length-9 factorization, its bounce table, and the (0 1 3 2) terms
    _run("worked-examples", "length-9 run")


def test_criterion_12_pushing_reconstruction():
    # pushed lower-path labels reproduce the upper path, n <= 5 and n = 9
    _run("pushing", "n <= 5")


def test_criterion_13_symmetry():
    # t^(-n) I_n(q,t) is q,t-symmetric through n = 7
    _run("symmetry", "n <= 7")


# Each suite must be able to fail: one name the suite reads through its
# module alias is swapped for a wrong answer.  Only module attributes are
# patched, never a kernel that a functools.cache entry calls, so no cache
# keeps a wrong value for later tests.
ZERO = BivariatePoly.zero()
ENUMS = _park.parking_enumerators
BREAKS = {
    # suite: (module, attribute, wrong replacement, n_max, text of the detail)
    "cardinalities": (_park, "enumerate_parking", lambda n: iter(()),
                      2, "|P_0| = 0, expected 1"),
    "polynomial-pins": (_trees, "inversion_enumerator", lambda n: ZERO,
                        None, "I_0 = 0, expected 1"),
    "tree-factorization": (_fact, "factorization_enumerator", lambda sigma: ZERO,
                           2, "n=0:"),
    "bounce": (_park, "parking_enumerators",
               lambda n: ENUMS(n)._replace(pinv_copinv=ZERO), 2, "n=0:"),
    "area-jump": (_park, "parking_enumerators",
                  lambda n: ENUMS(n)._replace(area=ZERO), 2, "n=0:"),
    "unimodal": (_park, "is_parking", lambda seq: False, 3, "sigma=(0 1 2 3)"),
    "l-inverse": (_fact, "lower", lambda f: (), 2, "lower(l_inverse(0, (0 1))) != 0"),
    "arch-criterion": (_arch, "_valid_runs", lambda arcs, m: None,
                       1, "f=(0 1), sigma=(0 1)"),
    "simple-decomposition": (_fact, "_rotate_up", lambda pairs, k, n: pairs,
                             2, "round trip fails for f=(0 1), k=1"),
    "special-families": (_poly, "qt_factorial_product", lambda n: ZERO, 2, "n=1:"),
    "worked-examples": (_fact, "lower", lambda f: (), None, "lower(f9)"),
    "pushing": (_inv, "push", lambda p: p, 2, "length-9"),
    "symmetry": (_trees, "inversion_enumerator",
                 lambda n: BivariatePoly.var_q().shift_t(n), 2, "I_0"),
}


def test_every_suite_is_broken_once():
    assert sorted(BREAKS) == sorted(verify.SUITES)


@pytest.mark.parametrize("name", list(BREAKS))
def test_suite_fails_on_a_wrong_answer(name, monkeypatch):
    module, attribute, wrong, n_max, expected = BREAKS[name]
    monkeypatch.setattr(module, attribute, wrong)
    result = verify.run_suite(name, n_max)
    assert result.ok is False
    assert expected in result.detail, result.detail


def _perfbench_constant(module: str, name: str):
    """The literal bound to `name` in perfbench/<module>.py, read without
    importing the benchmark."""
    source = (Path(__file__).parents[1] / "perfbench" / f"{module}.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name)


def test_the_benchmark_caches_have_cache_info():
    # the benchmark child checks that these enumerators start cold through
    # cache_info(); a dropped functools.cache decorator should fail here
    caches = _perfbench_constant("child", "CACHES")
    assert caches
    for dotted in caches:
        module, attribute = dotted.split(".")
        cached = getattr(importlib.import_module(f"parkfact.{module}"), attribute)
        assert callable(getattr(cached, "cache_info", None)), dotted


def test_suite_order_matches_the_benchmark_gate():
    # registration order numbers the suites (verify --suite 2) and is the
    # order of the PASS lines that the benchmark's verify gate expects
    assert list(verify.SUITES) == list(_perfbench_constant("gates", "SUITES"))


def test_each_suite_is_its_module_function():
    # the benchmark's tracer rebinds module attributes and the registry
    # values that are the same object, and times verify.check_<suite>
    for name, run in verify.SUITES.items():
        assert run is getattr(verify, "check_" + name.replace("-", "_")), name


# SHA-256 of the stdout of each call: the first three are the n = 7 calls
# that the benchmark gates, copied from perfbench/gates.py, so a slip in the
# tree stream's order, a line's text or a polynomial's terms fails here too,
# not only there; the rest pin the factor stream's order and the memoized
# walk's sums on calls that no benchmark gate covers
_F7_SHA = "8388bb6488b3e8c1fbc76917e5dfaf1f025302b9ced9cc83b15a21f3808f14a3"
GATED_OUTPUTS = {
    "enumerate --kind trees --n 7":
        "8d8b509520107fda71c79f989532238c9ab6305b4a403b7e686e73467c973edf",
    "poly --name F --n 7": _F7_SHA,
    "poly --name B --n 7": _F7_SHA,
    "enumerate --kind factorizations --n 6":
        "912b4635b69d99d43c9e299d0cc799b21f1b26dbd261abeb44e0d83e51e09d57",
    "enumerate --kind arch --n 5 --sigma 0,2,4,5,3,1":
        "2b426f13bf97ff537f68e9e99a1ec3dc9acce881e98db5213bbce87338273b33",
    "enumerate --kind factorizations --n 5 --sigma 0,3,1,5,2,4":
        "9aba13a0d976e6c4dc8d51aa7fc026fca7d942ccfe3030a104da9f8bb114b0bf",
    "poly --name F --n 6 --sigma 0,3,1,5,2,4,6":
        "04f0937717a9b5945930277431794815fe17adf4627a3d01c3cb1e7379297ed0",
    "poly --name Fhat --n 7":
        "d42f4e35c7a8559656e80513f8d19021774814fff2b81a9f449fd70608dd0c84",
    "poly --name Fperm --n 7":
        "faa0323a1726c1b01a6588868287e91dc189149fe2688c8e51485b1a8bbead38",
    "explore --n 5": "f798b655fd1413d71a566fab923a9be5b8e9167626db73d64bb8886eafe2eba7",
}


@pytest.mark.parametrize("command", list(GATED_OUTPUTS))
def test_gated_output_is_unchanged(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GATED_OUTPUTS[command]


def test_bounce_fails_on_a_wrong_pointwise_value(monkeypatch):
    # the enumerator comparison reads only inv and coinv of the tree kernel,
    # so only the pointwise check sees a depth one too large for theta(0)
    kernel = _trees._tree_stats

    def off_by_one(parent):
        i, c, d = kernel(parent)
        return i, c, d + (tuple(parent) == (0, 0))

    monkeypatch.setattr(_trees, "_tree_stats", off_by_one)
    result = verify.run_suite("bounce", 2)
    assert result.ok is False
    assert result.detail == "pinv+copinv != bounce for p=0"
