"""Acceptance gate: one test per verification suite, at full desk scale.

Every criterion is exact (integer arithmetic throughout, no tolerances).
Each test prints its own PASS/FAIL line so a -s run reads as a checklist;
the heavy sweeps (all full cycles at n = 5, trees through n = 7) are
intentionally kept in this module rather than the unit tests.
"""

import ast
import hashlib
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
from parkfact.permutations import FullCycle
from parkfact.polynomials import BivariatePoly


def _run(name: str, size: str) -> None:
    # each suite runs at its registered default, and `size` pins the n range
    # its pass line names: a lowered range would print a different one (the
    # two sizeless suites pin a fragment of their fixed claim instead)
    result = verify.run_suite(name)
    print(result.line())
    assert result.ok, result.detail
    assert size in result.detail, result.detail


def test_criterion_01_cardinalities():
    # |T_n| = |P_n| = |F_n| = |A_n| = (n+1)^(n-1) for n = 0..6
    _run("cardinalities", "for n = 0..6")


def test_criterion_02_polynomial_pins():
    # I_0..I_3 and D_0..D_4 equal their published expansions exactly
    _run("polynomial-pins", "I_0..I_3 and D_0..D_4")


def test_criterion_03_trees_match_factorizations():
    # inversion enumerator by tree sum = by recursion = factorization
    # enumerator, n = 0..6
    _run("tree-factorization", "for n = 0..6")


def test_criterion_04_bounce_refinement():
    # B_n = I_n = F_n and pinv + copinv = bounce pointwise, n = 0..6
    _run("bounce", "for n = 0..6")


def test_criterion_05_area_and_parking_process():
    # I_n(q,1) is the area enumerator; jump/cojump enumerator = I_n(q,t),
    # n = 0..6
    _run("area-jump", "for n = 0..6")


def test_criterion_06_unimodal_characterization():
    # over all n! full cycles, n = 1..5: L and U bijective iff unimodal,
    # with witnesses certifying every failure; 2^(n-1) unimodal cycles
    _run("unimodal", "for n = 1..5")


def test_criterion_07_inverse_algorithm():
    # exhaustive reconstruction with loop invariants checked, n = 0..5
    # (the canonical cycle (0) at n = 0)
    _run("l-inverse", "for n = 0..5")


def test_criterion_08_arch_criterion():
    # membership in F_sigma <=> valid diagram, all transposition words,
    # n = 1..4, canonical plus two non-canonical unimodal cycles
    _run("arch-criterion", "for n = 1..4")


def test_criterion_09_simple_decomposition():
    # simple-family product identity, decompose/recompose round trip,
    # area additivity, and the rotation area shifts, n = 1..6
    _run("simple-decomposition", "for n = 1..6")


def test_criterion_10_special_families():
    # max-difference, increasing, decreasing, permutation-lower families,
    # n = 1..6
    _run("special-families", "for n = 1..6")


def test_criterion_11_worked_examples():
    # the length-9 factorization, its pushing and bounce table, both
    # l_inverse table results, and the (0 1 3 2) terms
    _run("worked-examples", "length-9 run")


def test_criterion_12_pushing_reconstruction():
    # pushed lower-path labels reproduce the upper path, n = 0..5
    _run("pushing", "for n = 0..5")


def test_criterion_13_symmetry():
    # t^(-n) I_n(q,t) is q,t-symmetric, n = 0..7
    _run("symmetry", "for n = 0..7")


# Each suite must be able to fail: one name the suite reads through its
# module alias is swapped for a wrong answer.  Only module attributes are
# patched, never a kernel that a functools.cache entry calls, so no cache
# keeps a wrong value for later tests.
ZERO = BivariatePoly.zero()
ENUMS = _park.parking_enumerators
BREAKS = {
    # suite: (module, attribute, wrong replacement, n_max, text of the detail)
    "cardinalities": (_park, "_parking_tuples", lambda n: iter(()),
                      2, "|P_0| = 0, expected 1"),
    "polynomial-pins": (_trees, "inversion_enumerator", lambda n: ZERO,
                        None, "I_0 = 0, expected 1"),
    "tree-factorization": (_fact, "factorization_enumerator", lambda sigma: ZERO,
                           2, "n=0:"),
    "bounce": (_park, "parking_enumerators",
               lambda n: ENUMS(n)._replace(pinv_copinv=ZERO), 2, "n=0:"),
    "area-jump": (_park, "parking_enumerators",
                  lambda n: ENUMS(n)._replace(area=ZERO), 2, "n=0:"),
    "unimodal": (_park, "is_parking", lambda seq: False, 3, "sigma=(0 1)"),
    "l-inverse": (_inv, "_l_inverse",
                  lambda entries, *setup: tuple((a + 1, a + 2) for a in entries),
                  2, "lower(l_inverse(0, (0 1))) != 0"),
    "arch-criterion": (_arch, "_valid_runs", lambda arcs, m: None,
                       1, "f=(0 1), sigma=(0 1)"),
    "simple-decomposition": (_fact, "_rotate_up", lambda pairs, k, n: pairs,
                             2, "round trip fails for f=(0 1), k=1"),
    "special-families": (_poly, "qt_factorial_product", lambda n: ZERO, 2, "n=1:"),
    "worked-examples": (_fact, "lower", lambda f: (), None, "lower(f9)"),
    "pushing": (_inv, "_push", lambda entries: entries,
                2, "pushing misses the upper path for p=0"),
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


def test_l_inverse_runs_every_step_check(monkeypatch):
    # the suite streams raw tuples but keeps l_inverse's check mode on
    def failing(*args):
        raise AssertionError("step check ran")

    monkeypatch.setattr(_inv, "_check_entry_invariants", failing)
    with pytest.raises(AssertionError, match="step check ran"):
        verify.run_suite("l-inverse", 2)


def test_simple_decomposition_checks_each_part(monkeypatch):
    # a part smaller than its whole diagram is checked on its own, even
    # where the part is memoized: reject exactly those parts
    valid_runs, sizes = _arch._valid_runs, []

    def rejecting_parts(arcs, m):
        sizes.append(m)
        return None if m < max(sizes) else valid_runs(arcs, m)

    monkeypatch.setattr(_arch, "_valid_runs", rejecting_parts)
    result = verify.run_suite("simple-decomposition", 2)
    assert result.ok is False
    assert result.detail.endswith("is not simple"), result.detail


def _one_malformed(stream, malformed):
    """`stream` with its last object replaced where its objects are as long
    as `malformed`, so that only a membership test, not a count, can catch
    it."""
    def replaced(*args):
        objects = [*stream(*args)]
        if len(objects[-1]) == len(malformed):
            objects[-1] = malformed
        return iter(objects)

    return replaced


@pytest.mark.parametrize("module, attribute, malformed, expected", [
    (_trees, "_parent_tuples", (0, 2, 1), "T_2: parent map is not a tree rooted at 0: (0, 2, 1)"),
    (_park, "_parking_tuples", (1, 1), "P_2: not a parking function: (1, 1)"),
    (_fact, "iter_factor_pairs", ((1, 0), (0, 2)),
     "F_2: transposition needs 0 <= lo < hi, got (1, 0)"),
    (_fact, "iter_factor_pairs", ((0, 1), (0, 3)), "F_2: factor (0 3) exceeds ground set [0, 2]"),
], ids=["trees", "parking", "factors", "factor-range"])
def test_cardinalities_tests_each_object(module, attribute, malformed, expected, monkeypatch):
    monkeypatch.setattr(module, attribute, _one_malformed(getattr(module, attribute), malformed))
    result = verify.run_suite("cardinalities", 2)
    assert (result.ok, result.detail) == (False, expected)


def test_tree_factorization_checks_the_recursion(monkeypatch):
    # poly --name I|D and explore print the recursion; this suite ties it
    # to the tree sum
    monkeypatch.setattr(_poly, "_tree_recursion_last", lambda n: ZERO)
    result = verify.run_suite("tree-factorization", 2)
    assert result.line().startswith("FAIL tree-factorization: n=0: I_n by recursion")


L_INVERSE = _inv.l_inverse
WORKED_BREAKS = {
    # inverse_maps attribute: (wrong replacement, text of the detail)
    "push": (lambda p: p, "length-9 pushing example"),
    "l_inverse": (lambda p, sigma, check=False:
                  L_INVERSE(p, FullCycle.canonical(sigma.n), check=check),
                  "unimodal l_inverse table gave (2 3)(4 5)(0 2)(1 2)(4 6)(0 4)"),
}


@pytest.mark.parametrize("attribute", list(WORKED_BREAKS))
def test_worked_examples_pins_push_and_l_inverse(attribute, monkeypatch):
    wrong, expected = WORKED_BREAKS[attribute]
    monkeypatch.setattr(_inv, attribute, wrong)
    result = verify.run_suite("worked-examples")
    assert result.ok is False
    assert expected in result.detail, result.detail


# the first n of each sized suite's registered range
SIZED_STARTS = {
    "cardinalities": 0, "tree-factorization": 0, "bounce": 0, "area-jump": 0,
    "unimodal": 1, "l-inverse": 0, "arch-criterion": 1,
    "simple-decomposition": 1, "special-families": 1, "pushing": 0, "symmetry": 0,
}


def test_sized_suites_are_the_ones_not_sizeless():
    assert sorted(SIZED_STARTS) == sorted(set(verify.SUITES) - verify.SIZELESS)


@pytest.mark.parametrize("name, start", SIZED_STARTS.items())
def test_a_pass_names_the_range_that_ran(name, start):
    result = verify.run_suite(name, 2)
    assert result.ok, result.detail
    assert result.detail.endswith(f" for n = {start}..2"), result.detail


RECURSION_LAST = _poly._tree_recursion_last


def test_a_suite_stops_at_its_first_failing_n(monkeypatch):
    ran = []

    def failing_at_one(n):
        ran.append(n)
        return ZERO if n == 1 else RECURSION_LAST(n)

    monkeypatch.setattr(_poly, "_tree_recursion_last", failing_at_one)
    result = verify.run_suite("tree-factorization", 4)
    assert (result.ok, ran) == (False, [0, 1])
    assert result.detail.startswith("n=1: I_n by recursion = 0"), result.detail



@pytest.mark.parametrize("name, n_max", [
    ("unimodal", 0), ("arch-criterion", 0), ("simple-decomposition", 0),
    ("special-families", 0), ("symmetry", -1), ("l-inverse", -1),
])
def test_a_range_that_checks_nothing_is_refused(name, n_max):
    with pytest.raises(ValueError, match=f"starts at n = {SIZED_STARTS[name]}"):
        verify.run_suite(name, n_max)


def _perfbench_constant(module: str, name: str):
    """The literal bound to `name` in perfbench/<module>.py, read without
    importing the benchmark."""
    source = (Path(__file__).parents[1] / "perfbench" / f"{module}.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name)


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
# not only there; the rest pin the factor stream's order, the block
# recursion's sums and the parking enumerators on calls that no benchmark
# gate covers
_F7_SHA = "8388bb6488b3e8c1fbc76917e5dfaf1f025302b9ced9cc83b15a21f3808f14a3"
GATED_OUTPUTS = {
    "enumerate --kind trees --n 7":
        "8d8b509520107fda71c79f989532238c9ab6305b4a403b7e686e73467c973edf",
    "poly --name F --n 7": _F7_SHA,
    "poly --name B --n 7": _F7_SHA,
    "poly --name jump --n 7": _F7_SHA,
    "poly --name area --n 7":
        "33962f7bc776d9ee4c42c00b71fda7a0455b6b640a4869a931559c81bf91032d",
    "poly --name bounce --n 7":
        "9ba7b4095e614862209923c333cf95e1e8b3116109dbfdd668efa7d2aa00e854",
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
    "enumerate --kind parking --n 6":
        "0d68f92608363220ab24ae9f7970e830b61dcf37093bf492a8afe2560fd3dc8c",
    "enumerate --kind parking --n 6 --format json":
        "f848006cd604fb5b089945fc941d9f34435a593d2cdbb4d48b269d2c5e4379c8",
    "enumerate --kind majors --n 6":
        "96fd9404fb4f4533466bcd4f04606348d4ce6b8b8efa226eb4aad3460763b2f6",
    "enumerate --kind trees --n 6 --format json":
        "f1f1f630045bf190372a5f82bdbac2e4fb5c10d100e6a6c141b70b98ed543c0e",
    "enumerate --kind factorizations --n 5 --format json":
        "ce6b5afdd1c72c20ae4b35d6019baedeb7457de3621ba02f74f8da5d25a028c4",
    "enumerate --kind unimodal --n 7":
        "b3016a0295d80141253d8faea2f21815f719ad7ca31ae398ddc26c5c871c70a6",
    "poly --name D --n 12":
        "ead7d58fadd7474af9091114362f4ffe8b193b37fdc9c57ca9bdbb8b34c9b72c",
    "poly --name I --n 16":
        "d6c7e5dde6b0c41f114d92117610ec37abcb47f8ad69b8584d57ca889cc1fa6e",
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


def test_simple_decomposition_fails_on_a_part_outside_the_family(monkeypatch):
    # one part whose product (0 2 1) is a full cycle but not the canonical
    # one, so it is no member of F_2
    monkeypatch.setattr(_arch, "_valid_runs", lambda arcs, m: [arcs])
    monkeypatch.setattr(_arch, "_parts", lambda runs: [([(0, 2, 1), (0, 1, 2)], 3, (1, 2))])
    result = verify.run_suite("simple-decomposition", 2)
    assert result.ok is False
    assert result.detail == "a part of f=(0 1) is not in F_2"
