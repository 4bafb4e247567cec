"""Tests of the benchmark itself: span arithmetic, gates and inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import gates  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_of_nested_spans_and_generators():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    inner = t.wrap_call(lambda ns: clock.advance(ns), "m.inner")

    def fail(ns):
        clock.advance(ns)
        raise ValueError("malformed")

    failing = t.wrap_call(fail, "m.failing")

    def numbers():
        for i in range(3):
            clock.advance(4)
            yield i
        inner(2)
        clock.advance(1)

    gen = t.wrap_generator_function(numbers, "m.numbers")

    def outer_body():
        clock.advance(10)
        inner(20)
        clock.advance(5)
        for _ in gen():
            clock.advance(100)  # the consumer's time is not the generator's
        inner(30)
        try:
            failing(7)
        except ValueError:
            pass

    outer = t.wrap_call(outer_body, "m.outer")
    outer()

    names = t.summary()["names"]
    assert names["m.inner"] == {"calls": 3, "busy_ns": 52, "self_ns": 52, "yields": 0}
    # a call that raises still closes its span
    assert names["m.failing"] == {"calls": 1, "busy_ns": 7, "self_ns": 7, "yields": 0}
    # generator: 3 x 4 in its resumes + 1 after the loop + 2 in its child
    assert names["m.numbers"] == {"calls": 1, "busy_ns": 15, "self_ns": 13, "yields": 3}
    # outer: 10 + 20 + 5 + 300 + 15 + 30 + 7; children cover 20 + 15 + 30 + 7
    assert names["m.outer"]["busy_ns"] == 387
    assert names["m.outer"]["self_ns"] == 315
    assert sum(v["self_ns"] for v in names.values()) == 387
    assert t.summary()["edges"] == {">m.outer": 1, "m.outer>m.inner": 2,
                                    "m.outer>m.numbers": 1, "m.numbers>m.inner": 1,
                                    "m.outer>m.failing": 1}
    # kept spans (depth < KEEP_DEPTH = 3): all six, each with its parent's span id
    assert tracer.KEEP_DEPTH == 3
    kept = [(t.names[nid], start, end, busy, parent) for nid, start, end, busy, parent in t.kept]
    assert kept == [
        ("m.outer", 0, 387, 387, tracer.NO_SPAN),
        ("m.inner", 10, 30, 20, 0),
        ("m.numbers", 35, 350, 15, 0),
        ("m.inner", 347, 349, 2, 2),
        ("m.inner", 350, 380, 30, 0),
        ("m.failing", 380, 387, 7, 0),
    ]


def test_abandoned_generator_closes_its_span():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def forever():
        while True:
            clock.advance(3)
            yield None

    gen = t.wrap_generator_function(forever, "m.forever")()
    next(gen)
    next(gen)
    gen.close()
    assert t.summary()["names"]["m.forever"] == {
        "calls": 1, "busy_ns": 6, "self_ns": 6, "yields": 2}


def test_enumerator_gate_rejects_corrupted_output():
    from parkfact import tree_recursion_I

    text = str(tree_recursion_I(7)[7])
    good = (text + "\n").encode()
    assert gates.check_enumerator("F7", 0, good, text) == []
    corrupted = good.replace(b"+", b"-", 1)
    assert gates.check_enumerator("F7", 0, corrupted, text)
    # right line count, wrong content
    assert gates.check_enumerator("trees7", 0, b"0:-\n" * 262144, "")
    assert gates.check_enumerator("F7", 1, good, text)  # exit code counts too


def test_verify_gate_needs_all_suites_passing():
    lines = [f"PASS {name}: ok" for name in gates.SUITES]
    assert gates.check_verify(0, "\n".join(lines).encode()) == []
    lines[8] = "FAIL simple-decomposition: counterexample"
    assert gates.check_verify(2, "\n".join(lines).encode())
    assert gates.check_verify(0, "\n".join(lines[:12]).encode())


def run_main(argv):
    from parkfact import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_round_trip_gates_accept_true_and_reject_wrong_results():
    calls = inputs.build_calls(seed=7, count=200)
    by_kind = {}
    for call in calls:
        by_kind.setdefault(call.kind, call)
    for kind in inputs.VALID_KINDS:
        call = by_kind[kind]
        code, out, err = run_main(call.argv)
        assert gates.check_call(call, "returned", code, out, err) == (False, []), kind

    call = by_kind["l-inverse"]
    code, out, err = run_main(call.argv)
    wrong = out[: out.rindex("(")] + "\n"  # drop the last factor
    failed, problems = gates.check_call(call, "returned", code, wrong, err)
    assert not failed and problems

    call = by_kind["theta"]
    code, out, err = run_main(call.argv)
    failed, problems = gates.check_call(call, "returned", 0, "0:-" + "".join(
        f",{v}:0" for v in range(1, call.argv[-1].count(",") + 2)) + "\n", "")
    assert problems  # the star tree is theta of a different parking function


def test_malformed_calls_must_fail_cleanly():
    call = inputs.Call("parking-not-int", ["map", "--via", "theta", "--input", "1,x"], 1)
    assert gates.check_call(call, "returned", 1, "", "error: bad\n") == (False, [])
    assert gates.check_call(call, "returned", 1, "", "Traceback\n  ...\n")[1]
    assert gates.check_call(call, "returned", 0, "", "") == (True, [])
    assert gates.check_call(call, "raised KeyError", None, "", "") == (True, [])


def test_random_parking_is_uniform_support_and_unimodal_is_valid():
    from parkfact import is_parking, is_unimodal, parse_full_cycle

    rng = random.Random(3)
    seen = {inputs.random_parking(rng, 3) for _ in range(2000)}
    assert len(seen) == 16 and all(is_parking(p) for p in seen)
    for n in range(1, 12):
        word = inputs.random_unimodal(rng, n)
        assert is_unimodal(parse_full_cycle(inputs.word_text(word)))


def test_calls_depend_only_on_the_seed():
    assert [c.argv for c in inputs.build_calls(5, 60)] == \
        [c.argv for c in inputs.build_calls(5, 60)]
    assert [c.argv for c in inputs.build_calls(5, 60)] != \
        [c.argv for c in inputs.build_calls(6, 60)]
