"""Seeded inputs for the map-calls workload.

Random objects are drawn with the standard library from the seed alone:
uniform parking functions by the cycle lemma, unimodal full cycles by a
random ascent set.  Objects that parkfact itself must produce (the
factorization with a given lower sequence, its arch JSON, the tree of a
parking function) are derived through parkfact's public functions here,
outside any timed region, so the program under test sees only argv.

Each call is a `Call`: the argv, the exit code a correct program gives,
and what the output is checked against (`gates.check_call`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

N_MIN, N_MAX = 4, 48
MALFORMED_SHARE = 0.1

# malformed inputs that the seed commit mishandles; each failure of one of
# these is reported under its name, never silently dropped
KNOWN_DEFECTS = {
    "fact-json-missing-key": "map --via fact on arch JSON without an 'arcs' key "
                             "escapes cli.main as an uncaught KeyError (ROADMAP item 4)",
    "tree-duplicate-vertex": "parse_tree accepts a duplicated vertex and exits 0 "
                             "(ROADMAP item 4)",
}


@dataclass
class Call:
    kind: str
    argv: list[str]
    expect_exit: int
    oracle: dict = field(default_factory=dict)


# ------------------------------------------------------------ random objects


def random_parking(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform parking function of length n (0-based entries).

    Cycle lemma (Pollak): of the n+1 diagonal shifts of a uniform word in
    Z_(n+1)^n exactly one is a parking function.
    """
    word = [rng.randrange(n + 1) for _ in range(n)]
    for shift in range(n + 1):
        entries = tuple((a + shift) % (n + 1) for a in word)
        if is_parking_word(entries):
            return entries
    raise AssertionError("cycle lemma found no parking shift")


def is_parking_word(entries) -> bool:
    return all(a <= i for i, a in enumerate(sorted(entries)))


def random_unimodal(rng: random.Random, n: int) -> tuple[int, ...]:
    """Visit word of a uniform unimodal full cycle: 0, rising side, n, falling side."""
    rises = [rng.random() < 0.5 for _ in range(n)]
    rising = [v for v in range(1, n) if rises[v]]
    falling = [v for v in range(n - 1, 0, -1) if not rises[v]]
    return (0, *rising, n, *falling)


def csv(entries) -> str:
    return ",".join(str(x) for x in entries)


def word_text(word) -> str:
    return " ".join(str(x) for x in word)


# ----------------------------------------------------------------- the calls

VALID_KINDS = (
    "l-inverse", "u-inverse", "lower", "upper", "theta", "theta-inverse",
    "arch", "fact", "push", "complement", "reflect-conjugate",
    "reflect-reverse", "phi-k", "phi-k-inverse", "stats-parking",
    "stats-major", "stats-tree", "stats-factorization", "render-path",
    "render-arch",
)

MALFORMED = (
    ("parking-not-int", ["map", "--via", "theta", "--input", "1,x,0"]),
    ("parking-not-parking", ["map", "--via", "theta", "--input", "3,3,3"]),
    ("major-not-major", ["map", "--via", "u-inverse", "--input", "0,0,0"]),
    ("factorization-stray", ["map", "--via", "lower", "--input", "(1 2)(3"]),
    ("factorization-triple", ["stats", "--kind", "factorization", "--input", "(1 2 3)"]),
    ("sigma-no-leading-zero", ["map", "--via", "l-inverse", "--sigma", "1 0 2",
                               "--input", "0,0"]),
    ("sigma-not-unimodal", ["map", "--via", "l-inverse", "--sigma", "0 2 1 3",
                            "--input", "0,0,0"]),
    ("sigma-size-mismatch", ["map", "--via", "l-inverse", "--sigma", "0 1 2",
                             "--input", "0,0,0"]),
    ("tree-not-rooted", ["map", "--via", "theta-inverse", "--input", "0:-,1:2,2:1"]),
    ("tree-not-int", ["stats", "--kind", "tree", "--input", "0:-,1:x"]),
    ("tree-duplicate-vertex", ["map", "--via", "theta-inverse",
                               "--input", "0:-,1:0,1:0,2:1"]),
    ("fact-json-syntax", ["map", "--via", "fact", "--input", '{"n":1,']),
    ("fact-json-missing-key", ["map", "--via", "fact", "--input", '{"n":1}']),
    ("fact-invalid-diagram", ["map", "--via", "fact",
                              "--input", '{"n":2,"arcs":[[0,1,1]]}']),
    ("unknown-via", ["map", "--via", "sideways", "--input", "0"]),
    ("missing-input", ["render", "--kind", "path"]),
)


def build_calls(seed: int, count: int) -> list[Call]:
    """`count` calls: a fixed schedule of (kind, n) shuffled by the seed.

    n cycles through N_MIN..N_MAX and kinds round-robin, so every seed
    carries the same mix and the same sizes; the seed picks the objects,
    the order and, for half the calls, a random unimodal sigma.
    """
    import parkfact as pk  # imported here: run.py must start without it

    rng = random.Random(seed)
    malformed_count = round(count * MALFORMED_SHARE)
    calls: list[Call] = []
    for i in range(malformed_count):
        name, argv = MALFORMED[i % len(MALFORMED)]
        calls.append(Call(name, list(argv), 1))
    sizes = range(N_MIN, N_MAX + 1)
    for i in range(count - malformed_count):
        kind = VALID_KINDS[i % len(VALID_KINDS)]
        n = sizes[(i // len(VALID_KINDS) + i) % len(sizes)]
        p = random_parking(rng, n)
        canonical = rng.random() < 0.5
        word = tuple(range(n + 1)) if canonical else random_unimodal(rng, n)
        if kind.startswith("phi-k"):
            word = tuple(range(n + 1))  # rotations act on the canonical cycle
        sigma = pk.FullCycle(word)
        pf = pk.ParkingFunction(p)
        calls.append(_valid_call(pk, kind, rng, pf, sigma, pk.l_inverse(pf, sigma)))
    rng.shuffle(calls)
    return calls


def _valid_call(pk, kind, rng, pf, sigma, f) -> Call:
    """One valid call and its oracle (checked by gates.check_call)."""
    n, p, sig, fs = pf.n, csv(pf.entries), word_text(sigma.word), str(f)
    m = csv(n - x for x in pf.entries)
    tree = _tree_text(pk.theta(pf).parent)
    half = n * (n - 1) // 2
    if kind == "l-inverse":
        return Call(kind, ["map", "--via", kind, "--sigma", sig, "--input", p], 0,
                    {"seq": p, "sigma": sig})
    if kind == "u-inverse":
        return Call(kind, ["map", "--via", kind, "--sigma", sig, "--input", m], 0,
                    {"seq": m, "sigma": sig})
    if kind == "lower":
        return Call(kind, ["map", "--via", kind, "--n", str(n), "--input", fs], 0, {"text": p})
    if kind == "upper":
        return Call(kind, ["map", "--via", kind, "--n", str(n), "--input", fs], 0,
                    {"f": fs, "sigma": sig})
    if kind == "theta":
        return Call(kind, ["map", "--via", kind, "--input", p], 0, {"p": p})
    if kind == "theta-inverse":
        return Call(kind, ["map", "--via", kind, "--input", tree], 0, {"text": p})
    if kind == "arch":
        return Call(kind, ["map", "--via", kind, "--sigma", sig, "--input", fs], 0,
                    {"f": fs, "sigma": sig})
    if kind == "fact":
        diagram = json.dumps(pk.arch_to_json(pk.sigma_diagram(f, sigma)))
        return Call(kind, ["map", "--via", kind, "--sigma", sig, "--input", diagram], 0,
                    {"text": fs})
    if kind == "push":
        # the pushing theorem: pushed labels give the upper sequence of
        # the canonical preimage
        canonical_f = pk.l_inverse(pf, pk.FullCycle.canonical(n))
        return Call(kind, ["map", "--via", kind, "--input", p], 0,
                    {"text": csv(pk.upper(canonical_f))})
    if kind == "complement":
        return Call(kind, ["map", "--via", kind, "--input", p], 0, {"text": m})
    if kind in ("reflect-conjugate", "reflect-reverse"):
        return Call(kind, ["map", "--via", kind, "--n", str(n), "--input", fs], 0, {"f": fs})
    if kind in ("phi-k", "phi-k-inverse"):
        k = rng.randint(1, n)
        g = pk.l_inverse(pk.ParkingFunction(random_parking(rng, n - 1)),
                         pk.FullCycle.canonical(n - 1))
        if kind == "phi-k-inverse":
            return Call(kind, ["map", "--via", kind, "--k", str(k), "--n", str(n),
                               "--input", str(g)], 0, {"g": str(g), "k": k})
        h = pk.phi_k_inverse(g, k, n)
        return Call(kind, ["map", "--via", kind, "--k", str(k), "--n", str(n),
                           "--input", str(h)], 0, {"text": str(g)})
    if kind == "stats-parking":
        return Call(kind, ["stats", "--kind", "parking", "--format", "json", "--input", p], 0,
                    {"seq": p, "area": half - sum(pf.entries)})
    if kind == "stats-major":
        return Call(kind, ["stats", "--kind", "major", "--format", "json", "--input", m], 0,
                    {"seq": m, "area": sum(n - x for x in pf.entries) - half})
    if kind == "stats-tree":
        return Call(kind, ["stats", "--kind", "tree", "--format", "json", "--input", tree], 0,
                    {"depth": _depth_sum(pk.theta(pf).parent)})
    if kind == "stats-factorization":
        return Call(kind, ["stats", "--kind", "factorization", "--format", "json",
                           "--n", str(n), "--input", fs], 0, {"lower": list(pf.entries)})
    if kind == "render-path":
        return Call(kind, ["render", "--kind", "path", "--with-bounce", "--input", p], 0,
                    {"p": p})
    if kind == "render-arch":
        return Call(kind, ["render", "--kind", "arch", "--format", "svg", "--sigma", sig,
                           "--input", fs], 0, {"f": fs, "sigma": sig})
    raise ValueError(f"unknown call kind {kind!r}")


def _tree_text(parent) -> str:
    return ",".join(["0:-"] + [f"{v}:{parent[v]}" for v in range(1, len(parent))])


def _depth_sum(parent) -> int:
    """Sum of root distances, by walking each vertex up to the root."""
    total = 0
    for v in range(1, len(parent)):
        while v != 0:
            v = parent[v]
            total += 1
    return total
