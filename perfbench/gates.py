"""Correctness gates: every output is compared with an oracle.

A gate returns a list of problems; an empty list means the output is
exact.  A problem fails the run -- a wrong answer is never counted as a
slow one.  The oracles are pinned values from the seed commit (line
counts and SHA-256 of the enumerator outputs, the 13 suite names) or
round trips through an independent route, evaluated outside any timed
region.
"""

from __future__ import annotations

import hashlib
import json

SUITES = (
    "cardinalities", "polynomial-pins", "tree-factorization", "bounce",
    "area-jump", "unimodal", "l-inverse", "arch-criterion",
    "simple-decomposition", "special-families", "worked-examples", "pushing",
    "symmetry",
)

# (argv, extra environment, output lines, SHA-256 of stdout, objects enumerated)
_F7_SHA = "8388bb6488b3e8c1fbc76917e5dfaf1f025302b9ced9cc83b15a21f3808f14a3"
ENUMERATOR_CALLS = {
    "trees7": (["enumerate", "--kind", "trees", "--n", "7"], {}, 262144,
               "8d8b509520107fda71c79f989532238c9ab6305b4a403b7e686e73467c973edf", 262144),
    "F7": (["poly", "--name", "F", "--n", "7"], {}, 1, _F7_SHA, 262144),
    "B7": (["poly", "--name", "B", "--n", "7"], {}, 1, _F7_SHA, 262144),
    "I18": (["poly", "--name", "I", "--n", "18"], {"PARKFACT_MAX_N": "18"}, 1,
            "85f36c9fd5a76f62824b31f7f1dd3749169ade8f21da22ee2184969d6173b1b7", 0),
}


def check_verify(exit_code: int, stdout: bytes) -> list[str]:
    problems = [] if exit_code == 0 else [f"verify exited {exit_code}"]
    lines = stdout.decode().splitlines()
    heads = [line.split(":", 1)[0] for line in lines]
    if heads != [f"PASS {name}" for name in SUITES]:
        problems.append(f"expected 13 PASS lines in suite order, got {heads}")
    return problems


def check_enumerator(name: str, exit_code: int, stdout: bytes, poly_text: str) -> list[str]:
    """Line count and pinned hash; F7 and B7 must also read as I_7 from the
    recursion (`poly_text`, computed by the caller outside the timed region)."""
    _, _, lines, sha, _ = ENUMERATOR_CALLS[name]
    problems = [] if exit_code == 0 else [f"{name} exited {exit_code}"]
    got_lines = stdout.count(b"\n")
    if got_lines != lines:
        problems.append(f"{name}: {got_lines} lines, expected {lines}")
    if hashlib.sha256(stdout).hexdigest() != sha:
        problems.append(f"{name}: output hash differs from the seed commit's")
    if name in ("F7", "B7") and stdout.decode() != poly_text + "\n":
        problems.append(f"{name} differs from tree_recursion_I(7)[7]")
    return problems


# ---------------------------------------------------------------- map-calls


def check_call(call, outcome: str, exit_code: int | None, stdout: str, stderr: str
               ) -> tuple[bool, list[str]]:
    """(failed, problems) for one map-calls operation.

    `failed` means the call raised or exited with the wrong code: it counts
    against failed_ratio.  `problems` are wrong outputs: they fail the run.
    """
    if outcome != "returned":
        return True, []
    if exit_code != call.expect_exit:
        return True, []
    if call.expect_exit != 0:
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: ") or stdout:
            return False, [f"{call.kind}: rejection is not one 'error:' line: {stderr!r}"]
        return False, []
    try:
        problems = _round_trip(call.kind, call.oracle, stdout)
    except Exception as exc:  # the oracle runs parkfact too; any error is a wrong result
        problems = [f"oracle raised on this output: {exc!r}"]
    return False, [f"{call.kind} {call.argv}: {p}" for p in problems]


def _round_trip(kind: str, oracle: dict, stdout: str) -> list[str]:
    """Check one valid call's output against its oracle (see inputs.py)."""
    import parkfact as pk
    from parkfact import render

    out = stdout.rstrip("\n")
    sigma = pk.parse_full_cycle(oracle["sigma"]) if "sigma" in oracle else None
    checks: list[tuple[bool, str]] = []
    if "text" in oracle:
        checks.append((out == oracle["text"], f"got {out!r}, expected {oracle['text']!r}"))
    if kind in ("l-inverse", "u-inverse"):
        f = pk.parse_factorization(out, sigma.n)
        seq = pk.lower(f) if kind == "l-inverse" else pk.upper(f)
        checks.append((",".join(map(str, seq)) == oracle["seq"], "sequence of the preimage differs"))
        checks.append((f.product() == sigma.to_permutation(), "preimage is not in F_sigma"))
    elif kind == "upper":
        back = pk.u_inverse(pk.parse_major(out), sigma)
        checks.append((str(back) == oracle["f"], "u_inverse(upper(f)) != f"))
    elif kind == "theta":
        back = pk.theta_inverse(pk.parse_tree(out))
        checks.append((str(back) == oracle["p"], "theta_inverse(theta(p)) != p"))
    elif kind == "arch":
        back = pk.arch_to_factorization(pk.arch_from_json(json.loads(out)), sigma)
        checks.append((str(back) == oracle["f"], "fact(arch(f)) != f"))
    elif kind in ("reflect-conjugate", "reflect-reverse"):
        f = pk.parse_factorization(oracle["f"])
        image = pk.parse_factorization(out, f.n)
        reflect = pk.reflect_conjugate if kind == "reflect-conjugate" else pk.reflect_reverse
        checks.append((reflect(image) == f, "reflecting twice does not give f back"))
    elif kind == "phi-k-inverse":
        f = pk.parse_factorization(out)
        checks.append((str(pk.phi_k(f, oracle["k"])) == oracle["g"],
                       "phi_k(phi_k_inverse(g)) != g"))
    elif kind in ("stats-parking", "stats-major"):
        record = json.loads(out)
        echo = "parking" if kind == "stats-parking" else "major"
        checks.append((record[echo] == oracle["seq"], f"echoed {echo} sequence differs"))
        checks.append((record["area"] == oracle["area"], "area differs from the entry sum"))
        if kind == "stats-parking":
            checks.append((record["pinv"] + record["copinv"] == record["bounce"],
                           "pinv + copinv != bounce"))
    elif kind == "stats-tree":
        record = json.loads(out)
        checks.append((record["depth"] == oracle["depth"], "depth is not the sum of root distances"))
        checks.append((record["inv"] + record["coinv"] == record["depth"], "inv + coinv != depth"))
    elif kind == "stats-factorization":
        record = json.loads(out)
        checks.append((record["lower"] == oracle["lower"], "lower sequence differs"))
    elif kind == "render-path":
        p = pk.parse_parking(oracle["p"])
        expected = render.render_path_ascii(pk.to_path(p), pk.bounce(p)[0])
        checks.append((stdout == expected, "path picture differs from render_path_ascii"))
    elif kind == "render-arch":
        f = pk.parse_factorization(oracle["f"], sigma.n)
        expected = render.render_arch_svg(pk.sigma_diagram(f, sigma), sigma)
        checks.append((stdout == expected and stdout.startswith("<svg"),
                       "arch picture differs from render_arch_svg"))
    return [what for ok, what in checks if not ok]
