"""parkfact: the command-line surface.

Subcommands: enumerate, stats, map, poly, verify, render, explore.
Exit codes: 0 success, 1 invalid input (diagnostic on stderr), 2
verification failure (counterexample on stdout) or a broken internal
invariant (one "internal error:" line on stderr).  Exhaustive subcommands
refuse n beyond a safety limit (default 8, override with PARKFACT_MAX_N).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import arch as _arch
from . import factorizations as _fact
from . import inverse_maps as _inv
from . import parking as _park
from . import polynomials as _poly
from . import render as _render
from . import trees as _trees
from . import verify as _verify
from .permutations import (
    FullCycle,
    format_permutation,
    parse_full_cycle,
    reflect_conjugate,
    reflect_reverse,
    unimodal_cycles,
)


class CliError(Exception):
    """Invalid input; the CLI reports it and exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 1
        raise CliError(message)


def _safety_limit(default: int = 8) -> int:
    raw = os.environ.get("PARKFACT_MAX_N")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"PARKFACT_MAX_N must be an integer, got {raw!r}")


def _guard_n(n: int, limit: float | None = None) -> int:
    cap = _safety_limit() if limit is None else limit
    if n < 0:
        raise CliError("n must be nonnegative")
    if n > cap:
        raise CliError(
            f"n = {n} exceeds the safety limit {cap}; set PARKFACT_MAX_N to override"
        )
    return n


def _read_input(args) -> str:
    if args.input is None:
        raise CliError("this command needs --input")
    if args.input == "-":
        return sys.stdin.read().strip()
    return args.input.strip()


def _sigma_for(args, n: int) -> FullCycle:
    if getattr(args, "sigma", None):
        sigma = parse_full_cycle(args.sigma)
        if sigma.n != n:
            raise CliError(f"sigma is on [{sigma.n}] but the object needs [{n}]")
        return sigma
    return FullCycle.canonical(n)


def _print_poly(poly, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(poly.to_json_terms()))
    else:
        print(str(poly))


# -------------------------------------------------------------- enumerate


def _cmd_enumerate(args) -> int:
    n = _guard_n(args.n)
    kind = args.kind
    fmt = args.format
    if kind == "trees":
        # raw parent tuples: no LabelledTree per line; the tests validate
        # this decoder's every tree for n <= 7
        lines = ((json.dumps(_trees._parent_json(p)) for p in _trees._parent_tuples(n))
                 if fmt == "json" else _trees._tree_lines(n))
        sys.stdout.writelines(line + "\n" for line in lines)
    elif kind == "parking":
        for p in _park.enumerate_parking(n):
            print(json.dumps(_park.sequence_to_json(p)) if fmt == "json" else str(p))
    elif kind == "majors":
        for m in _park.enumerate_majors(n):
            print(json.dumps(_park.sequence_to_json(m)) if fmt == "json" else str(m))
    elif kind == "factorizations":
        sigma = _sigma_for(args, n)
        for f in _fact.enumerate_factorizations(sigma):
            print(json.dumps(_fact.factorization_to_json(f)) if fmt == "json"
                  else str(f))
    elif kind == "arch":
        sigma = _sigma_for(args, n)
        for f in _fact.enumerate_factorizations(sigma):
            diagram = _arch.sigma_diagram(f, sigma)
            if fmt == "json":
                print(json.dumps(_arch.arch_to_json(diagram)))
            else:
                arcs = "".join(f"({l},{r},{lab})" for l, r, lab in diagram.arcs)
                print(f"n={diagram.n} {arcs}")
    elif kind == "unimodal":
        if n < 1:
            raise CliError("unimodal enumeration needs n >= 1")
        for sigma in unimodal_cycles(n):
            print(str(sigma))
    else:
        raise CliError(f"unknown kind {kind!r}")
    return 0


# ------------------------------------------------------------------ stats


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")


def _cmd_stats(args) -> int:
    text = _read_input(args)
    fmt = args.format
    if args.kind == "tree":
        tree = _trees.parse_tree(text)
        i, c, d = _trees.tree_stats(tree)
        _emit({"tree": _trees.format_tree(tree), "n": tree.n,
               "inv": i, "coinv": c, "depth": d}, fmt)
    elif args.kind == "parking":
        p = _park.parse_parking(text)
        data, value = _park.bounce(p)
        path = _park.to_path(p)
        proc = _park.park_process(p)
        _emit({
            "parking": str(p), "n": p.n, "area": _park.area(p),
            "bounce": value, "contacts": list(data.contacts),
            "pinv": _park.pinv(p), "copinv": _park.copinv(p),
            "jump": proc.jump, "cojump": proc.cojump,
            "stalls": list(proc.stalls),
            "heights": list(path.heights), "labels": list(path.labels),
        }, fmt)
    elif args.kind == "major":
        m = _park.parse_major(text)
        path = _park.to_path(m)
        _emit({"major": str(m), "n": m.n, "area": _park.area(m),
               "heights": list(path.heights), "labels": list(path.labels)}, fmt)
    elif args.kind == "factorization":
        f = _fact.parse_factorization(text, args.n)
        record = {
            "factorization": str(f), "n": f.n,
            "product": format_permutation(f.product()),
            "lower": list(_fact.lower(f)), "upper": list(_fact.upper(f)),
        }
        pi = f.product()
        if len(f.factors) == f.n and pi.num_cycles() == 1:
            record["area_lower"] = _fact.area_lower(f)
            record["area_upper"] = _fact.area_upper(f)
            record["total_difference"] = _fact.total_difference(f)
            record["simple"] = _fact.is_simple(f)
            if record["simple"]:
                record["simple_index"] = _fact.simple_index(f)
        else:
            record["note"] = "not a minimal factorization of a full cycle"
        _emit(record, fmt)
    else:
        raise CliError(f"unknown kind {args.kind!r}")
    return 0


# -------------------------------------------------------------------- map


_VIA_INPUT_KIND = {
    "lower": "factorization", "L": "factorization",
    "upper": "factorization", "U": "factorization",
    "l-inverse": "parking", "u-inverse": "major",
    "theta": "parking", "theta-inverse": "tree",
    "phi-k": "factorization", "phi-k-inverse": "factorization",
    "arch": "factorization", "fact": "arch",
    "push": "parking",
    "reflect-conjugate": "factorization", "reflect-reverse": "factorization",
    "complement": "parking",
}


def _cmd_map(args) -> int:
    via = args.via
    if via not in _VIA_INPUT_KIND:
        raise CliError(f"unknown bijection {via!r}")
    source = args.source or _VIA_INPUT_KIND[via]
    text = _read_input(args)
    fmt = args.format

    if via in ("lower", "L", "upper", "U"):
        f = _fact.parse_factorization(text, args.n)
        seq = _fact.lower(f) if via in ("lower", "L") else _fact.upper(f)
        print(",".join(str(x) for x in seq))
    elif via == "l-inverse":
        p = _park.parse_parking(text)
        sigma = _sigma_for(args, p.n)
        print(str(_inv.l_inverse(p, sigma)))
    elif via == "u-inverse":
        m = _park.parse_major(text)
        sigma = _sigma_for(args, m.n)
        print(str(_inv.u_inverse(m, sigma)))
    elif via == "theta":
        p = _park.parse_parking(text)
        tree = _park.theta(p)
        print(json.dumps(_trees.tree_to_json(tree)) if fmt == "json"
              else _trees.format_tree(tree))
    elif via == "theta-inverse":
        tree = _trees.parse_tree(text)
        print(str(_park.theta_inverse(tree)))
    elif via == "phi-k":
        if args.k is None:
            raise CliError("phi-k needs --k")
        f = _fact.parse_factorization(text, args.n)
        print(str(_fact.phi_k(f, args.k)))
    elif via == "phi-k-inverse":
        if args.k is None or args.n is None:
            raise CliError("phi-k-inverse needs --k and --n")
        g = _fact.parse_factorization(text, args.n - 1)
        print(str(_fact.phi_k_inverse(g, args.k, args.n)))
    elif via == "arch":
        f = _fact.parse_factorization(text, args.n)
        sigma = _sigma_for(args, f.n)
        print(json.dumps(_arch.arch_to_json(_arch.sigma_diagram(f, sigma))))
    elif via == "fact":
        diagram = _arch.arch_from_json(json.loads(text))
        sigma = _sigma_for(args, diagram.n)
        print(str(_arch.arch_to_factorization(diagram, sigma)))
    elif via == "push":
        p = _park.parse_parking(text)
        pushed = _inv.push_upper_path(_park.to_path(p))
        print(str(_park.from_path(pushed)))
    elif via == "reflect-conjugate":
        if source == "cycle":
            print(str(reflect_conjugate(parse_full_cycle(text))))
        else:
            f = _fact.parse_factorization(text, args.n)
            print(str(reflect_conjugate(f)))
    elif via == "reflect-reverse":
        f = _fact.parse_factorization(text, args.n)
        print(str(reflect_reverse(f)))
    elif via == "complement":
        if source == "major":
            print(str(_park.complement(_park.parse_major(text))))
        else:
            print(str(_park.complement(_park.parse_parking(text))))
    return 0


# ------------------------------------------------------------------- poly


def _cmd_poly(args) -> int:
    name = args.name
    fmt = args.format
    if name in ("I", "D", "C"):
        # computed by recursion, no object enumeration, so no safety limit;
        # the identities tying these to the brute-force sums are what
        # 'verify' checks
        n = _guard_n(args.n, limit=math.inf)
        if name == "I":
            poly = _poly.tree_recursion_I(n)[n]
        elif name == "D":
            poly = _poly.tree_recursion_I(n)[n].diagonal()
        else:
            poly = _poly.catalan_qt(n)
        _print_poly(poly, fmt)
        return 0

    n = _guard_n(args.n)
    if name == "F":
        sigma = _sigma_for(args, n)
        poly = _fact.factorization_enumerator(sigma)
    elif name in ("Fhat", "Finc", "Fdec", "Fmax", "Fperm"):
        r = _fact.restricted_enumerators(n)
        poly = {
            "Fhat": r.simple, "Finc": r.increasing, "Fdec": r.decreasing,
            "Fmax": r.max_diff, "Fperm": r.perm_lower,
        }[name]
    elif name in ("B", "area", "bounce"):  # the bounce kernel alone
        area_poly, bounce_poly, pinv_copinv = _park._bounce_pass(n)
        poly = {"B": pinv_copinv, "area": area_poly, "bounce": bounce_poly}[name]
    elif name == "jump":
        poly = _park._jump_pass(n)
    else:
        raise CliError(f"unknown polynomial {name!r}")
    _print_poly(poly, fmt)
    return 0


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    try:
        names = _verify.resolve_suites(args.suite)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.n is not None:
        _guard_n(args.n)
    failures = 0
    for name in names:
        result = _verify.run_suite(name, args.n)
        print(result.line())
        failures += not result.ok
    if failures:
        print(f"{failures} of {len(names)} suites failed")
        return 2
    return 0


# ----------------------------------------------------------------- render


def _cmd_render(args) -> int:
    text = _read_input(args)
    if args.kind == "path":
        value = _park.parse_major(text) if args.major else _park.parse_parking(text)
        path = _park.to_path(value)
        bounce_data = None
        if args.with_bounce:
            if args.major:
                raise CliError("the bounce path is defined for parking functions")
            bounce_data, _ = _park.bounce(value)
        out = (_render.render_path_svg(path, bounce_data) if args.format == "svg"
               else _render.render_path_ascii(path, bounce_data))
    elif args.kind == "arch":
        f = _fact.parse_factorization(text, args.n)
        sigma = _sigma_for(args, f.n)
        diagram = _arch.sigma_diagram(f, sigma)
        out = (_render.render_arch_svg(diagram, sigma) if args.format == "svg"
               else _render.render_arch_ascii(diagram, sigma))
    else:
        raise CliError(f"unknown kind {args.kind!r}")
    sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------- explore


def _cmd_explore(args) -> int:
    limit = _safety_limit(default=6)
    n = _guard_n(args.n, limit=limit)
    if n < 1:
        raise CliError("explore needs n >= 1")
    reference = _poly.tree_recursion_I(n)[n]
    print(f"I_{n}(q,t) = {reference}")
    matches = 0
    total = 0
    for sigma in unimodal_cycles(n):
        poly = _fact.factorization_enumerator(sigma)
        total += 1
        if poly == reference:
            matches += 1
            print(f"{sigma}: equal")
        else:
            print(f"{sigma}: differs  F_sigma = {poly}")
    print(f"summary: {matches} of {total} unimodal cycles have F_sigma = I_{n}")
    return 0


# ------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="parkfact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a family of objects")
    p.add_argument("--kind", required=True,
                   choices=["trees", "parking", "majors", "factorizations",
                            "arch", "unimodal"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("stats", help="all statistics of one object")
    p.add_argument("--kind", required=True,
                   choices=["tree", "parking", "major", "factorization"])
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("map", help="apply a named bijection")
    p.add_argument("--via", required=True)
    p.add_argument("--from", dest="source",
                   choices=["parking", "major", "factorization", "tree",
                            "arch", "cycle"])
    p.add_argument("--input", required=True)
    p.add_argument("--sigma")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("poly", help="print a named enumerator")
    p.add_argument("--name", required=True,
                   choices=["I", "F", "B", "D", "C", "Fhat", "Finc", "Fdec",
                            "Fmax", "Fperm", "area", "bounce", "jump"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int)

    p = sub.add_parser("render", help="draw a path or an arch diagram")
    p.add_argument("--kind", required=True, choices=["path", "arch"])
    p.add_argument("--input", required=True)
    p.add_argument("--major", action="store_true")
    p.add_argument("--with-bounce", dest="with_bounce", action="store_true")
    p.add_argument("--sigma")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["svg", "ascii"], default="ascii")

    p = sub.add_parser("explore", help="compare F_sigma against I_n over "
                                       "all unimodal cycles")
    p.add_argument("--n", type=int, required=True)

    return parser


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "stats": _cmd_stats,
    "map": _cmd_map,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
    "render": _cmd_render,
    "explore": _cmd_explore,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a broken internal invariant, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
