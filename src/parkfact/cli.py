"""parkfact: the command-line surface.

Subcommands: enumerate, stats, map, poly, verify, render, explore.
Exit codes: 0 success, 1 invalid input (diagnostic on stderr), 2
verification failure (counterexample on stdout) or a broken internal
invariant (one "internal error:" line on stderr).  A stdout closed early,
as by "| head", still ends the command with exit 1 and no traceback.
enumerate writes its lines in fixed-size chunks, so its memory stays flat
however long the listing.  Exhaustive subcommands refuse n beyond a safety
limit (default 8, override with PARKFACT_MAX_N); commands that read one
object refuse n above 10^5, where n is also a sequence's length, a tree's
largest vertex or a visit word's largest entry; render --format ascii
refuses n above 2,000.  verify runs more than one suite on one spawned
worker process per usable CPU and prints each line in suite order as it
arrives, so its output is byte-identical to a serial run; a single suite,
or a single usable CPU, runs in this process.  A script that calls main for
several suites keeps its top level under `if __name__ == "__main__":`,
since each worker imports it.  Each call of main builds the parser of the
named subcommand only, or of all seven for help and errors, and keeps no
state between calls.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import islice

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
    _int_token,
    format_permutation,
    parse_full_cycle,
    unimodal_cycles,
)


class CliError(Exception):
    """Invalid input; the CLI reports it and exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 1
        raise CliError(message)


def _int_option(text: str) -> int:
    """--n and --k, read by the token rule of every other integer; the
    refusal keeps argparse's wording for type=int."""
    try:
        return _int_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _safety_limit(default: int = 8) -> int:
    raw = os.environ.get("PARKFACT_MAX_N")
    if raw is None:
        return default
    try:
        return _int_token(raw)
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


_MAX_GROUND_SET = 10**5  # map --via arch at the cap: about 31 MB and 0.04 s


def _factorization_or_visit_word(text: str, args):
    try:
        return _fact.parse_factorization(text, args.n)
    except ValueError:
        return parse_full_cycle(text)


def _phi_k_input(text: str, args):
    if args.k is None:
        raise CliError("phi-k needs --k")
    return _fact.parse_factorization(text, args.n)


def _phi_k_inverse_input(text: str, args):
    if args.k is None or args.n is None:
        raise CliError("phi-k-inverse needs --k and --n")
    if args.n < 1:
        raise CliError(f"phi-k-inverse needs --n >= 1, got --n {args.n}")
    return _fact.parse_factorization(text, args.n - 1)


# every --input shape's parser, from the stripped text and the options
_SHAPES = {
    "tree": lambda text, args: _trees.parse_tree(text),
    "parking": lambda text, args: _park.parse_parking(text),
    "major": lambda text, args: _park.parse_major(text),
    "sequence": lambda text, args: _park.parse_sequence(text),
    "factorization": lambda text, args: _fact.parse_factorization(text, args.n),
    "arch": lambda text, args: _arch.arch_from_json(json.loads(text)),
    "factorization-or-visit-word": _factorization_or_visit_word,
    "phi-k": _phi_k_input,
    "phi-k-inverse": _phi_k_inverse_input,
}


def _read(args, shape: str):
    """The object --input (or stdin, for "-") spells in the given shape, its n capped."""
    text = args.input
    if not isinstance(text, str):  # argparse stores [] for --input=--
        raise CliError("--input needs a value")
    if text == "-":
        if sys.stdin is None:
            raise CliError("--input - needs stdin, which is closed")
        text = sys.stdin.read()
    value = _SHAPES[shape](text.strip(), args)
    if value.n > _MAX_GROUND_SET:
        raise CliError(f"n = {value.n} exceeds the single-object limit {_MAX_GROUND_SET}")
    return value


def _sigma_for(args, n: int) -> FullCycle:
    if args.sigma is not None:
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


def _list_trees(n, args):
    if args.format == "json":
        # raw parent tuples: no LabelledTree per line; the tests validate
        # this decoder's every tree for n <= 7
        return (json.dumps(_trees._parent_json(p)) for p in _trees._parent_tuples(n))
    return _trees._tree_lines(n)


def _list_sequences(generate):
    return lambda n, args: (json.dumps(_park.sequence_to_json(p)) if args.format == "json"
                            else str(p) for p in generate(n))


def _list_factorizations(n, args):
    for f in _fact.enumerate_factorizations(_sigma_for(args, n)):
        yield json.dumps(_fact.factorization_to_json(f)) if args.format == "json" else str(f)


def _list_arch(n, args):
    sigma = _sigma_for(args, n)
    for f in _fact.enumerate_factorizations(sigma):
        diagram = _arch.sigma_diagram(f, sigma)
        if args.format == "json":
            yield json.dumps(_arch.arch_to_json(diagram))
        else:
            arcs = "".join(f"({l},{r},{lab})" for l, r, lab in diagram.arcs)
            yield f"n={diagram.n} {arcs}"


def _list_unimodal(n, args):
    if n < 1:
        raise CliError("unimodal enumeration needs n >= 1")
    return map(str, unimodal_cycles(n))


# each --kind: (the options it reads besides the required --n, its output
# lines for n); the key order is the order --help lists
_ENUMERATIONS = {
    "trees": (("format",), _list_trees),
    "parking": (("format",), _list_sequences(_park.enumerate_parking)),
    "majors": (("format",), _list_sequences(_park.enumerate_majors)),
    "factorizations": (("sigma", "format"), _list_factorizations),
    "arch": (("sigma", "format"), _list_arch),
    "unimodal": ((), _list_unimodal),
}


def _refuse_unread(args, reads: tuple[str, ...], what: str) -> None:
    """Refuse each of --sigma, --n, --k, --with-bounce and --format that is
    given but not among the options `what` reads."""
    for option in ("sigma", "n", "k", "with_bounce", "format"):
        value = getattr(args, option, None)
        if value is not None and value is not False and option not in reads:
            raise CliError(f"{what} does not read --{option.replace('_', '-')}")


# lines per write of a listing: one write per line costs more than making
# the line, and one write of the whole listing holds it all in memory
_CHUNK_LINES = 4096


def _cmd_enumerate(args) -> int:
    reads, listing = _ENUMERATIONS[args.kind]
    _refuse_unread(args, ("n", *reads), f"enumerate --kind {args.kind}")
    lines = iter(listing(_guard_n(args.n), args))
    while chunk := list(islice(lines, _CHUNK_LINES)):
        chunk.append("")
        sys.stdout.write("\n".join(chunk))
    return 0


# ------------------------------------------------------------------ stats


def _tree_record(tree) -> dict:
    i, c, d = _trees.tree_stats(tree)
    return {"tree": _trees.format_tree(tree), "n": tree.n, "inv": i, "coinv": c, "depth": d}


def _sequence_record(value, family: str, **stats) -> dict:
    path = _park.to_path(value)
    return {family: str(value), "n": value.n, "area": _park.area(value), **stats,
            "heights": list(path.heights), "labels": list(path.labels)}


def _parking_record(p) -> dict:
    contacts, bounce = _park.bounce(p)
    pinv, copinv, _ = _trees.tree_stats(_park.theta(p))
    stalls, jump, cojump = _park.park_process(p)
    return _sequence_record(p, "parking", bounce=bounce, contacts=list(contacts),
                            pinv=pinv, copinv=copinv, jump=jump, cojump=cojump,
                            stalls=list(stalls))


def _factorization_record(f) -> dict:
    pi = f.product()
    record = {
        "factorization": str(f), "n": f.n, "product": format_permutation(pi),
        "lower": list(_fact.lower(f)), "upper": list(_fact.upper(f)),
    }
    if _fact._is_full_cycle_product(len(f.factors), pi):
        a_l, a_u = _fact._areas(f.factors, f.n)
        record.update(area_lower=a_l, area_upper=a_u, total_difference=a_l + a_u)
        record["simple"] = _fact.is_simple(f)
        if record["simple"]:
            record["simple_index"] = _fact.simple_index(f)
    else:
        record["note"] = "not a minimal factorization of a full cycle"
    return record


# each --kind reads the shape of its own name: (the options it reads
# besides --format, its record)
_STATS = {
    "tree": ((), _tree_record), "parking": ((), _parking_record),
    "major": ((), lambda m: _sequence_record(m, "major")),
    "factorization": (("n",), _factorization_record),
}


def _cmd_stats(args) -> int:
    reads, make_record = _STATS[args.kind]
    _refuse_unread(args, ("format", *reads), f"stats --kind {args.kind}")
    record = make_record(_read(args, args.kind))
    if args.format == "json":
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


# -------------------------------------------------------------------- map


def _theta(p, args):
    tree = _park.theta(p)
    return json.dumps(_trees.tree_to_json(tree)) if args.format == "json" else tree


_LOWER = ("factorization", ("n",), lambda f, args: ",".join(map(str, _fact.lower(f))))
_UPPER = ("factorization", ("n",), lambda f, args: ",".join(map(str, _fact.upper(f))))
# each --via's input shape, the options it reads and its map; the key order
# is the order --help lists
_MAPS = {
    "lower": _LOWER, "L": _LOWER, "upper": _UPPER, "U": _UPPER,
    "l-inverse": ("parking", ("sigma",),
                  lambda p, args: _inv.l_inverse(p, _sigma_for(args, p.n))),
    "u-inverse": ("major", ("sigma",),
                  lambda m, args: _inv.u_inverse(m, _sigma_for(args, m.n))),
    "theta": ("parking", ("format",), _theta),
    "theta-inverse": ("tree", (), lambda tree, args: _park.theta_inverse(tree)),
    "phi-k": ("phi-k", ("n", "k"), lambda f, args: _fact.phi_k(f, args.k)),
    "phi-k-inverse": ("phi-k-inverse", ("n", "k"),
                      lambda g, args: _fact.phi_k_inverse(g, args.k, args.n)),
    "arch": ("factorization", ("sigma", "n"), lambda f, args: json.dumps(
        _arch.arch_to_json(_arch.sigma_diagram(f, _sigma_for(args, f.n))))),
    "fact": ("arch", ("sigma",),
             lambda d, args: _arch.arch_to_factorization(d, _sigma_for(args, d.n))),
    "push": ("parking", (), lambda p, args: _inv.push(p)),
    "reflect-conjugate": ("factorization-or-visit-word", ("n",),
                          lambda v, args: _fact.reflect_conjugate(v)),
    "reflect-reverse": ("factorization", ("n",), lambda f, args: _fact.reflect_reverse(f)),
    "complement": ("sequence", (), lambda value, args: _park.complement(value)),
}
_VIAS = tuple(_MAPS)


def _cmd_map(args) -> int:
    shape, reads, apply = _MAPS[args.via]
    _refuse_unread(args, reads, f"map --via {args.via}")
    print(apply(_read(args, shape), args))
    return 0


# ------------------------------------------------------------------- poly


# each --name: (the options it reads besides --n and --format, its cap on
# n, its enumerator of n); the key order is the order --help lists.  I, D
# and C are recursions with no object enumeration, so no safety limit
# ('verify' ties them to the brute-force sums); the others obey it (None).
_POLYS = {
    "I": ((), math.inf, lambda n, args: _poly._tree_recursion_last(n)),
    "F": (("sigma",), None, lambda n, args: _fact.factorization_enumerator(_sigma_for(args, n))),
    "B": ((), None, lambda n, args: _park.parking_enumerators(n).pinv_copinv),
    "D": ((), math.inf, lambda n, args: _poly._tree_recursion_last(n).diagonal()),
    "C": ((), math.inf, lambda n, args: _poly.catalan_qt(n)),
    "Fhat": ((), None, lambda n, args: _fact.restricted_enumerator(n, "simple")),
    "Finc": ((), None, lambda n, args: _fact.restricted_enumerator(n, "increasing")),
    "Fdec": ((), None, lambda n, args: _fact.restricted_enumerator(n, "decreasing")),
    "Fmax": ((), None, lambda n, args: _fact.restricted_enumerator(n, "max_diff")),
    "Fperm": ((), None, lambda n, args: _fact.restricted_enumerator(n, "perm_lower")),
    "area": ((), None, lambda n, args: _park.parking_enumerators(n).area),
    "bounce": ((), None, lambda n, args: _park.parking_enumerators(n).bounce),
    "jump": ((), None, lambda n, args: _park.parking_enumerators(n).jump_cojump),
}


def _cmd_poly(args) -> int:
    reads, limit, compute = _POLYS[args.name]
    _refuse_unread(args, ("n", "format", *reads), f"poly --name {args.name}")
    _print_poly(compute(_guard_n(args.n, limit), args), args.format)
    return 0


# ----------------------------------------------------------------- verify


# verify's workers are spawned, each from a fresh import: safe whatever
# threads the caller runs, and the same on every platform (tests pin "fork"
# so that a patched suite reaches the workers)
_WORKER_START = "spawn"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _print_results(results, total: int) -> int:
    """Print each suite's line as its result arrives, in suite order, then
    how many failed; the exit code."""
    failures = 0
    for result in results:
        print(result.line())
        failures += not result.ok
    if failures:
        print(f"{failures} of {total} suites failed")
        return 2
    return 0


def _cmd_verify(args) -> int:
    try:
        names = _verify.resolve_suites(args.suite)
    except ValueError as exc:
        raise CliError(str(exc))
    if len(names) == 1 and names[0] in _verify.SIZELESS:
        _refuse_unread(args, (), f"verify --suite {names[0]}")
    if args.n is not None and _guard_n(args.n) < 1:
        raise CliError("verify needs --n >= 1")
    sizes = [args.n] * len(names)
    workers = min(len(names), _usable_cpus())
    if workers == 1:
        return _print_results(map(_verify.run_suite, names, sizes), len(names))
    # imported here, so that no other subcommand pays for it
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context(_WORKER_START))
    try:
        return _print_results(pool.map(_verify.run_suite, names, sizes), len(names))
    except BrokenProcessPool as exc:
        raise AssertionError(f"a verify worker died: {exc}") from None
    finally:  # a closed stdout or a failure leaves the pending suites unrun
        pool.shutdown(cancel_futures=True)


# ----------------------------------------------------------------- render


def _render_path(value, args) -> str:
    if args.with_bounce and isinstance(value, _park.MajorSequence):
        raise CliError("the bounce path is defined for parking functions")
    contacts = _park.bounce(value)[0] if args.with_bounce else None
    draw = _render.render_path_svg if args.format == "svg" else _render.render_path_ascii
    return draw(_park.to_path(value), contacts)


def _render_arch(f, args) -> str:
    sigma = _sigma_for(args, f.n)
    draw = _render.render_arch_svg if args.format == "svg" else _render.render_arch_ascii
    return draw(_arch.sigma_diagram(f, sigma), sigma)


# each --kind's input shape, the options it reads besides --format, its drawing
_RENDERS = {
    "path": ("sequence", ("with_bounce",), _render_path),
    "arch": ("factorization", ("sigma", "n"), _render_arch),
}


# an ASCII picture holds about n^2 characters: at the cap, render --kind
# path on all zeros takes about 1.5 s and 151 MiB (Python 3.11, one core)
_MAX_ASCII_PICTURE = 2_000


def _cmd_render(args) -> int:
    shape, reads, draw = _RENDERS[args.kind]
    _refuse_unread(args, ("format", *reads), f"render --kind {args.kind}")
    value = _read(args, shape)
    if args.format == "ascii" and value.n > _MAX_ASCII_PICTURE:
        raise CliError(f"n = {value.n} exceeds the ASCII picture limit "
                       f"{_MAX_ASCII_PICTURE}; --format svg has no such limit")
    sys.stdout.write(draw(value, args))
    return 0


# ---------------------------------------------------------------- explore


def _cmd_explore(args) -> int:
    limit = _safety_limit(default=6)
    n = _guard_n(args.n, limit=limit)
    if n < 1:
        raise CliError("explore needs n >= 1")
    reference = _poly._tree_recursion_last(n)
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


def build_parser(command: str | None = None) -> _Parser:
    """The top-level parser with the subparser of `command` alone, or with
    all seven for None; the parse of `command`'s argv is the same either way."""
    parser = _Parser(prog="parkfact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str) -> _Parser | None:
        return sub.add_parser(name, help=help) if command in (None, name) else None

    if p := add("enumerate", "list a family of objects"):
        p.add_argument("--kind", required=True, choices=list(_ENUMERATIONS))
        p.add_argument("--n", type=_int_option, required=True)
        p.add_argument("--sigma")
        p.add_argument("--format", choices=["text", "json"])

    if p := add("stats", "all statistics of one object"):
        p.add_argument("--kind", required=True, choices=list(_STATS))
        p.add_argument("--input", required=True)
        p.add_argument("--n", type=_int_option)
        p.add_argument("--format", choices=["text", "json"])

    if p := add("map", "apply a named bijection"):
        p.add_argument("--via", required=True, choices=_VIAS)
        p.add_argument("--input", required=True)
        p.add_argument("--sigma")
        p.add_argument("--n", type=_int_option)
        p.add_argument("--k", type=_int_option)
        p.add_argument("--format", choices=["text", "json"])

    if p := add("poly", "print a named enumerator"):
        p.add_argument("--name", required=True, choices=list(_POLYS))
        p.add_argument("--n", type=_int_option, required=True)
        p.add_argument("--sigma")
        p.add_argument("--format", choices=["text", "json"])

    if p := add("verify", "run a named verification suite"):
        p.add_argument("--suite", required=True)
        p.add_argument("--n", type=_int_option)

    if p := add("render", "draw a path or an arch diagram"):
        p.add_argument("--kind", required=True, choices=list(_RENDERS))
        p.add_argument("--input", required=True)
        p.add_argument("--with-bounce", dest="with_bounce", action="store_true")
        p.add_argument("--sigma")
        p.add_argument("--n", type=_int_option)
        p.add_argument("--format", choices=["svg", "ascii"], default="ascii")

    if p := add("explore", "compare F_sigma against I_n over all unimodal cycles"):
        p.add_argument("--n", type=_int_option, required=True)

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
    argv = sys.argv[1:] if argv is None else argv
    # the named subcommand's parser alone, as all seven take about five times
    # as long to build; help, errors and a missing command get all seven
    parser = build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except (CliError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a broken internal invariant, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left; what is still buffered goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
