"""One child process of the benchmark; run.py starts it, one at a time.

    python3 perfbench/child.py import
        time `import parkfact.cli` in this fresh interpreter and print it.
    python3 perfbench/child.py cli RECORD TRACE -- ARGV...
        run parkfact.cli.main(ARGV) once, as the CLI would, with stdout
        going wherever the parent sent it; write the import time, the time
        of main plus the final flush of stdout (run_s), peak RSS and
        (TRACE=1) the span summary to the JSON file RECORD.
    python3 perfbench/child.py batch CALLS OUT SECONDS TRACE
        closed loop: one caller making in-process main(argv) calls for each
        argv in the JSON file CALLS, pass after pass until SECONDS is used
        up; with TRACE=1, one untraced pass and then one traced pass.

parkfact is imported from the checkout's src/ directory.  Every child
asserts that parkfact's process-wide enumerator caches start empty.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

# the five process-wide functools.cache enumerators, as module.attribute
CACHES = (
    "trees.inversion_enumerator", "trees.depth_enumerator",
    "factorizations.factorization_enumerator",
    "factorizations.restricted_enumerators", "parking.parking_enumerators",
)


def import_cli():
    start = time.perf_counter()
    import parkfact.cli as cli
    return cli, time.perf_counter() - start


def check_cold_caches() -> None:
    for dotted in CACHES:
        module, attr = dotted.split(".")
        info = getattr(importlib.import_module(f"parkfact.{module}"), attr).cache_info()
        if info.currsize or info.hits or info.misses:
            raise RuntimeError(f"cache {dotted} is not cold: {info}")


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def start_tracer():
    import tracer
    active = tracer.Tracer()
    tracer.install(active)
    return active


def run_cli(record_path: str, trace: bool, argv: list[str]) -> int:
    cli, import_s = import_cli()
    check_cold_caches()
    active = start_tracer() if trace else None
    start = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    run_s = time.perf_counter() - start
    record = {"import_s": import_s, "run_s": run_s, "exit": code,
              "peak_rss_kb": peak_rss_kb()}
    if active is not None:
        record["trace"] = active.summary()
        active.dump(record_path + ".spans.jsonl")
    with open(record_path, "w") as out:
        json.dump(record, out)
    return code


def call_once(cli, argv: list[str]) -> tuple[int, str, int | None, str, str]:
    """(latency ns, outcome, exit code, stdout, stderr) of one main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter_ns()
    try:
        code, outcome = cli.main(argv), "returned"
    except Exception as exc:  # an escaped exception is a recorded failure
        code, outcome = None, f"raised {type(exc).__name__}"
    finally:
        latency = time.perf_counter_ns() - start
        sys.stdout, sys.stderr = saved
    return latency, outcome, code, out.getvalue(), err.getvalue()


def another_pass_fits(used: float, walls: list[float], seconds: float) -> bool:
    """Closed loop over passes: another pass runs while it is expected to end
    within the budget (the first pass always runs)."""
    return used + statistics.median(walls) <= seconds


def run_batch(calls_path: str, out_path: str, seconds: float, trace: bool) -> int:
    cli, _ = import_cli()
    check_cold_caches()
    with open(calls_path) as src:
        calls = json.load(src)
    first = None
    passes = []  # per pass: list of latencies (ns)
    mismatches = 0
    loop_start = time.perf_counter()
    while True:
        results = [call_once(cli, argv) for argv in calls]
        passes.append([r[0] for r in results])
        outputs = [r[1:] for r in results]
        if first is None:
            first = outputs
        else:
            mismatches += sum(a != b for a, b in zip(first, outputs))
        walls = [sum(p) / 1e9 for p in passes]
        if trace or not another_pass_fits(time.perf_counter() - loop_start, walls, seconds):
            break
    record = {"passes_ns": passes, "results": first, "nondeterministic": mismatches,
              "peak_rss_kb": peak_rss_kb()}
    if trace:
        active = start_tracer()
        results = [call_once(cli, argv) for argv in calls]
        record["traced_ns"] = [r[0] for r in results]
        record["nondeterministic"] += sum(a != r[1:] for a, r in zip(first, results))
        record["trace"] = active.summary()
        active.dump(out_path + ".spans.jsonl")
    with open(out_path, "w") as out:
        json.dump(record, out)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        _, import_s = import_cli()
        check_cold_caches()
        print(json.dumps({"import_s": import_s}))
        return 0
    if mode == "cli":
        record_path, trace, sep, *cli_argv = argv[1:]
        if sep != "--":
            raise SystemExit("usage: child.py cli RECORD TRACE -- ARGV...")
        return run_cli(record_path, trace == "1", cli_argv)
    if mode == "batch":
        calls_path, out_path, seconds, trace = argv[1:]
        return run_batch(calls_path, out_path, float(seconds), trace == "1")
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
