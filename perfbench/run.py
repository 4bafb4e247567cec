"""parkfact benchmark: three workloads, exactness gates, traced layers.

    python3 perfbench/run.py --workload verify-all|enumerators|map-calls|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; parkfact is loaded from its src/
directory.  Load comes from this process and one child process at a
time.  With --trace 0 the end-to-end metrics are measured untraced; with
--trace 1 one untraced and one traced pass give the per-layer metrics
(see perfbench/README.md).  Every output is checked against its oracle
(gates.py); a wrong output makes `correct` false and the exit code 1.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import gates  # noqa: E402
from child import another_pass_fits  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("verify-all", "enumerators", "map-calls")
SETUP_SAMPLES = 10
MAP_CALLS_PER_PASS = 1000
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "objects_per_s": "1/s", "calls_per_s": "1/s",
    "call_p50_ms": "ms", "call_p99_ms": "ms", "peak_rss_mb": "MB",
}

KERNELS = (
    "trees.tree_stats", "parking.bounce", "parking.park_process", "parking.theta",
    "parking.theta_inverse", "inverse_maps.l_inverse", "inverse_maps.u_inverse",
    "arch.sigma_diagram", "arch.arch_to_factorization", "arch.decompose_simple",
    "polynomials.BivariatePoly.__mul__", "polynomials.tree_recursion_I",
    "cli.build_parser",
)
GENERATORS = (
    "trees.enumerate_trees", "parking.enumerate_parking",
    "factorizations.enumerate_factorizations",
)


# ------------------------------------------------------------------ helpers


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PARKFACT_MAX_N"}
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def spawn(args: list[str], stdout_path: str | None = None, extra_env: dict | None = None
          ) -> tuple[int, str]:
    """Run one child to completion; (exit code, stderr)."""
    with open(stdout_path or os.devnull, "wb") as out:
        proc = subprocess.run([sys.executable, CHILD, *args], stdout=out,
                              stderr=subprocess.PIPE, env=child_env(extra_env),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stderr.decode(errors="replace")


def read_json(path: str) -> dict:
    with open(path) as src:
        return json.load(src)


def calibrate() -> float:
    """Seconds for a fixed stdlib loop: recorded next to each pass, never
    used to rescale, so a slow or noisy machine shows in the record."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def loadavg() -> list[float] | str:
    try:
        return list(os.getloadavg())
    except OSError:
        return "unavailable"


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(samples: int, warm_up: bool) -> list[float]:
    """Times to import parkfact.cli, each in a fresh child.  A warm-up child
    runs first when asked, leaving the bytecode cache behind."""
    times = []
    for i in range(samples + warm_up):
        path = os.path.join(WORK, "import.json")
        code, err = spawn(["import"], path)
        if code != 0:
            raise RuntimeError(f"importing parkfact.cli failed:\n{err}")
        if i or not warm_up:
            times.append(read_json(path)["import_s"])
    return times


# ---------------------------------------------------------------- workloads


def cli_child(name: str, argv: list[str], trace: bool, extra_env=None):
    """Run `parkfact <argv>` in a fresh child; (run time, exit, stdout bytes,
    record).  The run time is the child's own timing of main, so interpreter
    start and `import parkfact.cli` (set-up) stay out of it."""
    out_path = os.path.join(WORK, f"{name}.stdout")
    record_path = os.path.join(WORK, f"{name}.record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    code, err = spawn(["cli", record_path, "1" if trace else "0", "--", *argv],
                      out_path, extra_env)
    if not os.path.exists(record_path):
        raise RuntimeError(f"child for {name} wrote no record (exit {code}):\n{err}")
    with open(out_path, "rb") as src:
        data = src.read()
    record = read_json(record_path)
    return record["run_s"], code, data, record


def verify_all_pass(trace: bool) -> dict:
    wall, code, data, record = cli_child("verify-all", ["verify", "--suite", "all"], trace)
    return {"wall": wall, "calls": 1, "objects": len(gates.SUITES), "object_time": wall,
            "rss_kb": record["peak_rss_kb"], "failed": int(code != 0),
            "problems": gates.check_verify(code, data),
            "traces": [record["trace"]] if trace else []}


def enumerators_pass(trace: bool) -> dict:
    from parkfact import tree_recursion_I  # the oracle, outside the timed region

    poly_text = str(tree_recursion_I(7)[7])
    result = {"wall": 0.0, "calls": 0, "objects": 0, "object_time": 0.0, "rss_kb": 0,
              "failed": 0, "problems": [], "traces": []}
    for name, (argv, env, _, _, objects) in gates.ENUMERATOR_CALLS.items():
        wall, code, data, record = cli_child(name, argv, trace, env)
        result["wall"] += wall
        result["calls"] += 1
        if objects:
            result["objects"] += objects
            result["object_time"] += wall
        result["rss_kb"] = max(result["rss_kb"], record["peak_rss_kb"])
        result["failed"] += int(code != 0)
        result["problems"] += gates.check_enumerator(name, code, data, poly_text)
        if trace:
            result["traces"].append(record["trace"])
    return result


CHILD_WORKLOADS = {"verify-all": verify_all_pass, "enumerators": enumerators_pass}


def run_child_workload(name: str, seconds: float, trace: bool) -> dict:
    """verify-all and enumerators: every call in a fresh child, pass after pass.

    Their calls differ in size by orders of magnitude and there are one or
    four of them, so the latency percentiles are taken over whole passes.
    """
    one_pass = CHILD_WORKLOADS[name]
    start = time.perf_counter()
    passes, calibration = [], []
    while not passes or (not trace and another_pass_fits(
            time.perf_counter() - start, [p["wall"] for p in passes], seconds)):
        calibration.append(calibrate())
        passes.append(one_pass(False))
    walls = [p["wall"] for p in passes]
    out = {
        "wall_s": statistics.median(walls),
        "objects_per_s": statistics.median(p["objects"] / p["object_time"] for p in passes),
        "calls_per_s": statistics.median(p["calls"] / p["wall"] for p in passes),
        "call_p50_ms": 1e3 * percentile(walls, 0.50),
        "call_p99_ms": 1e3 * percentile(walls, 0.99),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "attempted": sum(p["calls"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [x for p in passes for x in p["problems"]],
        "samples": {"passes": len(passes), "calls": sum(p["calls"] for p in passes)},
        "pass_walls_s": walls,
        "calibration_s": calibration,
    }
    if trace:
        traced = one_pass(True)
        out["problems"] += traced["problems"]
        out["trace"] = merge_traces(traced["traces"])
        out["overhead_ratio"] = traced["wall"] / passes[0]["wall"]
    return out


def run_map_calls(seed: int, seconds: float, trace: bool) -> dict:
    calls = inputs.build_calls(seed, MAP_CALLS_PER_PASS)
    calls_path = os.path.join(WORK, "map-calls.calls.json")
    out_path = os.path.join(WORK, "map-calls.out.json")
    with open(calls_path, "w") as out:
        json.dump([c.argv for c in calls], out)
    calibration = [calibrate()]
    code, err = spawn(["batch", calls_path, out_path, str(seconds), "1" if trace else "0"])
    if code != 0:
        raise RuntimeError(f"map-calls child failed (exit {code}):\n{err}")
    record = read_json(out_path)

    failed, problems, failures = 0, [], {}
    for call, (outcome, exit_code, stdout, stderr) in zip(calls, record["results"]):
        call_failed, call_problems = gates.check_call(call, outcome, exit_code, stdout, stderr)
        problems += call_problems
        if call_failed:
            failed += 1
            label = outcome if outcome != "returned" else f"exit {exit_code}"
            key = f"{call.kind}: {label}"
            failures[key] = failures.get(key, 0) + 1
    if record["nondeterministic"]:
        problems.append(f"{record['nondeterministic']} calls gave different output across passes")
    unexplained = sorted(k for k in failures if k.split(":")[0] not in inputs.KNOWN_DEFECTS)
    if unexplained:
        problems.append(f"failures not traced to a known defect: {unexplained}")

    passes = record["passes_ns"]
    valid = sum(1 for c in calls if c.expect_exit == 0)
    walls = [sum(p) / 1e9 for p in passes]
    # every pass makes the same calls, so a call's latency is its median
    # across passes: a burst of machine noise in one pass drops out
    latencies = [statistics.median(per_call) / 1e9 for per_call in zip(*passes)]
    wall = sum(latencies)
    out = {
        "wall_s": wall,
        "objects_per_s": valid / wall,
        "calls_per_s": len(calls) / wall,
        "call_p50_ms": 1e3 * percentile(latencies, 0.50),
        "call_p99_ms": 1e3 * percentile(latencies, 0.99),
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "attempted": len(calls) * len(passes),
        "failed": failed * len(passes),
        "problems": problems,
        "samples": {"passes": len(passes), "calls": len(latencies)},
        "pass_walls_s": walls,
        "calibration_s": calibration,
        "failures": failures,
        "known_defects": {k: v for k, v in inputs.KNOWN_DEFECTS.items()
                          if any(f.startswith(k + ":") for f in failures)},
    }
    if trace:
        out["trace"] = record["trace"]
        out["overhead_ratio"] = sum(record["traced_ns"]) / sum(passes[0])
    return out


# ---------------------------------------------------------- per-layer metrics


def merge_traces(summaries: list[dict]) -> dict:
    merged = {"spans": 0, "names": {}, "constructed": {}, "edges": {}}
    for s in summaries:
        merged["spans"] += s["spans"]
        for name, stats in s["names"].items():
            into = merged["names"].setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for table in ("constructed", "edges"):
            for key, value in s[table].items():
                merged[table][key] = merged[table].get(key, 0) + value
    return merged


def layer_metrics(trace: dict, overhead_ratio: float) -> dict:
    """Per-layer numbers from one traced pass (see README.md for what each
    is expected to move).  A name the pass never called reads 0."""
    names = trace["names"]

    def stat(name: str, key: str) -> int:
        return names.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {}
    for layer in tracer.LAYERS:
        own = [v for k, v in names.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (sum(v["calls"] for v in own), "count")
        metrics[f"{layer}.self_s"] = (sum(v["self_ns"] for v in own) / 1e9, "s")
    for suite in gates.SUITES:
        busy = stat(f"verify.check_{suite.replace('-', '_')}", "busy_ns")
        metrics[f"verify.{suite}.s"] = (busy / 1e9, "s")
    for gen in GENERATORS:
        metrics[f"{gen}.us_per_obj"] = (ratio(stat(gen, "busy_ns") / 1e3, stat(gen, "yields")), "us")
    sweep_tests = trace["edges"].get("parking.enumerate_parking>parking.is_parking", 0)
    metrics["parking.enumerate_parking.yield_ratio"] = (
        ratio(stat("parking.enumerate_parking", "yields"), sweep_tests), "ratio")
    metrics["arch.is_valid_arch.per_diagram"] = (
        ratio(stat("arch.is_valid_arch", "calls"), trace["constructed"]["ArchDiagram"]), "ratio")
    for cls in tracer.VALUE_CLASSES:
        metrics[f"values.{cls}.count"] = (trace["constructed"][cls], "count")
    metrics["factorizations.Factorization.product.calls"] = (
        stat("factorizations.Factorization.product", "calls"), "count")
    for kernel in KERNELS:
        metrics[f"{kernel}.us_per_call"] = (
            ratio(stat(kernel, "busy_ns") / 1e3, stat(kernel, "calls")), "us")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


# --------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "python": platform.python_version(), "commit": commit(),
              "nproc": os.cpu_count(), "loadavg_start": loadavg()}
    # set-up is sampled before and after the workload, so that one slow
    # phase of the machine does not decide the median
    setup_samples = measure_setup(SETUP_SAMPLES // 2, warm_up=True)
    if name == "map-calls":
        out = run_map_calls(seed, seconds, trace)
    else:
        out = run_child_workload(name, seconds, trace)
    setup_samples += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2, warm_up=False)
    record["loadavg_end"] = loadavg()
    record["setup_samples_s"] = setup_samples
    for key in ("samples", "pass_walls_s", "calibration_s", "failures", "known_defects"):
        if key in out:
            record[key] = out[key]
    record["failed_ratio"] = out["failed"] / out["attempted"]
    if trace:
        metrics = layer_metrics(out["trace"], out["overhead_ratio"])
        record["spans"] = out["trace"]["spans"]
    else:
        out["setup_s"] = statistics.median(setup_samples)
        metrics = {m: (out[m], unit) for m, unit in END_TO_END_UNITS.items()}
    return {
        "record": record,
        "problems": out["problems"],
        "result": {
            "correct": not out["problems"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        },
    }


def report(run: dict) -> None:
    record = run["record"]
    print(f"# {record['workload']}: python {record['python']}, commit {record['commit']}, "
          f"nproc {record['nproc']}")
    print(f"# run record: {json.dumps(record)}")
    for problem in run["problems"]:
        print(f"# GATE FAILED: {problem}")
    print(f"# failed_ratio {record['failed_ratio']:.6f} "
          f"({run['result']['failed']} of {run['result']['attempted']} operations)")
    for name, metric in run["result"]["metrics"].items():
        print(f"{record['workload']:12s} {name:48s} {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "parkfact", "cli.py")):
        print(f"error: no parkfact sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    ok = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(run)
        print(json.dumps(run["result"]), flush=True)
        ok &= run["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
