"""Aggregate run.py outputs into a baseline file such as BENCH_seed.json.

    python3 perfbench/summarize.py --out perfbench/BENCH_seed.json \
        [--commit SHA] RUN_OUTPUT...

Each RUN_OUTPUT is the stdout of one `run.py` run of one workload: its
`# run record:` line and, last, its result line.  Untraced runs give, per
workload and end-to-end metric, the values, their median, the quartiles
from `statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median.
A traced run gives the per-layer values.  `--commit` names the measured
commit when the runs were made outside a git checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics

RECORD_PREFIX = "# run record: "
DESCRIPTION = (
    "Baseline made by perfbench/summarize.py from run.py outputs, one run at a time. "
    "Per workload: the untraced runs' end-to-end values with median, quartiles from "
    "statistics.quantiles(values, n=4) and spread (q3 - q1) / median; the calibration "
    "loop times and load averages (recorded, never used to rescale); and the per-layer "
    "values of one traced run."
)


def read_run(path: str) -> tuple[dict, dict]:
    """(run record, result) of one run.py output."""
    with open(path) as src:
        lines = src.read().splitlines()
    record = next(json.loads(line[len(RECORD_PREFIX):]) for line in lines
                  if line.startswith(RECORD_PREFIX))
    return record, json.loads(lines[-1])


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    workloads: dict[str, dict] = {}
    for record, result in runs:
        entry = workloads.setdefault(record["workload"], {"untraced": [], "traced": []})
        entry["traced" if record["trace"] else "untraced"].append((record, result))

    out = {}
    for name, entry in workloads.items():
        summary = {}
        untraced = sorted(entry["untraced"], key=lambda run: run[0]["seed"])
        if untraced:
            results = [result for _, result in untraced]
            summary.update({
                "runs": len(untraced),
                "seeds": [record["seed"] for record, _ in untraced],
                "seconds": untraced[0][0]["seconds"],
                "all_correct": all(result["correct"] for result in results),
                "attempted_per_run": [result["attempted"] for result in results],
                "failed_per_run": [result["failed"] for result in results],
                "end_to_end": {
                    metric: {"unit": value["unit"],
                             **spread_of([r["metrics"][metric]["value"] for r in results])}
                    for metric, value in results[0]["metrics"].items()
                },
                "calibration_s": [c for record, _ in untraced for c in record["calibration_s"]],
                "loadavg": [[record["loadavg_start"], record["loadavg_end"]]
                            for record, _ in untraced],
            })
            if "failures" in untraced[0][0]:
                summary["failures"] = untraced[0][0]["failures"]
        if entry["traced"]:
            record, result = entry["traced"][0]
            summary["traced_seed"] = record["seed"]
            summary["traced_correct"] = result["correct"]
            summary["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            summary["traced_spans"] = record["spans"]
        out[name] = summary
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--commit")
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args(argv)

    runs = [read_run(path) for path in args.runs]
    records = [record for record, _ in runs]
    known_defects = {}
    for record in records:
        known_defects.update(record.get("known_defects", {}))
    baseline = {
        "description": DESCRIPTION,
        "commit": args.commit or records[0]["commit"],
        "machine": {"python": records[0]["python"], "nproc": records[0]["nproc"]},
        "known_defects": known_defects,
        "workloads": summarize(runs),
    }
    with open(args.out, "w") as out:
        json.dump(baseline, out, indent=1)
        out.write("\n")
    for name, summary in baseline["workloads"].items():
        for metric, stats in summary.get("end_to_end", {}).items():
            print(f"{name:12s} {metric:16s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
