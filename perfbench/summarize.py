#!/usr/bin/env python3
"""Median, quartiles and spread of every metric over a set of benchmark runs.

    python3 perfbench/summarize.py RESULT.json... [--out SUMMARY.json]

RESULT files are the records run.py writes under perfbench/out/results/.
Runs are grouped by (workload, trace mode).  The spread is the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, the figure the benchmark's bounds are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def summarize(paths: list) -> dict:
    groups = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        g = groups.setdefault(f"{rec['workload']}/trace{rec['trace']}",
                              {"runs": 0, "failed_runs": 0, "seeds": [],
                               "machine": rec["machine"], "values": {}, "units": {}})
        g["runs"] += 1
        g["failed_runs"] += bool(rec["failures"])
        g["seeds"].append(rec["machine"]["seed"])
        for name, m in rec["metrics"].items():
            if m["value"] is not None:
                g["values"].setdefault(name, []).append(m["value"])
                g["units"][name] = m["unit"]
    out = {}
    for key, g in sorted(groups.items()):
        metrics = {}
        for name, vals in g["values"].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
                             "spread": (q3 - q1) / med if med else None,
                             "unit": g["units"][name]}
        machine = {k: v for k, v in g["machine"].items() if k != "seed"}
        out[key] = {"runs": g["runs"], "failed_runs": g["failed_runs"],
                    "seeds": g["seeds"], "machine": machine, "metrics": metrics}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    summary = summarize(args.results)
    for key, g in summary.items():
        print(f"{key}: {g['runs']} runs, {g['failed_runs']} with failures")
        for name, m in g["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:<50} median {m['median']:<12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:<10.6g} q3 {m['q3']:<10.6g} spread {spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
