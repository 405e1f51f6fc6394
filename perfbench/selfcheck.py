#!/usr/bin/env python3
"""Show that the output checks catch a wrong value and a missing output.

    python3 perfbench/selfcheck.py

Runs two cheap CLI commands, then checks their outputs three ways: against
the true references (must pass), against a copy of a reference with one
value changed (must fail), and with an output file deleted (must fail).
Exit code 0 when every case behaves so.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import numpy as np

import run as bench
from checks import check_run
from workloads import workload_runs

# run -> (reference array, how one of its values is changed, an output to delete);
# each change is 1e-6, far above the check's tolerance
CORRUPTIONS = {
    "fractal_khm": ("eps", lambda v: v + 1e-6, "_fractal.json"),
    "evolve_localized": ("variance", lambda v: v * (1 + 1e-6), "_summary.json"),
}


def main() -> int:
    workdir = os.path.join(bench.OUT, "selfcheck")
    bad_refs = os.path.join(workdir, "refs")
    os.makedirs(bad_refs, exist_ok=True)
    runs = {r.name: r for w in ("critical", "transport") for r in workload_runs(w, 0)}
    ok = True
    for name, (key, corrupt, removable) in CORRUPTIONS.items():
        run = runs[name]
        cfg_path, prefix = bench.write_config(run, workdir)
        _, code, _ = bench.run_child([cfg_path], time.perf_counter() + 120,
                                      prefix + ".log")
        with np.load(os.path.join(bench.REFS, name + ".npz")) as ref:
            arrays = dict(ref)
        arrays[key] = arrays[key].copy()
        mid = arrays[key].size // 2
        arrays[key][mid] = corrupt(arrays[key][mid])
        np.savez_compressed(os.path.join(bad_refs, name + ".npz"), **arrays)

        cases = [("true reference", bench.REFS, True),
                 (f"one {key} value changed", bad_refs, False)]
        for label, refs, should_pass in cases:
            problems = check_run(run, prefix, refs) if code == 0 else ["run failed"]
            ok &= self_report(name, label, problems, should_pass)
        os.remove(prefix + removable)
        ok &= self_report(name, f"{removable} deleted", check_run(run, prefix, bench.REFS),
                          False)
    shutil.rmtree(workdir)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def self_report(name: str, label: str, problems: list, should_pass: bool) -> bool:
    verdict = "passes" if not problems else f"fails ({problems[0]})"
    expected = (not problems) == should_pass
    print(f"{'ok ' if expected else 'BAD'} {name}, {label}: {verdict}")
    return expected


if __name__ == "__main__":
    sys.exit(main())
