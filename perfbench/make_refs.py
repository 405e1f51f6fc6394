#!/usr/bin/env python3
"""Regenerate the reference outputs in perfbench/refs/ from the current src/.

    python3 perfbench/make_refs.py

Run it only on a commit whose outputs are trusted (the references were made
at the seed commit); a change that alters results on purpose regenerates
them in its own commit and says why.  The classical run has no reference
file: its checks are seed-independent (residual bounds and map consistency).
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
from kickedharper.cli import main  # noqa: E402
from workloads import WORKLOADS, workload_runs  # noqa: E402


def spectrum_arrays(path: str) -> dict:
    data = checks.read_csv(path, checks.SPECTRUM_HEADER)
    return {"num": data[:, 0], "den": data[:, 1], "hbar": data[:, 2],
            "theta": data[:, 3], "eps": data[:, 4]}


def reference(run, prefix: str) -> dict:
    command = run.config["command"]
    if command == "butterfly":
        return spectrum_arrays(prefix + "_spectrum.csv")
    if command == "fractal":
        with open(prefix + "_fractal.json") as fh:
            out = json.load(fh)
        return {**spectrum_arrays(prefix + "_spectrum.csv"),
                **{k: np.array(out[k]) for k in
                   ("d0", "rms_residual", "scales", "counts", "n_points")}}
    if command == "evolve":
        data = checks.read_csv(prefix + "_diffusion.csv", checks.DIFFUSION_HEADER)
        with open(prefix + "_summary.json") as fh:
            out = json.load(fh)
        return {"steps": data[:, 0], "variance": data[:, 1],
                "alpha": np.array(out["alpha"]),
                "classification": np.array(out["classification"])}
    with open(prefix + "_symmetries.json") as fh:
        out = json.load(fh)
    return {"names": np.array([c["name"] for c in out["claims"]]),
            "hbars": np.array([c["hbar"] for c in out["claims"]])}


def make_refs():
    workdir = os.path.join(BENCH, "out", "refs-work")
    os.makedirs(workdir, exist_ok=True)
    done = set()
    for workload in WORKLOADS:
        for run in workload_runs(workload, seed=0):
            if run.config["command"] == "classical" or run.reference in done:
                continue
            done.add(run.reference)
            prefix = os.path.join(workdir, run.name)
            with open(prefix + ".json", "w") as fh:
                json.dump({**run.config, "output_prefix": prefix}, fh)
            code = main([prefix + ".json", "--workers", "1"])
            if code != 0:
                raise SystemExit(f"{run.name} exited with {code}")
            path = os.path.join(BENCH, "refs", run.reference + ".npz")
            np.savez_compressed(path, **reference(run, prefix))
            problems = checks.check_run(run, prefix, os.path.join(BENCH, "refs"))
            if problems:
                raise SystemExit(f"fresh reference fails its own check: {problems}")
            print(f"wrote {os.path.relpath(path)} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    make_refs()
