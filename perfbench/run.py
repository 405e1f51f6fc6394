#!/usr/bin/env python3
"""Benchmark of the kickedharper CLI.

    python3 perfbench/run.py --workload {scan,critical,transport} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 it measures end to end: the
set-up time of a fresh interpreter (median of several), then, for S seconds,
iterations of the workload's CLI runs, each in a fresh interpreter that
calls kickedharper.cli.main.  One client, one run at a time (closed loop).
The BLAS thread environment is left as the user has it and is recorded.

With --trace 1 it runs the workload's distinct commands in this process with
workers=1: untraced, traced (tracing.py), untraced again; and adds fixed-size
figures from direct calls after warm-up.

Every run's outputs are checked (checks.py).  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the full record, with
per-command samples and machine facts, goes to perfbench/out/results/.
Exit code: 0 if every check passed, 1 if one failed, 2 if the benchmark
could not start (for example, no src/ next to it).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFS = os.path.join(BENCH, "refs")
CHILD = os.path.join(BENCH, "cli_child.py")

HARD_LIMIT_S = 165.0     # every run must end well inside 180 s
SETUP_PER_ITERATION = 2  # fresh-interpreter imports timed before each iteration
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

sys.path.insert(0, BENCH)
from workloads import WORKLOADS, workload_runs  # noqa: E402

# span names reported per layer: the hot spots, and the counts that show
# repeated work (factor rebuilds, edge checks, lattice growth)
TRACED_SPANS = (
    "cli.main", "spectrum.butterfly_scan", "spectrum.build_bloch_matrix",
    "spectrum.lattice_period", "spectrum.quasienergies",
    "analysis.spectrum_set_distance", "analysis.box_counting_dimension",
    "analysis.fit_power_law", "quantum.evolve", "quantum.apply_floquet",
    "quantum.floquet_factors", "quantum.kick_coefficients",
    "lattice.edge_mass", "lattice.momentum_variance", "lattice.Wavepacket.doubled",
    "classical.equivalence_residual", "classical.trajectory",
)


class Startup(Exception):
    """The benchmark cannot run here; no result is printed."""


# ── machine facts ──────────────────────────────────────────────────────────

def _openblas():
    """(version string, effective thread count) of numpy's bundled OpenBLAS."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", "_64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode(), get_threads()
    return None, None


def _git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    version, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": _git_commit(),
        "seed": seed,
    }


# ── child processes ────────────────────────────────────────────────────────

def run_child(argv: list, deadline: float, log_path: str, capture: bool = False):
    """Run one fresh interpreter to completion; returns (seconds, exit code, stdout).

    The child gets its own process group so a run that overstays the
    deadline is killed together with any pool workers it started.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *argv], cwd=ROOT,
                                stdout=subprocess.PIPE if capture else log,
                                stderr=log, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return time.perf_counter() - t0, None, b""
        return time.perf_counter() - t0, proc.returncode, out


def measure_setup(deadline: float, count: int) -> list[float]:
    """Seconds from spawning an interpreter until `import kickedharper.cli` is done."""
    os.makedirs(OUT, exist_ok=True)
    log = os.path.join(OUT, "setup.log")
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        _, code, out = run_child(["--import-only"], deadline, log, capture=True)
        if code != 0:
            with open(log) as fh:
                raise Startup(f"cannot import kickedharper.cli from {SRC}:\n{fh.read()}")
        samples.append(float(out.decode().strip()) - t0)
    return samples


def write_config(run, workdir: str) -> tuple[str, str]:
    prefix = os.path.join(workdir, run.name)
    cfg_path = prefix + ".json"
    with open(cfg_path, "w") as fh:
        json.dump({**run.config, "output_prefix": prefix}, fh)
    return cfg_path, prefix


# ── end-to-end mode ────────────────────────────────────────────────────────

def _same_bytes(path_w1: str, path_w2: str) -> list[str]:
    """The README promises byte-identical output for any worker count."""
    try:
        with open(path_w1, "rb") as a, open(path_w2, "rb") as b:
            if a.read() == b.read():
                return []
    except OSError as exc:
        return [f"butterfly_w2: cannot compare with the --workers 1 CSV ({exc})"]
    return ["butterfly_w2: CSV bytes differ between --workers 1 and --workers 2"]


def end_to_end(workload: str, seed: int, seconds: float, started: float):
    import checks
    deadline = started + HARD_LIMIT_S
    measure_setup(deadline, 1)      # untimed: a fresh checkout compiles .pyc files once
    setup = []
    workdir = os.path.join(OUT, workload)
    os.makedirs(workdir, exist_ok=True)
    runs = workload_runs(workload, seed)
    times = {run.metric: [] for run in runs}
    walls, failures, attempted = [], [], 0
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        setup += measure_setup(deadline, SETUP_PER_ITERATION)
        wall = 0.0
        for run in runs:
            cfg_path, prefix = write_config(run, workdir)
            attempted += 1
            elapsed, code, _ = run_child(
                [cfg_path, "--workers", str(run.workers)], deadline, prefix + ".log")
            wall += elapsed
            if code != 0:
                failures.append(f"{run.name}: exit code {code} (see {prefix}.log)")
                continue
            times[run.metric].append(elapsed)
            problems = checks.check_run(run, prefix, REFS)
            if run.name == "butterfly_w2" and not problems:
                problems = _same_bytes(os.path.join(workdir, "butterfly_w1_spectrum.csv"),
                                       prefix + "_spectrum.csv")
            failures += problems
        walls.append(wall)
        if time.perf_counter() > deadline - 2 * wall:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    samples = {"setup_s": setup, "wall_s": walls, **times}
    metrics = {name: (statistics.median(v) if v else None, "s", len(v))
               for name, v in samples.items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB", 1)
    metrics["failed_ratio"] = (len(failures) / attempted, "ratio", attempted)
    if workload == "scan" and times["butterfly_w2_s"]:
        metrics["butterfly_w2_speedup"] = (
            metrics["butterfly_w1_s"][0] / metrics["butterfly_w2_s"][0], "ratio",
            len(times["butterfly_w2_s"]))
    return metrics, samples, attempted, failures


# ── traced mode ────────────────────────────────────────────────────────────

def w2_speedup(seed: int, deadline: float):
    """butterfly_w1_s / butterfly_w2_s from fresh CLI runs of the scan butterfly.

    Fresh processes matter: a pool forked after this process has started its
    BLAS threads does not show the oversubscription that the CLI suffers.
    Runs alternate w1, w2, w1, w2; the ratio is of the two medians.
    """
    import checks
    workdir = os.path.join(OUT, "w2_speedup")
    os.makedirs(workdir, exist_ok=True)
    pair = [r for r in workload_runs("scan", seed) if r.name.startswith("butterfly")]
    times = {run.name: [] for run in pair}
    failures = []
    for run in pair * 2:
        cfg_path, prefix = write_config(run, workdir)
        elapsed, code, _ = run_child([cfg_path, "--workers", str(run.workers)],
                                      deadline, prefix + ".log")
        problems = ([f"{run.name}: exit code {code}"] if code != 0
                    else checks.check_run(run, prefix, REFS))
        failures += problems
        if not problems:
            times[run.name].append(elapsed)
    w1, w2 = (times[run.name] for run in pair)
    ratio = statistics.median(w1) / statistics.median(w2) if w1 and w2 else None
    return ratio, 2 * len(pair), failures


def traced(workload: str, seed: int, started: float):
    import checks
    import tracing
    sys.path.insert(0, SRC)
    try:
        import kickedharper.cli as cli
    except ImportError as exc:
        raise Startup(f"cannot import kickedharper.cli from {SRC}: {exc}") from exc
    workdir = os.path.join(OUT, workload + "-traced")
    os.makedirs(workdir, exist_ok=True)
    runs, seen = [], set()
    for run in workload_runs(workload, seed):   # workers=1: one run per config
        key = json.dumps(run.config, sort_keys=True)
        if key not in seen:
            seen.add(key)
            runs.append(run)

    figures = tracing.layer_figures()           # also warms BLAS, FFT, caches

    def one_pass():
        tracing.clear_caches()
        failed, total = [], 0.0
        for run in runs:
            cfg_path, prefix = write_config(run, workdir)
            t0 = time.perf_counter()
            try:
                code = cli.main([cfg_path, "--workers", "1"])
            except Exception:   # a crash is a failed run, not the end of the benchmark
                traceback.print_exc()
                code = "an exception"
            total += time.perf_counter() - t0
            failed += ([f"{run.name}: exit code {code}"] if code != 0
                       else checks.check_run(run, prefix, REFS))
        return total, failed

    # untraced passes on both sides of the traced one, so drift of the
    # machine's speed cancels out of the overhead
    plain_before, failures = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, more = one_pass()
    finally:
        tracer.uninstall()
    plain_after, more_after = one_pass()
    failures += more + more_after
    plain_s = (plain_before + plain_after) / 2
    speedup, cli_runs, cli_failures = w2_speedup(seed, started + HARD_LIMIT_S)
    failures += cli_failures
    tracer.save(os.path.join(workdir, "spans.npz"))

    summary = tracer.summary()
    metrics = {}
    for name in TRACED_SPANS:
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s", 1)
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count", 1)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in summary.items()
                                          if k.startswith(layer + ".")), "s", 1)
    for name, value in figures.items():
        metrics[name] = (value, "ms" if ".ms_per_block." in name else "us", 1)
    metrics["spectrum.butterfly_scan.w2_speedup"] = (speedup, "ratio", 2)
    metrics["lattice.final_sites"] = (tracer.max_sites, "sites", 1)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s", 1)
    samples = {"untraced_pass_s": [plain_before, plain_after], "traced_pass_s": [traced_s]}
    return metrics, samples, 3 * len(runs) + cli_runs, failures


# ── reporting ──────────────────────────────────────────────────────────────

def _contract_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "kickedharper", "cli.py")):
            raise Startup(f"no kickedharper sources under {SRC}")
        if args.trace:
            metrics, samples, attempted, failures = traced(args.workload, args.seed, started)
        else:
            metrics, samples, attempted, failures = end_to_end(
                args.workload, args.seed, args.seconds, started)
        wanted = _contract_metrics(args.trace)
    except Startup as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>12} {unit:<6} n={n}")
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "machine": machine_facts(args.seed),
        "attempted": attempted, "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "samples": samples,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(OUT, "results", f"{args.workload}-trace{args.trace}"
                               f"-seed{args.seed}-{time.time_ns()}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"  machine {json.dumps(record['machine'])}")
    failed = len(failures)
    missing = [name for name in wanted if metrics.get(name, (None,))[0] is None]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        failed = max(failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if metrics.get(name, (None,))[0] is not None},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
