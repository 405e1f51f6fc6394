"""End-to-end runs of the command-line driver against temporary directories."""

import ast
import csv
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kickedharper
from kickedharper import classical, cli, quantum, spectrum
from kickedharper import (BALLISTIC, DIFFUSIVE, DKRM_RESONANT, KHM, LOCALIZED, SUBDIFFUSIVE,
                          ModelSpec, NumericalError, build_bloch_matrix, butterfly_scan,
                          model_spectrum, parse_effective_planck)
from kickedharper.classical import (PhasePoint, dkrm_half_steps, dkrm_resonant_map, khm_map,
                                    trajectory)
from kickedharper.cli import (DIFFUSION_HEADER, SPECTRUM_HEADER, SPECTRUM_PREFIX,
                              SWEEP_CHUNK, main)
from kickedharper.lattice import TWO_PI
from kickedharper.quantum import _period_steps
from kickedharper.spectrum import _period_and_fold
from test_classical import canonical_transform, circular_distance
from test_spectrum import started_pools


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def butterfly_config(tmp_path, prefix="out/run", **extra):
    cfg = {
        "command": "butterfly",
        "output_prefix": str(tmp_path / prefix),
        "model": {"kind": "khm", "k1": 1.0, "k2": 1.0},
        "s_max": 2,
        "theta_count": 3,
    }
    cfg.update(extra)
    return cfg


# ── butterfly ──────────────────────────────────────────────────────────────

def test_butterfly_writes_spectrum_csv_and_plot(tmp_path):
    cfg = butterfly_config(tmp_path)
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    csv_path = tmp_path / "out" / "run_spectrum.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == SPECTRUM_HEADER
    assert len(lines) == 1 + (2 + 1) * 3        # dens 2 and 1, three angles
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            assert int(row["hbar_num"]) >= 1 and int(row["hbar_den"]) >= 1
            assert math.isfinite(float(row["quasienergy"]))
            assert abs(float(row["hbar"]) -
                       2 * math.pi * int(row["hbar_num"]) / int(row["hbar_den"])) < 1e-12
    plot = (tmp_path / "out" / "run_plot.py").read_text()
    assert "run_spectrum.csv" in plot


def test_butterfly_output_is_reproducible_across_workers(tmp_path, monkeypatch):
    # the scan's two stacks are far below POOL_WORK, which is lowered so the pool runs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    created = started_pools(monkeypatch)
    paths = []
    for tag, workers in (("a", None), ("b", None), ("c", 2)):
        cfg = butterfly_config(tmp_path, prefix=f"{tag}/run")
        if workers:
            cfg["workers"] = workers
        assert main([write_config(tmp_path, f"{tag}.json", cfg)]) == 0
        paths.append((tmp_path / tag / "run_spectrum.csv").read_bytes())
    assert created == [2]
    assert paths[0] == paths[1] == paths[2]


def test_flags_override_the_config(tmp_path):
    cfg = butterfly_config(tmp_path, prefix="ignored/run")
    cfg["s_max"] = 5
    target = tmp_path / "flagged" / "run"
    code = main([write_config(tmp_path, "c.json", cfg),
                 "--s-max", "1", "--theta-count", "2",
                 "--output-prefix", str(target)])
    assert code == 0
    lines = (tmp_path / "flagged" / "run_spectrum.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 * 2              # only 1/1 at two angles
    assert not (tmp_path / "ignored").exists()


def expected_spectrum_csv(spec):
    """CSV bytes with one SPECTRUM_PREFIX + "%.17g" line per quasienergy, (hbar, theta) order."""
    line = SPECTRUM_PREFIX + "%.17g\n"
    return (SPECTRUM_HEADER + "\n" + "".join(
        line % (hb.rational_part.num, hb.rational_part.den, hb.value, float(theta), float(e))
        for hb, eps in zip(spec.hbars, spec.energies)
        for theta, row in zip(spec.thetas, eps) for e in row)).encode()


def test_spectrum_csv_is_one_row_format_per_quasienergy(tmp_path):
    """A mirrored khm butterfly and a fold-2 fractal (dkrm-resonant at odd num*den)."""
    cfg = butterfly_config(tmp_path, prefix="bf/run", s_max=5, theta_count=3)
    assert main([write_config(tmp_path, "bf.json", cfg)]) == 0
    spec = butterfly_scan(KHM, 1.0, 1.0, 5, theta_count=3)
    data = (tmp_path / "bf" / "run_spectrum.csv").read_bytes()
    assert data == expected_spectrum_csv(spec)
    keys = [tuple(map(float, line.split(b",")[2:4])) for line in data.splitlines()[1:]]
    assert keys == sorted(keys)

    model = ModelSpec(DKRM_RESONANT, 1.0, 1.0, parse_effective_planck("2pi*5/13"))
    assert _period_and_fold(model, _period_steps(model)) == (26, 2)
    cfg = {"command": "fractal", "output_prefix": str(tmp_path / "fr" / "run"),
           "model": {"kind": DKRM_RESONANT, "k1": 1.0, "k2": 1.0, "hbar": "2pi*5/13"},
           "theta_count": 5}
    assert main([write_config(tmp_path, "fr.json", cfg)]) == 0
    data = (tmp_path / "fr" / "run_spectrum.csv").read_bytes()
    assert data == expected_spectrum_csv(model_spectrum(model, 5))


@pytest.mark.parametrize("name", ['it"s', "tab\\tname", 'both\\"', "smile\U0001f600"])
def test_plot_scripts_name_their_csv_for_any_output_prefix(tmp_path, name):
    """The plot script's with_name argument is a string literal of the CSV's basename, so a
    quote or a backslash in the prefix neither breaks the script nor names another file, and a
    character outside the BMP is not split into surrogate escapes."""
    evolve = {"command": "evolve", "n_steps": 20, "fit_window": [2, 20],
              "model": {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0, "hbar": "2pi*1/3"}}
    for cfg, suffix in ((butterfly_config(tmp_path), "_spectrum.csv"), (evolve, "_diffusion.csv")):
        cfg["output_prefix"] = str(tmp_path / "out" / name)
        assert main([write_config(tmp_path, "c.json", cfg)]) == 0
        assert (tmp_path / "out" / (name + suffix)).is_file()
        tree = ast.parse((tmp_path / "out" / (name + "_plot.py")).read_text())
        args = [node.args for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "with_name"]
        assert [[ast.literal_eval(arg) for arg in a] for a in args] == [[name + suffix]]


# ── evolve ─────────────────────────────────────────────────────────────────

def test_evolve_writes_series_and_summary(tmp_path):
    cfg = {
        "command": "evolve",
        "output_prefix": str(tmp_path / "ev"),
        "model": {"kind": "dkrm-resonant", "k1": 3.0, "k2": 3.0,
                  "hbar": "2pi*1/3"},
        "n_steps": 300,
        "fit_window": [10, 300],
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    lines = (tmp_path / "ev_diffusion.csv").read_text().splitlines()
    assert lines[0] == DIFFUSION_HEADER
    assert len(lines) == 1 + 301
    summary = json.loads((tmp_path / "ev_summary.json").read_text())
    assert set(summary) == {"alpha", "classification", "window", "final_norm"}
    assert summary["classification"] in (LOCALIZED, SUBDIFFUSIVE, DIFFUSIVE, BALLISTIC)
    assert isinstance(summary["alpha"], float)
    assert summary["window"] == [10.0, 300.0]
    assert abs(summary["final_norm"] - 1.0) < 1e-8
    assert "ev_diffusion.csv" in (tmp_path / "ev_plot.py").read_text()


def test_evolve_with_zero_kicks_reports_a_pinned_state(tmp_path):
    cfg = {
        "command": "evolve",
        "output_prefix": str(tmp_path / "still"),
        "model": {"kind": "dkrm-resonant", "k1": 0.0, "k2": 0.0,
                  "hbar": "2pi*1/5"},
        "n_steps": 50,
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    with open(tmp_path / "still_diffusion.csv", newline="") as fh:
        variances = [float(r["variance"]) for r in csv.DictReader(fh)]
    assert variances == [0.0] * 51
    summary = json.loads((tmp_path / "still_summary.json").read_text())
    assert summary["alpha"] is None
    assert summary["classification"] == "localized"


# ── classical ──────────────────────────────────────────────────────────────

def test_classical_reports_map_equivalence(tmp_path):
    cfg = {
        "command": "classical",
        "output_prefix": str(tmp_path / "cl"),
        "model": {"kind": "khm", "k1": 1.3, "k2": 0.7},
        "n_points": 2000,
        "n_steps": 40,
        "seed": 7,
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    report = json.loads((tmp_path / "cl_classical.json").read_text())
    assert report["map_equivalence_max_residual"] < 1e-12
    assert report["half_step_max_deviation"] < 1e-12
    assert report["map"] == "khm" and report["seed"] == 7
    lines = (tmp_path / "cl_trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,q,p"
    assert len(lines) == 1 + 41


def whole_array_sweep(kind, k1, k2, n_points, n_steps, seed):
    """The classical command's JSON and trajectory CSV bytes from one draw of every
    point at once: the oracle of the chunked sweep."""
    rng = np.random.default_rng(seed)
    pts = PhasePoint(rng.uniform(0.0, TWO_PI, n_points), rng.uniform(0.0, TWO_PI, n_points))
    half, comp = dkrm_half_steps(pts, k1, k2), dkrm_resonant_map(pts, k1, k2)
    via_dkrm, via_khm = canonical_transform(comp), khm_map(canonical_transform(pts), k1, k2)
    eq_res = float(np.max(np.maximum(circular_distance(via_dkrm.q, via_khm.q),
                                     np.abs(via_dkrm.p - via_khm.p))))
    half_dev = float(max(np.max(np.abs(half.q - comp.q)), np.max(np.abs(half.p - comp.p))))
    start = PhasePoint(float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, TWO_PI)))
    map_kind = "khm" if kind == KHM else "dkrm"
    rows = ("%d,%.17g,%.17g\n" % (i, pt.q, pt.p)
            for i, pt in enumerate(trajectory(map_kind, start, n_steps, k1, k2)))
    report = json.dumps({"map_equivalence_max_residual": eq_res,
                         "half_step_max_deviation": half_dev, "n_points": n_points,
                         "seed": seed, "map": map_kind, "trajectory_steps": n_steps},
                        indent=2) + "\n"
    return report.encode(), ("step,q,p\n" + "".join(rows)).encode()


@pytest.mark.parametrize("kind", [KHM, DKRM_RESONANT])
def test_chunked_classical_sweep_matches_the_whole_array_sweep(tmp_path, kind):
    # chunk-boundary sizes: one point, one short of a chunk, one chunk, a chunk
    # and a point past two
    for i, n_points in enumerate((1, SWEEP_CHUNK - 1, SWEEP_CHUNK, 2 * SWEEP_CHUNK + 1)):
        seed, prefix = 11 + i, tmp_path / f"cl{i}"
        cfg = {"command": "classical", "output_prefix": str(prefix), "n_points": n_points,
               "model": {"kind": kind, "k1": 3.9, "k2": 2.1}, "n_steps": 30, "seed": seed}
        assert main([write_config(tmp_path, "c.json", cfg)]) == 0
        report, rows = whole_array_sweep(kind, 3.9, 2.1, n_points, 30, seed)
        assert Path(f"{prefix}_classical.json").read_bytes() == report
        assert Path(f"{prefix}_trajectory.csv").read_bytes() == rows


def test_classical_sweep_maps_each_chunk_once(tmp_path, monkeypatch):
    """Both checks of a chunk come from one pass of the shared-sine kernel, and the
    sweep steps none of the public maps."""
    calls, mapped = [], []

    def counted(pts, k1, k2):
        calls.append(pts.q.size)
        return classical.conjugacy_defects(pts, k1, k2)

    def recorded(name):
        return lambda *args: mapped.append(name)

    monkeypatch.setattr(cli, "conjugacy_defects", counted)
    for name in ("khm_map", "dkrm_half_steps", "dkrm_resonant_map"):
        monkeypatch.setattr(classical, name, recorded(name))
        monkeypatch.setattr(cli, name, recorded(name), raising=False)
    cfg = {"command": "classical", "output_prefix": str(tmp_path / "cl"), "n_steps": 5,
           "n_points": 2 * SWEEP_CHUNK + 1, "model": {"kind": KHM, "k1": 1.3, "k2": 0.7}}
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    assert calls == [SWEEP_CHUNK, SWEEP_CHUNK, 1]
    assert mapped == []


def test_classical_rejects_the_general_resonance_model(tmp_path):
    cfg = {
        "command": "classical",
        "output_prefix": str(tmp_path / "cl"),
        "model": {"kind": "dkrm-general", "k1": 1.0, "k2": 1.0,
                  "resonance": [1, 2]},
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 2


def run_python(args):
    """Run a fresh interpreter with this checkout's package importable."""
    src = str(Path(kickedharper.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_module_entry_point_runs_the_config(tmp_path):
    cfg = {
        "command": "classical",
        "output_prefix": str(tmp_path / "cl"),
        "model": {"kind": "khm", "k1": 1.3, "k2": 0.7},
        "n_points": 100,
        "n_steps": 5,
    }

    def run(*args):
        return run_python(["-m", "kickedharper.cli", *args]).returncode

    assert run(write_config(tmp_path, "c.json", cfg)) == 0
    assert (tmp_path / "cl_trajectory.csv").is_file()
    assert (tmp_path / "cl_classical.json").is_file()
    assert run(str(tmp_path / "missing.json")) == 2
    assert run(write_config(tmp_path, "c.json", cfg), "--command", "nope") == 2


def test_every_command_runs_without_scipy(tmp_path):
    # the package needs numpy only; scipy is a test dependency, so a run must
    # neither import it nor load any of its submodules
    model = {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0}
    cfgs = [
        butterfly_config(tmp_path, prefix="bf", workers=2),
        {"command": "evolve", "output_prefix": str(tmp_path / "ev"),
         "model": dict(model, hbar="2pi*1/3"), "n_steps": 20},
        {"command": "classical", "output_prefix": str(tmp_path / "cl"),
         "model": model, "n_points": 100, "n_steps": 5},
        {"command": "fractal", "output_prefix": str(tmp_path / "fr"),
         "model": dict(model, hbar="2pi*2/7"), "theta_count": 16},
        {"command": "check-symmetries", "output_prefix": str(tmp_path / "sym"),
         "model": model, "s_max": 3, "theta_count": 2, "n_rationals": 2},
    ]
    configs = [write_config(tmp_path, f"c{i}.json", c) for i, c in enumerate(cfgs)]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import kickedharper.cli\n"
            "kickedharper.spectrum.POOL_WORK = 1\n"   # the butterfly pools at any work
            f"print([kickedharper.cli.main([c]) for c in {configs!r}])\n"
            "print(sorted(m for m, mod in sys.modules.items()\n"
            "             if m.startswith('scipy') and mod is not None))\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str([0] * 5), "[]"]


def classical_peak_mb(tmp_path, n_points, n_steps):
    """Peak RSS in MB of a `classical` run that is the only child of a fresh interpreter,
    so RUSAGE_CHILDREN reads that child's peak alone."""
    cfg = write_config(tmp_path, f"c{n_points}_{n_steps}.json", {
        "command": "classical", "output_prefix": str(tmp_path / "cl"), "n_points": n_points,
        "model": {"kind": "khm", "k1": 1.3, "k2": 0.7}, "n_steps": n_steps})
    code = ("import resource, subprocess, sys\n"
            f"subprocess.run([sys.executable, '-m', 'kickedharper.cli', {cfg!r}], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024   # ru_maxrss is in KB on Linux


def test_classical_sweep_memory_does_not_depend_on_n_points(tmp_path):
    # a whole-array sweep of 2e6 points peaks near 173 MB
    assert classical_peak_mb(tmp_path, 2000000, 10) < 80


def test_classical_trajectory_memory_does_not_depend_on_n_steps(tmp_path):
    # the orbit is streamed to the CSV; a list of its 200,001 points as numpy
    # scalars peaks about 32 MB higher
    short = classical_peak_mb(tmp_path, 1000, 10)
    assert classical_peak_mb(tmp_path, 1000, 200000) < short + 1


def test_evolve_fractal_and_check_symmetries_leave_numpy_ma_unloaded(tmp_path):
    # np.unique and np.median import numpy.ma when first called, which costs a
    # fresh process about 1 MB and 10 ms; the commands count and take medians without them
    model = {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0}
    cfgs = [
        {"command": "evolve", "output_prefix": str(tmp_path / "ev"),
         "model": dict(model, hbar="2pi*1/3"), "n_steps": 200},
        {"command": "fractal", "output_prefix": str(tmp_path / "fr"),
         "model": dict(model, hbar="2pi*2/7"), "theta_count": 16},
        {"command": "check-symmetries", "output_prefix": str(tmp_path / "sym"),
         "model": model, "s_max": 5, "theta_count": 2, "n_rationals": 3},
    ]
    configs = [write_config(tmp_path, f"c{i}.json", c) for i, c in enumerate(cfgs)]
    code = ("import sys, kickedharper.cli\n"
            f"print([kickedharper.cli.main([c]) for c in {configs!r}])\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str([0] * 3), "False"]


def test_importing_the_cli_leaves_numpy_fft_unloaded():
    # the period kernel reaches numpy.fft when it first runs, and a scan imports the
    # process pool (and logging through it) only when it starts one, so commands that
    # never need them, and every command's set-up, do not pay for loading them
    modules = ["numpy.fft", "concurrent.futures", "logging"]
    proc = run_python(["-c", "import sys, kickedharper.cli; "
                       f"print(*[m in sys.modules for m in {modules!r}])"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * len(modules)


def test_main_freezes_the_start_up_heap_once(tmp_path):
    # the first call moves the import-time objects out of the collector's reach; a
    # second call in the same process must not also freeze what the first one left
    # alive (evolve's numpy.fft import and cached kernel tables).  A frozen object still
    # dies when its last reference goes: `classical` (numpy.random's first import) frees
    # a few, so it is not the second command here
    model = {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0}
    cfgs = [
        {"command": "evolve", "output_prefix": str(tmp_path / "ev"),
         "model": dict(model, hbar="2pi*1/3"), "n_steps": 20},
        {"command": "fractal", "output_prefix": str(tmp_path / "fr"),
         "model": dict(model, hbar="2pi*2/7"), "theta_count": 16},
    ]
    configs = [write_config(tmp_path, f"c{i}.json", c) for i, c in enumerate(cfgs)]
    code = ("import gc, json, kickedharper.cli\n"
            "codes, counts = [], []\n"
            f"for c in {configs!r}:\n"
            "    codes.append(kickedharper.cli.main([c]))\n"
            "    counts.append(gc.get_freeze_count())\n"
            "print(json.dumps([codes, gc.isenabled(), counts]))\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    codes, enabled, (first, second) = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0] and enabled is True
    assert first > 0 and second == first, (first, second)


# ── fractal ────────────────────────────────────────────────────────────────

def test_fractal_writes_spectrum_and_dimension(tmp_path):
    cfg = {
        "command": "fractal",
        "output_prefix": str(tmp_path / "fr"),
        "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": "2pi*1/13"},
        "theta_count": 8,
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    report = json.loads((tmp_path / "fr_fractal.json").read_text())
    assert report["n_points"] == 13 * 8
    assert 0.0 <= report["d0"] <= 1.5
    assert len(report["scales"]) == len(report["counts"])
    lines = (tmp_path / "fr_spectrum.csv").read_text().splitlines()
    assert len(lines) == 1 + 13 * 8


def test_fractal_requires_an_exact_rational_hbar(tmp_path):
    cfg = {
        "command": "fractal",
        "output_prefix": str(tmp_path / "fr"),
        "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": 1.0},
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 2


# ── check-symmetries ───────────────────────────────────────────────────────

def test_check_symmetries_passes_on_the_harper_model(tmp_path):
    cfg = {
        "command": "check-symmetries",
        "output_prefix": str(tmp_path / "sym"),
        "model": {"kind": "khm", "k1": 1.0, "k2": 1.0},
        "s_max": 4,
        "theta_count": 4,
        "n_rationals": 3,
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 0
    report = json.loads((tmp_path / "sym_symmetries.json").read_text())
    assert report["all_passed"] is True
    assert len(report["claims"]) >= 3
    for claim in report["claims"]:
        assert set(claim) == {"name", "hbar", "distance", "tolerance", "passed"}
        assert claim["distance"] < claim["tolerance"]


# ── failure modes ──────────────────────────────────────────────────────────

def test_config_validation_failures_exit_two(tmp_path):
    new = tmp_path / "new"   # a rejected run must not create its output directory
    bad = [
        {},                                                     # no command
        {"command": "nope", "output_prefix": "x", "model": {}},
        butterfly_config(new, bogus_key=1),
        {**butterfly_config(new), "output_prefix": ""},
        {"command": "evolve", "output_prefix": str(new / "x"),
         "model": {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0}},  # no hbar
        {**butterfly_config(new),
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": 1.0}},
        {**butterfly_config(new),
         "model": {"kind": "khm", "k1": -1.0, "k2": 1.0}},
        {**butterfly_config(new), "theta_count": 0},
        {**butterfly_config(new), "workers": 0},
        {**butterfly_config(new),                               # not coprime
         "model": {"kind": "dkrm-general", "k1": 1.0, "k2": 1.0,
                   "resonance": [2, 4]}},
        {**butterfly_config(new),
         "model": {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0,
                   "resonance": [1, 2]}},
        {"command": "classical", "output_prefix": str(new / "x"),
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "resonance": [1, 2]}},
        {"command": "evolve", "output_prefix": str(new / "x"),  # 3 records
         "model": {"kind": "dkrm-resonant", "k1": 4.0, "k2": 0.4, "hbar": 1.0},
         "n_steps": 2000, "record_every": 250},
        {"command": "evolve", "output_prefix": str(new / "x"),
         "model": {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0, "hbar": [1]}},
        {"command": "fractal", "output_prefix": str(new / "x"),  # 6 points
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": "2pi*1/3"},
         "theta_count": 2},
        {**butterfly_config(new), "model": {"kind": "khm", "k1": "1.0", "k2": 1.0}},
        {**butterfly_config(new), "model": {"kind": "khm", "k1": True, "k2": 1.0}},
        {"command": "fractal", "output_prefix": str(new / "x"),
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": 1.0}},
        {**butterfly_config(new),
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": None}},
        {**butterfly_config(new), "model": [1]},
        {k: v for k, v in butterfly_config(new).items() if k != "model"},
        {**butterfly_config(new), "model": {"k1": 1.0, "k2": 1.0}},     # no kind
        {**butterfly_config(new), "command": ["butterfly"]},             # unhashable
        {**butterfly_config(new), "model": {"kind": "khm", "k1": 10**400, "k2": 1.0}},
        {"command": "evolve", "output_prefix": str(new / "x"),
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": f"2pi*1/{10**400}"}},
        {"command": "evolve", "output_prefix": str(new / "x"), "n_steps": 100,  # k1/hbar inf
         "model": {"kind": "khm", "k1": 1e300, "k2": 1.0, "hbar": 1e-10}},
        {"command": "check-symmetries", "output_prefix": str(new / "x"),  # no rational
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0}, "s_max": 1},      # in (0, 1)
        {"command": "fractal", "output_prefix": str(new / "x"), "theta_count": 16,
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": "2pi*5/13"},
         "scales": [64, 64, 64, 64]},                           # a rank-deficient fit
        {"command": "fractal", "output_prefix": str(new / "x"), "theta_count": 16,
         "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": "2pi*5/13"},
         "scales": [16, 32, 64, 2 ** 53 + 1]},                  # finer than float64 resolves
    ]
    for i, cfg in enumerate(bad):
        assert main([write_config(tmp_path, f"bad{i}.json", cfg)]) == 2, cfg
    assert main([write_config(tmp_path, "ok.json", butterfly_config(new)),
                 "--workers", "0"]) == 2
    symmetries = {"command": "check-symmetries", "output_prefix": str(new / "x"),
                  "model": {"kind": "khm", "k1": 1.0, "k2": 1.0}}
    assert main([write_config(tmp_path, "sym.json", symmetries), "--s-max", "1"]) == 2
    assert not new.exists()


def test_unreadable_or_malformed_config_exits_two(tmp_path):
    assert main([str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main([str(garbled)]) == 2
    listy = tmp_path / "listy.json"
    listy.write_text("[1, 2]")
    assert main([str(listy)]) == 2
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'{"command": "butterfly\xff"}')
    assert main([str(undecodable)]) == 2


def test_model_fields_each_command_accepts_exit_zero(tmp_path):
    model = {"kind": "khm", "k1": 1.0, "k2": 1.0, "resonance": None}
    good = [
        butterfly_config(tmp_path, prefix="bf", model=model),
        {"command": "classical", "output_prefix": str(tmp_path / "cl"),
         "model": model, "n_points": 100, "n_steps": 5},
        {"command": "classical", "output_prefix": str(tmp_path / "gen"),
         "model": {"kind": "dkrm-general", "k1": 1.0, "k2": 1.0, "resonance": [1, 1]},
         "n_points": 100, "n_steps": 5},
        {"command": "evolve", "output_prefix": str(tmp_path / "ev"),
         "model": {"kind": "dkrm-resonant", "k1": 1.0, "k2": 1.0, "hbar": "2pi*3/19"},
         "n_steps": 20},
        # no hbar mirror off (1, 1): the period and kick-swap claims run, and pass
        {"command": "check-symmetries", "output_prefix": str(tmp_path / "sym"),
         "model": {"kind": "dkrm-general", "k1": 0.9, "k2": 0.4, "resonance": [1, 2]},
         "s_max": 5, "theta_count": 4, "n_rationals": 3},
    ]
    for i, cfg in enumerate(good):
        assert main([write_config(tmp_path, f"good{i}.json", cfg)]) == 0, cfg


def test_unwritable_output_prefix_exits_one(tmp_path):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("in the way")
    cfg = {
        "command": "evolve",
        "output_prefix": str(blocker / "out"),
        "model": {"kind": "dkrm-resonant", "k1": 0.5, "k2": 0.5, "hbar": 1.0},
        "n_steps": 20,   # a valid run: the exit code comes from the write alone
    }
    assert main([write_config(tmp_path, "c.json", cfg)]) == 1


# ── numerical and resource guards ──────────────────────────────────────────

def test_a_bloch_unitarity_defect_raises_and_exits_four(tmp_path, monkeypatch, capsys):
    """A diagonal table scaled by 1.001 leaves each Bloch block about 2e-3 off
    unitary, so every spectrum path raises and the CLI exits 4.  Every step of every
    block reads its table, while a one-kick block takes no step of the period kernel."""
    table = spectrum._diagonal_table
    monkeypatch.setattr(spectrum, "_diagonal_table", lambda *a: 1.001 * table(*a))
    model = ModelSpec(KHM, 1.0, 1.0, parse_effective_planck("2pi*13/34"))
    with pytest.raises(NumericalError, match="Bloch block unitarity defect"):
        build_bloch_matrix(model, 0.3)
    with pytest.raises(NumericalError, match="Bloch block unitarity defect"):
        model_spectrum(model, 8)
    cfg = {"command": "fractal", "output_prefix": str(tmp_path / "fr"),
           "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": "2pi*13/34"},
           "theta_count": 8}
    assert main([write_config(tmp_path, "c.json", cfg)]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: Bloch block unitarity")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_a_lattice_beyond_max_sites_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "evolve", functools.partial(quantum.evolve, max_sites=1024))
    cfg = {"command": "evolve", "output_prefix": str(tmp_path / "ev"),
           "model": {"kind": "khm", "k1": 3000.0, "k2": 1.0, "hbar": 1.0}}
    assert main([write_config(tmp_path, "c.json", cfg)]) == 3
    assert capsys.readouterr().err.startswith("resource limit: lattice would exceed 1024")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
