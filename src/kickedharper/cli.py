"""JSON-configured command line front end.

One JSON document describes one run; a handful of flags override its
top-level fields so acceptance scripts can sweep parameters without editing
files.  All outputs are deterministic: rows are fully sorted, floats are
serialized at 17 significant digits, and the worker count never changes
bytes.  Exit codes: 0 success, 1 failed check or I/O trouble, 2 bad config,
3 resource exhaustion, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import (DEFAULT_BOX_SCALES, LOCALIZED, box_counting_dimension,
                       classify_transport, fit_power_law)
from .classical import (PhasePoint, dkrm_half_steps, dkrm_resonant_map,
                        equivalence_residual, trajectory)
from .errors import (ConfigError, LatticeOverflowError, NumericalError,
                     ResourceLimitError)
from .lattice import (DKRM_GENERAL, DKRM_RESONANT, KHM, MODEL_KINDS, TWO_PI,
                      ModelSpec, Wavepacket, farey_sequence,
                      parse_effective_planck)
from .quantum import evolve
from .spectrum import (butterfly_scan, check_symmetry_claims, model_spectrum)

WORKERS_ENV = "KICKEDHARPER_WORKERS"

_COMMON_KEYS = {"command", "output_prefix", "workers", "model"}
_MODEL_KEYS = {"kind", "k1", "k2", "hbar", "resonance"}
_COMMAND_KNOBS = {
    "butterfly": {"s_max", "theta_count", "window_cycles"},
    "evolve": {"n_steps", "record_every", "fit_window"},
    "classical": {"n_points", "n_steps", "seed"},
    "fractal": {"theta_count", "scales"},
    "check-symmetries": {"s_max", "theta_count", "tolerance", "n_rationals"},
}


# ── config parsing ─────────────────────────────────────────────────────────

def _fail(msg: str):
    raise ConfigError(msg)


def _get_int(cfg: dict, key: str, default, lo: int = 1, hi: int | None = None):
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{key} must be an integer")
    if v < lo or (hi is not None and v > hi):
        _fail(f"{key} must lie in [{lo}, {hi if hi is not None else 'inf'}]")
    return v


def _get_real(obj: dict, key: str, *, lo: float = 0.0):
    if key not in obj:
        _fail(f"missing required field {key}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{key} must be a number")
    v = float(v)
    if not (math.isfinite(v) and v >= lo):
        _fail(f"{key} must be finite and >= {lo}")
    return v


def _parse_model(cfg: dict, command: str):
    obj = cfg.get("model")
    if not isinstance(obj, dict):
        _fail("model must be a JSON object")
    unknown = sorted(set(obj) - _MODEL_KEYS)
    if unknown:
        _fail(f"unknown model keys: {unknown}")
    kind = obj.get("kind")
    if kind not in MODEL_KINDS:
        _fail(f"model.kind must be one of {sorted(MODEL_KINDS)}")
    k1 = _get_real(obj, "k1")
    k2 = _get_real(obj, "k2")
    resonance = obj.get("resonance")
    if resonance is not None:
        ok = (isinstance(resonance, (list, tuple)) and len(resonance) == 2
              and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                      for v in resonance))
        if not ok:
            _fail("model.resonance must be a pair of positive integers")
        resonance = (resonance[0], resonance[1])
    if kind == DKRM_GENERAL and resonance is None:
        _fail("model.resonance is required for the general-resonance model")
    needs_hbar = command in ("evolve", "fractal")
    if needs_hbar:
        if "hbar" not in obj:
            _fail(f"model.hbar is required for {command}")
        try:
            hbar = parse_effective_planck(obj["hbar"])
        except ValueError as exc:
            _fail(str(exc))
    else:
        if "hbar" in obj:
            _fail(f"{command} chooses hbar itself; drop model.hbar "
                  "(k1 and k2 are read as ratios k/hbar)")
        hbar = None
    return kind, k1, k2, hbar, resonance


def load_config(path: str) -> dict:
    """Read and minimally shape-check a JSON run configuration."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail("config must be a JSON object")
    return cfg


def _validate_top_level(cfg: dict) -> str:
    command = cfg.get("command")
    if command not in _COMMAND_KNOBS:
        _fail(f"command must be one of {sorted(_COMMAND_KNOBS)}")
    allowed = _COMMON_KEYS | _COMMAND_KNOBS[command]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        _fail(f"unknown config keys for {command}: {unknown}")
    prefix = cfg.get("output_prefix")
    if not isinstance(prefix, str) or not prefix:
        _fail("output_prefix must be a non-empty string")
    return command


def _resolve_workers(cfg: dict, flag_value: int | None) -> int:
    if flag_value is not None:
        v = flag_value
    elif os.environ.get(WORKERS_ENV):
        try:
            v = int(os.environ[WORKERS_ENV])
        except ValueError:
            _fail(f"{WORKERS_ENV} must be an integer")
    else:
        v = _get_int(cfg, "workers", 1)
    if v < 1:
        _fail("workers must be >= 1")
    return v


# ── output helpers ─────────────────────────────────────────────────────────

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: str, rows):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _prepare_prefix(prefix: str):
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)


_SPECTRUM_PLOT = '''#!/usr/bin/env python3
"""Scatter the quasienergy spectrum in the sibling CSV against hbar_eff."""
import csv
import math
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).with_name("@CSV@")
hbar, eps = [], []
with open(csv_path, newline="") as fh:
    for row in csv.DictReader(fh):
        hbar.append(float(row["hbar"]) / (2 * math.pi))
        eps.append(float(row["quasienergy"]))
fig, ax = plt.subplots(figsize=(7, 7))
ax.scatter(hbar, eps, s=0.3, marker=".", linewidths=0, color="black")
ax.set_xlabel("hbar_eff / 2pi")
ax.set_ylabel("quasienergy")
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=200)
print(out)
'''

_DIFFUSION_PLOT = '''#!/usr/bin/env python3
"""Log-log plot of the momentum-variance growth in the sibling CSV."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).with_name("@CSV@")
steps, var = [], []
with open(csv_path, newline="") as fh:
    for row in csv.DictReader(fh):
        t, v = int(row["step"]), float(row["variance"])
        if t > 0 and v > 0:
            steps.append(t)
            var.append(v)
fig, ax = plt.subplots(figsize=(7, 5))
ax.loglog(steps, var, lw=1.0, color="black")
ax.set_xlabel("kick number")
ax.set_ylabel("momentum variance")
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=200)
print(out)
'''

SPECTRUM_HEADER = "hbar_num,hbar_den,hbar,theta,quasienergy"
DIFFUSION_HEADER = "step,variance,edge_mass"


def _write_plot(prefix: str, template: str, csv_name: str):
    with open(prefix + "_plot.py", "w") as fh:
        fh.write(template.replace("@CSV@", csv_name))


def _spectrum_rows(spectrum):
    for num, den, hbar, theta, eps in spectrum.rows():
        yield (str(num), str(den), _fmt(hbar), _fmt(theta), _fmt(eps))


# ── commands ───────────────────────────────────────────────────────────────

def run_butterfly(cfg: dict, workers: int) -> int:
    kind, ratio1, ratio2, _, resonance = _parse_model(cfg, "butterfly")
    s_max = _get_int(cfg, "s_max", 30)
    theta_count = _get_int(cfg, "theta_count", 32)
    window_cycles = _get_int(cfg, "window_cycles", None)
    spectrum = butterfly_scan(kind, ratio1, ratio2, s_max, theta_count,
                              window_cycles=window_cycles, resonance=resonance,
                              workers=workers)
    prefix = cfg["output_prefix"]
    _prepare_prefix(prefix)
    csv_name = os.path.basename(prefix) + "_spectrum.csv"
    _write_csv(prefix + "_spectrum.csv", SPECTRUM_HEADER, _spectrum_rows(spectrum))
    _write_plot(prefix, _SPECTRUM_PLOT, csv_name)
    return 0


def run_evolve(cfg: dict) -> int:
    kind, k1, k2, hbar, resonance = _parse_model(cfg, "evolve")
    n_steps = _get_int(cfg, "n_steps", 1000)
    record_every = _get_int(cfg, "record_every", 1)
    default_window = [100, n_steps] if n_steps > 100 else [n_steps / 2, n_steps]
    window = cfg.get("fit_window", default_window)
    ok = (isinstance(window, (list, tuple)) and len(window) == 2
          and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in window) and 0 < window[0] < window[1])
    if not ok:
        _fail("fit_window must be [t_lo, t_hi] with 0 < t_lo < t_hi")
    try:
        model = ModelSpec(kind, k1, k2, hbar, resonance)
    except ValueError as exc:
        _fail(str(exc))
    psi0 = Wavepacket.delta(l0=0, n_sites=256, hbar_eff=hbar)
    series = evolve(model, psi0, n_steps, record_every)
    prefix = cfg["output_prefix"]
    _prepare_prefix(prefix)
    rows = ((str(int(t)), _fmt(v), _fmt(m))
            for t, v, m in zip(series.steps, series.variance, series.leak))
    _write_csv(prefix + "_diffusion.csv", DIFFUSION_HEADER, rows)
    try:
        fit = fit_power_law(series, (window[0], window[1]))
        alpha = fit.alpha
        label = classify_transport(fit, series)
    except ValueError:
        # a run with no positive variance in the window (e.g. zero kicks)
        # never left its initial site, so the bounded label applies
        alpha = None
        label = LOCALIZED
    _write_json(prefix + "_summary.json", {
        "alpha": alpha,
        "classification": label,
        "window": [float(window[0]), float(window[1])],
        "final_norm": series.final_norm,
    })
    _write_plot(prefix, _DIFFUSION_PLOT, os.path.basename(prefix) + "_diffusion.csv")
    return 0


def run_classical(cfg: dict) -> int:
    kind, k1, k2, _, _ = _parse_model(cfg, "classical")
    if kind == KHM:
        map_kind = "khm"
    elif kind == DKRM_RESONANT:
        map_kind = "dkrm"
    else:
        _fail("the classical limit is implemented for khm and dkrm-resonant")
    n_points = _get_int(cfg, "n_points", 100000)
    n_steps = _get_int(cfg, "n_steps", 200)
    seed = _get_int(cfg, "seed", 1234, lo=0)
    rng = np.random.default_rng(seed)
    pts = PhasePoint(rng.uniform(0.0, TWO_PI, n_points),
                     rng.uniform(0.0, TWO_PI, n_points))
    eq_res = float(np.max(equivalence_residual(pts, k1, k2)))
    half = dkrm_half_steps(pts, k1, k2)
    comp = dkrm_resonant_map(pts, k1, k2)
    half_dev = float(max(np.max(np.abs(half.q - comp.q)),
                         np.max(np.abs(half.p - comp.p))))
    start = PhasePoint(float(rng.uniform(0.0, TWO_PI)),
                       float(rng.uniform(0.0, TWO_PI)))
    traj = trajectory(map_kind, start, n_steps, k1, k2)
    prefix = cfg["output_prefix"]
    _prepare_prefix(prefix)
    rows = ((str(i), _fmt(pt.q), _fmt(pt.p)) for i, pt in enumerate(traj))
    _write_csv(prefix + "_trajectory.csv", "step,q,p", rows)
    _write_json(prefix + "_classical.json", {
        "map_equivalence_max_residual": eq_res,
        "half_step_max_deviation": half_dev,
        "n_points": n_points,
        "seed": seed,
        "map": map_kind,
        "trajectory_steps": n_steps,
    })
    return 0


def run_fractal(cfg: dict) -> int:
    kind, k1, k2, hbar, resonance = _parse_model(cfg, "fractal")
    if hbar.rational_part is None:
        _fail("fractal needs model.hbar in the exact '2pi*num/den' form")
    theta_count = _get_int(cfg, "theta_count", 64)
    scales = cfg.get("scales", list(DEFAULT_BOX_SCALES))
    ok = (isinstance(scales, (list, tuple)) and len(scales) >= 4
          and all(isinstance(s, int) and not isinstance(s, bool) and s >= 1
                  for s in scales))
    if not ok:
        _fail("scales must be a list of >= 4 positive integer box counts")
    try:
        model = ModelSpec(kind, k1, k2, hbar, resonance)
    except ValueError as exc:
        _fail(str(exc))
    spectrum = model_spectrum(model, theta_count)
    energies = np.sort(np.concatenate([sl.energies for sl in spectrum.slices]))
    box = box_counting_dimension(energies, scales)
    prefix = cfg["output_prefix"]
    _prepare_prefix(prefix)
    _write_csv(prefix + "_spectrum.csv", SPECTRUM_HEADER, _spectrum_rows(spectrum))
    _write_json(prefix + "_fractal.json", {
        "d0": box.d0,
        "rms_residual": box.rms_residual,
        "scales": list(box.scales),
        "counts": list(box.counts),
        "n_points": int(energies.size),
    })
    return 0


def run_check_symmetries(cfg: dict) -> int:
    kind, ratio1, ratio2, _, resonance = _parse_model(cfg, "check-symmetries")
    if kind == DKRM_GENERAL:
        _fail("symmetry claims are defined for khm and dkrm-resonant")
    s_max = _get_int(cfg, "s_max", 20)
    theta_count = _get_int(cfg, "theta_count", 16)
    n_rationals = _get_int(cfg, "n_rationals", 10)
    tol = cfg.get("tolerance", 1e-8)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < 1:
        _fail("tolerance must be a number in (0, 1)")
    interior = [r for r in farey_sequence(s_max) if r.num < r.den]
    if n_rationals < len(interior):
        idx = np.unique(np.round(
            np.linspace(0, len(interior) - 1, n_rationals)).astype(int))
        interior = [interior[i] for i in idx]
    reports = check_symmetry_claims(kind, ratio1, ratio2, interior,
                                    theta_count, float(tol), resonance)
    prefix = cfg["output_prefix"]
    _prepare_prefix(prefix)
    payload = {
        "claims": [{"name": r.name, "hbar": f"2pi*{r.hbar_label}",
                    "distance": r.distance, "tolerance": r.tolerance,
                    "passed": r.passed} for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _write_json(prefix + "_symmetries.json", payload)
    return 0 if payload["all_passed"] else 1


# ── entry point ────────────────────────────────────────────────────────────

def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="kickedharper",
        description="Quasienergy butterflies and kicked-rotor transport runs "
                    "driven by a JSON configuration.")
    ap.add_argument("config", help="path to the JSON run configuration")
    ap.add_argument("--command", choices=sorted(_COMMAND_KNOBS))
    ap.add_argument("--output-prefix")
    ap.add_argument("--workers", type=int)
    ap.add_argument("--s-max", type=int, dest="s_max")
    ap.add_argument("--theta-count", type=int, dest="theta_count")
    ap.add_argument("--n-steps", type=int, dest="n_steps")
    ap.add_argument("--record-every", type=int, dest="record_every")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key in ("command", "output_prefix", "s_max", "theta_count",
                    "n_steps", "record_every"):
            value = getattr(args, key.replace("-", "_"))
            if value is not None:
                cfg[key] = value
        command = _validate_top_level(cfg)
        workers = _resolve_workers(cfg, args.workers)
        cfg.pop("workers", None)
        if command == "butterfly":
            return run_butterfly(cfg, workers)
        if command == "evolve":
            return run_evolve(cfg)
        if command == "classical":
            return run_classical(cfg)
        if command == "fractal":
            return run_fractal(cfg)
        return run_check_symmetries(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, LatticeOverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
