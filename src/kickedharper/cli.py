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
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (DEFAULT_BOX_SCALES, LOCALIZED, MIN_BOX_POINTS,
                       box_counting_dimension, classify_transport, fit_power_law)
from .classical import (PhasePoint, dkrm_half_steps, dkrm_resonant_map,
                        equivalence_residual, trajectory)
from .errors import ConfigError, NumericalError, ResourceLimitError
from .lattice import (KHM, TWO_PI, EffPlanck, ModelSpec, Wavepacket,
                      farey_sequence, parse_effective_planck)
from .quantum import evolve
from .spectrum import (butterfly_scan, check_symmetry_claims, lattice_period,
                       model_spectrum)

WORKERS_ENV = "KICKEDHARPER_WORKERS"

_COMMON_KEYS = {"command", "output_prefix", "workers", "model"}
_MODEL_KEYS = {"kind", "k1", "k2", "hbar", "resonance"}

# hbar rules: a scan command picks hbar itself and reads k1, k2 as the ratios
# k/hbar; evolve takes any hbar; fractal needs the exact '2pi*num/den' form.
NO_HBAR, ANY_HBAR, EXACT_HBAR = "none", "any", "exact"
# a scan command's model holds the ratios as k1, k2 at this placeholder hbar;
# its runner reads only kind, k1, k2 and resonance
_PLACEHOLDER_HBAR = EffPlanck.from_rational(1, 1)


# ── config parsing ─────────────────────────────────────────────────────────

def _fail(msg: str):
    raise ConfigError(msg)


def _is_int(v, lo: int = 1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# knob checks: (predicate, what a valid value is)
_COUNT = (_is_int, "an integer >= 1")
_SEED = (lambda v: _is_int(v, 0), "an integer >= 0")
_FIT_WINDOW = (lambda v: isinstance(v, list) and len(v) == 2
               and all(map(_is_real, v)) and 0 < v[0] < v[1],
               "[t_lo, t_hi] with 0 < t_lo < t_hi")
_SCALES = (lambda v: isinstance(v, list) and len(v) >= 4 and all(map(_is_int, v)),
           "a list of >= 4 positive integer box counts")
_TOLERANCE = (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)")


class _Command(NamedTuple):
    """What a command accepts and which function runs it."""

    hbar: str                 # NO_HBAR, ANY_HBAR or EXACT_HBAR
    principal_only: bool      # only resonance (1, 1), which every khm model has
    knobs: dict               # {knob: (check, default)}
    run: Callable             # run(model, knobs, prefix) -> exit code


def _parse_model(obj, command: str, spec: _Command) -> ModelSpec:
    if not isinstance(obj, dict):
        _fail("model must be a JSON object")
    unknown = sorted(set(obj) - _MODEL_KEYS)
    if unknown:
        _fail(f"unknown model keys: {unknown}")
    for key in ("k1", "k2"):
        if not _is_real(obj.get(key)):
            _fail(f"model.{key} must be a number")
    resonance = obj.get("resonance")
    if resonance is not None:
        if not (isinstance(resonance, list) and len(resonance) == 2
                and all(map(_is_int, resonance))):
            _fail("model.resonance must be a pair of positive integers")
    hbar = obj.get("hbar")
    if spec.hbar == NO_HBAR and "hbar" in obj:
        _fail(f"{command} chooses hbar itself; drop model.hbar "
              "(k1 and k2 are read as ratios k/hbar)")
    if spec.hbar != NO_HBAR and not (isinstance(hbar, str) or _is_real(hbar)):
        _fail(f"model.hbar is required for {command}, as a number or '2pi*num/den'")
    try:
        hbar = (_PLACEHOLDER_HBAR if spec.hbar == NO_HBAR
                else parse_effective_planck(hbar))
        model = ModelSpec(obj.get("kind"), float(obj["k1"]), float(obj["k2"]),
                          hbar, resonance)
    except ValueError as exc:
        _fail(str(exc))
    if spec.hbar == EXACT_HBAR and hbar.rational_part is None:
        _fail(f"{command} needs model.hbar in the exact '2pi*num/den' form")
    if spec.principal_only and model.resonance_order != (1, 1):
        _fail(f"{command} is defined at the principal resonance (1, 1) only")
    return model


def _parse_knobs(cfg: dict, schema: dict) -> dict:
    knobs = {}
    for key, ((ok, what), default) in schema.items():
        if key in cfg and not ok(cfg[key]):
            _fail(f"{key} must be {what}")
        knobs[key] = cfg.get(key, default)
    return knobs


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
    if command not in _COMMANDS:
        _fail(f"command must be one of {sorted(_COMMANDS)}")
    allowed = _COMMON_KEYS | set(_COMMANDS[command].knobs)
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        _fail(f"unknown config keys for {command}: {unknown}")
    prefix = cfg.get("output_prefix")
    if not isinstance(prefix, str) or not prefix:
        _fail("output_prefix must be a non-empty string")
    return command


# ── output helpers ─────────────────────────────────────────────────────────

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _open_output(path: str, newline: str | None = None):
    """Open an output file for writing, creating its directory on first use."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline=newline)


def _write_csv(path: str, header: str, rows):
    with _open_output(path, newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, payload: dict):
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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
    with _open_output(prefix + "_plot.py") as fh:
        fh.write(template.replace("@CSV@", csv_name))


def _spectrum_rows(spectrum):
    for num, den, hbar, theta, eps in spectrum.rows():
        yield (str(num), str(den), _fmt(hbar), _fmt(theta), _fmt(eps))


# ── commands ───────────────────────────────────────────────────────────────

def run_butterfly(model: ModelSpec, knobs: dict, prefix: str) -> int:
    spectrum = butterfly_scan(model.kind, model.k1, model.k2, knobs["s_max"],
                              knobs["theta_count"], window_cycles=knobs["window_cycles"],
                              resonance=model.resonance, workers=knobs["workers"])
    csv_name = os.path.basename(prefix) + "_spectrum.csv"
    _write_csv(prefix + "_spectrum.csv", SPECTRUM_HEADER, _spectrum_rows(spectrum))
    _write_plot(prefix, _SPECTRUM_PLOT, csv_name)
    return 0


def run_evolve(model: ModelSpec, knobs: dict, prefix: str) -> int:
    n_steps, record_every = knobs["n_steps"], knobs["record_every"]
    window = knobs["fit_window"] or (
        [100, n_steps] if n_steps > 100 else [n_steps / 2, n_steps])
    recorded = (math.floor(min(window[1], n_steps) / record_every)
                - math.ceil(window[0] / record_every) + 1)
    if recorded < 10:
        _fail(f"fit_window {window} holds {max(recorded, 0)} recorded steps; "
              "the power-law fit needs >= 10")
    psi0 = Wavepacket.delta(l0=0, n_sites=256, hbar_eff=model.hbar_eff)
    series = evolve(model, psi0, n_steps, record_every)
    rows = ((str(int(t)), _fmt(v), _fmt(m))
            for t, v, m in zip(series.steps, series.variance, series.leak))
    _write_csv(prefix + "_diffusion.csv", DIFFUSION_HEADER, rows)
    if series.variance.any():
        fit = fit_power_law(series, (window[0], window[1]))
        alpha, label = fit.alpha, classify_transport(fit, series)
    else:
        # a run with no positive variance (e.g. zero kicks) never left its
        # initial site, so the bounded label applies
        alpha, label = None, LOCALIZED
    _write_json(prefix + "_summary.json", {
        "alpha": alpha,
        "classification": label,
        "window": [float(window[0]), float(window[1])],
        "final_norm": series.final_norm,
    })
    _write_plot(prefix, _DIFFUSION_PLOT, os.path.basename(prefix) + "_diffusion.csv")
    return 0


def run_classical(model: ModelSpec, knobs: dict, prefix: str) -> int:
    k1, k2 = model.k1, model.k2
    map_kind = "khm" if model.kind == KHM else "dkrm"
    n_points, n_steps, seed = knobs["n_points"], knobs["n_steps"], knobs["seed"]
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


def run_fractal(model: ModelSpec, knobs: dict, prefix: str) -> int:
    n_points = lattice_period(model) * knobs["theta_count"]
    if n_points < MIN_BOX_POINTS:
        _fail(f"the spectrum holds {n_points} points (lattice period x theta_count); "
              f"box counting needs >= {MIN_BOX_POINTS}")
    spectrum = model_spectrum(model, knobs["theta_count"])
    energies = np.sort(np.concatenate([sl.energies for sl in spectrum.slices]))
    box = box_counting_dimension(energies, knobs["scales"])
    _write_csv(prefix + "_spectrum.csv", SPECTRUM_HEADER, _spectrum_rows(spectrum))
    _write_json(prefix + "_fractal.json", {
        "d0": box.d0,
        "rms_residual": box.rms_residual,
        "scales": list(box.scales),
        "counts": list(box.counts),
        "n_points": int(energies.size),
    })
    return 0


def run_check_symmetries(model: ModelSpec, knobs: dict, prefix: str) -> int:
    interior = [r for r in farey_sequence(knobs["s_max"]) if r.num < r.den]
    n_rationals = knobs["n_rationals"]
    if n_rationals < len(interior):
        idx = np.unique(np.round(
            np.linspace(0, len(interior) - 1, n_rationals)).astype(int))
        interior = [interior[i] for i in idx]
    reports = check_symmetry_claims(model.kind, model.k1, model.k2, interior,
                                    knobs["theta_count"], float(knobs["tolerance"]),
                                    model.resonance)
    payload = {
        "claims": [{"name": r.name, "hbar": f"2pi*{r.hbar_label}",
                    "distance": r.distance, "tolerance": r.tolerance,
                    "passed": r.passed} for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _write_json(prefix + "_symmetries.json", payload)
    return 0 if payload["all_passed"] else 1


_COMMANDS = {
    "butterfly": _Command(NO_HBAR, False, {
        "s_max": (_COUNT, 30), "theta_count": (_COUNT, 32),
        "window_cycles": (_COUNT, None)}, run_butterfly),
    "evolve": _Command(ANY_HBAR, False, {
        "n_steps": (_COUNT, 1000), "record_every": (_COUNT, 1),
        "fit_window": (_FIT_WINDOW, None)}, run_evolve),
    "classical": _Command(NO_HBAR, True, {
        "n_points": (_COUNT, 100000), "n_steps": (_COUNT, 200),
        "seed": (_SEED, 1234)}, run_classical),
    "fractal": _Command(EXACT_HBAR, False, {
        "theta_count": (_COUNT, 64), "scales": (_SCALES, DEFAULT_BOX_SCALES)},
        run_fractal),
    "check-symmetries": _Command(NO_HBAR, True, {
        "s_max": (_COUNT, 20), "theta_count": (_COUNT, 16),
        "tolerance": (_TOLERANCE, 1e-8), "n_rationals": (_COUNT, 10)},
        run_check_symmetries),
}


# ── entry point ────────────────────────────────────────────────────────────

def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="kickedharper",
        description="Quasienergy butterflies and kicked-rotor transport runs "
                    "driven by a JSON configuration.")
    ap.add_argument("config", help="path to the JSON run configuration")
    ap.add_argument("--command", choices=sorted(_COMMANDS))
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
        if os.environ.get(WORKERS_ENV):
            try:
                cfg["workers"] = int(os.environ[WORKERS_ENV])
            except ValueError:
                _fail(f"{WORKERS_ENV} must be an integer")
        for key in ("command", "output_prefix", "workers", "s_max", "theta_count",
                    "n_steps", "record_every"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)
        command = _validate_top_level(cfg)
        spec = _COMMANDS[command]
        model = _parse_model(cfg.get("model"), command, spec)
        knobs = _parse_knobs(cfg, {"workers": (_COUNT, 1), **spec.knobs})
        return spec.run(model, knobs, cfg["output_prefix"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
