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
import gc
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (DEFAULT_BOX_SCALES, LOCALIZED, MAX_BOX_SCALE, MIN_BOX_POINTS,
                       box_counting_dimension, classify_transport, fit_power_law)
from .classical import PhasePoint, conjugacy_defects, orbit
from .errors import ConfigError, NumericalError, ResourceLimitError
from .lattice import (KHM, TWO_PI, ModelSpec, Wavepacket,
                      farey_sequence, parse_effective_planck)
from .quantum import evolve
from .spectrum import (butterfly_scan, check_symmetry_claims, lattice_period,
                       model_spectrum)

REQUIRED = object()   # the default of a key that a config must give


# ── config parsing ─────────────────────────────────────────────────────────

def _fail(msg: str):
    raise ConfigError(msg)


def _is_int(v, lo: int = 1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# value checks: (predicate, what a valid value is)
_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_COUNT = (_is_int, "an integer >= 1")
_INTERIOR_S_MAX = (lambda v: _is_int(v, 2), "an integer >= 2 (1 leaves no rational in (0, 1))")
_SEED = (lambda v: _is_int(v, 0), "an integer >= 0")
_FIT_WINDOW = (lambda v: isinstance(v, list) and len(v) == 2
               and all(map(_is_real, v)) and 0 < v[0] < v[1],
               "[t_lo, t_hi] with 0 < t_lo < t_hi")
_SCALES = (lambda v: isinstance(v, list) and len(v) >= 4
           and all(_is_int(s) and s <= MAX_BOX_SCALE for s in v) and len(set(v)) == len(v),
           "a list of >= 4 distinct integer box counts in [1, 2**53]")
_TOLERANCE = (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)")
_REAL = (_is_real, "a number")
_RESONANCE = (lambda v: v is None or isinstance(v, list) and len(v) == 2
              and all(map(_is_int, v)), "a pair of positive integers")
_PRINCIPAL = (lambda v: v is None or v == [1, 1] and all(map(_is_int, v)),
              "[1, 1], as the command is defined at the principal resonance only")
_HBAR = (lambda v: isinstance(v, str) or _is_real(v), "a number or '2pi*num/den'")
_RATIONAL_HBAR = (lambda v: isinstance(v, str), "in the exact '2pi*num/den' form")

# schemas {key: (check, default)}.  A scan command's model has no hbar: the
# command picks hbar itself and reads k1, k2 as the ratios k/hbar, so its
# ModelSpec holds them at this placeholder hbar, which its runner never reads.
_PLACEHOLDER_HBAR = "2pi*1"
_RUN = {"command": (_TEXT, REQUIRED), "output_prefix": (_TEXT, REQUIRED),
        "workers": (_COUNT, 1), "model": (_OBJECT, REQUIRED)}
_MODEL = {"kind": (_TEXT, REQUIRED), "k1": (_REAL, REQUIRED),
          "k2": (_REAL, REQUIRED), "resonance": (_RESONANCE, None)}
_PRINCIPAL_MODEL = {**_MODEL, "resonance": (_PRINCIPAL, None)}


def _checked(obj: dict, schema: dict, command: str, prefix: str = "") -> dict:
    """obj checked against schema, defaults filled in; prefix is its path in messages."""
    unknown = sorted(prefix + key for key in set(obj) - set(schema))
    if unknown:
        _fail(f"unknown keys for {command}: {unknown}")
    values = {}
    for key, ((ok, what), default) in schema.items():
        if key not in obj and default is REQUIRED:
            _fail(f"{prefix}{key} is required for {command}, as {what}")
        if key in obj and not ok(obj[key]):
            _fail(f"{prefix}{key} must be {what}")
        values[key] = obj.get(key, default)
    return values


class _Command(NamedTuple):
    """What a command accepts and which function runs it."""

    model: dict               # {model field: (check, default)}
    knobs: dict               # {knob: (check, default)}
    run: Callable             # run(model, knobs, prefix) -> exit code


def _parse_run(cfg: dict):
    """A config's runner, model and knobs (top-level keys included), checked."""
    command = cfg.get("command")   # checked first: it picks the knobs
    if not (isinstance(command, str) and command in _COMMANDS):
        _fail(f"command must be one of {sorted(_COMMANDS)}")
    spec = _COMMANDS[command]
    knobs = _checked(cfg, {**_RUN, **spec.knobs}, command)
    fields = _checked(knobs["model"], spec.model, command, "model.")
    try:
        model = ModelSpec(fields["kind"], float(fields["k1"]), float(fields["k2"]),
                          parse_effective_planck(fields.get("hbar", _PLACEHOLDER_HBAR)),
                          fields["resonance"])
    except (ValueError, OverflowError) as exc:   # OverflowError: ints past float range
        _fail(str(exc))
    return spec.run, model, knobs


def load_config(path: str) -> dict:
    """Read and minimally shape-check a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except ValueError as exc:   # undecodable bytes or malformed JSON
        _fail(f"config is not valid UTF-8 JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail("config must be a JSON object")
    return cfg


# ── output helpers ─────────────────────────────────────────────────────────

def _open_output(path: str, newline: str | None = None):
    """Open an output file for writing, creating its directory on first use."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline=newline)


def _write_csv(path: str, header: str, lines):
    with _open_output(path, newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _spectrum_lines(spectrum):
    """A spectrum's CSV text, one (rational, theta) row of quasienergies per % call; the
    prefix (digits, signs, '.', 'e' and ',' only, so no '%') is formatted once per row."""
    for hb, eps in zip(spectrum.hbars, spectrum.energies):
        rp = hb.rational_part
        for theta, row in zip(spectrum.thetas, eps):
            prefix = SPECTRUM_PREFIX % (rp.num, rp.den, hb.value, theta)
            yield ((prefix + "%.17g\n") * row.size) % tuple(row.tolist())


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

# each CSV's header and row format, floats at 17 significant digits
SPECTRUM_HEADER = "hbar_num,hbar_den,hbar,theta,quasienergy"
SPECTRUM_PREFIX = "%d,%d,%.17g,%.17g,"  # then one quasienergy per row
DIFFUSION_HEADER = "step,variance,edge_mass"
DIFFUSION_ROW = "%d,%.17g,%.17g\n"
# points per chunk of the classical sweep (32 KB per array), so its memory does not
# grow with n_points; every map is pointwise and max is exact, so outputs do not move
SWEEP_CHUNK = 1 << 12


def _write_plot(prefix: str, template: str, csv_path: str):
    with _open_output(prefix + "_plot.py") as fh:
        fh.write(template.replace("@CSV@", os.path.basename(csv_path)))


# ── commands ───────────────────────────────────────────────────────────────

def run_butterfly(model: ModelSpec, knobs: dict, prefix: str) -> int:
    spectrum = butterfly_scan(model.kind, model.k1, model.k2, knobs["s_max"],
                              knobs["theta_count"], window_cycles=knobs["window_cycles"],
                              resonance=model.resonance, workers=knobs["workers"])
    _write_csv(prefix + "_spectrum.csv", SPECTRUM_HEADER, _spectrum_lines(spectrum))
    _write_plot(prefix, _SPECTRUM_PLOT, prefix + "_spectrum.csv")
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
    _write_csv(prefix + "_diffusion.csv", DIFFUSION_HEADER, (
        DIFFUSION_ROW % r for r in zip(series.steps, series.variance, series.leak)))
    if series.variance.any():
        fit = fit_power_law(series, (window[0], window[1]))
        alpha, label = fit.alpha, classify_transport(fit, series)
    else:
        # no positive variance (e.g. zero kicks): the run never left its site, so bounded
        alpha, label = None, LOCALIZED
    _write_json(prefix + "_summary.json", {
        "alpha": alpha,
        "classification": label,
        "window": [float(window[0]), float(window[1])],
        "final_norm": series.final_norm,
    })
    _write_plot(prefix, _DIFFUSION_PLOT, prefix + "_diffusion.csv")
    return 0


def run_classical(model: ModelSpec, knobs: dict, prefix: str) -> int:
    k1, k2 = model.k1, model.k2
    map_kind = "khm" if model.kind == KHM else "dkrm"
    n_points, n_steps, seed = knobs["n_points"], knobs["n_steps"], knobs["seed"]
    # the stream holds every q, then every p, then the start: q chunks come from rng,
    # p chunks and then the start from a second generator advanced past the q draws
    rng, p_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p_rng.bit_generator.advance(n_points)
    worst = np.full(3, -np.inf)   # running maxima: residual, |dq| and |dp| of the half steps
    for lo in range(0, n_points, SWEEP_CHUNK):
        size = min(SWEEP_CHUNK, n_points - lo)
        pts = PhasePoint(rng.uniform(0.0, TWO_PI, size), p_rng.uniform(0.0, TWO_PI, size))
        np.maximum(worst, [np.max(d) for d in conjugacy_defects(pts, k1, k2)], out=worst)
    eq_res, half_dev = float(worst[0]), float(max(worst[1], worst[2]))
    q0, p0 = p_rng.uniform(0.0, TWO_PI), p_rng.uniform(0.0, TWO_PI)   # Python floats
    _write_csv(prefix + "_trajectory.csv", "step,q,p", (
        "%d,%.17g,%.17g\n" % (i, q, p)
        for i, (q, p) in enumerate(orbit(map_kind, q0, p0, n_steps, k1, k2))))
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
    energies = np.sort(spectrum.energies[0], axis=None)
    box = box_counting_dimension(energies, knobs["scales"])
    _write_csv(prefix + "_spectrum.csv", SPECTRUM_HEADER, _spectrum_lines(spectrum))
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
        idx = sorted(set(np.round(
            np.linspace(0, len(interior) - 1, n_rationals)).astype(int).tolist()))
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
    "butterfly": _Command(_MODEL, {
        "s_max": (_COUNT, 30), "theta_count": (_COUNT, 32),
        "window_cycles": (_COUNT, None)}, run_butterfly),
    "evolve": _Command({**_MODEL, "hbar": (_HBAR, REQUIRED)}, {
        "n_steps": (_COUNT, 1000), "record_every": (_COUNT, 1),
        "fit_window": (_FIT_WINDOW, None)}, run_evolve),
    "classical": _Command(_PRINCIPAL_MODEL, {
        "n_points": (_COUNT, 100000), "n_steps": (_COUNT, 200),
        "seed": (_SEED, 1234)}, run_classical),
    "fractal": _Command({**_MODEL, "hbar": (_RATIONAL_HBAR, REQUIRED)}, {
        "theta_count": (_COUNT, 64), "scales": (_SCALES, DEFAULT_BOX_SCALES)},
        run_fractal),
    "check-symmetries": _Command(_MODEL, {
        "s_max": (_INTERIOR_S_MAX, 20), "theta_count": (_COUNT, 16),
        "tolerance": (_TOLERANCE, 1e-8), "n_rationals": (_COUNT, 10)},
        run_check_symmetries),
}

# flags that override the config key of the same name (--s-max sets s_max)
_FLAGS = {"command": {"choices": sorted(_COMMANDS)}, "output_prefix": {},
          "workers": {"type": int}, "s_max": {"type": int},
          "theta_count": {"type": int}, "n_steps": {"type": int},
          "record_every": {"type": int}}


# ── entry point ────────────────────────────────────────────────────────────

def _parse_args(argv) -> tuple[str, dict]:
    ap = argparse.ArgumentParser(
        prog="kickedharper",
        description="Quasienergy butterflies and kicked-rotor transport runs "
                    "driven by a JSON configuration.")
    ap.add_argument("config", help="path to the JSON run configuration")
    for key, options in _FLAGS.items():
        ap.add_argument("--" + key.replace("_", "-"), **options)
    args = vars(ap.parse_args(argv))
    return args.pop("config"), {k: v for k, v in args.items() if v is not None}


# the stderr label and exit code of each error that ends a run (module docstring)
_EXITS = {ConfigError: ("config error", 2), ResourceLimitError: ("resource limit", 3),
          NumericalError: ("numerical failure", 4), OSError: ("io error", 1)}


def main(argv=None) -> int:
    # once per process: import-time objects live as long as it, so no GC pass walks them
    if not gc.get_freeze_count():
        gc.freeze()
    path, overrides = _parse_args(argv)
    try:
        cfg = load_config(path)
        cfg.update(overrides)
        run, model, knobs = _parse_run(cfg)
        return run(model, knobs, knobs["output_prefix"])
    except tuple(_EXITS) as exc:
        label, code = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
