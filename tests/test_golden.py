"""Golden outputs of the five CLI commands at small fixed configs.

The files under tests/golden/ are the outputs of these configs.  Regenerate
them only for an intended output change, and only for the configs it
changes, by naming them:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

evolve and classical must match byte for byte.  Spectra are eigen-solver
output, so quasienergies, d0 and symmetry distances match within 1e-12; all
other fields must match exactly.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from kickedharper.cli import main

GOLDEN = Path(__file__).with_name("golden")
TOL = 1e-12

CONFIGS = {
    "butterfly": {
        "command": "butterfly",
        "model": {"kind": "dkrm-general", "k1": 0.9, "k2": 0.4,
                  "resonance": [1, 2]},
        "s_max": 3,
        "theta_count": 3,
    },
    "evolve": {
        "command": "evolve",
        "model": {"kind": "dkrm-resonant", "k1": 1.8, "k2": 1.8,
                  "hbar": "2pi*3/19"},
        "n_steps": 300,
        "record_every": 10,
        "fit_window": [30, 300],
    },
    # grows its lattice from 256 to 4096 sites, so the growth path is pinned
    "evolve_growing": {
        "command": "evolve",
        "model": {"kind": "dkrm-resonant", "k1": 4.0, "k2": 0.4, "hbar": 1.0},
        "n_steps": 400,
        "record_every": 5,
    },
    "classical": {
        "command": "classical",
        "model": {"kind": "khm", "k1": 1.3, "k2": 0.7},
        "n_points": 2000,
        "n_steps": 50,
        "seed": 7,
    },
    "fractal": {
        "command": "fractal",
        "model": {"kind": "khm", "k1": 1.0, "k2": 1.0, "hbar": "2pi*5/13"},
        "theta_count": 8,
        "scales": [4, 8, 16, 32],
    },
    "symmetries": {
        "command": "check-symmetries",
        "model": {"kind": "dkrm-resonant", "k1": 0.9, "k2": 0.4},
        "s_max": 4,
        "theta_count": 4,
        "n_rationals": 3,
    },
}

OUTPUTS = {
    "butterfly": ("_spectrum.csv", "_plot.py"),
    "evolve": ("_diffusion.csv", "_summary.json", "_plot.py"),
    "evolve_growing": ("_diffusion.csv", "_summary.json", "_plot.py"),
    "classical": ("_trajectory.csv", "_classical.json"),
    "fractal": ("_spectrum.csv", "_fractal.json"),
    "symmetries": ("_symmetries.json",),
}


def run(name: str, out_dir: Path) -> int:
    prefix = out_dir / name
    cfg = dict(CONFIGS[name], output_prefix=str(prefix))
    cfg_path = out_dir / f"{name}.config.json"
    cfg_path.write_text(json.dumps(cfg))
    try:
        return main([str(cfg_path)])
    finally:
        cfg_path.unlink()


def circular_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def assert_spectrum_csv_matches(got: Path, want: Path):
    with open(got, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(want, newline="") as fh:
        ref = list(csv.reader(fh))
    assert len(rows) == len(ref)
    assert rows[0] == ref[0]
    for row, ref_row in zip(rows[1:], ref[1:]):
        assert row[:4] == ref_row[:4]
        assert circular_gap(float(row[4]), float(ref_row[4])) <= TOL


def assert_json_matches(got: Path, want: Path, approx_keys: set):
    """Equal JSON trees, except numbers under approx_keys match within TOL."""
    def compare(a, b, key=None):
        if key in approx_keys:
            assert abs(a - b) <= TOL, (key, a, b)
        elif isinstance(b, dict):
            assert sorted(a) == sorted(b)
            for k in b:
                compare(a[k], b[k], k)
        elif isinstance(b, list):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                compare(x, y)
        else:
            assert a == b, (key, a, b)
    compare(json.loads(got.read_text()), json.loads(want.read_text()))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_outputs_match_the_golden_files(name, tmp_path):
    assert run(name, tmp_path) == 0
    for suffix in OUTPUTS[name]:
        got, want = tmp_path / (name + suffix), GOLDEN / (name + suffix)
        if suffix == "_spectrum.csv":
            assert_spectrum_csv_matches(got, want)
        elif name == "fractal" and suffix == "_fractal.json":
            assert_json_matches(got, want, {"d0", "rms_residual"})
        elif name == "symmetries":
            assert_json_matches(got, want, {"distance"})
        else:
            assert got.read_bytes() == want.read_bytes(), suffix
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name + suffix for suffix in OUTPUTS[name])


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names or not set(names) <= CONFIGS.keys():
        sys.exit(f"usage: test_golden.py NAME [NAME ...], NAME in {sorted(CONFIGS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        if run(name, GOLDEN) != 0:
            sys.exit(f"{name} failed")
