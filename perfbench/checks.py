"""Output checks for every benchmark run.

Each check returns a list of failure messages; an empty list means the run's
outputs are correct.  A missing output file is a failure.  References live in
refs/<name>.npz and were produced by make_refs.py from the seed commit.

Tolerances admit a correct solver that is not bit-identical to the seed
commit (a Cayley-transform eigen-solve differs from dense eigvals by about
1e-14; an exact Bloch kick block differs from the truncated sum by about
1e-13) while still catching any real change of the physics.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
EPS_TOL = 1e-9            # quasienergy, radians, circular absolute difference
VARIANCE_RTOL = 1e-8      # momentum variance, relative difference
VARIANCE_ATOL = 1e-12     # floor for the (exactly zero) step-0 variance
ALPHA_TOL = 1e-6          # fitted transport exponent, absolute
D0_TOL = 1e-9             # box-counting slope and its residual, absolute
NORM_TOL = 1e-8           # final wavepacket norm
CLASSICAL_RES_TOL = 1e-12  # map-equivalence and half-step residuals
ORBIT_TOL = 1e-9          # one-step consistency of the classical trajectory

SPECTRUM_HEADER = "hbar_num,hbar_den,hbar,theta,quasienergy"
DIFFUSION_HEADER = "step,variance,edge_mass"
TRAJECTORY_HEADER = "step,q,p"


class CheckFailure(Exception):
    """Raised inside a check; its message is the failure description."""


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


def read_csv(path: str, header: str) -> np.ndarray:
    _require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{os.path.basename(path)}: header {first!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_json(path: str) -> dict:
    _require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        return json.load(fh)


def _circular(d: np.ndarray) -> np.ndarray:
    d = np.mod(d, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def _block_matches(eps: np.ndarray, ref: np.ndarray) -> float:
    """Worst circular gap between two eigenphase multisets of one block.

    Both sets are cut at the middle of the reference's widest gap, so a value
    that crossed the +-pi seam (and moved to the other end of the sorted
    list) is still paired with its partner.
    """
    r = np.sort(np.mod(ref, TWO_PI))
    gaps = np.diff(np.append(r, r[0] + TWO_PI))
    k = int(np.argmax(gaps))
    cut = r[k] + gaps[k] / 2
    a = np.sort(np.mod(eps - cut, TWO_PI))
    b = np.sort(np.mod(ref - cut, TWO_PI))
    return float(np.max(_circular(a - b)))


def compare_spectrum(path: str, ref) -> None:
    """Spectrum CSV against the reference, quasienergies per (hbar, theta)."""
    data = read_csv(path, SPECTRUM_HEADER)
    n = ref["eps"].size
    _require(data.shape == (n, 5), f"spectrum has {data.shape[0]} rows, expected {n}")
    _require(np.array_equal(data[:, 0], ref["num"]) and np.array_equal(data[:, 1], ref["den"]),
             "spectrum rational labels differ from the reference")
    _require(np.allclose(data[:, 2], ref["hbar"], rtol=0, atol=1e-12)
             and np.allclose(data[:, 3], ref["theta"], rtol=0, atol=1e-12),
             "spectrum hbar/theta columns differ from the reference")
    eps = data[:, 4]
    bad = _circular(eps - ref["eps"]) > EPS_TOL
    if not bad.any():
        return
    # sorted order can legitimately change at the +-pi seam: compare the
    # offending blocks as multisets
    keys = data[:, [0, 1, 3]]
    starts = np.flatnonzero(np.any(np.diff(keys, axis=0) != 0, axis=1)) + 1
    bounds = np.concatenate([[0], starts, [n]])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if bad[lo:hi].any():
            worst = _block_matches(eps[lo:hi], ref["eps"][lo:hi])
            _require(worst <= EPS_TOL,
                     f"quasienergies at hbar=2pi*{int(keys[lo, 0])}/{int(keys[lo, 1])} "
                     f"theta={keys[lo, 2]:.6f} off by {worst:.3e} > {EPS_TOL:g}")


def check_butterfly(prefix: str, ref) -> None:
    compare_spectrum(prefix + "_spectrum.csv", ref)
    _require(os.path.isfile(prefix + "_plot.py"), "missing output _plot.py")


def check_fractal(prefix: str, ref) -> None:
    compare_spectrum(prefix + "_spectrum.csv", ref)
    out = _read_json(prefix + "_fractal.json")
    _require(abs(out["d0"] - float(ref["d0"])) <= D0_TOL,
             f"d0 {out['d0']!r} differs from reference {float(ref['d0'])!r}")
    _require(abs(out["rms_residual"] - float(ref["rms_residual"])) <= D0_TOL,
             "box-counting residual differs from the reference")
    _require(list(out["scales"]) == ref["scales"].tolist(), "box scales differ")
    _require(list(out["counts"]) == ref["counts"].tolist(),
             f"box counts {out['counts']} differ from {ref['counts'].tolist()}")
    _require(out["n_points"] == int(ref["n_points"]), "n_points differs")


def check_evolve(prefix: str, ref) -> None:
    data = read_csv(prefix + "_diffusion.csv", DIFFUSION_HEADER)
    n = ref["steps"].size
    _require(data.shape == (n, 3), f"diffusion has {data.shape[0]} rows, expected {n}")
    _require(np.array_equal(data[:, 0], ref["steps"]), "recorded steps differ")
    err = np.abs(data[:, 1] - ref["variance"])
    worst = int(np.argmax(err - VARIANCE_RTOL * np.abs(ref["variance"])))
    _require(np.all(err <= VARIANCE_RTOL * np.abs(ref["variance"]) + VARIANCE_ATOL),
             f"variance at step {int(ref['steps'][worst])} is {float(data[worst, 1])!r}, "
             f"reference {float(ref['variance'][worst])!r}")
    leak = data[:, 2]
    _require(np.all(np.isfinite(leak) & (leak >= 0) & (leak <= 1)),
             "edge mass outside [0, 1]")
    out = _read_json(prefix + "_summary.json")
    _require(out["alpha"] is not None and abs(out["alpha"] - float(ref["alpha"])) <= ALPHA_TOL,
             f"alpha {out['alpha']!r} differs from reference {float(ref['alpha'])!r}")
    _require(out["classification"] == str(ref["classification"]),
             f"transport label {out['classification']!r}, expected {str(ref['classification'])!r}")
    _require(abs(out["final_norm"] - 1.0) <= NORM_TOL, f"final norm {out['final_norm']!r}")
    _require(os.path.isfile(prefix + "_plot.py"), "missing output _plot.py")


def check_symmetries(prefix: str, ref) -> None:
    out = _read_json(prefix + "_symmetries.json")
    _require(out.get("all_passed") is True, "all_passed is not true")
    claims = [(c["name"], c["hbar"]) for c in out["claims"]]
    expected = list(zip(ref["names"].tolist(), ref["hbars"].tolist()))
    _require(claims == expected, "symmetry claims differ from the reference list")
    _require(all(c["passed"] and c["distance"] < c["tolerance"] for c in out["claims"]),
             "a symmetry claim failed")


def check_classical(prefix: str, config: dict) -> None:
    out = _read_json(prefix + "_classical.json")
    for key in ("map_equivalence_max_residual", "half_step_max_deviation"):
        _require(0 <= out[key] < CLASSICAL_RES_TOL, f"{key} = {out[key]!r}")
    _require(out["n_points"] == config["n_points"] and out["seed"] == config["seed"]
             and out["trajectory_steps"] == config["n_steps"] and out["map"] == "dkrm",
             "classical summary does not echo the configuration")
    traj = read_csv(prefix + "_trajectory.csv", TRAJECTORY_HEADER)
    n = config["n_steps"]
    _require(traj.shape == (n + 1, 3) and np.array_equal(traj[:, 0], np.arange(n + 1)),
             "trajectory rows do not run 0..n_steps")
    q, p = traj[:, 1], traj[:, 2]
    _require(np.all((q >= 0) & (q < TWO_PI)), "trajectory q not reduced to [0, 2pi)")
    # every row must be one step of the composed double-kick map of the row before
    k1, k2 = config["model"]["k1"], config["model"]["k2"]
    kick = k1 * np.sin(q[:-1])
    inner = np.sin(q[:-1] + p[:-1] + kick)
    p_err = np.abs(p[1:] - (p[:-1] + k2 * inner + kick))
    q_err = _circular(q[1:] - (q[:-1] - k2 * inner))
    worst = float(max(p_err.max(), q_err.max()))
    _require(worst <= ORBIT_TOL, f"trajectory breaks the map by {worst:.3e}")


def check_run(run, prefix: str, refs_dir: str) -> list[str]:
    """Check the outputs of one CliRun written under `prefix`."""
    try:
        if run.config["command"] == "classical":
            check_classical(prefix, run.config)
            return []
        ref_path = os.path.join(refs_dir, run.reference + ".npz")
        with np.load(ref_path) as ref:
            {"butterfly": check_butterfly, "fractal": check_fractal,
             "evolve": check_evolve, "check-symmetries": check_symmetries,
             }[run.config["command"]](prefix, ref)
    except CheckFailure as exc:
        return [f"{run.name}: {exc}"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{run.name}: unreadable output or reference ({exc})"]
    return []
