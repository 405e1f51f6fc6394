"""Bloch reduction of lattice-periodic Floquet operators and butterfly scans.

With hbar_eff = 2*pi*num/den the momentum-diagonal factors repeat after a
finite number of sites, so the Floquet operator block-diagonalizes over a
Bloch angle theta into finite unitaries.  Each block is the lattice step of
the transport runs, applied on one lattice period with the kick grid twisted
by theta.  Their eigenphases, swept over a Farey set of rationals, form the
quasi-energy butterflies.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .analysis import spectrum_set_distance
from .errors import ConfigError, NumericalError
from .lattice import (KHM, TWO_PI, EffPlanck, ModelSpec, Rational,
                      farey_sequence)
from .quantum import KickFactor, _apply_period, floquet_factors

UNITARITY_TOL = 1e-8
EIGENMOD_TOL = 1e-6
CAYLEY_POLE = 1.0       # first pole phase; not a rational multiple of pi
CAYLEY_CLEARANCE = 0.1  # re-solve when an eigenphase lies nearer the pole
MOMENT_TOL = 1e-10      # per site, on the tr U and tr U^2 checks
DEFECT_PANEL_ROWS = 64  # rows of U^dagger U formed at a time, to bound memory


# ── lattice periodicity ────────────────────────────────────────────────────

def lattice_period(model: ModelSpec) -> int:
    """Smallest multiple of mu over which every momentum-diagonal factor's tag repeats.

    mu is the resonance denominator; den divides the first drift's or Harper period."""
    if model.hbar_eff.rational_part is None:
        raise ConfigError("spectral reduction needs hbar_eff tagged as 2*pi*num/den")
    return math.lcm(model.resonance_order[1], *(
        f.period for f in floquet_factors(model) if not isinstance(f, KickFactor)))


def theta_grid(count: int) -> np.ndarray:
    """count Bloch angles 2*pi*j/count, j = 0..count-1 (closed under negation)."""
    if count < 1:
        raise ValueError("theta count must be >= 1")
    return TWO_PI * np.arange(count) / count


# ── Bloch blocks ───────────────────────────────────────────────────────────

@dataclass(frozen=True)
class BlochMatrix:
    """One period x period unitary block of the Floquet operator at angle theta."""

    period: int
    theta: float
    matrix: np.ndarray = field(repr=False)


def build_bloch_matrix(model: ModelSpec, theta: float, coeffs=None) -> BlochMatrix:
    """The Floquet operator on sites 0..P-1 of states with a_{l+P} = e^{-i theta} a_l.

    It is the lattice step on P sites with kick grid q_k = (2*pi*k + theta)/P,
    conjugated by the gauge diag(e^{i theta l/P}).  coeffs is ignored; it is
    kept for callers that still pass precomputed kick coefficients.
    """
    period = lattice_period(model)
    u = _apply_period(model, np.eye(period, dtype=np.complex128), 0, float(theta)).T
    gauge = np.exp(1j * theta * np.arange(period) / period)
    u *= gauge.conj()[:, None]
    u *= gauge
    err = 0.0
    for start in range(0, period, DEFECT_PANEL_ROWS):
        defect = u[:, start:start + DEFECT_PANEL_ROWS].conj().T @ u
        defect.flat[start::period + 1] -= 1.0
        err = max(err, np.max(np.abs(defect)))
    if err > UNITARITY_TOL:
        raise NumericalError(f"Bloch block unitarity defect {err:.3e}")
    return BlochMatrix(period, float(theta), u)


def quasienergies(bloch: BlochMatrix) -> np.ndarray:
    """Sorted eigenphases of the block, as epsilon in (-pi, pi].

    The unitary block is solved as a Hermitian problem through a Cayley
    transform about a pole phase (see _cayley_phases).  When an eigenphase
    lies within CAYLEY_CLEARANCE of the first pole, the block is solved once
    more with the pole in the middle of the widest spectral gap.  A solve
    that fails, or whose eigenphases do not reproduce tr U and tr U^2, falls
    back to the dense non-symmetric eigen-solve.
    """
    u = np.asarray(bloch.matrix)
    try:
        eps, clearance = _cayley_phases(u, CAYLEY_POLE)
        if clearance < CAYLEY_CLEARANCE:
            eps, _ = _cayley_phases(u, _widest_gap_middle(eps))
    except (np.linalg.LinAlgError, FloatingPointError):
        return _eigvals_phases(u)
    if _moments_match(u, eps):
        return eps
    return _eigvals_phases(u)


def _cayley_phases(u: np.ndarray, pole: float) -> tuple:
    """(sorted eigenphases, distance of the nearest one to pole) of unitary u.

    V = e^{i(pole + pi)} U maps the eigenphase `pole` to -1, and
    H = i(V - I)(V + I)^{-1} = i(I - 2 (V + I)^{-1}) is Hermitian with
    eigenvalues w = -tan(phi/2) for each eigenvalue e^{i phi} of V, so
    epsilon = pole + pi + 2 arctan(w).  Rounding in H grows like the inverse
    of that distance, which is why the caller re-solves when it is small.
    """
    period = u.shape[0]
    h = u * np.exp(1j * (pole + np.pi))
    h.flat[::period + 1] += 1.0
    # np.linalg.inv's gufunc, writing over its input: np.linalg.inv would keep
    # a separate result alive beside U, V + I and LAPACK's copy, which sets
    # the peak memory of the large blocks; a singular V + I raises
    # FloatingPointError here
    with np.errstate(invalid="raise", over="ignore", divide="ignore"):
        _umath_linalg.inv(h, signature="D->D", out=h)
    h *= -2j
    h.flat[::period + 1] += 1j
    w = np.linalg.eigvalsh(h)
    clearance = np.pi - 2.0 * np.arctan(np.max(np.abs(w)))
    eps = np.mod(pole + TWO_PI + 2.0 * np.arctan(w), TWO_PI) - np.pi
    return _sorted_half_open(eps), clearance


def _widest_gap_middle(eps: np.ndarray) -> float:
    """Middle of the widest gap between cyclically adjacent sorted phases."""
    ring = np.append(eps, eps[0] + TWO_PI)
    k = int(np.argmax(np.diff(ring)))
    return 0.5 * (ring[k] + ring[k + 1])


def _moments_match(u: np.ndarray, eps: np.ndarray) -> bool:
    """Do sum e^{-i eps} and sum e^{-2i eps} reproduce tr U and tr U^2?"""
    lam = np.exp(-1j * eps)
    tol = MOMENT_TOL * u.shape[0]
    return bool(abs(lam.sum() - np.trace(u)) <= tol
                and abs((lam * lam).sum() - np.einsum("ij,ji->", u, u)) <= tol)


def _eigvals_phases(u: np.ndarray) -> np.ndarray:
    """Eigenphases from the dense non-symmetric eigen-solve."""
    lam = np.linalg.eigvals(u)
    drift = np.max(np.abs(np.abs(lam) - 1.0))
    if drift > EIGENMOD_TOL:
        raise NumericalError(f"eigenvalue modulus drift {drift:.3e}")
    return _sorted_half_open(-np.angle(lam))


def _sorted_half_open(eps: np.ndarray) -> np.ndarray:
    """Phases in [-pi, pi] moved into (-pi, pi] and sorted in place."""
    eps[eps <= -np.pi] += TWO_PI
    eps.sort()
    return eps


# ── spectra over theta and over rationals ──────────────────────────────────

@dataclass(frozen=True)
class SpectrumSlice:
    """Quasienergies of one Bloch block (fixed hbar_eff and theta)."""

    hbar: EffPlanck
    theta: float
    energies: np.ndarray = field(repr=False)


@dataclass
class SpectrumSet:
    """Slices of a scan, sorted by (hbar, theta); rows() yields CSV-ready tuples."""

    kind: str
    slices: list

    def rows(self):
        for sl in self.slices:
            rp = sl.hbar.rational_part
            for e in sl.energies:
                yield (rp.num, rp.den, sl.hbar.value, sl.theta, float(e))


def model_from_ratios(kind: str, ratio1: float, ratio2: float, num: int, den: int,
                      resonance: tuple[int, int] | None = None) -> ModelSpec:
    """Model at hbar_eff = 2*pi*num/den with kick strengths ratio * hbar_eff."""
    hb = EffPlanck.from_rational(num, den)
    return ModelSpec(kind, ratio1 * hb.value, ratio2 * hb.value, hb, resonance)


def _slices_for_model(args) -> list:
    model, theta_count = args
    return [SpectrumSlice(model.hbar_eff, float(th),
                          quasienergies(build_bloch_matrix(model, th)))
            for th in theta_grid(theta_count)]


def model_spectrum(model: ModelSpec, theta_count: int) -> SpectrumSet:
    """Spectrum of one model over the full Bloch-angle grid."""
    return SpectrumSet(model.kind, _slices_for_model((model, theta_count)))


def aggregated_energies(model: ModelSpec, theta_count: int) -> np.ndarray:
    """Sorted union of quasienergies over the Bloch-angle grid."""
    spec = model_spectrum(model, theta_count)
    return np.sort(np.concatenate([sl.energies for sl in spec.slices]))


def scan_rationals(kind: str, s_max: int, window_cycles: int | None = None) -> list:
    """Reduced fractions num/den with hbar_eff = 2*pi*num/den inside the scan window.

    The window is (0, 2*pi*window_cycles]; it defaults to one cycle for the
    kicked Harper model and two for the double-kicked models, matching the
    periods of their butterflies.
    """
    cycles = window_cycles if window_cycles is not None else (1 if kind == KHM else 2)
    if cycles < 1:
        raise ValueError("window_cycles must be >= 1")
    out = [Rational(r.num + shift * r.den, r.den)
           for r in farey_sequence(s_max)
           for shift in range(cycles)]
    out.sort(key=lambda r: r.as_fraction())
    return out


def butterfly_scan(kind: str, ratio1: float, ratio2: float, s_max: int,
                   theta_count: int = 32, *, window_cycles: int | None = None,
                   resonance: tuple[int, int] | None = None,
                   workers: int = 1) -> SpectrumSet:
    """Quasienergy spectra over all scan rationals at fixed k/hbar_eff ratios.

    ratio1 and ratio2 are the kick strengths in units of hbar_eff, held fixed
    across the scan so every rational shares the same kick profile.  Results
    are sorted by (hbar_eff, theta) and do not depend on the worker count.
    """
    for r in (ratio1, ratio2):
        if not (r >= 0 and math.isfinite(r)):
            raise ValueError("kick ratios must be finite and >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rationals = scan_rationals(kind, s_max, window_cycles)
    tasks = [(model_from_ratios(kind, ratio1, ratio2, r.num, r.den, resonance),
              theta_count) for r in rationals]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_slices_for_model, tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        groups = [_slices_for_model(t) for t in tasks]
    slices = [sl for group in groups for sl in group]
    slices.sort(key=lambda sl: (sl.hbar.value, sl.theta))
    return SpectrumSet(kind, slices)


# ── symmetry claims ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class SymmetryReport:
    """Distance between two theta-aggregated spectra that a symmetry ties together."""

    name: str
    hbar_label: str
    distance: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.distance < self.tolerance


def check_symmetry_claims(kind: str, ratio1: float, ratio2: float, rationals,
                          theta_count: int = 16, tol: float = 1e-8,
                          resonance: tuple[int, int] | None = None) -> list:
    """Verify the butterfly symmetries at the given rationals.

    Kicked Harper: spectrum periodic in hbar_eff with period 2*pi and mirror
    symmetric about pi.  Double-kicked models: period 4*pi, mirror symmetry
    about 2*pi, and invariance under swapping the two kick strengths.
    Claims whose partner falls outside hbar_eff > 0 are skipped.
    """
    def agg(r1, r2, num, den):
        model = model_from_ratios(kind, r1, r2, num, den, resonance)
        return aggregated_energies(model, theta_count)

    reports = []
    for r in rationals:
        num, den = r.num, r.den
        base = agg(ratio1, ratio2, num, den)
        if kind == KHM:
            claims = [("period 2*pi", num + den), ("mirror about pi", den - num)]
        else:
            claims = [("period 4*pi", num + 2 * den),
                      ("mirror about 2*pi", 2 * den - num)]
        for name, partner_num in claims:
            if partner_num < 1:
                continue
            other = agg(ratio1, ratio2, partner_num, den)
            dist = spectrum_set_distance(base, other)
            reports.append(SymmetryReport(name, str(r), dist, tol))
        if kind != KHM:
            other = agg(ratio2, ratio1, num, den)
            dist = spectrum_set_distance(base, other)
            reports.append(SymmetryReport("kick swap", str(r), dist, tol))
    return reports
