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
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .analysis import spectrum_set_distance
from .errors import ConfigError, NumericalError
from .lattice import KHM, TWO_PI, EffPlanck, ModelSpec, Rational, farey_sequence
from .quantum import KickFactor, _apply_period, floquet_factors

UNITARITY_TOL = 1e-8
EIGENMOD_TOL = 1e-6
CAYLEY_POLE = 1.0       # first pole phase; not a rational multiple of pi
CAYLEY_CLEARANCE = 0.1  # re-solve when an eigenphase lies nearer the pole
MOMENT_TOL = 1e-10      # per site, on the tr U and tr U^2 checks
STACK_ENTRIES = 2 ** 16  # complex entries per stack of blocks, to bound memory


# ── lattice periodicity ────────────────────────────────────────────────────

def lattice_period(model: ModelSpec) -> int:
    """Smallest multiple of mu (the resonance denominator) over which every diagonal
    factor's tag repeats; den divides the first drift's or Harper period."""
    return _period_and_fold(model, floquet_factors(model))[0]


def _period_and_fold(model: ModelSpec, factors: tuple) -> tuple:
    """(lattice_period, fold) of a model from its floquet_factors.  The fold is 2 if the
    Floquet operator commutes with translation by lattice_period/2, else 1: kicks commute
    with every translation, diagonal factors pick up their tags' jumps."""
    if model.hbar_eff.rational_part is None:
        raise ConfigError("spectral reduction needs hbar_eff tagged as 2*pi*num/den")
    diagonal = [f for f in factors if not isinstance(f, KickFactor)]
    period = math.lcm(model.resonance_order[1], *(f.period for f in diagonal))
    jumps = [f.jump(period // 2) for f in diagonal]
    return period, 1 if period % 2 or None in jumps or math.prod(jumps) != 1 else 2


def theta_grid(count: int) -> np.ndarray:
    """count Bloch angles 2*pi*j/count, j = 0..count-1 (closed under negation)."""
    if count < 1:
        raise ValueError("theta count must be >= 1")
    return TWO_PI * np.arange(count) / count


# ── Bloch blocks ───────────────────────────────────────────────────────────

def build_bloch_matrix(model: ModelSpec, theta: float, coeffs=None) -> np.ndarray:
    """(P, P) Floquet operator on sites 0..P-1 of states with a_{l+P} = e^{-i theta} a_l,
    P = lattice_period(model).  coeffs is ignored; some callers still pass it."""
    return _bloch_stack(floquet_factors(model), np.array([float(theta)]),
                        lattice_period(model))[0]


def _bloch_stack(factors: tuple, phis: np.ndarray, period: int) -> np.ndarray:
    """(B, P, P) blocks of the Floquet operator with these factors on P sites at angles phis.

    Kicks act on the grid q_k = (2*pi*k + phi)/P of the running angle phi.  A
    diagonal factor's jump s = +-1 over P (P must be lattice_period or, at fold
    2, its half) brings the ramp e^{-i arg(s) l/P} and moves phi by -arg(s).
    The gauge is diag(e^{-i phi_end l/P}) on the left, diag(e^{i phi l/P}) on the right."""
    sites = np.arange(period)
    angle = phis[:, None, None]
    steps = []
    for f in factors:
        if isinstance(f, KickFactor):
            kick = np.exp(-1j * f.strength * np.cos((TWO_PI * sites + angle) / period))
            steps.append((kick, []))
        else:
            arg = np.angle(f.jump(period))
            steps[-1][1].append(f.values(sites) * np.exp(-1j * arg * sites / period))
            angle = angle - arg
    u = _apply_period(steps, np.broadcast_to(  # rows: basis images
        np.eye(period, dtype=np.complex128), (phis.size, period, period)))
    u = u.swapaxes(1, 2) * np.exp(1j * angle * sites / period).conj().swapaxes(1, 2)
    u *= np.exp(1j * phis[:, None, None] * sites / period)
    err = np.max(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(period)), axis=(1, 2))
    if np.any(err > UNITARITY_TOL):
        raise NumericalError(f"Bloch block unitarity defect {np.max(err):.3e}")
    return u


def quasienergies(u: np.ndarray) -> np.ndarray:
    """Sorted eigenphases of a (P, P) unitary block, in (-pi, pi] (see _stack_phases)."""
    return _stack_phases(np.asarray(u)[None])[0]


def _stack_phases(u: np.ndarray) -> np.ndarray:
    """Sorted eigenphases in (-pi, pi] of each unitary block of a (B, P, P) stack.

    A block with an eigenphase within CAYLEY_CLEARANCE of the first pole is
    re-solved with the pole in the middle of its widest gap; one that fails the
    tr U and tr U^2 check falls back to dense eigvals."""
    eps, clearance = _cayley_phases(u, CAYLEY_POLE)
    redo = np.flatnonzero(clearance < CAYLEY_CLEARANCE)
    if redo.size:
        ring = np.concatenate([eps[redo], eps[redo, :1] + TWO_PI], axis=1)
        k, rows = np.argmax(np.diff(ring), axis=1), np.arange(redo.size)
        eps[redo], _ = _cayley_phases(u[redo], 0.5 * (ring[rows, k] + ring[rows, k + 1]))
    for b in np.flatnonzero(~_moments_match(u, eps)):
        eps[b] = _eigvals_phases(u[b])
    return eps


def _cayley_phases(u: np.ndarray, pole) -> tuple:
    """(sorted eigenphases, distance of the nearest one to pole) of each block of u.

    V = e^{i(pole + pi)} U maps the eigenphase `pole` to -1, and
    H = i(V - I)(V + I)^{-1} = i(I - 2 (V + I)^{-1}) is Hermitian with
    eigenvalues w = -tan(phi/2) for each eigenvalue e^{i phi} of V, so
    epsilon = pole + pi + 2 arctan(w).  Rounding in H grows like the inverse
    of that distance, which is why the caller re-solves when it is small.
    pole is a scalar or one per block.
    """
    pole = np.asarray(pole, dtype=np.float64)[..., None]
    diag = np.arange(u.shape[-1])
    h = u * np.exp(1j * (pole[..., None] + np.pi))
    h[..., diag, diag] += 1.0
    # np.linalg's inv and eigvalsh gufuncs, inv writing over its input to bound
    # peak memory; a singular V + I or a failed solve leaves a NaN block
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        _umath_linalg.inv(h, signature="D->D", out=h)
        h *= -2j
        h[..., diag, diag] += 1j
        w = _umath_linalg.eigvalsh_lo(h, signature="D->d")
    clearance = np.pi - 2.0 * np.arctan(np.max(np.abs(w), axis=-1))
    eps = np.mod(pole + TWO_PI + 2.0 * np.arctan(w), TWO_PI) - np.pi
    return _sorted_half_open(eps), clearance


def _moments_match(u: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Per block: do sum e^{-i eps} and sum e^{-2i eps} reproduce tr U and tr U^2?"""
    lam = np.exp(-1j * eps)
    tol = MOMENT_TOL * u.shape[-1]
    first = np.abs(lam.sum(axis=-1) - np.trace(u, axis1=-2, axis2=-1)) <= tol
    second = np.abs((lam * lam).sum(axis=-1) - np.einsum("...ij,...ji->...", u, u)) <= tol
    return first & second


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

@dataclass
class SpectrumSet:
    """Quasienergies of the rationals hbars (ascending) at the Bloch angles thetas:
    energies[i] is the (T, P_i) array of hbars[i], each row sorted."""

    hbars: list
    thetas: np.ndarray
    energies: list


def model_from_ratios(kind: str, ratio1: float, ratio2: float, num: int, den: int,
                      resonance: tuple[int, int] | None = None) -> ModelSpec:
    """Model at hbar_eff = 2*pi*num/den with kick strengths ratio * hbar_eff."""
    hb = EffPlanck.from_rational(num, den)
    return ModelSpec(kind, ratio1 * hb.value, ratio2 * hb.value, hb, resonance)


def _bloch_spectra(model: ModelSpec, theta_count: int) -> np.ndarray:
    """(T, lattice_period) sorted quasienergies on theta_grid(T), from chunked stacks.

    At fold f the half blocks sit at theta_grid(N), N = f*T, and row j joins the blocks
    k = j + i*T, i < f.  Parity l -> -l maps the block at angle k onto the one at N - k,
    so both share a spectrum and only k = 0..N//2 is solved."""
    factors = floquet_factors(model)
    full, fold = _period_and_fold(model, factors)
    period, n = full // fold, fold * theta_count
    phis = theta_grid(n)[:n // 2 + 1]
    chunk = max(1, STACK_ENTRIES // period ** 2)
    eps = np.concatenate([_stack_phases(_bloch_stack(factors, phis[i:i + chunk], period))
                          for i in range(0, phis.size, chunk)])
    k = np.arange(theta_count)[:, None] + theta_count * np.arange(fold)
    return np.sort(eps[np.minimum(k, n - k)].reshape(theta_count, full), axis=1)


def model_spectrum(model: ModelSpec, theta_count: int) -> SpectrumSet:
    """Spectrum of one model over the full Bloch-angle grid."""
    return SpectrumSet([model.hbar_eff], theta_grid(theta_count),
                       [_bloch_spectra(model, theta_count)])


def aggregated_energies(model: ModelSpec, theta_count: int) -> np.ndarray:
    """Sorted union of quasienergies over the Bloch-angle grid."""
    return np.sort(_bloch_spectra(model, theta_count), axis=None)


def scan_rationals(kind: str, s_max: int, window_cycles: int | None = None) -> list:
    """Reduced fractions num/den with hbar_eff = 2*pi*num/den inside the scan window.

    The window is (0, 2*pi*window_cycles]; it defaults to one cycle for the
    kicked Harper model and two for the double-kicked models, matching the
    periods of their butterflies.
    """
    cycles = window_cycles if window_cycles is not None else (1 if kind == KHM else 2)
    if cycles < 1:
        raise ValueError("window_cycles must be >= 1")
    return sorted((Rational(r.num + shift * r.den, r.den) for r in farey_sequence(s_max)
                   for shift in range(cycles)), key=Rational.as_fraction)


def butterfly_scan(kind: str, ratio1: float, ratio2: float, s_max: int,
                   theta_count: int = 32, *, window_cycles: int | None = None,
                   resonance: tuple[int, int] | None = None,
                   workers: int = 1) -> SpectrumSet:
    """Quasienergy spectra over all scan rationals at fixed k/hbar_eff ratios.

    ratio1 and ratio2 are the kick strengths in units of hbar_eff, held fixed
    across the scan so every rational shares the same kick profile.  Results are
    sorted by (hbar_eff, theta) and do not depend on the worker count, which is
    capped at the number of solved rationals and of CPUs.
    """
    for r in (ratio1, ratio2):
        if not (r >= 0 and math.isfinite(r)):
            raise ValueError("kick ratios must be finite and >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rationals = scan_rationals(kind, s_max, window_cycles)
    models = [model_from_ratios(kind, ratio1, ratio2, r.num, r.den, resonance)
              for r in rationals]
    # hbar-mirror partners num/den, (span den - num)/den share a spectrum (README)
    span = 1 if kind == KHM else 2 if models[0].resonance_order == (1, 1) else 0
    index = {(r.num, r.den): i for i, r in enumerate(rationals)}
    rep = [min(i, index.get((span * r.den - r.num, r.den), i)) for i, r in enumerate(rationals)]
    solved = sorted(set(rep))   # the lower rational of each pair
    args = [models[i] for i in solved], [theta_count] * len(solved)
    workers = min(workers, len(solved), os.cpu_count() or 1)
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            energies = dict(zip(solved, pool.map(
                _bloch_spectra, *args, chunksize=max(1, len(solved) // (4 * workers)))))
    else:
        energies = dict(zip(solved, map(_bloch_spectra, *args)))
    return SpectrumSet([m.hbar_eff for m in models], theta_grid(theta_count),
                       [energies[i] for i in rep])


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
            dist = spectrum_set_distance(base, agg(ratio1, ratio2, partner_num, den))
            reports.append(SymmetryReport(name, str(r), dist, tol))
        if kind != KHM:
            dist = spectrum_set_distance(base, agg(ratio2, ratio1, num, den))
            reports.append(SymmetryReport("kick swap", str(r), dist, tol))
    return reports
