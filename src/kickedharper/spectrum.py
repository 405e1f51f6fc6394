"""Bloch reduction of lattice-periodic Floquet operators and butterfly scans.

With hbar_eff = 2*pi*num/den the momentum-diagonal factors repeat after a
finite number of sites, so the Floquet operator block-diagonalizes over a
Bloch angle theta into finite unitaries.  Each block is the lattice step of
the transport runs, applied on one lattice period with the kick grid twisted
by theta.  Their eigenphases, swept over a Farey set of rationals, form the
quasi-energy butterflies.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .analysis import spectrum_set_distance
from .errors import ConfigError, NumericalError
from .lattice import KHM, TWO_PI, EffPlanck, ModelSpec, Rational, farey_sequence
from .quantum import _apply_period, _diagonal_table, _period_steps

UNITARITY_TOL = 1e-8
EIGENMOD_TOL = 1e-6
CAYLEY_TILT = 0.25      # first pole: opposite the eigenphase centroid, turned by this
CAYLEY_CLEARANCE = 0.1  # re-solve when an eigenphase lies nearer the pole
MOMENT_TOL = 1e-10      # per site, on the tr U and tr U^2 checks
SEAM_TOL = 1e-13        # a phase this close above -pi is -1 up to rounding: read as pi
STACK_ENTRIES = 2 ** 13  # complex entries per stack of blocks, to bound memory
POOL_WORK = 5_000_000    # blocks*P^3 per pool worker: 2 lost at 8.8e6 and won at 1.2e7 (README)


# ── lattice periodicity ────────────────────────────────────────────────────

def lattice_period(model: ModelSpec) -> int:
    """Smallest multiple of mu (the resonance denominator) over which every diagonal
    factor's tag repeats; den divides the first drift's or Harper period."""
    return _period_and_fold(model, _period_steps(model))[0]


def _period_and_fold(model: ModelSpec, steps: tuple) -> tuple:
    """(lattice_period, fold) of a model from its _period_steps.  The fold is 2 if the
    Floquet operator commutes with translation by lattice_period/2, else 1: kicks commute
    with every translation, diagonal factors pick up their tags' jumps."""
    if model.hbar_eff.rational_part is None:
        raise ConfigError("spectral reduction needs hbar_eff tagged as 2*pi*num/den")
    diagonal = [f for _, fs in steps for f in fs]
    period = math.lcm(model.resonance[1], *(f.period for f in diagonal))
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
    P = lattice_period(model): _bloch_stack's block in the sites' gauge g.  coeffs is ignored."""
    period, phi = lattice_period(model), np.array([float(theta)])
    g = np.exp(1j * phi * np.arange(period) / period)   # g_l = e^{i theta l/P}
    return _bloch_stack([_period_steps(model)], phi, period)[0] * g.conj()[:, None] * g


def _bloch_stack(steps: list, phis: np.ndarray, period: int) -> np.ndarray:
    """(B, P, P) blocks on P sites: block b is the Floquet operator of the steps
    steps[b] at angle phis[b]; every steps list has the same length.

    Kicks act on one grid q_k = (2*pi*k + phi)/P.  A step whose factors' jumps over P
    multiply to -1 (P odd; P is lattice_period or, at fold 2, its half) takes (-1)^l on
    its table, which moves q by pi, so every later kick of its block changes sign.  The
    fold makes the product of all the jumps 1, so each block closes on its own angle."""
    sites = np.arange(period)
    grid, sign, kernel = np.cos((TWO_PI * sites + phis[:, None, None]) / period), 1, []
    for step in zip(*steps):   # this step of every block, as (B, 1, P) tables
        x, jump = np.array([(x, math.prod(f.jump(period) for f in fs)) for x, fs in step]).T
        table = np.array([_diagonal_table(fs, 0, period) for _, fs in step])
        table *= jump[:, None] ** sites
        kernel.append((np.exp(-1j * (sign * x)[:, None, None] * grid) / period, (table[:, None],)))
        sign = sign * jump
    # rows: basis images; the first kick's, fft(ifft(e_l) kick) unscaled, are fft(kick) shifted by l
    (kick, (table,)), *rest = kernel
    u = np.fft.fft(kick)[:, 0, (sites - sites[:, None]) % period]
    u *= table
    u = _apply_period(rest, u, u).swapaxes(1, 2)
    err = u.conj().swapaxes(1, 2) @ u   # |U^H U - I|, in the product's buffer
    err[:, sites, sites] -= 1.0
    err = np.max(np.abs(err, out=err.real), axis=(1, 2))
    if np.any(err > UNITARITY_TOL):
        raise NumericalError(f"Bloch block unitarity defect {np.max(err):.3e}")
    return u


def quasienergies(u: np.ndarray) -> np.ndarray:
    """Sorted eigenphases of a (P, P) unitary block, in (-pi, pi] (see _stack_phases)."""
    return _stack_phases(np.asarray(u)[None])[0]


def _stack_phases(u: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """Sorted eigenphases in (-pi, pi] of each unitary block of a (B, P, P) stack.

    The first pole, CAYLEY_TILT - arg(-tr U), lies opposite the eigenphase centroid: in
    the gap of a spectrum that spans less than the circle, and off the eigenphases 0 and
    pi of one symmetric about 0 (tr U real).  A block with an eigenphase within
    CAYLEY_CLEARANCE of it is re-solved at the middle of its widest gap, and one that
    fails the tr U and tr U^2 check falls back to dense eigvals.  symmetric: the blocks
    are complex symmetric (_solve_stack), for the real solve of _cayley_phases."""
    pole = CAYLEY_TILT - np.angle(-np.trace(u, axis1=1, axis2=2))
    eps, clearance = _cayley_phases(u, pole, symmetric)
    redo = np.flatnonzero(clearance < CAYLEY_CLEARANCE)
    if redo.size:
        ring = np.concatenate([eps[redo], eps[redo, :1] + TWO_PI], axis=1)
        k, rows = np.argmax(np.diff(ring), axis=1), np.arange(redo.size)
        pole = 0.5 * (ring[rows, k] + ring[rows, k + 1])
        eps[redo], _ = _cayley_phases(u[redo], pole, symmetric)
    for b in np.flatnonzero(~_moments_match(u, eps)):
        eps[b] = _eigvals_phases(u[b])
    return eps


def _cayley_phases(u: np.ndarray, pole, symmetric: bool = False) -> tuple:
    """(sorted eigenphases, distance of the nearest one to pole) of each block of u.

    V = e^{i(pole + pi)} U maps the eigenphase `pole` to -1, and H = i(V - I)(V + I)^{-1}
    = i(I - 2 (V + I)^{-1}) is Hermitian with eigenvalues w = -tan(phi/2) for each
    eigenvalue e^{i phi} of V, so epsilon = pole + pi + 2 arctan(w).  Rounding in H grows
    like the inverse of that distance, which is why the caller re-solves when it is small.
    pole is a scalar or one per block.  A symmetric (unitary) V is X + iY with X and Y
    real, symmetric and commuting, so H = -(X + I)^{-1} Y is real symmetric; its solve
    reads X + I and Y as the real and imaginary parts of the one V + I.
    """
    pole = np.asarray(pole, dtype=np.float64)[..., None]
    diag = np.arange(u.shape[-1])
    # np.linalg's gufuncs, inv over its input; a singular V + I or failed solve leaves NaNs
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        h = u * np.exp(1j * (pole[..., None] + np.pi))
        h[..., diag, diag] += 1.0
        if symmetric:
            h = _umath_linalg.solve(h.real, -h.imag, signature="dd->d")
        else:
            _umath_linalg.inv(h, signature="D->D", out=h)
            h *= -2j   # H - iI: eigvalsh reads no imaginary part on the diagonal
        w = _umath_linalg.eigvalsh_lo(h, signature="d->d" if symmetric else "D->d")
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
    """Phases in [-pi, pi] moved into (-pi, pi] and sorted in place (see SEAM_TOL)."""
    eps[eps <= SEAM_TOL - np.pi] = np.pi
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


def _bloch_spectra(models: list, theta_count: int, workers: int = 1) -> list:
    """Each model's (T, lattice_period) sorted quasienergies on theta_grid(T).

    At fold f the half blocks sit at theta_grid(N), N = f*T, and row j joins the blocks
    k = j + i*T, i < f.  Parity l -> -l maps the block at angle k onto the one at N - k.
    With equal kicks, fold 2 and an odd half period, time reversal maps it onto the one at
    k + T too (README).  So the spectra repeat with span S = T there and S = N elsewhere,
    and only k = 0..S//2 is solved.  Models of one half period and step count share stacks
    of <= STACK_ENTRIES entries, which a pool maps with one worker per stack, CPU and POOL_WORK."""
    steps = [_period_steps(m) for m in models]
    shapes = [_period_and_fold(m, s) for m, s in zip(models, steps)]
    spans = [theta_count * (1 if fold == 2 and full // 2 % 2 and len({x for x, _ in s}) == 1
                            else fold) for s, (full, fold) in zip(steps, shapes)]
    groups, stacks, work = {}, [], 0   # (half period, step count): models; (steps, phis, P); B*P^3
    for i, (full, fold) in enumerate(shapes):
        groups.setdefault((full // fold, len(steps[i])), []).append(i)
    for (period, _), members in groups.items():
        grids = [theta_grid(shapes[i][1] * theta_count)[:spans[i] // 2 + 1] for i in members]
        blocks = [steps[i] for i, grid in zip(members, grids) for _ in grid]
        phis = np.concatenate(grids)
        work += len(blocks) * period ** 3
        chunk = max(1, STACK_ENTRIES // period ** 2)
        for c in range(0, len(blocks), chunk):
            stacks.append((blocks[c:c + chunk], phis[c:c + chunk], period))
    workers = min(workers, len(stacks), os.cpu_count() or 1, work // POOL_WORK)
    solved = map(_solve_stack, stacks)
    if workers > 1:
        from concurrent import futures   # here, so a serial run never imports logging
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_stack, stacks,
                                   chunksize=max(1, len(stacks) // (4 * workers))))
    rows, out = itertools.chain.from_iterable(solved), [None] * len(models)
    for i in itertools.chain.from_iterable(groups.values()):   # the order of the rows
        (full, fold), span = shapes[i], spans[i]
        k = (np.arange(theta_count)[:, None] + theta_count * np.arange(fold)) % span
        eps = np.array(list(itertools.islice(rows, span // 2 + 1)))[np.minimum(k, span - k)]
        out[i] = np.sort(eps.reshape(theta_count, full), axis=1)
    return out


def _solve_stack(stack: tuple) -> np.ndarray:
    """One stack of _bloch_spectra; the solver is chosen here.  A one-step (khm) block u is
    made complex symmetric in place, S = h^-1 u h in the pair basis (README, "Time reversal")."""
    u = _bloch_stack(*stack)
    steps, _, period = stack
    if len(steps[0]) > 1:
        return _stack_phases(u)
    sites, n = np.arange(period), (period - 1) // 2
    mirror = np.minimum(sites, period - sites)
    h = np.sqrt([_diagonal_table(fs, 0, period)[mirror] for ((_, fs),) in steps])
    pair = np.where(2 * sites % period, math.sqrt(0.5), 1.0)   # so the pair basis is orthonormal
    u *= (pair * h)[:, None, :]
    u *= (pair / h)[:, :, None]
    for v, turn in ((u, 1j), (u.swapaxes(1, 2), -1j)):   # rows, then columns: the sum at l,
        lo, hi = v[:, 1:n + 1], v[:, period - 1:period - n - 1:-1]   # the difference at P - l
        lo += hi
        hi *= -2.0
        hi += lo
        hi *= turn
    return _stack_phases(u, True)


def model_spectrum(model: ModelSpec, theta_count: int) -> SpectrumSet:
    """Spectrum of one model over the full Bloch-angle grid."""
    return SpectrumSet([model.hbar_eff], theta_grid(theta_count),
                       _bloch_spectra([model], theta_count))


def aggregated_energies(model: ModelSpec, theta_count: int) -> np.ndarray:
    """Sorted union of quasienergies over the Bloch-angle grid."""
    return np.sort(_bloch_spectra([model], theta_count)[0], axis=None)


def _hbar_symmetries(kind: str, resonance: tuple[int, int] = (1, 1)) -> tuple[int, bool]:
    """(c, mirror): the spectrum at hbar_eff = 2*pi*num/den equals the one at num + c*den
    and, if mirror, the one at c*den - num (README, "hbar mirror").  c is 1 for khm and 2 for
    the double kicks; khm mirrors, and the double kicks do at resonance (1, 1) only."""
    return (1, True) if kind == KHM else (2, resonance == (1, 1))


def scan_rationals(kind: str, s_max: int, window_cycles: int | None = None) -> list:
    """Reduced fractions num/den with hbar_eff = 2*pi*num/den inside the scan window.

    The window is (0, 2*pi*window_cycles]; it defaults to one period 2*pi*c of the
    kind's butterfly (_hbar_symmetries).
    """
    cycles = window_cycles if window_cycles is not None else _hbar_symmetries(kind)[0]
    if cycles < 1:
        raise ValueError("window_cycles must be >= 1")
    farey = farey_sequence(s_max)   # (0, 1], so shift-major order ascends
    return [Rational(r.num + shift * r.den, r.den) for shift in range(cycles) for r in farey]


def butterfly_scan(kind: str, ratio1: float, ratio2: float, s_max: int,
                   theta_count: int = 32, *, window_cycles: int | None = None,
                   resonance: tuple[int, int] | None = None,
                   workers: int = 1) -> SpectrumSet:
    """Quasienergy spectra over all scan rationals at fixed k/hbar_eff ratios.

    ratio1 and ratio2 are the kick strengths in units of hbar_eff, held fixed across the
    scan so every rational shares the same kick profile.  Results are sorted by (hbar_eff,
    theta) and do not depend on workers, which only caps _bloch_spectra's process pool.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rationals = scan_rationals(kind, s_max, window_cycles)
    models = {r: model_from_ratios(kind, ratio1, ratio2, r.num, r.den, resonance)
              for r in rationals}
    c, mirror = _hbar_symmetries(kind, models[rationals[0]].resonance)   # mirror r -> c - r
    rep = {r: Rational(min(r, c - r)) if mirror and r < c else r for r in rationals}
    solved = sorted(set(rep.values()))   # lower of each pair; c - r < r is a scan rational
    energies = dict(zip(solved, _bloch_spectra([models[r] for r in solved], theta_count, workers)))
    return SpectrumSet([m.hbar_eff for m in models.values()], theta_grid(theta_count),
                       [energies[rep[r]] for r in rationals])


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
    """Verify the butterfly symmetries at the given rationals: the hbar_eff period 2*pi*c, the
    mirror about pi*c where it holds (_hbar_symmetries) and, for the double kicks, the swap of
    the two kick strengths.  A claim whose partner falls outside hbar_eff > 0 is skipped."""
    claims = []   # (name, rational, base model, partner model)
    for r in rationals:
        base = model_from_ratios(kind, ratio1, ratio2, r.num, r.den, resonance)
        c, mirror = _hbar_symmetries(kind, base.resonance)
        partners = [(f"period {2 * c}*pi", (ratio1, ratio2), r + c)]
        partners += [("mirror about " + ("pi" if c == 1 else f"{c}*pi"), (ratio1, ratio2),
                      c - r)] if mirror else []
        partners += [] if kind == KHM else [("kick swap", (ratio2, ratio1), r)]
        claims += [(name, r, base, model_from_ratios(kind, *ks, *p.as_integer_ratio(), resonance))
                   for name, ks, p in partners if p > 0]
    models = list(dict.fromkeys(m for claim in claims for m in claim[2:]))
    spectra = dict(zip(models, _bloch_spectra(models, theta_count)))
    return [SymmetryReport(name, str(r), spectrum_set_distance(spectra[a], spectra[b]), tol)
            for name, r, a, b in claims]
