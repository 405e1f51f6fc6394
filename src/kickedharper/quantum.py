"""Floquet operators on the momentum lattice and long-time evolution.

Kick factors e^{-i x cos q} are applied exactly on the position grid
q_k = 2*pi*k/n of an n-site lattice (cos q is diagonal there).  Free-evolution
factors are diagonal phases in momentum.  Rational effective Planck constants
get bit-exact diagonal phases via integer reduction, which keeps lattice
periodicity exact for the Bloch machinery and avoids large-argument phase
loss at big |l|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import LatticeOverflowError, NumericalError, ResourceLimitError
from .lattice import KHM, TWO_PI, EffPlanck, ModelSpec, Wavepacket, edge_mass

DEFAULT_LEAK_THRESHOLD = 1e-10
DEFAULT_MAX_SITES = 2 ** 22
COEFF_TOL = 1e-14


# ── kick coefficients (momentum-basis bands) ───────────────────────────────

@dataclass(frozen=True)
class KickCoefficients:
    """Momentum-basis matrix elements c_m of e^{-i x cos q}, |m| <= cutoff."""

    cutoff: int
    coeffs: np.ndarray = field(repr=False)

    def coeff(self, m: int) -> complex:
        if abs(m) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[m + self.cutoff])


@lru_cache(maxsize=64)
def _kick_coefficients_cached(x: float):
    n_grid = 1 << max(9, math.ceil(math.log2(8 * (math.ceil(x) + 64))))
    c = np.fft.fft(_kick_table(x, n_grid))
    cutoff = int(np.flatnonzero(np.abs(c[: n_grid // 2 + 1]) >= COEFF_TOL).max(initial=0))
    if cutoff >= n_grid // 2:
        raise NumericalError("kick coefficient tail reaches the sampling grid edge")
    coeffs = c[np.arange(-cutoff, cutoff + 1) % n_grid]
    coeffs.flags.writeable = False
    return cutoff, coeffs


def kick_coefficients(x: float) -> KickCoefficients:
    """Coefficients of the kick in the momentum basis, cut off once below COEFF_TOL."""
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError("x must be finite and >= 0")
    cutoff, coeffs = _kick_coefficients_cached(float(x))
    return KickCoefficients(cutoff, coeffs)


# ── Floquet factors ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class KickFactor:
    """Position-space kick e^{-i strength * cos q}."""

    strength: float


@dataclass(frozen=True)
class QuadraticPhase:
    """Momentum-diagonal phase e^{-i coeff * l^2 / 2} per site l.

    cycles, when given, is the exact value of coeff/(2*pi); the phase table is
    then reduced with integer arithmetic and is exactly periodic in l.
    """

    coeff: float
    cycles: Fraction | None = None

    def __post_init__(self):
        if self.cycles is not None:
            exact = TWO_PI * self.cycles.numerator / self.cycles.denominator
            if abs(self.coeff - exact) > 1e-12 * max(1.0, abs(exact)):
                raise ValueError("cycles tag inconsistent with coeff")

    @property
    def period(self) -> int:
        """Tagged table period: b, or 2b if a*b is odd, with a/b = cycles."""
        a, b = self.cycles.numerator, self.cycles.denominator
        return b if a * b % 2 == 0 else 2 * b

    def jump(self, shift: int) -> int | None:
        """values(l + shift) / values(l): (-1)^(a*shift) when b divides shift, else None."""
        a, b = self.cycles.numerator, self.cycles.denominator
        return None if shift % b else (-1) ** (a * shift % 2)

    def values(self, l) -> np.ndarray:
        l = np.asarray(l, dtype=np.int64)
        if self.cycles is not None:
            a, b = self.cycles.numerator, self.cycles.denominator
            idx = (a % (2 * b)) * (l * l % (2 * b)) % (2 * b)
            table = np.exp(-1j * np.pi * np.arange(2 * b) / b)
            return table[idx]
        # l^2/2 is exact in float64 for |l| < 2^26
        return np.exp(-1j * self.coeff * (0.5 * l.astype(np.float64) ** 2))


@dataclass(frozen=True)
class HarperPhase:
    """Momentum-diagonal phase e^{-i strength * cos(hbar * l)} per site l."""

    strength: float
    planck: EffPlanck

    @property
    def period(self) -> int:
        """den of the tag hbar = 2*pi*num/den, the period of cos(hbar l) in l."""
        return self.planck.rational_part.den

    def jump(self, shift: int) -> int | None:
        """values(l + shift) / values(l): 1 when den divides shift, else None."""
        return None if shift % self.period else 1

    def values(self, l) -> np.ndarray:
        l = np.asarray(l, dtype=np.int64)
        rp = self.planck.rational_part
        if rp is not None:   # the kick on den sites, read at q = hbar * l
            idx = (rp.num % rp.den) * (l % rp.den) % rp.den
            return np.exp(-1j * self.strength * np.cos(TWO_PI * np.arange(rp.den) / rp.den))[idx]
        return np.exp(-1j * self.strength * np.cos(self.planck.value * l.astype(np.float64)))


def _period_steps(model: ModelSpec) -> tuple:
    """One period as (kick strength, diagonal factors after it) per kick, in order.

    Both double-kick kinds close with the drift of resonance (nu, mu); its phase
    e^{-i pi (2 nu/mu) l^2} only depends on 2 nu/mu mod 2, as e^{-i pi 2 l^2} = 1.
    """
    hb = model.hbar_eff.value
    rp = model.hbar_eff.rational_part
    cyc = Fraction(rp.num, rp.den) if rp is not None else None
    if model.kind == KHM:
        return ((model.k1 / hb, (HarperPhase(model.k2 / hb, model.hbar_eff),)),)
    nu, mu = model.resonance
    res = Fraction(2 * nu, mu) % 2
    res_coeff = TWO_PI * res.numerator / res.denominator
    if cyc is not None:
        closing = (QuadraticPhase(res_coeff - hb, res - cyc),)
    else:
        closing = (QuadraticPhase(res_coeff, res), QuadraticPhase(-hb, None))
    return ((model.k1 / hb, (QuadraticPhase(hb, cyc),)), (model.k2 / hb, closing))


def floquet_factors(model: ModelSpec) -> tuple:
    """One period of the model as factors in application order (first acts first)."""
    return tuple(f for x, fs in _period_steps(model) for f in (KickFactor(x), *fs))


# ── applying factors on the lattice ────────────────────────────────────────

@lru_cache(maxsize=8)
def _kick_table(strength: float, n: int) -> np.ndarray:
    """e^{-i strength cos q_k}/n, q_k = 2*pi*k/n: the kick with the inverse FFT's 1/n, as
    _apply_period takes it; read-only, as it is shared."""
    table = np.exp(-1j * strength * np.cos(TWO_PI * np.arange(n) / n)) / n
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _diagonal_table(factors: tuple, l_min: int, n: int) -> np.ndarray:
    """Product of the factors' values at sites l_min..l_min+n-1; read-only (shared)."""
    sites = np.arange(l_min, l_min + n, dtype=np.int64)
    table = reduce(np.multiply, [f.values(sites) for f in factors])
    table.flags.writeable = False
    return table


def apply_kick(psi: Wavepacket, x: float) -> Wavepacket:
    """Multiply by e^{-i x cos q} on the position grid of the lattice size.

    Equals banded convolution with kick_coefficients(|x|) as long as the
    state keeps clear of the lattice edges (circular wrap otherwise).
    """
    return psi.with_amps(_apply_period([(_kick_table(x, psi.n_sites), ())], psi.amps))


def apply_quadratic_phase(psi: Wavepacket, tau: float) -> Wavepacket:
    """Multiply amplitudes by e^{-i tau l^2 / 2} sitewise."""
    table = _diagonal_table((QuadraticPhase(tau),), psi.l_min, psi.n_sites)
    return psi.with_amps(psi.amps * table)


@lru_cache(maxsize=4)
def _kernel_tables(model: ModelSpec, l_min: int, n: int) -> tuple:
    """One period's steps on n sites from l_min: each kick, then one diagonal table."""
    return tuple((_kick_table(x, n), (_diagonal_table(fs, l_min, n),))
                 for x, fs in _period_steps(model))


def _apply_period(steps, src: np.ndarray, dst: np.ndarray | None = None) -> np.ndarray:
    """Apply (kick table, diagonal tables) steps along the last axis of a state or stack
    into dst (new when None; may be src) and return it; another dst keeps src for a retry.
    Both FFTs run unscaled: the kick tables carry the inverse FFT's 1/n (_kick_table)."""
    dst = np.empty(src.shape, dtype=np.complex128) if dst is None else dst
    ufuncs = np.fft._pocketfft_umath   # what np.fft.ifft/fft call
    for kick, tables in steps:
        ufuncs.ifft(src, 1.0, out=dst)
        np.multiply(dst, kick, out=dst)
        ufuncs.fft(dst, 1.0, out=dst)
        for table in tables:
            dst *= table
        src = dst
    return dst


def trigger_margin(model: ModelSpec, n_sites: int) -> int:
    """Edge-sentinel width: combined kick bandwidth plus 8, clipped to fit.  A cutoff is
    at least floor(x) (J_m(x) > 0 for m <= x), so none is computed once floors fill it."""
    width = n_sites // 2 - 1
    xs = [abs(x) for x, _ in _period_steps(model)]
    if 8 + sum(math.floor(x) for x in xs) < width:
        width = min(width, 8 + sum(kick_coefficients(x).cutoff for x in xs))
    return max(1, width)


def apply_floquet(model: ModelSpec, psi: Wavepacket, *,
                  leak_threshold: float = DEFAULT_LEAK_THRESHOLD) -> Wavepacket:
    """Apply one full period of the model's Floquet operator.  Raises LatticeOverflowError
    (grow the lattice and retry) when more than leak_threshold probability lies within
    trigger_margin sites of the lattice edge, and NumericalError when that mass is NaN."""
    out = psi.with_amps(_apply_period(_kernel_tables(model, psi.l_min, psi.n_sites), psi.amps))
    mass = edge_mass(out, trigger_margin(model, psi.n_sites))
    if math.isnan(mass):
        raise NumericalError(f"edge mass is NaN on a {psi.n_sites}-site lattice")
    if mass > leak_threshold:
        raise LatticeOverflowError(
            f"edge mass beyond {leak_threshold:g} on a {psi.n_sites}-site lattice")
    return out


# ── long-time evolution ────────────────────────────────────────────────────

@dataclass
class DiffusionSeries:
    """Recorded (step, momentum variance, edge mass) samples of one evolution."""

    steps: np.ndarray
    variance: np.ndarray
    leak: np.ndarray
    final_norm: float = 1.0
    growth: tuple = ()  # (step, lattice size after it), one per doubling

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.int64)
        self.variance = np.asarray(self.variance, dtype=np.float64)
        self.leak = np.asarray(self.leak, dtype=np.float64)
        if not (len(self.steps) == len(self.variance) == len(self.leak)):
            raise ValueError("series arrays must have equal length")
        if np.any(np.diff(self.steps) <= 0):
            raise ValueError("steps must be strictly increasing")
        if np.any(self.variance < 0):
            raise ValueError("variance must be >= 0")


def evolve(model: ModelSpec, psi0: Wavepacket, n_steps: int, record_every: int = 1, *,
           max_sites: int = DEFAULT_MAX_SITES) -> DiffusionSeries:
    """Iterate the Floquet map, growing the lattice whenever mass nears an edge.

    Growth is symmetric doubling with zero padding, and the step whose edge
    mass (within trigger_margin sites, fixed per lattice size) exceeds
    DEFAULT_LEAK_THRESHOLD is retried on the larger lattice.  Records are taken at
    step 0 and every record_every periods.  psi0 must carry the model's hbar_eff.
    A NaN edge mass or a final norm off 1 by more than 1e-8 raises NumericalError.
    """
    if abs(psi0.hbar_eff.value - model.hbar_eff.value) > 1e-14 * model.hbar_eff.value:
        raise ValueError("psi0.hbar_eff differs from the model's hbar_eff")
    if n_steps < 1 or record_every < 1:
        raise ValueError("n_steps and record_every must be >= 1")
    l0 = int(psi0.l_min + np.argmax(np.abs(psi0.amps)))

    def lattice(l_min, n):  # kernel steps, edge margin, weights (l - l0)^2, |amp|^2 buffer
        offsets = np.arange(l_min, l_min + n, dtype=np.int64).astype(np.float64) - float(l0)
        return (_kernel_tables(model, l_min, n), trigger_margin(model, n), offsets * offsets,
                np.empty(n))
    l_min, src, dst = psi0.l_min, psi0.amps.copy(), None  # the kernel allocates dst
    tables, margin, weights, prob = lattice(l_min, src.size)
    hbar2 = psi0.hbar_eff.value ** 2
    steps, variance, leak, growth = [], [], [], []

    def measure(amps):  # |amps|^2 into prob (the bits of abs(amps)**2); its edge mass
        np.multiply(np.abs(amps, out=prob), prob, out=prob)
        return float(np.add.reduce(prob[:margin]) + np.add.reduce(prob[-margin:]))

    def record(t, mass):  # step t, from prob as measure left it
        steps.append(t)
        variance.append(float(hbar2 * np.dot(weights, prob)))
        leak.append(mass)
    record(0, measure(src))
    for t in range(1, n_steps + 1):
        while True:  # src is intact until the step is accepted
            out = _apply_period(tables, src, dst)
            mass = measure(out)
            if mass <= DEFAULT_LEAK_THRESHOLD:
                break
            if math.isnan(mass):
                raise NumericalError(f"edge mass is NaN at step {t}")
            if 2 * src.size > max_sites:
                raise ResourceLimitError(f"lattice would exceed {max_sites} sites at step {t}")
            half = src.size // 2
            src, dst, l_min = np.pad(src, half), None, l_min - half
            tables, margin, weights, prob = lattice(l_min, src.size)
            growth.append((t, src.size))
        src, dst = out, src
        if t % record_every == 0:
            record(t, mass)
    final_norm = float(np.sqrt(np.sum(prob)))
    if not abs(final_norm - 1.0) <= 1e-8:
        raise NumericalError(f"norm drifted to {final_norm:.12f} after {n_steps} steps")
    return DiffusionSeries(steps, variance, leak, final_norm, tuple(growth))
