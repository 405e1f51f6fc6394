"""Number-theoretic and momentum-lattice foundations.

Reduced fractions tag commensurate effective Planck constants
(hbar_eff = 2*pi*num/den), Farey enumeration drives butterfly scans,
and wavepackets live on a truncated integer momentum lattice whose
spread is the variance observable of the transport studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


# ── rationals ──────────────────────────────────────────────────────────────

class Rational(Fraction):
    """Reduced non-negative Fraction num/den with den >= 1, printed as num/den (2/1 too).
    Its arithmetic returns plain Fractions, so Rational(x) reads a result back as a tag."""

    __slots__ = ()
    num, den = Fraction.numerator, Fraction.denominator

    def __new__(cls, num, den=None):
        if den == 0:
            raise ValueError("zero denominator")
        self = super().__new__(cls, num, den)
        if self.numerator < 0:
            raise ValueError("negative rational not representable")
        return self

    def __reduce__(self):   # by the integers, not through str(self) as Python 3.10 does
        return type(self), (self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def farey_sequence(s_max: int) -> list[Rational]:
    """All reduced fractions in (0, 1] with denominator <= s_max, ascending: neighbours
    a/b, c/d are followed by (k c - a)/(k d - b), k = floor((s_max + b)/d)."""
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    a, b, c, d, out = 0, 1, 1, s_max, []
    while a < b:   # c/d is in (0, 1] while the term before it is below 1
        out.append(Rational(c, d))
        k = (s_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


# ── effective Planck constant ──────────────────────────────────────────────

@dataclass(frozen=True)
class EffPlanck:
    """Dimensionless effective Planck constant, optionally tagged as 2*pi*(num/den)."""

    value: float
    rational_part: Rational | None = None

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("hbar_eff must be positive and finite")
        if self.rational_part is not None:
            exact = TWO_PI * self.rational_part.num / self.rational_part.den
            if abs(self.value - exact) > 1e-14 * self.value:
                raise ValueError("rational tag inconsistent with value")

    @classmethod
    def from_rational(cls, num: int, den: int) -> "EffPlanck":
        r = Rational(num, den)
        return cls(TWO_PI * r.num / r.den, r)


def parse_effective_planck(spec: float | int | str) -> EffPlanck:
    """Build an EffPlanck from a real value or a "2pi*num/den" string (exact tag)."""
    if isinstance(spec, str):
        text = spec.strip().lower().replace(" ", "")
        if not text.startswith("2pi*"):
            raise ValueError(f"cannot parse hbar spec {spec!r}; expected '2pi*num/den'")
        body = text[len("2pi*"):]
        num_s, slash, den_s = body.partition("/")
        try:
            num = int(num_s)
            den = int(den_s) if slash else 1
        except ValueError:
            raise ValueError(f"cannot parse hbar spec {spec!r}") from None
        return EffPlanck.from_rational(num, den)
    return EffPlanck(float(spec))


# ── model descriptors ──────────────────────────────────────────────────────

KHM = "khm"
DKRM_RESONANT = "dkrm-resonant"
DKRM_GENERAL = "dkrm-general"
MODEL_KINDS = (KHM, DKRM_RESONANT, DKRM_GENERAL)


def _resonance_pair(resonance) -> tuple[int, int]:
    """resonance as a tuple, checked to be two coprime positive ints (not bools)."""
    pair = tuple(resonance)
    ints = all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
    if len(pair) != 2 or not ints or min(pair) < 1 or math.gcd(*pair) != 1:
        raise ValueError("(nu, mu) must be coprime positive integers")
    return pair


@dataclass(frozen=True)
class ModelSpec:
    """Which Floquet model to compose, with kick strengths and hbar_eff.

    kind: one of MODEL_KINDS.  k1/k2 are the kick strengths (for the kicked
    Harper model k1 multiplies cos(q) and k2 multiplies cos(p)); resonance is
    the coprime (nu, mu) pair fixing the kick period to 4*pi*nu/mu in units
    of 1/hbar.  The general-resonance model requires it; the other kinds sit
    at the principal resonance, so it is stored as (1, 1) when not given.
    """

    kind: str
    k1: float
    k2: float
    hbar_eff: EffPlanck
    resonance: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.resonance is None and self.kind == DKRM_GENERAL:
            raise ValueError("general-resonance model requires (nu, mu)")
        pair = (1, 1) if self.resonance is None else _resonance_pair(self.resonance)
        object.__setattr__(self, "resonance", pair)   # a tuple, so the model hashes
        if self.kind != DKRM_GENERAL and pair != (1, 1):
            raise ValueError("resonance order is fixed to 1/1 for this kind")
        for k in (self.k1, self.k2):  # k / hbar_eff is the kick's phase amplitude
            if not (k >= 0 and math.isfinite(k / self.hbar_eff.value)):
                raise ValueError("kick strengths must be >= 0 with k/hbar_eff finite")


@dataclass(frozen=True)
class LabParams:
    """Lab-frame double-kick parameters before rescaling by the delay.

    period is the kick period, delay the gap between the two kicks inside a
    period, planck the bare Planck constant; resonance = (nu, mu) must match
    period*planck = 4*pi*nu/mu.
    """

    k1: float
    k2: float
    period: float
    delay: float
    planck: float
    resonance: tuple[int, int]

    def __post_init__(self):
        if not (self.period > 0 and 0 < self.delay < self.period):
            raise ValueError("need 0 < delay < period")
        if not self.planck > 0:
            raise ValueError("planck must be positive")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("kick strengths must be >= 0")
        object.__setattr__(self, "resonance", _resonance_pair(self.resonance))
        nu, mu = self.resonance
        target = 4.0 * math.pi * nu / mu
        if abs(self.period * self.planck - target) > 1e-12 * target:
            raise ValueError("period*planck does not satisfy the resonance condition")

    @property
    def k1_eff(self) -> float:
        return self.delay * self.k1

    @property
    def k2_eff(self) -> float:
        return self.delay * self.k2

    @property
    def hbar_eff(self) -> EffPlanck:
        return EffPlanck(self.delay * self.planck)

    def to_model_spec(self) -> ModelSpec:
        kind = DKRM_RESONANT if self.resonance == (1, 1) else DKRM_GENERAL
        return ModelSpec(kind, self.k1_eff, self.k2_eff, self.hbar_eff, self.resonance)


# ── wavepackets on the momentum lattice ────────────────────────────────────

@dataclass(eq=False)
class Wavepacket:
    """Complex amplitudes on the integer momentum lattice l_min..l_max."""

    l_min: int
    l_max: int
    amps: np.ndarray = field(repr=False)
    hbar_eff: EffPlanck = EffPlanck(1.0)

    def __post_init__(self):
        if self.l_min >= self.l_max:
            raise ValueError("need l_min < l_max")
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.l_max - self.l_min + 1,):
            raise ValueError("amplitude array length does not match lattice bounds")

    @classmethod
    def delta(cls, l0: int = 0, n_sites: int = 256,
              hbar_eff: EffPlanck = EffPlanck(1.0)) -> "Wavepacket":
        """Momentum eigenstate |l0> on a lattice of n_sites centered at l0."""
        if n_sites < 4 or n_sites % 2:
            raise ValueError("n_sites must be even and >= 4")
        amps = np.zeros(n_sites, dtype=np.complex128)
        amps[n_sites // 2] = 1.0
        return cls(l0 - n_sites // 2, l0 + n_sites // 2 - 1, amps, hbar_eff)

    @property
    def n_sites(self) -> int:
        return self.l_max - self.l_min + 1

    def sites(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1, dtype=np.int64)

    def with_amps(self, amps: np.ndarray) -> "Wavepacket":
        return Wavepacket(self.l_min, self.l_max, amps, self.hbar_eff)

    def doubled(self) -> "Wavepacket":
        """Symmetrically zero-pad to twice the size (lattice grows both ways)."""
        half = self.n_sites // 2
        return Wavepacket(self.l_min - half, self.l_max + half, np.pad(self.amps, half),
                          self.hbar_eff)


def momentum_variance(psi: Wavepacket, l0: int) -> float:
    """hbar_eff^2 * sum_l (l - l0)^2 |amps_l|^2."""
    offsets = psi.sites().astype(np.float64) - float(l0)
    prob = np.abs(psi.amps) ** 2
    return float(psi.hbar_eff.value ** 2 * np.dot(offsets * offsets, prob))


def edge_mass(psi: Wavepacket, margin: int) -> float:
    """Total probability within `margin` sites of either lattice edge."""
    if margin < 1 or margin >= psi.n_sites / 2:
        raise ValueError("need 1 <= margin < lattice size / 2")
    head, tail = np.abs(psi.amps[:margin]) ** 2, np.abs(psi.amps[-margin:]) ** 2
    return float(np.sum(head) + np.sum(tail))
