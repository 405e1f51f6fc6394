"""Classical limit maps and the canonical equivalence between them.

The double-kick map composed over one period is conjugate, via the shear
(q, p) -> (q, p + q), to the kicked Harper map with the same two strengths.
All maps accept scalar or ndarray fields and never wrap q internally; wrap
only for comparisons and output (the shear mixes q into p, so premature
wrapping breaks the conjugacy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import TWO_PI


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point; q and p may be scalars or equal-shape arrays."""

    q: object
    p: object


# ── the maps ───────────────────────────────────────────────────────────────

def khm_map(pt: PhasePoint, k1: float, k2: float) -> PhasePoint:
    """Kicked Harper map: p' = p + k1 sin q; q' = q - k2 sin p'."""
    p_new = pt.p + k1 * np.sin(pt.q)
    q_new = pt.q - k2 * np.sin(p_new)
    return PhasePoint(q_new, p_new)


def dkrm_half_steps(pt: PhasePoint, k1: float, k2: float) -> PhasePoint:
    """Two kick+drift half-periods: (p,q) -> (p', q'=q+p') -> (p'', q''=q'-p'')."""
    p_mid = pt.p + k1 * np.sin(pt.q)
    q_mid = pt.q + p_mid
    p_new = p_mid + k2 * np.sin(q_mid)
    q_new = q_mid - p_new
    return PhasePoint(q_new, p_new)


def dkrm_resonant_map(pt: PhasePoint, k1: float, k2: float) -> PhasePoint:
    """One-period composed map:
    p' = p + k2 sin[q + p + k1 sin q] + k1 sin q;  q' = q - k2 sin[q + p + k1 sin q].
    """
    kick = k1 * np.sin(pt.q)
    inner = np.sin(pt.q + pt.p + kick)
    p_new = pt.p + k2 * inner + kick
    q_new = pt.q - k2 * inner
    return PhasePoint(q_new, p_new)


def conjugacy_defects(pt: PhasePoint, k1: float, k2: float):
    """Per point, from three sines: the equivalence residual (shear∘composed map against
    Harper map∘shear) and the half steps' |dq|, |dp| against the composed map.  kick =
    k1 sin q is one float in all three maps, and q + p + kick is both the composed map's
    sine argument and Harper's p' at the shear: both q' agree, so the residual is |dp|."""
    kick = k1 * np.sin(pt.q)
    arg, p_mid = pt.q + pt.p + kick, pt.p + kick
    inner, q_mid = k2 * np.sin(arg), pt.q + p_mid
    q_new, p_new, p_half = pt.q - inner, pt.p + inner + kick, p_mid + k2 * np.sin(q_mid)
    return np.abs(p_new + q_new - arg), np.abs(q_mid - p_half - q_new), np.abs(p_half - p_new)


def equivalence_residual(pt: PhasePoint, k1: float, k2: float):
    """Pointwise defect of the conjugacy shear∘composed-map = harper-map∘shear."""
    return conjugacy_defects(pt, k1, k2)[0]


# ── iteration ──────────────────────────────────────────────────────────────

def orbit(map_kind: str, q: float, p: float, n: int, k1: float, k2: float):
    """Yield the n + 1 points (q mod 2*pi, p) of the chosen map's orbit from (q, p).

    The map's own update on Python floats: math.sin and % give the bits of np.sin
    and np.mod on float64 scalars without making a numpy scalar per operation.
    """
    if map_kind not in ("khm", "dkrm"):
        raise ValueError(f"unknown map kind {map_kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    sin, harper = math.sin, map_kind == "khm"
    yield q % TWO_PI, p
    for _ in range(n):
        if harper:
            p = p + k1 * sin(q)
            q = q - k2 * sin(p)
        else:
            kick = k1 * sin(q)
            inner = sin(q + p + kick)
            q, p = q - k2 * inner, p + k2 * inner + kick
        yield q % TWO_PI, p


def trajectory(map_kind: str, pt0: PhasePoint, n: int,
               k1: float, k2: float) -> list[PhasePoint]:
    """n iterates of the chosen map, starting point included, q reported mod 2*pi."""
    return [PhasePoint(q, p)
            for q, p in orbit(map_kind, float(pt0.q), float(pt0.p), n, k1, k2)]
