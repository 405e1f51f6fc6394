"""Classical limit maps and the canonical equivalence between them.

The double-kick map composed over one period is conjugate, via the shear
(q, p) -> (q, p + q), to the kicked Harper map with the same two strengths.
All maps accept scalar or ndarray fields and never wrap q internally; wrap
only for comparisons and output (the shear mixes q into p, so premature
wrapping breaks the conjugacy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import TWO_PI


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point; q and p may be scalars or equal-shape arrays."""

    q: object
    p: object


def _wrap(q):
    return np.mod(q, TWO_PI)


def circular_distance(a, b):
    """Distance between angles on the circle of circumference 2*pi."""
    d = np.abs(np.mod(a - b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


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
    inner = np.sin(pt.q + pt.p + k1 * np.sin(pt.q))
    p_new = pt.p + k2 * inner + k1 * np.sin(pt.q)
    q_new = pt.q - k2 * inner
    return PhasePoint(q_new, p_new)


def canonical_transform(pt: PhasePoint) -> PhasePoint:
    """Shear to the Harper frame: (q, p) -> (q, p + q)."""
    return PhasePoint(pt.q, pt.p + pt.q)


def canonical_transform_inverse(pt: PhasePoint) -> PhasePoint:
    """Inverse shear: (Q, P) -> (Q, P - Q)."""
    return PhasePoint(pt.q, pt.p - pt.q)


def equivalence_residual(pt: PhasePoint, k1: float, k2: float):
    """Pointwise defect of the conjugacy shear∘composed-map = harper-map∘shear.

    Returns max(circular q-distance, |dp|); same shape as the inputs.
    """
    via_dkrm = canonical_transform(dkrm_resonant_map(pt, k1, k2))
    via_khm = khm_map(canonical_transform(pt), k1, k2)
    dq = circular_distance(via_dkrm.q, via_khm.q)
    dp = np.abs(via_dkrm.p - via_khm.p)
    return np.maximum(dq, dp)


# ── derivatives and iteration ──────────────────────────────────────────────

def khm_jacobian(pt: PhasePoint, k1: float, k2: float) -> np.ndarray:
    """d(q', p')/d(q, p) for the kicked Harper map (unit determinant)."""
    cq = k1 * np.cos(pt.q)
    cp = k2 * np.cos(pt.p + k1 * np.sin(pt.q))
    return np.array([[1.0 - cp * cq, -cp],
                     [cq, 1.0]])


def dkrm_jacobian(pt: PhasePoint, k1: float, k2: float) -> np.ndarray:
    """d(q', p')/d(q, p) for the composed double-kick map (unit determinant)."""
    cq = k1 * np.cos(pt.q)
    cu = np.cos(pt.q + pt.p + k1 * np.sin(pt.q))
    return np.array([[1.0 - k2 * cu * (1.0 + cq), -k2 * cu],
                     [cq + k2 * cu * (1.0 + cq), 1.0 + k2 * cu]])


_MAPS = {"khm": khm_map, "dkrm": dkrm_resonant_map}


def trajectory(map_kind: str, pt0: PhasePoint, n: int,
               k1: float, k2: float) -> list[PhasePoint]:
    """n iterates of the chosen map, starting point included, q reported mod 2*pi."""
    if map_kind not in _MAPS:
        raise ValueError(f"unknown map kind {map_kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    step = _MAPS[map_kind]
    out = [PhasePoint(_wrap(pt0.q), pt0.p)]
    pt = pt0
    for _ in range(n):
        pt = step(pt, k1, k2)
        out.append(PhasePoint(_wrap(pt.q), pt.p))
    return out
