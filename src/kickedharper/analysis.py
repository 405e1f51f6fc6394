"""Transport exponents, box-counting dimension, and spectral comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import TWO_PI

LOCALIZED = "localized"
SUBDIFFUSIVE = "subdiffusive"
DIFFUSIVE = "diffusive"
BALLISTIC = "ballistic"

DEFAULT_BOX_SCALES = tuple(2 ** k for k in range(4, 13))
MAX_BOX_SCALE = 2 ** 53   # beyond it, frac * s in float64 no longer resolves one box
MIN_BOX_POINTS = 100


# ── power-law transport ────────────────────────────────────────────────────

@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (log t, log variance) inside a step window."""

    alpha: float
    log_prefactor: float
    window: tuple
    rms_residual: float


def fit_power_law(series, window) -> PowerLawFit:
    """Fit variance ~ t^alpha over steps in [t_lo, t_hi] with positive variance."""
    t_lo, t_hi = window
    if not (t_lo > 0 and t_hi > t_lo):
        raise ValueError("window must satisfy 0 < t_lo < t_hi")
    steps = np.asarray(series.steps, dtype=np.float64)
    var = np.asarray(series.variance, dtype=np.float64)
    mask = (steps >= t_lo) & (steps <= t_hi) & (var > 0)
    n = int(mask.sum())
    if n < 10:
        raise ValueError(f"need >= 10 positive-variance samples in window, got {n}")
    log_t, log_v = np.log(steps[mask]), np.log(var[mask])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    resid = log_v - (slope * log_t + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return PowerLawFit(float(slope), float(intercept), (float(t_lo), float(t_hi)), rms)


def _median(x) -> float:
    """np.median of a NaN-free 1-D array, from a sort (np.median loads numpy.ma)."""
    s, mid = np.sort(x), x.size // 2
    return s[mid] if x.size % 2 else (s[mid - 1] + s[mid]) / 2


def classify_transport(fit: PowerLawFit, series) -> str:
    """Label the run localized, subdiffusive, diffusive, or ballistic.

    A late-time plateau (median over the last decade of steps below twice
    the median of the decade before it) wins over the fitted exponent,
    since power-law fits on saturating curves are ill-conditioned.  Decade
    medians are used on both sides so that the occasional fluctuation
    spike of a saturated run cannot mask the plateau.
    """
    steps = np.asarray(series.steps, dtype=np.float64)
    var = np.asarray(series.variance, dtype=np.float64)
    t_max = steps[-1]
    last = var[steps > t_max / 10]
    prev = var[(steps > t_max / 100) & (steps <= t_max / 10)]
    if last.size and prev.size and _median(last) < 2.0 * _median(prev):
        return LOCALIZED
    if fit.alpha >= 1.8:
        return BALLISTIC
    if 0.9 <= fit.alpha < 1.1:
        return DIFFUSIVE
    return SUBDIFFUSIVE


def hausdorff_from_alpha(alpha: float) -> float:
    """Hausdorff dimension of the driving spectrum inferred as alpha / 2."""
    if not (0 <= alpha <= 2):
        raise ValueError("alpha must lie in [0, 2]")
    return alpha / 2


# ── box-counting dimension ─────────────────────────────────────────────────

@dataclass(frozen=True)
class BoxCountResult:
    """Box-counting slope with its log-log residual and the retained scales."""

    d0: float
    rms_residual: float
    scales: tuple
    counts: tuple


def box_counting_dimension(points, scales=DEFAULT_BOX_SCALES) -> BoxCountResult:
    """Box-counting dimension of a point set on the circle (-pi, pi].

    Each scale is a number of equal boxes partitioning the circle.  Scales
    whose occupied-box count saturates (at the box count or at the number of
    distinct points) carry no slope information and are dropped; if that
    leaves fewer than two scales the full ladder is used, which keeps the
    uniform (slope 1) and single-point (slope 0) limits exact.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or pts.size < MIN_BOX_POINTS or not np.all(np.isfinite(pts)):
        raise ValueError(f"need a flat array of >= {MIN_BOX_POINTS} finite points")
    if len(scales) < 4:
        raise ValueError("need >= 4 scales")
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in scales):
        raise ValueError("scales must be integers")   # int() would truncate 16.9 to 16
    scales = [int(s) for s in scales]
    if min(scales) < 1 or max(scales) > MAX_BOX_SCALE or len(set(scales)) < len(scales):
        raise ValueError("scales must be distinct box counts in [1, 2**53]")
    frac = np.sort(np.mod(pts + np.pi, TWO_PI) / TWO_PI)   # so box indices ascend
    ordered = np.sort(pts)   # counts from sorts: np.unique loads numpy.ma
    n_distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    if n_distinct == 1:
        return BoxCountResult(0.0, 0.0, tuple(scales), (1,) * len(scales))
    counts = []
    for s in scales:
        idx = np.minimum(np.floor(frac * s).astype(np.int64), s - 1)
        counts.append(1 + int(np.count_nonzero(np.diff(idx))))   # occupied boxes
    kept = [(s, c) for s, c in zip(scales, counts) if c < s and c < n_distinct]
    if len(kept) < 2:
        kept = list(zip(scales, counts))
    log_s = np.log([s for s, _ in kept])
    log_c = np.log([c for _, c in kept])
    slope, intercept = np.polyfit(log_s, log_c, 1)
    resid = log_c - (slope * log_s + intercept)
    return BoxCountResult(float(slope), float(np.sqrt(np.mean(resid ** 2))),
                          tuple(scales), tuple(counts))


# ── spectral multiset distance ─────────────────────────────────────────────

def spectrum_set_distance(a, b) -> float:
    """Circular multiset distance: best cyclic alignment, worst pointwise gap.

    Both inputs are equal-size eigenphase multisets, wrapped onto (-pi, pi] and
    sorted.  Shifts go by ascending first-pair gap, a floor on their worst gap.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    a = np.sort(np.mod(a + np.pi, TWO_PI) - np.pi)
    b = np.sort(np.mod(b + np.pi, TWO_PI) - np.pi)
    d = np.abs(a[0] - b)
    first_gap = np.minimum(d, TWO_PI - d)
    best = math.inf
    for j in np.argsort(first_gap):
        if first_gap[j] >= best:
            break
        d = np.abs(a - np.roll(b, -j))
        best = min(best, float(np.max(np.minimum(d, TWO_PI - d))))
    return best
