"""Power-law fits, transport labels, box counting, spectral distance."""

import math
import tracemalloc

import numpy as np
import pytest

from kickedharper import (
    DKRM_RESONANT,
    BALLISTIC,
    DIFFUSIVE,
    LOCALIZED,
    SUBDIFFUSIVE,
    DiffusionSeries,
    aggregated_energies,
    box_counting_dimension,
    classify_transport,
    fit_power_law,
    hausdorff_from_alpha,
    model_from_ratios,
    spectrum_set_distance,
)
from kickedharper.analysis import DEFAULT_BOX_SCALES

def series_from(steps, variance):
    steps = np.asarray(steps, dtype=np.int64)
    variance = np.asarray(variance, dtype=np.float64)
    return DiffusionSeries(steps, variance, np.zeros_like(variance))


def power_series(alpha, prefactor=1.0, t_max=10000):
    t = np.arange(0, t_max + 1)
    v = prefactor * t.astype(float) ** alpha
    return series_from(t, v)


# ── power-law fitting ──────────────────────────────────────────────────────

def test_diffusion_series_rejects_inconsistent_samples():
    ok = series_from([0, 1, 2], [0.0, 1.0, 2.0])
    assert ok.final_norm == 1.0 and ok.growth == ()
    with pytest.raises(ValueError, match="equal length"):
        DiffusionSeries([0, 1, 2], [0.0, 1.0], [0.0, 0.0, 0.0])
    for steps in ([0, 2, 1], [0, 1, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            series_from(steps, [0.0, 1.0, 2.0])
    for bad in (-1.0, np.nan):   # fit_power_law would drop a NaN sample without a word
        with pytest.raises(ValueError, match=">= 0"):
            series_from([0, 1, 2], [0.0, bad, 2.0])


def test_fit_is_exact_on_exact_power_laws():
    fit = fit_power_law(power_series(2.0, 3.0), (1.0, 10000.0))
    assert abs(fit.alpha - 2.0) < 1e-12
    assert abs(math.exp(fit.log_prefactor) - 3.0) < 1e-10
    assert fit.rms_residual < 1e-10

    fit = fit_power_law(power_series(0.82, 0.5), (1.0, 10000.0))
    assert abs(fit.alpha - 0.82) < 1e-10
    assert fit.rms_residual < 1e-10


def test_fit_respects_the_window():
    t = np.arange(0, 2001)
    v = np.where(t < 100, 50.0, t.astype(float))   # junk transient, then t^1
    fit = fit_power_law(series_from(t, v), (100.0, 2000.0))
    assert abs(fit.alpha - 1.0) < 1e-12
    assert fit.window == (100.0, 2000.0)


def test_fit_needs_enough_positive_samples():
    with pytest.raises(ValueError):
        fit_power_law(power_series(1.0, t_max=8), (1.0, 8.0))
    zero = series_from(np.arange(0, 100), np.zeros(100))
    with pytest.raises(ValueError):
        fit_power_law(zero, (1.0, 99.0))
    with pytest.raises(ValueError):
        fit_power_law(power_series(1.0), (0.0, 100.0))


# ── transport labels ───────────────────────────────────────────────────────

def test_saturating_series_classifies_localized_despite_transient():
    t = np.arange(0, 20001)
    v = 40.0 * (1.0 - np.exp(-t / 30.0))
    s = series_from(t, v)
    fit = fit_power_law(s, (100.0, 20000.0))
    assert classify_transport(fit, s) == LOCALIZED


def test_bounded_series_with_late_spikes_still_classifies_localized():
    t = np.arange(0, 20001)
    v = 10.0 + 25.0 * (t % 97 == 0)
    s = series_from(t, v)
    fit = fit_power_law(s, (100.0, 20000.0))
    assert classify_transport(fit, s) == LOCALIZED


def test_growing_series_classify_by_exponent():
    for alpha, label in ((2.0, BALLISTIC), (1.9, BALLISTIC),
                         (1.0, DIFFUSIVE), (0.95, DIFFUSIVE),
                         (0.5, SUBDIFFUSIVE), (0.82, SUBDIFFUSIVE),
                         (1.3, SUBDIFFUSIVE)):
        s = power_series(alpha)
        fit = fit_power_law(s, (100.0, 10000.0))
        assert classify_transport(fit, s) == label, alpha


# ── Hausdorff inference ────────────────────────────────────────────────────

def test_hausdorff_dimension_is_half_the_exponent():
    assert hausdorff_from_alpha(0.82) == 0.41
    assert hausdorff_from_alpha(2.0) == 1.0
    assert hausdorff_from_alpha(0.0) == 0.0
    with pytest.raises(ValueError):
        hausdorff_from_alpha(-0.1)
    with pytest.raises(ValueError):
        hausdorff_from_alpha(2.1)


# ── box counting ───────────────────────────────────────────────────────────

def cantor_points(depth=10):
    xs = np.array([0.0])
    for _ in range(depth):
        xs = np.concatenate([xs / 3.0, xs / 3.0 + 2.0 / 3.0])
    return xs * 2.0 * np.pi - np.pi


def test_box_counting_on_evenly_spaced_points_is_one():
    pts = np.linspace(-np.pi, np.pi, 12289, endpoint=False) + 1e-4
    res = box_counting_dimension(pts)
    assert abs(res.d0 - 1.0) < 1e-12
    assert res.rms_residual < 1e-12


def test_box_counting_on_a_repeated_single_point_is_zero():
    res = box_counting_dimension(np.full(200, 0.321))
    assert res.d0 == 0.0


def test_box_counting_recovers_the_cantor_dimension():
    res = box_counting_dimension(cantor_points())
    assert abs(res.d0 - math.log(2) / math.log(3)) < 0.08


def test_box_counting_is_invariant_under_duplication_and_rotation():
    pts = cantor_points()
    dup = box_counting_dimension(np.concatenate([pts, pts]))
    assert dup.d0 == box_counting_dimension(pts).d0
    rot = box_counting_dimension(pts + 0.37)
    assert abs(rot.d0 - box_counting_dimension(pts).d0) < 0.05


def test_box_counting_input_validation():
    with pytest.raises(ValueError):
        box_counting_dimension(np.zeros(50))
    for bad in (np.nan, np.inf, -np.inf):   # unchecked, one NaN here reads as d0 0.9885
        pts = np.linspace(-np.pi, np.pi, 200, endpoint=False)
        pts[57] = bad
        with pytest.raises(ValueError, match="finite"):
            box_counting_dimension(pts)
    with pytest.raises(ValueError):
        box_counting_dimension(np.linspace(0, 1, 200), scales=(4, 8))
    with pytest.raises(ValueError):
        box_counting_dimension(np.linspace(0, 1, 200), scales=(0, 2, 4, 8))
    with pytest.raises(ValueError, match="distinct"):   # a rank-deficient fit otherwise
        box_counting_dimension(cantor_points(), scales=(16, 16, 32, 32))
    with pytest.raises(ValueError, match="distinct"):
        box_counting_dimension(cantor_points(), scales=(16, 32, 64, 2 ** 53 + 1))
    for scales in ([16.9, 32, 64, 128], [16.0, 32, 64, 128], [True, 32, 64, 128]):
        with pytest.raises(ValueError, match="integers"):   # not truncated to 16 or read as 1
            box_counting_dimension(cantor_points(), scales=scales)
    ints = box_counting_dimension(cantor_points(), scales=(16, 32, 64, 128))
    assert box_counting_dimension(cantor_points(), scales=np.array([16, 32, 64, 128])) == ints


def test_box_counts_equal_one_bincount_per_scale():
    """The counts from sorted box indices against a histogram of every box."""
    spectrum = aggregated_energies(model_from_ratios(DKRM_RESONANT, 1.0, 1.0, 5, 13), 16)
    for pts in [cantor_points(), spectrum, np.concatenate([spectrum, [-np.pi, np.pi]])]:
        frac = np.mod(pts + np.pi, 2 * np.pi) / (2 * np.pi)
        expected = tuple(int(np.count_nonzero(np.bincount(
            np.minimum(np.floor(frac * s).astype(np.int64), s - 1), minlength=s)))
            for s in DEFAULT_BOX_SCALES)
        assert box_counting_dimension(pts).counts == expected


def test_box_counting_memory_does_not_grow_with_the_scale():
    pts = cantor_points(7)   # 128 points
    tracemalloc.start()
    try:
        res = box_counting_dimension(pts, scales=(16, 32, 64, 2 ** 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.counts[-1] <= np.unique(pts).size
    assert peak < 2 ** 20


# ── spectral multiset distance ─────────────────────────────────────────────

def test_spectrum_distance_basics():
    a = np.array([0.1, -1.2, 2.8])
    assert spectrum_set_distance(a, a) == 0.0
    assert spectrum_set_distance(np.array([0.0]), np.array([np.pi])) == \
        pytest.approx(np.pi)
    assert spectrum_set_distance(a, a + 2 * np.pi) < 1e-12
    assert spectrum_set_distance([], []) == 0.0


def test_spectrum_distance_is_a_pseudometric():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a, b, c = rng.uniform(-np.pi, np.pi, size=(3, 6))
        dab = spectrum_set_distance(a, b)
        dba = spectrum_set_distance(b, a)
        assert abs(dab - dba) < 1e-12
        assert spectrum_set_distance(a, c) <= dab + \
            spectrum_set_distance(b, c) + 1e-12


def brute_force_set_distance(a, b):
    """Oracle: worst circular gap minimized over every cyclic shift."""
    a = np.sort(np.mod(np.asarray(a, dtype=float) + np.pi, 2 * np.pi) - np.pi)
    b = np.sort(np.mod(np.asarray(b, dtype=float) + np.pi, 2 * np.pi) - np.pi)
    best = math.inf
    for shift in range(a.size):
        d = np.abs(a - np.roll(b, shift))
        best = min(best, float(np.max(np.minimum(d, 2 * np.pi - d))))
    return best


def symmetry_claim_pairs():
    """Spectra that check-symmetries compares: period, mirror and kick swap."""
    pairs = []
    for num, den in ((1, 5), (3, 7)):
        spec = [aggregated_energies(model_from_ratios(DKRM_RESONANT, r1, r2, n, den), 8)
                for r1, r2, n in ((0.9, 0.4, num), (0.9, 0.4, num + 2 * den),
                                  (0.9, 0.4, 2 * den - num), (0.4, 0.9, num))]
        pairs += [(spec[0], other) for other in spec[1:]]
    return pairs


def test_spectrum_distance_equals_the_brute_force_over_every_shift():
    rng = np.random.default_rng(41)
    pairs = symmetry_claim_pairs()
    for n in (1, 2, 7, 60, 301):
        a, b = rng.uniform(-np.pi, np.pi, size=(2, n))
        pairs += [(a, b), (a, a + rng.normal(scale=1e-3, size=n))]
    pairs += [(np.full(40, 0.3), np.full(40, 0.3)),        # degenerate sets
              (np.full(40, 0.3), np.full(40, -2.0)),
              (np.array([np.pi, -np.pi + 1e-15, 0.2, 3.1]),  # the pi/-pi seam
               np.array([-np.pi, np.pi - 1e-15, -3.1, 0.2]))]
    for a, b in pairs:
        assert spectrum_set_distance(a, b) == brute_force_set_distance(a, b)


def test_spectrum_distance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        spectrum_set_distance(np.zeros(3), np.zeros(4))
