"""Acceptance runs: headline physics claims at their stated tolerances.

Each test measures one claim end to end and asserts it at the advertised
tolerance, so a verbose run gives one pass/fail line per claim.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from kickedharper import quantum
from kickedharper import (
    DKRM_GENERAL,
    DKRM_RESONANT,
    KHM,
    EffPlanck,
    ModelSpec,
    PhasePoint,
    QuadraticPhase,
    Wavepacket,
    aggregated_energies,
    apply_kick,
    apply_quadratic_phase,
    box_counting_dimension,
    build_bloch_matrix,
    check_symmetry_claims,
    classify_transport,
    dkrm_half_steps,
    dkrm_resonant_map,
    edge_mass,
    equivalence_residual,
    evolve,
    farey_sequence,
    fit_power_law,
    hausdorff_from_alpha,
    kick_coefficients,
    model_from_ratios,
    momentum_variance,
    parse_effective_planck,
    quasienergies,
    theta_grid,
)

TWO_PI = 2.0 * math.pi


def sampled_rationals(s_max=20, count=10):
    interior = [r for r in farey_sequence(s_max) if r.num < r.den]
    idx = np.unique(np.round(np.linspace(0, len(interior) - 1, count)).astype(int))
    return [interior[i] for i in idx]


def random_phase_points(n, seed):
    rng = np.random.default_rng(seed)
    return PhasePoint(rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, TWO_PI, n))


def delta_run(model, n_steps, **kw):
    psi0 = Wavepacket.delta(l0=0, n_sites=256, hbar_eff=model.hbar_eff)
    return evolve(model, psi0, n_steps, **kw)


# ── classical layer ────────────────────────────────────────────────────────

def test_criterion_01_classical_map_equivalence():
    worst = 0.0
    for seed, (k1, k2) in enumerate([(1.3, 0.7), (1.0, 1.0), (3.9, 3.9)]):
        pts = random_phase_points(1_000_000, 100 + seed)
        worst = max(worst, float(np.max(equivalence_residual(pts, k1, k2))))
    print(f"criterion 01: max equivalence residual {worst:.3e} (tolerance 1e-12)")
    assert worst < 1e-12


def test_criterion_02_half_step_composition():
    worst = 0.0
    for seed, (k1, k2) in enumerate([(1.3, 0.7), (1.0, 1.0), (3.9, 3.9)]):
        pts = random_phase_points(1_000_000, 200 + seed)
        half = dkrm_half_steps(pts, k1, k2)
        full = dkrm_resonant_map(pts, k1, k2)
        worst = max(worst, float(np.max(np.abs(half.q - full.q))),
                    float(np.max(np.abs(half.p - full.p))))
    print(f"criterion 02: max composition deviation {worst:.3e} (tolerance 1e-12)")
    assert worst < 1e-12


# ── butterfly structure ────────────────────────────────────────────────────

def test_criterion_03_butterfly_symmetries():
    rationals = sampled_rationals()
    reports = check_symmetry_claims(KHM, 1.0, 1.0, rationals, theta_count=16)
    reports += check_symmetry_claims(DKRM_RESONANT, 1.0, 0.5, rationals,
                                     theta_count=16)
    worst = max(r.distance for r in reports)
    names = {r.name for r in reports}
    print(f"criterion 03: {len(reports)} symmetry checks, worst distance "
          f"{worst:.3e} (tolerance 1e-8)")
    assert names == {"period 2*pi", "mirror about pi", "period 4*pi",
                     "mirror about 2*pi", "kick swap"}
    assert all(r.passed for r in reports) and worst < 1e-8


def empty_arc_width(eps, center):
    """Width of the spectral gap (empty circular arc) containing `center`."""
    e = np.sort((np.asarray(eps) + np.pi) % TWO_PI - np.pi)
    ext = np.concatenate([e, [e[0] + TWO_PI]])
    for lo, gap in zip(ext[:-1], np.diff(ext)):
        if lo < center <= lo + gap or lo < center + TWO_PI <= lo + gap:
            return float(gap)
    return 0.0


def test_criterion_04_anti_resonance_limit():
    # ten uniformly spaced hbar values over the mirror half of the pattern,
    # pattern centre included
    rationals = [Fraction(j, 20) for j in range(1, 11)]
    worst_dev = 0.0
    for fr in rationals:
        model = model_from_ratios(DKRM_GENERAL, 0.0, 0.0,
                                  fr.numerator, fr.denominator, resonance=(1, 2))
        eps = aggregated_energies(model, 16)
        dev = np.min(np.abs(eps[:, None] - np.array([0.0, np.pi, -np.pi])), axis=1)
        worst_dev = max(worst_dev, float(np.max(dev)))
    print(f"criterion 04a: zero-kick quasienergies off {{0, pi}} by "
          f"{worst_dev:.3e} (tolerance 1e-10)")
    assert worst_dev < 1e-10

    # level clusters grow around 0 and +-pi; the branches touch when the
    # empty arcs straddling +-pi/2 collapse somewhere along the scan
    min_gap = math.inf
    for fr in rationals:
        model = model_from_ratios(DKRM_GENERAL, math.pi / 2, math.pi / 2,
                                  fr.numerator, fr.denominator, resonance=(1, 2))
        eps = aggregated_energies(model, 16)
        min_gap = min(min_gap, empty_arc_width(eps, math.pi / 2),
                      empty_arc_width(eps, -math.pi / 2))
    print(f"criterion 04b: smallest inter-branch gap {min_gap:.3e} "
          f"(tolerance 0.05)")
    assert min_gap < 0.05


# ── transport regimes ──────────────────────────────────────────────────────

def test_criterion_05_anomalous_diffusion_exponent():
    model = ModelSpec(DKRM_RESONANT, 3.9, 3.9, EffPlanck(1.0))
    series = delta_run(model, 10_000, max_sites=2 ** 17)
    fit = fit_power_law(series, (100.0, 10_000.0))
    print(f"criterion 05: alpha {fit.alpha:.4f} (bracket [0.72, 0.92])")
    assert 0.72 <= fit.alpha <= 0.92


def test_criterion_06_strong_localization():
    model = ModelSpec(DKRM_RESONANT, 1.8, 1.8, parse_effective_planck("2pi*3/19"))
    series = delta_run(model, 100_000)
    fit = fit_power_law(series, (100.0, 100_000.0))
    label = classify_transport(fit, series)
    early = np.median(series.variance[series.steps <= 1000][1:])
    bound = float(np.max(series.variance)) / early
    print(f"criterion 06: classification {label!r}, max/early-median "
          f"{bound:.3f} (tolerance 10)")
    assert label == "localized"
    assert bound < 10.0


def time_reversed_run(model, n_steps):
    """Variances of U^{-t}|0> for t = 0..n_steps of a dkrm-resonant model.

    One period is U = C K2 D K1 with the closing drift C = D^dag, so the
    inverse is C^dag followed by the period-kernel steps K2^dag D^dag and
    K1^dag.  The lattice doubles whenever mass nears an edge, and the step
    is retried.
    """
    hb = model.hbar_eff.value
    margin = 8 + sum(kick_coefficients(k / hb).cutoff
                     for k in (model.k1, model.k2))

    def inverse_steps(psi):
        drift = quantum._diagonal_table((QuadraticPhase(-hb),), psi.l_min, psi.n_sites)
        return [(quantum._kick_table(-model.k2 / hb, psi.n_sites), (drift,)),
                (quantum._kick_table(-model.k1 / hb, psi.n_sites), ())]

    psi = Wavepacket.delta(l0=0, n_sites=256, hbar_eff=model.hbar_eff)
    steps = inverse_steps(psi)
    variance = [momentum_variance(psi, 0)]
    for _ in range(n_steps):
        while True:
            nxt = psi.with_amps(quantum._apply_period(
                steps, apply_quadratic_phase(psi, hb).amps))
            if edge_mass(nxt, min(margin, psi.n_sites // 2 - 1)) <= 1e-10:
                break
            psi = psi.doubled()
            steps = inverse_steps(psi)
        psi = nxt
        variance.append(momentum_variance(psi, 0))
    return np.array(variance)


def max_relative_deviation(values, reference):
    return float(np.max(np.abs(values - reference) / reference))


def test_criterion_07_ballistic_regime_and_kick_swap():
    # Kick matrices are symmetric (c_m = c_-m) and drifts diagonal, so the
    # swapped operator is U' = C U^T C^dag: from |0> the swapped run has the
    # variances of U^{-t}|0>, the time-reversed run, not those of U^t|0>.
    model = ModelSpec(DKRM_RESONANT, 4.0, 0.4, EffPlanck(1.0))
    series = delta_run(model, 2_000)
    fit = fit_power_law(series, (100.0, 2_000.0))
    swapped = ModelSpec(DKRM_RESONANT, 0.4, 4.0, EffPlanck(1.0))
    other = delta_run(swapped, 2_000)
    other_fit = fit_power_law(other, (100.0, 2_000.0))
    labels = (classify_transport(fit, series),
              classify_transport(other_fit, other))
    reversed_variance = time_reversed_run(model, 2_000)
    rev = max_relative_deviation(other.variance[1:], reversed_variance[1:])
    copy = max_relative_deviation(other.variance[1:], series.variance[1:])
    print(f"criterion 07: alpha {fit.alpha:.4f}, swapped {other_fit.alpha:.4f} "
          f"(bracket [1.8, 2.05], tolerance 0.01 apart), labels {labels}; "
          f"swapped vs time-reversed {rev:.3e} (tolerance 1e-10), "
          f"swapped vs forward {copy:.3e} (not a copy)")
    assert 1.8 <= fit.alpha <= 2.05
    assert 1.8 <= other_fit.alpha <= 2.05
    assert abs(other_fit.alpha - fit.alpha) <= 0.01
    assert labels == ("ballistic", "ballistic")
    assert rev <= 1e-10, (
        f"swapped-kick variance series deviates from the time-reversed run "
        f"by {rev:.3e} relative")


# ── fractal spectra ────────────────────────────────────────────────────────

def test_criterion_08_fractal_dimension_of_the_critical_spectrum():
    hb = EffPlanck.from_rational(89, 233)
    d0 = {}
    for kind in (KHM, DKRM_RESONANT):
        eps = aggregated_energies(ModelSpec(kind, 1.0, 1.0, hb), 64)
        d0[kind] = box_counting_dimension(eps).d0
    print(f"criterion 08: D0 khm {d0[KHM]:.4f}, double-kick "
          f"{d0[DKRM_RESONANT]:.4f} (bracket [0.4, 0.6])")
    assert 0.4 <= d0[KHM] <= 0.6
    assert 0.4 <= d0[DKRM_RESONANT] <= 0.6


# ── numerical oracles ──────────────────────────────────────────────────────

def test_criterion_09_oracle_equivalences():
    worst_coeff = 0.0
    for x in (1.0, 3.9):
        co = kick_coefficients(x)
        for m in range(-co.cutoff, co.cutoff + 1):
            re = quad(lambda q: math.cos(x * math.cos(q) + m * q),
                      0.0, TWO_PI, limit=200)[0] / TWO_PI
            im = quad(lambda q: math.sin(x * math.cos(q) + m * q),
                      0.0, TWO_PI, limit=200)[0] / TWO_PI
            worst_coeff = max(worst_coeff, abs(co.coeff(m) - (re - 1j * im)))

    rng = np.random.default_rng(42)
    n = 512
    amps = np.zeros(n, dtype=np.complex128)
    amps[n // 2 - 30:n // 2 + 30] = (rng.normal(size=60)
                                     + 1j * rng.normal(size=60))
    amps /= np.linalg.norm(amps)
    psi = Wavepacket(-n // 2, n // 2 - 1, amps, EffPlanck(1.0))
    co = kick_coefficients(2.2)
    ref = np.convolve(amps, co.coeffs)[co.cutoff:co.cutoff + n]
    worst_kick = float(np.max(np.abs(apply_kick(psi, 2.2).amps - ref)))

    model = ModelSpec(KHM, 0.7 * TWO_PI, 0.2 * TWO_PI,
                      parse_effective_planck("2pi*1/1"))
    worst_bloch = 0.0
    for theta in theta_grid(8):
        eps = quasienergies(build_bloch_matrix(model, theta))[0]
        target = 0.2 + 0.7 * math.cos(theta)
        target = (target + np.pi) % TWO_PI - np.pi
        if target <= -np.pi:
            target += TWO_PI
        worst_bloch = max(worst_bloch, abs(eps - target))

    print(f"criterion 09: coefficient oracle {worst_coeff:.3e}, kick oracle "
          f"{worst_kick:.3e}, closed-form block {worst_bloch:.3e} "
          f"(tolerance 1e-10)")
    assert worst_coeff < 1e-10
    assert worst_kick < 1e-10
    assert worst_bloch < 1e-10


def test_criterion_10_hausdorff_inference():
    value = hausdorff_from_alpha(0.82)
    print(f"criterion 10: hausdorff_from_alpha(0.82) = {value} (expected 0.41)")
    assert value == 0.41
