"""Floquet factor construction, lattice kernels, and long-time evolution."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from kickedharper import quantum
from kickedharper import (
    DKRM_GENERAL,
    DKRM_RESONANT,
    KHM,
    EffPlanck,
    HarperPhase,
    KickFactor,
    LatticeOverflowError,
    ModelSpec,
    NumericalError,
    QuadraticPhase,
    ResourceLimitError,
    Wavepacket,
    apply_floquet,
    apply_kick,
    apply_quadratic_phase,
    edge_mass,
    evolve,
    floquet_factors,
    kick_coefficients,
    lattice_period,
    momentum_variance,
    parse_effective_planck,
)
from kickedharper.quantum import trigger_margin
from test_spectrum import period_sweep_models, plain_period

TWO_PI = 2.0 * math.pi


# ── kick coefficients ──────────────────────────────────────────────────────

def quadrature_coefficient(x, m):
    re = quad(lambda q: math.cos(x * math.cos(q) + m * q), 0.0, TWO_PI,
              limit=200)[0] / TWO_PI
    im = quad(lambda q: math.sin(x * math.cos(q) + m * q), 0.0, TWO_PI,
              limit=200)[0] / TWO_PI
    return re - 1j * im


def test_kick_coefficients_match_quadrature():
    for x in (0.3, 1.0, 3.9, 7.2):
        co = kick_coefficients(x)
        for m in range(-co.cutoff, co.cutoff + 1):
            assert abs(co.coeff(m) - quadrature_coefficient(x, m)) < 1e-10


def test_kick_coefficients_are_scaled_bessel_values():
    for x in (0.5, 1.0, 2.7, 6.1):
        co = kick_coefficients(x)
        for m in range(-co.cutoff, co.cutoff + 1):
            assert abs(co.coeff(m) - (-1j) ** m * jv(m, x)) < 1e-12


def test_kick_coefficients_frozen_reference_values():
    co = kick_coefficients(1.0)
    assert abs(co.coeff(0) - 0.7651976865579666) < 1e-12
    assert abs(co.coeff(1) - (-1j) * 0.4400505857449335) < 1e-12
    assert abs(co.coeff(-1) - co.coeff(1)) < 1e-14
    # one cached object per strength, shared by every caller, so its array is read-only
    assert kick_coefficients(1) is co and not co.coeffs.flags.writeable


def test_kick_coefficients_invariants():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 12.0, size=12):
        co = kick_coefficients(float(x))
        ms = np.arange(-co.cutoff, co.cutoff + 1)
        assert np.max(np.abs(co.coeffs[::-1] - co.coeffs)) < 1e-14   # even in m
        assert abs(np.sum(np.abs(co.coeffs) ** 2) - 1.0) < 1e-12     # unitary row
        assert np.all(np.abs(co.coeffs[[0, -1]]) >= 0)
        assert co.coeff(co.cutoff + 1) == 0.0
        assert ms.size == 2 * co.cutoff + 1


def test_kick_coefficients_zero_strength_is_identity():
    co = kick_coefficients(0.0)
    assert co.cutoff == 0
    assert co.coeff(0) == pytest.approx(1.0, abs=1e-15)


def test_kick_coefficients_rejects_bad_input():
    with pytest.raises(ValueError):
        kick_coefficients(-1.0)
    with pytest.raises(ValueError):
        kick_coefficients(float("nan"))


def test_kick_coefficients_raise_when_the_tail_reaches_the_grid_edge(monkeypatch):
    # with no tolerance every coefficient counts, up to the sampling grid's Nyquist site
    quantum._kick_coefficients_cached.cache_clear()
    monkeypatch.setattr(quantum, "COEFF_TOL", 0.0)
    try:
        with pytest.raises(NumericalError, match="reaches the sampling grid edge"):
            kick_coefficients(1.25)
    finally:
        quantum._kick_coefficients_cached.cache_clear()


# ── grid kick vs banded convolution ────────────────────────────────────────

def test_apply_kick_equals_banded_convolution():
    rng = np.random.default_rng(11)
    n = 512
    for x in (0.4, 1.8, 3.9):
        co = kick_coefficients(x)
        amps = np.zeros(n, dtype=np.complex128)
        mid = slice(n // 2 - 40, n // 2 + 40)
        amps[mid] = rng.normal(size=80) + 1j * rng.normal(size=80)
        amps /= np.linalg.norm(amps)
        psi = Wavepacket(-n // 2, n // 2 - 1, amps, EffPlanck(1.0))
        out = apply_kick(psi, x).amps
        ref = np.convolve(amps, co.coeffs)[co.cutoff:co.cutoff + n]
        assert np.max(np.abs(out - ref)) < 1e-10


def test_apply_kick_preserves_norm_and_inverts():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=256) + 1j * rng.normal(size=256)
    amps /= np.linalg.norm(amps)
    psi = Wavepacket(-128, 127, amps, EffPlanck(1.0))
    kicked = apply_kick(psi, 2.5)
    assert abs(np.linalg.norm(kicked.amps) - 1.0) < 1e-12
    back = apply_kick(kicked, -2.5)
    assert np.max(np.abs(back.amps - amps)) < 1e-12


# ── diagonal phase factors ─────────────────────────────────────────────────

def test_quadratic_phase_exact_table_matches_float_formula():
    l = np.arange(-300, 301)
    for num, den in ((1, 1), (3, 8), (5, 12), (89, 233)):
        tau = TWO_PI * num / den
        exact = QuadraticPhase(tau, Fraction(num, den)).values(l)
        naive = np.exp(-1j * tau * l.astype(float) ** 2 / 2.0)
        assert np.max(np.abs(exact - naive)) < 1e-9


def test_quadratic_phase_exact_table_is_periodic():
    q = QuadraticPhase(TWO_PI * 3 / 7, Fraction(3, 7))
    l = np.arange(-50, 50)
    assert np.array_equal(q.values(l), q.values(l + 14))
    assert np.array_equal(q.values(l), q.values(l - 14))


def test_quadratic_phase_rejects_mismatched_tag():
    with pytest.raises(ValueError):
        QuadraticPhase(1.0, Fraction(1, 2))


def test_harper_phase_exact_table_matches_float_formula():
    hb = parse_effective_planck("2pi*3/19")
    hp = HarperPhase(1.7, hb)
    l = np.arange(-100, 100)
    naive = np.exp(-1j * 1.7 * np.cos(hb.value * l.astype(float)))
    assert np.max(np.abs(hp.values(l) - naive)) < 1e-9
    assert np.array_equal(hp.values(l), hp.values(l + 19))
    # the table is the kick table on den sites, with the bits of the formula it replaced
    angles = TWO_PI * np.arange(19) / 19
    inline = np.exp(-1j * 1.7 * np.cos(angles))[(3 % 19) * (l % 19) % 19]
    assert np.array_equal(hp.values(l), inline)


def test_apply_quadratic_phase_is_sitewise():
    psi = Wavepacket.delta(l0=3, n_sites=16)
    out = apply_quadratic_phase(psi, 0.37)
    assert abs(out.amps[8] - np.exp(-1j * 0.37 * 9 / 2.0)) < 1e-15


# ── factor layout per model ────────────────────────────────────────────────

def test_harper_model_factors():
    hb = EffPlanck(2.0)
    fs = floquet_factors(ModelSpec(KHM, 3.0, 1.0, hb))
    assert len(fs) == 2
    assert isinstance(fs[0], KickFactor) and fs[0].strength == 1.5
    assert isinstance(fs[1], HarperPhase) and fs[1].strength == 0.5


def test_resonant_double_kick_factors():
    hb = parse_effective_planck("2pi*1/3")
    fs = floquet_factors(ModelSpec(DKRM_RESONANT, 2.0, 1.0, hb))
    assert len(fs) == 4
    assert isinstance(fs[0], KickFactor) and isinstance(fs[2], KickFactor)
    assert fs[1].coeff == pytest.approx(hb.value)
    assert fs[3].coeff == pytest.approx(-hb.value)
    assert fs[1].cycles == Fraction(1, 3) and fs[3].cycles == Fraction(-1, 3)


def test_general_resonance_factors_rational_and_irrational():
    rational = ModelSpec(DKRM_GENERAL, 1.0, 1.0,
                         parse_effective_planck("2pi*1/5"), resonance=(1, 2))
    fs = floquet_factors(rational)
    assert len(fs) == 4
    assert fs[3].cycles == Fraction(1, 1) - Fraction(1, 5)

    irrational = ModelSpec(DKRM_GENERAL, 1.0, 1.0, EffPlanck(1.3),
                           resonance=(1, 2))
    gs = floquet_factors(irrational)
    assert len(gs) == 5
    assert gs[3].cycles == Fraction(1, 1) and gs[4].cycles is None
    assert gs[3].coeff + gs[4].coeff == pytest.approx(TWO_PI - 1.3)


def flat_period_factors(model):
    """Oracle: one period as one flat factor tuple, built as floquet_factors once was."""
    hb = model.hbar_eff.value
    rp = model.hbar_eff.rational_part
    cyc = Fraction(rp.num, rp.den) if rp is not None else None
    if model.kind == KHM:
        return (KickFactor(model.k1 / hb),
                HarperPhase(model.k2 / hb, model.hbar_eff))
    nu, mu = model.resonance
    res = Fraction(2 * nu, mu) % 2
    res_coeff = TWO_PI * res.numerator / res.denominator
    if cyc is not None:
        closing = (QuadraticPhase(res_coeff - hb, res - cyc),)
    else:
        closing = (QuadraticPhase(res_coeff, res), QuadraticPhase(-hb, None))
    return (KickFactor(model.k1 / hb), QuadraticPhase(hb, cyc),
            KickFactor(model.k2 / hb)) + closing


def test_period_steps_split_the_flat_oracle_at_its_kicks():
    untagged = [ModelSpec(KHM, 1.3, 0.7, EffPlanck(1.3)),
                ModelSpec(DKRM_RESONANT, 1.3, 0.7, EffPlanck(1.3)),
                ModelSpec(DKRM_GENERAL, 1.3, 0.7, EffPlanck(1.3), resonance=(1, 2)),
                ModelSpec(DKRM_GENERAL, 0.0, 0.0, EffPlanck(0.9), resonance=(2, 3))]
    for model in [*period_sweep_models(), *untagged]:
        flat = flat_period_factors(model)
        assert floquet_factors(model) == flat, model
        kicks = [i for i, f in enumerate(flat) if isinstance(f, KickFactor)] + [len(flat)]
        split = tuple((flat[i].strength, flat[i + 1:j]) for i, j in zip(kicks, kicks[1:]))
        assert quantum._period_steps(model) == split, model


def test_general_principal_resonance_matches_resonant_model():
    hb = parse_effective_planck("2pi*2/7")
    res = ModelSpec(DKRM_RESONANT, 1.4, 0.9, hb)
    gen = ModelSpec(DKRM_GENERAL, 1.4, 0.9, hb, resonance=(1, 1))
    l = np.arange(-40, 40)
    prod_res = np.ones_like(l, dtype=complex)
    prod_gen = np.ones_like(l, dtype=complex)
    for f in floquet_factors(res):
        if not isinstance(f, KickFactor):
            prod_res = prod_res * f.values(l)
    for f in floquet_factors(gen):
        if not isinstance(f, KickFactor):
            prod_gen = prod_gen * f.values(l)
    assert np.max(np.abs(prod_res - prod_gen)) < 1e-12

    rng = np.random.default_rng(11)
    amps = rng.normal(size=256) + 1j * rng.normal(size=256)
    amps /= np.linalg.norm(amps)
    for hbar in (hb, EffPlanck(1.3)):
        psi = Wavepacket(-128, 127, amps, hbar)
        out_res = plain_period(ModelSpec(DKRM_RESONANT, 1.4, 0.9, hbar), psi)
        out_gen = plain_period(ModelSpec(DKRM_GENERAL, 1.4, 0.9, hbar, (1, 1)), psi)
        assert np.array_equal(out_res, out_gen)
    assert lattice_period(res) == lattice_period(gen)


def test_half_order_resonance_with_zero_kicks_alternates_sign():
    hb = parse_effective_planck("2pi*1/4")
    model = ModelSpec(DKRM_GENERAL, 0.0, 0.0, hb, resonance=(1, 2))
    psi = Wavepacket.delta(l0=0, n_sites=32, hbar_eff=hb)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    psi = psi.with_amps(amps)
    out = plain_period(model, psi)
    signs = (-1.0) ** np.abs(psi.sites())
    assert np.max(np.abs(out - signs * amps)) < 1e-12


# ── one full period on the lattice ─────────────────────────────────────────

def test_apply_floquet_is_unitary_on_interior_states():
    rng = np.random.default_rng(17)
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 1.1, 0.8, hb)
    amps = np.zeros(256, dtype=np.complex128)
    amps[96:160] = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps /= np.linalg.norm(amps)
    psi = Wavepacket(-128, 127, amps, hb)
    out = apply_floquet(model, psi)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_apply_floquet_matches_factorwise_application():
    hb = parse_effective_planck("2pi*1/3")
    model = ModelSpec(DKRM_RESONANT, 1.3, 0.6, hb)
    psi = Wavepacket.delta(l0=0, n_sites=128, hbar_eff=hb)
    manual = psi
    for f in floquet_factors(model):
        if isinstance(f, KickFactor):
            manual = apply_kick(manual, f.strength)
        else:
            manual = manual.with_amps(manual.amps * f.values(manual.sites()))
    out = apply_floquet(model, psi)
    assert np.max(np.abs(out.amps - manual.amps)) < 1e-12


def test_apply_floquet_raises_when_lattice_is_too_small():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 4.0, 4.0, hb)
    psi = Wavepacket.delta(l0=0, n_sites=16, hbar_eff=hb)
    with pytest.raises(LatticeOverflowError):
        apply_floquet(model, psi)


def test_apply_floquet_fails_loudly_on_a_nan_amplitude():
    # a NaN edge mass compares False with the leak threshold, and raised as a lattice
    # overflow it would send stepped_evolve into an endless doubling
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 1.0, 1.0, hb)
    psi = Wavepacket.delta(n_sites=64, hbar_eff=hb)
    psi.amps[40] = np.nan
    with pytest.raises(NumericalError, match="edge mass is NaN on a 64-site lattice"):
        apply_floquet(model, psi)
    with pytest.raises(NumericalError):
        stepped_evolve(model, psi, 3, 1)


def dense_floquet(model, n_sites=128):
    """Matrix of one period (plain_period) on an n_sites lattice, built column by column."""
    psi = Wavepacket.delta(l0=0, n_sites=n_sites, hbar_eff=model.hbar_eff)
    cols = []
    for j in range(n_sites):
        unit = np.zeros(n_sites, dtype=np.complex128)
        unit[j] = 1.0
        cols.append(plain_period(model, psi.with_amps(unit)))
    return np.stack(cols, axis=1), psi.sites()


@pytest.mark.parametrize("kind, resonance", [(DKRM_RESONANT, (1, 1)),
                                             (DKRM_GENERAL, (1, 2))])
def test_kick_swap_is_the_transpose_conjugated_by_the_closing_drift(kind, resonance):
    # symmetric kick matrices and diagonal drifts give U' = C U^T C^dag,
    # with C the closing drift after the second kick
    hb = EffPlanck(1.0)
    model = ModelSpec(kind, 4.0, 0.4, hb, resonance=resonance)
    swapped = ModelSpec(kind, 0.4, 4.0, hb, resonance=resonance)
    u, sites = dense_floquet(model)
    u_swapped, _ = dense_floquet(swapped)
    closing = np.ones(len(sites), dtype=np.complex128)
    for f in floquet_factors(model)[3:]:
        closing = closing * f.values(sites)
    expected = closing[:, None] * u.T * closing.conj()[None, :]
    assert np.max(np.abs(u_swapped - expected)) < 1e-12
    assert np.max(np.abs(u_swapped - u)) > 0.5


# ── long-time evolution ────────────────────────────────────────────────────

def out_of_place_period(steps, amps):
    """The period kernel as a product of new arrays, one per FFT and table."""
    for kick, tables in steps:
        amps = np.fft.fft(np.fft.ifft(amps, norm="forward") * kick)
        for table in tables:
            amps = amps * table
    return amps


def test_period_kernel_fills_its_buffer_and_keeps_its_source():
    rng = np.random.default_rng(11)
    model = ModelSpec(DKRM_RESONANT, 3.9, 3.9, EffPlanck(1.0))
    # the kernel calls numpy's FFT ufuncs at scale 1 itself, with the 1/n in the kick
    # tables; sizes that are not powers of two pin that scale against np.fft's
    for n in (19, 46, 233, 256, 466, 8192):
        steps = quantum._kernel_tables(model, -n // 2, n)
        src = rng.normal(size=n) + 1j * rng.normal(size=n)
        src0, dst = src.copy(), np.empty_like(src)
        assert quantum._apply_period(steps, src, dst) is dst
        assert np.array_equal(src, src0)
        assert np.array_equal(dst, out_of_place_period(steps, src))
    # a Bloch stack steps a broadcast identity: one kick table per angle
    b, p = 9, 233
    steps = [(np.exp(-1j * rng.normal(size=(b, 1, p))), [np.exp(-1j * rng.normal(size=p))]),
             (np.exp(-1j * rng.normal(size=(b, 1, p))), [])]
    eye = np.eye(p, dtype=np.complex128)
    stack = quantum._apply_period(steps, np.broadcast_to(eye, (b, p, p)),
                                  np.empty((b, p, p), dtype=np.complex128))
    assert np.array_equal(stack, out_of_place_period(steps, eye))
    assert np.array_equal(eye, np.eye(p))


def test_evolve_fails_loudly_on_nan_amplitudes(monkeypatch):
    # NaN compares False with any bound, so each guard must be written to trip on it
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 1.0, 1.0, hb)
    psi = Wavepacket.delta(n_sites=256, hbar_eff=hb)
    real = quantum._apply_period
    for sites, n_steps, message in ((slice(None), 5, "edge mass is NaN at step 1"),
                                    (slice(128, 129), 1, "norm drifted to nan")):
        def poisoned(*args, sites=sites):
            out = real(*args)
            out[sites] = np.nan
            return out

        monkeypatch.setattr(quantum, "_apply_period", poisoned)
        with pytest.raises(NumericalError, match=message):
            evolve(model, psi, n_steps)


def test_evolve_records_at_requested_cadence():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 0.7, 0.7, hb)
    series = evolve(model, Wavepacket.delta(n_sites=256, hbar_eff=hb), 10,
                    record_every=3)
    assert list(series.steps) == [0, 3, 6, 9]
    assert series.variance[0] == 0.0
    assert series.final_norm == pytest.approx(1.0, abs=1e-10)


def stepped_evolve(model, psi, n_steps, record_every):
    """evolve as a loop over apply_floquet that doubles the lattice on overflow."""
    l0 = int(psi.l_min + np.argmax(np.abs(psi.amps)))
    steps, variance = [0], [momentum_variance(psi, l0)]
    leak = [edge_mass(psi, trigger_margin(model, psi.n_sites))]
    growth = []
    for t in range(1, n_steps + 1):
        while True:
            try:
                nxt = apply_floquet(model, psi)
                break
            except LatticeOverflowError:
                psi = psi.doubled()
                growth.append((t, psi.n_sites))
        psi = nxt
        if t % record_every == 0:
            steps.append(t)
            variance.append(momentum_variance(psi, l0))
            leak.append(edge_mass(psi, trigger_margin(model, psi.n_sites)))
    return np.array(steps), np.array(variance), np.array(leak), psi.n_sites, tuple(growth)


def test_evolve_matches_manual_floquet_loop():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 1.2, 0.9, hb)
    psi = Wavepacket.delta(l0=0, n_sites=512, hbar_eff=hb)
    series = evolve(model, psi, 8)
    cur = psi
    for t in range(1, 9):
        cur = apply_floquet(model, cur)
        assert series.variance[t] == pytest.approx(momentum_variance(cur, 0),
                                                   rel=1e-12)
    growing = ModelSpec(DKRM_RESONANT, 4.0, 0.4, hb)
    # a state spread over every site: step 0 records a nonzero variance and edge mass
    hb_rational = parse_effective_planck("2pi*3/19")
    rng = np.random.default_rng(19)
    amps = rng.normal(size=256) + 1j * rng.normal(size=256)
    spread = Wavepacket(-128, 127, amps / np.linalg.norm(amps), hb_rational)
    runs = [
        (growing, Wavepacket.delta(l0=3, n_sites=64, hbar_eff=hb), 150, 1),
        (growing, Wavepacket.delta(l0=3, n_sites=64, hbar_eff=hb), 150, 7),
        (ModelSpec(KHM, 1.5, 1.0, EffPlanck(0.9)),
         Wavepacket.delta(l0=3, n_sites=256, hbar_eff=EffPlanck(0.9)), 200, 3),
        (ModelSpec(DKRM_GENERAL, 2.0, 1.5, EffPlanck(1.3), (1, 2)),
         Wavepacket.delta(l0=3, n_sites=256, hbar_eff=EffPlanck(1.3)), 200, 1),
        (ModelSpec(DKRM_RESONANT, 1.2, 0.9, hb_rational), spread, 40, 1),
        # the model of the benchmark's evolve_localized run
        (ModelSpec(DKRM_RESONANT, 1.8, 1.8, hb_rational),
         Wavepacket.delta(l0=0, n_sites=256, hbar_eff=hb_rational), 500, 1),
    ]
    for model, psi, n_steps, record_every in runs:
        n_sites, amps0 = psi.n_sites, psi.amps.copy()
        series = evolve(model, psi, n_steps, record_every)
        assert np.array_equal(psi.amps, amps0)
        steps, variance, leak, final_sites, growth = stepped_evolve(
            model, psi, n_steps, record_every)
        assert np.array_equal(series.steps, steps)
        assert np.array_equal(series.variance, variance)
        assert np.array_equal(series.leak, leak)
        assert series.growth == growth
        assert [n for _, n in series.growth] == [
            n_sites << k for k in range(1, len(series.growth) + 1)]
        assert (series.growth[-1][1] if series.growth else n_sites) == final_sites
        if model is growing:
            assert final_sites >= 8 * n_sites
        if psi is spread:
            assert series.variance[0] > 0 and series.leak[0] > 0.1
    # a site budget reached mid-growth stops evolve at the first step after
    # which the stepped loop's lattice is larger than the budget
    psi = Wavepacket.delta(l0=3, n_sites=64, hbar_eff=hb)
    budget = 512
    first = next(t for t in range(1, 151) if stepped_evolve(growing, psi, t, 1)[3] > budget)
    assert first == next(t for t, n in evolve(growing, psi, 150).growth if n > budget)
    with pytest.raises(ResourceLimitError, match=f"at step {first}$"):
        evolve(growing, psi, 150, max_sites=budget)


def test_evolve_follows_the_stepped_loop_on_a_lattice_that_is_not_a_power_of_two():
    # evolve runs its transforms at scale 1 with the 1/n in the kick tables, the form
    # that apply_floquet runs too, so on 96 * 2^k sites the two agree bit for bit
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 4.0, 0.4, hb)
    psi = Wavepacket.delta(l0=0, n_sites=96, hbar_eff=hb)
    series = evolve(model, psi, 600)
    steps, variance, leak, final_sites, growth = stepped_evolve(model, psi, 600, 1)
    assert series.growth == growth and final_sites == 6144
    assert np.array_equal(series.steps, steps)
    assert np.array_equal(series.variance, variance)
    assert np.array_equal(series.leak, leak)


def test_evolve_is_deterministic():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 3.9, 3.9, hb)
    a = evolve(model, Wavepacket.delta(n_sites=256, hbar_eff=hb), 60)
    b = evolve(model, Wavepacket.delta(n_sites=256, hbar_eff=hb), 60)
    assert np.array_equal(a.variance, b.variance)
    assert np.array_equal(a.steps, b.steps)


def test_evolve_grows_the_lattice_instead_of_leaking():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 4.0, 0.4, hb)
    series = evolve(model, Wavepacket.delta(n_sites=64, hbar_eff=hb), 120)
    assert series.variance[-1] > hb.value ** 2 * 32 ** 2 / 4
    assert np.all(series.leak <= 1e-10)
    assert series.final_norm == pytest.approx(1.0, abs=1e-9)


def test_evolve_respects_the_site_budget():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 4.0, 4.0, hb)
    with pytest.raises(ResourceLimitError):
        evolve(model, Wavepacket.delta(n_sites=64, hbar_eff=hb), 2000,
               max_sites=128)


def test_evolve_zero_kicks_keeps_variance_at_zero():
    hb = parse_effective_planck("2pi*1/5")
    model = ModelSpec(DKRM_RESONANT, 0.0, 0.0, hb)
    series = evolve(model, Wavepacket.delta(n_sites=32, hbar_eff=hb), 40)
    assert np.all(series.variance == 0.0)


def test_evolve_variance_after_one_lone_kick_is_closed_form():
    # with the second kick off the drift phases cancel, so one period is one
    # kick and the first variance sample is hbar^2 * sum m^2 |c_m|^2 = hbar^2 x^2 / 2
    for scale in (1.0, 2.0):
        hb = EffPlanck(scale * math.pi / 3)
        model = ModelSpec(DKRM_RESONANT, 2.0 * hb.value, 0.0, hb)
        series = evolve(model, Wavepacket.delta(n_sites=512, hbar_eff=hb), 3)
        assert series.variance[1] == pytest.approx(hb.value ** 2 * 2.0,
                                                   rel=1e-12)


def test_evolve_rejects_bad_arguments():
    hb = EffPlanck(1.0)
    model = ModelSpec(DKRM_RESONANT, 1.0, 1.0, hb)
    with pytest.raises(ValueError):
        evolve(model, Wavepacket.delta(hbar_eff=hb), 0)
    with pytest.raises(ValueError):
        evolve(model, Wavepacket.delta(hbar_eff=hb), 5, record_every=0)


def test_evolve_rejects_a_wavepacket_at_another_hbar():
    # the kernel runs at the model's hbar and momentum_variance at the state's,
    # so a mismatch would scale every variance by (psi hbar / model hbar)^2
    hb = parse_effective_planck("2pi*3/19")
    model = ModelSpec(DKRM_RESONANT, 1.8, 1.8, hb)
    for other in (EffPlanck(1.0), EffPlanck(hb.value * (1 + 1e-12))):
        with pytest.raises(ValueError, match="hbar"):
            evolve(model, Wavepacket.delta(hbar_eff=other), 5)
    tagged = evolve(model, Wavepacket.delta(hbar_eff=hb), 5)
    for same in (EffPlanck(hb.value), EffPlanck(hb.value * (1 + 4e-15))):
        series = evolve(model, Wavepacket.delta(hbar_eff=same), 5)
        assert np.allclose(series.variance, tagged.variance, rtol=1e-13, atol=0)


def test_trigger_margin_is_the_clipped_kick_bandwidth():
    # trigger_margin skips the coefficients once the floors of the strengths
    # fill the clip; the sweep crosses that clip at every lattice size
    hb = EffPlanck(1.0)
    for x in np.arange(0.0, 530.0, 0.75):
        for model in (ModelSpec(KHM, x, 0.3, hb), ModelSpec(DKRM_RESONANT, x, x / 2, hb)):
            width = 8 + sum(kick_coefficients(f.strength).cutoff
                            for f in floquet_factors(model) if isinstance(f, KickFactor))
            for n in (16, 64, 256, 1024):
                assert trigger_margin(model, n) == max(1, min(width, n // 2 - 1)), (x, n)


def test_evolve_reaches_the_site_budget_without_kick_coefficients(monkeypatch):
    # at a huge kick the coefficient grid grows with the strength; the lattice
    # budget must stop evolve first (x = 3000 keeps a regression's grid small)
    calls = []
    real = quantum.kick_coefficients
    monkeypatch.setattr(quantum, "kick_coefficients", lambda x: calls.append(x) or real(x))
    hb = EffPlanck(1.0)
    with pytest.raises(ResourceLimitError):
        evolve(ModelSpec(KHM, 3000.0, 1.0, hb), Wavepacket.delta(n_sites=256, hbar_eff=hb),
               5, max_sites=1024)
    assert calls == []
