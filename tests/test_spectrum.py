"""Bloch reduction against a dense ring oracle, scan plumbing, symmetries."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from kickedharper import quantum, spectrum
from kickedharper import (
    DKRM_GENERAL,
    DKRM_RESONANT,
    KHM,
    ConfigError,
    EffPlanck,
    HarperPhase,
    KickFactor,
    ModelSpec,
    NumericalError,
    Rational,
    Wavepacket,
    aggregated_energies,
    apply_floquet,
    build_bloch_matrix,
    butterfly_scan,
    check_symmetry_claims,
    farey_sequence,
    floquet_factors,
    kick_coefficients,
    lattice_period,
    model_from_ratios,
    model_spectrum,
    parse_effective_planck,
    quasienergies,
    scan_rationals,
    spectrum_set_distance,
    theta_grid,
)
from kickedharper.cli import main

TWO_PI = 2.0 * math.pi


def wrap_phase(x):
    out = np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi
    out = np.where(out <= -np.pi, out + TWO_PI, out)
    return out


# ── lattice period ─────────────────────────────────────────────────────────

def test_lattice_period_per_model():
    assert lattice_period(ModelSpec(KHM, 1.0, 1.0,
                                    parse_effective_planck("2pi*2/5"))) == 5
    assert lattice_period(ModelSpec(DKRM_RESONANT, 1.0, 1.0,
                                    parse_effective_planck("2pi*1/3"))) == 6
    assert lattice_period(ModelSpec(DKRM_RESONANT, 1.0, 1.0,
                                    parse_effective_planck("2pi*1/4"))) == 4
    assert lattice_period(ModelSpec(DKRM_GENERAL, 1.0, 1.0,
                                    parse_effective_planck("2pi*1/5"),
                                    resonance=(1, 2))) == 10


def test_lattice_period_needs_a_rational_tag():
    with pytest.raises(ConfigError):
        lattice_period(ModelSpec(KHM, 1.0, 1.0, EffPlanck(1.0)))


def candidate_scan_period(model):
    """Oracle: the first of den (khm) or lcm(den, mu)*{1, 2, 4} at which every
    diagonal factor's values repeat on a 3P-site window."""
    rp = model.hbar_eff.rational_part
    if model.kind == KHM:
        candidates = (rp.den,)
    else:
        base = math.lcm(rp.den, model.resonance[1])
        candidates = (base, 2 * base, 4 * base)
    diags = [f for f in floquet_factors(model) if not isinstance(f, KickFactor)]
    for period in candidates:
        window = np.arange(0, 3 * period, dtype=np.int64)
        if all(np.max(np.abs(d.values(window + period) - d.values(window))) < 1e-12
               for d in diags):
            return period
    raise AssertionError(f"no verified lattice period among {candidates}")


PERIOD_SWEEP_FAMILIES = [(KHM, None), (DKRM_RESONANT, None)] + [
    (DKRM_GENERAL, res) for res in [(1, 1), (1, 2), (1, 3), (2, 3), (3, 4),
                                    (1, 4), (3, 2), (5, 3), (7, 6), (5, 8)]]


def period_sweep_models():
    for kind, resonance in PERIOD_SWEEP_FAMILIES:
        for r in scan_rationals(kind, 12, 4):
            for ratios in ((1.0, 0.5), (0.0, 0.0)):
                yield model_from_ratios(kind, *ratios, r.num, r.den, resonance)


def sweep_diagonal_factors():
    return {f for model in period_sweep_models() for f in floquet_factors(model)
            if not isinstance(f, KickFactor)}


def test_lattice_period_equals_the_candidate_scan_and_factor_periods_are_exact():
    for model in period_sweep_models():
        assert lattice_period(model) == candidate_scan_period(model), model
    for f in sweep_diagonal_factors():
        p = f.period
        sites = np.arange(-2 * p, 2 * p, dtype=np.int64)
        assert np.array_equal(f.values(sites + p), f.values(sites)), f
        if isinstance(f, HarperPhase) and f.strength == 0.0:
            continue                    # constant table: it repeats at every shift
        for d in (d for d in range(1, p) if p % d == 0):
            gap = np.max(np.abs(f.values(sites + d) - f.values(sites)))
            assert gap > 1e-6, (f, d)


def test_diagonal_factor_jumps_follow_their_tags():
    """values(l + m*b) = (-1)^(a*b*m) values(l) for a drift tagged a/b, and
    values(l + m*den) = values(l) for a Harper phase; no other shift below b
    multiplies the table by a constant."""
    for f in sweep_diagonal_factors():
        if isinstance(f, HarperPhase):
            a, b = 0, f.period
        else:
            a, b = f.cycles.numerator, f.cycles.denominator
        sites = np.arange(-2 * b, 4 * b, dtype=np.int64)
        base = f.values(sites)
        for m in (1, 2):
            jump = (-1) ** (a * b * m % 2)
            assert f.jump(m * b) == jump, (f, m)
            shifted = f.values(sites + m * b)
            if jump == 1:
                assert np.array_equal(shifted, base), (f, m)
            else:
                # the table's two halves are rounded separately, so a sign
                # flip is exact only to the last bit
                assert np.max(np.abs(shifted + base)) <= 4e-15, (f, m)
        if isinstance(f, HarperPhase) and f.strength == 0.0:
            continue                    # constant table: every shift is a jump
        for d in range(1, b):
            assert f.jump(d) is None
            ratio = f.values(sites + d) / base
            assert np.max(np.abs(ratio - ratio[0])) > 1e-6, (f, d)


def fold_of(model):
    return spectrum._period_and_fold(model, quantum._period_steps(model))[1]


def test_folded_models_commute_with_translation_by_the_folded_period():
    """The dense operator on a 2P-site ring commutes with translation by P/2
    for every model of the sweep that folds (P = lattice_period)."""
    folded = set()
    for model in period_sweep_models():
        if fold_of(model) == 1:
            continue
        folded.add((model.kind, model.resonance))
        period = lattice_period(model)
        steps = quantum._kernel_tables(model, 0, 2 * period)
        ring = quantum._apply_period(steps, np.eye(2 * period, dtype=np.complex128)).T
        shift = np.roll(np.eye(2 * period), period // 2, axis=0)
        assert np.max(np.abs(shift @ ring - ring @ shift)) <= 1e-13, model
    assert (DKRM_RESONANT, (1, 1)) in folded and (DKRM_GENERAL, (1, 1)) in folded
    assert all(kind != KHM for kind, _ in folded)
    fib = parse_effective_planck("2pi*89/233")
    assert fold_of(ModelSpec(DKRM_RESONANT, 1.0, 1.0, fib)) == 2
    assert fold_of(ModelSpec(KHM, 1.0, 1.0, fib)) == 1


# ── theta grid ─────────────────────────────────────────────────────────────

def test_theta_grid_is_uniform_and_closed_under_negation():
    th = theta_grid(6)
    assert th.shape == (6,)
    assert np.allclose(th, TWO_PI * np.arange(6) / 6)
    negated = {round(x, 12) for x in np.mod(-th, TWO_PI)}
    assert negated == {round(x, 12) for x in th}
    assert list(theta_grid(1)) == [0.0]
    with pytest.raises(ValueError, match="theta count"):
        theta_grid(0)


def eigvals_phases(u):
    """Oracle: sorted eigenphases from the dense non-symmetric eigen-solve."""
    eps = -np.angle(np.linalg.eigvals(u))
    eps[eps <= -np.pi] += TWO_PI
    eps.sort()
    return eps


# ── Bloch blocks against a dense ring ──────────────────────────────────────

def ring_eigenphases(model, n_sites):
    cols = []
    for j in range(n_sites):
        amps = np.zeros(n_sites, dtype=np.complex128)
        amps[j] = 1.0
        psi = Wavepacket(0, n_sites - 1, amps, model.hbar_eff)
        cols.append(apply_floquet(model, psi, leak_threshold=math.inf).amps)
    u = np.stack(cols, axis=1)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n_sites))) < 1e-10
    return eigvals_phases(u)


def bloch_union(model, sector_count):
    parts = [quasienergies(build_bloch_matrix(model, th))
             for th in theta_grid(sector_count)]
    return np.sort(np.concatenate(parts))


def test_list_resonance_is_stored_as_a_tuple():
    hb = EffPlanck.from_rational(1, 5)
    listed = ModelSpec(DKRM_GENERAL, 1.0, 2.0, hb, [1, 2])
    paired = ModelSpec(DKRM_GENERAL, 1.0, 2.0, hb, (1, 2))
    assert listed == paired and hash(listed) == hash(paired)
    assert np.array_equal(build_bloch_matrix(listed, 0.7),
                          build_bloch_matrix(paired, 0.7))
    scans = [butterfly_scan(DKRM_GENERAL, 1.0, 0.5, 2, 2, resonance=res)
             for res in ([1, 2], (1, 2))]
    assert scans[0].hbars == scans[1].hbars
    assert all(map(np.array_equal, scans[0].energies, scans[1].energies))


@pytest.mark.parametrize("model,sectors", [
    (ModelSpec(KHM, 0.8, 1.3, parse_effective_planck("2pi*1/3")), 5),
    (ModelSpec(DKRM_RESONANT, 1.1, 0.6, parse_effective_planck("2pi*1/3")), 4),
    (ModelSpec(DKRM_GENERAL, 0.9, 0.9, parse_effective_planck("2pi*1/5"),
               resonance=(1, 2)), 3),
])
def test_bloch_union_equals_dense_ring_spectrum(model, sectors):
    n = lattice_period(model) * sectors
    ring = ring_eigenphases(model, n)
    union = bloch_union(model, sectors)
    assert ring.size == union.size == n
    assert np.max(np.abs(ring - union)) < 1e-8


def test_one_by_one_block_matches_closed_form():
    model = ModelSpec(KHM, 0.8 * TWO_PI, 0.3 * TWO_PI,
                      parse_effective_planck("2pi*1/1"))
    for theta in theta_grid(9):
        eps = quasienergies(build_bloch_matrix(model, theta))
        assert eps.shape == (1,)
        expected = wrap_phase(0.3 + 0.8 * math.cos(theta))
        assert abs(eps[0] - expected) < 1e-10


def test_quasienergies_wrap_into_the_half_open_interval():
    eps = quasienergies(np.array([[-1.0 + 0j]]))
    assert eps[0] == pytest.approx(np.pi)
    with pytest.raises(NumericalError):
        quasienergies(np.array([[0.5 + 0j]]))


def test_an_eigenphase_within_rounding_of_minus_pi_reads_as_pi():
    """Either side of the seam is -1 up to rounding; the row ends in pi so that it does
    not depend on which side a solve's rounding fell on."""
    seam = spectrum.SEAM_TOL
    assert spectrum._sorted_half_open(np.array([seam / 2 - np.pi, 0.5])).tolist() == [0.5, np.pi]
    assert spectrum._sorted_half_open(np.array([2 * seam - np.pi, 0.5]))[0] == 2 * seam - np.pi
    eps = quasienergies(np.diag(np.exp(-1j * np.array([0.3, 1e-15 - np.pi]))))
    assert eps.tolist() == [pytest.approx(0.3, abs=1e-14), np.pi]


# ── khm blocks: the real solve through time reversal ───────────────────────

@pytest.fixture
def cayley_paths(monkeypatch):
    """(real solve?, blocks, largest |M - M^T| of a block) per _cayley_phases call."""
    calls, solve = [], spectrum._cayley_phases

    def spy(u, pole, *symmetric):
        calls.append((bool(symmetric and symmetric[0]), u.shape[0],
                      float(np.max(np.abs(u - u.swapaxes(1, 2))))))
        return solve(u, pole, *symmetric)

    monkeypatch.setattr(spectrum, "_cayley_phases", spy)
    return calls


def khm_stack(models, thetas):
    """A _bloch_spectra stack of one-step blocks: block b is models[b % M] at thetas[b]."""
    owner = np.arange(len(thetas)) % len(models)
    return ([quantum._period_steps(m) for m in models], owner,
            np.asarray(thetas, dtype=np.float64), lattice_period(models[0]))


def assert_real_solve_matches_the_complex_one_and_eigvals(models, thetas):
    stack = khm_stack(models, thetas)
    real = spectrum._solve_stack(stack)
    complex_solve = spectrum._stack_phases(spectrum._bloch_stack(*stack))
    for b, theta in enumerate(thetas):
        dense = eigvals_phases(build_bloch_matrix(models[b % len(models)], theta))
        assert spectrum_set_distance(real[b], complex_solve[b]) <= 1e-12, (b, theta)
        assert spectrum_set_distance(real[b], dense) <= 1e-12, (b, theta)


@pytest.mark.parametrize("num,den,ratios", [
    (89, 233, (1.0, 1.0)), (5, 13, (1.0, 0.5)),                      # odd P
    (55, 144, (1.0, 1.0)), (3, 8, (1.0, 0.5)), (1, 2, (1.0, 0.5))])  # even: fixed 0 and P/2
def test_real_khm_solve_matches_the_complex_solve_and_eigvals(num, den, ratios, cayley_paths,
                                                            no_fallback):
    assert_real_solve_matches_the_complex_one_and_eigvals(
        [model_from_ratios(KHM, *ratios, num, den)], [0.0, math.pi, 2.1])
    real = [c for c in cayley_paths if c[0]]
    assert [c[1] for c in real] == [3]                  # one first pass, all three blocks
    assert real[0][2] < 1e-13                           # and they reached it symmetric


def test_real_khm_solve_reads_each_block_with_its_own_model(cayley_paths, no_fallback):
    """A stack holds blocks of several rationals and kick strengths of one period."""
    models = [model_from_ratios(KHM, r1, r2, num, 13)
              for num, r1, r2 in [(5, 1.0, 0.5), (6, 2.3, 0.4), (4, 0.7, 1.9)]]
    assert_real_solve_matches_the_complex_one_and_eigvals(models, theta_grid(7))
    assert [c[:2] for c in cayley_paths if c[0]] == [(True, 7)]


def test_real_khm_solve_takes_one_square_root_per_site_pair(cayley_paths, no_fallback):
    """At hbar = 2 pi 1/5 and this k2 the Harper table is -1 at the sites 2 and 3, up to
    rounding on either side of the square root's branch cut; h is read at min(l, P - l),
    so the pair keeps one root and the block stays symmetric."""
    model = ModelSpec(KHM, 1.0, 4.879800780311018, EffPlanck.from_rational(1, 5))
    table = quantum._diagonal_table(quantum._period_steps(model)[0][1], 0, 5)
    assert table[2].real < -0.99 and table[2].imag > 0 > table[3].imag
    assert_real_solve_matches_the_complex_one_and_eigvals([model], [0.0, 1.3])
    assert all(c[2] < 1e-13 for c in cayley_paths if c[0])
    assert cayley_paths[0][:2] == (True, 2)


def test_real_khm_solve_re_solves_a_block_near_its_first_pole(cayley_paths, no_fallback):
    """k/hbar 4.0 and 4.0 at hbar = 2 pi 2/7 fill the circle: at theta = 2 pi 3/16 an
    eigenphase lies 0.006 from the first pole, and the re-solve is real too."""
    assert_real_solve_matches_the_complex_one_and_eigvals(
        [model_from_ratios(KHM, 4.0, 4.0, 2, 7)], [TWO_PI * 3 / 16])
    assert [c[:2] for c in cayley_paths if c[0]] == [(True, 1), (True, 1)]


def test_critical_fractal_khm_blocks_all_take_the_real_solve(tmp_path, cayley_paths,
                                                           monkeypatch):
    """The benchmark's critical fractals: all 9 khm blocks (P = 233) take the real solve,
    and the double kick's 5 keep the complex one.  No block falls back to eigvals: a wrong
    symmetrization still gives the right spectra through that fallback, only slower."""
    fallbacks, dense = [], spectrum._eigvals_phases
    monkeypatch.setattr(spectrum, "_eigvals_phases",
                        lambda u: fallbacks.append(u.shape) or dense(u))
    for kind, theta_count, path in [(KHM, 16, True), (DKRM_RESONANT, 8, False)]:
        cayley_paths.clear()
        cfg = {"command": "fractal", "theta_count": theta_count,
               "output_prefix": str(tmp_path / kind),
               "model": {"kind": kind, "k1": 1.0, "k2": 1.0, "hbar": "2pi*89/233"}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main([str(tmp_path / "c.json")]) == 0
        assert [c[:2] for c in cayley_paths] == [(path, 1)] * (9 if path else 5), kind
        assert all(c[2] < 1e-13 for c in cayley_paths if c[0])
    assert fallbacks == []


# ── Cayley eigen-solve against the dense eigvals oracle ────────────────────

def assert_matches_oracle(block):
    before = block.copy()
    eps = quasienergies(block)
    assert np.array_equal(block, before)                # input left untouched
    assert eps.shape == (len(block),)
    assert np.all(np.diff(eps) >= 0)
    assert np.all((eps > -np.pi) & (eps <= np.pi))
    assert spectrum_set_distance(eps, eigvals_phases(block)) <= 1e-12


SOLVER_THETAS = (0.0, math.pi / 2, math.pi, 4.4)


@pytest.fixture
def no_fallback(monkeypatch):
    """Fail the test if a block leaves the Cayley path for eigvals."""
    def fail(u):
        raise AssertionError(f"{u.shape} block fell back to eigvals")
    monkeypatch.setattr(spectrum, "_eigvals_phases", fail)


@pytest.mark.parametrize("kind,resonance", [
    (KHM, None), (DKRM_RESONANT, None), (DKRM_GENERAL, (1, 2))])
@pytest.mark.parametrize("ratios", [(1.0, 0.5), (0.0, 0.0)],
                         ids=["kicked", "zero-kick"])  # zero kick: degenerate spectra
def test_cayley_solve_matches_eigvals_over_a_scan(kind, resonance, ratios, no_fallback):
    periods = set()
    for r in scan_rationals(kind, 11):
        model = model_from_ratios(kind, *ratios, r.num, r.den, resonance)
        for theta in SOLVER_THETAS:
            block = build_bloch_matrix(model, theta)
            periods.add(len(block))
            assert_matches_oracle(block)
    if kind == KHM:
        assert 1 in periods                                 # the 1/1 blocks


@pytest.mark.parametrize("kind,period", [(KHM, 233), (DKRM_RESONANT, 466)])
def test_cayley_solve_matches_eigvals_at_the_fibonacci_rational(kind, period,
                                                              no_fallback):
    model = ModelSpec(kind, 1.0, 1.0, parse_effective_planck("2pi*89/233"))
    for theta in (0.0, 4.4):
        block = build_bloch_matrix(model, theta)
        assert block.shape == (period, period)
        assert_matches_oracle(block)


def test_eigenphase_at_the_first_pole_forces_one_re_solve(monkeypatch, no_fallback):
    """The first pole is CAYLEY_TILT - arg(-tr U), so at CAYLEY_TILT - pi when tr U is
    real and positive; the last eigenphase cancels the sines, making tr U real."""
    poles = []
    solve = spectrum._cayley_phases

    def spy(u, pole, *symmetric):
        poles.append(pole)
        return solve(u, pole, *symmetric)

    monkeypatch.setattr(spectrum, "_cayley_phases", spy)
    pole = spectrum.CAYLEY_TILT - np.pi
    head = np.array([-1.0, 0.3, pole])
    eps = np.append(head, np.arcsin(-np.sin(head).sum()))
    assert np.exp(-1j * eps).sum().real > 0
    assert_matches_oracle(np.diag(np.exp(-1j * eps)))
    assert len(poles) == 2 and abs(wrap_phase(poles[0] - pole)) < 1e-12
    assert abs(poles[1] - (eps[-1] + pole + TWO_PI) / 2) < 1e-12   # the widest gap


@pytest.fixture
def cayley_calls(monkeypatch):
    """Blocks per _cayley_phases call, tagged 1 for a first pass and 2 for a re-solve
    (the call after a first pass within one _stack_phases)."""
    calls, solve, stack_phases = [], spectrum._cayley_phases, spectrum._stack_phases

    def stacked(u, *symmetric):
        calls.append(None)
        return stack_phases(u, *symmetric)

    def spy(u, pole, *symmetric):
        calls.append((1 if calls[-1] is None else 2, u.shape[0]))
        return solve(u, pole, *symmetric)

    monkeypatch.setattr(spectrum, "_stack_phases", stacked)
    monkeypatch.setattr(spectrum, "_cayley_phases", spy)
    return calls


def test_gapped_scan_spectra_are_solved_once_per_block(tmp_path, cayley_calls, no_fallback):
    """The benchmark's scan configs (dkrm-resonant k/hbar 1.0 and 0.5): the kicks leave
    a gap of about pi - 1.5 around the tilted trace pole, so no block is re-solved."""
    model = {"kind": DKRM_RESONANT, "k1": 1.0, "k2": 0.5}
    for cfg, blocks in [({"command": "butterfly", "s_max": 24, "theta_count": 4}, 661),
                        ({"command": "check-symmetries", "s_max": 20, "theta_count": 32,
                          "n_rationals": 10}, 808)]:
        cayley_calls.clear()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(cfg, model=model,
                                        output_prefix=str(tmp_path / cfg["command"]))))
        assert main([str(path)]) == 0
        passes = [c for c in cayley_calls if c is not None]
        assert sum(n for tag, n in passes if tag == 1) == blocks
        assert [c for c in passes if c[0] == 2] == [], cfg["command"]


def test_full_circle_spectra_are_re_solved_and_match_eigvals(cayley_calls, no_fallback):
    """Spectra that wrap the circle (a double kick off the principal resonance, or khm
    with k/hbar summing above pi) leave no gap opposite the centroid: some blocks need
    the widest-gap re-solve, and every block still matches eigvals."""
    for kind, ratios, resonance in [(DKRM_GENERAL, (1.0, 2.0), (1, 2)),
                                    (KHM, (2.5, 1.5), None)]:
        cayley_calls.clear()
        for r in scan_rationals(kind, 8):
            model = model_from_ratios(kind, *ratios, r.num, r.den, resonance)
            for theta in SOLVER_THETAS:
                assert_matches_oracle(build_bloch_matrix(model, theta))
        assert any(c is not None and c[0] == 2 for c in cayley_calls), kind


def test_first_pole_lies_opposite_the_spectral_centroid(monkeypatch, no_fallback):
    """A spectrum within an arc about c gets its first pole near c + pi (turned by
    CAYLEY_TILT), well clear of every eigenphase, so it is solved once."""
    poles = []
    solve = spectrum._cayley_phases
    monkeypatch.setattr(spectrum, "_cayley_phases",
                        lambda u, pole, *sym: poles.append(pole) or solve(u, pole, *sym))
    for c in (-2.5, 0.0, 1.0, 2.0):
        poles.clear()
        eps = wrap_phase(c + np.array([-0.3, 0.0, 0.2, 0.35]))
        assert_matches_oracle(np.diag(np.exp(-1j * eps)))
        assert len(poles) == 1, c
        gap = np.abs(wrap_phase(poles[0] - eps))
        assert gap.min() > np.pi - 0.35 - spectrum.CAYLEY_TILT - 0.05, c


def test_failed_moment_check_falls_back_to_eigvals(monkeypatch):
    fallbacks = []
    dense = spectrum._eigvals_phases

    def spy(u):
        fallbacks.append(u.shape)
        return dense(u)

    monkeypatch.setattr(spectrum, "_eigvals_phases", spy)
    # eigenvalues 1 and -1 lie on the unit circle, but the block is not
    # normal, so its Cayley transform is not Hermitian
    block = np.array([[1.0, 0.0], [5.0, -1.0]], dtype=complex)
    eps, _ = spectrum._cayley_phases(block, 1.0)
    assert not spectrum._moments_match(block, eps)
    assert np.allclose(quasienergies(block), [0.0, np.pi], atol=1e-12)
    assert fallbacks == [(2, 2)]


def band_sum_kick_block(coeffs, period, theta):
    """Kick block as the sum over image bands, sum_n c_{a-b+nP} e^{i n theta}."""
    block = np.zeros((period, period), dtype=np.complex128)
    offsets = np.subtract.outer(np.arange(period), np.arange(period))
    n_max = (coeffs.cutoff + period) // period
    for n in range(-n_max, n_max + 1):
        m = offsets + n * period
        mask = np.abs(m) <= coeffs.cutoff
        if mask.any():
            block[mask] += coeffs.coeffs[m[mask] + coeffs.cutoff] * np.exp(1j * n * theta)
    return block


def band_sum_bloch_matrix(model, theta):
    """Product of factor blocks, kicks from the truncated momentum band."""
    period = lattice_period(model)
    sites = np.arange(period, dtype=np.int64)
    u = np.eye(period, dtype=np.complex128)
    for f in floquet_factors(model):
        if isinstance(f, KickFactor):
            u = band_sum_kick_block(kick_coefficients(f.strength), period, theta) @ u
        else:
            u = f.values(sites)[:, None] * u
    return u


@pytest.mark.parametrize("model", [
    ModelSpec(KHM, 1.3, 0.7, parse_effective_planck("2pi*89/233")),
    ModelSpec(DKRM_RESONANT, 1.1, 0.6, parse_effective_planck("2pi*7/23")),
    ModelSpec(DKRM_GENERAL, 0.9, 2.4, parse_effective_planck("2pi*1/5"),
              resonance=(1, 2)),
])
def test_bloch_matrix_equals_the_kick_band_sum(model):
    for theta in (0.0, 0.37, 1.9, math.pi, 4.4, -2.2):
        block = build_bloch_matrix(model, theta)
        ref = band_sum_bloch_matrix(model, theta)
        assert np.max(np.abs(block - ref)) < 1e-12


def differential_models():
    for kind, resonance in [(KHM, None), (DKRM_RESONANT, None)] + [
            (DKRM_GENERAL, res) for res in [(1, 2), (1, 3), (3, 4), (1, 4)]]:
        for r in scan_rationals(kind, 11):
            yield model_from_ratios(kind, 1.0, 0.5, r.num, r.den, resonance)
    fib = parse_effective_planck("2pi*89/233")
    for kind in (KHM, DKRM_RESONANT):
        yield ModelSpec(kind, 1.0, 1.0, fib)


def test_folded_stacked_spectra_equal_the_unfolded_blocks(no_fallback):
    """model_spectrum against one unfolded lattice_period block per angle,
    solved on its own."""
    folds = set()
    for model in differential_models():
        period = lattice_period(model)
        folds.add(fold_of(model))
        spec = model_spectrum(model, 4)
        assert spec.hbars == [model.hbar_eff] and len(spec.energies) == 1
        assert np.array_equal(spec.thetas, theta_grid(4))
        for theta, eps in zip(spec.thetas, spec.energies[0]):
            assert eps.shape == (period,), (model, theta)
            ref = quasienergies(build_bloch_matrix(model, theta))
            assert spectrum_set_distance(eps, ref) <= 1e-12, (model, theta)
    assert folds == {1, 2}


def test_bloch_spectrum_is_independent_of_theta_sign():
    model = ModelSpec(DKRM_RESONANT, 1.3, 0.7, parse_effective_planck("2pi*2/7"))
    for theta in (0.3, 1.1, 2.9):
        a = quasienergies(build_bloch_matrix(model, theta))
        b = quasienergies(build_bloch_matrix(model, -theta))
        assert np.max(np.abs(a - b)) < 1e-10


# ── parity: one solve per pair of Bloch angles {phi, -phi} ─────────────────

def test_parity_leaves_the_ring_operator_unchanged():
    """Every factor is even under l -> -l: on a ring of 2P sites (P =
    lattice_period) the dense operator commutes with that parity."""
    folds = set()
    fib = parse_effective_planck("2pi*89/233")
    models = [model_from_ratios(kind, 1.0, 0.5, r.num, r.den, resonance)
              for kind, resonance in PERIOD_SWEEP_FAMILIES
              for r in scan_rationals(kind, 5)]
    for model in models + [ModelSpec(kind, 1.0, 1.0, fib) for kind in (KHM, DKRM_RESONANT)]:
        folds.add(fold_of(model))
        n = 2 * lattice_period(model)
        ring = quantum._apply_period(quantum._kernel_tables(model, 0, n),
                                     np.eye(n, dtype=np.complex128)).T
        flip = -np.arange(n) % n
        assert np.max(np.abs(ring[np.ix_(flip, flip)] - ring)) <= 1e-12, model
    assert folds == {1, 2}


def mirror_sweep_models(s_max=9, ratio_pairs=((1.0, 0.5), (2.3, 1.1))):
    for kind, resonance in [(KHM, None), (DKRM_RESONANT, None)] + [
            (DKRM_GENERAL, res) for res in [(1, 2), (3, 4), (1, 3)]]:
        for r in scan_rationals(kind, s_max):
            for ratios in ratio_pairs:
                yield model_from_ratios(kind, *ratios, r.num, r.den, resonance)


def reversal_partner(model):
    """Equal kicks, fold 2 and an odd half period: time reversal pairs the half
    blocks k and k + T (README, "Index rule")."""
    return (model.kind != KHM and model.k1 == model.k2 and fold_of(model) == 2
            and lattice_period(model) // 2 % 2 == 1)


def test_mirrored_solve_equals_the_full_theta_grid(monkeypatch, no_fallback):
    """_bloch_spectra(model, T) stacks exactly the half-block angles
    theta_grid(N)[:S//2 + 1], N = fold*T, with S = T for time-reversal partners and
    S = N otherwise, and matches one block per angle of theta_grid(T), solved on its
    own.  The sweep holds small fold-2 blocks and odd T; at fold 2, row j joins the
    angles j and j + T, read as T - j, or as j mod T for a time-reversal partner.
    Equal kicks at even half periods ((3, 4)) and unequal kicks at odd ones are the
    models the time-reversal rule must not touch."""
    stacked = []
    stack = spectrum._bloch_stack

    def spy(steps, owner, phis, period):
        stacked.append(phis)
        return stack(steps, owner, phis, period)

    monkeypatch.setattr(spectrum, "_bloch_stack", spy)
    fib = parse_effective_planck("2pi*89/233")
    equal = [(1.0, 1.0), (2.3, 2.3)]
    cases = [(model, count) for model in mirror_sweep_models() for count in (1, 2, 3, 4, 8)]
    cases += [(model, count) for model in mirror_sweep_models(6, [(1.0, 0.5)]) for count in (5, 7)]
    cases += [(model, count) for model in mirror_sweep_models(5, equal) for count in (3, 4)]
    cases += [(ModelSpec(KHM, 1.0, 1.0, fib), 16), (ModelSpec(DKRM_RESONANT, 1.0, 1.0, fib), 8)]
    refs, folds, kinds = {}, set(), set()  # theta_grid(8) holds those of 1, 2, 4 bitwise
    for model, count in cases:
        fold = fold_of(model)
        folds.add((fold, count % 2))
        if fold == 2:   # (partner, equal kicks, odd half period, T odd, small block)
            kinds.add((reversal_partner(model), model.k1 == model.k2,
                       lattice_period(model) // 2 % 2, count % 2, lattice_period(model) <= 6))
        stacked.clear()
        eps = spectrum._bloch_spectra([model], count)[0]
        n = fold * count
        span = count if reversal_partner(model) else n
        assert np.array_equal(np.concatenate(stacked), theta_grid(n)[:span // 2 + 1]), model
        assert eps.shape == (count, lattice_period(model))
        for theta, row in zip(theta_grid(count), eps):
            if (model, theta) not in refs:
                refs[model, theta] = quasienergies(build_bloch_matrix(model, theta))
            assert spectrum_set_distance(row, refs[model, theta]) <= 1e-12, (model, theta)
    assert folds == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert {(True, True, 1, t, True) for t in (0, 1)} <= kinds  # partners, odd and even T
    assert {(False, True, 0, t, True) for t in (0, 1)} <= kinds  # equal kicks, even P
    assert {(False, False, 1, t, True) for t in (0, 1)} <= kinds  # unequal kicks, odd P


def test_one_stack_of_many_models_equals_their_own_stacks(monkeypatch, no_fallback):
    """_bloch_spectra stacks the blocks of all its models by half period; a block's
    spectrum must not depend on its stack mates.  The sweep mixes kinds, fold-2
    blocks and odd T, and the kick-swap partners put two kick profiles in one stack."""
    mixed = []
    stack = spectrum._bloch_stack

    def spy(steps, owner, phis, period):
        mixed.append(len({tuple(x for x, _ in s) for s in steps}) > 1)
        return stack(steps, owner, phis, period)

    swapped = [model_from_ratios(DKRM_RESONANT, *ratios, num, den)
               for num, den in [(1, 3), (2, 3), (1, 4), (3, 5)]
               for ratios in [(0.9, 0.4), (0.4, 0.9)]]
    monkeypatch.setattr(spectrum, "_bloch_stack", spy)
    for models in [list(mirror_sweep_models()), swapped]:
        folds = {fold_of(m) for m in models}
        for count in (3, 4):
            mixed.clear()
            together = spectrum._bloch_spectra(models, count)
            assert any(mixed) and folds == {1, 2}
            for model, eps in zip(models, together):
                assert np.array_equal(eps, spectrum._bloch_spectra([model], count)[0]), model


def test_symmetry_claims_solve_every_partner_from_its_own_blocks(monkeypatch):
    """A partner spectrum derived from the base one would make each claim hold
    by construction, so every claim's model goes through _bloch_spectra."""
    solved = []
    spectra = spectrum._bloch_spectra

    def spy(models, theta_count, workers=1):
        solved.extend(models)
        return spectra(models, theta_count, workers)

    monkeypatch.setattr(spectrum, "_bloch_spectra", spy)
    check_symmetry_claims(KHM, 1.0, 0.6, [Rational(1, 3)], theta_count=4)
    check_symmetry_claims(DKRM_RESONANT, 0.9, 0.4, [Rational(1, 3)], theta_count=4)
    assert solved == [model_from_ratios(KHM, 1.0, 0.6, num, 3) for num in (1, 4, 2)] + [
        model_from_ratios(DKRM_RESONANT, *ratios, num, 3)
        for ratios, num in [((0.9, 0.4), 1), ((0.9, 0.4), 7), ((0.9, 0.4), 5), ((0.4, 0.9), 1)]]


# ── scan plumbing ──────────────────────────────────────────────────────────

def test_scan_rationals_windows():
    khm = scan_rationals(KHM, 3)
    assert [(r.num, r.den) for r in khm] == [(1, 3), (1, 2), (2, 3), (1, 1)]
    dkrm = scan_rationals(DKRM_RESONANT, 3)
    assert len(dkrm) == 8
    assert (4, 3) in [(r.num, r.den) for r in dkrm]
    values = [Fraction(r.num, r.den) for r in dkrm]
    assert values == sorted(values)
    assert len(scan_rationals(DKRM_RESONANT, 3, window_cycles=1)) == 4
    with pytest.raises(ValueError):
        scan_rationals(KHM, 3, window_cycles=0)


def test_scan_rationals_match_the_sorted_shifted_farey_copies():
    for s_max in range(1, 80):
        farey = farey_sequence(s_max)
        oracles = {shifts: sorted((Rational(r.num + shift * r.den, r.den) for r in farey
                                   for shift in range(shifts)),
                                  key=lambda r: Fraction(r.num, r.den))
                   for shifts in (1, 2, 3)}
        for kind, default in ((KHM, 1), (DKRM_RESONANT, 2)):
            for cycles in (None, 1, 2, 3):
                assert scan_rationals(kind, s_max, cycles) == oracles[cycles or default], (
                    kind, s_max, cycles)


def test_model_from_ratios_scales_kicks_with_planck():
    m = model_from_ratios(KHM, 2.0, 0.5, 1, 4)
    assert m.hbar_eff.value == pytest.approx(TWO_PI / 4)
    assert m.k1 == pytest.approx(2.0 * m.hbar_eff.value)
    assert m.k2 == pytest.approx(0.5 * m.hbar_eff.value)


def test_butterfly_scan_rows_are_sorted_and_complete():
    """The rationals and the theta grid both ascend, so the CSV rows come out in
    (hbar, theta) order with no sort of their own; each row of energies is sorted."""
    spec = butterfly_scan(KHM, 1.0, 1.0, 3, theta_count=4)
    assert sum(e.size for e in spec.energies) == sum(den for _, den in
                                                     [(1, 3), (1, 2), (2, 3), (1, 1)]) * 4
    for kind, resonance in [(KHM, None), (DKRM_RESONANT, None), (DKRM_GENERAL, (1, 2))]:
        for cycles in (None, 1, 3):
            spec = butterfly_scan(kind, 1.0, 0.5, 3, theta_count=4,
                                  window_cycles=cycles, resonance=resonance)
            rationals = scan_rationals(kind, 3, cycles)
            assert [hb.rational_part for hb in spec.hbars] == rationals
            periods = [lattice_period(model_from_ratios(kind, 1.0, 0.5, r.num, r.den,
                                                        resonance)) for r in rationals]
            assert [e.shape for e in spec.energies] == [(4, p) for p in periods]
            assert np.all(np.diff([hb.value for hb in spec.hbars]) > 0), (kind, cycles)
            assert np.array_equal(spec.thetas, theta_grid(4))
            assert all(np.all(np.diff(e, axis=1) >= 0) for e in spec.energies)


def test_butterfly_scan_is_worker_count_invariant():
    """The equal-kick scan solves a time-reversal partner (1/3, on 3 sites), so the
    pool children also run the orbit rule; the other scan runs parity alone."""
    for ratio1, ratio2, s_max in [(0.9, 0.4, 2), (0.7, 0.7, 3)]:
        models = [model_from_ratios(DKRM_RESONANT, ratio1, ratio2, r.num, r.den)
                  for r in scan_rationals(DKRM_RESONANT, s_max)]
        assert any(reversal_partner(m) and lattice_period(m) > 2 for m in models) == (
            ratio1 == ratio2)
        a = butterfly_scan(DKRM_RESONANT, ratio1, ratio2, s_max, theta_count=3)
        b = butterfly_scan(DKRM_RESONANT, ratio1, ratio2, s_max, theta_count=3, workers=2)
        assert a.hbars == b.hbars and np.array_equal(a.thetas, b.thetas)
        assert len(a.energies) == len(b.energies)
        for ea, eb in zip(a.energies, b.energies):
            assert np.array_equal(ea, eb)


def test_butterfly_scan_caps_workers_at_rationals_and_cpus(monkeypatch):
    created = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    serial = butterfly_scan(KHM, 1.0, 1.0, 3, theta_count=2).energies
    assert len(scan_rationals(KHM, 3)) == 4  # 1/3 and 2/3 mirror: 3 solved, one stack each
    for cpus, workers, expected in [(3, 100_000, [3]), (64, 100_000, [3]),
                                    (8, 2, [2]), (None, 100_000, []), (1, 5, [])]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        created.clear()
        energies = butterfly_scan(KHM, 1.0, 1.0, 3, theta_count=2, workers=workers).energies
        assert created == expected, (cpus, workers)
        assert len(energies) == len(serial) and all(map(np.array_equal, energies, serial))


@pytest.mark.parametrize("kind, resonance", [(KHM, None), (DKRM_RESONANT, None),
                                             (DKRM_GENERAL, (1, 1)), (DKRM_GENERAL, (1, 2))])
def test_mirrored_scan_equals_a_solve_of_every_rational(kind, resonance, monkeypatch):
    """butterfly_scan solves one rational of each hbar-mirror pair (khm; double kicks at
    resonance (1, 1) only) and copies its array to the partner.  Every row must match
    _bloch_spectra of the rational's own model."""
    solved = []
    spectra = spectrum._bloch_spectra

    def spy(models, theta_count, workers=1):
        solved.extend(models)
        return spectra(models, theta_count, workers)

    mirrors = resonance in (None, (1, 1))
    for ratios in ((1.0, 0.5), (2.3, 1.1)):
        for cycles in (None, 3):
            rationals = scan_rationals(kind, 9, cycles)
            monkeypatch.setattr(spectrum, "_bloch_spectra", spy)
            solved.clear()
            spec = butterfly_scan(kind, *ratios, 9, theta_count=4, window_cycles=cycles,
                                  resonance=resonance)
            monkeypatch.undo()
            models = [model_from_ratios(kind, *ratios, r.num, r.den, resonance)
                      for r in rationals]
            if mirrors:
                assert len(set(solved)) == len(solved) < len(models)
                assert set(solved) <= set(models)
            else:
                assert solved == models   # no shortcut: every rational, in order
            for model, eps in zip(models, spec.energies):
                ref = spectra([model], 4)[0]
                for row, ref_row in zip(eps, ref):
                    assert spectrum_set_distance(row, ref_row) <= 1e-12, (model, ratios)


def test_scan_workload_butterfly_solves_one_rational_per_mirror_pair(monkeypatch):
    """The benchmark's scan butterfly (s_max 24): 358 of its 360 rationals pair off."""
    solved = []
    spectra = spectrum._bloch_spectra
    monkeypatch.setattr(spectrum, "_bloch_spectra",
                        lambda models, count, workers=1: solved.extend(models)
                        or spectra(models, count, workers))
    spec = butterfly_scan(DKRM_RESONANT, 1.0, 0.5, 24, theta_count=4)
    assert len(spec.hbars) == 360 and len(solved) == 181


def test_butterfly_scan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        butterfly_scan(KHM, -1.0, 1.0, 3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            butterfly_scan(KHM, bad, 1.0, 3)
        with pytest.raises(ValueError):
            butterfly_scan(DKRM_RESONANT, 1.0, bad, 3)
    with pytest.raises(ValueError):
        butterfly_scan(KHM, 1.0, 1.0, 3, workers=0)


# ── butterfly symmetries ───────────────────────────────────────────────────

def test_harper_butterfly_symmetries_hold():
    reports = check_symmetry_claims(KHM, 1.0, 1.0,
                                    [Rational(1, 3), Rational(2, 5)],
                                    theta_count=8)
    assert {r.name for r in reports} == {"period 2*pi", "mirror about pi"}
    for r in reports:
        assert r.passed and r.distance < 1e-8


def test_double_kick_butterfly_symmetries_hold():
    reports = check_symmetry_claims(DKRM_RESONANT, 0.9, 0.4, [Rational(1, 3)],
                                    theta_count=6)
    names = {r.name for r in reports}
    assert names == {"period 4*pi", "mirror about 2*pi", "kick swap"}
    for r in reports:
        assert r.passed and r.distance < 1e-8


def test_double_kick_claims_off_the_principal_resonance_list_no_mirror():
    """Off resonance (1, 1) the double kicks have no hbar mirror, so the claims hold the
    4*pi period and the kick swap only, and all pass.  The dropped mirror partner
    (2 den - num)/den, solved directly, is far from isospectral."""
    rationals = [Rational(1, 3), Rational(2, 5)]
    for resonance in ((1, 2), (1, 3)):
        reports = check_symmetry_claims(DKRM_GENERAL, 0.9, 0.4, rationals, theta_count=6,
                                        resonance=resonance)
        assert [r.name for r in reports] == ["period 4*pi", "kick swap"] * 2
        for r in reports:
            assert r.passed and r.distance < 1e-8, (resonance, r)
        for r in rationals:
            pair = [model_from_ratios(DKRM_GENERAL, 0.9, 0.4, num, r.den, resonance)
                    for num in (r.num, 2 * r.den - r.num)]
            distance = spectrum_set_distance(*spectrum._bloch_spectra(pair, 6))
            assert distance > 1e-3, (resonance, r, distance)


def test_mirror_claim_skipped_when_partner_leaves_the_window():
    reports = check_symmetry_claims(KHM, 1.0, 1.0, [Rational(1, 1)],
                                    theta_count=4)
    assert {r.name for r in reports} == {"period 2*pi"}


def test_distinct_kick_profiles_are_actually_distinguished():
    a = aggregated_energies(model_from_ratios(KHM, 1.0, 1.0, 1, 3), 8)
    b = aggregated_energies(model_from_ratios(KHM, 1.2, 1.0, 1, 3), 8)
    assert spectrum_set_distance(a, b) > 1e-3
