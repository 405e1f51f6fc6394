"""Rational plumbing, effective Planck parsing, and wavepacket containers."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from kickedharper import (EffPlanck, LabParams, ModelSpec, Rational,
                          Wavepacket, edge_mass, farey_sequence,
                          momentum_variance, parse_effective_planck)
from kickedharper.lattice import DKRM_GENERAL, DKRM_RESONANT, KHM, TWO_PI


def fraction(r):
    return Fraction(r.num, r.den)


# ── rationals ──────────────────────────────────────────────────────────────

def test_rational_reduces_and_normalizes_sign():
    assert Rational(6, 4) == Rational(3, 2)
    assert Rational(-3, -6) == Rational(1, 2)
    assert (Rational(-1, -2).num, Rational(-1, -2).den) == (1, 2)  # only the signs move
    assert str(Rational(10, 15)) == "2/3"
    assert Rational(8, 12) == Rational(2, 3)
    assert fraction(Rational(10, 14)) == Fraction(5, 7)


def test_rational_rejects_undefined_and_negative():
    with pytest.raises(ValueError):
        Rational(1, 0)
    with pytest.raises(ValueError):
        Rational(-1, 2)
    assert Rational(0, 3) == Rational(0, 1)
    with pytest.raises(ValueError):
        Rational(2, -4)  # sign moves to the numerator, ratio is negative


def test_rational_is_a_fraction_that_reads_num_over_den():
    r = Rational(3, 19)
    assert isinstance(r, Fraction) and r == Fraction(3, 19)
    assert hash(r) == hash(Fraction(3, 19))
    assert not hasattr(r, "__dict__")
    assert str(Rational(2, 1)) == "2/1"
    assert repr(r) == "Rational(3, 19)"
    back = Rational(Rational(1, 3) + 1)   # the arithmetic gives a plain Fraction
    assert type(back) is Rational and (back.num, back.den) == (4, 3)


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_rational_survives_pickle_and_copy(clone):
    """The worker pool pickles Rationals inside the step factors."""
    for r in (Rational(3, 19), Rational(2, 1), Rational(0, 5)):
        twin = clone(r)
        assert type(twin) is Rational and (twin.num, twin.den) == (r.num, r.den)


def test_farey_sequence_is_complete_sorted_and_reduced():
    for s_max in (1, 2, 5, 11):
        seq = farey_sequence(s_max)
        vals = [fraction(r) for r in seq]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)
        assert all(math.gcd(r.num, r.den) == 1 and r.den <= s_max for r in seq)
        expected = {Fraction(n, d)
                    for d in range(1, s_max + 1) for n in range(1, d + 1)}
        assert set(vals) == expected
    with pytest.raises(ValueError, match="s_max"):
        farey_sequence(0)


def test_farey_sequence_matches_the_filtered_and_sorted_list():
    for s_max in range(1, 80):
        oracle = sorted((Rational(n, d) for d in range(1, s_max + 1)
                         for n in range(1, d + 1) if math.gcd(n, d) == 1),
                        key=fraction)
        assert farey_sequence(s_max) == oracle, s_max


# ── effective Planck constant ──────────────────────────────────────────────

def test_parse_effective_planck_string_sets_exact_tag():
    hb = parse_effective_planck("2pi*3/19")
    assert hb.rational_part == Rational(3, 19)
    assert hb.value == pytest.approx(TWO_PI * 3 / 19, rel=1e-16)
    assert parse_effective_planck("2PI* 2 ").rational_part == Rational(2, 1)
    assert parse_effective_planck(" 2pi*6/4").rational_part == Rational(3, 2)


def test_parse_effective_planck_real_has_no_tag():
    hb = parse_effective_planck(1.0)
    assert hb.value == 1.0
    assert hb.rational_part is None


def test_parse_effective_planck_rejects_junk():
    for bad in ("pi*1/2", "2pi*", "2pi*a/b", "2pi*1/0", "2pi*-1/2", "2pi*3/"):
        with pytest.raises(ValueError):
            parse_effective_planck(bad)
    with pytest.raises(ValueError):
        parse_effective_planck(0.0)
    with pytest.raises(ValueError):
        parse_effective_planck(-2.0)


def test_effplanck_tag_must_match_value():
    with pytest.raises(ValueError):
        EffPlanck(1.0, Rational(1, 3))
    ok = EffPlanck.from_rational(89, 233)
    assert ok.rational_part == Rational(89, 233)


# ── model descriptors ──────────────────────────────────────────────────────

def test_model_spec_validation():
    hb = EffPlanck(1.0)
    ModelSpec(KHM, 1.0, 2.0, hb)
    ModelSpec(DKRM_RESONANT, 3.9, 3.9, hb)
    ModelSpec(DKRM_GENERAL, 1.0, 1.0, hb, resonance=(1, 2))
    with pytest.raises(ValueError):
        ModelSpec("rotor", 1.0, 1.0, hb)
    with pytest.raises(ValueError):
        ModelSpec(KHM, -1.0, 1.0, hb)
    for k1, small in ((math.inf, 1.0), (1e300, 1e-10)):   # k or k/hbar_eff infinite
        with pytest.raises(ValueError):
            ModelSpec(KHM, k1, 1.0, EffPlanck(small))
    with pytest.raises(ValueError):
        ModelSpec(DKRM_GENERAL, 1.0, 1.0, hb)
    with pytest.raises(ValueError):
        ModelSpec(DKRM_GENERAL, 1.0, 1.0, hb, resonance=(2, 4))
    with pytest.raises(ValueError):
        ModelSpec(DKRM_RESONANT, 1.0, 1.0, hb, resonance=(1, 2))
    # (nu, mu) are ints: floats and bools are rejected, even where they equal (1, 1)
    for kind, resonance in ((DKRM_GENERAL, (1.0, 2.0)), (KHM, (1.0, 1.0)),
                            (DKRM_RESONANT, (1.0, 1.0)), (DKRM_GENERAL, (True, 2))):
        with pytest.raises(ValueError):
            ModelSpec(kind, 1.0, 1.0, hb, resonance=resonance)
    assert ModelSpec(DKRM_RESONANT, 1.0, 1.0, hb).resonance == (1, 1)
    # an empty or non-coprime pair is rejected, not read as the principal resonance
    for kind, resonance in ((DKRM_RESONANT, ()), (KHM, []), (DKRM_GENERAL, ()),
                            (DKRM_RESONANT, (2, 2)), (DKRM_GENERAL, (3, 6))):
        with pytest.raises(ValueError, match="coprime"):
            ModelSpec(kind, 1.0, 1.0, hb, resonance=resonance)
    # the principal resonance has one spelling: given or not, the model stores (1, 1),
    # so both are one model, equal and with one hash
    for kind in (KHM, DKRM_RESONANT):
        implicit, explicit = ModelSpec(kind, 1.0, 0.5, hb), ModelSpec(kind, 1.0, 0.5, hb, (1, 1))
        assert implicit.resonance == explicit.resonance == (1, 1)
        assert implicit == explicit and hash(implicit) == hash(explicit)
        assert len({implicit, explicit, ModelSpec(kind, 1.0, 0.5, hb, [1, 1])}) == 1


def test_lab_params_rescale_to_model():
    # delay eta and lab planck combine into hbar_eff = eta * planck
    planck = 2.0
    eta = 0.7
    period = 4 * math.pi / planck  # principal resonance: T * planck = 4*pi
    lab = LabParams(k1=3.0, k2=1.5, period=period, delay=eta, planck=planck,
                    resonance=(1, 1))
    assert lab.k1_eff == pytest.approx(eta * 3.0, rel=1e-15)
    assert lab.k2_eff == pytest.approx(eta * 1.5, rel=1e-15)
    assert lab.hbar_eff.value == pytest.approx(eta * planck, rel=1e-15)
    model = lab.to_model_spec()
    assert model.kind == DKRM_RESONANT
    with pytest.raises(ValueError):
        LabParams(3.0, 1.5, period * 1.01, eta, planck, (1, 1))
    with pytest.raises(ValueError):
        LabParams(3.0, 1.5, period, period * 2, planck, (1, 1))
    for resonance in ((1.0, 1.0), (True, 1)):
        with pytest.raises(ValueError):
            LabParams(3.0, 1.5, period, eta, planck, resonance)
    for bad_planck in (0.0, -planck):
        with pytest.raises(ValueError, match="planck must be positive"):
            LabParams(3.0, 1.5, period, eta, bad_planck, (1, 1))
    for k1, k2 in ((-3.0, 1.5), (3.0, -1.5)):
        with pytest.raises(ValueError, match="kick strengths"):
            LabParams(k1, k2, period, eta, planck, (1, 1))


def test_lab_params_general_resonance_maps_to_general_model():
    planck = 1.0
    period = 4 * math.pi * 1 / 2  # nu/mu = 1/2 anti-resonance
    lab = LabParams(1.0, 1.0, period, 0.3, planck, (1, 2))
    model = lab.to_model_spec()
    assert model.kind == DKRM_GENERAL
    assert model.resonance == (1, 2)


# ── wavepackets ────────────────────────────────────────────────────────────

def test_delta_wavepacket_layout():
    hb = EffPlanck(1.0)
    psi = Wavepacket.delta(l0=5, n_sites=8, hbar_eff=hb)
    assert psi.n_sites == 8
    assert psi.l_min == 5 - 4 and psi.l_max == 5 + 3
    sites = psi.sites()
    assert sites[np.argmax(np.abs(psi.amps))] == 5
    assert np.sqrt(np.sum(np.abs(psi.amps) ** 2)) == pytest.approx(1.0, abs=0)
    with pytest.raises(ValueError):
        Wavepacket.delta(l0=0, n_sites=7, hbar_eff=hb)
    with pytest.raises(ValueError, match="l_min < l_max"):
        Wavepacket(3, 3, np.ones(1), hb)
    with pytest.raises(ValueError, match="does not match"):
        Wavepacket(0, 7, np.ones(7), hb)


def test_doubled_pads_symmetrically_and_preserves_content():
    hb = EffPlanck(1.0)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi = Wavepacket(-8, 7, amps, hb)
    big = psi.doubled()
    assert big.n_sites == 32
    assert big.l_min == -16 and big.l_max == 15
    assert np.array_equal(big.amps[8:24], psi.amps)
    assert np.all(big.amps[:8] == 0) and np.all(big.amps[24:] == 0)
    assert np.linalg.norm(big.amps) == pytest.approx(np.linalg.norm(psi.amps), rel=1e-15)


def test_momentum_variance_scales_with_hbar():
    hb = EffPlanck(0.5)
    amps = np.zeros(8, dtype=complex)
    amps[4] = np.sqrt(0.5)  # site 0
    amps[6] = np.sqrt(0.5)  # site 2
    psi = Wavepacket(-4, 3, amps, hb)
    # variance about l0=0: 0.5 * (hbar*2)^2
    assert momentum_variance(psi, 0) == pytest.approx(0.5 * (0.5 * 2) ** 2, rel=1e-14)
    assert momentum_variance(psi, 2) == pytest.approx(0.5 * (0.5 * 2) ** 2, rel=1e-14)


def test_edge_mass_counts_margin_sites():
    hb = EffPlanck(1.0)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 0.6
    amps[-2] = 0.8
    psi = Wavepacket(0, 15, amps, hb)
    assert edge_mass(psi, 1) == pytest.approx(0.36, rel=1e-15)
    assert edge_mass(psi, 2) == pytest.approx(0.36 + 0.64, rel=1e-15)
    with pytest.raises(ValueError):
        edge_mass(psi, 0)
    with pytest.raises(ValueError):
        edge_mass(psi, 8)
