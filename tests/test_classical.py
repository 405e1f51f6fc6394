"""Classical kick maps: composition, conjugacy, Jacobians, reversibility."""

import numpy as np
import pytest

from kickedharper import (PhasePoint, conjugacy_defects, dkrm_half_steps, dkrm_resonant_map,
                          equivalence_residual, khm_map, orbit, trajectory)
from kickedharper.lattice import TWO_PI

K_PAIRS = [(1.3, 0.7), (1.0, 1.0), (3.9, 3.9), (4.0, 0.4)]


def circular_distance(a, b):
    """Distance between angles on the circle of circumference 2*pi."""
    d = np.abs(np.mod(a - b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def canonical_transform(pt):
    """Shear to the Harper frame: (q, p) -> (q, p + q)."""
    return PhasePoint(pt.q, pt.p + pt.q)


def random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return PhasePoint(rng.uniform(0, 2 * np.pi, n), rng.uniform(-np.pi, 3 * np.pi, n))


# ── map definitions against hand-stepped updates ───────────────────────────

def test_khm_map_matches_explicit_update():
    pt = PhasePoint(0.8, -1.1)
    k1, k2 = 1.7, 0.6
    out = khm_map(pt, k1, k2)
    p_new = -1.1 + k1 * np.sin(0.8)
    q_new = 0.8 - k2 * np.sin(p_new)
    assert out.p == pytest.approx(p_new, abs=0)
    assert out.q == pytest.approx(q_new, abs=0)


def test_half_steps_match_two_explicit_half_kicks():
    pt = PhasePoint(1.2, 0.4)
    k1, k2 = 0.9, 2.1
    p_mid = 0.4 + k1 * np.sin(1.2)
    q_mid = 1.2 + p_mid
    p_new = p_mid + k2 * np.sin(q_mid)
    q_new = q_mid - p_new
    out = dkrm_half_steps(pt, k1, k2)
    assert out.p == pytest.approx(p_new, abs=0)
    assert out.q == pytest.approx(q_new, abs=0)


def test_composed_map_equals_half_steps_everywhere():
    pts = random_points(200_000, seed=11)
    for k1, k2 in K_PAIRS:
        half = dkrm_half_steps(pts, k1, k2)
        comp = dkrm_resonant_map(pts, k1, k2)
        assert np.max(np.abs(half.q - comp.q)) < 1e-12
        assert np.max(np.abs(half.p - comp.p)) < 1e-12


# ── shear conjugacy to the kicked Harper map ───────────────────────────────

def test_canonical_transform_roundtrip():
    pts = random_points(1000, seed=2)
    sheared = canonical_transform(pts)
    back = PhasePoint(sheared.q, sheared.p - sheared.q)   # the inverse shear
    assert np.max(np.abs(back.q - pts.q)) < 1e-12
    assert np.max(np.abs(back.p - pts.p)) < 1e-12


def test_equivalence_residual_vanishes_for_all_kick_pairs():
    pts = random_points(200_000, seed=5)
    for k1, k2 in K_PAIRS:
        res = equivalence_residual(pts, k1, k2)
        assert np.max(res) < 1e-12, (k1, k2)


def composed_map_defects(pt, k1, k2):
    """The conjugacy residual and the half-step deviations from the maps composed in
    full, six sines per point: the oracle of conjugacy_defects."""
    image = dkrm_resonant_map(pt, k1, k2)
    via_dkrm = canonical_transform(image)
    via_khm = khm_map(canonical_transform(pt), k1, k2)
    residual = np.maximum(circular_distance(via_dkrm.q, via_khm.q),
                          np.abs(via_dkrm.p - via_khm.p))
    half = dkrm_half_steps(pt, k1, k2)
    return residual, np.abs(half.q - image.q), np.abs(half.p - image.p)


def test_conjugacy_defects_equal_the_composed_maps_bit_for_bit():
    pts = random_points(20_000, seed=8)
    for k1, k2 in K_PAIRS:
        fast = conjugacy_defects(pts, k1, k2)
        for got, want in zip(fast, composed_map_defects(pts, k1, k2), strict=True):
            assert got.shape == pts.q.shape and np.array_equal(got, want), (k1, k2)
        assert np.array_equal(equivalence_residual(pts, k1, k2), fast[0])
        # the comparison is sharp: grouping the sine argument as q + (p + kick), the
        # half steps' sum, changes the composed map's bits at some of these points
        kick = k1 * np.sin(pts.q)
        assert not np.array_equal(np.sin(pts.q + pts.p + kick), np.sin(pts.q + (pts.p + kick)))


def test_equivalence_residual_detects_wrong_map():
    # conjugating with swapped kick strengths must not look equivalent
    pts = random_points(1000, seed=6)
    sheared = canonical_transform(dkrm_resonant_map(pts, 1.3, 0.7))
    wrong = khm_map(canonical_transform(pts), 0.7, 1.3)
    dev = np.maximum(circular_distance(sheared.q, wrong.q),
                     np.abs(sheared.p - wrong.p))
    assert np.max(dev) > 1e-2


# ── Jacobians ──────────────────────────────────────────────────────────────

def khm_jacobian(pt, k1, k2):
    """d(q', p')/d(q, p) for the kicked Harper map (unit determinant)."""
    cq = k1 * np.cos(pt.q)
    cp = k2 * np.cos(pt.p + k1 * np.sin(pt.q))
    return np.array([[1.0 - cp * cq, -cp],
                     [cq, 1.0]])


def dkrm_jacobian(pt, k1, k2):
    """d(q', p')/d(q, p) for the composed double-kick map (unit determinant)."""
    cq = k1 * np.cos(pt.q)
    cu = np.cos(pt.q + pt.p + k1 * np.sin(pt.q))
    return np.array([[1.0 - k2 * cu * (1.0 + cq), -k2 * cu],
                     [cq + k2 * cu * (1.0 + cq), 1.0 + k2 * cu]])


def fd_jacobian(f, pt, h=1e-6):
    out = np.empty((2, 2))
    for j, (dq, dp) in enumerate([(h, 0.0), (0.0, h)]):
        plus = f(PhasePoint(pt.q + dq, pt.p + dp))
        minus = f(PhasePoint(pt.q - dq, pt.p - dp))
        out[0, j] = (plus.q - minus.q) / (2 * h)
        out[1, j] = (plus.p - minus.p) / (2 * h)
    return out


@pytest.mark.parametrize("k1,k2", K_PAIRS)
def test_jacobians_match_finite_differences(k1, k2):
    rng = np.random.default_rng(9)
    for _ in range(25):
        pt = PhasePoint(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi))
        jk = khm_jacobian(pt, k1, k2)
        jk_fd = fd_jacobian(lambda p: khm_map(p, k1, k2), pt)
        assert np.max(np.abs(jk - jk_fd)) < 1e-6
        jd = dkrm_jacobian(pt, k1, k2)
        jd_fd = fd_jacobian(lambda p: dkrm_resonant_map(p, k1, k2), pt)
        assert np.max(np.abs(jd - jd_fd)) < 1e-6
        # area preservation
        assert abs(np.linalg.det(jk) - 1.0) < 1e-12
        assert abs(np.linalg.det(jd) - 1.0) < 1e-12


# ── reversibility and trajectories ─────────────────────────────────────────

def test_khm_map_is_invertible():
    pts = random_points(1000, seed=13)
    k1, k2 = 1.3, 0.7
    fwd = khm_map(pts, k1, k2)
    # undo: q = q' + k2 sin p', p = p' - k1 sin q
    q_back = fwd.q + k2 * np.sin(fwd.p)
    p_back = fwd.p - k1 * np.sin(q_back)
    assert np.max(np.abs(q_back - pts.q)) < 1e-12
    assert np.max(np.abs(p_back - pts.p)) < 1e-12


def test_trajectory_shape_and_start():
    start = PhasePoint(0.3, 0.2)
    traj = trajectory("khm", start, 50, 1.0, 1.0)
    assert len(traj) == 51
    assert traj[0].q == pytest.approx(0.3)
    assert traj[0].p == pytest.approx(0.2)
    traj2 = trajectory("dkrm", start, 10, 3.9, 3.9)
    assert len(traj2) == 11
    assert all(0 <= pt.q < 2 * np.pi for pt in traj2)
    with pytest.raises(ValueError):
        trajectory("standard", start, 10, 1.0, 1.0)
    with pytest.raises(ValueError):
        trajectory("khm", start, 0, 1.0, 1.0)


def numpy_scalar_rows(map_kind, pt0, n, k1, k2):
    """The trajectory CSV rows from the maps stepped on numpy scalars with np.sin
    and np.mod: the oracle of the float orbit."""
    step = {"khm": khm_map, "dkrm": dkrm_resonant_map}[map_kind]
    out = [PhasePoint(np.mod(pt0.q, 2 * np.pi), pt0.p)]
    pt = pt0
    for _ in range(n):
        pt = step(pt, k1, k2)
        out.append(PhasePoint(np.mod(pt.q, 2 * np.pi), pt.p))
    return ["%d,%.17g,%.17g\n" % (i, pt.q, pt.p) for i, pt in enumerate(out)]


@pytest.mark.parametrize("map_kind", ["khm", "dkrm"])
@pytest.mark.parametrize("q0,p0,k1,k2", [(1.0, 2.0, 1.3, 0.7), (0.3, 5.9, 3.9, 3.9),
                                         (6.1, 0.2, 4.0, 0.4), (2.5, 4.4, 0.7, 1.3)])
def test_float_orbit_rows_equal_the_numpy_scalar_rows(map_kind, q0, p0, k1, k2):
    rows = ["%d,%.17g,%.17g\n" % (i, q, p)
            for i, (q, p) in enumerate(orbit(map_kind, q0, p0, 2000, k1, k2))]
    assert rows == numpy_scalar_rows(map_kind, PhasePoint(q0, p0), 2000, k1, k2)
    traj = trajectory(map_kind, PhasePoint(q0, p0), 2000, k1, k2)
    assert [(pt.q, pt.p) for pt in traj] == list(orbit(map_kind, q0, p0, 2000, k1, k2))


def test_zero_kicks_reduce_both_maps_to_the_identity():
    # the two drifts of the double-kick period cancel when no kick acts
    pts = random_points(500, seed=21)
    for kind_map in (khm_map, dkrm_resonant_map):
        out = kind_map(pts, 0.0, 0.0)
        assert np.max(np.abs(out.q - pts.q)) < 1e-12
        assert np.max(np.abs(out.p - pts.p)) < 1e-12


def test_circular_distance_wraps():
    assert circular_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert circular_distance(np.pi, -np.pi) == pytest.approx(0.0, abs=1e-12)
    arr = circular_distance(np.array([0.0, 1.0]), np.array([2 * np.pi, 1.5]))
    assert arr == pytest.approx([0.0, 0.5], abs=1e-12)
