"""What the package assumes of numpy beyond its public API, checked by name.

classical.orbit steps the trajectory with math.sin and %, and
tests/golden/classical_trajectory.csv holds the bits of np.sin and np.mod, so a
platform whose numpy sine differs from libm fails here instead of only in the
golden file.  quantum._apply_period calls numpy's private pocketfft ufuncs at scale 1
(the kick tables carry the inverse FFT's 1/n), and
spectrum._cayley_phases the private linalg gufuncs, complex (inv, eigvalsh_lo) and
real (solve, eigvalsh_lo), the real solve on the strided .real and .imag views of one
complex V + I, and the complex eigvalsh_lo on H - iI, whose diagonal's imaginary part it
must not read; a numpy release without them, with another scale, or that misreads such a
view or diagonal, fails here instead of deep inside the other tests.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg


def test_math_sin_and_mod_match_numpy_bit_for_bit_on_float64_scalars():
    xs = np.random.default_rng(0).uniform(-60.0, 60.0, 200_000)

    def bits(v):
        return np.array(v, dtype=np.float64).view(np.uint64)

    for name, ref, fast in [("sin", np.sin, math.sin),
                            ("mod", lambda x: np.mod(x, 2 * np.pi), lambda x: x % (2 * np.pi))]:
        bad = np.flatnonzero(bits([ref(x) for x in xs]) != bits([fast(x) for x in xs.tolist()]))
        assert bad.size == 0, (
            f"{name}: {bad.size} of {xs.size} differ, first at x = {xs[bad[0]]!r}")


def test_pocketfft_ifft_ufunc_matches_np_fft_ifft():
    rng = np.random.default_rng(0)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    out = np.empty(8, dtype=np.complex128)
    np.fft._pocketfft_umath.ifft(x, 1.0, out=out)
    assert np.array_equal(out, np.fft.ifft(x, norm="forward")), (
        "pocketfft ifft ufunc at scale 1 differs from np.fft.ifft(norm='forward')")


def test_unscaled_ifft_times_a_kick_over_n_equals_the_scaled_ifft_times_the_kick():
    # every kernel caller takes the inverse FFT's 1/n from its kick tables, and the CLI's
    # evolve lattices have 256 * 2^k sites; there the products must round as the scaled
    # inverse FFT's, which tests/golden/evolve* holds
    rng = np.random.default_rng(0)

    def ifft(x, scale):
        return np.fft._pocketfft_umath.ifft(x, scale, out=np.empty_like(x))

    for n in (256, 8192):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        kick = np.exp(-1j * 3.9 * np.cos(2 * np.pi * np.arange(n) / n))
        assert np.array_equal(ifft(x, 1.0) * (kick * (1.0 / n)), ifft(x, 1.0 / n) * kick), (
            f"ifft scale 1 with the kick times 1/n differs from ifft scale 1/n at n = {n}")


def test_linalg_inv_and_eigvalsh_lo_gufuncs_match_np_linalg():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h = q * np.exp(1j * (1.0 + np.pi)) + np.eye(3)
    ref = np.linalg.inv(h)
    _umath_linalg.inv(h, signature="D->D", out=h)
    assert np.allclose(h, ref, rtol=0, atol=1e-12), "inv gufunc differs from np.linalg.inv"
    h = 1j * (np.eye(3) - 2 * h)
    w = _umath_linalg.eigvalsh_lo(h, signature="D->d")
    assert w.dtype == np.float64 and w.shape == (3,)
    assert np.allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-12), "eigvalsh_lo differs"


def test_linalg_real_solve_and_eigvalsh_lo_gufuncs_match_np_linalg():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 3)) + 3 * np.eye(3), rng.normal(size=(3, 3))
    h = _umath_linalg.solve(a, b, signature="dd->d")
    assert h.dtype == np.float64 and h.shape == (3, 3)
    assert np.allclose(h, np.linalg.solve(a, b), rtol=0, atol=1e-12), (
        "solve gufunc differs from np.linalg.solve")
    # the Cayley solve passes a stack's (V + I).real, a view with the complex stride, and
    # the negated imaginary part; the views' own strides are checked here too
    v = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)) + 3 * np.eye(3)
    assert not (v.real.flags.c_contiguous or v.imag.flags.c_contiguous)
    for rhs in (v.imag, -v.imag):
        x = _umath_linalg.solve(v.real, rhs, signature="dd->d")
        assert x.dtype == np.float64 and x.shape == (2, 3, 3)
        assert np.allclose(x, np.linalg.solve(v.real.copy(), rhs.copy()), rtol=0, atol=1e-12), (
            "solve gufunc differs from np.linalg.solve on .real/.imag views")
    h = h + h.T
    w = _umath_linalg.eigvalsh_lo(h, signature="d->d")
    assert w.dtype == np.float64 and w.shape == (3,)
    assert np.allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-12), "real eigvalsh_lo differs"


def test_eigvalsh_lo_reads_no_imaginary_part_on_the_diagonal():
    # numpy documents that eigh and eigvalsh treat it as zero; the complex Cayley solve
    # passes H - iI for the Hermitian H, so the bits must not depend on it
    rng = np.random.default_rng(2)
    for n in (3, 8, 233):
        a = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        h = a + a.conj().swapaxes(1, 2)
        ref = _umath_linalg.eigvalsh_lo(h, signature="D->d")
        diag = np.arange(n)
        for shift in (-1j, 1j * rng.normal(size=(2, n))):
            moved = h.copy()
            moved[:, diag, diag] += shift
            assert np.array_equal(_umath_linalg.eigvalsh_lo(moved, signature="D->d"), ref), n
