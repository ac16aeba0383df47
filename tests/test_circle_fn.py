"""Grid conventions: quadrature, Fourier analysis, and the conjugate operator."""

import json
import math
import warnings

import numpy as np
import pytest

from specfact import (
    CONJUGATE_ARC_SIGN,
    AliasingError,
    FourierSeries,
    GridFunction,
    ParameterError,
    SpectralFactor,
    fourier_synthesize,
    grid_theta,
    h2_distance,
    harmonic_conjugate,
    integrate,
    lp_norm,
)


def test_grid_theta_layout():
    th = grid_theta(8)
    assert th[0] == -np.pi
    assert np.allclose(np.diff(th), np.pi / 4)
    assert th[-1] < np.pi


def test_grid_size_validation():
    for bad in (0, 4, 12, 4095, -8, 2.0, "8"):
        with pytest.raises(ParameterError):
            GridFunction(bad, np.zeros(8))


def test_grid_function_rejects_bad_values():
    with pytest.raises(ParameterError):
        GridFunction(8, np.array([np.nan] + [0.0] * 7))
    with pytest.raises(ParameterError):
        GridFunction(8, np.zeros(7))
    with pytest.raises(ParameterError):
        GridFunction.from_samples(np.arange(6))


def test_grid_function_real_tag():
    f = GridFunction(8, np.arange(8, dtype=float))
    assert f.is_real and f.values.dtype == np.float64
    g = GridFunction(8, np.arange(8) + 0j)
    assert not g.is_real and g.values.dtype == np.complex128
    with pytest.raises(ParameterError):
        GridFunction.from_samples(np.arange(8) + 1j, real=True)


def test_values_read_only():
    f = GridFunction(8, np.zeros(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_integral_oracles():
    n = 512
    one = GridFunction.from_callable(lambda t: np.ones_like(t), n)
    assert integrate(one) == pytest.approx(2 * np.pi, abs=1e-12)
    # band-limited integrands are integrated exactly by the rectangle rule
    f = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), n)
    assert lp_norm(f, 1) == pytest.approx(2.5 * np.pi, abs=1e-12)
    assert lp_norm(one, 1) == pytest.approx(2 * np.pi, abs=1e-12)
    assert lp_norm(GridFunction.from_callable(np.cos, n), "inf") == 1.0
    # L2 of cos: sqrt(pi)
    assert lp_norm(GridFunction.from_callable(np.cos, n), 2) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12)


def test_lp_norm_validation():
    f = GridFunction(8, np.ones(8))
    with pytest.raises(ParameterError):
        lp_norm(f, 0.5)
    with pytest.raises(ParameterError):
        lp_norm(f, "sup")


def test_lp_norm_large_exponent_factors_out_the_peak(rng):
    n = 512
    f = GridFunction(n, np.exp(rng.normal(size=n)))
    sup = float(f.values.max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1e6, 1e300):
            norm = lp_norm(f, p)
            # sum_j (f_j / sup)^p h lies in [h, 2 pi]
            assert sup * (2 * np.pi / n) ** (1 / p) <= norm
            assert norm <= sup * (2 * np.pi) ** (1 / p)
            assert norm == pytest.approx(sup * (2 * np.pi) ** (1 / p),
                                         rel=1e-5)
        tiny = GridFunction(n, 1e-200 * f.values)
        assert lp_norm(tiny, 4) == pytest.approx(1e-200 * lp_norm(f, 4),
                                                 rel=1e-12)
    assert lp_norm(GridFunction(8, np.zeros(8)), 3) == 0.0
    # in range, the plain sum is kept bit for bit
    for p in (1, 2, 3.5):
        plain = float((f.values ** p).sum() * (2 * np.pi / n)) ** (1 / p)
        assert lp_norm(f, p) == plain


def test_factor_json_pairs_are_the_coefficients(rng):
    a = rng.normal(size=4097) + 1j * rng.normal(size=4097)
    a[3] = complex(-0.0, 0.0)
    fac = SpectralFactor(a, floor_applied=0.5, neg_energy=1e-20)
    want = {"coeffs": {str(k): [c.real, c.imag] for k, c in enumerate(fac.coeffs)},
            "floor": 0.5, "neg_energy": 1e-20}
    assert json.dumps(fac.to_json_dict()) == json.dumps(want)


def test_synthesize_matches_direct_sum(rng):
    """fourier_synthesize agrees with sum_k c_k e^{i k theta_j} on the grid,
    for a real-valued series (returned real) and a complex one."""
    n = 256
    th = grid_theta(n)
    real = {0: complex(rng.normal(), 0)}
    cplx = {}
    for k in range(1, 20):
        c = complex(rng.normal(), rng.normal())
        real[k] = c
        real[-k] = c.conjugate()
        cplx[k] = c
        cplx[-k] = complex(rng.normal(), rng.normal())
    for coeffs in (real, cplx):
        f = fourier_synthesize(FourierSeries(coeffs), n)
        direct = sum(c * np.exp(1j * k * th) for k, c in coeffs.items())
        assert f.is_real == (coeffs is real)
        assert np.max(np.abs(f.values - direct)) < 1e-12


def test_synthesize_known_coefficients():
    f = fourier_synthesize(FourierSeries({0: 1.25, 1: -0.5, -1: -0.5}), 128)
    assert f.is_real
    assert np.max(np.abs(f.values - (1.25 - np.cos(grid_theta(128))))) < 1e-14


def test_synthesize_refuses_aliasing():
    with pytest.raises(AliasingError):
        fourier_synthesize(FourierSeries({32: 1.0, -32: 1.0}), 64)
    assert fourier_synthesize(FourierSeries({31: 1.0, -31: 1.0}), 64).n == 64


def test_conjugate_multiplier_law(rng):
    """Conjugate of cos(k t) is sin(k t), of sin(k t) is -cos(k t)."""
    n = 512
    th = grid_theta(n)
    for k in (1, 2, 7, 100):
        c = harmonic_conjugate(GridFunction(n, np.cos(k * th)))
        s = harmonic_conjugate(GridFunction(n, np.sin(k * th)))
        assert np.max(np.abs(c.values - np.sin(k * th))) < 1e-12
        assert np.max(np.abs(s.values + np.cos(k * th))) < 1e-12


def test_conjugate_kills_constants():
    f = GridFunction(64, np.full(64, 3.7))
    assert np.max(np.abs(harmonic_conjugate(f).values)) < 1e-13


def test_conjugate_involution(rng):
    """Twice the conjugate is minus the mean-free part, to machine precision."""
    n = 1024
    th = grid_theta(n)
    w = np.zeros(n)
    for k in range(1, 33):
        w += rng.uniform(-1, 1) * np.cos(k * th) + rng.uniform(-1, 1) * np.sin(k * th)
    w += 0.8
    twice = harmonic_conjugate(harmonic_conjugate(GridFunction(n, w)))
    assert np.max(np.abs(twice.values - (np.mean(w) - w))) < 1e-12


def test_conjugate_parseval(rng):
    """The conjugate preserves the energy of the mean-free part."""
    n = 1024
    th = grid_theta(n)
    w = np.zeros(n)
    for k in range(1, 17):
        w += rng.uniform(-1, 1) * np.cos(k * th) + rng.uniform(-1, 1) * np.sin(k * th)
    f = GridFunction(n, w + 2.0)
    conj = harmonic_conjugate(f)
    assert lp_norm(conj, 2) == pytest.approx(
        lp_norm(GridFunction(n, w), 2), rel=1e-10)


def test_conjugate_real_and_mean_free(rng):
    f = GridFunction(256, rng.normal(size=256))
    conj = harmonic_conjugate(f)
    assert conj.is_real
    assert abs(integrate(conj)) < 1e-12
    with pytest.raises(ParameterError):
        harmonic_conjugate(GridFunction(8, np.arange(8) * 1j))


def test_conjugate_indicator_sign_convention():
    """Pin the sign: conj(1_{(0,pi)}) = +(1/pi) log|tan(theta/2)|.

    The closed form comes from the principal-value convolution with the
    cotangent kernel: the antiderivative of cot((tau - t)/2) in t is
    -2 log|sin((tau - t)/2)|, which evaluates across the arc to
    (1/pi) log|tan(tau/2)| exactly.  Away from the jumps the FFT conjugate
    must match it, with the documented error decay in n.
    """
    assert CONJUGATE_ARC_SIGN == 1

    def worst_error(n, cut=0.1):
        th = grid_theta(n)
        ind = GridFunction(n, ((th > 0) & (th < np.pi)).astype(float))
        conj = harmonic_conjugate(ind).values
        with np.errstate(divide="ignore"):
            expect = CONJUGATE_ARC_SIGN / np.pi * np.log(np.abs(np.tan(th / 2)))
        dist = np.minimum(np.abs(th), np.pi - np.abs(th))
        mask = dist > cut
        return float(np.max(np.abs(conj[mask] - expect[mask])))

    err_4k = worst_error(4096)
    assert err_4k < 1e-2
    # halving the mesh roughly halves the jump-tail error
    assert worst_error(8192) < 0.7 * err_4k


def test_conjugate_indicator_pv_values():
    """Spot values of the principal-value integral on a fine grid."""
    n = 16384
    th = grid_theta(n)
    ind = GridFunction(n, ((th > 0) & (th < np.pi)).astype(float))
    conj = harmonic_conjugate(ind).values
    for tau in (-np.pi / 3, -2.0, 0.7, 2.5):
        j = int(round((tau + np.pi) * n / (2 * np.pi)))
        tau_j = th[j]
        # pv formula: -(1/pi) * (log|sin((tau-pi)/2)| - log|sin(tau/2)|)
        pv = -(1.0 / np.pi) * (np.log(abs(np.sin((tau_j - np.pi) / 2)))
                               - np.log(abs(np.sin(tau_j / 2))))
        assert pv == pytest.approx(
            (1.0 / np.pi) * np.log(abs(np.tan(tau_j / 2))), abs=1e-13)
        assert conj[j] == pytest.approx(pv, abs=5e-3)


def test_spectral_factor_boundary_and_h2():
    fac = SpectralFactor([1.0, -0.5])
    bvals = fac.boundary_values(64)
    th = grid_theta(64)
    assert np.max(np.abs(bvals.values - (1 - 0.5 * np.exp(1j * th)))) < 1e-12
    assert np.abs(fac.h2_norm() ** 2 - 2 * np.pi * 1.25) < 1e-12
    assert fac(0.0) == pytest.approx(1.0)
    assert fac(0.5 + 0.0j) == pytest.approx(0.75)
    with pytest.raises(ParameterError):
        fac.boundary_values(2)


def test_h2_distance_oracle():
    a = SpectralFactor([1.0, -0.5])
    b = SpectralFactor([1.0, 0.0, 0.25])
    expect = math.sqrt(2 * np.pi * (0.25 + 0.0625))
    assert h2_distance(a, b) == pytest.approx(expect, rel=1e-12)
    assert h2_distance(a, a) == 0.0


def test_json_roundtrips(rng):
    f = GridFunction(16, rng.normal(size=16))
    f2 = GridFunction.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert np.array_equal(f.values, f2.values)

    z = GridFunction(16, rng.normal(size=16) + 1j * rng.normal(size=16))
    z2 = GridFunction.from_json_dict(json.loads(json.dumps(z.to_json_dict())))
    assert np.array_equal(z.values, z2.values)

    s = FourierSeries({0: 1.0, 3: 0.5 - 0.25j, -3: 0.5 + 0.25j})
    s2 = FourierSeries.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
    assert s.coeffs == s2.coeffs

    with pytest.raises(ParameterError):
        GridFunction.from_json_dict({"n": 16, "values": [1.0] * 8})
    with pytest.raises(ParameterError):
        FourierSeries.from_json_dict({"coeffs": {"x": [1, 0]}})
