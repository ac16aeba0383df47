"""Grid conventions: quadrature, Fourier analysis, and the conjugate operator."""

import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from specfact import (
    AliasingError,
    FourierSeries,
    GridFunction,
    ParameterError,
    SpectralFactor,
    factorize_boundary,
    fourier_synthesize,
    grid_theta,
    h2_distance,
    harmonic_conjugate,
    lp_norm,
)
from specfact.circle_fn import _JSON_CHUNK, _TAIL_CUT, _lp_norms


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
        GridFunction(6, np.arange(6))


def test_grid_function_real_tag():
    """Samples are stored as float64, whatever real dtype they come in;
    complex samples are refused, even with a zero imaginary part."""
    for v in (np.arange(8), np.arange(8, dtype=np.float32), [True] * 8):
        assert GridFunction(8, v).values.dtype == np.float64
    for v in (np.arange(8) + 0j, np.arange(8) * 1j):
        with pytest.raises(ParameterError, match="real"):
            GridFunction(8, v)
    with pytest.raises(ParameterError, match="real"):
        GridFunction.from_callable(lambda t: np.exp(1j * t), 8)


def test_values_read_only():
    f = GridFunction(8, np.zeros(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def _handed_over(v):
    v = np.array(v)
    v.setflags(write=False)
    return v


#: the array a GridFunction or a SpectralFactor keeps of a given one
_HELD = [(lambda v: GridFunction(len(v), v).values, np.float64),
         (lambda v: SpectralFactor(v).coeffs, np.complex128)]


@pytest.mark.parametrize("held, dtype", _HELD)
def test_a_writeable_array_is_copied(held, dtype):
    """The caller keeps a writeable array, so the object copies it, and
    also a read-only view of it: writing to the array changes nothing."""
    v = np.arange(1.0, 9.0).astype(dtype)
    view = v.view()
    view.setflags(write=False)
    for given in (v, view):
        kept = held(given)
        assert not np.shares_memory(kept, v)
        v[0] = 99.0
        assert kept[0] == 1.0 and not kept.flags.writeable
        v[0] = 1.0


@pytest.mark.parametrize("held, dtype", _HELD)
def test_a_read_only_owned_array_is_shared(held, dtype):
    """A read-only array that owns its data, or a row of one, is handed
    over: the object keeps it without a copy, after the same checks."""
    v = _handed_over(np.arange(1.0, 9.0).astype(dtype))
    assert held(v) is v
    block = _handed_over(np.ones((2, 8), dtype=dtype))
    assert np.shares_memory(held(block[1]), block)
    with pytest.raises(ParameterError, match="finite"):
        held(_handed_over(np.full(8, np.inf, dtype=dtype)))


def test_integral_oracles():
    n = 512
    one = GridFunction.from_callable(lambda t: np.ones_like(t), n)
    # band-limited integrands are integrated exactly by the rectangle rule
    f = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), n)
    assert lp_norm(f, 1) == pytest.approx(2.5 * np.pi, abs=1e-12)
    assert lp_norm(one, 1) == pytest.approx(2 * np.pi, abs=1e-12)
    assert lp_norm(GridFunction.from_callable(np.cos, n), np.inf) == 1.0
    # L2 of cos: sqrt(pi)
    assert lp_norm(GridFunction.from_callable(np.cos, n), 2) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12)


def test_lp_norms_of_p_1_match_the_power_formula_bit_for_bit(rng):
    """p = 1 skips the power: every row's norm is the float that
    (|v| ** 1.0).sum() * h gives, on random (B, n) blocks, on values near
    1e-300 and 1e300, and for a single row."""
    for scale in (1.0, 1e-300, 1e300):
        for shape in ((8,), (1, 64), (4, 4096), (3, 1024)):
            v = scale * rng.normal(size=shape)
            h = 2.0 * np.pi / shape[-1]
            want = (np.abs(v) ** 1.0).sum(axis=-1) * h
            got = _lp_norms(v, 1)
            assert got.shape == want.shape
            assert got.tobytes() == np.asarray(want).tobytes(), (scale, shape)


def test_lp_norm_validation():
    f = GridFunction(8, np.ones(8))
    with pytest.raises(ParameterError):
        lp_norm(f, 0.5)
    with pytest.raises(ParameterError):
        lp_norm(f, math.nan)
    with pytest.raises(TypeError):  # numbers only: np.inf, not "inf"
        lp_norm(f, "inf")


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
    # no decay: every pair is printed as it is, and no tail is zeroed
    want = {"floor": 0.5, "neg_energy": 1e-20, "tail_l2": 0.0,
            "a": [[c.real, c.imag] for c in fac.coeffs]}
    assert json.dumps(fac.to_json_dict()) == json.dumps(want)



_J = _JSON_CHUNK


@pytest.mark.parametrize("pairs, head", [
    # no decay: every pair printed as it is
    (1, 1), (_J, _J), (_J + 1, _J + 1), (3 * _J + 1, 3 * _J + 1),
    # a zeroed tail from just before, at and just after a chunk join
    (3 * _J + 1, _J - 1), (3 * _J + 1, _J), (3 * _J + 1, _J + 1),
    # all zero: nothing above the cut
    (_J + 1, 0)])
@pytest.mark.parametrize("floor, neg_energy", [(None, None), (0.5, None),
                                               (None, 1e-20), (0.5, 0.0)])
@pytest.mark.parametrize("tail", [{}, {"method": "boundary", "outer": {
    "lhs": 1.5, "pass": True, "details": {"a": [1, 2]}}}])
def test_factor_json_writer_writes_the_dumped_dict(rng, pairs, head, floor,
                                                   neg_energy, tail):
    """The streamed line is json.dumps of to_json_dict plus the tail, also
    with an empty head or tail and across chunk joins.  Pairs before the
    last coefficient above the cut print as they are, a signed zero or
    subnormal among them too; the pairs after it print as [0.0, 0.0]."""
    probe = complex(-0.0, 5e-324)
    a = rng.normal(size=pairs) + 1j * rng.normal(size=pairs)
    a[head:] *= 1e-17 if head else 0.0
    if head:
        a[head // 3] = probe
    if 0 < head < pairs:
        a[-1] = probe
    fac = SpectralFactor(a, floor_applied=floor, neg_energy=neg_energy)
    fh = io.StringIO()
    fac.write_json(fh, tail)
    obj = fac.to_json_dict()
    assert fh.getvalue() == json.dumps({**obj, **tail}) + "\n"
    kept = fac.coeffs.view(np.float64).reshape(-1, 2)[:head].tolist()
    assert json.dumps(obj["a"]) == json.dumps(
        kept + [[0.0, 0.0]] * (pairs - head))
    assert obj["tail_l2"] == pytest.approx(np.linalg.norm(a[head:]),
                                           rel=1e-12)


def test_factor_json_tail_is_the_rounding_plateau():
    """exp(2 pi sin theta) = |f_plus|^2 with a_k = (-i pi)^k / k!: the line
    keeps a_0 ... a_{K-1} bit for bit, K - 1 being the last k with
    pi^k / k! above the cut relative to the largest |a_k|, and prints the
    rest of the n/2 pairs as [0.0, 0.0], with their l2 norm as tail_l2."""
    n = 4096
    f = GridFunction.from_callable(lambda t: np.exp(2 * np.pi * np.sin(t)), n)
    fac = factorize_boundary(f)
    coeffs = fac.coeffs
    # |a_k| = pi^k / k!
    exact = np.cumprod([1.0] + [math.pi / k for k in range(1, n // 2)])
    K = 1 + np.flatnonzero(exact > _TAIL_CUT * exact.max())[-1]
    obj = fac.to_json_dict()
    assert len(obj["a"]) == n // 2
    pairs = coeffs.view(np.float64).reshape(-1, 2)
    assert json.dumps(obj["a"][:K]) == json.dumps(pairs[:K].tolist())
    assert all(p == [0.0, 0.0] for p in obj["a"][K:])
    assert obj["tail_l2"] == pytest.approx(np.linalg.norm(coeffs[K:]),
                                           rel=1e-12)
    assert np.abs(coeffs[K:]).max() <= _TAIL_CUT * np.abs(coeffs).max()


@pytest.mark.parametrize("peak, rest", [(1e300, 1e284), (1.0, 1e-170)])
def test_factor_json_tail_l2_is_scale_free(peak, rest):
    """tail_l2 stays finite and nonzero where the squares of the zeroed
    coefficients over- or underflow."""
    fac = SpectralFactor(np.array([peak] + [rest] * 7))
    obj = fac.to_json_dict()
    assert obj["a"] == [[peak, 0.0]] + [[0.0, 0.0]] * 7
    assert obj["tail_l2"] == pytest.approx(rest * math.sqrt(7), rel=1e-14)


def test_synthesize_matches_direct_sum(rng):
    """fourier_synthesize agrees with sum_k c_k e^{i k theta_j} on the grid
    for a real-valued series and refuses a series that is not, naming a
    frequency where c_{-k} = conj(c_k) fails."""
    n = 256
    th = grid_theta(n)
    real = {0: complex(rng.normal(), 0)}
    for k in range(1, 20):
        c = complex(rng.normal(), rng.normal())
        real[k] = c
        real[-k] = c.conjugate()
    f = fourier_synthesize(FourierSeries(real), n)
    direct = sum(c * np.exp(1j * k * th) for k, c in real.items())
    assert f.values.dtype == np.float64
    assert np.max(np.abs(direct.imag)) < 1e-12
    assert np.max(np.abs(f.values - direct.real)) < 1e-12

    skewed = {**real, -7: real[-7] + 0.5j}
    with pytest.raises(ParameterError,
                       match="not real-valued.*not Hermitian at k = -?7:"):
        fourier_synthesize(FourierSeries(skewed), n)
    with pytest.raises(ParameterError, match="not real-valued"):
        fourier_synthesize(FourierSeries({0: 1j}), n)


@pytest.mark.parametrize("coeffs, named", [
    ({1: 0.5, "1": 0.25, 0: 2.0, -1: 0.5}, "k = 1 is given twice (key '1')"),
    ({0: 2.0, "-0": 7.0}, "k = 0 is given twice (key '-0')"),
])
def test_series_keys_that_name_one_frequency_are_refused(coeffs, named):
    """int() reads 1 and "1" (or "0" and "-0") as one k: the series refuses
    them rather than keep one of the two values."""
    with pytest.raises(ParameterError, match=re.escape(named)):
        FourierSeries(coeffs)


@pytest.mark.parametrize("key", [1.5, 2.0, "1.5", "x", None, (1,)])
def test_series_keys_that_are_not_integers_are_refused(key):
    """A key is an integer or a string int() reads: int() would truncate
    1.5 to k = 1, so a float is refused, whole or not."""
    with pytest.raises(ParameterError,
                       match=re.escape(f"non-integer frequency key {key!r}")):
        FourierSeries({key: 1.0, 0: 2.0})
    assert FourierSeries({np.int64(3): 1.0, "-3": 1.0, 0: 2.0}).coeffs == {
        3: 1.0, -3: 1.0, 0: 2.0}


@pytest.mark.parametrize("parse, obj, key", [
    (FourierSeries.from_json_dict,
     {"coeffs": {"0": [4, 0]}, "values": [1.0] * 8}, "values"),
    (FourierSeries.from_json_dict, {"coeffs": {"0": [4, 0]}, "n": 8}, "n"),
    (GridFunction.from_json_dict, {"values": [4.0] * 8, "floor": 1e-3},
     "floor"),
    (GridFunction.from_json_dict,
     {"n": 8, "values": [4.0] * 8, "coeffs": {"0": [4, 0]}}, "coeffs"),
])
def test_json_keys_that_no_reader_reads_are_refused(parse, obj, key):
    """An input that also says what its reader ignores is refused, and the
    refusal names the key."""
    with pytest.raises(ParameterError,
                       match=re.escape(f"does not read the key {key!r}")):
        parse(obj)


def test_synthesize_known_coefficients():
    f = fourier_synthesize(FourierSeries({0: 1.25, 1: -0.5, -1: -0.5}), 128)
    assert f.values.dtype == np.float64
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
    assert conj.values.dtype == np.float64
    assert abs(np.sum(conj.values) * (2 * np.pi / conj.n)) < 1e-12


def test_conjugate_indicator_sign_convention():
    """Pin the sign: conj(1_{(0,pi)}) = +(1/pi) log|tan(theta/2)|.

    The closed form comes from the principal-value convolution with the
    cotangent kernel: the antiderivative of cot((tau - t)/2) in t is
    -2 log|sin((tau - t)/2)|, which evaluates across the arc to
    (1/pi) log|tan(tau/2)| exactly.  Away from the jumps the FFT conjugate
    must match it, with the documented error decay in n.
    """
    def worst_error(n, cut=0.1):
        th = grid_theta(n)
        ind = GridFunction(n, ((th > 0) & (th < np.pi)).astype(float))
        conj = harmonic_conjugate(ind).values
        with np.errstate(divide="ignore"):
            expect = 1.0 / np.pi * np.log(np.abs(np.tan(th / 2)))
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
    assert bvals.dtype == np.complex128 and bvals.shape == (64,)
    assert np.max(np.abs(bvals - (1 - 0.5 * np.exp(1j * th)))) < 1e-12
    assert np.abs(h2_distance(fac, SpectralFactor([0.0])) ** 2
                  - 2 * np.pi * 1.25) < 1e-12
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


def test_h2_distance_matches_the_one_pass_formula_bit_for_bit(rng):
    """h2_distance squares |a - b| in place: the same float as
    sqrt(2 pi sum |a - b|^2) with fresh arrays, also for series of
    different lengths and with coefficients near 1e-300 and 1e300."""
    for scale in (1.0, 1e-300, 1e150):
        for ka, kb in ((1, 1), (7, 7), (2048, 2048), (5, 300), (300, 5)):
            pa, pb = (scale * (rng.normal(size=k) + 1j * rng.normal(size=k))
                      for k in (ka, kb))
            a, b = SpectralFactor(pa), SpectralFactor(pb)
            K = max(ka, kb)
            pa, pb = (np.pad(c, (0, K - len(c))) for c in (pa, pb))
            want = float(np.sqrt(2.0 * np.pi * (np.abs(pa - pb) ** 2).sum()))
            assert h2_distance(a, b).hex() == want.hex(), (scale, ka, kb)


def test_h2_distance_beyond_the_double_range_is_inf_without_warning():
    """The documented contract: a distance beyond the double range is inf,
    with no overflow warning, also where a - b itself overflows."""
    a = SpectralFactor(np.array([1e308, 0.0]))
    b = SpectralFactor(np.array([-1e308, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert h2_distance(a, b) == math.inf
        big = SpectralFactor(np.full(4, 1e200))
        assert h2_distance(big, SpectralFactor([0.0])) == math.inf


def test_json_roundtrips(rng):
    """Values written in the command line's JSON input formats parse back
    unchanged."""
    v = rng.normal(size=16)
    f = GridFunction.from_json_dict(json.loads(json.dumps(
        {"n": 16, "values": v.tolist()})))
    assert np.array_equal(f.values, v)

    g = GridFunction.from_json_dict(json.loads(json.dumps(
        {"values": v.tolist()})))
    assert g.n == 16 and np.array_equal(g.values, v)

    s = FourierSeries.from_json_dict(json.loads(json.dumps(
        {"coeffs": {"0": [1.0, 0.0], "3": [0.5, -0.25], "-3": [0.5, 0.25]}})))
    assert s.coeffs == {0: 1.0, 3: 0.5 - 0.25j, -3: 0.5 + 0.25j}

    with pytest.raises(ParameterError):
        GridFunction.from_json_dict({"n": 16, "values": [1.0] * 8})
    with pytest.raises(ParameterError):
        FourierSeries.from_json_dict({"coeffs": {"x": [1, 0]}})
    # complex samples have no JSON form
    with pytest.raises(ParameterError, match="values key"):
        GridFunction.from_json_dict(
            {"values_complex": [[c, 0.0] for c in v.tolist()]})


def test_grid_json_refuses_a_non_integer_n():
    """A declared n that is not an integer (a bool included) is refused as
    such, not as a sample-count mismatch; values that are not a flat list
    of numbers are refused."""
    for n in ("8", 8.0, None, True):
        with pytest.raises(ParameterError, match="must be an integer"):
            GridFunction.from_json_dict({"n": n, "values": [1.0] * 8})
    for obj in ({"values": 5.0}, {"n": 8, "values": 5.0},
                {"values": [[1.0] * 8]}, {"values": [[1.0, 0.0]] * 8},
                {"n": 8, "values": {"a": 1}},
                {"values": [{"a": 1}, 2, 3, 4, 5, 6, 7, 8]}):
        with pytest.raises(ParameterError):
            GridFunction.from_json_dict(obj)
    # JSON booleans and strings, which float() reads as 1, 0 and 4, are
    # not numbers
    for values in ([True] * 8, [1.0] * 7 + [False], ["4"] * 8,
                   [4.0] * 7 + ["4"]):
        with pytest.raises(ParameterError, match="values key"):
            GridFunction.from_json_dict({"values": values})
    for pair in ([True, False], [1.0, False], ["4", "0"], [4.0, "0"]):
        with pytest.raises(ParameterError, match=r"must be \[re, im\]"):
            FourierSeries.from_json_dict({"coeffs": {"0": pair}})
