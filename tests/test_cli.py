"""End-to-end exercises of the command-line interface, in process."""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfact
from specfact import (
    GridFunction,
    NFunction,
    SpectralFactor,
    cross_validate_pipeline,
    factorize_boundary,
    lemma_G_report,
    outer_check,
    random_density,
    random_phase,
    verify_theorem_1,
)
from specfact import factorization
from specfact.bounds import CHECKS
from specfact.circle_fn import _JSON_CHUNK
from specfact.cli import _build_parser, _parse_samples, main
from specfact.factorization import FR_MAX_DEGREE, HERGLOTZ_MAX_DEGREE
from specfact.orlicz import GAUGES
from specfact.report import RULES, _plain, bound_report

from oracles import report, same_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_constants(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"K", "K0", "C2", "C_inf"}
    assert obj["K0"] < 1.25
    assert obj["C_inf"] == pytest.approx(2 * obj["K0"], rel=1e-14)


def test_factorize_boundary_constant_file(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("4 4 4 4 4 4 4 4\n")
    code, out, _ = run(capsys, "factorize", str(path), "--method", "boundary")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "boundary"
    assert obj["outer"]["pass"] is True
    a = obj["a"]
    assert a[0][0] == pytest.approx(2.0, rel=1e-12)
    assert abs(a[0][1]) < 1e-12
    assert sum(abs(re) + abs(im) for re, im in a[1:]) < 1e-8


def test_factorize_boundary_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4, 4, 4, 4, 4, 4, 4, 4"))
    code, out, _ = run(capsys, "factorize", "--method", "boundary")
    assert code == 0
    assert json.loads(out)["a"][0][0] == pytest.approx(2.0, rel=1e-12)


def test_factorize_fejer_riesz_series(tmp_path, capsys):
    series = {"coeffs": {"0": [1.25, 0.0], "1": [-0.5, 0.0],
                         "-1": [-0.5, 0.0]}}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series))
    code, out, _ = run(capsys, "factorize", str(path),
                       "--method", "fejer-riesz")
    assert code == 0
    obj = json.loads(out)
    a = obj["a"]
    assert len(a) == 2
    assert a[0][0] == pytest.approx(1.0, abs=1e-9)
    assert a[1][0] == pytest.approx(-0.5, abs=1e-9)
    assert obj["outer"]["pass"] is True


def test_factorize_fejer_riesz_rejects_grid(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("4 4 4 4 4 4 4 4\n")
    code, _, err = run(capsys, "factorize", str(path),
                       "--method", "fejer-riesz")
    assert code == 2
    assert "series" in err


def test_factorize_nonpositive(tmp_path, capsys):
    n = 256
    theta = [(-math.pi + 2 * math.pi * j / n) for j in range(n)]
    path = tmp_path / "dips.txt"
    path.write_text("\n".join(f"{math.cos(t):.17g}" for t in theta))
    code, _, err = run(capsys, "factorize", str(path), "--method", "boundary")
    assert code == 3
    assert err.startswith("specfact: domain error: density is not positive")
    # a clamp above the range keeps the density smooth; a binding clamp
    # would add corners whose aliasing honestly fails the 1e-8 outer gate
    code, out, _ = run(capsys, "factorize", str(path),
                       "--method", "boundary", "--floor", "2.0")
    assert code == 0
    obj = json.loads(out)
    assert obj["outer"]["pass"] is True
    assert obj["a"][0][0] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_nonpositive_density_names_the_command_line_remedy(tmp_path, capsys):
    """factorize by boundary and herglotz names --floor, not the Python
    keyword floor=...; fejer-riesz, which refuses --floor, and bounds, which
    has no clamp, name none."""
    dips = tmp_path / "dips.txt"
    dips.write_text("1 0.5 -0.25 0.5 1 2 3 2\n")
    finding = ("specfact: domain error: density is not positive: sample 2 "
               "(theta = -1.570796) has value -0.25")
    for method in ("boundary", "herglotz"):
        code, out, err = run(capsys, "factorize", str(dips), "--method",
                             method)
        assert code == 3 and not out
        assert err == finding + "; pass --floor to clamp\n", err
    flat = tmp_path / "flat.txt"
    flat.write_text("1 1 1 1 1 1 1 1\n")
    code, out, err = run(capsys, "bounds", str(dips), str(flat),
                         "--check", "thm2")
    assert code == 3 and not out
    assert err == finding + "\n", err
    # 1 + cos t: the root route factors it, but its sample at -pi is 0
    series = tmp_path / "touch.json"
    series.write_text('{"coeffs": {"0": [1, 0], "1": [0.5, 0], '
                      '"-1": [0.5, 0]}}')
    code, out, err = run(capsys, "factorize", str(series), "--method",
                         "fejer-riesz")
    assert code == 3 and not out
    assert err.startswith("specfact: domain error: density is not positive: "
                          "sample 0 (theta = -3.141593) has value "), err
    assert "floor" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("method, option", [
    ("fejer-riesz", ("--floor", "0.5")),
    ("fejer-riesz", ("--degree", "8")),
    ("boundary", ("--degree", "8")),
])
def test_factorize_refuses_what_the_method_does_not_read(tmp_path, capsys,
                                                         method, option):
    series = tmp_path / "series.json"
    series.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                      '"-1": [-0.5, 0]}}')
    code, out, err = run(capsys, "factorize", str(series), "--method",
                         method, *option)
    assert code == 2 and not out
    assert err == (f"specfact: cannot parse input: --method {method} "
                   f"does not read {option[0]}\n"), err
    # without the option the same command runs
    assert run(capsys, "factorize", str(series), "--method", method)[0] == 0


@pytest.mark.parametrize("method", ["boundary", "herglotz"])
@pytest.mark.parametrize("floor", ["inf", "nan", "0", "-1"])
def test_factorize_refuses_a_floor_that_is_not_positive_and_finite(
        tmp_path, capsys, method, floor):
    """Refused before any arithmetic: one stderr line and no warning."""
    path = tmp_path / "flat.txt"
    path.write_text("4 4 4 4 4 4 4 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "factorize", str(path), "--method",
                             method, "--floor", floor)
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "floor must be positive and finite" in lines[0]


@pytest.mark.parametrize("method", ["boundary", "herglotz"])
@pytest.mark.parametrize("source", ["samples", "series"])
@pytest.mark.parametrize("floor", [0.3, 1e-9])
def test_floor_only_prepares_the_input(tmp_path, capsys, method, source,
                                       floor):
    """factorize X --floor c prints, bit for bit, the line that factorize
    of the text samples max(x, c) prints, plus the floor key: the routes
    and the outer check read the clamped density as given.  Both inputs
    have the minimum 0.25, so 0.3 binds and 1e-9 does not."""
    n = 256
    theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
    if source == "series":
        path = tmp_path / "series.json"
        path.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                        '"-1": [-0.5, 0]}}')
        x = specfact.fourier_synthesize(
            specfact.FourierSeries({0: 1.25, 1: -0.5, -1: -0.5}), n).values
        argv = [str(path), "--n", str(n)]
    else:
        x = np.abs(1 + np.exp(1j * theta) / 2) ** 2
        argv = [_write_samples(tmp_path / "x.txt", x)]
    clamped = _write_samples(tmp_path / "clamped.txt", np.maximum(x, floor))
    code, out, err = run(capsys, "factorize", *argv, "--method", method,
                         "--floor", repr(floor))
    assert run(capsys, "factorize", clamped, "--method", method) == (
        code, out.replace(f'"floor": {floor!r}, ', "", 1), err)
    assert out.startswith(f'{{"floor": {floor!r}, ') and not err
    assert json.loads(out)["outer"]["pass"] is True


def test_factorize_density_near_the_float_maximum(tmp_path, capsys):
    """4096 samples of 1e302: n^2 max f overflows, the energy ratio does
    not, and the run exits 0 with no numpy warning."""
    path = tmp_path / "big.txt"
    path.write_text("1e302\n" * 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "factorize", str(path), "--method",
                           "boundary")
    assert code == 0
    obj = json.loads(out)
    assert obj["neg_energy"] == 0.0
    assert obj["a"][0][0] == pytest.approx(1e151, rel=1e-12)


@pytest.mark.parametrize("check", ["thm2", "cor-p", "main", "identity"])
def test_bounds_identical_densities_near_the_float_maximum(tmp_path, capsys,
                                                           check):
    """f = g = 1e308: every distance is 0, so every distance term is 0,
    although ||f||_inf, ||f||_2 and 2 f overflow; each pair check passes
    with lhs = rhs = 0 and no numpy warning."""
    path = tmp_path / "big.txt"
    path.write_text("1e308\n" * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "bounds", str(path), str(path),
                           "--check", check)
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] and (obj["lhs"], obj["rhs"]) == (0.0, 0.0), obj


@pytest.mark.parametrize("check", ["thm2", "cor-p", "main", "identity"])
def test_bounds_pair_beyond_the_double_range_is_refused(tmp_path, capsys,
                                                        check):
    """f = 1e308 against g = 1e307: ||f+ - g+||^2 and ||f - g||_1 leave the
    double range, and inf <= inf decides nothing.  Every pair check exits 3
    with one stderr line, prints nothing on stdout, and numpy warns of no
    overflow on the way."""
    f, g = tmp_path / "f.txt", tmp_path / "g.txt"
    f.write_text("1e308\n" * 8)
    g.write_text("1e307\n" * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", str(f), str(g),
                             "--check", check)
    assert (code, out) == (3, ""), out
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("specfact: numerically unresolved:"), err


def test_bound_report_refuses_a_side_that_is_not_finite():
    for lhs, rhs in ((math.inf, math.inf), (math.nan, 0.0), (1.0, -math.inf)):
        with pytest.raises(specfact.NumericalConditioningError,
                           match="finite"):
            bound_report("thm2", lhs, rhs, tol=1e-9)
    assert bound_report("thm2", 0.0, 0.0, tol=1e-9).passed


def test_thm2_report_needs_its_sharp_side():
    """Theorem 2 is checked with 2.5 and with the sharp 2 K0: an lhs within
    rhs (1 + tol) + atol but above rhs_sharp (1 + tol) + atol fails."""
    for lhs, passed in ((0.99, True), (0.995, False), (1.0 + 1e-10, False)):
        rep = bound_report("thm2", lhs, 1.0, tol=1e-9, atol=1e-12,
                           details={"rhs_sharp": 0.99})
        assert rep.passed is passed, lhs
        assert rep.slack == 1.0 - lhs


def _from_json(v):
    """A parsed JSON value with the "inf" and "-inf" of non-finite floats
    read back as floats."""
    if isinstance(v, dict):
        return {k: _from_json(x) for k, x in v.items()}
    return float(v) if v in ("inf", "-inf") else v


def test_every_report_reaudits_from_its_own_json(capsys):
    """Each printed report carries every field its pass rule reads."""
    objs = []
    for check in CHECKS:
        for seed in range(5):
            code, out, _ = run(capsys, "bounds", "--check", check, "--sweep",
                               "2", "--seed", str(seed), "--n", "256")
            assert code in (0, 1)
            objs += out_lines(out)
    rng = np.random.default_rng(3)
    f, g = (random_density(rng, n=256) for _ in range(2))
    psi = random_phase(rng, n=1024, degree=12)
    dens = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), 512)
    reports = [
        *(lemma_G_report(gauge, psi) for gauge in GAUGES),
        # the factor, an imposter with a0 = 0 and one with a0 > 0
        *(outer_check(factor, dens) for factor in (
            factorize_boundary(dens), SpectralFactor([0.0, 1.0, -0.5]),
            SpectralFactor([0.5, -1.0]))),
        *(verify_theorem_1(n, variant=variant) for n in range(1, 6)
          for variant in ("floored", "plus-one")),
        *(cross_validate_pipeline(eps) for eps in (4.0, 7.0, 12.0)),
    ]
    objs += [json.loads(json.dumps(rep.to_json_dict())) for rep in reports]
    for obj in map(_from_json, objs):
        rule = RULES.get(obj["name"], _plain)
        assert rule(obj["lhs"], obj["rhs"], obj["details"]) == obj["pass"], obj
        assert obj["slack"] == obj["rhs"] - obj["lhs"], obj
    assert {obj["name"] for obj in objs} == {
        *CHECKS, "lemma-g", "outer-check", "thm1",
        "cross-validation"}
    assert not all(obj["pass"] for obj in objs)


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    """main builds its parser once per process.  A call that sets an option
    and then one that leaves it out, and an argparse error (exit 2) and
    then a valid call, each print and exit as a fresh
    `python -m specfact.cli` does."""
    assert _build_parser() is _build_parser()
    density = tmp_path / "f.txt"
    theta = -np.pi + 2.0 * np.pi * np.arange(64) / 64
    density.write_text("\n".join(map(repr, (1.0 + 0.9 * np.cos(theta)).tolist())))
    thm2 = ["bounds", "--check", "thm2", "--sweep", "2"]
    calls = [
        ["factorize", str(density), "--method", "boundary", "--floor", "0.5"],
        ["factorize", str(density), "--method", "boundary"],
        ["bounds", "--check", "main", "--phi", json.dumps(LLOGL_PHI),
         "--sweep", "2"],
        thm2,
        ["bounds", "--sweep", "2"],  # no --check
        thm2,
    ]
    env = dict(os.environ, PYTHONPATH=str(
        Path(specfact.__file__).resolve().parent.parent))
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "specfact.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        codes.append(code)
    assert codes[4] == 2 and codes[5] == 0, codes


def test_bounds_huge_power_q_names_both_exponents(capsys):
    """q = 1e17: main needs the complement, whose exponent q/(q-1) rounds
    to 1, and the refusal names both numbers; lemma-orl never builds the
    complement and accepts the q."""
    phi = json.dumps({"kind": "power", "q": 1e17})
    code, out, err = run(capsys, "bounds", "--check", "main", "--sweep", "1",
                         "--n", "256", "--phi", phi)
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "q = 1e+17" in lines[0], err
    assert "rounds to 1.0" in lines[0], err
    code, _, _ = run(capsys, "bounds", "--check", "lemma-orl", "--sweep", "1",
                     "--n", "256", "--phi", phi)
    assert code == 0


def test_bounds_unusable_complement_refused_before_any_draw(capsys,
                                                            monkeypatch):
    """main builds the complement of its phi before the sweep draws: with
    the draw stubbed to raise, q = 1e17 still exits 2 with the complement
    refusal."""
    def no_draw(*args):
        raise RuntimeError("a sweep block was drawn")

    monkeypatch.setattr("specfact.cli._sweep_blocks", no_draw)
    phi = json.dumps({"kind": "power", "q": 1e17})
    code, out, err = run(capsys, "bounds", "--check", "main", "--sweep", "1",
                         "--n", "256", "--phi", phi)
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "has no usable complement" in lines[0], err


@pytest.mark.parametrize("method", ["boundary", "herglotz"])
def test_factorize_refuses_n_for_sample_input(tmp_path, capsys, method):
    samples = tmp_path / "flat.txt"
    samples.write_text("4 4 4 4 4 4 4 4\n")
    code, out, err = run(capsys, "factorize", str(samples), "--method",
                         method, "--n", "512")
    assert code == 2 and not out
    assert err.startswith("specfact: cannot parse input: --n 512")
    assert len(err.strip().splitlines()) == 1
    assert run(capsys, "factorize", str(samples), "--method", method)[0] == 0
    # series input reads --n
    series = tmp_path / "series.json"
    series.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                      '"-1": [-0.5, 0]}}')
    code, out, _ = run(capsys, "factorize", str(series), "--method", method,
                       "--n", "512")
    assert code == 0 and json.loads(out)["outer"]["pass"] is True


def test_bounds_refuses_n_without_series_or_sweep(tmp_path, capsys):
    f = random_density(np.random.default_rng(2), n=256)
    samples = tmp_path / "s.txt"
    samples.write_text("\n".join(map(repr, f.values.tolist())))
    code, out, err = run(capsys, "bounds", str(samples), str(samples),
                         "--check", "thm2", "--n", "512")
    assert code == 2 and not out
    assert err.startswith("specfact: cannot parse input: --n 512")
    assert len(err.strip().splitlines()) == 1
    assert run(capsys, "bounds", str(samples), str(samples),
               "--check", "thm2")[0] == 0
    # one series among the inputs reads --n, and sets the grid of the pair
    series = tmp_path / "series.json"
    series.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                      '"-1": [-0.5, 0]}}')
    assert run(capsys, "bounds", str(series), str(series), "--check", "thm2",
               "--n", "512")[0] == 0
    code, _, err = run(capsys, "bounds", str(series), str(samples),
                       "--check", "thm2", "--n", "512")
    assert code == 2 and "share a grid" in err, err


def test_factorize_fejer_riesz_refuses_non_hermitian_before_roots(
        tmp_path, capsys, monkeypatch):
    def roots(_):
        pytest.fail("the root step ran on a series that is not Hermitian")

    monkeypatch.setattr(factorization, "_fr_roots", roots)
    path = tmp_path / "skewed.json"
    path.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 1e-10], '
                    '"-1": [-0.5, 0]}}')
    code, out, err = run(capsys, "factorize", str(path),
                         "--method", "fejer-riesz")
    assert code == 2 and not out
    assert "not Hermitian at k = 1" in err
    assert len(err.strip().splitlines()) == 1


def _write_samples(path, values):
    path.write_text("\n".join(map(repr, np.asarray(values).tolist())))
    return str(path)


def _quarter_poly(tmp_path, n):
    """n samples of |1 + z/2|^2, whose outer factor is 1 + z/2."""
    z = np.exp(1j * (-np.pi + 2 * np.pi * np.arange(n) / n))
    return _write_samples(tmp_path / f"quarter-{n}.txt", np.abs(1 + z / 2) ** 2)


def _coefficients(out):
    return np.array([complex(re, im) for re, im in json.loads(out)["a"]])


def test_factorize_herglotz_degree_defaults_to_64(tmp_path, capsys):
    path = _quarter_poly(tmp_path, 256)
    _, plain, _ = run(capsys, "factorize", path, "--method", "herglotz")
    _, explicit, _ = run(capsys, "factorize", path, "--method",
                         "herglotz", "--degree", "64")
    assert plain == explicit and len(json.loads(plain)["a"]) == 65


def test_factorize_herglotz_default_degree_fits_the_grid(tmp_path, capsys):
    """On n <= 128 samples the default degree is n/2 - 1, and the route
    then matches the boundary route on every coefficient: no alias of a
    low coefficient is printed as a high one."""
    flat = tmp_path / "flat.txt"
    flat.write_text("4 4 4 4 4 4 4 4\n")
    code, out, _ = run(capsys, "factorize", str(flat), "--method", "herglotz")
    a = _coefficients(out)
    assert code == 0 and len(a) == 4
    assert np.max(np.abs(a - [2, 0, 0, 0])) < 1e-12

    path = _quarter_poly(tmp_path, 64)
    code, out, _ = run(capsys, "factorize", path, "--method", "herglotz")
    herglotz = _coefficients(out)
    assert code == 0 and len(herglotz) == 32
    code, out, _ = run(capsys, "factorize", path, "--method", "boundary")
    boundary = _coefficients(out)
    assert code == 0 and len(boundary) == 32
    assert np.max(np.abs(herglotz - boundary)) < 1e-11


@pytest.mark.parametrize("n, degree, limit", [
    (8, 4, "0 .. 3"), (64, 32, "0 .. 31"), (64, 300, "0 .. 31"),
    (4096, HERGLOTZ_MAX_DEGREE + 1, f"0 .. {HERGLOTZ_MAX_DEGREE}")])
def test_factorize_herglotz_refuses_unresolved_degrees(tmp_path, capsys, n,
                                                       degree, limit):
    path = _quarter_poly(tmp_path, n)
    code, out, err = run(capsys, "factorize", path, "--method", "herglotz",
                         "--degree", str(degree))
    assert code == 2 and not out
    assert f"--degree {degree}" in err and limit in err
    assert len(err.strip().splitlines()) == 1


_NON_REAL_SERIES = ('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0.3], '
                    '"-1": [-0.5, 0]}}')


@pytest.mark.parametrize("argv", [
    ["factorize", "{x}", "--method", "boundary"],
    ["factorize", "{x}", "--method", "herglotz"],
    ["factorize", "{x}", "--method", "fejer-riesz"],
    ["bounds", "{x}", "{ok}", "--check", "thm2"],
    ["bounds", "{ok}", "{x}", "--check", "identity"],
    ["bounds", "{x}", "--check", "lemma-l1"],
])
@pytest.mark.parametrize("text, message", [
    (_NON_REAL_SERIES, "not real-valued"),
    ('{"values_complex": [[1, 0], [1, 0], [1, 0], [1, 0], [1, 0], [1, 0], '
     '[1, 0], [1, 0]]}', "values key"),
    ("1+1j 1 1 1 1 1 1 1", "1+1j"),
    ('{"n": "8", "values": [1, 1, 1, 1, 1, 1, 1, 1]}', "must be an integer"),
])
def test_inputs_that_are_not_real_exit_2(tmp_path, capsys, argv, text,
                                         message):
    """Complex samples, a non-real series and a malformed grid JSON are
    refused by every command with one stderr line."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    ok = tmp_path / "ok.json"
    ok.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                  '"-1": [-0.5, 0]}}')
    code, out, err = run(capsys, *(a.format(x=bad, ok=ok) for a in argv))
    assert code == 2 and not out, err
    assert message in err and len(err.strip().splitlines()) == 1, err


def test_factorize_herglotz_largest_degree(tmp_path, capsys):
    """The cap is the largest d with 2^-52 0.9^-d <= 1e-6, and at the cap
    the route still meets 1e-6 on 4096 samples of |1 + z/2|^2."""
    d = HERGLOTZ_MAX_DEGREE
    assert 2.0 ** -52 * 0.9 ** -d <= 1e-6 < 2.0 ** -52 * 0.9 ** -(d + 1)
    code, out, _ = run(capsys, "factorize", _quarter_poly(tmp_path, 4096),
                       "--method", "herglotz", "--degree", str(d))
    a = _coefficients(out)
    assert code == 0 and len(a) == d + 1
    assert np.max(np.abs(a - np.r_[1.0, 0.5, np.zeros(d - 1)])) < 1e-6


def test_parse_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "factorize", str(bad), "--method", "boundary")[0] == 2
    assert run(capsys, "factorize", str(tmp_path / "missing.txt"),
               "--method", "boundary")[0] == 2
    words = tmp_path / "words.txt"
    words.write_text("one two three")
    assert run(capsys, "factorize", str(words), "--method", "boundary")[0] == 2
    # JSON of the wrong type: one stderr line, through both commands
    wrong = tmp_path / "wrong.json"
    for text in ('{"n": 8, "values": {"a": 1}}',
                 '{"values": [{"a": 1}, 2, 3, 4, 5, 6, 7, 8]}',
                 '{"coeffs": {"0": {"re": 1}}}',
                 '{"coeffs": {"0": [1, {"x": 0}]}}',
                 '{"n": true, "values": [1, 1, 1, 1, 1, 1, 1, 1]}',
                 # JSON booleans, which float() reads as 1 and 0
                 '{"values": [true, true, true, true, true, true, true, true]}',
                 '{"values": [4, 4, 4, 4, 4, 4, 4, false]}',
                 '{"coeffs": {"0": [true, false]}}',
                 '{"coeffs": {"0": [4, 0], "1": [1, false], "-1": [1, 0]}}'):
        wrong.write_text(text)
        for argv in (["factorize", str(wrong), "--method", "boundary"],
                     ["bounds", str(wrong), "--check", "lemma-l1"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out, (text, argv)
            assert len(err.strip().splitlines()) == 1, (text, err)



@pytest.mark.parametrize("json_input, named", [
    ('{"values": ["4", "4", "4", "4", "4", "4", "4", "4"]}', "values key"),
    ('{"coeffs": {"0": ["4", "0"]}}', "coefficient at k = 0"),
    ('{"kind": "power", "q": "3"}', "key 'q'"),
])
def test_json_strings_are_not_numbers(tmp_path, capsys, json_input, named):
    """float() and numpy read the string "4" as 4, but a JSON string is no
    number: a grid's values, a series pair and --phi's q refuse it with
    exit 2, nothing on stdout and one stderr line that names the field."""
    if '"kind"' in json_input:
        argv = ["bounds", "--check", "lemma-orl", "--sweep", "1", "--n",
                "256", "--phi", json_input]
    else:
        path = tmp_path / "strings.json"
        path.write_text(json_input)
        argv = ["factorize", str(path), "--method", "boundary"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and named in lines[0], err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"),
                    reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_command_silently():
    """A reader that closes standard output after 10 bytes ends the
    `specfact` command by SIGPIPE, as it ends a POSIX filter, with nothing
    on stderr: not exit 2 with 'cannot parse input: Broken pipe'."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(specfact.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "specfact.cli", "bounds", "--check", "thm2",
         "--sweep", "2000", "--n", "256"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def _per_token(text):
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


_REPRS = 10.0 ** np.arange(-300, 301, 7) * np.linspace(-1.7, 1.7, 86)


@pytest.mark.parametrize("text", [
    "\n".join(map(repr, _REPRS.tolist())),
    "1.7976931348623157e308 2.2250738585072014e-308 0.1 1. .5 +3 1E5",
    "0 -0 0.0 -0.0 +0.0",
    "5e-324 -4.9e-324 2.5e-320 2.2250738585072009e-308",
    "1e-400 -1e-400 1e400 -1e400",
    "nan NaN NAN -nan +nan inf -inf +inf Inf INF infinity -Infinity",
    "1.5\r\n2.5\r\n", "1\t2\t\t3", "1\f2\v3 \f", "1,2,,3 , 4,",
    # float() reads these and numpy does not: the token-by-token path
    "1_0 2", "1\u00a02", "1\u20082", "\u0661\u0662 3",
])
def test_sample_parse_matches_float_per_token(text):
    """The bulk parse gives the doubles float() gives token by token, bit
    for bit (a nan's sign aside), read-only."""
    got, want = _parse_samples(text), _per_token(text)
    assert got.dtype == np.float64 and not got.flags.writeable
    nan = np.isnan(want)
    assert got.shape == want.shape and (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("text", ["", " \n\t \n", ",,,", " , ,\r\n"])
@pytest.mark.parametrize("stdin", [False, True])
def test_text_without_samples_exits_2(tmp_path, capsys, monkeypatch, text,
                                      stdin):
    """numpy alone reads whitespace as the one sample -1.0; no token at
    all is refused as such, from a path and from standard input."""
    path = tmp_path / "blank.txt"
    path.write_text(text)
    source = "-" if stdin else str(path)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "factorize", source, "--method", "boundary")
    assert code == 2 and not out
    assert err == f"specfact: cannot parse input: no samples found in " \
                  f"{source!r}\n"


@pytest.mark.parametrize("token", ["1+1j", "1e5x", "abc"])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("warn_only", [False, True])
def test_unreadable_tokens_are_named_not_truncated(tmp_path, capsys,
                                                   monkeypatch, token, where,
                                                   warn_only):
    """Eight good samples and one bad token exit 2 naming the token; the
    good prefix is never factored, also under a numpy that only warns on
    unmatched data and returns what it read."""
    if warn_only:
        def fromstring(text, sep):
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data", DeprecationWarning)
            return np.full(8, 4.0)
        monkeypatch.setattr(np, "fromstring", fromstring)
    good = ["4"] * 8
    path = tmp_path / "bad.txt"
    path.write_text(" ".join([token] + good if where == "first"
                             else good + [token]))
    for argv in (["factorize", str(path), "--method", "boundary"],
                 ["bounds", str(path), str(path), "--check", "thm2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == (f"specfact: cannot parse input: could not convert "
                       f"string to float: {token!r}\n")


@pytest.mark.parametrize("token", ["nan(123)", "nan()"])
def test_nan_with_payload_is_refused_as_not_finite(tmp_path, capsys, token):
    """float() refuses nan(...) and numpy reads it as nan: either way the
    sample exits 2, now as a sample that is not finite."""
    path = tmp_path / "nan.txt"
    path.write_text(" ".join([token] + ["4"] * 7))
    code, out, err = run(capsys, "factorize", str(path), "--method",
                         "boundary")
    assert code == 2 and not out
    assert err == "specfact: cannot parse input: grid samples must be finite\n"


def _dumped_line(factor, fh, tail):
    fh.write(json.dumps({**factor.to_json_dict(), **tail}) + "\n")


@pytest.mark.parametrize("source, argv", [
    ("samples", ["--method", "boundary"]),
    ("samples", ["--method", "boundary", "--floor", "0.3"]),
    ("stdin", ["--method", "boundary"]),
    ("small", ["--method", "herglotz"]),
    ("small", ["--method", "herglotz", "--floor", "0.3", "--degree", "40"]),
    ("series", ["--method", "boundary", "--n", "1024"]),
    ("series", ["--method", "herglotz"]),
    ("series", ["--method", "fejer-riesz"]),
])
def test_factorize_line_is_the_dumped_dict(tmp_path, capsys, monkeypatch,
                                           source, argv):
    """factorize streams exactly json.dumps of the factor's dict with
    method and outer added, whatever the method, head and input kind."""
    n = 8 * _JSON_CHUNK if source in ("samples", "stdin") else 256
    z = np.exp(1j * (-np.pi + 2 * np.pi * np.arange(n) / n))
    path = _write_samples(tmp_path / "dip.txt",
                          np.abs(1 + 0.9 * z + 0.3j * z ** 3) ** 2)
    if source == "series":
        path = str(tmp_path / "series.json")
        Path(path).write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                              '"-1": [-0.5, 0]}}')
    if source == "stdin":
        stdin = Path(path).read_text()
        path = "-"
    runs = []
    for writer in (None, _dumped_line):
        if writer is not None:
            monkeypatch.setattr(SpectralFactor, "write_json", writer)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        runs.append(run(capsys, "factorize", path, *argv))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code in (0, 1) and out.endswith("}\n")
    if source in ("samples", "stdin"):
        assert len(json.loads(out)["a"]) > 2 * _JSON_CHUNK


def test_bounds_pair_from_files(tmp_path, capsys):
    n = 256
    fp = tmp_path / "f.json"
    gp = tmp_path / "g.json"
    theta = [(-math.pi + 2 * math.pi * j / n) for j in range(n)]
    fp.write_text(json.dumps(
        {"n": n, "values": [2 + math.cos(t) for t in theta]}))
    gp.write_text(json.dumps(
        {"n": n, "values": [2 + 0.9 * math.cos(t) for t in theta]}))
    code, out, _ = run(capsys, "bounds", str(fp), str(gp), "--check", "thm2")
    assert code == 0
    obj = json.loads(out)
    assert obj["name"] == "thm2" and obj["pass"] is True
    assert run(capsys, "bounds", str(fp), str(gp), "--check", "identity")[0] == 0


def test_bounds_lemma_single_input(tmp_path, capsys):
    n = 256
    pp = tmp_path / "psi.json"
    theta = [(-math.pi + 2 * math.pi * j / n) for j in range(n)]
    pp.write_text(json.dumps(
        {"n": n, "values": [0.3 * math.sin(2 * t) for t in theta]}))
    code, out, _ = run(capsys, "bounds", str(pp), "--check", "lemma-l1")
    assert code == 0
    assert json.loads(out)["pass"] is True
    # pair checks refuse a single input
    assert run(capsys, "bounds", str(pp), "--check", "cor-p")[0] == 2


@pytest.mark.parametrize("argv, line", [
    (["f.json", "--check", "thm2"], "--check thm2 reads f and g; given: "
     "'f.json'"),
    (["--check", "cor-p"], "--check cor-p reads f and g; given: none"),
    (["f.json", "g.json", "--check", "lemma-l1"],
     "--check lemma-l1 reads psi; given: 'f.json', 'g.json'"),
    (["f.json", "--check", "identity", "--sweep", "2"],
     "--check identity --sweep reads no inputs; given: 'f.json'"),
])
def test_bounds_input_count_is_one_rule(capsys, argv, line):
    """A check reads its table's inputs, and a sweep none: any other count
    is refused by one rule, before any input is read."""
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 2 and not out
    assert err == f"specfact: cannot parse input: {line}\n", err


def test_bounds_check_choices_come_from_the_table(capsys):
    code, out, err = run(capsys, "bounds", "--check", "bogus")
    assert code == 2 and not out
    [line] = err.splitlines()
    assert ("(choose from 'thm2', 'cor-p', 'main', 'identity', 'lemma-orl', "
            "'lemma-l1')") in line, line
    assert tuple(CHECKS) == ("thm2", "cor-p", "main", "identity",
                             "lemma-orl", "lemma-l1")


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_check_prints_its_table_name_and_allowance(capsys, name):
    """A one-trial sweep prints the report name of its CHECKS key and the
    table's tol and atol; identity's atol is 1e-6 (1 + h2_squared)."""
    code, out, _ = run(capsys, "bounds", "--check", name, "--sweep", "1",
                       "--n", "256")
    [obj] = out_lines(out)
    check, details = CHECKS[name], obj["details"]
    assert code == 0 and obj["name"] == name == check.name
    atol = (1e-6 * (1.0 + details["h2_squared"]) if name == "identity"
            else check.atol)
    assert (details["tol"], details["atol"]) == (check.tol, atol)
    assert check.tol == (0.0 if name == "identity" else 1e-9)
    assert check.atol == 1e-12


def test_no_command_loads_scipy(tmp_path):
    """The package runs without scipy: with scipy made unimportable,
    importing specfact, all six bounds checks (main and lemma-orl under an
    L log L density Phi), both counterexample variants, all three
    factorize routes, constants, the grid cross-check and lemma_G_report
    for both gauges each run and leave sys.modules free of it."""
    density = tmp_path / "flat.txt"
    density.write_text("4 4 4 4 4 4 4 4\n")
    series = tmp_path / "series.json"
    series.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                      '"-1": [-0.5, 0]}}')
    llogl = json.dumps(LLOGL_PHI)
    steps = [["bounds", "--check", check, "--sweep", "2", "--n", "256",
              *(["--phi", llogl] if check in ("main", "lemma-orl") else [])]
             for check in CHECKS]
    steps += [["counterexample", "--sweep", "5", "--variant", variant]
              for variant in ("floored", "plus-one")]
    steps += [["factorize", str(density), "--method", "boundary"],
              ["factorize", str(density), "--method", "herglotz"],
              ["factorize", str(series), "--method", "fejer-riesz"],
              ["constants"]]
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        def scipy():
            return sorted(m for m in sys.modules
                          if m.startswith("scipy") and sys.modules[m])
        import specfact
        loaded = [["import specfact", scipy()]]
        from specfact.cli import main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                sys.exit(f"{argv} exited {code}")
            loaded.append([" ".join(argv[:5]), scipy()])
        from specfact.counterexample import cross_validate_pipeline
        assert cross_validate_pipeline(7.0).passed
        loaded.append(["cross_validate_pipeline(7.0)", scipy()])
        from specfact import lemma_G_report, random_phase
        import numpy as np
        psi = random_phase(np.random.default_rng(6), n=1024, degree=12)
        for gauge in ("1-cos", "min(x^2,1)"):
            assert lemma_G_report(gauge, psi).passed
            loaded.append([f"lemma_G_report({gauge!r})", scipy()])
        print(json.dumps(loaded))
    """)
    src = Path(specfact.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(steps)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == len(steps) + 4
    assert [(step, mods) for step, mods in loaded if mods] == []


def test_bounds_sweep_deterministic(capsys):
    argv = ("bounds", "--check", "identity", "--sweep", "4",
            "--seed", "3", "--n", "512")
    code, out1, err = run(capsys, *argv)
    assert code == 0
    rows = out_lines(out1)
    assert [r["trial"] for r in rows] == [0, 1, 2, 3]
    assert all(r["pass"] for r in rows)
    assert "4/4" in err
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    # sweep and explicit inputs are mutually exclusive
    assert run(capsys, "bounds", "f.json", "--check", "identity",
               "--sweep", "2")[0] == 2


def test_bounds_rejects_removed_jobs_flag(capsys):
    code, out, err = run(capsys, "bounds", "--sweep", "2", "--check", "thm2",
                         "--jobs", "2")
    assert code == 2 and not out
    [line] = err.splitlines()
    assert "--jobs" in line, line


@pytest.mark.parametrize("argv, named", [
    ([], "command"),
    (["bounds", "--sweep", "1"], "--check"),
    (["factorize", "flat.txt"], "--method"),
    (["bounds", "--check", "bogus", "--sweep", "1"], "--check"),
    (["factorize", "flat.txt", "--method", "nope"], "--method"),
    (["counterexample", "--n", "1", "--variant", "nope"], "--variant"),
    (["bounds", "--check", "thm2", "--sweep", "1", "--du", "3"], "--du"),
    (["constants", "--n", "8"], "--n"),
    (["bounds", "--check", "thm2", "--sweep", "1", "--n", "abc"], "--n"),
    (["bounds", "--check", "cor-p", "--sweep", "1", "--p", "two"], "--p"),
    (["factorize", "flat.txt", "extra.txt", "--method", "boundary"],
     "extra.txt"),
    (["constants", "extra"], "extra"),
])
def test_every_parse_refusal_is_one_line(capsys, argv, named):
    """argparse's refusals go through main's one-line refusal: exit 2,
    nothing on stdout and one stderr line, with no usage block."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out, (argv, code, out)
    [line] = err.splitlines()
    assert line.startswith("specfact: cannot parse input: "), line
    assert named in line, line


def test_bounds_rejects_degree_below_one(capsys):
    code, out, err = run(capsys, "bounds", "--check", "thm2", "--sweep", "2",
                         "--degree", "0")
    assert code == 2 and not out
    assert "--degree" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, named", [
    (["--check", "thm2", "--sweep", "2", "--phi", "{bad"], "--phi"),
    (["--check", "thm2", "--sweep", "2", "--p", "0.5"], "--p"),
    (["--check", "main", "--sweep", "2", "--p", "3"], "--p"),
    (["--check", "cor-p", "--sweep", "2", "--phi", "{}"], "--phi"),
    (["--check", "lemma-l1", "--sweep", "2", "--phi", "{}"], "--phi"),
    (["--check", "lemma-orl", "--sweep", "2", "--p", "3"], "--p"),
    (["PSI", "SECOND.json", "--check", "lemma-l1"], "SECOND.json"),
    (["PSI", "SECOND.json", "--check", "lemma-orl"], "SECOND.json"),
])
def test_bounds_refuses_what_the_check_does_not_read(tmp_path, capsys, argv,
                                                     named):
    psi = tmp_path / "psi.json"
    values = random_phase(np.random.default_rng(1), n=256).values
    psi.write_text(json.dumps({"n": 256, "values": values.tolist()}))
    argv = [str(psi) if a == "PSI" else a for a in argv]
    code, out, err = run(capsys, "bounds", "--n", "256", *argv)
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and named in lines[0], err


@pytest.mark.parametrize("argv, named", [
    (["F", "G", "--check", "thm2", "--seed", "3"], "--seed"),
    (["F", "G", "--check", "thm2", "--degree", "5"], "--degree"),
    (["F", "G", "--check", "thm2", "--degree", "0"], "--degree"),
    (["F", "--check", "lemma-l1", "--seed", "0"], "--seed"),
])
def test_bounds_refuses_sweep_options_without_a_sweep(tmp_path, capsys, argv,
                                                      named):
    path = tmp_path / "flat.txt"
    path.write_text("4 4 4 4 4 4 4 4\n")
    argv = [str(path) if a in ("F", "G") else a for a in argv]
    assert run(capsys, "bounds", *argv[:-2])[0] == 0
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and named in lines[0], err


def test_bounds_sweep_refuses_a_negative_seed(capsys, monkeypatch):
    """--seed -1 exits 2 with one stderr line that names --seed, before
    any trial is drawn (numpy's own refusal named no option)."""
    monkeypatch.setattr("specfact.cli._sweep_blocks", None)
    code, out, err = run(capsys, "bounds", "--check", "thm2", "--sweep", "1",
                         "--seed", "-1", "--n", "256")
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "--seed" in lines[0], err


@pytest.mark.parametrize("argv", [
    ["bounds", "--check", "thm2", "--sweep", "1"],
    ["bounds", "SERIES", "SERIES", "--check", "thm2"],
    ["factorize", "SERIES", "--method", "boundary"],
])
@pytest.mark.parametrize("n", [2 ** 22 + 1, 2 ** 40])
def test_grid_n_above_the_cap_is_refused(tmp_path, capsys, argv, n):
    """A grid --n above 2^22 exits 2 with one stderr line naming --n (it
    once ended in an allocation traceback and exit 1)."""
    series = tmp_path / "series.json"
    series.write_text('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                      '"-1": [-0.5, 0]}}')
    argv = [str(series) if a == "SERIES" else a for a in argv]
    code, out, err = run(capsys, *argv, "--n", str(n))
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and f"--n {n}" in lines[0] and "2^22" in lines[0]


def test_bounds_sweep_refuses_unresolved_grid(capsys):
    code, out, err = run(capsys, "bounds", "--check", "thm2", "--n", "8",
                         "--sweep", "3")
    assert code == 2 and not out
    assert "--degree" in err and "--n" in err
    assert run(capsys, "bounds", "--check", "thm2", "--n", "64",
               "--degree", "32", "--sweep", "1")[0] == 2
    assert run(capsys, "bounds", "--check", "thm2", "--n", "64",
               "--degree", "31", "--sweep", "1")[0] == 0


def test_bounds_cor_p_huge_exponent_is_finite(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "bounds", "--check", "cor-p",
                           "--p", "1e6", "--sweep", "1")
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True
    assert isinstance(rep["rhs"], float) and math.isfinite(rep["rhs"])


def test_factorize_fejer_riesz_degree_cap(tmp_path, capsys, monkeypatch):
    def roots(_):
        pytest.fail("the root step ran on a degree above the cap")

    monkeypatch.setattr(factorization, "_fr_roots", roots)
    path = tmp_path / "tiny.json"
    path.write_text('{"coeffs":{"0":[1,0],"5000":[0.1,0],"-5000":[0.1,0]}}')
    code, out, err = run(capsys, "factorize", str(path),
                         "--method", "fejer-riesz")
    assert code == 2 and not out
    assert "5000" in err and str(FR_MAX_DEGREE) in err


def test_factorize_fejer_riesz_refuses_a_small_grid_before_roots(
        tmp_path, capsys, monkeypatch):
    """The outer check's --n grid is synthesized before the root step, so
    a grid that cannot hold the series costs no root-step work."""
    def roots(_):
        pytest.fail("the root step ran on a series --n cannot hold")

    monkeypatch.setattr(factorization, "_fr_roots", roots)
    path = tmp_path / "wide.json"
    path.write_text('{"coeffs": {"0": [3, 0], "300": [0.5, 0], '
                    '"-300": [0.5, 0]}}')
    code, out, err = run(capsys, "factorize", str(path),
                         "--method", "fejer-riesz", "--n", "512")
    assert code == 2 and not out
    assert err == ("specfact: cannot parse input: cannot synthesize "
                   "bandwidth 300 on 512 samples (need n > 2K)\n"), err


def test_factorize_rejects_negative_degree(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("4 4 4 4 4 4 4 4\n")
    code, out, err = run(capsys, "factorize", str(path),
                         "--method", "herglotz", "--degree", "-3")
    assert code == 2 and not out
    assert "--degree" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("phi", [
    {"kind": "density", "t": [1.0, 2.0, 3.0], "u": [1.0, 2.0, 3.0]},
    {"kind": "power"},
    {"kind": "power", "q": None},
    {"kind": "density", "u_grid": [[1.0, 2.0], [3.0]]},
    [2.0],
    # JSON booleans, which float() reads as 1 and 0
    {"kind": "power", "q": True},
    {"kind": "density", "u_grid": [[0.5, 0.5], [1.0, True], [2.0, 2.0]]},
    # a JSON string, which float() reads as a number
    {"kind": "density", "u_grid": [[0.5, 0.5], [1.0, "1"], [2.0, 2.0]]},
])
def test_bounds_phi_errors_exit_2(capsys, phi):
    code, out, err = run(capsys, "bounds", "--check", "main", "--sweep", "1",
                         "--n", "256", "--phi", json.dumps(phi))
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("specfact: cannot parse")


@pytest.mark.parametrize("phi, named", [
    ({"kind": "density", "u_grid": [[1, 1], [2, 2], [math.inf, 3]]},
     "sample [inf, 3.0] is not finite"),
    ({"kind": "density", "u_grid": [[1, 1], [2, math.nan], [3, 3]]},
     "sample [2.0, nan] is not finite"),
    ({"kind": "power", "q": math.inf}, "finite q > 1, got inf"),
], ids=["inf-sample", "nan-sample", "inf-q"])
def test_bounds_non_finite_phi_exit_2(capsys, phi, named):
    """Refused by name, in one stderr line, before any numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", "--check", "main", "--sweep",
                             "1", "--n", "256", "--phi", json.dumps(phi))
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and named in lines[0], err


@pytest.mark.parametrize("check", ["lemma-orl", "main"])
def test_bounds_overflowing_phi_is_refused_by_every_check(capsys, check):
    """u = 1e290 t sampled up to t = 1e12: Phi, the integral of u,
    overflows near t = 2e9, inside the node range.  Refused when --phi is
    parsed, in one stderr line and with no numpy warning."""
    phi = {"kind": "density",
           "u_grid": [[float(t), 1e290 * float(t)]
                      for t in np.geomspace(1e-30, 1e12, 97)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", "--check", check, "--sweep",
                             "1", "--n", "256", "--phi", json.dumps(phi))
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "overflows inside the node range" in lines[0], err

def test_bounds_scaled_power_density_matches_power_2(capsys):
    """u = 1e290 t sampled on [1e-30, 1e6] is Phi = 1e290 t^2 / 2, whose
    integral stays finite up to the last node: both Phi checks accept it,
    with no numpy warning.  Scaling Phi by c scales the Luxemburg norm and
    Lambda by sqrt(c) and the complement's Orlicz norm by 1/sqrt(c), so
    every result is the q = 2 one times a power of 1e145, within the
    solvers' 1e-10."""
    phi = {"kind": "density",
           "u_grid": [[float(t), 1e290 * float(t)]
                      for t in np.geomspace(1e-30, 1e6, 97)]}
    scales = {"main": {"lhs": 1.0, "rhs": 1.0, "orlicz_norm_f": 1e-145,
                       "lambda": 1e145},
              "lemma-orl": {"lhs": 1e145, "rhs": 1e145}}
    for check, fields in scales.items():
        argv = ("bounds", "--check", check, "--sweep", "3", "--n", "256")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, *argv, "--phi", json.dumps(phi))
        assert code == 0
        code2, out2, _ = run(capsys, *argv, "--phi",
                             json.dumps({"kind": "power", "q": 2}))
        assert code2 == 0
        for got, want in zip(out_lines(out), out_lines(out2), strict=True):
            assert got["pass"] and want["pass"]
            both = {**got, **got["details"]}, {**want, **want["details"]}
            for key, scale in fields.items():
                assert both[0][key] == pytest.approx(
                    scale * both[1][key], rel=1e-9, abs=0.0), (check, key)


@pytest.mark.parametrize("check", ["lemma-orl", "main"])
def test_bounds_ill_conditioned_phi_is_refused_by_every_check(capsys, check):
    """A density whose last segment rises by one ulp is a valid Phi, but
    its complement's ramp there is an ulp wide and not convex.  The
    complement is built when --phi is parsed, so lemma-orl, which never
    uses it, refuses the density as main does."""
    phi = {"kind": "density", "u_grid": [
        [2.04e-239, 9.946981405662749e269],
        [2.06e-239, 9.946981405738359e269],
        [2.08e-239, 9.94698140573836e269]]}
    code, out, err = run(capsys, "bounds", "--check", check, "--sweep", "2",
                         "--n", "256", "--phi", json.dumps(phi))
    assert code == 2 and not out
    assert "density does not define a convex Phi" in err


LLOGL_PHI = {"kind": "density",
             "u_grid": [[float(t), math.log1p(t)]
                        for t in np.geomspace(1e-6, 1e6, 49)]}


@pytest.mark.parametrize("argv, trials, rhs_first, rhs_last", [
    (("--check", "main", "--sweep", "25",
      "--phi", json.dumps({"kind": "power", "q": 3})),
     25, 332.01715320143137, 904.4042347096005),
    (("--check", "main", "--sweep", "25", "--phi", json.dumps(LLOGL_PHI)),
     25, 479.5910196728497, 1985.683212896077),
    (("--check", "thm2", "--sweep", "100"),
     100, 1295.8100474722412, 71.26253692438279),
])
def test_sweep_verdicts_pinned(capsys, argv, trials, rhs_first, rhs_last):
    """Seed 0 of the benchmark's bound sweeps: every trial passes, the exit
    code is 0, and the right sides match the values recorded before the
    Orlicz closed forms, Young-equation root-find and FFT draws landed."""
    code, out, _ = run(capsys, "bounds", *argv, "--seed", "0")
    rows = out_lines(out)
    assert code == 0
    assert [r["pass"] for r in rows] == [True] * trials
    assert rows[0]["rhs"] == pytest.approx(rhs_first, rel=1e-9)
    assert rows[-1]["rhs"] == pytest.approx(rhs_last, rel=1e-9)


# the two Phi of the sweep-main benchmark workload; its L log L nodes come
# from np.log1p, which differs from LLOGL_PHI's math.log1p in a few last bits
_POWER_PHI = {"kind": "power", "q": 3}
_BENCH_LLOGL_PHI = {"kind": "density",
                    "u_grid": [[float(t), float(np.log1p(t))]
                               for t in np.geomspace(1e-6, 1e6, 49)]}

#: (check, --phi or None) of each sweep compared with the one-row reports
_SWEEP_CASES = [(check, None) for check in ("thm2", "cor-p", "identity",
                                             "lemma-l1")] + [
    (check, phi) for phi in (_POWER_PHI, _BENCH_LLOGL_PHI)
    for check in ("main", "lemma-orl")]


@pytest.mark.parametrize("check, phi", _SWEEP_CASES)
def test_sweep_blocks_match_single_pair_checks(capsys, check, phi):
    """A sweep, drawn and checked in blocks, prints what the check gives on
    one-row records trial by trial (cor-p at its default p = 2), except
    that the floats a conjugate feeds lie within 1e-14 of the records'
    (same_report): the sweep synthesizes its conjugates from the draws'
    spectra.  1, 7 and 9 trials leave ragged last blocks at n = 4096, run
    one trial per block at n = 16384, and fit one block at n = 256."""
    extra = ([NFunction.from_json_dict(phi)] if phi
             else [2.0] if check == "cor-p" else [])
    for n in (256, 4096, 16384):
        for trials in (1, 7, 9):
            argv = ["bounds", "--check", check, "--sweep", str(trials),
                    "--n", str(n), "--seed", str(n + trials)]
            if phi:
                argv += ["--phi", json.dumps(phi)]
            code, out, _ = run(capsys, *argv)
            want, all_pass = [], True
            for i in range(trials):
                rng = np.random.default_rng([n + trials, i])
                grids = ((random_phase(rng, n=n),) if check.startswith("lemma")
                         else (random_density(rng, n=n),
                               random_density(rng, n=n)))
                rep = report(check, grids, *extra)
                all_pass = all_pass and rep.passed
                want.append({"trial": i, **rep.to_json_dict()})
            got = [json.loads(line) for line in out.splitlines()]
            assert len(got) == trials
            assert all(map(same_report, got, want)), (check, n, trials)
            assert code == (0 if all_pass else 1)


#: (check, option argv, the option's value) for every entry of CHECKS
_EXPLICIT_CASES = [
    pytest.param(name, argv, value, id=f"{name}{suffix}")
    for name, check in CHECKS.items()
    for suffix, argv, value in {
        None: [("", [], None)],
        "p": [("-p3", ["--p", "3"], 3.0)],
        "phi": [(f"-{label}", ["--phi", json.dumps(phi)],
                 NFunction.from_json_dict(phi))
                for label, phi in (("power", _POWER_PHI),
                                   ("llogl", _BENCH_LLOGL_PHI))],
    }[check.option]
]


@pytest.mark.parametrize("name, argv, value", _EXPLICIT_CASES)
def test_explicit_inputs_run_each_table_entry(tmp_path, capsys, name, argv,
                                              value):
    """Each check on JSON input files prints exactly its report on the
    one-row record of the inputs and exits with its verdict."""
    rng = np.random.default_rng(5)
    inputs = CHECKS[name].inputs
    draw = random_phase if inputs == ("psi",) else random_density
    grids = [draw(rng, n=256) for _ in inputs]
    paths = []
    for label, grid in zip(inputs, grids):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"n": grid.n,
                                    "values": grid.values.tolist()}))
        paths.append(str(path))
    code, out, err = run(capsys, "bounds", *paths, "--check", name, *argv)
    rep = report(name, grids, *([] if value is None else [value]))
    assert out == json.dumps(rep.to_json_dict()) + "\n"
    assert code == (0 if rep.passed else 1) and not err


def test_counterexample_single(capsys):
    code, out, _ = run(capsys, "counterexample", "--n", "1")
    assert code == 0
    row = json.loads(out)
    assert row["n"] == 1 and row["pass"] is True
    assert row["log_l1_diff"] == pytest.approx(0.5, rel=1e-12)


def test_counterexample_sweep_rows(capsys):
    code, out, _ = run(capsys, "counterexample", "--sweep", "3")
    assert code == 0
    rows = out_lines(out)
    assert [r["n"] for r in rows] == [1, 2, 3]
    h2 = [r["h2_lower"] for r in rows]
    assert h2[0] < h2[1] < h2[2]
    l1 = [r["l1_diff"] for r in rows]
    assert l1[0] > l1[1] > l1[2]


def test_counterexample_budget_and_usage(capsys):
    """Every index the margin resolves passes; the rest exit 3 with one
    stderr line, labelled numerically unresolved, and no row."""
    # the margin is about 0.76/n floored and 0.34/n plus-one, against a
    # budget plus rounding of about 5.6e-15
    last = {"floored": 10 ** 14, "plus-one": 10 ** 13}
    for variant in ("floored", "plus-one"):
        for n in (6, 50, 1000, 10 ** 5, 10 ** 8, 10 ** 12, last[variant]):
            code, out, _ = run(capsys, "counterexample", "--n", str(n),
                               "--variant", variant)
            assert code == 0 and json.loads(out)["pass"] is True, (n, out)
        for n in (10 * last[variant], 10 ** 16, 10 ** 400):
            code, out, err = run(capsys, "counterexample", "--n", str(n),
                                 "--variant", variant)
            assert code == 3 and not out, (n, out)
            assert len(err.splitlines()) == 1, err
            # the input is in the domain; only the numerics cannot decide
            assert err.startswith("specfact: numerically unresolved: "), err
    assert run(capsys, "counterexample")[0] == 2
    assert run(capsys, "counterexample", "--n", "1", "--sweep", "2")[0] == 2


# -- exit-code contract under fuzzed arguments ------------------------------


def _exit_code(argv):
    """Exit code and stderr of one in-process run.  Any escaping exception,
    SystemExit included, fails the test; a refusal (exit 2 or 3) prints
    exactly one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    return code, err.getvalue()


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


_GRID_SIZES = st.one_of(st.sampled_from([8, 16, 64, 256]),
                        st.integers(-16, 300))
_EXPONENTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.floats(1.0, 8.0))

_BOUNDS_ARGV = st.tuples(
    st.sampled_from(["thm2", "cor-p", "main", "identity",
                     "lemma-orl", "lemma-l1"]),
    _flag("--n", _GRID_SIZES),
    _flag("--degree", st.integers(-3, 40)),
    _flag("--sweep", st.integers(-1, 3)),
    _flag("--p", _EXPONENTS),
    _flag("--seed", st.integers(-2, 2 ** 40)),
).map(lambda t: ["bounds", "--check", t[0], *sum(t[1:], [])])


@settings(max_examples=60, deadline=None)
@given(argv=st.tuples(
    st.one_of(
        # log-uniform up to 10^400, plus the small and invalid ones
        st.builds(lambda lead, digits: ["--n", str(lead * 10 ** digits)],
                  st.integers(1, 9), st.integers(0, 400)),
        st.integers(-2, 12).map(lambda n: ["--n", str(n)]),
        st.integers(-1, 20).map(lambda n: ["--sweep", str(n)])),
    st.sampled_from(["floored", "plus-one"]),
).map(lambda t: ["counterexample", *t[0], "--variant", t[1]]))
def test_counterexample_exit_codes_fuzzed(argv):
    code, err = _exit_code(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture(scope="module")
def small_density(tmp_path_factory):
    n = 64
    path = tmp_path_factory.mktemp("fuzz") / "density.txt"
    path.write_text("\n".join(
        f"{math.exp(0.5 * math.cos(-math.pi + 2 * math.pi * j / n)):.17g}"
        for j in range(n)))
    return str(path)


@settings(max_examples=150, deadline=None)
@given(argv=_BOUNDS_ARGV)
def test_bounds_exit_codes_fuzzed(argv):
    code, err = _exit_code(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(["boundary", "herglotz"]),
       degree=st.integers(-5, 300))
def test_factorize_exit_codes_fuzzed(small_density, method, degree):
    code, err = _exit_code(["factorize", small_density, "--method", method,
                            "--degree", str(degree)])
    assert code in (0, 1, 2, 3), (method, degree, code, err)
    assert "Traceback" not in err, (method, degree, err)


def _series_json(degree, c0, extra, hermitian):
    """A series of the given degree: c_0, c_degree and a few lower terms."""
    coeffs = {0: complex(c0, 0.0 if hermitian else extra[0][1])}
    for j, (re, im) in enumerate(extra):
        k = max(1, degree // (j + 1))
        coeffs[k] = complex(re, im)
        coeffs[-k] = (complex(re, -im) if hermitian
                      else complex(im, re))
    return json.dumps({"coeffs": {str(k): [c.real, c.imag]
                                  for k, c in coeffs.items()}})


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(["fejer-riesz", "boundary", "herglotz"]),
       degree=st.one_of(st.integers(0, FR_MAX_DEGREE),
                        st.integers(FR_MAX_DEGREE + 1, 10 ** 6)),
       c0=st.one_of(st.floats(-2.0, 8.0), st.just(0.0)),
       extra=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=4),
       hermitian=st.booleans())
def test_factorize_series_exit_codes_fuzzed(tmp_path_factory, method, degree,
                                            c0, extra, hermitian):
    path = tmp_path_factory.getbasetemp() / "fuzz-series.json"
    path.write_text(_series_json(degree, c0, extra, hermitian))
    code, err = _exit_code(["factorize", str(path), "--method", method])
    assert code in (0, 1, 2, 3), (method, degree, code, err)
    assert "Traceback" not in err, (method, degree, err)
    if (method == "fejer-riesz" and degree > FR_MAX_DEGREE and hermitian
            and any(extra[0])):
        assert code == 2 and "cap" in err, err
