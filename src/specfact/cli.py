"""Command-line front end: factorize, check bounds, run the divergence family.

Exit codes form the machine-readable contract:

    0  every requested check passed
    1  a check ran to completion and failed
    2  input could not be parsed or the arguments are invalid
    3  domain error (nonpositive density, polynomial not nonnegative, ...),
       or a verdict the numerics cannot resolve (such as a bound whose
       sides leave the double range), labelled "numerically unresolved" on
       standard error (exit 4 is retired)

Inputs are file paths ("-" for standard input) holding either a grid
function as JSON {"n": ..., "values": [...]}, a Fourier series as JSON
{"coeffs": {"k": [re, im], ...}}, or plain text samples separated by
whitespace or commas, each a token float() reads.  Samples are real and
finite and a series real-valued (c_{-k} = conj(c_k)), or exit 2.
Results are JSON on standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from .bounds import CHECKS, _sweep_blocks, constant_c_inf, constant_c_p
from .circle_fn import (
    FourierSeries,
    GridFunction,
    SpectralFactor,
    fourier_synthesize,
)
from .counterexample import family_row
from .errors import (
    DomainError,
    NumericalConditioningError,
    ParameterError,
    SpecfactError,
)
from .factorization import (
    HERGLOTZ_MAX_DEGREE,
    _herglotz_factor,
    _NonpositiveDensity,
    factorize_boundary,
    fejer_riesz,
    outer_check,
)
from .orlicz import NFunction, davis_constant, k0_constant

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

#: values of the check options when the check that reads one omits it
_OPTION_DEFAULTS = {"p": 2.0, "phi": '{"kind": "power", "q": 2}'}
#: factorize options and the methods that read them
_FACTORIZE_OPTIONS = {"floor": ("boundary", "herglotz"), "degree": ("herglotz",)}
#: herglotz --degree when omitted, unless n/2 - 1 on n samples is smaller
_HERGLOTZ_DEGREE = 64
#: grid size of sweeps and of series input when --n is omitted, and the
#: largest one accepted: 2^22, the largest sweep measured to run
_GRID_N = 4096
_GRID_MAX = 1 << 22
#: --seed and --degree of a sweep when omitted; only sweeps read them
_SWEEP_SEED = 0
_SWEEP_DEGREE = 16


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_samples(text: str) -> np.ndarray:
    """Whitespace- or comma-separated samples, read-only, empty for none.

    One numpy call reads ordinary text, to the doubles float() gives token
    by token; it drops the sign of a nan and also reads nan(...), which
    float() refuses, and GridFunction refuses both.  Text it does not read
    to the end goes through float() token by token, which names the token
    it refuses and accepts spellings numpy does not (1_0, non-ASCII digits
    and separators).
    """
    text = text.replace(",", " ")
    if not text or text.isspace():
        # numpy reads whitespace alone as [-1.0]
        return np.empty(0)
    try:
        with warnings.catch_warnings():
            # a numpy that only warns on unmatched data returns the prefix
            warnings.simplefilter("error")
            vals = np.fromstring(text, sep=" ")
    except (ValueError, Warning):
        vals = np.array([float(tok) for tok in text.split()])
    vals.setflags(write=False)
    return vals


def _load_any(path: str):
    """Parse a path into a GridFunction or FourierSeries."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if "coeffs" in obj:
            return FourierSeries.from_json_dict(obj)
        return GridFunction.from_json_dict(obj)
    vals = _parse_samples(text)
    if not vals.size:
        raise ParameterError(f"no samples found in {path!r}")
    return GridFunction(len(vals), vals)


def _series_grid(n: int | None, inputs) -> int:
    """The grid size --n, or its default, for inputs that include a series.

    Sample input has its own grid, so an --n that no series reads is
    refused.
    """
    if n is not None and not any(isinstance(obj, FourierSeries)
                                 for obj in inputs):
        raise ParameterError(f"--n {n} is the grid size of series input, "
                             f"and no input here is a series")
    return _grid_n(n)


def _grid_n(n: int | None) -> int:
    """The grid size --n, or its default; one above _GRID_MAX is refused
    before anything is allocated."""
    if n is None:
        return _GRID_N
    if n > _GRID_MAX:
        raise ParameterError(f"--n {n} exceeds the largest grid, "
                             f"{_GRID_MAX} = 2^22")
    return n


def _as_grid(obj, n: int) -> GridFunction:
    return obj if isinstance(obj, GridFunction) else fourier_synthesize(obj, n)


def _herglotz_degree(degree: int | None, n: int) -> int:
    """--degree of the herglotz method on n samples, or its default."""
    top = min(n // 2 - 1, HERGLOTZ_MAX_DEGREE)
    if degree is None:
        return min(_HERGLOTZ_DEGREE, top)
    if not 0 <= degree <= top:
        raise ParameterError(
            f"--degree {degree} is outside 0 .. {top}: the herglotz method "
            f"resolves degrees below n / 2 = {n // 2} on {n} samples, and "
            f"up to {HERGLOTZ_MAX_DEGREE} on its r = 0.9 circle")
    return degree


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_factorize(args) -> int:
    for option, methods in _FACTORIZE_OPTIONS.items():
        if getattr(args, option) is not None and args.method not in methods:
            raise ParameterError(
                f"--method {args.method} does not read --{option}")
    data = _load_any(args.input)
    if args.method == "fejer-riesz":
        if not isinstance(data, FourierSeries):
            raise ParameterError(
                "fejer-riesz input must be a Fourier series "
                "(JSON with a coeffs mapping)")
        factor = SpectralFactor(fejer_riesz(data))
    f = _as_grid(data, _series_grid(args.n, [data]))
    if args.method == "boundary":
        factor = factorize_boundary(f, floor=args.floor)
    elif args.method == "herglotz":
        factor = _herglotz_factor(f, args.floor,
                                  _herglotz_degree(args.degree, f.n))
    if args.floor is not None:
        # the outer check must see the same density the factor came from
        f = GridFunction(f.n, np.maximum(f.values, args.floor))
    report = outer_check(factor, f)
    factor.write_json(sys.stdout, {"method": args.method,
                                   "outer": report.to_json_dict()})
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_bounds(args) -> int:
    check = CHECKS[args.check]
    extra = []
    for option, default in _OPTION_DEFAULTS.items():
        value = getattr(args, option)
        if option == check.option:
            extra = [default if value is None else value]
        elif value is not None:
            raise ParameterError(
                f"--check {args.check} does not read --{option}")
    if check.option == "phi":
        # parsed once per command; trials share it and its cached complement
        extra = [NFunction.from_json_dict(json.loads(extra[0]))]
    sweep = args.sweep is not None
    if sweep:
        if args.f is not None or args.g is not None:
            raise ParameterError("--sweep and explicit inputs are exclusive")
        if args.sweep < 1:
            raise ParameterError("--sweep needs a positive trial count")
        n = _grid_n(args.n)
        degree = _SWEEP_DEGREE if args.degree is None else args.degree
        if degree < 1:
            raise ParameterError(f"--degree must be >= 1, got {degree}")
        if 2 * degree >= n:
            raise ParameterError(
                f"--degree {degree} is not resolved on --n {n} "
                f"samples: sweeps need --degree < --n / 2")
        seed = _SWEEP_SEED if args.seed is None else args.seed
        if seed < 0:
            raise ParameterError(f"--seed must be >= 0, got {seed}")
        records = _sweep_blocks(seed, args.sweep, n, degree,
                                len(check.inputs) == 2)
    else:
        for option in ("seed", "degree"):
            value = getattr(args, option)
            if value is not None:
                raise ParameterError(f"--{option} {value} is read by --sweep "
                                     f"only, and no --sweep is given")
        if len(check.inputs) == 1 and args.g is not None:
            raise ParameterError(f"--check {args.check} reads psi only, "
                                 f"not also {args.g!r}")
        paths = (args.f, args.g)[:len(check.inputs)]
        if None in paths:
            count = "one input" if len(paths) == 1 else "two inputs"
            raise ParameterError(f"--check {args.check} needs {count} "
                                 f"({', '.join(check.inputs)})")
        inputs = [_load_any(path) for path in paths]
        n = _series_grid(args.n, inputs)
        records = [check.record(*(_as_grid(obj, n) for obj in inputs))]
    reports = [rep for record in records
               for rep in check.formula(record, *extra)]
    for i, rep in enumerate(reports):
        _emit({"trial": i, **rep.to_json_dict()} if sweep
              else rep.to_json_dict())
    n_pass = sum(r.passed for r in reports)
    if sweep:
        print(f"{n_pass}/{len(reports)} trials passed", file=sys.stderr)
    return EXIT_PASS if n_pass == len(reports) else EXIT_FAIL


def cmd_counterexample(args) -> int:
    if (args.n is None) == (args.sweep is None):
        raise ParameterError("give exactly one of --n and --sweep")
    if args.n is not None:
        ns = [args.n]
    else:
        if args.sweep < 1:
            raise ParameterError("--sweep needs a positive maximum index")
        ns = list(range(1, args.sweep + 1))
    all_pass = True
    for n in ns:
        row = family_row(n, du=args.du, variant=args.variant)
        _emit(row)
        all_pass = all_pass and row["pass"]
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_constants(_args) -> int:
    _emit({
        "K": davis_constant(),
        "K0": k0_constant(),
        "C2": constant_c_p(2.0),
        "C_inf": constant_c_inf(),
    })
    return EXIT_PASS


def _reading(option: str) -> str:
    """Names of the checks whose formula takes --option, for help texts."""
    return " / ".join(name for name, check in CHECKS.items()
                      if check.option == option)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged,
    so in-process calls of main share it."""
    parser = argparse.ArgumentParser(
        prog="specfact",
        description="Spectral factorization on the circle with machine-checked "
                    "continuity bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fac = sub.add_parser(
        "factorize", help="compute the outer spectral factor of a density")
    p_fac.add_argument("input", nargs="?", default="-",
                       help="density samples or series (path or '-')")
    p_fac.add_argument("--method", required=True,
                       choices=("boundary", "herglotz", "fejer-riesz"))
    p_fac.add_argument("--n", type=int, default=None,
                       help="grid size when synthesizing series input "
                            f"(default {_GRID_N}, at most 2^22; refused for "
                            f"sample input)")
    p_fac.add_argument("--floor", type=float, default=None,
                       help="clamp level for nonpositive samples "
                            "(boundary and herglotz methods)")
    p_fac.add_argument("--degree", type=int, default=None,
                       help="Taylor truncation degree for the herglotz method "
                            f"(default min({_HERGLOTZ_DEGREE}, n/2 - 1) on n "
                            f"samples; at most n/2 - 1 and "
                            f"{HERGLOTZ_MAX_DEGREE})")
    p_fac.set_defaults(func=cmd_factorize)

    p_bnd = sub.add_parser(
        "bounds", help="check one continuity bound on given or random inputs")
    p_bnd.add_argument("f", nargs="?", default=None,
                       help="density f (or psi for lemma checks)")
    p_bnd.add_argument("g", nargs="?", default=None,
                       help="density g (pair checks only)")
    p_bnd.add_argument("--check", required=True, choices=tuple(CHECKS))
    p_bnd.add_argument("--p", type=float, default=None,
                       help=f"exponent for --check {_reading('p')} "
                            f"(default {_OPTION_DEFAULTS['p']})")
    p_bnd.add_argument("--phi", default=None,
                       help=f"N-function JSON for --check {_reading('phi')} "
                            f"(default {_OPTION_DEFAULTS['phi']})")
    p_bnd.add_argument("--sweep", type=int, default=None,
                       help="run N random trials instead of reading inputs")
    p_bnd.add_argument("--seed", type=int, default=None,
                       help=f"seed for --sweep trials (default {_SWEEP_SEED}, "
                            f"at least 0)")
    p_bnd.add_argument("--n", type=int, default=None,
                       help=f"grid size for sweeps and series input "
                            f"(default {_GRID_N}, at most 2^22; refused when "
                            f"neither runs)")
    p_bnd.add_argument("--degree", type=int, default=None,
                       help="trig-polynomial degree cap for sweep draws "
                            f"(default {_SWEEP_DEGREE}, at least 1)")
    p_bnd.set_defaults(func=cmd_bounds)

    p_ctr = sub.add_parser(
        "counterexample",
        help="emit divergence-family rows (JSON lines, one per index)")
    p_ctr.add_argument("--n", type=int, default=None, help="single index")
    p_ctr.add_argument("--sweep", type=int, default=None,
                       help="all indices 1..MAX")
    p_ctr.add_argument("--du", type=float, default=0.1,
                       help="bump halfwidth in the transformed coordinate")
    p_ctr.add_argument("--variant", default="floored",
                       choices=("floored", "plus-one"))
    p_ctr.set_defaults(func=cmd_counterexample)

    p_cst = sub.add_parser(
        "constants", help="emit the pinned constants K, K0, C2, C_inf")
    p_cst.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NonpositiveDensity as exc:
        # name the clamp only where the command line has one: --floor of
        # the factorize methods that read it
        floor = getattr(args, "method", None) in _FACTORIZE_OPTIONS["floor"]
        remedy = "; pass --floor to clamp" if floor else ""
        print(f"specfact: domain error: {exc.finding}{remedy}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"specfact: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalConditioningError as exc:
        print(f"specfact: numerically unresolved: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ParameterError, json.JSONDecodeError, ValueError, OSError) as exc:
        print(f"specfact: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SpecfactError as exc:
        print(f"specfact: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
