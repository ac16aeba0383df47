"""Command-line front end: factorize, check bounds, run the divergence family.

Exit codes form the machine-readable contract:

    0  every requested check passed
    1  a check ran to completion and failed
    2  input could not be parsed or the arguments are invalid (argparse's
       refusals too: one stderr line, no usage block)
    3  domain error (nonpositive density, polynomial not nonnegative, ...),
       or a verdict the numerics cannot resolve (such as a bound whose
       sides leave the double range), labelled "numerically unresolved" on
       standard error (exit 4 is retired)
    SIGPIPE  the reader closed standard output: the `specfact` command
       ends silently (status 141 in a shell), as a POSIX filter does

Inputs are file paths ("-" for standard input) holding either a grid
function as JSON {"n": ..., "values": [...]}, a Fourier series as JSON
{"coeffs": {"k": [re, im], ...}}, or plain text samples separated by
whitespace or commas, each a token float() reads.  Samples are real and
finite and a series real-valued (c_{-k} = conj(c_k)), or exit 2, as does
JSON that gives a key twice or two series keys that name one k.
Results are JSON on standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import signal
import sys
import warnings
from typing import NamedTuple

import numpy as np

from .bounds import CHECKS, _sweep_blocks, constant_c_inf, constant_c_p
from .circle_fn import (
    _GRID_MIN,
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
)
from .factorization import (
    HERGLOTZ_MAX_DEGREE,
    HERGLOTZ_RADIUS,
    _fr_coeffs,
    _herglotz_factor,
    factorize_boundary,
    fejer_riesz,
    outer_check,
)
from .orlicz import NFunction, davis_constant, k0_constant

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

#: the largest grid --n: 2^22, the largest sweep measured to run
_GRID_MAX = 1 << 22


class Range(NamedTuple):
    """low .. high.  An infinite end is never accepted, a finite high end
    is, and low is unless low_open; pow2 accepts powers of two only."""

    low: float
    high: float = math.inf
    low_open: bool = False
    pow2: bool = False

    def __contains__(self, x) -> bool:
        return ((x > self.low if self.low_open else x >= self.low)
                and (x <= self.high if self.high < math.inf else x < math.inf)
                and not (self.pow2 and x & (x - 1)))

    def text(self, kind: type) -> str:
        """The range in words, for values of type kind."""
        low = (f">= {self.low:g}" if not self.low_open
               else "positive" if self.low == 0 else f"> {self.low:g}")
        high = (f"<= 2^{int(self.high).bit_length() - 1}" if self.pow2
                else f"<= {self.high:g}" if self.high < math.inf
                else "finite" if kind is float else "")
        words = " and ".join(word for word in (low, high) if word)
        return f"a power of two {words}" if self.pow2 else words


class Option(NamedTuple):
    """What an option sets and accepts (a Range, the choices, or words for
    what its reader parses), its type and value when omitted, and who
    reads it: the methods or checks in reads (None: all), in runs with
    --sweep (sweep True), in all runs (None), or in runs without --sweep,
    which need either it or --sweep (False)."""

    help: str
    accepts: Range | list[str] | str
    type: type = int
    default: object = None
    reads: tuple[str, ...] | None = None
    sweep: bool | None = None


_GRID = Range(_GRID_MIN, _GRID_MAX, pow2=True)

#: Every option of every command.  The parser, the help texts, the
#: README's option table and the refusals of _options come from here.
OPTIONS = {
    "factorize": {
        "method": Option("factorization route",
                         ["boundary", "herglotz", "fejer-riesz"], str),
        "n": Option("grid size of series input, refused for sample input",
                    _GRID, default=4096),
        "floor": Option("raise every sample below this level to it",
                        Range(0.0, low_open=True), float,
                        reads=("boundary", "herglotz")),
        "degree": Option("Taylor truncation degree; on n samples at most "
                         f"n/2 - 1 and {HERGLOTZ_MAX_DEGREE}, and so is the "
                         "default", Range(0), default=64, reads=("herglotz",)),
    },
    "bounds": {
        "check": Option("the bound to check", list(CHECKS), str),
        "p": Option("exponent of the L^p norm", Range(1.0, low_open=True),
                    float, 2.0,
                    tuple(c for c in CHECKS if CHECKS[c].option == "p")),
        "phi": Option("N-function", 'JSON {"kind": "power", "q": Q} or '
                      '{"kind": "density", "u_grid": [[t, u], ...]}', str,
                      '{"kind": "power", "q": 2}',
                      tuple(c for c in CHECKS if CHECKS[c].option == "phi")),
        "sweep": Option("random trials, drawn instead of reading inputs",
                        Range(1)),
        "seed": Option("seed of the trials", Range(0), default=0, sweep=True),
        "n": Option("grid size of sweeps and of series input, refused where "
                    "neither is read", _GRID, default=4096),
        "degree": Option("trig-polynomial degree cap of the trials, below "
                         "--n / 2", Range(1), default=16, sweep=True),
    },
    "counterexample": {
        "n": Option("family index", Range(1), sweep=False),
        "sweep": Option("run every index 1 .. SWEEP", Range(1)),
        "du": Option("bump halfwidth in the transformed coordinate",
                     Range(0.0, 1.0, low_open=True), float, 0.1),
        "variant": Option("family variant", ["floored", "plus-one"], str,
                          "floored"),
    },
    "constants": {},
}


def _described(command: str, name: str) -> tuple[str, str, str]:
    """Who reads an option, its default and what it accepts, in the words
    of the help texts and the README's option table."""
    opt, selector = OPTIONS[command][name], _COMMANDS[command][1]
    who = [f"--{selector} {', '.join(opt.reads)}"] if opt.reads else []
    who += {True: ["sweeps"], False: ["runs without --sweep"]}.get(
        opt.sweep, [])
    default = ("required" if name == selector
               else "none" if opt.default is None else str(opt.default))
    accepts = (opt.accepts.text(opt.type) if isinstance(opt.accepts, Range)
               else ", ".join(opt.accepts) if isinstance(opt.accepts, list)
               else opt.accepts)
    return ", ".join(who) or "all", default, accepts


def _options(args) -> dict:
    """Each option's value, as given or its default.  An option the run
    does not read, or a value out of range, is refused here: before any
    input is read, any trial drawn or any grid allocated."""
    selector = _COMMANDS[args.command][1]
    case = getattr(args, selector) if selector else None
    sweep = getattr(args, "sweep", None) is not None
    values = {}
    for name, opt in OPTIONS[args.command].items():
        value = getattr(args, name)
        if opt.sweep is False and (value is not None) == sweep:
            raise ParameterError(f"give exactly one of --{name} and --sweep")
        if value is None:
            value = opt.default
        elif opt.reads is not None and case not in opt.reads:
            raise ParameterError(f"--{selector} {case} does not read --{name}")
        elif opt.sweep and not sweep:
            raise ParameterError(f"--{name} {value} is read by --sweep only, "
                                 f"and no --sweep is given")
        elif isinstance(opt.accepts, Range) and value not in opt.accepts:
            raise ParameterError(f"--{name} {value} is out of range: {name} "
                                 f"must be {opt.accepts.text(opt.type)}")
        values[name] = value
    return values


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


def _json_object(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused, where
    json.loads would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParameterError(f"JSON key {key!r} is given twice")
        obj[key] = value
    return obj


def _load_any(path: str):
    """Parse a path into a GridFunction or FourierSeries."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text, object_pairs_hook=_json_object)
        if "coeffs" in obj:
            return FourierSeries.from_json_dict(obj)
        return GridFunction.from_json_dict(obj)
    vals = _parse_samples(text)
    if not vals.size:
        raise ParameterError(f"no samples found in {path!r}")
    return GridFunction(len(vals), vals)


def _grids(inputs, n: int, given: bool) -> list[GridFunction]:
    """The inputs as grid functions, series synthesized on n samples.
    Sample input has its own grid, so a given --n is refused unless an
    input is a series."""
    if given and not any(isinstance(obj, FourierSeries) for obj in inputs):
        raise ParameterError(f"--n {n} is the grid size of series input, "
                             f"and no input here is a series")
    return [fourier_synthesize(obj, n) if isinstance(obj, FourierSeries)
            else obj for obj in inputs]


def _herglotz_degree(degree: int, given: bool, n: int) -> int:
    """--degree of the herglotz method on n samples: a given one must be
    resolved there, and the default is cut to what is."""
    top = min(n // 2 - 1, HERGLOTZ_MAX_DEGREE)
    if given and degree > top:
        raise ParameterError(
            f"--degree {degree} is outside 0 .. {top}: the herglotz method "
            f"resolves degrees below n / 2 = {n // 2} on {n} samples, and up "
            f"to {HERGLOTZ_MAX_DEGREE} on its r = {HERGLOTZ_RADIUS} circle")
    return min(degree, top)


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_factorize(args, opts: dict) -> int:
    data = _load_any(args.input)
    if args.method == "fejer-riesz":
        if not isinstance(data, FourierSeries):
            raise ParameterError(
                "fejer-riesz input must be a Fourier series "
                "(JSON with a coeffs mapping)")
        _fr_coeffs(data)  # its refusals come before --n's
    # the grid comes first: an --n too small for the series costs no roots
    [f] = _grids([data], opts["n"], args.n is not None)
    if args.floor is not None:
        # --floor prepares the density that the route and the outer check
        # read, in place: f's samples were made above and nothing else
        # holds them, and a clamped copy of 2^20 text samples raised the
        # peak RSS by 7 to 23 MB (glibc's heap layout)
        v = f.values
        v.setflags(write=True)
        np.maximum(v, args.floor, out=v)
        v.setflags(write=False)
    if args.method == "fejer-riesz":
        factor = SpectralFactor(fejer_riesz(data))
    elif args.method == "boundary":
        factor = factorize_boundary(f)
    elif args.method == "herglotz":
        factor = _herglotz_factor(f, _herglotz_degree(
            opts["degree"], args.degree is not None, f.n))
    if args.floor is not None:
        factor = dataclasses.replace(factor, floor_applied=args.floor)
    report = outer_check(factor, f)
    factor.write_json(sys.stdout, {"method": args.method,
                                   "outer": report.to_json_dict()})
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_bounds(args, opts: dict) -> int:
    check = CHECKS[args.check]
    extra = [opts[check.option]] if check.option else []
    if check.option == "phi":  # parsed once: trials share its complement
        phi = NFunction.from_json_dict(
            json.loads(extra[0], object_pairs_hook=_json_object))
        if check.complement:  # refused, if at all, before any input
            phi.complement()
        extra = [phi]
    sweep = args.sweep is not None
    paths = [path for path in (args.f, args.g) if path is not None]
    reads = () if sweep else check.inputs
    if len(paths) != len(reads):
        raise ParameterError(
            f"--check {args.check}{' --sweep' * sweep} reads "
            f"{' and '.join(reads) or 'no inputs'}; given: "
            f"{', '.join(map(repr, paths)) or 'none'}")
    if sweep:
        n, degree = opts["n"], opts["degree"]
        if 2 * degree >= n:
            raise ParameterError(
                f"--degree {degree} is not resolved on --n {n} "
                f"samples: sweeps need --degree < --n / 2")
        records = _sweep_blocks(opts["seed"], args.sweep, n, degree,
                                len(check.inputs) == 2)
    else:
        inputs = [_load_any(path) for path in paths]
        records = [check.record(*_grids(inputs, opts["n"],
                                        args.n is not None))]
    reports = [rep for record in records
               for rep in check.reports(record, *extra)]
    for i, rep in enumerate(reports):
        _emit({"trial": i, **rep.to_json_dict()} if sweep
              else rep.to_json_dict())
    n_pass = sum(r.passed for r in reports)
    if sweep:
        print(f"{n_pass}/{len(reports)} trials passed", file=sys.stderr)
    return EXIT_PASS if n_pass == len(reports) else EXIT_FAIL


def cmd_counterexample(args, opts: dict) -> int:
    all_pass = True
    for n in [args.n] if args.sweep is None else range(1, args.sweep + 1):
        row = family_row(n, du=opts["du"], variant=opts["variant"])
        _emit(row)
        all_pass = all_pass and row["pass"]
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_constants(_args, _opts) -> int:
    _emit({
        "K": davis_constant(),
        "K0": k0_constant(),
        "C2": constant_c_p(2.0),
        "C_inf": constant_c_inf(),
    })
    return EXIT_PASS


#: each command: its run, the option that selects what a run reads, its
#: help and its inputs (name, default, help)
_COMMANDS = {
    "factorize": (cmd_factorize, "method",
                  "compute the outer spectral factor of a density",
                  [("input", "-", "density samples or series (path or '-')")]),
    "bounds": (cmd_bounds, "check",
               "check one continuity bound on given or random inputs",
               [("f", None, "density f (or psi for lemma checks)"),
                ("g", None, "density g (pair checks only)")]),
    "counterexample": (cmd_counterexample, None, "emit divergence-family rows "
                       "(JSON lines, one per index)", []),
    "constants": (cmd_constants, None,
                  "emit the pinned constants K, K0, C2, C_inf", []),
}


class _Parser(argparse.ArgumentParser):
    """Parser and subparsers whose errors reach main as ParameterError."""

    def error(self, message):
        raise ParameterError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once from _COMMANDS and OPTIONS:
    parsing leaves it unchanged, so in-process calls of main share it."""
    parser = _Parser(
        prog="specfact",
        description="Spectral factorization on the circle with machine-checked "
                    "continuity bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, _, about, inputs) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for arg, value, about in inputs:
            p.add_argument(arg, nargs="?", default=value, help=about)
        for name, opt in OPTIONS[command].items():
            who, default, accepts = _described(command, name)
            required = default == "required"
            default = default if required else f"default {default}"
            p.add_argument(
                f"--{name}", type=opt.type, required=required,
                choices=opt.accepts if isinstance(opt.accepts, list) else None,
                help=f"{opt.help} (read by {who}; {default}; {accepts})")
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, _options(args))
    except DomainError as exc:
        # the only domain error of the --floor methods: a nonpositive density
        floor = (getattr(args, "method", None)
                 in OPTIONS["factorize"]["floor"].reads)
        remedy = "; pass --floor to clamp" if floor else ""
        print(f"specfact: domain error: {exc}{remedy}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalConditioningError as exc:
        print(f"specfact: numerically unresolved: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:  # ParameterError, JSON's errors
        print(f"specfact: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def console_main():
    """The `specfact` command: main under the default SIGPIPE handling,
    where the platform has SIGPIPE (main, run in-process, changes none)."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
