"""The four workloads: seeded op plans and the per-op output checks.

A workload is an endless sequence of cycles and a cycle is a list of ops.
An op is one or more steps.  A step is a `specfact` command line run
in-process through `specfact.cli.main(argv)` with stdout and stderr
captured, or, for `cross_validate_pipeline`, which has no command line, a
call through the API.  Inputs come only from the workload seed and the
cycle index, so one seed gives one op sequence.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stats import Verdict


@dataclass(frozen=True)
class Step:
    kind: str   # "cli": args is argv; "api": args is [module, function, kwargs]
    args: list


@dataclass
class Result:
    code: int | None       # exit code of a cli step, None for an api step
    out: str = ""
    err: str = ""
    value: object = None   # return value of an api step
    error: str | None = None  # exception that escaped the program


def run_step(step: Step) -> Result:
    """Run one step against the imported `specfact` package."""
    if step.kind == "cli":
        main = sys.modules["specfact.cli"].main
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(step.args))
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the op fails; the run goes on
                error = f"{type(exc).__name__}: {exc}"
        return Result(code, out.getvalue(), err.getvalue(), error=error)
    module, function, kwargs = step.args
    fn = getattr(sys.modules[f"specfact.{module}"], function)
    try:
        return Result(None, value=fn(**kwargs))
    except Exception as exc:
        return Result(None, error=f"{type(exc).__name__}: {exc}")


@dataclass
class Op:
    label: str
    steps: list[Step]
    items: int
    check: Callable[[list[Result]], Verdict]
    #: the program is known to fail on some of these inputs; a failure is
    #: counted but leaves the run correct (see stats.Tally)
    fragile: bool = False

    def run(self) -> list[Result]:
        return [run_step(s) for s in self.steps]

    def verdict(self, results: list[Result]) -> Verdict:
        try:
            return self.check(results)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return Verdict(False, False, f"unreadable output: {exc!r}")

    def to_json(self) -> str:
        return json.dumps([[s.kind, s.args] for s in self.steps])


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, Path], list[Op]]
    #: run time budgeted per cycle (about one cycle's wall time on the
    #: reference machine); sets the cycle count of fixed-work and traced
    #: runs, never measured at run time
    cycle_s: float
    #: time-boxed runs repeat cycles until the run time is used; fixed-work
    #: runs do round(seconds / cycle_s) whole cycles, so the op mix, and
    #: with it the median and tail, does not depend on how fast the
    #: program is
    time_boxed: bool

    def fixed(self, seed: int, seconds: float, workdir: Path) -> list[Op]:
        """The ops of round(seconds / cycle_s) whole cycles (at least one)."""
        cycles = max(1, round(seconds / self.cycle_s))
        return [op for c in range(cycles) for op in self.cycle(seed, c, workdir)]

    def share(self, seed: int, seconds: float, index: int, count: int,
              workdir: Path):
        """Ops of worker `index` of `count`, and its time box in seconds.

        Time-boxed workers take every count-th cycle, endlessly, and a
        count-th of the run time; fixed-work workers take every count-th op
        and no time box (None).
        """
        if not self.time_boxed:
            return self.fixed(seed, seconds, workdir)[index::count], None
        ops = (op for c in itertools.count(index, count)
               for op in self.cycle(seed, c, workdir))
        return ops, seconds / count


def derive(seed: int, index: int, count: int = 1) -> list[int]:
    """Per-op seeds for the command line, derived from the workload seed."""
    state = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(s) for s in state]


def _combine(verdicts) -> Verdict:
    verdicts = list(verdicts)
    bad = [v.reason for v in verdicts if not (v.ok and v.consistent)]
    return Verdict(all(v.ok for v in verdicts),
                   all(v.consistent for v in verdicts),
                   bad[0] if bad else "")


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _refusal(r: Result) -> Verdict | None:
    """Verdict for a step that raised or printed nothing, else None."""
    if r.error is not None:
        return Verdict(False, True, r.error)
    if r.code != 0 and not r.out:
        return Verdict(False, True, f"exit {r.code}: {r.err.strip()[:200]}")
    return None


# -- bound sweeps ---------------------------------------------------------


def _audit_report(rep: dict, check: str, phi: dict) -> str | None:
    """Re-audit one BoundReport line from its own fields."""
    d = rep["details"]
    lhs, rhs = rep["lhs"], rep["rhs"]
    if rep["name"] != check:
        return f"report name {rep['name']!r}"
    if not _close(rep["slack"], rhs - lhs):
        return "slack is not rhs - lhs"
    rule = lhs <= rhs * (1.0 + d["tol"]) + d["atol"]
    if check == "thm2":
        if not _close(rhs, 2.0 * d["l1_diff"]
                      + 2.5 * d["sup_f"] * d["log_l1_diff"]):
            return "rhs is not 2 l1_diff + 2.5 sup_f log_l1_diff"
        if not _close(d["rhs_sharp"], 2.0 * d["l1_diff"]
                      + d["two_k0"] * d["sup_f"] * d["log_l1_diff"]):
            return "rhs_sharp is not 2 l1_diff + 2 K0 sup_f log_l1_diff"
        sharp = lhs <= d["rhs_sharp"] * (1.0 + d["tol"]) + 1e-12
        if d["pass_sharp"] != sharp:
            return "pass_sharp contradicts rhs_sharp"
        rule = rule and sharp
    else:
        if not _close(rhs, 2.0 * d["l1_diff"]
                      + 4.0 * d["orlicz_norm_f"] * d["lambda"]):
            return "rhs is not 2 l1_diff + 4 orlicz_norm_f lambda"
        if phi["kind"] == "power" and not _close(
                d["lambda"], d["s"] ** (1.0 / phi["q"]), 1e-8):
            return f"lambda {d['lambda']} is not s^(1/q)"
    if rep["pass"] != rule:
        return "pass flag contradicts lhs <= rhs (1 + tol) + atol"
    return None


def _sweep_verdict(r: Result, check: str, trials: int, phi: dict) -> Verdict:
    refused = _refusal(r)
    if refused:
        return refused
    lines = r.out.splitlines()
    if len(lines) != trials:
        return Verdict(False, False, f"{len(lines)} lines for {trials} trials")
    all_pass = True
    for i, line in enumerate(lines):
        rep = json.loads(line)
        problem = ("trial index out of order" if rep["trial"] != i
                   else _audit_report(rep, check, phi))
        if problem:
            return Verdict(False, False, f"trial {i}: {problem}")
        all_pass = all_pass and rep["pass"]
    if r.code != (0 if all_pass else 1):
        return Verdict(False, False, f"exit {r.code} with all_pass={all_pass}")
    return Verdict(all_pass, True, "" if all_pass else "a bound failed")


def _sweep_op(label: str, halves) -> Op:
    """halves: (check, trials, phi dict, seed) per command line."""
    steps = []
    for check, trials, phi, seed in halves:
        argv = ["bounds", "--check", check, "--sweep", str(trials),
                "--seed", str(seed)]
        if phi:
            argv += ["--phi", json.dumps(phi)]
        steps.append(Step("cli", argv))

    def check_op(results):
        return _combine(_sweep_verdict(r, c, t, p)
                        for r, (c, t, p, _) in zip(results, halves))

    return Op(label, steps, sum(h[1] for h in halves), check_op)


POWER_PHI = {"kind": "power", "q": 3}
# L log L type: u(t) = log(1 + t) on a geometric grid, in the u_grid form
_T = np.geomspace(1e-6, 1e6, 49)
DENSITY_PHI = {"kind": "density",
               "u_grid": [[float(t), float(np.log1p(t))] for t in _T]}


def sweep_thm2(seed: int, c: int, workdir: Path) -> list[Op]:
    (s,) = derive(seed, c)
    return [_sweep_op(f"thm2#{c}", [("thm2", 100, None, s)])]


def sweep_main(seed: int, c: int, workdir: Path) -> list[Op]:
    s_power, s_density = derive(seed, c, 2)
    return [_sweep_op(f"main#{c}", [("main", 20, POWER_PHI, s_power),
                                    ("main", 5, DENSITY_PHI, s_density)])]


# -- factorization routes -------------------------------------------------

SERIES_DEGREES = (8, 32, 64, 128)
#: draws per degree in a cycle; with two, the median op falls inside the
#: cluster of small herglotz ops instead of on its edge
SERIES_DRAWS = 2
SERIES_GRID = 4096          # the CLI's default --n
SAMPLE_SIZES = (2 ** 14, 2 ** 16, 2 ** 18)
HERGLOTZ_SIZES = (2 ** 14, 2 ** 16)   # 2^18 would need a ~4 GB kernel
SAMPLE_DEGREE = 32
#: from this degree every route misses its tolerance on some draws (see
#: README, known defects), so those series ops are fragile
FRAGILE_DEGREE = 32
AGREE_HEAD = 64
TOL = {"fejer-riesz": 1e-8, "boundary": 1e-6, "herglotz": 1e-6}


def outer_poly(rng: np.random.Generator, d: int) -> np.ndarray:
    """Taylor coefficients of a degree-d polynomial, roots 1.1 < |r| < 3."""
    roots = rng.uniform(1.1, 3.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    a = np.poly(roots)[::-1]
    return a * np.exp(-1j * np.angle(a[0])) * rng.uniform(0.5, 2.0)


def autocorrelation(a: np.ndarray) -> dict[int, complex]:
    """Fourier coefficients c_k of |sum a_j e^{ij theta}|^2, k = -d .. d."""
    out = {}
    for k in range(len(a)):
        c = complex(np.sum(a[k:] * np.conj(a[: len(a) - k])))
        out[k] = c
        out[-k] = c.conjugate()
    return out


def synthesized_min(coeffs: dict[int, complex], n: int) -> float:
    """Smallest grid value of the series, synthesized as the CLI does."""
    buf = np.zeros(n, dtype=np.complex128)
    for k, c in coeffs.items():
        buf[k % n] = c * (1.0 if k % 2 == 0 else -1.0)
    return float(np.min((np.fft.ifft(buf) * n).real))


def write_durably(path: Path, text: Callable[[], str]) -> None:
    """Write text() and fsync, so write-back of inputs does not overlap
    timed ops.  An existing file is kept: the first caller of a run writes
    the inputs, and workers that build the same ops reuse them."""
    if path.exists():
        return
    with open(path, "w") as fh:
        fh.write(text())
        fh.flush()
        os.fsync(fh.fileno())


def coefficient_error(c: np.ndarray, a: np.ndarray) -> float:
    """max|c - a| over the head plus max|c| beyond a, relative to max|a|."""
    m = min(len(c), len(a))
    head = float(np.max(np.abs(c[:m] - a[:m])))
    beyond = c[len(a):] if len(c) > len(a) else a[len(c):]
    extra = float(np.max(np.abs(beyond))) if len(beyond) else 0.0
    return (head + extra) / float(np.max(np.abs(a)))


def _factorize_verdict(r: Result, method: str, a: np.ndarray,
                       heads: dict, key) -> Verdict:
    refused = _refusal(r)
    if refused:
        return refused
    obj = json.loads(r.out)
    outer = obj["outer"]
    lhs, rhs = outer["lhs"], outer["rhs"]
    if isinstance(lhs, str):
        outer_ok = False
    else:
        outer_ok = abs(lhs - rhs) <= outer["details"]["tol"] * (1.0 + abs(rhs))
    if outer["pass"] != outer_ok or r.code != (0 if outer_ok else 1):
        return Verdict(False, False, f"exit {r.code} contradicts the outer check")
    if obj["method"] != method:
        return Verdict(False, False, f"method {obj['method']!r}")
    if not outer_ok:
        return Verdict(False, True, "outer check failed")
    c = np.array([re + 1j * im for re, im in obj["a"]])
    err = coefficient_error(c, a)
    if err > TOL[method]:
        return Verdict(False, True, f"coefficient error {err:.2e} > {TOL[method]:g}")
    if key is not None:
        if method == "boundary":
            heads[key] = c[:AGREE_HEAD]
        elif key in heads:
            b = heads[key]
            gap = float(np.max(np.abs(c[:AGREE_HEAD] - b))) / float(np.max(np.abs(b)))
            if gap > 1e-6:
                return Verdict(False, True, f"herglotz vs boundary gap {gap:.2e}")
    return Verdict(True)


def _factorize_op(label, path: Path, method: str, a: np.ndarray, extra=(),
                  heads=None, key=None, fragile=False) -> Op:
    argv = ["factorize", str(path), "--method", method, *extra]
    return Op(label, [Step("cli", argv)], 1,
              lambda rs: _factorize_verdict(rs[0], method, a, heads, key),
              fragile)


def factorize(seed: int, c: int, workdir: Path) -> list[Op]:
    """Series files through all three routes, then large sample files.

    Draws whose density is not positive in float64 on the 4096 grid are
    discarded: no route can take their log.  Nothing else is filtered, so
    the routes' real failures at high degree stay in the counts.  Only
    those series ops are fragile; every sample-file op must pass.
    """
    rng = np.random.default_rng([seed, c])
    ops = []
    for d in SERIES_DEGREES * SERIES_DRAWS:
        while True:
            a = outer_poly(rng, d)
            coeffs = autocorrelation(a)
            if synthesized_min(coeffs, SERIES_GRID) > 0.0:
                break
        path = workdir / f"c{c}-series-{len(ops)}-d{d}.json"
        write_durably(path, lambda: json.dumps({"coeffs": {
            str(k): [v.real, v.imag] for k, v in coeffs.items()}}))
        for method, extra in (("fejer-riesz", ()), ("boundary", ()),
                              ("herglotz", ("--degree", str(d)))):
            ops.append(_factorize_op(f"{method}/d{d}#{c}", path, method, a,
                                     extra, fragile=d >= FRAGILE_DEGREE))

    a = outer_poly(rng, SAMPLE_DEGREE)
    heads: dict = {}
    for n in SAMPLE_SIZES:
        theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
        f = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * theta), a)) ** 2
        path = workdir / f"c{c}-samples-{n}.txt"
        write_durably(path, lambda: "\n".join(map(repr, f.tolist())))
        for method in ("boundary", "herglotz"):
            if method == "herglotz" and n not in HERGLOTZ_SIZES:
                continue
            ops.append(_factorize_op(f"{method}/n{n}#{c}", path, method, a,
                                     heads=heads, key=n))
    return ops


# -- divergence family ----------------------------------------------------

FAMILY_MAX_N = 5
EPS_RANGE = (4.0, 12.0)   # resolved by the default du = 0.5, n_pts = 16384
#: eps values per pass; enough work per op (about 0.4 s) that the tail
#: percentile sits near p75, inside the distribution, not in its noise
EPS_PER_PASS = 48


def _rows_verdict(r: Result) -> Verdict:
    refused = _refusal(r)
    if refused:
        return refused
    rows = [json.loads(line) for line in r.out.splitlines()]
    if [row["n"] for row in rows] != list(range(1, FAMILY_MAX_N + 1)):
        return Verdict(False, False, "rows are not n = 1 .. 5")
    for row in rows:
        n = row["n"]
        want = (row["h2_lower"] >= 2.0 - 1.0 / n and row["l1_diff"] <= 1.0 / n
                and row["log_l1_diff"] <= 1.0 / n)
        if row["pass"] != want:
            return Verdict(False, False, f"row n={n}: pass flag contradicts its fields")
    all_pass = all(row["pass"] for row in rows)
    if r.code != (0 if all_pass else 1):
        return Verdict(False, False, f"exit {r.code} with all_pass={all_pass}")
    return Verdict(all_pass, True, "" if all_pass else "a family row failed")


def _cross_verdict(r: Result) -> Verdict:
    if r.error is not None:
        return Verdict(False, True, r.error)
    rep = r.value
    worst = max(v for k, v in rep.details.items() if k.endswith("_rel"))
    if rep.lhs != worst or rep.passed != (worst <= rep.rhs):
        return Verdict(False, False, "cross-validation verdict contradicts its fields")
    return Verdict(rep.passed, True,
                   "" if rep.passed else f"cross-validation gap {worst:.2e}")


def family(seed: int, c: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, c])
    eps = sorted(float(e) for e in rng.uniform(*EPS_RANGE, EPS_PER_PASS))
    steps = [Step("cli", ["counterexample", "--sweep", str(FAMILY_MAX_N),
                          "--variant", v]) for v in ("floored", "plus-one")]
    steps += [Step("api", ["counterexample", "cross_validate_pipeline",
                           {"eps": e}]) for e in eps]

    def check_op(results):
        return _combine([_rows_verdict(r) for r in results[:2]]
                        + [_cross_verdict(r) for r in results[2:]])

    return [Op(f"family#{c}", steps, 1, check_op)]


WORKLOADS = {
    "sweep-thm2": Workload("sweep-thm2", sweep_thm2, 0.45, True),
    "sweep-main": Workload("sweep-main", sweep_main, 0.45, True),
    # one cycle takes about 5 s, but 3.75 gives 4 cycles at the default
    # 15 s: the tail rank (11th largest) then falls inside the four 2^16
    # boundary ops, not on the uneven edge between two cost tiers
    "factorize": Workload("factorize", factorize, 3.75, False),
    "family": Workload("family", family, 0.45, True),
}
