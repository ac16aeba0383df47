"""The verdict corpus: command lines with their recorded exit code, stderr
and stdout, rerun in process through `specfact.cli.main`.

    python tests/corpus/regen.py          rerun the manifest, print the
                                          largest change per field against
                                          record.json, and rewrite it
    python tests/corpus/regen.py --check  rerun record.json's command lines,
                                          print each disagreement, and exit
                                          1 on any (0 otherwise)

Exit codes, stderr lines, pass flags, key order and every other value that
is not a number must match exactly.  A number agrees when it lies within
1e-12 of the recorded one, relative to the largest of the two and of the
largest number on its recorded line: a difference such as identity's gap
carries the rounding of its operands, which another CPU's FFT may move.
Input files are written to a temporary directory, named {in} in the record,
and `factorize` keeps its first 64 coefficients.  The checkout's `src/`
comes first on the import path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from specfact.cli import main  # noqa: E402

RECORD = HERE / "record.json"
REL_TOL = 1e-12
#: coefficients of a factorize line that the record keeps
COEFFS = 64


def _theta(n: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def _grid(values: np.ndarray) -> str:
    return json.dumps({"n": len(values), "values": values.tolist()})


def _series_32() -> str:
    """|P|^2 for P(z) = sum_k (-0.7)^k z^k / (1 + k), k = 0 .. 32."""
    p = [(-0.7) ** k / (1 + k) for k in range(33)]
    c = [sum(p[j] * p[j + k] for j in range(33 - k)) for k in range(33)]
    return json.dumps({"coeffs": {
        str(s * k): [v, 0.0] for k, v in enumerate(c)
        for s in ((1,) if k == 0 else (1, -1))}})


def _dip2() -> str:
    """|P|^2 for P(z) = (z - e^{0.3i}) (z - e^{1.3i})."""
    a = np.polynomial.polynomial.polyfromroots(np.exp([0.3j, 1.3j]))
    c = [float(np.sum(np.abs(a) ** 2))] + [
        complex(np.sum(a[k:] * np.conj(a[:3 - k]))) for k in (1, 2)]
    return json.dumps({"coeffs": {
        str(s * k): [v.real, s * v.imag] for k, v in enumerate(c)
        for s in ((1,) if k == 0 else (1, -1))}})


#: every input file, by name, and its text
INPUTS = {
    "flat.txt": lambda: "4 4 4 4 4 4 4 4\n",
    "zero.txt": lambda: "1 1 1 0 1 1 1 1\n",
    "series.json": lambda: ('{"coeffs": {"0": [1.25, 0], "1": [-0.5, 0], '
                            '"-1": [-0.5, 0]}}'),
    # 1 + cos t, zero at the sample theta = -pi
    "cos.json": lambda: ('{"coeffs": {"0": [1, 0], "1": [0.5, 0], '
                         '"-1": [0.5, 0]}}'),
    # 2 - 2 cos t and 2 - 2 cos(t - 0.3), each with one boundary zero: at
    # the sample theta = 0, and between samples
    "dip.json": lambda: ('{"coeffs": {"0": [2, 0], "1": [-1, 0], '
                         '"-1": [-1, 0]}}'),
    "dip03.json": lambda: json.dumps({"coeffs": {
        "0": [2, 0], "1": [-math.cos(0.3), math.sin(0.3)],
        "-1": [-math.cos(0.3), -math.sin(0.3)]}}),
    # |1 - e^{-0.3i} z|^2 |1 - e^{-1.3i} z|^2: two boundary zeros, both
    # between samples
    "dip2.json": _dip2,
    "series32.json": _series_32,
    "big.txt": lambda: "1e302\n" * 4096,
    "sine.txt": lambda: "\n".join(
        map(repr, np.exp(2.0 * np.pi * np.sin(_theta(4096))).tolist())),
    "f.json": lambda: _grid(np.exp(np.cos(_theta(256)))),
    "g.json": lambda: _grid(np.exp(0.9 * np.cos(_theta(256))
                                   + 0.1 * np.sin(2.0 * _theta(256)))),
    "psi.json": lambda: _grid(np.cos(_theta(256))
                              - 0.5 * np.sin(3.0 * _theta(256))),
    "huge_f.txt": lambda: "1e308\n" * 8,
    "huge_g.txt": lambda: "1e307\n" * 8,
    "wrong.json": lambda: '{"n": 8, "values": {"a": 1}}',
    "strings.json": lambda: json.dumps({"values": ["4"] * 8}),
    "flat16.txt": lambda: "4 " * 16 + "\n",
    "nan.txt": lambda: "4 4 4 nan 4 4 4 4\n",
    "empty.txt": lambda: "",
    "n7.json": lambda: json.dumps({"n": 7, "values": [4] * 7}),
    "n16.json": lambda: json.dumps({"n": 16, "values": [4] * 8}),
    "skew.json": lambda: ('{"coeffs": {"0": [1, 0], "1": [0.5, 0], '
                          '"-1": [0.25, 0]}}'),
    "inf.json": lambda: '{"coeffs": {"0": [1e999, 0]}}',
    "coeffs3.json": lambda: '{"coeffs": 3}',
    "key.json": lambda: '{"coeffs": {"0.5": [1, 0]}}',
    "deg513.json": lambda: ('{"coeffs": {"0": [1, 0], "513": [0.25, 0], '
                            '"-513": [0.25, 0]}}'),
    "deg8.json": lambda: ('{"coeffs": {"0": [1, 0], "8": [0.25, 0], '
                          '"-8": [0.25, 0]}}'),
    # 1 + 0.6 cos 512t: the largest degree fejer-riesz accepts
    "cos512.json": lambda: ('{"coeffs": {"0": [1, 0], "512": [0.3, 0], '
                            '"-512": [0.3, 0]}}'),
    "zeropoly.json": lambda: '{"coeffs": {"0": [0, 0]}}',
    # 0.5 + cos t, negative on |t| > 2 pi / 3
    "halfcos.json": lambda: ('{"coeffs": {"0": [0.5, 0], "1": [0.5, 0], '
                             '"-1": [0.5, 0]}}'),
    # 1 + 2e-310 cos 2t: a subnormal top coefficient
    "subnormal.json": lambda: ('{"coeffs": {"0": [1, 0], "2": [1e-310, 0], '
                               '"-2": [1e-310, 0]}}'),
    "const.json": lambda: '{"coeffs": {"0": [4, 0]}}',
    # JSON that names one thing twice: k = 0 as "0" and "-0", k = 1 as "1"
    # and "+1" (equal values) or "01" (another value), a repeated key
    "dup0.json": lambda: '{"coeffs": {"0": [2, 0], "-0": [7, 0]}}',
    "dupplus.json": lambda: ('{"coeffs": {"0": [2, 0], "1": [-0.5, 0], '
                             '"+1": [-0.5, 0], "-1": [-0.5, 0]}}'),
    "dup01.json": lambda: ('{"coeffs": {"0": [2, 0], "1": [-0.5, 0], '
                           '"01": [-0.25, 0], "-1": [-0.5, 0]}}'),
    "dupkey.json": lambda: ('{"coeffs": {"0": [2, 0], "1": [-0.5, 0], '
                            '"1": [-0.25, 0], "-1": [-0.5, 0]}}'),
    "dupvalues.json": lambda: ('{"n": 8, "values": [1, 1, 1, 1, 1, 1, 1, 1], '
                               '"values": [4, 4, 4, 4, 4, 4, 4, 4]}'),
    # JSON with a key that no reader reads: a series that also gives
    # samples, a grid that also gives a floor, a series that gives its n
    "coeffsvalues.json": lambda: ('{"coeffs": {"0": [4, 0]}, '
                                  '"values": [1, 1, 1, 1, 1, 1, 1, 1]}'),
    "valuesfloor.json": lambda: ('{"values": [4, 4, 4, 4, 4, 4, 4, 4], '
                                 '"floor": 0.001}'),
    "coeffsn.json": lambda: '{"coeffs": {"0": [4, 0]}, "n": 8}',
}


def manifest() -> list[list[str]]:
    """The command lines, {in} standing for the input directory."""
    power = json.dumps({"kind": "power", "q": 3})
    llogl = json.dumps({"kind": "density", "u_grid": [
        [float(t), float(np.log1p(t))] for t in np.geomspace(1e-6, 1e6, 49)]})
    lines = []
    for check, phis in (("thm2", [None]), ("cor-p", [None]),
                        ("main", [power, llogl]), ("identity", [None]),
                        ("lemma-orl", [power, llogl]), ("lemma-l1", [None])):
        for phi in phis:
            for n in (64, 256, 4096):
                for seed in (0, 1):
                    lines.append(["bounds", "--check", check, "--sweep", "3",
                                  "--n", str(n), "--seed", str(seed),
                                  *(["--phi", phi] if phi else [])])
    lines += [["bounds", "--check", "cor-p", "--sweep", "3", "--n", str(n),
               "--p", "3.5"] for n in (256, 4096)]
    pair = ["{in}/f.json", "{in}/g.json"]
    huge = ["{in}/huge_f.txt", "{in}/huge_g.txt"]
    lines += [
        ["bounds", *pair, "--check", "thm2"],
        ["bounds", *pair, "--check", "cor-p", "--p", "3.5"],
        ["bounds", *pair, "--check", "main", "--phi", power],
        ["bounds", *pair, "--check", "identity"],
        ["bounds", "{in}/psi.json", "--check", "lemma-orl", "--phi", llogl],
        ["bounds", "{in}/psi.json", "--check", "lemma-l1"],
        *(["bounds", *huge, "--check", check]
          for check in ("thm2", "cor-p", "main", "identity")),
        ["factorize", "{in}/flat.txt", "--method", "boundary"],
        ["factorize", "{in}/flat.txt", "--method", "herglotz"],
        ["factorize", "{in}/series.json", "--method", "fejer-riesz"],
        *(["factorize", "{in}/series32.json", "--method", method]
          for method in ("fejer-riesz", "boundary", "herglotz")),
        ["factorize", "{in}/big.txt", "--method", "boundary"],
        ["factorize", "{in}/sine.txt", "--method", "boundary"],
        ["factorize", "{in}/zero.txt", "--method", "boundary"],
        *(["factorize", "{in}/zero.txt", "--method", method, "--floor", "1e-3"]
          for method in ("boundary", "herglotz")),
        *(["factorize", "{in}/cos.json", "--method", method, "--floor", "1e-3"]
          for method in ("boundary", "herglotz")),
        ["factorize", "{in}/dip.json", "--method", "fejer-riesz"],
        *(["factorize", "{in}/dip03.json", "--method", method]
          for method in ("fejer-riesz", "boundary", "herglotz")),
        ["factorize", "{in}/dip2.json", "--method", "fejer-riesz"],
        ["factorize", "{in}/cos512.json", "--method", "fejer-riesz", "--n",
         "16384"],
        *(["counterexample", "--sweep", "5", "--variant", variant]
          for variant in ("floored", "plus-one")),
        ["counterexample", "--n", str(10 ** 15)],
        ["counterexample", "--n", str(10 ** 14), "--variant", "plus-one"],
        ["constants"],
        # one refusal per rule family: a grid that is not a power of two,
        # a value out of range, an unknown choice, an unknown option, an
        # unparsable number, inputs the check does not read, a sweep-only
        # option without --sweep, a degree the grid or route cannot hold, a
        # missing file, JSON of the wrong type, a string for a number, a
        # phi without a usable complement
        ["bounds", "--check", "thm2", "--sweep", "1", "--n", "1000"],
        ["bounds", "--check", "cor-p", "--sweep", "1", "--p", "1"],
        ["counterexample", "--sweep", "3", "--du", "0"],
        ["factorize", "{in}/flat.txt", "--method", "boundary", "--floor", "0"],
        ["bounds", "--check", "bogus", "--sweep", "1"],
        ["bounds", "--check", "thm2", "--sweep", "1", "--du", "3"],
        ["bounds", "--check", "thm2", "--sweep", "1", "--n", "abc"],
        ["bounds", "--check", "thm2"],
        ["bounds", "{in}/flat.txt", "--check", "lemma-l1", "--seed", "1"],
        ["bounds", "--check", "thm2", "--sweep", "1", "--n", "64",
         "--degree", "32"],
        ["factorize", "{in}/flat.txt", "--method", "herglotz",
         "--degree", "4"],
        ["factorize", "{in}/missing.txt", "--method", "boundary"],
        ["factorize", "{in}/wrong.json", "--method", "boundary"],
        ["factorize", "{in}/strings.json", "--method", "boundary"],
        ["bounds", "--check", "main", "--sweep", "1",
         "--phi", '{"kind": "power", "q": 1e17}'],
        # every other refusal the command line reaches: grids that differ,
        # samples and JSON the parsers refuse, a series that is not
        # real-valued or that the route or the grid cannot take, options
        # the run does not read, and what a route finds no factor of
        ["bounds", "{in}/flat.txt", "{in}/flat16.txt", "--check", "thm2"],
        *(["factorize", f"{{in}}/{name}", "--method", "boundary"]
          for name in ("nan.txt", "empty.txt", "n7.json", "n16.json",
                       "skew.json", "inf.json", "coeffs3.json", "key.json")),
        ["factorize", "{in}/deg513.json", "--method", "fejer-riesz"],
        ["factorize", "{in}/flat.txt", "--method", "fejer-riesz"],
        ["factorize", "{in}/flat.txt", "--method", "boundary", "--n", "8"],
        ["factorize", "{in}/deg8.json", "--method", "boundary", "--n", "16"],
        ["factorize", "{in}/flat.txt", "--method", "boundary",
         "--degree", "3"],
        ["counterexample", "--n", "3", "--sweep", "3"],
        *(["factorize", f"{{in}}/{name}", "--method", "fejer-riesz"]
          for name in ("zeropoly.json", "halfcos.json", "subnormal.json")),
        ["counterexample", "--n", str(10 ** 307)],
        # a constant series; each refusal of a density N-function: too few
        # samples, a sample that is not finite, abscissae that are not
        # distinct, a decreasing u, a flat end segment, an end exponent out
        # of range
        ["factorize", "{in}/const.json", "--method", "fejer-riesz"],
        *(["bounds", "--check", "lemma-orl", "--sweep", "1", "--n", "64",
           "--phi", '{"kind": "density", "u_grid": ' + grid + "}"]
          for grid in ("[[1, 1]]", "[[1, 1], [2, 1e999]]", "[[1, 1], [1, 2]]",
                       "[[1, 2], [2, 1]]", "[[1, 1], [2, 1]]",
                       "[[1, 5e-324], [2, 1e300]]")),
        # JSON that names one thing twice
        *(["factorize", "{in}/dup0.json", "--method", method]
          for method in ("fejer-riesz", "boundary")),
        *(["factorize", f"{{in}}/{name}", "--method", "fejer-riesz"]
          for name in ("dupplus.json", "dup01.json", "dupkey.json")),
        ["factorize", "{in}/dupvalues.json", "--method", "boundary"],
        ["bounds", "--check", "lemma-orl", "--sweep", "1", "--n", "64",
         "--phi", '{"kind": "power", "q": 3, "q": 2}'],
        # JSON with a key that no reader reads
        ["factorize", "{in}/coeffsvalues.json", "--method", "boundary",
         "--n", "8"],
        ["factorize", "{in}/valuesfloor.json", "--method", "boundary"],
        ["factorize", "{in}/coeffsn.json", "--method", "fejer-riesz"],
        *(["bounds", "--check", "lemma-orl", "--sweep", "1", "--n", "64",
           "--phi", phi]
          for phi in ('{"kind": "power", "q": 3, "u_grid": [[1, 1]]}',
                      '{"kind": "density", "u_grid": [[1, 1], [2, 2], '
                      '[4, 4]], "q": 3}')),
        # the Orlicz branches the lines above miss: Phi sampled over a
        # narrow t-range, so that the complement's samples fill both end
        # pieces and Lambda_Phi solves beyond the end nodes (below them,
        # then above); 1e300 t^0.2, whose complement's bracket search
        # reaches z = 700, where its terms overflow; and a complement with
        # nodes below 1e-154
        *(["bounds", "--check", "main", "--sweep", "3", "--n", "256",
           "--phi", phi]
          for phi in (_narrow_phi(0.5), _narrow_phi(0.05), json.dumps({
              "kind": "density", "u_grid": [
                  [float(t), 1e300 * float(t) ** 0.2]
                  for t in np.geomspace(1e-6, 1e6, 13)]}))),
        ["bounds", "--check", "main", "--sweep", "2", "--n", "256", "--phi",
         '{"kind": "density", "u_grid": [[1, 1e-300], [2, 1e-299], '
         '[3, 1]]}'],
        # a flat segment of u becomes a complement ramp one ulp wide whose
        # interval coefficients are inf: at y = 8, inside the root steps'
        # node range, and at y = 1e6, far above it
        *(["bounds", "--check", "main", "--sweep", "2", "--n", "256",
           "--phi", phi]
          for phi in ('{"kind": "density", "u_grid": [[1, 1], [2, 2], '
                      '[8, 8], [3e293, 8], [6e293, 9]]}',
                      '{"kind": "density", "u_grid": [[1, 1], [2, 2], '
                      '[1e6, 1e6], [3e299, 1e6], [6e299, 2e6]]}')),
    ]
    return lines


def _narrow_phi(t0: float) -> str:
    """u through (t0, t0 / 2), (1.2 t0, 0.8 t0) and (1.4 t0, 1.2 t0)."""
    return json.dumps({"kind": "density", "u_grid": [
        [t0, 0.5 * t0], [1.2 * t0, 0.8 * t0], [1.4 * t0, 1.2 * t0]]})


def run(argv: list[str], indir: str) -> dict:
    """One command line's entry: argv, exit code, stderr lines and the
    parsed stdout lines, with indir written back as {in}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{in}", indir) for arg in argv])
    stdout = [json.loads(line) for line in out.getvalue().splitlines()]
    for obj in stdout:
        if "a" in obj:
            obj["a"] = obj["a"][:COEFFS]
    return {"argv": argv, "exit": code,
            "stderr": err.getvalue().replace(indir, "{in}").splitlines(),
            "stdout": stdout}


def run_all(lines: list[list[str]]) -> list[dict]:
    with tempfile.TemporaryDirectory() as indir:
        for name, text in INPUTS.items():
            Path(indir, name).write_text(text())
        return [run(argv, indir) for argv in lines]


def _numbers(v):
    """Magnitudes of the numbers in a JSON value."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        for x in v:
            yield from _numbers(x)
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        yield abs(v)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _changes(old, new, path: str, scale: float):
    """(path, change, old, new) for each leaf: a number's change relative
    to the larger of itself, its recorded value and scale; inf where any
    other value or the shape differs, 0 where it matches."""
    if _is_number(old) and _is_number(new):
        change = 0.0 if old == new else (
            abs(new - old) / max(abs(old), abs(new), scale))
        yield path, change, old, new
    elif (isinstance(old, dict) and isinstance(new, dict)
          and list(old) == list(new)):
        for key in old:
            yield from _changes(old[key], new[key],
                                f"{path}.{key}" if path else key, scale)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for x, y in zip(old, new):
            yield from _changes(x, y, f"{path}[]", scale)
    else:
        same = type(old) is type(new) and old == new
        yield path, 0.0 if same else math.inf, old, new


def compare(pairs):
    """(field, change, old, new, argv) for every field of each (recorded,
    rerun) pair of entries; a field is "exit", "stderr" or a stdout key
    path prefixed by the report name or the command."""
    for old, new in pairs:
        argv = old["argv"]
        for key in ("exit", "stderr"):
            yield from ((key, *rest, argv)
                        for _, *rest in _changes(old[key], new[key], "", 0.0))
        if len(old["stdout"]) != len(new["stdout"]):
            yield "stdout lines", math.inf, old["stdout"], new["stdout"], argv
            continue
        for a, b in zip(old["stdout"], new["stdout"]):
            label = a.get("name", argv[0]) if isinstance(a, dict) else argv[0]
            scale = max(_numbers(a), default=0.0)
            for path, *rest in _changes(a, b, "", scale):
                yield f"{label}: {path}", *rest, argv


def _show(argv: list[str]) -> str:
    text = shlex.join(argv)
    return text if len(text) <= 100 else text[:97] + "..."


def check(record: list[dict]) -> list[str]:
    """One line per disagreement of a rerun of the record's command lines."""
    runs = run_all([entry["argv"] for entry in record])
    return [f"{_show(argv)}: {field}: recorded {old!r}, got {new!r}"
            for field, change, old, new, argv in compare(zip(record, runs))
            if change > REL_TOL]


def regenerate() -> None:
    """Rerun the manifest, print the largest change per field against the
    record, and rewrite the record."""
    runs = run_all(manifest())
    record = json.loads(RECORD.read_text()) if RECORD.exists() else []
    recorded = {tuple(entry["argv"]): entry for entry in record}
    pairs = [(recorded[tuple(new["argv"])], new) for new in runs
             if tuple(new["argv"]) in recorded]
    largest = {}
    for field, change, *_ in compare(pairs):
        largest[field] = max(largest.get(field, 0.0), change)
    moved = {field: c for field, c in largest.items() if c}
    print(f"{len(runs)} command lines, {len(pairs)} of them recorded "
          f"before")
    for field, change in sorted(moved.items()):
        print(f"  {field:48s} {change:.3g}")
    print(f"{len(largest) - len(moved)} of {len(largest)} fields unchanged "
          f"bit for bit")
    RECORD.write_text("[\n" + ",\n".join(
        json.dumps(entry) for entry in runs) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        problems = check(json.loads(RECORD.read_text()))
        print("\n".join(problems) or "the corpus matches its record")
        sys.exit(1 if problems else 0)
    elif sys.argv[1:]:
        sys.exit(__doc__)
    regenerate()
