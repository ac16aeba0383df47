"""The option table: every refusal it states, the help texts and the README
table generated from it."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from specfact import cli
from specfact.cli import OPTIONS, Range, _described, main


class Reached(Exception):
    """A stub of the work the table must refuse before was called."""


@pytest.fixture
def no_work(monkeypatch):
    """Reading input, drawing a trial, synthesizing a grid and building a
    family row raise Reached."""
    def stub(*args, **kwargs):
        raise Reached

    for name in ("_load_any", "_sweep_blocks", "fourier_synthesize",
                 "family_row"):
        monkeypatch.setattr(cli, name, stub)


def _run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reading(command, name, case=None):
    """A command line whose run reads --name: the given method or check,
    else the first that reads it; --sweep where only sweeps read it, and
    input paths otherwise."""
    opt = OPTIONS[command][name]
    case = case or (opt.reads[0] if opt.reads else None)
    if command == "factorize":
        return ["factorize", "IN", "--method", case or "boundary"]
    if command == "counterexample":
        sweep = [] if name in ("n", "sweep") else ["--sweep", "1"]
        return ["counterexample", *sweep]
    check = case or "thm2"
    if name == "sweep":
        return ["bounds", "--check", check]
    if opt.sweep:
        return ["bounds", "--check", check, "--sweep", "1"]
    inputs = ["F", "G"][:len(cli.CHECKS[check].inputs)]
    return ["bounds", *inputs, "--check", check]


def _value(opt):
    """A value the option accepts."""
    if opt.default is not None:
        return str(opt.default)
    if isinstance(opt.accepts, Range):
        return str(opt.accepts.low + (1.0 if opt.accepts.low_open else 0))
    return opt.accepts[0]


def _outside(rng: Range, kind) -> list:
    """Values just outside each end of rng, and a non-power of two inside
    a pow2 range."""
    step = (lambda x, to: np.nextafter(x, to)) if kind is float else (
        lambda x, to: x + (1 if to > x else -1))
    values = [rng.low if rng.low_open else step(rng.low, -math.inf)]
    if rng.high < math.inf:
        values.append(step(rng.high, math.inf))
    elif kind is float:
        values.append(math.inf)
    if kind is float:
        values.append(math.nan)
    if rng.pow2:
        values.append(rng.low + 1)
    return values


def _inside(rng: Range, kind) -> list:
    """Values just inside each finite end of rng."""
    values = [np.nextafter(rng.low, math.inf) if rng.low_open else rng.low]
    return values + [rng.high] * (rng.high < math.inf)


def _one_line_naming(code, out, err, name):
    lines = err.strip().splitlines()
    assert code == 2 and not out, (code, out, err)
    assert len(lines) == 1 and f"--{name}" in lines[0], err


_TABLE = [(command, name) for command in OPTIONS for name in OPTIONS[command]]


@pytest.mark.parametrize("command, name", _TABLE)
def test_options_not_read_are_refused_before_any_work(no_work, command,
                                                      name):
    """Given to a method or check that does not read it, to a run without
    --sweep where only sweeps read it, or with --sweep where it stands
    instead of --sweep, an option exits 2 with one stderr line naming it,
    and no input is read, no trial drawn and no grid synthesized.  A
    command that has no such option refuses it by argparse, exit 2."""
    opt = OPTIONS[command][name]
    selector = cli._COMMANDS[command][1]
    value = _value(opt)
    cases = [c for c in (OPTIONS[command][selector].accepts if selector
                         else []) if opt.reads and c not in opt.reads]
    argvs = [_reading(command, name, case) + [f"--{name}", value]
             for case in cases]
    if opt.sweep:
        argvs.append(["bounds", "F", "G", "--check", "thm2",
                      f"--{name}", value])
    if opt.sweep is False:
        argvs.append(["counterexample", "--sweep", "1", f"--{name}", value])
    assert argvs or opt.reads is None and opt.sweep is None
    for argv in argvs:
        _one_line_naming(*_run(argv), name)
    runs = {"factorize": ["factorize", "IN", "--method", "boundary"],
            "bounds": ["bounds", "--check", "thm2"]}
    for other in OPTIONS:
        if name not in OPTIONS[other]:
            argv = runs.get(other, [other]) + [f"--{name}", value]
            code, out, err = _run(argv)
            assert code == 2 and not out
            assert f"--{name}" in err.strip().splitlines()[-1], err


_RANGED = [(command, name) for command, name in _TABLE
           if isinstance(OPTIONS[command][name].accepts, Range)]


@pytest.mark.parametrize("command, name", _RANGED)
def test_values_outside_each_range_are_refused_before_any_work(
        no_work, command, name):
    """Just outside each end of its range an option exits 2 with one stderr
    line naming it, before any work; just inside, the run goes on to
    read, draw or build."""
    opt = OPTIONS[command][name]
    argv = _reading(command, name)
    for value in _outside(opt.accepts, opt.type):
        _one_line_naming(*_run(argv + [f"--{name}", str(value)]), name)
    for value in _inside(opt.accepts, opt.type):
        with pytest.raises(Reached):
            main(argv + [f"--{name}", str(value)])


def _help_entries(capsys, monkeypatch, command):
    """{option: its help text} from `specfact <command> --help`, with
    lines wide enough that argparse wraps no help text."""
    monkeypatch.setenv("COLUMNS", "10000")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out.split("\noptions:\n")[1]
    entries = {}
    for block in re.split(r"\n(?=  -)", text.rstrip("\n")):
        head = block.strip().split("  ")[0]
        entries[re.findall(r"--[a-z]+", head)[-1]] = " ".join(block.split())
    return entries


@pytest.mark.parametrize("command", list(OPTIONS))
def test_help_lists_each_option_with_its_default_and_range(
        capsys, monkeypatch, command):
    entries = _help_entries(capsys, monkeypatch, command)
    assert set(entries) == {"--help"} | {f"--{n}" for n in OPTIONS[command]}
    for name, opt in OPTIONS[command].items():
        if isinstance(opt.accepts, Range):
            accepts = opt.accepts.text(opt.type)
        elif isinstance(opt.accepts, list):
            accepts = ", ".join(opt.accepts)
        else:
            accepts = opt.accepts
        required = opt.default is None and isinstance(opt.accepts, list)
        default = ("required" if required else "default none"
                   if opt.default is None else f"default {opt.default}")
        entry = entries[f"--{name}"]
        assert f"; {default}; " in entry, entry
        assert entry.endswith(f"; {accepts})"), entry


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "10000")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(OPTIONS) + "}" in capsys.readouterr().out


def test_readme_option_table_matches_the_table():
    """README's option table has one row per option, in table order, each
    saying who reads it, its default and its range as the help does."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| `--(\w+)` +\|(.*)\|$", readme,
                      flags=re.M)
    got = [(command, name, [c.strip().replace("`", "")
                            for c in cells.split("|")])
           for command, name, cells in rows]
    assert got == [(command, name, list(_described(command, name)))
                   for command, name in _TABLE]
