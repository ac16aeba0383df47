"""The verdict corpus (tests/corpus) rerun against its record, README's
Python block, and the statements of src/ that the two reach."""

import importlib.util
import json
from pathlib import Path

_DIR = Path(__file__).parent / "corpus"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"corpus_{name}",
                                                  _DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load("regen")
reach = _load("reach")


def test_corpus_matches_its_record():
    """Exit codes, stderr lines and pass flags as recorded, numbers within
    1e-12 (see regen.py); after a deliberate change, rerun regen.py."""
    record = json.loads(regen.RECORD.read_text())
    problems = regen.check(record)
    assert not problems, "\n".join(problems[:20])


def test_corpus_stays_small():
    """The record and its script take at most 300 KB."""
    size = sum(path.stat().st_size for path in _DIR.iterdir()
               if path.is_file())
    assert size <= 300 * 1024, size


def test_readme_python_block_runs():
    """README's "Python API in one minute" block runs as printed, and every
    verdict it prints passes."""
    lines = reach.run_readme_block().splitlines()
    assert len(lines) == 8, lines
    assert lines[:3] == ["True"] * 3, lines
    assert lines[3].endswith(" True"), lines
    assert "'pass': True" in lines[5], lines
    assert lines[6:] == ["True", "[True, True]"], lines


def test_no_function_loses_reach():
    """No src/ function has more statements that neither the corpus nor
    README's block reaches than unreached.json records; after a change
    that reaches more, rerun reach.py to lower the record."""
    counts, _ = reach.unreached()
    problems = reach.grown(json.loads(reach.RECORD.read_text()), counts)
    assert not problems, "\n".join(problems)
