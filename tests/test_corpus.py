"""The verdict corpus (tests/corpus) rerun against its record."""

import importlib.util
import json
from pathlib import Path

_DIR = Path(__file__).parent / "corpus"
_SPEC = importlib.util.spec_from_file_location("corpus_regen",
                                               _DIR / "regen.py")
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)


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
