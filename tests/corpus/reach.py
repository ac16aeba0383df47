"""The statements of `src/specfact` functions that neither the verdict
corpus nor README's Python block reaches, counted per function.

    python tests/corpus/reach.py          trace both, print the reached
                                          share and rewrite unreached.json
    python tests/corpus/reach.py --check  trace both, print each function
                                          whose count grew past its record,
                                          and exit 1 on any (0 otherwise)

unreached.json maps each function with unreached statements, by module
and qualified name ("bounds.PairMetrics.lower_bound"), to their number.
A statement is reached when one of its lines, or of a compound
statement's header, runs under sys.settrace while record.json's command
lines and the first ```python block of README.md run in process.
Docstrings and the statements of nested functions (counted on their own)
are not statements of the function around them.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import regen  # noqa: E402  (puts the checkout's src/ first on the path)
from specfact import cli  # noqa: E402

SRC = ROOT / "src" / "specfact"
README = ROOT / "README.md"
RECORD = HERE / "unreached.json"


def run_readme_block() -> str:
    """Run the first ```python block of README.md; what it prints."""
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(text[start:text.index("```", start)], str(README),
                     "exec"), {})
    return out.getvalue()


def _lines(stmt: ast.stmt) -> range:
    """The lines whose running reaches stmt: all of a simple statement,
    the header of a compound one."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list):
        return range(stmt.lineno, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _is_docstring(node: ast.AST, stmt: ast.stmt) -> bool:
    """Whether stmt is the docstring of node, a function."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is node.body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(path: Path):
    """(function, lines) for each statement inside a function of path,
    function as module.Qualified.name."""

    def visit(node, names, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                yield from visit(child, names, in_function)
            if not isinstance(child, ast.stmt):
                continue
            if in_function and not _is_docstring(node, child):
                yield ".".join([path.stem, *names]), _lines(child)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, [*names, child.name],
                                 not isinstance(child, ast.ClassDef))
            else:
                yield from visit(child, names, in_function)

    yield from visit(ast.parse(path.read_text()), [], False)


def reached_lines() -> set[tuple[Path, int]]:
    """(file, line) of every line of src/ that runs while the corpus
    record and README's block run."""
    files = {path.resolve() for path in SRC.glob("*.py")}
    traced = {}  # co_filename: whether it is a file of src/
    hit = set()

    def local(frame, event, _arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = Path(name).resolve() in files
        return local if traced[name] else None

    record = json.loads(regen.RECORD.read_text())
    cli._build_parser.cache_clear()  # an earlier main's parser hides its lines
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        regen.run_all([entry["argv"] for entry in record])
        run_readme_block()
    finally:
        sys.settrace(previous)
    return {(Path(name).resolve(), line) for name, line in hit}


def unreached() -> tuple[dict[str, int], int]:
    """The unreached count of each function that has one, and the number
    of statements inside functions."""
    hit = reached_lines()
    counts, total = {}, 0
    for path in sorted(SRC.glob("*.py")):
        for function, lines in statements(path):
            total += 1
            if not any((path.resolve(), line) in hit for line in lines):
                counts[function] = counts.get(function, 0) + 1
    return counts, total


def grown(record: dict[str, int], counts: dict[str, int]) -> list[str]:
    """One line per function with more unreached statements than recorded
    (a function not in the record has none)."""
    return [f"{name}: {count} unreached statements, recorded "
            f"{record.get(name, 0)}"
            for name, count in sorted(counts.items())
            if count > record.get(name, 0)]


def _share(counts: dict[str, int], total: int) -> str:
    missed = sum(counts.values())
    return (f"{total - missed} of {total} statements in src/ functions "
            f"reached ({100.0 * (total - missed) / total:.1f}%)")


if __name__ == "__main__":
    counts, total = unreached()
    if sys.argv[1:] == ["--check"]:
        problems = grown(json.loads(RECORD.read_text()), counts)
        print("\n".join(problems) or _share(counts, total))
        sys.exit(1 if problems else 0)
    elif sys.argv[1:]:
        sys.exit(__doc__)
    RECORD.write_text(json.dumps(dict(sorted(counts.items())), indent=0)
                      + "\n")
    print(_share(counts, total))
