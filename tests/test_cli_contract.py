"""The CLI input contract, on mutated golden inputs.

Each example takes one golden case (``tests/golden/cases.json``), mutates
its arrangement file or its basis file (drops, duplicates or swaps tokens
and lines, flips signs, puts in large numbers or junk tokens) and runs the
case's command on the mutant in process.  Whatever the mutant, ``main``
returns 0, 1 or 3 and no exception escapes.  A file that does not parse is
reported as the parser's error; that error names a line of the file, except
for the whole-file errors that the README lists: an arrangement file with
no ``dim`` declaration, and a basis file with the wrong number of
derivations.

Mutants whose multiplicities exceed MAX_MULT are left out: rank-2 exponents
at large total multiplicity are still slow (ROADMAP item 3).
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from totalfree import ParseError, parse_arrangement
from totalfree.cli import main, parse_basis_file
from test_golden import GOLDEN, _argv

CASES = json.loads((GOLDEN / "cases.json").read_text())
BASIS_CASES = [case for case in CASES if "--basis" in case["argv"]]
README = Path(__file__).parent.parent / "README.md"
MAX_MULT = 60
WHOLE_FILE_ERRORS = ("missing dim declaration", "basis file has N derivations, expected L")
JUNK = ["x", "x9", "x1*x2", "x2^3", "-", "/", "1/0", "0/0", "3/", "1.5", "1e3", "+", "*", "^",
        ":", "#", "dim", "mult", "hyperplane", "derivation", "component", "²", "١"]


@st.composite
def mutants(draw, text: str) -> str:
    """``text`` after one to three line or token mutations."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        op = draw(st.sampled_from(["drop-line", "dup-line", "swap-lines", "drop-token",
                                   "dup-token", "swap-tokens", "flip-sign", "number",
                                   "junk"]))
        if op in ("drop-line", "dup-line", "swap-lines"):
            if not lines:
                continue
            i, k = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if op == "drop-line":
                del lines[i]
            elif op == "dup-line":
                lines.insert(i, list(lines[i]))
            else:
                lines[i], lines[k] = lines[k], lines[i]
        elif tokens:
            i, j = draw(st.sampled_from(tokens))
            line = lines[i]
            if op == "drop-token":
                del line[j]
            elif op == "dup-token":
                line.insert(j, line[j])
            elif op == "swap-tokens":
                k, l = draw(st.sampled_from(tokens))
                line[j], lines[k][l] = lines[k][l], line[j]
            elif op == "flip-sign":
                line[j] = line[j][1:] if line[j].startswith("-") else "-" + line[j]
            elif op == "number":
                line[j] = str(draw(st.integers(-10**24, 10**24)))
            else:
                line[j] = draw(st.sampled_from(JUNK))
    return "".join(" ".join(line) + "\n" for line in lines)


def _parse_error(parse, *args) -> ParseError | None:
    try:
        parse(*args)
    except ParseError as exc:
        return exc
    return None


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(st.data())
def test_mutated_golden_inputs_keep_the_cli_contract(data):
    mutate_basis = data.draw(st.booleans(), label="mutate basis")
    case = data.draw(st.sampled_from(BASIS_CASES if mutate_basis else CASES), label="case")
    arr_path = GOLDEN / case["input"]
    argv = _argv(case["argv"], arr_path)
    target = next(Path(a) for a in argv if a.endswith(".basis")) if mutate_basis else arr_path
    text = data.draw(mutants(target.read_text()), label="mutant")
    arr_text = arr_path.read_text() if mutate_basis else text
    if _parse_error(parse_arrangement, arr_text) is None:
        assume(max(parse_arrangement(arr_text)[1], default=0) <= MAX_MULT)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / target.name
        path.write_text(text, encoding="utf-8")
        code, err = _run([str(path) if a == str(target) else a for a in argv])
    assert code in (0, 1, 3)
    if mutate_basis:
        dim = parse_arrangement(arr_text)[0].dim
        exc = _parse_error(parse_basis_file, text, dim)
        if exc is None:
            count = len(parse_basis_file(text, dim))
            if count != dim:
                assert err == f"error: basis file has {count} derivations, expected {dim}\n"
    else:
        exc = _parse_error(parse_arrangement, text)
    if exc is not None:
        assert code == 1 and err == f"error: {exc}\n"
        if exc.line is None:
            assert not mutate_basis and str(exc) == "missing dim declaration"
        else:
            assert 1 <= exc.line <= len(text.splitlines())


def test_readme_lists_the_whole_file_errors():
    text = README.read_text(encoding="utf-8")
    assert all(f"`{message}`" in text for message in WHOLE_FILE_ERRORS)
