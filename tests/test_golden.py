"""Byte-for-byte golden outputs of the JSON CLI on a fixed corpus.

``tests/golden/cases.json`` lists every case: its id, its input file, the
CLI arguments that precede ``-i <input> --json`` (``{mult}`` stands for the
multiplicity 1,2,3,1,2,3,... of the input's length, ``{golden}`` for this
directory) and the exit code.  The expected stdout of case ``id`` is
``tests/golden/<id>.out``.  The files pin outputs that must not change when
the implementation does; regenerate them only when a report's meaning
changes on purpose, and record why::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from totalfree import (
    arrangement,
    boolean_arrangement,
    braid_arrangement,
    format_arrangement,
    generic_arrangement,
    parse_arrangement,
    product,
)
from totalfree.cli import main

GOLDEN = Path(__file__).parent / "golden"

THREE_LINES = arrangement(2, [(1, 0), (0, 1), (1, -1)])
# Unimodular, so the coordinate-changed braid keeps integer normals.
_CHANGE = [(1, 2, 0, -1, 3), (0, 1, 1, 2, -1), (0, 0, 1, -2, 1),
           (0, 0, 0, 1, 4), (0, 0, 0, 0, 1)]

# Non-essential: a generic rank-3 circuit with one trivial direction.
_NON_ESSENTIAL = """\
dim 4
hyperplane 1 0 0 0
hyperplane 0 1 0 0
hyperplane 0 0 1 0
hyperplane 1 1 1 0
"""

_RATIONAL = """\
# rational coefficients are normalized to primitive integer normals
dim 3
hyperplane 1/2 -1/3 0
hyperplane 0 2/3 -1/5
hyperplane 1 0 -7/4
hyperplane 1/3 1/3 1/3 mult 2
"""

# saito-verify bases: input name -> basis name -> derivations, each given by
# its components.  boolean2 is the axes.  Every basis also runs under
# --mult, where "accepted-under-mult" is a basis and "accepted" is not.
SAITO_BASES = {
    "boolean2": {
        "accepted": [["x1", "0"], ["0", "x2"]],
        "zero-det": [["x1", "0"], ["x1", "0"]],
        "non-member": [["x2", "0"], ["0", "x1"]],
        "too-high": [["x1^2", "0"], ["0", "x2^2"]],
        "accepted-under-mult": [["x1", "0"], ["0", "x2^2"]],
    },
    "three-lines": {
        "accepted": [["x1", "x2"], ["x1^2", "x2^2"]],
        "zero-det": [["x1", "x2"], ["x1", "x2"]],
        "non-member": [["x1", "0"], ["0", "x2"]],
        "too-high": [["x1^2", "x1*x2"], ["x1^2", "x2^2"]],
        "accepted-under-mult": [["x1^3 - 3*x1^2*x2 + 3*x1*x2^2", "x2^3"],
                                ["x1^3 - 3*x1^2*x2 + 2*x1*x2^2", "-x1*x2^2 + x2^3"]],
    },
}

COMMANDS = {
    "analyze": ["analyze"],
    "totally-free": ["totally-free"],
    "exponents": ["exponents"],
    "exponents-mult": ["exponents", "--mult", "{mult}"],
    "lmp2": ["lmp2"],
    "lmp2-mult": ["lmp2", "--mult", "{mult}"],
    "gmp2max": ["gmp2max"],
    "witness": ["witness"],
}


def _changed(arr, change):
    rows = [[sum(h.normal[k] * change[k][j] for k in range(arr.dim))
             for j in range(arr.dim)] for h in arr.hyperplanes]
    return arrangement(arr.dim, rows)


def corpus() -> dict[str, str]:
    """Input name -> arrangement text."""
    texts = {f"boolean{d}": format_arrangement(boolean_arrangement(d)) for d in range(1, 5)}
    texts.update({f"braid{d}": format_arrangement(braid_arrangement(d)) for d in range(3, 6)})
    texts["braid5-coords"] = format_arrangement(_changed(braid_arrangement(5), _CHANGE))
    for seed in (1, 2):
        texts[f"generic-5-3-seed{seed}"] = format_arrangement(generic_arrangement(5, 3, seed))
    texts["product-rank2"] = format_arrangement(
        product(THREE_LINES, generic_arrangement(4, 2, seed=3)))
    texts["braid4-x-three-lines"] = format_arrangement(
        product(braid_arrangement(4), THREE_LINES))
    texts["non-essential"] = _NON_ESSENTIAL
    texts["rational"] = _RATIONAL
    return texts


def _basis_text(thetas: list[list[str]]) -> str:
    return "".join("derivation\n" + "".join(f"component {i}: {c}\n"
                                            for i, c in enumerate(comps, 1) if c != "0")
                   for comps in thetas)


def saito_cases() -> list[tuple[str, str, list[str]]]:
    """(case id, input name, argv template) of every saito-verify case."""
    cases = []
    for name, bases in SAITO_BASES.items():
        for basis in bases:
            argv = ["saito-verify", "--basis", f"{{golden}}/{name}.{basis}.basis"]
            cases.append((f"{name}.saito-{basis}", name, argv))
            cases.append((f"{name}.saito-{basis}-mult", name, argv + ["--mult", "{mult}"]))
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _argv(template: list[str], path: Path) -> list[str]:
    n = parse_arrangement(path.read_text())[0].n
    mult = ",".join(str(1 + i % 3) for i in range(n))
    return ([a.replace("{mult}", mult).replace("{golden}", str(GOLDEN)) for a in template]
            + ["-i", str(path), "--json"])


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    texts = corpus()
    texts["three-lines"] = format_arrangement(THREE_LINES)
    for name, text in texts.items():
        (GOLDEN / f"{name}.arr").write_text(text)
    for name, bases in SAITO_BASES.items():
        for basis, thetas in bases.items():
            (GOLDEN / f"{name}.{basis}.basis").write_text(_basis_text(thetas))
    runs = [(f"{name}.{variant}", name, template)
            for name in corpus() for variant, template in COMMANDS.items()]
    cases = []
    for case_id, name, template in runs + saito_cases():
        path = GOLDEN / f"{name}.arr"
        code, out = _run(_argv(template, path))
        (GOLDEN / f"{case_id}.out").write_text(out)
        cases.append({"id": case_id, "input": path.name, "argv": template,
                      "exit": code})
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")


def test_cli_outputs_match_golden():
    cases = json.loads((GOLDEN / "cases.json").read_text())
    assert len(cases) == len(corpus()) * len(COMMANDS) + len(saito_cases())
    mismatched = []
    for case in cases:
        code, out = _run(_argv(case["argv"], GOLDEN / case["input"]))
        if code != case["exit"] or out != (GOLDEN / f"{case['id']}.out").read_text():
            mismatched.append(case["id"])
    assert mismatched == []


if __name__ == "__main__":
    regenerate()
