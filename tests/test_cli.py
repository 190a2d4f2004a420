import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import totalfree
import totalfree.certificates
import totalfree.families
import totalfree.rank2
from totalfree import __version__, parse_arrangement, braid_arrangement, format_arrangement
from totalfree.cli import _Flats, _json, build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def braid_file(tmp_path, dim=4, mult=None):
    arr = braid_arrangement(dim)
    return write(tmp_path, f"braid{dim}.arr", format_arrangement(arr, mult))


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


# -- generate ----------------------------------------------------------------


def test_generate_braid_roundtrip(capsys):
    code, out, _ = run(capsys, "generate", "braid", "4")
    assert code == 0
    arr, m = parse_arrangement(out)
    assert arr == braid_arrangement(4)
    assert m == (1,) * 6


def test_generate_boolean(capsys):
    code, out, _ = run(capsys, "generate", "boolean", "3")
    assert code == 0
    arr, _ = parse_arrangement(out)
    assert arr.dim == 3 and arr.normals() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("family", ["boolean", "braid"])
def test_generate_dimension_zero(capsys, family):
    code, out, _ = run(capsys, "generate", family, "0")
    assert code == 0 and out == "dim 0\n"


def test_generate_product(capsys):
    code, out, _ = run(capsys, "generate", "product", "(braid 3)", "(boolean 1)")
    assert code == 0
    arr, _ = parse_arrangement(out)
    assert arr.dim == 4 and arr.n == 4


def test_generate_generic_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", "generic", "5", "3", "--seed", "7")
    code2, out2, _ = run(capsys, "generate", "generic", "5", "3", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    arr, _ = parse_arrangement(out1)
    assert arr.n == 5 and arr.dim == 3


def test_generate_bad_family(capsys):
    code, _, err = run(capsys, "generate", "weird", "3")
    assert code == 1 and "unknown family" in err


@pytest.mark.parametrize("spec, size", [
    ("braid 3000", "13495500000 coefficients"),
    ("boolean 300000", "90000000000 coefficients"),
    ("generic 2000 10000", "20000000 coefficients"),
    ("generic 3200 3", "10236800 integers"),
    ("product (generic 1 100000) (boolean 200)", "20140200 coefficients"),
], ids=["braid", "boolean", "generic", "generic-plane-keys", "product"])
def test_generate_refuses_large_families(capsys, spec, size):
    # Refused before anything is built: these would take gigabytes.
    code, out, err = run(capsys, "generate", *spec.split())
    assert code == 1 and out == ""
    assert err.startswith("error: ") and size in err and "10000000" in err


def test_generate_generic_gives_up_after_consecutive_rejections(capsys, monkeypatch):
    # In dimension 3 the entries in [-9, 9] allow about 84 generic normals.
    monkeypatch.setattr(totalfree.families, "MAX_REJECTIONS", 500)
    code, out, err = run(capsys, "generate", "generic", "90", "3")
    assert code == 1 and out == ""
    assert "500 draws in a row were rejected" in err


# -- totally-free / analyze --------------------------------------------------


def test_strict_and_json(tmp_path, capsys):
    path = braid_file(tmp_path)
    code, out, _ = run(capsys, "totally-free", "-i", path, "--strict", "--json")
    assert code == 3
    report = json.loads(out)
    assert no_floats(report)
    assert report["command"] == "totally-free"
    assert report["input_summary"] == {"dim": 4, "n": 6, "rank": 3}
    assert report["result"]["totally_free"] is False
    assert report["result"]["witness"]["k0"] == 9
    cert = report["result"]["witness"]["certificate"]
    assert cert["lmp2"] == 523 and cert["gmp2_max"] == 481
    assert cert["theorem"] == "LMP2>GMP2max"
    assert isinstance(cert["gmp2_real_bound"], str) and "/" in cert["gmp2_real_bound"]


def test_totally_free_product_file(tmp_path, capsys):
    text = "dim 3\nhyperplane 1 0 0\nhyperplane 0 1 0\nhyperplane 1 -1 0\nhyperplane 0 0 1\n"
    path = write(tmp_path, "prod.arr", text)
    code, out, _ = run(capsys, "totally-free", "-i", path, "--strict", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["totally_free"] is True
    assert [f["rank"] for f in report["result"]["factors"]] == [2, 1]


def test_totally_free_dim_only_file(tmp_path, capsys):
    path = write(tmp_path, "empty.arr", "dim 3\n")
    code, out, _ = run(capsys, "totally-free", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["totally_free"] is True
    assert report["result"]["factors"] == []
    assert report["result"]["trivial_directions"] == 3


def test_analyze_braid(tmp_path, capsys):
    path = braid_file(tmp_path)
    code, out, _ = run(capsys, "analyze", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert no_floats(report)
    flats = report["result"]["rank2_flats"]
    assert sorted((f["size"] for f in flats), reverse=True) == [3, 3, 3, 3, 2, 2, 2]
    assert report["result"]["verdict"]["totally_free"] is False


def test_analyze_human_output(tmp_path, capsys):
    path = braid_file(tmp_path)
    code, out, _ = run(capsys, "analyze", "-i", path)
    assert code == 0
    assert "NotTotallyFree" in out and "k0: 9" in out


def test_duplicate_hyperplane_exit1(tmp_path, capsys):
    path = write(tmp_path, "dup.arr", "dim 2\nhyperplane 1 0\nhyperplane 2 0\n")
    code, _, err = run(capsys, "analyze", "-i", path)
    assert code == 1
    assert "line 3" in err and "line 2" in err


def test_parse_error_exit1(tmp_path, capsys):
    path = write(tmp_path, "bad.arr", "dim 2\nhyperplane 1\n")
    code, _, err = run(capsys, "totally-free", "-i", path)
    assert code == 1 and "line 2" in err


_AXES = "dim 2\nhyperplane 1 0\nhyperplane 0 1\n"


@pytest.mark.parametrize("argv, arr_text, basis_text, fragment", [
    (["analyze"], "dim \u00b2\n", None, "line 1"),
    (["totally-free"], "dim 2\nhyperplane \u0661 0\n", None, "line 2"),
    (["exponents", "--mult", "\u0661,2"], _AXES, None, "--mult entries must be integers"),
    (["generate", "braid", "\u0664"], None, None, "expected an integer"),
    (["generate", "generic", "4", "3", "\u0664"], None, None, "trailing tokens"),
    (["saito-verify"], _AXES, "derivation\ncomponent \u0661: x1\n", "line 2"),
    (["saito-verify"], _AXES, "derivation\ncomponent 1: x\u0661\n", "line 2"),
], ids=["arrangement-dim", "arrangement-coefficient", "mult-option", "generate",
        "generate-seed", "basis-component", "basis-polynomial"])
def test_non_ascii_digits_exit1(tmp_path, capsys, argv, arr_text, basis_text, fragment):
    if arr_text is not None:
        argv = argv + ["-i", write(tmp_path, "in.arr", arr_text)]
    if basis_text is not None:
        argv = argv + ["--basis", write(tmp_path, "basis.txt", basis_text)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and fragment in err


def test_missing_file_exit1(capsys):
    code, _, err = run(capsys, "totally-free", "-i", "/nonexistent/file.arr")
    assert code == 1 and "cannot read" in err


# -- exponents ---------------------------------------------------------------


def test_exponents_three_lines_double(tmp_path, capsys):
    text = "dim 2\nhyperplane 1 0 mult 2\nhyperplane 0 1 mult 2\nhyperplane 1 -1 mult 2\n"
    path = write(tmp_path, "three.arr", text)
    code, out, _ = run(capsys, "exponents", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["exponents"] == [3, 3]
    factor = report["result"]["factors"][0]
    assert factor["rank"] == 2
    factorization = factor["saito_factorization"]
    for piece in ("(x1)^2", "(x2)^2", "(x1 - x2)^2"):
        assert piece in factorization
    assert "saito_det" in factor


def test_exponents_mult_override(tmp_path, capsys):
    text = "dim 2\nhyperplane 1 0\nhyperplane 0 1\n"
    path = write(tmp_path, "axes.arr", text)
    code, out, _ = run(capsys, "exponents", "-i", path, "--mult", "3,5", "--json")
    assert code == 0
    assert json.loads(out)["result"]["exponents"] == [3, 5]


@pytest.mark.parametrize("name", ["three-lines", "heavy-lines"])
def test_exponents_evaluates_saito_once_per_rank2_factor(capsys, monkeypatch, name):
    # Each input is one rank-2 factor; its basis comes with the record it passed.
    calls = []
    poly_det = totalfree.rank2.poly_det
    monkeypatch.setattr(totalfree.rank2, "poly_det",
                        lambda rows: calls.append(1) or poly_det(rows))
    code, out, _ = run(capsys, "exponents", "-i", str(GOLDEN / f"{name}.arr"), "--json")
    assert code == 0 and "saito_det" in json.loads(out)["result"]["factors"][0]
    assert len(calls) == 1


@pytest.mark.parametrize("command, name, expected", [
    ("analyze", "braid5", 3), ("totally-free", "braid5", 3), ("exponents", "braid5", 3),
    ("lmp2", "braid5", 1), ("gmp2max", "braid5", 1), ("witness", "braid5", 3),
    ("analyze", "product-rank2", 3),
])
def test_report_takes_the_rank_the_command_holds(capsys, monkeypatch, command, name, expected):
    # The rank is a memo entry of the input: the decomposition's elimination
    # fills it (then each factor's essentialization and, on braid5, one level
    # of the circuit induction eliminate), and input_summary, the circuit's
    # postcondition and the certificate read it; lmp2 and gmp2max eliminate
    # once for it.  Before, these commands made 4/4/4/1/1/5/3 eliminations.
    eliminations = _count_bindings(monkeypatch, "totalfree.linalg", "_eliminate")
    code, out, _ = run(capsys, command, "-i", str(GOLDEN / f"{name}.arr"), "--json")
    assert code == 0 and "rank" in json.loads(out)["input_summary"]
    assert len(eliminations) == expected


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    function = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or function(*args))
    return calls


def test_lmp2_builds_its_flats_once(capsys, monkeypatch):
    # The per-flat table and the certificate come from one breakdown.
    flats = _count_calls(monkeypatch, totalfree.certificates, "rank2_flats")
    code, out, _ = run(capsys, "lmp2", "-i", str(GOLDEN / "braid5.arr"), "--json")
    assert code == 0 and json.loads(out)["result"]["lmp2"] == 35
    assert len(flats) == 1


def test_witness_checks_the_circuit_precondition_once(capsys, monkeypatch):
    # The decomposition shows the factor connected and stores its fundamental
    # circuits, hence its rank; both circuits read them, the induction checks
    # them again at its first level (rank 4) and eliminates once more at
    # rank 3, and both circuits still check their own output.
    levels = _count_calls(monkeypatch, totalfree.certificates, "_fundamental_circuits")
    postconditions = _count_calls(monkeypatch, totalfree.certificates, "is_generic_circuit")
    code, out, _ = run(capsys, "witness", "-i", str(GOLDEN / "braid5.arr"), "--json")
    assert code == 0 and json.loads(out)["result"]["circuit_brute_force"] == [0, 1, 2, 6, 8]
    assert (len(levels), len(postconditions)) == (1, 2)


def _count_bindings(monkeypatch, module_name, name) -> list:
    """Count calls of a package function through every module that binds it."""
    calls = []
    function = getattr(importlib.import_module(module_name), name)

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.startswith("totalfree.")]:
        if getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_reuses_its_flats_and_eliminates_once_per_level(tmp_path, capsys, monkeypatch):
    # Braid dim 8 (rank 7): the decomposition's components and
    # essentialization and one elimination per level of the circuit induction
    # below its first (ranks 6 down to 3); the circuit's rank postcondition
    # reads the memoized rank, and the factor's LMP2 the input's rank-2 flats.
    # The induction before one elimination per level made 32 eliminations
    # and 2 flat passes here; before the memoized rank, 7 eliminations.
    eliminations = _count_bindings(monkeypatch, "totalfree.linalg", "_eliminate")
    flats = _count_bindings(monkeypatch, "totalfree.arrangement", "_rank2_flats")
    code, out, _ = run(capsys, "analyze", "-i", braid_file(tmp_path, 8), "--json")
    result = json.loads(out)["result"]
    assert code == 0 and result["verdict"]["witness"]["k0"] == 242
    assert len(result["rank2_flats"]) == 266
    assert len(flats) == 1 and len(eliminations) == 6


def test_exponents_refuses_too_many_trivial_directions(tmp_path, capsys):
    # One exponent 0 per trivial direction would be 10**11 list entries.
    path = write(tmp_path, "huge.arr", "dim 99999999999\n")
    code, out, err = run(capsys, "exponents", "-i", path)
    assert code == 1 and out == ""
    assert err.startswith("error: 99999999999 trivial directions")
    code, out, _ = run(capsys, "totally-free", "-i", path)
    assert code == 0 and "trivial directions: 99999999999" in out


def test_exponents_braid_reports_certificate(tmp_path, capsys):
    path = braid_file(tmp_path)
    code, out, _ = run(capsys, "exponents", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["totally_free"] is False
    assert report["result"]["certificate"]["k0"] == 9


# -- lmp2 / gmp2max ----------------------------------------------------------


def test_lmp2_braid_simple(tmp_path, capsys):
    path = braid_file(tmp_path)
    code, out, _ = run(capsys, "lmp2", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["lmp2"] == 11
    assert report["result"]["gmp2_max"] == 12
    assert report["result"]["outcome"] == "inconclusive"


def test_lmp2_certificate_emission(tmp_path, capsys):
    mult = tuple(9 if i in (0, 1, 4, 5) else 1 for i in range(6))
    path = braid_file(tmp_path, 4, mult)
    code, out, _ = run(capsys, "lmp2", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["lmp2"] >= 486
    assert report["result"]["outcome"] == "certificate"
    assert report["result"]["certificate"]["gmp2_max"] == 481


def test_gmp2max_direct(capsys):
    code, out, _ = run(capsys, "gmp2max", "--rank", "3", "--total", "38", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["gmp2_max"] == 481
    assert report["result"]["gmp2_real_bound"] == "1444/3"  # 3 * (38/3)^2 reduced


def test_gmp2max_needs_input(capsys):
    code, _, err = run(capsys, "gmp2max")
    assert code == 1 and "needs either" in err


@pytest.mark.parametrize("argv", [
    ["gmp2max", "--rank", "x", "--total", "3"],
    ["exponents", "-i", str(GOLDEN / "three-lines.arr"), "--mult", "-1,2"],
    ["analyze"],
    ["no-such-command"],
])
def test_usage_errors_exit1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and "usage:" in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
def test_help_and_version_exit0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


def test_one_parser_keeps_no_option_between_calls(tmp_path, capsys):
    path = braid_file(tmp_path)
    assert run(capsys, "totally-free", "-i", path, "--strict")[0] == 3
    assert run(capsys, "totally-free", "-i", path)[0] == 0
    assert run(capsys, "--version")[:2] == (0, __version__ + "\n")
    code, out, _ = run(capsys, "analyze", "-i", path)
    assert code == 0 and "NotTotallyFree" in out
    assert build_parser() is build_parser()


# -- witness -----------------------------------------------------------------


def test_witness_braid_s4(tmp_path, capsys):
    path = braid_file(tmp_path)
    code, out, _ = run(capsys, "witness", "-i", path, "--json")
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert len(result["circuit_proof_following"]) == 4
    assert result["circuit_brute_force"] == [0, 1, 4, 5]
    assert result["circuit_check"]["gap"] == "2/3"
    assert result["k0"] == 9


def test_witness_braid_s5(tmp_path, capsys):
    path = braid_file(tmp_path, 5)
    code, out, _ = run(capsys, "witness", "-i", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["circuit_proof_following"]) == 5
    assert result["circuit_check"]["gap"] == "5/8"
    assert result["k0"] == 31


def test_witness_boolean_error(tmp_path, capsys):
    path = write(tmp_path, "bool.arr", "dim 3\nhyperplane 1 0 0\nhyperplane 0 1 0\nhyperplane 0 0 1\n")
    code, _, err = run(capsys, "witness", "-i", path)
    assert code == 1 and "no irreducible factor of rank >= 3" in err


# -- saito-verify ------------------------------------------------------------


AXES_TEXT = "dim 2\nhyperplane 1 0\nhyperplane 0 1\n"
GOOD_BASIS = "derivation\ncomponent 1: x1\nderivation\ncomponent 2: x2\n"
BAD_BASIS = "derivation\ncomponent 1: x1\nderivation\ncomponent 1: x1\n"


def test_saito_verify_accepts(tmp_path, capsys):
    arr = write(tmp_path, "axes.arr", AXES_TEXT)
    basis = write(tmp_path, "basis.txt", GOOD_BASIS)
    code, out, _ = run(capsys, "saito-verify", "-i", arr, "--basis", basis, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verified"] is True


def test_saito_verify_rejects_zero_det(tmp_path, capsys):
    arr = write(tmp_path, "axes.arr", AXES_TEXT)
    basis = write(tmp_path, "basis.txt", BAD_BASIS)
    code, out, _ = run(capsys, "saito-verify", "-i", arr, "--basis", basis)
    assert code == 0
    assert "REJECTED" in out


def test_saito_verify_three_lines(tmp_path, capsys):
    arr = write(tmp_path, "three.arr",
                "dim 2\nhyperplane 1 0\nhyperplane 0 1\nhyperplane 1 -1\n")
    basis = write(tmp_path, "basis.txt",
                  "derivation\ncomponent 1: x1\ncomponent 2: x2\n"
                  "derivation\ncomponent 1: x1^2\ncomponent 2: x2^2\n")
    code, out, _ = run(capsys, "saito-verify", "-i", arr, "--basis", basis, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verified"] is True
    det = report["result"]["determinant"]
    assert det in ("x1*x2^2 - x1^2*x2", "-x1^2*x2 + x1*x2^2")


def test_saito_verify_bad_basis_file(tmp_path, capsys):
    arr = write(tmp_path, "axes.arr", AXES_TEXT)
    basis = write(tmp_path, "basis.txt", "component 1: x1\n")
    code, _, err = run(capsys, "saito-verify", "-i", arr, "--basis", basis)
    assert code == 1 and "derivation" in err


def test_saito_verify_mixed_degree_block_names_its_line(tmp_path, capsys):
    arr = write(tmp_path, "axes.arr", AXES_TEXT)
    basis = write(tmp_path, "basis.txt", "derivation\ncomponent 1: x1\n\n"
                                         "derivation\ncomponent 1: x1\ncomponent 2: x2^2\n")
    code, out, err = run(capsys, "saito-verify", "-i", arr, "--basis", basis)
    assert code == 1 and out == ""
    assert err == "error: line 4: bad derivation block: components of mixed degrees [1, 2]\n"


# -- the JSON writer -----------------------------------------------------------

_STRINGS = (st.text(st.characters(exclude_categories=()), max_size=8)  # lone surrogates too
            | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "\ud800", "\udfff",
                               "\u00e9", "\u2028", "\U0001f600"]))
_BIG = st.integers(2**64, 2**300)
_LEAVES = (st.none() | st.booleans() | st.integers() | _BIG | _BIG.map(lambda n: -n)
           | _STRINGS)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300)
@given(st.dictionaries(_STRINGS, _VALUES, max_size=5) | _VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 10**4), min_size=2, max_size=6).map(tuple), max_size=6),
       st.lists(st.none() | _STRINGS, max_size=4))
@example([], [])
@example([], ["rank2_flats", "result"])
def test_flats_section_matches_json_dumps_at_every_depth(members, keys):
    # The analyze report writes its flats from the member tuples, one template
    # per flat; under any keys and lists (None: a list) it gives json.dumps's
    # bytes for the {"members", "size"} dicts, [] included.
    value, plain = _Flats(members), [{"members": list(m), "size": len(m)} for m in members]
    for key in keys:
        value, plain = ([value], [plain]) if key is None else ({key: value}, {key: plain})
    assert _json(value) == json.dumps(plain, indent=2)


@pytest.mark.parametrize("value", [
    1.5, {"a": [1, 0.0]}, Fraction(1, 2), {"k": {1, 2}}, {1: "one"}, [{"ok": {None: 1}}],
    {"rank2_flats": _Flats([(0, 1.0)])},
])
def test_json_writer_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        _json(value)
