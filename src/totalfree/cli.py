"""Command-line interface.

Every command reads the arrangement text format, runs the exact analyses,
and prints either aligned human-readable text or (with --json) a Report:
a JSON object with command, input_summary, result and version, in which
every number is an exact integer or a "p/q" rational string, never a float.
``_json`` writes it byte-identical to ``json.dumps(report, indent=2)``, whose
indented encoder is pure Python, and raises TypeError on a float.

Exit codes: 0 success (--help and --version included), 1 input error
(usage errors included), 3 NotTotallyFree under --strict.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import __version__
from .arrangement import (
    Arrangement,
    Multiplicity,
    check_multiplicity,
    derivation,
    format_arrangement,
    parse_arrangement,
    product,
    rank2_flats,
)
from .certificates import (
    NonFreenessCertificate,
    Verdict,
    circuit_is_nonfree_check,
    _factor_family,
    _generic_circuit,
    _lmp2_certificate,
    _verdict,
    decide_totally_free,
    gmp2_max,
    gmp2_real_bound,
    lmp2,
    lmp2_breakdown,
)
from .errors import (
    InternalInvariantError,
    ParseError,
    ReducibleInputError,
    TotalFreeError,
)
from .families import boolean_arrangement, braid_arrangement, check_size, generic_arrangement
from .poly import HomPoly, parse_poly, poly_to_str
from .rank2 import exponents_totally_free, rank2_basis, saito_check
from .matroid import Decomposition, decompose


# -- report plumbing ---------------------------------------------------------


def _rational(value: Fraction) -> int | str:
    """An exact rational as JSON: an integer, or a "p/q" string."""
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def make_report(command: str, arr: Arrangement | None, rank: int, result: dict) -> dict:
    """The JSON report; ``rank`` is the input's, which every command already holds."""
    report = {"command": command, "result": result, "version": __version__}
    if arr is not None:
        report["input_summary"] = {"dim": arr.dim, "n": arr.n, "rank": rank}
    return report


def _rank(decomp: Decomposition) -> int:
    return decomp.ambient_dim - decomp.trivial_directions


def certificate_payload(cert: NonFreenessCertificate) -> dict:
    expl = cert.explanation
    return {
        "theorem": expl.theorem,
        "lmp2": cert.lmp2_lower,
        "lmp2_is_exact": cert.lmp2_is_exact,
        "gmp2_max": cert.gmp2_upper,
        "total_multiplicity": cert.total_multiplicity,
        "rank": cert.rank,
        "circuit_indices": list(expl.circuit_indices) if expl.circuit_indices else None,
        "k0": expl.k0,
        "multiplicity_vector": list(cert.multiplicity),
        "factor_indices": list(expl.factor_indices),
        "subset_lower_bound": expl.subset_lower_bound,
        "gmp2_real_bound": _rational(expl.gmp2_real_bound),
    }


def verdict_payload(verdict: Verdict) -> dict:
    decomp = verdict.decomposition
    payload = {
        "totally_free": verdict.totally_free,
        "condition": ("rank<=2 product decomposition" if verdict.totally_free
                      else "LMP2>GMP2max certificate"),
        "factors": [{"indices": list(f.indices), "rank": f.rank} for f in decomp.factors],
        "trivial_directions": decomp.trivial_directions,
    }
    if verdict.witness is not None:
        w = verdict.witness
        payload["witness"] = {
            "factor_indices": list(w.factor.indices),
            "circuit_indices": list(w.circuit_original),
            "k0": w.k0,
            "certificate": certificate_payload(w.certificate),
        }
    return payload


# -- input helpers -----------------------------------------------------------

# ASCII digits only: \d and int also accept other scripts' digits.
_INT_RE = re.compile(r"-?[0-9]+")


def _load(args) -> tuple[Arrangement, Multiplicity]:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc.strerror}") from exc
    arr, m = parse_arrangement(text)
    if getattr(args, "mult", None):
        tokens = [t.strip() for t in args.mult.split(",")]
        if len(tokens) != arr.n:
            raise ParseError(
                f"--mult has {len(tokens)} entries for {arr.n} hyperplanes")
        if not all(_INT_RE.fullmatch(t) for t in tokens):
            raise ParseError(f"--mult entries must be integers: {args.mult!r}")
        m = tuple(int(t) for t in tokens)
        check_multiplicity(arr, m)
    return arr, m


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for dicts with str keys, lists, tuples,
    str, int, bool and None; anything else, a float included, is a TypeError."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, str)):
        return int.__repr__(value) if isinstance(value, int) else encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"not a report value (exact, with str keys): {value!r:.60}")


def _emit(args, report: dict, human: str) -> None:
    print(_json(report) if args.json else human)


def _human_verdict(payload: dict) -> str:
    lines = []
    tag = "TotallyFree" if payload["totally_free"] else "NotTotallyFree"
    lines.append(f"verdict: {tag}   (condition: {payload['condition']})")
    ranks = [f["rank"] for f in payload["factors"]]
    lines.append(f"factors: {len(ranks)} with ranks {ranks}, "
                 f"trivial directions: {payload['trivial_directions']}")
    for f in payload["factors"]:
        lines.append(f"  factor rank {f['rank']}: hyperplanes {f['indices']}")
    if "witness" in payload:
        w = payload["witness"]
        c = w["certificate"]
        lines.append(f"witness factor: hyperplanes {w['factor_indices']}")
        lines.append(f"generic circuit: {w['circuit_indices']}")
        lines.append(f"k0: {w['k0']}")
        lines.append(f"certificate: LMP2 {c['lmp2']} > {c['gmp2_max']} = GMP2max "
                     f"(rank {c['rank']}, total multiplicity {c['total_multiplicity']})")
        lines.append(f"non-free multiplicity: {w['certificate']['multiplicity_vector']}")
    return "\n".join(lines)


# -- commands ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    arr, m = _load(args)
    input_flats = rank2_flats(arr)
    verdict = _verdict(arr, input_flats)
    flats = [{"members": list(f.members), "size": len(f.members)} for f in input_flats]
    result = {
        "verdict": verdict_payload(verdict),
        "rank2_flats": flats,
        "multiplicity": list(m),
    }
    report = make_report("analyze", arr, _rank(verdict.decomposition), result)
    human = "\n".join([
        f"input: dim {arr.dim}, {arr.n} hyperplanes, rank {report['input_summary']['rank']}",
        f"rank-2 flats: {len(flats)} with sizes "
        f"{sorted((f['size'] for f in flats), reverse=True)}",
        _human_verdict(result["verdict"]),
    ])
    _emit(args, report, human)
    return 3 if args.strict and not verdict.totally_free else 0


def cmd_totally_free(args) -> int:
    arr, _ = _load(args)
    verdict = decide_totally_free(arr)
    payload = verdict_payload(verdict)
    report = make_report("totally-free", arr, _rank(verdict.decomposition), payload)
    _emit(args, report, _human_verdict(payload))
    return 3 if args.strict and not verdict.totally_free else 0


def cmd_exponents(args) -> int:
    arr, m = _load(args)
    verdict = decide_totally_free(arr)
    if not verdict.totally_free:
        payload = {"totally_free": False,
                   "certificate": certificate_payload(verdict.witness.certificate)}
        report = make_report("exponents", arr, _rank(verdict.decomposition), payload)
        human = ("not totally free; no exponents.\n"
                 + _human_verdict(verdict_payload(verdict)))
        _emit(args, report, human)
        return 0
    exps = exponents_totally_free(arr, m)
    factors_payload = []
    human_lines = [f"exponents: {list(exps)}"]
    for factor in verdict.decomposition.factors:
        sub_m = tuple(m[i] for i in factor.indices)
        entry = {"indices": list(factor.indices), "rank": factor.rank,
                 "multiplicities": list(sub_m)}
        if factor.rank == 2:
            check = rank2_basis(factor.arrangement, sub_m)
            theta1, theta2 = check.thetas
            factorization = _saito_product(factor.arrangement, sub_m, check.constant)
            entry["basis"] = [_derivation_payload(theta1), _derivation_payload(theta2)]
            entry["saito_det"] = poly_to_str(check.det)
            entry["saito_constant"] = _rational(check.constant)
            entry["saito_factorization"] = factorization
            human_lines.append(
                f"factor {list(factor.indices)} (rank 2): exponents "
                f"({theta1.degree}, {theta2.degree}), Saito det = {factorization}")
        else:
            entry["exponent"] = sub_m[0]
            human_lines.append(
                f"factor {list(factor.indices)} (rank 1): exponent {sub_m[0]}")
        factors_payload.append(entry)
    if verdict.decomposition.trivial_directions:
        human_lines.append(
            f"trivial directions: {verdict.decomposition.trivial_directions} "
            f"(one exponent 0 each)")
    payload = {"totally_free": True, "exponents": list(exps),
               "factors": factors_payload,
               "trivial_directions": verdict.decomposition.trivial_directions}
    report = make_report("exponents", arr, _rank(verdict.decomposition), payload)
    _emit(args, report, "\n".join(human_lines))
    return 0


def _derivation_payload(theta) -> dict:
    return {"degree": theta.degree,
            "components": [poly_to_str(c) for c in theta.components]}


def _saito_product(arr2, m, constant) -> str:
    pieces = []
    for h, mult in zip(arr2.hyperplanes, m):
        form = poly_to_str(h.linear_form())
        pieces.append(f"({form})^{mult}" if mult > 1 else f"({form})")
    return f"{constant} * " + " * ".join(pieces)


def cmd_lmp2(args) -> int:
    arr, m = _load(args)
    breakdown = lmp2_breakdown(arr, m)
    value = sum(pair.product for _, pair in breakdown)
    rank = arr.rank()
    cert = _lmp2_certificate(value, rank, m)
    upper = gmp2_max(rank, sum(m)) if rank >= 1 else 0
    payload = {
        "lmp2": value,
        "gmp2_max": upper,
        "per_flat": [{"members": list(f.members),
                      "multiplicities": [m[i] for i in f.members],
                      "exponents": list(pair.as_tuple()),
                      "product": pair.product}
                     for f, pair in breakdown],
        "outcome": "certificate" if cert else "inconclusive",
        "certificate": certificate_payload(cert) if cert else None,
    }
    report = make_report("lmp2", arr, rank, payload)
    human_lines = [f"LMP2 = {value}"]
    for f, pair in breakdown:
        human_lines.append(f"  flat {list(f.members)}: exponents {pair.as_tuple()} "
                           f"-> {pair.product}")
    human_lines.append(f"GMP2max(rank {rank}, total {sum(m)}) = {upper}")
    human_lines.append("certificate emitted (not free)" if cert
                       else "inconclusive (no freeness conclusion)")
    _emit(args, report, "\n".join(human_lines))
    return 0


def cmd_gmp2max(args) -> int:
    if args.input:
        arr, m = _load(args)
        rank, total = arr.rank(), sum(m)
        cert = _lmp2_certificate(lmp2(arr, m), rank, m)
        outcome = "certificate" if cert else "inconclusive"
        cert_payload = certificate_payload(cert) if cert else None
    else:
        if args.rank is None or args.total is None:
            raise ParseError("gmp2max needs either --input or both --rank and --total")
        if args.rank < 1 or args.total < 0:
            raise ParseError("gmp2max needs --rank >= 1 and --total >= 0")
        arr, rank, total = None, args.rank, args.total
        outcome, cert_payload = None, None
    value = gmp2_max(rank, total)
    bound = gmp2_real_bound(rank, total)
    payload = {"rank": rank, "total_multiplicity": total, "gmp2_max": value,
               "gmp2_real_bound": _rational(bound)}
    if outcome is not None:
        payload["outcome"] = outcome
        payload["certificate"] = cert_payload
    report = make_report("gmp2max", arr, rank, payload)
    human = (f"GMP2max(rank {rank}, total {total}) = {value}"
             f"   (real bound {_rational(bound)})")
    if outcome is not None:
        human += f"\noutcome: {outcome}"
    _emit(args, report, human)
    return 0


def cmd_witness(args) -> int:
    arr, _ = _load(args)
    decomp = decompose(arr)
    factor = next((f for f in decomp.factors if f.rank >= 3), None)
    if factor is None:
        raise ReducibleInputError("no irreducible factor of rank >= 3")
    circuit_proof, k0, _ = _factor_family(factor)
    circuit_brute = _generic_circuit(factor.arrangement, factor.rank, "brute")
    check = circuit_is_nonfree_check(factor.rank)

    def to_original(circuit):
        return sorted(factor.indices[i] for i in circuit)

    members = set(to_original(circuit_proof))
    m_full = tuple(k0 if i in members else 1 for i in range(arr.n))
    payload = {
        "factor_indices": list(factor.indices),
        "factor_rank": factor.rank,
        "circuit_proof_following": to_original(circuit_proof),
        "circuit_brute_force": to_original(circuit_brute),
        "circuit_check": {"lmp2": check.lmp2,
                          "gmp2_real_bound": _rational(check.gmp2_real_bound),
                          "gap": _rational(check.gap)},
        "k0": k0,
        "multiplicity_vector": list(m_full),
    }
    report = make_report("witness", arr, _rank(decomp), payload)
    human = "\n".join([
        f"factor: hyperplanes {list(factor.indices)} (rank {factor.rank})",
        f"generic circuit (proof-following): {payload['circuit_proof_following']}",
        f"generic circuit (brute-force):     {payload['circuit_brute_force']}",
        f"circuit check: LMP2 {check.lmp2} vs real GMP2 bound "
        f"{_rational(check.gmp2_real_bound)}, gap {_rational(check.gap)}",
        f"k0: {k0}",
        f"non-free multiplicity: {list(m_full)}",
    ])
    _emit(args, report, human)
    return 0


def cmd_saito_verify(args) -> int:
    arr, m = _load(args)
    try:
        with open(args.basis, "r", encoding="utf-8") as fh:
            basis_text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.basis}: {exc.strerror}") from exc
    thetas = parse_basis_file(basis_text, arr.dim)
    if len(thetas) != arr.dim:
        raise ParseError(f"basis file has {len(thetas)} derivations, "
                         f"expected {arr.dim}")
    check = saito_check(arr, m, thetas)
    memberships = [{"hyperplane": list(h.normal), "mult": mult, "member": list(row)}
                   for h, mult, row in zip(arr.hyperplanes, m, check.memberships)]
    payload = {"verified": check.verified,
               "determinant": poly_to_str(check.det),
               "memberships": memberships}
    report = make_report("saito-verify", arr, arr.rank(), payload)
    human_lines = []
    for entry in memberships:
        flags = ", ".join("yes" if b else "NO" for b in entry["member"])
        human_lines.append(f"hyperplane {entry['hyperplane']} mult {entry['mult']}: "
                           f"membership [{flags}]")
    human_lines.append(f"determinant: {payload['determinant']}")
    human_lines.append("VERIFIED: basis of the derivation module" if check.verified
                       else "REJECTED: not a basis")
    _emit(args, report, "\n".join(human_lines))
    return 0


# -- generate ----------------------------------------------------------------


def _parse_generate_spec(tokens: list[str], default_seed: int) -> Arrangement:
    pos = 0

    def need_int() -> int:
        nonlocal pos
        if pos >= len(tokens) or not _INT_RE.fullmatch(tokens[pos]):
            raise ParseError(f"expected an integer in generate spec, got "
                             f"{tokens[pos] if pos < len(tokens) else 'end of input'}")
        value = int(tokens[pos])
        pos += 1
        return value

    def parse_spec() -> Arrangement:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of generate spec")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            arr = parse_spec()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError("missing ')' in generate spec")
            pos += 1
            return arr
        pos += 1
        if tok == "boolean":
            return boolean_arrangement(need_int())
        if tok == "braid":
            return braid_arrangement(need_int())
        if tok == "generic":
            n = need_int()
            dim = need_int()
            seed = default_seed
            if pos < len(tokens) and _INT_RE.fullmatch(tokens[pos]):
                seed = need_int()
            return generic_arrangement(n, dim, seed)
        if tok == "product":
            parts = []
            while pos < len(tokens) and tokens[pos] == "(":
                parts.append(parse_spec())
            if len(parts) < 2:
                raise ParseError("product needs at least two parenthesized sub-specs")
            check_size("product", sum(p.dim for p in parts), sum(p.n for p in parts))
            arr = parts[0]
            for part in parts[1:]:
                arr = product(arr, part)
            return arr
        raise ParseError(f"unknown family {tok!r}")

    arr = parse_spec()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in generate spec: {tokens[pos:]}")
    return arr


def cmd_generate(args) -> int:
    tokens = re.findall(r"\(|\)|[^()\s]+", " ".join(args.spec))
    arr = _parse_generate_spec(tokens, args.seed)
    sys.stdout.write(format_arrangement(arr))
    return 0


# -- basis files -------------------------------------------------------------


def parse_basis_file(text: str, dim: int):
    """Parse derivation blocks: a ``derivation`` line, then ``component i: <poly>``."""
    blocks: list[tuple[int, dict[int, HomPoly]]] = []  # (header line, components)
    current: dict[int, HomPoly] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "derivation":
            current = {}
            blocks.append((lineno, current))
            continue
        match = re.fullmatch(r"component\s+([0-9]+)\s*:\s*(.*)", line)
        if not match:
            raise ParseError(f"expected 'derivation' or 'component i: <poly>', "
                             f"got {line!r}", lineno)
        if current is None:
            raise ParseError("component before any 'derivation' line", lineno)
        idx = int(match.group(1))
        if not 1 <= idx <= dim:
            raise ParseError(f"component index {idx} out of range 1..{dim}", lineno)
        if idx - 1 in current:
            raise ParseError(f"component {idx} given twice", lineno)
        try:
            current[idx - 1] = parse_poly(match.group(2), dim)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    thetas = []
    for header, block in blocks:
        comps = [block.get(i, HomPoly.zero(dim)) for i in range(dim)]
        try:
            thetas.append(derivation(comps))
        except ValueError as exc:
            raise ParseError(f"bad derivation block: {exc}", header) from None
    return thetas


# -- entry point -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: built once per process, it keeps no parse state."""
    parser = argparse.ArgumentParser(
        prog="totalfree",
        description="Exact total-freeness decisions and non-freeness "
                    "certificates for central hyperplane arrangements.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mult=True, strict=False):
        p.add_argument("-i", "--input", required=True, help="arrangement file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if mult:
            p.add_argument("--mult", help="comma-separated multiplicity override")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit status 3 when NotTotallyFree")

    p = sub.add_parser("analyze", help="decomposition, flats and verdict")
    add_common(p, strict=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("totally-free", help="decide total freeness")
    add_common(p, mult=False, strict=True)
    p.set_defaults(func=cmd_totally_free)

    p = sub.add_parser("exponents", help="exponents and bases of a totally free input")
    add_common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("lmp2", help="second local mixed product with breakdown")
    add_common(p)
    p.set_defaults(func=cmd_lmp2)

    p = sub.add_parser("gmp2max", help="maximum second global mixed product")
    p.add_argument("-i", "--input", help="arrangement file")
    p.add_argument("--mult", help="comma-separated multiplicity override")
    p.add_argument("--rank", type=int, help="rank (with --total, instead of a file)")
    p.add_argument("--total", type=int, help="total multiplicity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gmp2max)

    p = sub.add_parser("witness", help="generic circuit, k0 and non-free multiplicity")
    add_common(p, mult=False)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("generate", help="emit a named arrangement family")
    p.add_argument("spec", nargs="+",
                   help="boolean L | braid L | generic N L [SEED] | "
                        "product (SPEC) (SPEC) ...")
    p.add_argument("--seed", type=int, default=0, help="seed for generic families")
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("saito-verify", help="check a candidate derivation basis")
    add_common(p)
    p.add_argument("--basis", required=True, help="derivation basis file")
    p.set_defaults(func=cmd_saito_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help or --version, 2 on bad usage
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InternalInvariantError:
        raise  # a bug in this package, not bad input: crash loudly
    except (TotalFreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
