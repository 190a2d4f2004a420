"""The three workloads: seeded inputs, the call into totalfree, the output check.

Inputs come in cycles of fixed composition (which dimension, which case,
genuine or tampered); the seed draws everything else.  A run measures whole
cycles, so the mix behind every median and tail is the same on every run
and every seed.  No input repeats within a run: each has its own change of
coordinates or its own multiplicity vector.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from math import comb

import reference


@dataclasses.dataclass
class Case:
    """One call: its arguments, what a correct answer looks like, a label."""

    label: str
    args: tuple
    expected: object
    setup_error: str | None = None


def change_of_coordinates(rng: random.Random, dim: int) -> list[list[int]]:
    """Unimodular integer matrix: unit lower times unit upper triangular."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(dim)]
             for i in range(dim)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(dim)]
             for i in range(dim)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def changed_braid(tf, rng: random.Random, dim: int):
    """Braid arrangement with covectors n -> n A, hyperplane order kept."""
    a = change_of_coordinates(rng, dim)
    rows = [[sum(n[i] * a[i][j] for i in range(dim)) for j in range(dim)]
            for n in tf.braid_arrangement(dim).normals()]
    return tf.arrangement(dim, rows)


def multiplicity_on(circuit, n: int, k: int) -> tuple[int, ...]:
    members = set(circuit)
    return tuple(k if i in members else 1 for i in range(n))


class Workload:
    """Inputs in cycles; ``pool_cycles`` are built at set-up, a traced run
    replays ``trace_cycles`` of them.

    ``cycle_s`` is the call time of one cycle at the reference machine's
    speed (speed.py), measured at the commit that added the benchmark.  A
    timed run makes a fixed number of cycles from it, so every run of a
    commit measures the same mix, whatever the machine's phase, and a
    commit and its parent measure the same inputs for the same seed.
    """

    name: str
    pool_cycles: int
    trace_cycles: int
    cycle_s: float

    def cycles_for(self, seconds: float) -> int:
        """Whole cycles that take about ``seconds`` of calls, at least one."""
        return min(self.pool_cycles, max(1, round(seconds / self.cycle_s)))

    def expectations(self):
        """Expected outputs shared by many cases, computed before the loop."""
        return None


# -- analyze_braid -------------------------------------------------------------


class AnalyzeBraid(Workload):
    """``totalfree analyze --json`` on coordinate-changed braid arrangements."""

    name = "analyze_braid"
    # Dimensions of one cycle.  With 3 to 10 cycles in a run, the median call
    # falls in the middle of the dimension-6 group and the 11th-largest call
    # inside the dimension-7 group.
    cycle = (5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 8)
    pool_cycles = 16
    trace_cycles = 1
    cycle_s = 11.3

    def setup(self, tf, seed: int, workdir: str) -> list[list[Case]]:
        rng = random.Random(seed)
        cycles = []
        for c in range(self.pool_cycles):
            cases = []
            for i, dim in enumerate(self.cycle):
                path = os.path.join(workdir, f"braid-{c}-{i}-dim{dim}.arr")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(tf.format_arrangement(changed_braid(tf, rng, dim)))
                cases.append(Case(f"dim{dim}", (path,), dim))
            cycles.append(cases)
        return cycles

    def expectations(self) -> dict[int, dict]:
        """Report fields per dimension, from the reference table and closed forms."""
        out = {}
        for dim in sorted(set(self.cycle)):
            circuit, k0, lmp2, gmp2 = reference.BRAID[dim]
            n, rank = comb(dim, 2), dim - 1
            m = multiplicity_on(circuit, n, k0)
            total = sum(m)
            if k0 != reference.k0_threshold(rank, n):
                raise ValueError(f"reference k0 disagrees with its inequality at dim {dim}")
            if gmp2 != reference.gmp2_max(rank, total):
                raise ValueError(f"reference GMP2max disagrees at dim {dim}")
            if lmp2 != reference.braid_lmp2(dim, m):
                raise ValueError(f"reference LMP2 disagrees at dim {dim}")
            if not reference.is_braid_generic_circuit(dim, circuit):
                raise ValueError(f"reference circuit is not generic at dim {dim}")
            out[dim] = {
                "input_summary": {"dim": dim, "n": n, "rank": rank},
                "factors": [{"indices": list(range(n)), "rank": rank}],
                "flats": [list(f) for f in reference.braid_flats(dim)],
                "circuit": list(circuit), "k0": k0, "lmp2": lmp2, "gmp2_max": gmp2,
                "total": total, "m": list(m), "rank": rank, "n": n,
            }
        return out

    def call(self, tf, case: Case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tf.cli.main(["analyze", "--json", "-i", case.args[0]])
        return code, out.getvalue()

    def check(self, case: Case, output, expect: dict) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        e = expect[case.expected]
        report = json.loads(text)
        result = report["result"]
        verdict = result["verdict"]
        witness = verdict.get("witness") or {}
        cert = witness.get("certificate") or {}
        got = {
            "input_summary": report.get("input_summary"),
            "totally_free": verdict["totally_free"],
            "factors": verdict["factors"],
            "trivial_directions": verdict["trivial_directions"],
            "flats": [f["members"] for f in result["rank2_flats"]],
            "sizes": [f["size"] for f in result["rank2_flats"]],
            "multiplicity": result["multiplicity"],
            "circuit": witness.get("circuit_indices"),
            "k0": witness.get("k0"),
            "lmp2": cert.get("lmp2"),
            "gmp2_max": cert.get("gmp2_max"),
            "total": cert.get("total_multiplicity"),
            "rank": cert.get("rank"),
            "m": cert.get("multiplicity_vector"),
        }
        want = {
            "input_summary": e["input_summary"], "totally_free": False,
            "factors": e["factors"], "trivial_directions": 1, "flats": e["flats"],
            "sizes": [len(f) for f in e["flats"]], "multiplicity": [1] * e["n"],
            "circuit": e["circuit"], "k0": e["k0"], "lmp2": e["lmp2"],
            "gmp2_max": e["gmp2_max"], "total": e["total"], "rank": e["rank"],
            "m": e["m"],
        }
        wrong = [key for key in want if got[key] != want[key]]
        if wrong:
            return f"{case.label}: wrong {', '.join(wrong)}"
        if cert["lmp2"] <= cert["gmp2_max"]:
            return f"{case.label}: certificate inequality fails"
        return None


# -- verify_cert ---------------------------------------------------------------


class VerifyCert(Workload):
    """``verify_certificate`` on genuine and tampered braid certificates."""

    name = "verify_cert"
    # (dimension, multiplicity offsets above k0 on the circuit, tampering by
    # offset).  Tampered copies shift lmp2_lower with lmp2_is_exact set, or
    # alter one entry of the multiplicity vector; both must be rejected.
    cycle = ((4, range(9), {2: "lmp2", 5: "mult"}),
             (5, range(3), {1: "lmp2"}))
    pool_cycles = 60
    trace_cycles = 4
    cycle_s = 2.7

    def setup(self, tf, seed: int, workdir: str) -> list[list[Case]]:
        """One certificate per dimension and offset, then a pool of new
        arrangements to verify them on.

        A change of coordinates that keeps the hyperplane order changes no
        number in a certificate, so the certificate built on one changed
        braid arrangement certifies every other changed copy.  Set-up work
        is therefore the same however large the pool is.
        """
        rng = random.Random(seed)
        genuine = {}
        for dim, offsets, _ in self.cycle:
            arr = changed_braid(tf, rng, dim)
            witness = tf.decide_totally_free(arr).witness
            for j in offsets:
                m = multiplicity_on(witness.circuit_original, arr.n, witness.k0 + j)
                cert = witness.certificate if j == 0 else tf.nonfree_by_lmp_gmp(arr, m)
                genuine[dim, j] = cert, self.validate(dim, witness, m, cert)
        cycles = []
        for _ in range(self.pool_cycles):
            cases = []
            for dim, offsets, tampered in self.cycle:
                arr = changed_braid(tf, rng, dim)
                for j in offsets:
                    cert, error = genuine[dim, j]
                    how = tampered.get(j)
                    if error is None:
                        cert = tamper(cert, how, rng)
                    label = f"dim{dim}-k0+{j}" + (f"-{how}" if how else "")
                    cases.append(Case(label, (arr, cert), how is None, error))
            cycles.append(cases)
        return cycles

    @staticmethod
    def validate(dim: int, witness, m, cert) -> str | None:
        """Compare a freshly built certificate with the closed forms."""
        circuit, k0, _, _ = reference.BRAID[dim]
        if cert is None:
            return f"dim {dim}: no certificate at {m}"
        if tuple(witness.circuit_original) != circuit or witness.k0 != k0:
            return f"dim {dim}: circuit or k0 differs from the reference"
        total, rank = sum(m), dim - 1
        if (cert.lmp2_lower != reference.braid_lmp2(dim, m)
                or cert.gmp2_upper != reference.gmp2_max(rank, total)
                or cert.total_multiplicity != total or cert.rank != rank
                or tuple(cert.multiplicity) != tuple(m)):
            return f"dim {dim}: certificate at {m} differs from the closed forms"
        return None

    def call(self, tf, case: Case):
        arr, cert = case.args
        return tf.verify_certificate(arr, cert)

    def check(self, case: Case, output, expect) -> str | None:
        if case.setup_error:
            return case.setup_error
        if output is not case.expected:
            verdict = "accepted" if output else "rejected"
            return f"{case.label}: {verdict}"
        return None


def tamper(cert, how: str | None, rng: random.Random):
    """A copy of ``cert`` that no correct verifier may accept (or ``cert``)."""
    if how is None:
        return cert
    if how == "lmp2":
        shift = rng.choice((-2, -1, 1, 2))
        return dataclasses.replace(cert, lmp2_lower=cert.lmp2_lower + shift,
                                   lmp2_is_exact=True)
    if how == "mult":
        m = list(cert.multiplicity)
        i = rng.randrange(len(m))
        m[i] += rng.choice((1, 2)) if m[i] == 1 else rng.choice((-1, 1))
        return dataclasses.replace(cert, multiplicity=tuple(m))
    raise ValueError(f"unknown tampering {how!r}")


# -- rank2_search --------------------------------------------------------------


class Rank2Search(Workload):
    """``rank2_exponents`` with a cold cache: every multiplicity vector is new."""

    name = "rank2_search"
    # (case, base multiplicities).  Each input permutes the base and moves
    # every entry by at most one, on random lines with normals in [-3, 3]^2.
    # Cost grows steeply with |m| and coefficient size, so totals stay at 60
    # or below.  Shares: 3 of 10 three-line, 3 dominant (2 max m >= |m|) and
    # 4 non-dominant with 4 to 6 lines.  The three dominant slots sit in the
    # middle of the cost order, so the median call is one of them on every
    # seed.  (12, 10, 8, 6, 4) is the 5-line case m = (60, 50, 40, 30, 20)
    # scaled down by 5.
    cycle = (
        ("three", (4, 6, 10)),
        ("three", (7, 9, 11)),
        ("three", (10, 12, 13)),
        ("dominant", (20, 6, 5, 4, 3)),
        ("dominant", (20, 6, 5, 4, 3)),
        ("dominant", (20, 6, 5, 4, 3)),
        ("nondominant", (13, 12, 11, 10)),
        ("nondominant", (12, 10, 8, 6, 4)),
        ("nondominant", (9, 8, 7, 6, 6, 5)),
        ("nondominant", (18, 15, 12, 9, 6)),
    )
    pool_cycles = 100
    trace_cycles = 12
    cycle_s = 1.05

    def setup(self, tf, seed: int, workdir: str) -> list[list[Case]]:
        rng = random.Random(seed)
        used: set[tuple[int, ...]] = set()
        cycles = []
        for _ in range(self.pool_cycles):
            cases = []
            for kind, base in self.cycle:
                m = draw_multiplicity(rng, kind, base, used)
                normals = random_lines(tf, rng, len(m))
                cases.append(Case(kind, (tf.arrangement(2, normals), m), m))
            cycles.append(cases)
        return cycles

    def call(self, tf, case: Case):
        arr, m = case.args
        return tf.rank2_exponents(arr, m)

    def check(self, case: Case, output, expect) -> str | None:
        return exponent_error(case.expected, (output.d1, output.d2), case.args[0].n)


def draw_multiplicity(rng: random.Random, kind: str, base, used: set) -> tuple[int, ...]:
    """A permuted, jittered copy of ``base`` that keeps its case and is new."""
    while True:
        m = [max(1, b + rng.randint(-1, 1)) for b in base]
        rng.shuffle(m)
        m = tuple(m)
        dominant = 2 * max(m) >= sum(m)
        if kind == "dominant" and not dominant or kind == "nondominant" and dominant:
            continue
        if m not in used:
            used.add(m)
            return m


def random_lines(tf, rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """Distinct lines through the origin with normals in [-3, 3]^2."""
    lines: dict[tuple[int, ...], None] = {}
    while len(lines) < count:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0):
            lines[tf.normalize_hyperplane((a, b)).normal] = None
    return list(lines)


def exponent_error(m, pair, lines: int) -> str | None:
    """Why ``pair`` cannot be the exponents of ``lines`` lines under ``m``."""
    d1, d2 = pair
    if not 0 <= d1 <= d2 or d1 + d2 != sum(m):
        return f"{m}: {pair} is not a sorted split of |m|"
    if lines == 3 and pair != reference.three_line_exponents(m):
        return f"{m}: {pair}, closed form {reference.three_line_exponents(m)}"
    dominant = reference.dominant_exponents(m)
    if dominant is not None and pair != dominant:
        return f"{m}: {pair}, dominant closed form {dominant}"
    return None


WORKLOADS = {w.name: w for w in (AnalyzeBraid(), VerifyCert(), Rank2Search())}
