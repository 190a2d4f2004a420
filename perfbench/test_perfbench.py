"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench        # or: python3 -m unittest discover -s perfbench
"""

import os
import random
import sys
import tempfile
import unittest
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import totalfree as tf  # noqa: E402
import totalfree.cli  # noqa: E402,F401

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_hundred_samples(self):
        value, percentile, beyond = run.tail_latency(range(100, 0, -1))
        self.assertEqual((value, percentile, beyond), (90, 90.0, 10))

    def test_ten_samples_beyond_exactly(self):
        samples = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11]
        value, percentile, beyond = run.tail_latency(samples)
        self.assertEqual(value, 1)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail_latency([3, 1, 2]), (3, 100.0, 0))


class SpeedFactor(unittest.TestCase):
    def test_probe_does_fixed_work(self):
        self.assertEqual(speed._eliminate(), 9)
        self.assertGreater(speed.probe(), 0)

    def test_factor_is_mean_over_reference(self):
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(speed.factor([ref, 3 * ref]), 2.0)
        self.assertAlmostEqual(speed.factor([ref / 2] * 5), 0.5)

    def test_each_call_is_scaled_by_the_probes_around_it(self):
        ref, w = speed.REFERENCE_S, speed.WINDOW_S
        probes = [ref, 2 * ref, 4 * ref]
        probe_starts = [0.0, 10 * w, 20 * w]
        # Middles at 0.5, 10 w and 30 w: near the first probe, near the
        # second, and near none (then the mean of all three counts).
        scaled = speed.at_reference_speed([1.0, 2.0, 7.0], [0.0, 10 * w - 1, 30 * w],
                                          probes, probe_starts)
        self.assertEqual(scaled[:2], [1.0, 1.0])
        self.assertAlmostEqual(scaled[2], 7.0 / (7 / 3))


class CycleCount(unittest.TestCase):
    def test_cycles_for_rounds_and_stays_within_the_pool(self):
        w = workloads.AnalyzeBraid()
        self.assertEqual(w.cycles_for(4.6 * w.cycle_s), 5)
        self.assertEqual(w.cycles_for(4.4 * w.cycle_s), 4)
        self.assertEqual(w.cycles_for(0.0), 1)
        self.assertEqual(w.cycles_for(1000 * w.cycle_s), w.pool_cycles)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            (0.0, 10.0, -1),   # 0: root
            (1.0, 3.0, 0),     # 1: child of 0
            (2.0, 4.0, 0),     # 2: child of 0, overlaps span 1
            (8.0, 12.0, 0),    # 3: child of 0, runs past its parent
            (1.5, 2.0, 1),     # 4: grandchild under span 1
            (20.0, 21.0, -1),  # 5: second root, no children
        ]
        own = tracing.self_times(spans)
        # Root: children cover [1, 4] and [8, 10] -> 3 + 2 = 5.
        self.assertEqual(own, [5.0, 1.5, 2.0, 4.0, 0.5, 1.0])

    def test_tracer_attributes_time_to_layers(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap(lambda: None, "linalg.inner", "linalg")

        def outer_body():
            inner()
            inner()

        outer = tracer.wrap(outer_body, "rank2.outer", "rank2")
        outer()  # clock: outer 0..5, inner 1..2 and 3..4
        summary = tracer.summary()
        self.assertEqual(summary["calls"], {"linalg.inner": 2, "rank2.outer": 1})
        self.assertEqual(summary["self_by_layer"], {"linalg": 2, "rank2": 3})


class Tracing(unittest.TestCase):
    def test_missing_names_are_absent(self):
        saved = tracing.LAYERS
        tracing.LAYERS = {
            "rank2": ("totalfree.rank2", ("rank2_exponents", "no_such_function"), {}),
            "gone": ("totalfree.no_such_module", ("anything",), {}),
        }
        try:
            tracer = tracing.Tracer()
            tracer.install()
            arr = tf.arrangement(2, [(1, 0), (0, 1), (1, 1)])
            self.assertEqual(tf.rank2_exponents(arr, (2, 3, 4)).as_tuple(), (4, 5))
            metrics = tracer.layer_metrics(tracer.summary())
        finally:
            tracing.LAYERS = saved
        self.assertEqual(metrics["rank2.exponents.calls"], 1)
        self.assertNotIn("linalg.rank.calls", metrics)
        self.assertNotIn("gone.self_s", metrics)
        # Wrapped by identity at every binding, so later tests still see a
        # transparent function; the package export and the module agree.
        self.assertIs(tf.rank2_exponents, tf.rank2.rank2_exponents)


class ClosedForms(unittest.TestCase):
    def test_three_lines_match_the_package(self):
        arr = tf.arrangement(2, [(1, 0), (0, 1), (1, -1)])
        for m in product(range(1, 7), repeat=3):
            self.assertEqual(tf.rank2_exponents(arr, m).as_tuple(),
                             reference.three_line_exponents(m), m)

    def test_dominant_matches_the_package(self):
        arr = tf.arrangement(2, [(1, 0), (0, 1), (1, 1), (1, 2)])
        for m in product(range(1, 6), repeat=4):
            expected = reference.dominant_exponents(m)
            if expected is not None:
                self.assertEqual(tf.rank2_exponents(arr, m).as_tuple(), expected, m)

    def test_exponent_check(self):
        err = workloads.exponent_error
        self.assertIsNone(err((1, 1, 1), (1, 2), 3))
        self.assertIsNotNone(err((1, 1, 1), (0, 3), 3))         # not the closed form
        self.assertIsNotNone(err((1, 1, 1), (2, 1), 3))         # not sorted
        self.assertIsNotNone(err((2, 2, 2), (2, 3), 3))         # wrong sum
        self.assertIsNotNone(err((9, 2, 2, 2), (5, 10), 4))     # dominant closed form
        self.assertIsNone(err((9, 2, 2, 2), (6, 9), 4))
        self.assertIsNone(err((3, 3, 3, 3), (6, 6), 4))         # only sum and order
        self.assertIsNotNone(err((3, 3, 3, 3), (7, 5), 4))

    def test_rank2_inputs_are_new_and_in_their_case(self):
        w = workloads.Rank2Search()
        w.pool_cycles = 3
        cases = [c for cycle in w.setup(tf, 7, "") for c in cycle]
        ms = [c.args[1] for c in cases]
        self.assertEqual(len(set(ms)), len(ms))
        for case, (kind, base) in zip(cases, w.cycle * w.pool_cycles):
            m, lines = case.args[1], case.args[0].n
            self.assertEqual(lines, len(base))
            if kind == "dominant":
                self.assertGreaterEqual(2 * max(m), sum(m))
            if kind == "nondominant":
                self.assertLess(2 * max(m), sum(m))
            self.assertIsNone(w.check(case, w.call(tf, case), None))


class BraidReference(unittest.TestCase):
    def test_table_agrees_with_independent_forms(self):
        for dim, (circuit, k0, lmp2, gmp2) in reference.BRAID.items():
            n, rank = dim * (dim - 1) // 2, dim - 1
            m = workloads.multiplicity_on(circuit, n, k0)
            self.assertEqual(k0, reference.k0_threshold(rank, n))
            self.assertEqual(gmp2, reference.gmp2_max(rank, sum(m)))
            self.assertEqual(lmp2, reference.braid_lmp2(dim, m))
            self.assertTrue(reference.is_braid_generic_circuit(dim, circuit))
        self.assertEqual(reference.BRAID[5][1:3], (31, 10205))

    def test_table_agrees_with_the_package_after_a_change_of_coordinates(self):
        rng = random.Random(3)
        for dim in (4, 5):
            arr = workloads.changed_braid(tf, rng, dim)
            self.assertNotEqual(arr, tf.braid_arrangement(dim))
            witness = tf.decide_totally_free(arr).witness
            circuit, k0, lmp2, gmp2 = reference.BRAID[dim]
            self.assertEqual(witness.circuit_original, circuit)
            self.assertEqual(witness.k0, k0)
            self.assertEqual((witness.certificate.lmp2_lower,
                              witness.certificate.gmp2_upper), (lmp2, gmp2))
            self.assertEqual([f.members for f in tf.rank2_flats(arr)],
                             reference.braid_flats(dim))

    def test_analyze_check_accepts_the_cli_and_rejects_a_wrong_k0(self):
        w = workloads.AnalyzeBraid()
        w.cycle, w.pool_cycles = (4,), 1
        with tempfile.TemporaryDirectory() as tmp:
            case = w.setup(tf, 1, tmp)[0][0]
            expect = w.expectations()
            code, text = w.call(tf, case)
        self.assertIsNone(w.check(case, (code, text), expect))
        self.assertIn("k0", w.check(case, (code, text.replace('"k0": 9', '"k0": 10')),
                                    expect))


class TamperedCertificates(unittest.TestCase):
    def test_tampered_copies_are_rejected_and_counted(self):
        w = workloads.VerifyCert()
        w.cycle, w.pool_cycles = ((4, range(6), {1: "lmp2", 3: "mult", 4: "lmp2"}),), 1
        cases = w.setup(tf, 11, "")[0]
        tampered = [c for c in cases if c.expected is False]
        self.assertEqual(len(tampered), 3)
        for case in cases:
            self.assertIsNone(case.setup_error)
            verdict = w.call(tf, case)
            self.assertIs(verdict, case.expected, case.label)
            self.assertIsNone(w.check(case, verdict, None))
        # A verifier that accepts everything fails on every tampered copy,
        # one that rejects everything fails on every genuine certificate.
        self.assertEqual(sum(w.check(c, True, None) is not None for c in cases), 3)
        self.assertEqual(sum(w.check(c, False, None) is not None for c in cases), 3)

    def test_tampering_changes_what_it_says(self):
        arr = tf.braid_arrangement(4)
        cert = tf.decide_totally_free(arr).witness.certificate
        rng = random.Random(0)
        for _ in range(10):
            shifted = workloads.tamper(cert, "lmp2", rng)
            self.assertNotEqual(shifted.lmp2_lower, cert.lmp2_lower)
            self.assertTrue(shifted.lmp2_is_exact)
            altered = workloads.tamper(cert, "mult", rng)
            diff = [i for i, (a, b) in enumerate(zip(altered.multiplicity, cert.multiplicity))
                    if a != b]
            self.assertEqual(len(diff), 1)
            self.assertGreaterEqual(min(altered.multiplicity), 1)


if __name__ == "__main__":
    unittest.main()
