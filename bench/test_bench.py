"""Tests of the benchmark itself: python3 -m unittest bench/test_bench.py"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
from checks import expected_dims, parse_expansion  # noqa: E402
from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Job, hilbert_job, make_pass  # noqa: E402

from metalie import cli  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # cli.main [0, 10] > poly.mul [1, 4] > poly.mul [2, 3]; linalg.rank [5, 9]
        spans = [("cli.main", 0.0, 10.0, -1),
                 ("poly.mul", 1.0, 4.0, 0, 6, 3),
                 ("poly.mul", 2.0, 3.0, 1, 2, 1),
                 ("linalg.rank", 5.0, 9.0, 0, 4, 3)]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])
        metrics = layer_metrics(spans, passes=1)
        self.assertEqual(metrics["cli.main.self_s"], 3.0)
        self.assertEqual(metrics["poly.mul.self_s"], 3.0)
        self.assertEqual(metrics["poly.mul.calls"], 2)
        # sizes count the outermost span of a boundary only
        self.assertEqual(metrics["poly.mul.term_pairs"], 6)
        self.assertEqual(metrics["linalg.rank.rank_ratio"], 0.75)

    def test_metrics_are_per_pass(self):
        spans = [("cli.main", 0.0, 2.0, -1), ("cli.main", 2.0, 4.0, -1)]
        metrics = layer_metrics(spans, passes=2)
        self.assertEqual(metrics["cli.main.calls"], 1)
        self.assertEqual(metrics["cli.main.self_s"], 2.0)


class JobListTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for workload in WORKLOADS:
            first, again = make_pass(workload, 7), make_pass(workload, 7)
            self.assertEqual([(j.argv, j.stdin, j.expect) for j in first],
                             [(j.argv, j.stdin, j.expect) for j in again])
            self.assertGreaterEqual(len(first), run.MIN_JOBS)

    def test_other_seed_other_jobs(self):
        for workload in WORKLOADS:
            self.assertNotEqual([j.argv for j in make_pass(workload, 1)],
                                [j.argv for j in make_pass(workload, 2)])


class TailPercentileTest(unittest.TestCase):
    def test_rejects_fewer_than_100_jobs(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([0.1] * 99)

    def test_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail_percentile(values), 90.0)


class HostSpeedTest(unittest.TestCase):
    def test_factor_uses_the_samples_that_bracket_the_job(self):
        speed = HostSpeed()
        speed.starts = [0.0, 1.0, 2.0, 3.0]
        speed.durations = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S]
        self.assertAlmostEqual(speed.factor(1.5, 1.9), 1 / 3)  # samples at 1.0 and 2.0
        self.assertAlmostEqual(speed.factor(0.5, 2.5), 1.0)  # samples at 0.0 and 3.0
        with self.assertRaises(ValueError):
            speed.factor(2.5, 3.5)  # nothing after the job

    def test_client_samples_between_jobs(self):
        speed = HostSpeed(cadence=0.0)
        client = run.Client(cli, speed=speed)
        job = hilbert_job((2,), "invariant-ring", 6)
        client.run(job)
        client.run(job)
        speed.sample()
        self.assertEqual(len(speed.starts), 3)
        for (start, end), previous, following in zip(client.windows, speed.starts, speed.starts[1:]):
            self.assertLess(previous, start)
            self.assertLess(end, following)
            self.assertGreater(speed.factor(start, end), 0)


class ErrorRateTest(unittest.TestCase):
    def test_wrong_expected_value_is_a_failure(self):
        right = hilbert_job((2,), "invariant-ring", 6)
        wrong = Job(right.argv, {"exit": 0, "dims": [1, 0, 1, 0, 1, 0, 2]})
        client = run.Client(cli)
        client.run(right)
        client.run(wrong)
        self.assertEqual(len(client.latencies), 2)
        self.assertEqual(len(client.failures), 1)

    def test_refused_input_is_a_failure(self):
        client = run.Client(cli)
        client.run(hilbert_job((2,), "polyring", 65))
        self.assertEqual(len(client.failures), 1)


class OracleTest(unittest.TestCase):
    def test_hilbert_dimensions_match_program(self):
        from metalie.sl2 import ModuleSpec
        from metalie.series import invariant_dimension_series

        for blocks in [(2,), (3,), (1, 1), (4, 0), (2, 1), (1, 1, 1)]:
            spec = ModuleSpec(blocks)
            for space, target in (("polyring", "invariant-ring"), ("module", "invariant-module")):
                series = invariant_dimension_series(spec, 7, space)
                self.assertEqual([int(c) for c in series.univariate_coefficients()],
                                 expected_dims(blocks, target, 7), (blocks, target))

    def test_hilbert_dimensions_match_catalog_closed_forms(self):
        from metalie.invariants import load_catalog

        for case in load_catalog().values():
            blocks = case.spec.blocks
            for target, closed_form in (("invariant-ring", case.ring_series),
                                        ("invariant-module", case.module_series)):
                self.assertEqual([int(c) for c in closed_form(12).univariate_coefficients()],
                                 expected_dims(blocks, target, 12), (case.case_id, target))

    def test_parse_expansion(self):
        self.assertEqual(parse_expansion("2[x4,x1] - 3/2[x3,x2,x2] + [x2,x1]"),
                         [(2, (4, 1)), (-1.5, (3, 2, 2)), (1, (2, 1))])
        self.assertEqual(parse_expansion("0"), [])


class TracerTest(unittest.TestCase):
    def test_install_covers_aliases_and_imported_names(self):
        from metalie import cli as cli_module
        from metalie.poly import Poly

        originals = (Poly.__dict__["__mul__"], Poly.__dict__["__rmul__"], cli_module.pi)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli_module.pi, originals[2])
            tracer.active = True
            x = Poly.variable("x1")
            2 * x
            x * x
            tracer.active = False
            x * x
        finally:
            tracer.uninstall()
        self.assertEqual([s[0] for s in tracer.spans], ["poly.mul", "poly.mul"])
        self.assertEqual((Poly.__dict__["__mul__"], Poly.__dict__["__rmul__"], cli_module.pi),
                         originals)

    def test_traced_job_records_every_layer_it_uses(self):
        tracer = Tracer()
        tracer.install()
        client = run.Client(cli, tracer)
        try:
            client.run(Job(("witness", "2,0", "--count", "2", "--json"), {"exit": 0, "count": 2}))
        finally:
            tracer.uninstall()
        self.assertEqual(client.failures, [])
        names = {s[0] for s in tracer.spans}
        for boundary in ("cli.main", "invariants.witness", "invariants.pi", "sl2.is_invariant",
                         "poly.substitute", "metabelian.to_commutator_basis"):
            self.assertIn(boundary, names)
        self.assertTrue(all(s[3] >= 0 for s in tracer.spans if s[0] != "cli.main"))


if __name__ == "__main__":
    unittest.main()
