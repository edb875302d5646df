"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The checker test builds the harness (as run.py does) the first time.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import metrics as M  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent=-1, **kw):
    return dict(name=name, start=start, end=end, parent=parent, job=0, **kw)


class SelfTime(unittest.TestCase):
    def test_child_time_is_subtracted_from_the_parent(self):
        spans = [
            span("bench.job", 0, 100),
            span("syntax.parse", 10, 30, parent=0),
            span("interp.cek", 30, 90, parent=0),
        ]
        by_name, by_layer = M.self_times(spans)
        self.assertEqual(by_name["bench.job"], 100 - 20 - 60)
        self.assertEqual(by_name["syntax.parse"], 20)
        self.assertEqual(by_layer["interp"], 60)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            span("bench.job", 0, 100),
            span("compile.bytecode", 0, 50, parent=0),
            span("compile.lower", 10, 20, parent=1),
        ]
        by_name, by_layer = M.self_times(spans)
        self.assertEqual(by_name["bench.job"], 50)
        self.assertEqual(by_name["compile.bytecode"], 40)
        self.assertEqual(by_layer["compile"], 50)

    def test_excluded_time_moves_to_its_layer(self):
        spans = [
            span("bench.job", 0, 100),
            span("interp.vm_reg", 0, 80, parent=0, excl=30,
                 excl_name="monitor.hooks"),
        ]
        by_name, by_layer = M.self_times(spans)
        self.assertEqual(by_name["interp.vm_reg"], 50)
        self.assertEqual(by_layer["monitor"], 30)
        self.assertEqual(sum(by_layer.values()), 100)


class Percentiles(unittest.TestCase):
    def test_p99_of_1000_samples_has_ten_beyond(self):
        xs = list(range(1, 1001))
        value, beyond = M.percentile(xs, 99)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)
        self.assertEqual(M.tail_percentile(xs), 990)

    def test_p99_with_too_few_samples_is_refused(self):
        self.assertIsNone(M.tail_percentile(list(range(999))))

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(M.percentile(xs, 50)[0], 3.0)

    def test_rank_is_exact_for_round_quantiles(self):
        self.assertEqual(M.percentile(list(range(1, 10001)), 99.9),
                         (9990, 10))

    def test_segment_medians_ignore_a_slow_segment(self):
        # Five 1-s segments of 100 jobs each, except one with 50 jobs.
        t, lat = [], []
        for seg in range(5):
            n = 50 if seg == 2 else 100
            t += [seg + (i + 1) / n for i in range(n)]
            lat += [4.0 if seg == 2 else 2.0] * n
        rate, steps, p50 = M.segment_medians(t, [10.0] * len(t), lat)
        self.assertEqual((rate, steps, p50), (100.0, 1000.0, 2.0))

    def test_segment_rates_per_second_of_job_time(self):
        t = [i / 100.0 for i in range(1, 501)]
        _, _, p50 = M.segment_medians(t, [1.0] * 500, [2.0] * 500)
        rate, steps, _ = M.segment_medians(t, [1.0] * 500, [2.0] * 500,
                                           busy=[0.002] * 500)
        self.assertAlmostEqual(rate, 500.0)
        self.assertAlmostEqual(steps, 500.0)
        self.assertEqual(p50, 2.0)

    def test_host_drift_is_divided_out(self):
        # The host slows by half midway; the job and reference slow with it.
        ref = [0.2] * 100 + [0.3] * 100
        lat = [1.0] * 100 + [1.5] * 100
        out = M.host_normalized(lat, ref, 0.25, window=5)
        self.assertTrue(all(abs(x - 1.25) < 1e-12 for x in out[:98]))
        self.assertTrue(all(abs(x - 1.25) < 1e-12 for x in out[102:]))

    def test_host_normalization_keeps_a_slower_program(self):
        ref = [0.25] * 50
        self.assertEqual(M.host_normalized([2.0] * 50, ref, 0.25),
                         [2.0] * 50)

    def test_sparse_references_apply_to_the_jobs_near_them(self):
        # References before jobs 0 and 4 (each "round" is four jobs).
        out = M.host_normalized([2.0] * 8, [50.0, 200.0], 100.0,
                                at=[0, 4], window=1)
        self.assertEqual(out, [4.0] * 4 + [1.0] * 4)

    def test_quartile_spread_matches_statistics(self):
        xs = [10.0, 11.0, 9.5, 10.5, 10.2, 9.9, 10.1, 10.4, 9.8, 10.3]
        med, q1, q3, spread = M.quartile_spread(xs)
        e1, _, e3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q3), (e1, e3))
        self.assertAlmostEqual(spread, (e3 - e1) / statistics.median(xs))


class Contract(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py prints."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def fake_record(self):
        lat = [float(i) for i in range(1, 2001)]
        nums = {"jobs": 2000, "wall_s": 10.0, "steps": 1e9,
                "peak_rss_mb": 50.0, "traced.jobs": 1, "traced.wall_s": 1.0,
                "untraced.jobs": 1, "untraced.wall_s": 1.0,
                "traced.events": 10.0}
        arrays = {"latency_ms": lat, "latency_ms_low": lat,
                  "latency_ms_high": lat,
                  "job_t_s": [i / 200.0 for i in range(1, 2001)],
                  "job_steps": [1000.0] * 2000}
        return {"nums": nums, "arrays": arrays, "failed": 0,
                "attempted": 2000}

    def test_end_to_end_names_and_units(self):
        got = run.end_to_end(self.fake_record(), [1.0])
        want = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual({k: u for k, (u, _) in got.items()}, want)
        self.assertTrue(all(v > 0 for _, v in got.values()))

    def test_cli_corpus_record_gives_the_same_names(self):
        rec = self.fake_record()
        a = rec["arrays"]
        del a["latency_ms_low"], a["latency_ms_high"]
        a["host_ref_ms"] = [run.HOST_REF_MS] * 2000
        a["job_heavy"] = [i % 2 for i in range(2000)]
        a["job_cold"] = [i % 100 == 0 for i in range(2000)]
        a["cc_ref_ms"] = [run.CC_REF_MS] * 14
        a["cc_ref_at"] = [i * 142 for i in range(14)]
        got = run.end_to_end(rec, [1.0])
        want = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual({k: u for k, (u, _) in got.items()}, want)
        # A host as fast as the reference host leaves the latencies alone.
        plain = run.end_to_end(self.fake_record(), [1.0])
        for k in ("latency_ms_p50", "latency_ms_p99"):
            self.assertAlmostEqual(got[k][1], plain[k][1])

    def test_per_layer_names_and_units(self):
        got, _, _ = run.per_layer("monitored", self.fake_record(), [])
        want = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual({k: u for k, (u, _) in got.items()}, want)


@unittest.skipUnless(shutil.which("cmake"), "needs cmake to build")
class Checker(unittest.TestCase):
    def test_checker_rejects_deliberately_wrong_outputs(self):
        out = subprocess.run([sys.executable,
                              os.path.join(PERFBENCH, "run.py"),
                              "--selftest"], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("ok   a wrong answer is rejected", out.stdout)
        self.assertNotIn("FAIL", out.stdout)


if __name__ == "__main__":
    unittest.main()
