"""Self-check of the benchmark's statistics (stats.py). run.py runs it
before every measurement; it also runs alone:

  python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile(reversed(values), 1), 1)
        self.assertIsNone(stats.percentile([], 50))

    def test_small_samples_read_the_top(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 99), 3.0)

    def test_beyond_counts_samples_above(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(1000, 99.9), 1)
        self.assertEqual(stats.beyond(0, 50), 0)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class WindowTest(unittest.TestCase):
    def test_median_over_windows(self):
        calm = list(range(1, 101))            # p90 = 90
        burst = [x + 1000 for x in calm]      # p90 = 1090
        values = calm + calm + burst + [5000]  # the 5000 tail is dropped
        p50, p90 = stats.windowed_percentiles(values, 100, (50, 90))
        self.assertEqual(p90, 90)
        self.assertEqual(p50, 50)

    def test_short_sample_is_one_window(self):
        # One request short of a window: read as one window, not dropped.
        values = list(range(1, 1000))
        p50, p90 = stats.windowed_percentiles(values, 1000, (50, 90))
        self.assertEqual((p50, p90), (500, 900))

    def test_unsupported_percentile_raises(self):
        with self.assertRaises(ValueError):
            stats.windowed_percentiles(list(range(999)), 1000, (50, 99))
        with self.assertRaises(ValueError):
            stats.windowed_percentiles([], 1000, (50,))


class PassPercentileTest(unittest.TestCase):
    def test_pools_unlike_queries(self):
        # Two queries of 10 ms and 100 ms, each ranging +-10% around its
        # median: one pass takes 110 ms at the median.
        fast = [10.0 * (0.9 + 0.2 * i / 99) for i in range(100)]
        slow = [10.0 * x for x in fast]
        p50, p90 = stats.pass_percentiles({0: fast, 1: slow}, (50, 90))
        self.assertAlmostEqual(p50, 110.0, delta=0.5)
        self.assertGreater(p90, p50)
        self.assertLess(p90, 110.0 * 1.1)

    def test_thin_sample_raises(self):
        # 2 x 49 = 98 samples leave 9 beyond the p90.
        sample = {0: [1.0] * 49, 1: [2.0] * 49}
        with self.assertRaises(ValueError):
            stats.pass_percentiles(sample, (50, 90))
        self.assertEqual(stats.pass_percentiles(sample, (50,)), (3.0,))


class BacklogTest(unittest.TestCase):
    @staticmethod
    def steady(rate, latency, seconds):
        step = 1.0 / rate
        return [(i * step, i * step + latency)
                for i in range(int(rate * seconds))]

    def test_steady_service_does_not_grow(self):
        intervals = self.steady(1000, 0.002, 2.0)
        self.assertAlmostEqual(stats.backlog_growth(intervals, 0, 2.0), 0.0,
                               delta=1.0)
        self.assertFalse(stats.backlog_grows(intervals, 0, 2.0))

    def test_overload_grows(self):
        # 1000/s arrive, 800/s are served in order: 200/s pile up.
        intervals = [(i / 1000.0, (i + 1) / 800.0) for i in range(2000)]
        self.assertAlmostEqual(stats.backlog_growth(intervals, 0, 2.0), 400,
                               delta=20)
        self.assertTrue(stats.backlog_grows(intervals, 0, 2.0))

    def test_unanswered_requests_stay_in_the_backlog(self):
        intervals = self.steady(1000, 0.002, 1.0)
        intervals += [(0.5 + i / 1000.0, None) for i in range(100)]
        self.assertTrue(stats.backlog_grows(intervals, 0, 1.0))


class LadderTest(unittest.TestCase):
    @staticmethod
    def rung(rate, p99, n=2000, failed=0, growing=False):
        return {"rate": rate, "p99_ms": p99, "n": n, "failed": failed,
                "growing": growing}

    def test_interpolates_toward_the_first_failing_rung(self):
        rungs = [self.rung(1000, 5), self.rung(2000, 10), self.rung(3000, 40)]
        # Limit 20 lies halfway between 10 and 40 on a log scale.
        self.assertAlmostEqual(stats.max_rate_at_slo(rungs, 20), 2500)

    def test_top_rung_passing_reads_its_rate(self):
        rungs = [self.rung(1000, 5), self.rung(2000, 10)]
        self.assertEqual(stats.max_rate_at_slo(rungs, 20), 2000)

    def test_failures_growth_and_thin_samples_fail_a_rung(self):
        self.assertFalse(stats.rung_passes(self.rung(1, 5, failed=1), 20))
        self.assertFalse(stats.rung_passes(self.rung(1, 5, growing=True), 20))
        self.assertFalse(stats.rung_passes(self.rung(1, 5, n=999), 20))
        self.assertTrue(stats.rung_passes(self.rung(1, 5, n=1000), 20))

    def test_highest_passing_rung_wins_over_a_spike_below(self):
        rungs = [self.rung(1000, 50), self.rung(2000, 10),
                 self.rung(3000, 200)]
        self.assertGreater(stats.max_rate_at_slo(rungs, 20), 2000)

    def test_no_passing_rung_is_zero(self):
        self.assertEqual(stats.max_rate_at_slo([self.rung(1000, 50)], 20), 0.0)


if __name__ == "__main__":
    unittest.main()
