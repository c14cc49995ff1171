"""Self-checks of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_matches_statistics_inclusive_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.9, 0.2]
        q = statistics.quantiles(values, n=100, method="inclusive")
        for p in (5, 25, 50, 75, 95, 99):
            self.assertAlmostEqual(stats.percentile(values, p), q[p - 1])

    def test_median_of_even_list_is_mean_of_middle_pair(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)

    def test_endpoints_are_min_and_max(self):
        self.assertEqual(stats.percentile([5, 9, 7], 0), 5)
        self.assertEqual(stats.percentile([5, 9, 7], 100), 9)

    def test_p95_of_twenty_interpolates_between_the_top_two(self):
        values = list(range(1, 21))  # 1..20
        self.assertAlmostEqual(stats.percentile(values, 95), 19.05)

    def test_empty_list_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class WindowedPercentile(unittest.TestCase):
    def test_one_bad_window_does_not_move_the_median(self):
        quiet = [1.0] * 100
        burst = [50.0] * 100
        values = quiet + burst + quiet
        self.assertEqual(stats.windowed_percentile(values, 100, 95), 1.0)
        self.assertEqual(stats.percentile(values, 95), 50.0)

    def test_partial_last_window_is_dropped(self):
        values = [1.0] * 10 + [2.0] * 10 + [100.0] * 5
        self.assertEqual(stats.windowed_percentile(values, 10, 50), 1.5)

    def test_falls_back_to_plain_percentile_without_a_full_window(self):
        values = [1.0, 2.0, 3.0]
        self.assertEqual(stats.windowed_percentile(values, 10, 50), 2.0)
        self.assertEqual(stats.windowed_percentile(values, 0, 50), 2.0)


class Throughput(unittest.TestCase):
    def test_total_units_over_total_time(self):
        self.assertAlmostEqual(stats.throughput(8, [0.5, 1.0, 1.5]), 8 * 3 / 3.0)

    def test_falls_when_only_the_slow_ops_get_slower(self):
        # Every fourth op doubling leaves the median op time where it was,
        # but the rate of work done falls by a fifth.
        before = [1.0] * 40
        after = [2.0 if i % 4 == 3 else 1.0 for i in range(40)]
        self.assertEqual(statistics.median(before), statistics.median(after))
        self.assertAlmostEqual(stats.throughput(1, after) / stats.throughput(1, before), 0.8)

    def test_no_ops_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.throughput(1, [])


class DueTimeLatency(unittest.TestCase):
    def test_latency_runs_from_due_time_not_send_time(self):
        # Requests due every 1 ms; a 5 ms generator stall sends request 1
        # late, and the server then answers each in 0.5 ms after sending.
        due = [0, 1_000_000, 2_000_000]
        sent = [0, 6_000_000, 6_000_000]
        recv = [s + 500_000 for s in sent]
        lat = stats.due_time_latencies(due, recv)
        self.assertAlmostEqual(lat[0], 0.0005)
        self.assertAlmostEqual(lat[1], 0.0055)  # charged the stall
        self.assertAlmostEqual(lat[2], 0.0045)

    def test_length_mismatch_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.due_time_latencies([0, 1], [2])


class FailRatio(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.fail_ratio(0, 40), 0.0)
        self.assertEqual(stats.fail_ratio(3, 12), 0.25)

    def test_rejects_impossible_counts(self):
        for failed, attempted in ((1, 0), (-1, 5), (6, 5)):
            with self.assertRaises(ValueError):
                stats.fail_ratio(failed, attempted)


class Spread(unittest.TestCase):
    def test_interquartile_distance_over_median(self):
        values = [10, 10, 10, 10, 12, 12, 12, 12]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)
        self.assertEqual(stats.spread([5.0] * 6), 0.0)


class SelfTime(unittest.TestCase):
    def span(self, i, parent, name, ts, dur):
        return {"id": i, "parent": parent, "name": name, "ts": ts, "dur": dur}

    def test_self_time_is_span_minus_children(self):
        spans = [self.span(0, -1, "op", 0, 100),
                 self.span(1, 0, "call", 10, 30),
                 self.span(2, 0, "call", 50, 20),
                 self.span(3, 1, "kernel", 15, 10)]
        st = stats.self_times(spans)
        self.assertEqual(st["op"], 50)       # 100 - 30 - 20
        self.assertEqual(st["call"], 40)     # (30 - 10) + 20
        self.assertEqual(st["kernel"], 10)

    def test_overlapping_children_are_counted_once(self):
        # Two children on different threads overlap in [20, 30).
        spans = [self.span(0, -1, "op", 0, 50),
                 self.span(1, 0, "a", 10, 20),
                 self.span(2, 0, "b", 20, 20)]
        self.assertEqual(stats.self_times(spans)["op"], 20)  # 50 - [10, 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [self.span(0, -1, "op", 0, 10), self.span(1, 0, "late", 5, 20)]
        self.assertEqual(stats.self_times(spans)["op"], 5)


if __name__ == "__main__":
    unittest.main()
