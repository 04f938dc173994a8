"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import analysis

MS = 1_000_000  # nanoseconds


class PercentileRuleTest(unittest.TestCase):
    def test_reports_only_with_ten_samples_beyond(self):
        self.assertEqual(analysis.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(analysis.percentile(list(range(1, 20)), 0.5))
        self.assertEqual(analysis.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(analysis.percentile(list(range(999)), 0.99))
        self.assertIsNone(analysis.percentile([], 0.5))

    def test_order_of_samples_does_not_matter(self):
        values = [5, 3, 9, 1, 7] * 6
        self.assertEqual(analysis.percentile(values, 0.5),
                         analysis.percentile(sorted(values), 0.5))

    def test_histogram_uses_the_same_rule(self):
        buckets = [[0.001, 10], [0.002, 10], [0.004, 0]]
        self.assertEqual(analysis.histogram_percentile(buckets, 0.5), 0.001)
        self.assertIsNone(analysis.histogram_percentile(buckets, 0.99))


class SelfTimeTest(unittest.TestCase):
    def test_pool_children_overlapping_each_other_count_once(self):
        spans = [
            ("exec.joins", "exec", 1, 0, 100),
            ("exec.node_joins", "exec", 2, 10, 40),   # [10, 50)
            ("exec.node_joins", "exec", 3, 30, 40),   # [30, 70)
            ("exec.view_merge", "exec", 1, 80, 10),   # same-thread child
        ]
        parents = analysis.span_tree(spans, control_tid=1)
        self.assertEqual(parents, [None, 0, 0, 0])
        self_ns = analysis.self_times(spans, parents)
        self.assertEqual(self_ns[0], 100 - 60 - 10)
        self.assertEqual(self_ns[1:], [40, 40, 10])

    def test_child_running_past_its_parent_is_clipped(self):
        spans = [("a", "maint", 1, 0, 50), ("b", "maint", 2, 40, 20)]
        # b does not fit inside a, so it is not a's child at all.
        self.assertEqual(analysis.span_tree(spans, 1), [None, None])
        self.assertEqual(analysis.union_length([(0, 10), (5, 20), (30, 40)]),
                         30)

    def test_pool_span_is_adopted_by_innermost_control_span(self):
        spans = [
            ("maint.batch", "maint", 1, 0, 100),
            ("exec.joins", "exec", 1, 5, 90),
            ("exec.view_merge", "exec", 1, 96, 2),
            ("exec.node_joins", "exec", 7, 10, 10),
        ]
        self.assertEqual(analysis.span_tree(spans, 1), [None, 0, 0, 1])

    def test_benchmark_reader_spans_stay_roots(self):
        spans = [
            ("bench.maintain", "bench", 1, 0, 100),
            ("bench.query", "bench", 4, 10, 5),
            ("serve.query", "serve", 4, 11, 3),
        ]
        parents = analysis.span_tree(spans, 1)
        self.assertEqual(parents, [None, None, 1])
        self.assertEqual(analysis.root_of(2, parents), 1)

    def test_control_thread_node_join_is_a_sibling_of_pool_node_joins(self):
        # ParallelFor has the calling thread drain tasks too: the pool's node
        # join on tid 2 runs inside the control thread's own node join.
        spans = [
            ("exec.joins", "exec", 1, 0, 100),
            ("exec.node_joins", "exec", 1, 0, 90),
            ("exec.node_joins", "exec", 2, 10, 30),
            ("exec.node_joins", "exec", 3, 5, 95),
        ]
        parents = analysis.span_tree(spans, control_tid=1)
        self.assertEqual(parents, [None, 0, 0, 0])
        self.assertEqual(analysis.self_times(spans, parents),
                         [0, 90, 30, 95])
        self.assertAlmostEqual(analysis.join_skew(spans, parents),
                               95 / ((90 + 30 + 95) / 3))

    def test_pool_task_skips_spans_inside_the_control_threads_task(self):
        spans = [
            ("exec.joins", "exec", 1, 0, 100),
            ("exec.node_joins", "exec", 1, 0, 90),
            ("join.kernel", "join", 1, 5, 50),
            ("exec.node_joins", "exec", 2, 10, 30),
        ]
        parents = analysis.span_tree(spans, control_tid=1)
        self.assertEqual(parents, [None, 0, 1, 0])

    def test_skew_groups_node_joins_by_their_phase(self):
        spans = [
            ("exec.joins", "exec", 1, 0, 100),
            ("exec.node_joins", "exec", 2, 0, 90),
            ("exec.node_joins", "exec", 3, 0, 30),
            ("exec.joins", "exec", 1, 200, 100),
            ("exec.node_joins", "exec", 2, 200, 50),
            ("exec.node_joins", "exec", 3, 200, 50),
        ]
        parents = analysis.span_tree(spans, 1)
        self.assertAlmostEqual(analysis.join_skew(spans, parents),
                               (1.5 + 1.0) / 2)

    def test_skew_is_slowest_over_mean_node(self):
        spans = [
            ("exec.joins", "exec", 1, 0, 100),
            ("exec.node_joins", "exec", 2, 0, 90),
            ("exec.node_joins", "exec", 3, 0, 30),
        ]
        parents = analysis.span_tree(spans, 1)
        self.assertAlmostEqual(analysis.join_skew(spans, parents), 1.5)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time_and_lateness_separately(self):
        # Due every 10 ms; the first query stalls for 25 ms, so the next
        # two start late. Latency includes the wait behind the stall.
        queries = [
            (0 * MS, 0 * MS, 25 * MS, True),
            (10 * MS, 25 * MS, 26 * MS, True),
            (20 * MS, 26 * MS, 27 * MS, True),
            (30 * MS, 30 * MS, 31 * MS, True),
        ]
        latency, lateness = analysis.open_loop(queries)
        self.assertEqual([round(x * 1e3, 6) for x in latency],
                         [25.0, 16.0, 7.0, 1.0])
        self.assertEqual([round(x * 1e3, 6) for x in lateness],
                         [0.0, 15.0, 6.0, 0.0])

    def test_failed_or_slow_queries_miss(self):
        # Readers due every 10 ms: a query slower than 10 ms misses.
        sequence = dict(delete_s=[], attempted=1010, failed=1,
                        batch_s=[0.1] * 10)
        queries = [(0, 0, 1 * MS, True)] * 997 + [
            (0, 0, 2 * MS, False),
            (0, 0, 10 * MS, True),
            (0, 0, 11 * MS, True),
        ]
        raw = {"sequences": [sequence], "queries": queries,
               "config": {"reader_hz": 100.0},
               "provenance": {"reader_threads": 2}}
        self.assertEqual(analysis.query_limit_ms(raw), 10.0)
        outcomes = analysis.serving(raw)
        self.assertAlmostEqual(outcomes["query_miss_frac"][0], 2 / 1000)
        self.assertAlmostEqual(outcomes["failed_frac"][0], 1 / 1010)
        self.assertEqual(outcomes["query_p99_ms"][0], 1.0)
        self.assertEqual(analysis.outcome_counts(raw), (1010, 1))

    def test_saturation_is_closed_loop_throughput(self):
        raw = {"sequences": [dict(delete_s=[], attempted=1, failed=0,
                                  batch_s=[])],
               "queries": [], "config": {"reader_hz": 100.0},
               "provenance": {"reader_threads": 2},
               "calibration": {"wall_s": 0.5, "service_s": [0.001] * 1000}}
        outcomes = analysis.serving(raw)
        self.assertEqual(outcomes["serve.closed_loop_p50_ms"][0], 1.0)
        self.assertEqual(outcomes["serve.saturation_hz"][0], 2000.0)
        self.assertEqual(outcomes["serve.offered_load_frac"][0], 0.1)


class EndToEndTest(unittest.TestCase):
    @staticmethod
    def sequence(seed, wall, sim, batch_s=None):
        batch_s = batch_s or [wall / 10] * 10
        return dict(seed=seed, generate_s=0.1, ingest_s=0.2, materialize_s=0.3,
                    buffer_register_s=0.0, maint_wall_s=sum(batch_s),
                    cells=100, sim_makespan_s=sim, batch_s=batch_s,
                    delete_s=[], publish_s=[], rebalance_s=[],
                    peak_rss_bytes=3 << 20)

    def test_means_over_datasets(self):
        raw = {"sequences": [self.sequence(1, 1.0, 1.0),
                             self.sequence(2, 2.0, 3.0),
                             self.sequence(3, 4.0, 2.0)],
               "config": {"datasets": 3}}
        m = analysis.end_to_end(raw)
        self.assertAlmostEqual(m["setup_s"][0], 0.6)
        self.assertAlmostEqual(m["maint_wall_s"][0], 7.0 / 3)
        self.assertAlmostEqual(m["maint_cells_per_s"][0], 300 / 7.0)
        self.assertEqual(m["batch_p50_s"][0], 0.2)
        self.assertEqual(m["sim_makespan_s"][0], 2.0)
        self.assertEqual(m["peak_rss_mib"][0], 3.0)

    def test_every_call_takes_its_fastest_repeat(self):
        # Dataset 1 ran slowly the first time. Dataset 2's second repeat is
        # slower overall, yet its first five batches ran faster there.
        slow1 = self.sequence(1, 3.0, 1.0)
        slow2 = self.sequence(2, 0.0, 1.0, batch_s=[0.1] * 5 + [0.7] * 5)
        slow1["generate_s"] = slow2["generate_s"] = 0.5
        seqs = [slow1, self.sequence(2, 2.0, 1.0),
                self.sequence(1, 1.0, 1.0), slow2]
        raw = {"sequences": seqs, "config": {"datasets": 2}}
        m = analysis.end_to_end(raw)
        self.assertAlmostEqual(m["setup_s"][0], 0.6)
        # Dataset 1: 10 x 0.1; dataset 2: 5 x 0.1 + 5 x 0.2.
        self.assertAlmostEqual(m["maint_wall_s"][0], (1.0 + 1.5) / 2)
        self.assertAlmostEqual(analysis.best_wall_s(raw), 1.25)
        self.assertAlmostEqual(m["maint_cells_per_s"][0], 200 / 2.5)
        self.assertEqual(m["batch_p50_s"][0], 0.1)

    def test_wall_sums_every_kind_of_call(self):
        group = [dict(batch_s=[1.0, 3.0], delete_s=[1.0, 1.0], publish_s=[],
                      rebalance_s=[0.25]),
                 dict(batch_s=[2.0, 1.0], delete_s=[0.5, 2.0], publish_s=[],
                      rebalance_s=[0.5])]
        self.assertEqual(analysis.fastest_total_s(group, analysis.MAINT_CALLS),
                         2.0 + 1.5 + 0.25)

    def test_makespan_counts_each_dataset_once(self):
        # Two rounds over two datasets, then a third, partial round: the
        # makespan stays the mean over the two datasets.
        seqs = [self.sequence(seed, 1.0, sim)
                for seed, sim in ((1, 1.0), (2, 4.0)) * 2 + ((1, 1.0),)]
        m = analysis.end_to_end({"sequences": seqs,
                                 "config": {"datasets": 2}})
        self.assertEqual(m["sim_makespan_s"][0], 2.5)
        with self.assertRaises(ValueError):
            analysis.end_to_end({"sequences": seqs[:1],
                                 "config": {"datasets": 2}})


if __name__ == "__main__":
    unittest.main()
