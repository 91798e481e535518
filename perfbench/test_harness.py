"""Self-tests of the benchmark's rules and parsers. The sample text below
was captured from the `qni` binary, so a change to its output format
fails here instead of skewing the numbers.

    python3 perfbench/test_harness.py
"""

import json
import unittest
from pathlib import Path

import harness as h
import traced
import workloads as wl
from harness import BenchError

INFER_OUT = """\
pooled over 1 chain(s) (master seed 3, per-chain seeds via split_seed)
sharded sweeps: 2 shard(s) requested, 1 worker(s) per chain (thread budget 1); results are byte-identical at any shard count
convergence: max split-R̂ = 2.3161 (NOT converged, >= 1.05 — rerun with more --iterations), min pooled ESS = 4.0
queue       split-R̂   pooled ESS
q0            0.7866          4.0
q1            2.2496          4.0
q2            1.2116          4.0
q3            2.3161          4.0
arrival rate λ̂ = 9.7469
queue        rate µ̂ mean service mean waiting
q1           11.6870       0.0856       0.2059
q2           13.3676       0.0748       0.1668
q3           17.9614       0.0557       0.0444
"""

WATCH_OUT = """\
watching s.jsonl (width 4, stride 2, 4 queues, poll 5 ms, stop after 2 idle polls, master seed 3)
window              span   tasks         λ̂ max split-R̂    min ESS      lag
w0      [   0.0,   4.0)      39    12.0174       1.6276        4.0     1.86
w1      [   2.0,   6.0)      39    14.1888       9.8482        4.0     1.86
w2      [   4.0,   8.0)      35     9.4754       2.7256        4.0     1.86
w3      [   6.0,  10.0)      41     8.9959       1.0366        4.0     1.86
tail drained: 480 records, 6 windows, peak 2 resident window(s), peak 46 buffered task(s), 0 quarantined line(s), 0 rotation(s), 0 retried poll(s)
fingerprint=a8855b8ca18a19fe
"""

STREAM_OUT = """\
streaming over 6 window(s) (width 4, stride 2, warm-start on, 1 chain(s), master seed 3; window w seeds via split_seed(seed, w))
window              span   tasks         λ̂ max split-R̂    min ESS
w0      [   0.0,   4.0)      39    12.0174       1.6276        4.0
w1      [   2.0,   6.0)      39    14.1888       9.8482        4.0
w2      [   4.0,   8.0)      35     9.4754       2.7256        4.0
w3      [   6.0,  10.0)      41     8.9959       1.0366        4.0
w4      [   8.0,  12.0)      46    10.7999      47.1201        4.0
w5      [  10.0,  14.0)      21     9.9621       1.2717        4.0
µ̂ q1: [13.426, 11.667, 13.628, 17.042, 13.408, 8.489]
µ̂ q2: [13.815, 19.037, 22.833, 16.593, 11.092, 7.224]
µ̂ q3: [34.774, 46.172, 23.796, 18.130, 20.052, 7.662]
fingerprint=a8855b8ca18a19fe
"""

TRAJ_CSV = """\
window,start,end,tasks,events,warm_started,carried,max_split_rhat,min_ess,wall_secs,rate_q0,rate_q1,rate_q2,rate_q3
0,0,4,39,156,false,false,1.6276114886399677,4,0.001246531,12.017395026851354,13.426144313927713,13.815039712413677,34.774256307403796
1,2,6,39,156,true,false,9.848240325535425,4,0.005301620999999999,14.188846635009948,11.667117573873629,19.0367033016233,46.17206637178545
"""


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertFalse(h.percentile_supported(99, 90))
        self.assertTrue(h.percentile_supported(100, 90))
        self.assertFalse(h.percentile_supported(19, 50))
        self.assertTrue(h.percentile_supported(20, 50))
        self.assertIsNone(h.percentile(list(range(99)), 90))
        with self.assertRaises(BenchError):
            h.percentile_ms([0.1] * 99, 90)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(h.percentile(values, 90), 90)
        self.assertEqual(h.percentile(values[::-1], 50), 50)

    def test_median(self):
        self.assertEqual(h.median([3, 1, 2]), 2)
        self.assertEqual(h.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(BenchError):
            h.median([])


class SelfTimes(unittest.TestCase):
    def span(self, i, parent, start, end):
        return {"id": i, "parent": parent, "start": start, "end": end}

    def test_nested(self):
        spans = [
            self.span(0, None, 0.0, 10.0),
            self.span(1, 0, 1.0, 4.0),
            self.span(2, 1, 2.0, 3.0),
            self.span(3, 0, 5.0, 6.0),
        ]
        got = h.self_times(spans)
        self.assertAlmostEqual(got[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(got[1], 3.0 - 1.0)
        self.assertAlmostEqual(got[2], 1.0)
        self.assertAlmostEqual(got[3], 1.0)

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [
            self.span(0, None, 0.0, 10.0),
            self.span(1, 0, 2.0, 6.0),
            self.span(2, 0, 4.0, 8.0),
            self.span(3, 0, 9.0, 12.0),
        ]
        self.assertAlmostEqual(h.self_times(spans)[0], 10.0 - 6.0 - 1.0)


class OpenLoop(unittest.TestCase):
    # Three tasks entering at 1, 5 and 9; each q0 line is 10 bytes and
    # starts its task's 20-byte block.
    entries = [1.0, 5.0, 9.0]
    line_ends = [10, 30, 50]

    def test_window_closes_on_the_chunk_holding_the_closing_q0_line(self):
        # Chunk 0 ends inside task 1's q0 line, so its record completes in
        # chunk 1.
        chunks = [25, 40, 60]
        got = h.closing_chunks([4.0, 5.0, 8.0, 12.0], self.entries, self.line_ends, chunks)
        self.assertEqual(got, [1, 1, 2, None])

    def test_latency_runs_from_due_time_not_write_time(self):
        # The closing chunk was due at t0 + 0.5 but written 0.3 s late:
        # the lateness counts against the program.
        lat = h.open_loop_latencies({7: 11.0}, {7: 1, 8: None}, 10.0, [0.0, 0.5])
        self.assertEqual(lat, {7: 0.5})

    def test_feed_plan_splits_only_q0_lines_and_covers_the_file(self):
        info = {"entries": [], "task_starts": [], "q0_line_ends": [], "bytes": 0}
        for k in range(3000):
            info["task_starts"].append(k * 100)
            info["q0_line_ends"].append(k * 100 + 40)
            info["entries"].append(k * 1.0)
        info["bytes"] = 3000 * 100
        backlog_end, ends, offsets, backlog_windows = wl.plan_feed(wl.WATCH, info, seed=3)
        self.assertEqual(backlog_end % 100, 0)
        self.assertGreater(backlog_windows, 0)
        self.assertEqual(ends[-1], info["bytes"])
        self.assertEqual(ends, sorted(ends))
        self.assertEqual(offsets, sorted(offsets))
        self.assertTrue(all(e % 100 == 0 or 0 < e % 100 < 40 for e in ends))
        self.assertTrue(any(e % 100 for e in ends), "no chunk ends mid-line")
        # Chunks of 30 tasks are 0.12 s apart before the seeded delay,
        # which moves each due time by less than one poll interval.
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        jitter = wl.WATCH.due_jitter_s
        self.assertTrue(all(abs(g - 0.12) < jitter for g in gaps))
        self.assertGreater(max(gaps) - min(gaps), jitter / 2)


class Parsers(unittest.TestCase):
    def test_infer_tables_are_told_apart(self):
        got = h.parse_infer(INFER_OUT)
        self.assertEqual(got["lambda"], 9.7469)
        self.assertEqual(got["mu"], [11.687, 13.3676, 17.9614])
        self.assertEqual(got["rhat"], [0.7866, 2.2496, 1.2116, 2.3161])

    def test_infer_format_change_fails_loudly(self):
        with self.assertRaises(BenchError):
            h.parse_infer(INFER_OUT.replace("arrival rate λ̂", "arrival λ̂"))
        with self.assertRaises(BenchError):
            h.parse_infer(INFER_OUT.replace("       0.0856", ""))
        with self.assertRaises(BenchError):
            h.parse_infer(INFER_OUT.replace("q2           13.3676", "q5           13.3676"))

    def test_window_rows(self):
        watch = [h.parse_window_line(l) for l in WATCH_OUT.splitlines()]
        self.assertEqual([w[0] for w in watch if w], [0, 1, 2, 3])
        self.assertEqual(watch[2], (0, 0.0, 4.0, 39, 12.0174))
        stream = [h.parse_window_line(l) for l in STREAM_OUT.splitlines()]
        self.assertEqual([w[0] for w in stream if w], [0, 1, 2, 3, 4, 5])

    def test_fingerprint(self):
        self.assertEqual(h.parse_fingerprint(WATCH_OUT), "a8855b8ca18a19fe")
        self.assertEqual(h.parse_fingerprint(STREAM_OUT), h.parse_fingerprint(WATCH_OUT))
        with self.assertRaises(BenchError):
            h.parse_fingerprint(WATCH_OUT.replace("fingerprint=", "digest="))

    def test_trajectory_csv(self):
        rows = h.parse_trajectory_csv(TRAJ_CSV, 4)
        self.assertEqual([r["window"] for r in rows], [0, 1])
        self.assertEqual(rows[1]["rates"][0], 14.188846635009948)
        self.assertFalse(rows[0]["carried"])
        with self.assertRaises(BenchError):
            h.parse_trajectory_csv(TRAJ_CSV.replace("rate_q3", "rate_x"), 4)

    def test_rel_err(self):
        self.assertAlmostEqual(h.rel_err([11.0, 7.0], [10.0, 14.0]), (0.1 + 0.5) / 2)


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_runs_report(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        doc = json.loads(path.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], wl.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], traced.PER_LAYER)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         ["infer-tandem", "infer-forkjoin-sharded", "watch-live"])


if __name__ == "__main__":
    unittest.main()
