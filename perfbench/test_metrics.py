#!/usr/bin/env python3
"""Tests of the benchmark's reference and metric code on inputs small enough
to check by hand.

    python3 perfbench/test_metrics.py
"""

import os
import struct
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
import run  # noqa: E402

# (ts_ns, len): two records in window 0, one in window 1, none in window 2,
# one in window 3 (1 s windows).
RECORDS = [(100000000, 100), (500000000, 40), (1200000000, 1500), (3000000000, 60)]
EXPECTED = [(2, 140), (1, 1500), (0, 0), (1, 60)]


def trace_bytes(records):
    out = b"SOPTRC01" + struct.pack("<Q", len(records))
    for ts, ln in records:
        out += struct.pack("<QIIHHHBB", ts, 1, 2, 3, 4, ln, 6, 0)
    return out


def pcap_bytes(records):
    out = struct.pack("<IHHIIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
    for ts, ln in records:
        ip = bytes([0x45, 0]) + struct.pack(">H", ln) + bytes(5) + bytes([6]) \
            + bytes(2) + struct.pack(">II", 1, 2) + struct.pack(">HH", 3, 4)
        out += struct.pack("<IIII", ts // 10**9, ts % 10**9, len(ip), ln) + ip
    return out


class ReferenceTest(unittest.TestCase):
    def test_trace_windows(self):
        self.assertEqual(metrics.trace_windows(trace_bytes(RECORDS), 10**9), EXPECTED)

    def test_pcap_windows(self):
        self.assertEqual(metrics.pcap_windows(pcap_bytes(RECORDS), 10**9), EXPECTED)

    def test_rejects_unsorted_and_foreign_files(self):
        with self.assertRaises(ValueError):
            metrics.trace_windows(trace_bytes(RECORDS[::-1]), 10**9)
        with self.assertRaises(ValueError):
            metrics.pcap_windows(trace_bytes(RECORDS), 10**9)


class StatisticsTest(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(metrics.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertAlmostEqual(metrics.quantile([1, 2, 3, 4], 0.9), 3.7)
        self.assertEqual(metrics.quantile([7], 0.9), 7)

    def test_block_quantile(self):
        # Blocks of 4: [1..4] -> 2.5, [10..40] -> 25, [5..9] (leftover 9
        # joins the last block) -> 7; the median of the three is 7.
        values = [1, 2, 3, 4, 10, 20, 30, 40, 5, 6, 7, 8, 9]
        self.assertEqual(metrics.block_quantile(values, 0.5, 4), 7)
        self.assertEqual(metrics.block_quantile([3, 1, 2], 0.5, 4), 2)

    def test_spread(self):
        # quantiles(n=4) of 1..5: q1 = 1.5, median 3, q3 = 4.5.
        self.assertEqual(metrics.spread([5, 1, 4, 2, 3]), 1.0)

    def test_estimate_errors(self):
        self.assertEqual(metrics.estimate_errors([110, 90, 5], [100, 100, 0]),
                         [0.1, -0.1, 0.0])

    def test_error_ceiling(self):
        # k / sqrt(100) = 0.6 per window; both within, mean 0.
        self.assertEqual(metrics.error_check([0.1, -0.1], [100, 100]), ([], None))
        bad, mean = metrics.error_check([0.7, 0.0], [100, 100])
        self.assertEqual([w for w, _ in bad], [0])
        # Each 0.5 is within 0.6, but the mean 0.5 exceeds
        # 6 * sqrt((1/100 + 1/100) / 2 / 2) = 0.424.
        bad, mean = metrics.error_check([0.5, 0.5], [100, 100])
        self.assertEqual(bad, [])
        self.assertIsNotNone(mean)


class LedgerTest(unittest.TestCase):
    def test_self_time_subtracts_covered_union(self):
        spans = [("round", -1, 0, 100), ("a", 0, 10, 30), ("b", 0, 25, 50),
                 ("a", 0, 60, 70)]
        # Children cover [10, 50) and [60, 70): 50 of the root's 100.
        self.assertEqual(metrics.self_times(spans), [50, 20, 25, 10])
        by_name, unattributed = metrics.ledger(spans, 0)
        self.assertEqual(by_name, {"a": 30, "b": 25})
        self.assertEqual(unattributed, 0.5)


class RoundCheckTest(unittest.TestCase):
    def report(self, windows):
        return {"ok": True, "records": 3, "gaps": 0, "gap_records": 0, "duplicates": 0,
                "malformed_frames": 0, "malformed_records": 0, "reconnects": 0,
                "digest": "d", "windows": windows, "windows_flushed": 2,
                "ckpt_files": 0, "ckpt_verified": 0, "ckpt_consecutive": True}

    def test_paced_latency_starts_at_due_tick(self):
        ref = [(2, 1000), (1, 500)]
        # Window 0 is closed by a record at ts 1.00025 s, due 100.025 ms
        # after t0 at speed-up 10. The sender's 0.1 ms tick sends it at
        # 100.1 ms, and the window's rows were drained 2 ms after that tick.
        # Window 1 ends the stream.
        tick = 5000 + 100100000
        wins = [[0, 2, 100, 1000.0, 10**9 + 250000, tick + 10**6, tick + 2 * 10**6],
                [1, 1, 100, 500.0, 0, 0, 9 * 10**8]]
        sent = {"records": 3, "t0_ns": 5000, "ts0_ns": 0, "tick_ns": 100000,
                "speedup": 10, "lateness_p90_ms": 0.01}
        cfg = dict(run.WORKLOADS["tcp_paced_durable"])
        bad, fatal, lat, signed, lost, unclosed = run.check_round(
            cfg, self.report(wins), sent, ref, "d")
        self.assertEqual((bad, fatal, signed, lost, unclosed), ({}, [], [0.0, 0.0], 0, 0))
        self.assertEqual(lat, [2.0])
        # A sender whose lateness is not far below the latency voids the run.
        sent["lateness_p90_ms"] = 1.0
        _, fatal, _, _, _, _ = run.check_round(cfg, self.report(wins), sent, ref, "d")
        self.assertTrue(any("lateness" in f for f in fatal))
        # Closed-loop workloads time from the record's arrival instead.
        _, _, lat, _, _, _ = run.check_round(
            dict(run.WORKLOADS["pcap_subsetsum"]), self.report(wins), None, ref, None)
        self.assertEqual(lat, [1.0])

    def test_lost_records_and_foreign_rows_fail(self):
        ref = [(2, 1000), (1, 500)]
        wins = [[0, 1, 100, 1000.0, 0, 0, 1], [1, 1, 0, 0.0, 0, 0, 0]]
        rep = self.report(wins)
        rep["records"] = 2
        bad, fatal, _, _, lost, unclosed = run.check_round(
            dict(run.WORKLOADS["pcap_subsetsum"]), rep, None, ref, "other")
        self.assertEqual(sorted(bad), [0, 1])
        self.assertEqual((lost, unclosed), (1, 1))
        self.assertTrue(any("delivered 2 of 3" in f for f in fatal))
        self.assertTrue(any("differ from the reference" in f for f in fatal))


if __name__ == "__main__":
    unittest.main()
