#!/usr/bin/env python3
"""End-to-end benchmark of the streamop engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the engine and the
benchmark's tools from source into .bench_build/ (see CMakeLists.txt); later
calls reuse the build. Each workload runs as real processes: a generator
process writes the input, a sender process streams it over loopback TCP (or
the engine reads the pcap file the generator wrote), and one engine process
per round runs the two-level pipeline and reports what it saw. Rounds repeat
until --seconds have passed. The benchmark checks every round's output
against reference figures it computes from the generated files itself, and
prints as its last line one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ledger of a separate traced run.
README.md describes the workloads, the metrics and reference figures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
WINDOW_SEC = 1
WINDOW_NS = WINDOW_SEC * 1000000000
N_SAMPLES = 200   # N: samples per window of the high-level subset-sum
# Fig. 6 pre-sampling threshold: 1/10 of the level the dynamic sampler
# settles at on the data-center feed, 100k pkt/s x 523 B mean length
# (the generator's trimodal length mix) per window, over N samples.
Z_LOW = 100000 * 523 * WINDOW_SEC / N_SAMPLES / 10
# tcp_paced_durable replays the trace at a fixed speed-up chosen so that
# every seed offers this mean rate (the research feed averages ~8.6k rec/s,
# so about 40x).
PACED_RATE = 350000
# tcp_paced_durable snapshots every CKPT_EVERY windows. With a snapshot every
# window, window-close latency tracked the fsync latency of the shared disk,
# which drifted by up to 2x over minutes. A slow snapshot also delays the
# windows queued behind it, so the cadence keeps well under 10% of windows
# near one (README.md, "Durability cadence").
CKPT_EVERY = 60
# Window-close p50/p90 are taken per block of this many consecutive windows
# (>= 10 beyond p90) and reported as the median over the run's blocks, so a
# few seconds of host interference move one block and not the run's figure
# (README.md, "Window-close latency").
LATENCY_BLOCK = 100

WORKLOADS = {
    # Steady 100k pkt/s feed, streamed unthrottled by streamop_send; the
    # low level keeps ~2% of records.
    "tcp_presample": dict(feed="datacenter", duration=20, query="presample",
                          source="tcp", sender="streamop_send"),
    # Bursty research feed read from a pcap file: pass-through low level.
    "pcap_subsetsum": dict(feed="research", duration=240, query="subsetsum",
                           source="pcap"),
    # The same feed replayed open-loop at PACED_RATE over TCP, with a
    # durable snapshot every CKPT_EVERY windows.
    "tcp_paced_durable": dict(feed="research", duration=240, query="subsetsum",
                              source="tcp", sender="paced", durable=True),
}

END_TO_END = [("throughput_rps", "rec/s"), ("cpu_ns_per_record", "ns"),
              ("window_close_p50_ms", "ms"), ("window_close_p90_ms", "ms"),
              ("est_rel_err", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    with open(logf, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                shutil.rmtree(os.path.join(BUILD, "CMakeFiles"), ignore_errors=True)
                try:
                    os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                except OSError:
                    pass
                sys.exit("build failed (log above)")


def tool(name):
    return os.path.join(BUILD, name)


def generate(cfg, seed):
    """Writes the workload's input with perf_gen and computes the reference
    per-window (records, bytes) from the written file."""
    os.makedirs(WORK, exist_ok=True)
    trace = os.path.join(WORK, "input.bin")
    pcap = os.path.join(WORK, "input.pcap") if cfg["source"] == "pcap" or cfg.get("durable") else None
    cmd = [tool("perf_gen"), "--feed", cfg["feed"], "--duration", str(cfg["duration"]),
           "--seed", str(seed), "--trace", trace]
    if pcap:
        cmd += ["--pcap", pcap]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    # Write the inputs back now, so their writeback does not compete with
    # the snapshot writes of the rounds.
    for path in (trace, pcap):
        if path:
            fd = os.open(path, os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
    with open(pcap if cfg["source"] == "pcap" else trace, "rb") as f:
        ref = (metrics.pcap_windows if cfg["source"] == "pcap" else metrics.trace_windows)(
            f.read(), WINDOW_NS)
    if pcap and cfg["source"] != "pcap":
        with open(trace, "rb") as f:
            if metrics.trace_windows(f.read(), WINDOW_NS) != ref:
                raise RuntimeError("trace and pcap inputs differ")
    return trace, pcap, ref


class Sender:
    """A sender process, stopped and waited for on exit."""

    def __init__(self, cfg, trace, stats_path, speedup):
        self.kind = cfg["sender"]
        self.stats_path = stats_path
        if self.kind == "paced":
            self.proc = subprocess.Popen(
                [tool("perf_sender"), "--trace", trace, "--speedup", repr(speedup),
                 "--stats", stats_path], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            line = self.proc.stdout.readline()
        else:
            self.proc = subprocess.Popen(
                [tool("streamop_send"), "--tcp-listen", "0", "--trace", trace],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            line = ""
            while True:
                line = self.proc.stderr.readline()
                if not line or line.startswith("listening on port"):
                    break
            line = line.rsplit(" ", 1)[-1]
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("sender did not start")
        self.port = int(line)

    def finish(self):
        """Waits for the sender; returns its stats (frames, records, ...)."""
        _, err = self.proc.communicate(timeout=60)
        if self.kind == "paced":
            with open(self.stats_path) as f:
                return json.load(f)
        for line in err.splitlines():
            if line.startswith("sender summary:"):
                kv = dict(p.split("=") for p in line.split()[2:])
                return {"frames": int(kv["frames"]), "records": int(kv["records"])}
        raise RuntimeError("no sender summary")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream:
                stream.close()


def engine(cfg, source, qseed, ckpt=None, spans=None):
    cmd = [tool("perf_engine"), "--query", cfg["query"], "--source", source,
           "--n", str(N_SAMPLES), "--zlow", str(Z_LOW),
           "--window", str(WINDOW_SEC), "--qseed", str(qseed)]
    if ckpt:
        cmd += ["--ckpt-dir", ckpt, "--ckpt-every", str(CKPT_EVERY)]
    if spans:
        cmd += ["--spans", spans]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if p.returncode or not p.stdout.strip():
        raise RuntimeError("engine failed: " + p.stderr.strip()[-500:])
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_round(cfg, trace, pcap, qseed, speedup, traced=False):
    """One engine process over the whole input; returns (engine report,
    sender stats or None)."""
    ckpt = spans = None
    if cfg.get("durable"):
        ckpt = os.path.join(WORK, "ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
        os.makedirs(ckpt)
    if traced:
        spans = os.path.join(WORK, "spans.json")
    if cfg["source"] == "pcap":
        return engine(cfg, "pcap:" + pcap, qseed, ckpt, spans), None
    sender = Sender(cfg, trace, os.path.join(WORK, "sender.json"), speedup)
    try:
        rep = engine(cfg, "tcp:%d" % sender.port, qseed, ckpt, spans)
        return rep, sender.finish()
    finally:
        sender.stop()


def check_round(cfg, rep, sent, ref, expect_digest):
    """Checks one untraced round against the reference. Returns (failed
    window ids, global failures, latencies in ms, signed errors, windows
    with lost records, windows never closed)."""
    bad, fatal = {}, []
    total = sum(c for c, _ in ref)
    wins = rep["windows"]
    if not rep["ok"]:
        fatal.append("engine reported an error")
    if rep["records"] != total:
        fatal.append("delivered %d of %d records" % (rep["records"], total))
    for k in ("gaps", "gap_records", "duplicates", "malformed_frames",
              "malformed_records", "reconnects"):
        if rep[k]:
            fatal.append("%s = %d" % (k, rep[k]))
    if sent is not None and sent["records"] != total:
        fatal.append("sender sent %d of %d records" % (sent["records"], total))
    if expect_digest is not None and rep["digest"] != expect_digest:
        fatal.append("rows differ from the reference pass (%s != %s)"
                     % (rep["digest"], expect_digest))
    if len(wins) != len(ref):
        fatal.append("%d windows seen, %d expected" % (len(wins), len(ref)))
    lost = unclosed = 0
    for w, (count, _) in enumerate(ref):
        got = wins[w] if w < len(wins) else [w, 0, 0, 0.0, 0, 0, 0]
        if got[1] != count:
            lost += 1
            bad[w] = "window %d: %d of %d records" % (w, got[1], count)
        elif count and got[2] == 0:
            unclosed += 1
            bad[w] = "window %d never closed" % w
    est = [wins[w][3] if w < len(wins) else 0.0 for w in range(len(ref))]
    exact = [b for _, b in ref]
    signed = metrics.estimate_errors(est, exact)
    samples = [wins[w][2] if w < len(wins) else 0 for w in range(len(ref))]
    failures, mean_failure = metrics.error_check(signed, samples)
    for w, msg in failures:
        bad.setdefault(w, msg)
    if mean_failure:
        fatal.append(mean_failure)
    if cfg.get("durable"):
        # One verified snapshot per CKPT_EVERY closed windows, none missing.
        n = rep["windows_flushed"]
        if not (rep["ckpt_files"] == rep["ckpt_verified"] == n // CKPT_EVERY
                and n == len(ref) and rep["ckpt_consecutive"]):
            fatal.append("snapshots: %d files, %d verified, %d windows"
                         % (rep["ckpt_files"], rep["ckpt_verified"], n))
    lat = []
    for w in wins:
        if w[5] and w[6]:
            if cfg.get("sender") == "paced":
                # From the sender tick the closing record was due on: the
                # sub-tick wait is the sender's batching, queueing after it
                # counts. Rounded as perf_sender rounds.
                due = int((w[4] - sent["ts0_ns"]) / sent["speedup"])
                tick = sent["tick_ns"]
                start = sent["t0_ns"] + -(-due // tick) * tick
            else:
                start = w[5]
            lat.append((w[6] - start) / 1e6)
    if lat and sent and "lateness_p90_ms" in sent:
        # Latency counts from the due tick, so a sender running late would
        # hide queueing in the engine: its lateness must stay far below.
        p90 = metrics.quantile(lat, 0.9)
        if sent["lateness_p90_ms"] > 0.25 * p90:
            fatal.append("sender lateness p90 %.3f ms is not far below window-close "
                         "p90 %.3f ms" % (sent["lateness_p90_ms"], p90))
    return bad, fatal, lat, signed, lost, unclosed


def layer_metrics(rep, spans_path, sent):
    """Per-layer figures of one traced round, from its spans file."""
    with open(spans_path) as f:
        doc = json.load(f)
    names = doc["names"]
    raw = doc["spans"]
    spans = [(names[s[0]], s[1], s[2], s[3]) for s in raw]
    root = names.index("round")
    root_i = next(i for i, s in enumerate(raw) if s[0] == root)
    by_name, unattributed = metrics.ledger(spans, root_i)

    def first(name):
        return next(s for s in raw if names[s[0]] == name)

    def total(name, col):
        return sum(s[col] for s in raw if names[s[0]] == name)

    reads = [s for s in raw if names[s[0]] == "stream.read"]
    recs = max(rep["records"], 1)
    wins = max(rep["windows_flushed"], 1)
    snaps = [s for s in raw if names[s[0]] == "engine.snapshot"]
    flushes = sum(1 for s in raw if names[s[0]] == "core.flush")
    ns = lambda name: by_name.get(name, 0) / recs  # noqa: E731
    out = {
        "stream.read_busy_ns_per_record": total("stream.read", 4) / recs,
        "stream.read_wait_ms": sum(s[3] - s[2] - s[4] for s in reads) / 1e6,
        "stream.records_per_read": recs / max(rep["reads"], 1),
        "stream.idle_reads": rep["idle_reads"],
        "stream.offset_lag_max": rep["offset_lag_max"],
        "stream.open_ms": (first("stream.open")[3] - first("stream.open")[2]) / 1e6,
        "tuple.batch_build_ns_per_record": ns("tuple.batch_build"),
        "query.select_ns_per_record": ns("query.select"),
        "query.select_pass_ratio": rep["low_out"] / max(rep["low_in"], 1),
        "query.compile_ms": (first("query.compile")[3] - first("query.compile")[2]) / 1e6,
        "core.admit_ns_per_record": ns("core.admit"),
        "core.flush_ms_per_window": by_name.get("core.flush", 0) / max(flushes, 1) / 1e6,
        "core.cleaning_phases_per_window": rep["cleaning_phases"] / wins,
        "core.admitted_fraction": rep["high_admitted"] / max(rep["high_tuples_in"], 1),
        "core.rows_out_per_window": rep["high_rows_out"] / wins,
        "core.peak_groups": rep["peak_groups"],
        "engine.construct_ms":
            (first("engine.construct")[3] - first("engine.construct")[2]) / 1e6,
        "engine.drain_ns_per_record": ns("engine.drain"),
        "engine.finish_ms": by_name.get("engine.finish", 0) / 1e6,
        "engine.snapshot_ms": by_name.get("engine.snapshot", 0) / max(len(snaps), 1) / 1e6,
        "engine.snapshot_bytes": sum(s[5] for s in snaps) / max(len(snaps), 1),
        "engine.snapshots": len(snaps),
        "obs.ingest_metrics_ns_per_record": ns("obs.ingest_metrics"),
        "net.send_lateness_p90_ms": (sent or {}).get("lateness_p90_ms", 0.0),
        "net.frames_sent": (sent or {}).get("frames", 0),
        "ledger.unattributed_share": unattributed,
    }
    return out


PER_LAYER_UNITS = {
    "stream.read_busy_ns_per_record": "ns", "stream.read_wait_ms": "ms",
    "stream.records_per_read": "count", "stream.idle_reads": "count",
    "stream.offset_lag_max": "count", "stream.open_ms": "ms",
    "tuple.batch_build_ns_per_record": "ns", "query.select_ns_per_record": "ns",
    "query.select_pass_ratio": "ratio", "query.compile_ms": "ms",
    "core.admit_ns_per_record": "ns", "core.flush_ms_per_window": "ms",
    "core.cleaning_phases_per_window": "count", "core.admitted_fraction": "ratio",
    "core.rows_out_per_window": "count", "core.peak_groups": "count",
    "engine.construct_ms": "ms", "engine.drain_ns_per_record": "ns",
    "engine.finish_ms": "ms", "engine.snapshot_ms": "ms", "engine.snapshot_bytes": "B",
    "engine.snapshots": "count", "obs.ingest_metrics_ns_per_record": "ns",
    "net.send_lateness_p90_ms": "ms", "net.frames_sent": "count",
    "ledger.unattributed_share": "ratio", "ledger.trace_overhead": "ratio",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cfg = WORKLOADS[args.workload]

    build()
    trace, pcap, ref = generate(cfg, args.seed)
    total = sum(c for c, _ in ref)
    speedup = PACED_RATE * cfg["duration"] / total

    bad, fatal, lat, signed = [], [], [], []  # bad: failed-window messages
    per = {"throughput_rps": [], "cpu_ns_per_record": [], "setup_s": [], "peak_rss_mb": []}
    layers, overhead = [], []
    attempted = lost = unclosed = records = records_lost = rounds = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < args.seconds:
        # Each round draws its own sampling seed, so est_rel_err pools
        # independent draws and steadies as rounds accumulate.
        qseed = args.seed * 1000 + rounds
        try:
            ref_digest = None
            if cfg.get("durable"):
                # The paced rows must equal a pcap pass over the same records:
                # the results may not depend on how reads split the stream.
                ref_digest = engine(cfg, "pcap:" + pcap, qseed)["digest"]
            rep, sent = run_round(cfg, trace, pcap, qseed, speedup)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
            fatal.append("round %d: %s" % (rounds, e))
            attempted += len(ref)
            bad += ["round %d lost" % rounds] * len(ref)
            rounds += 1
            break
        b, f, l, s, lo, un = check_round(cfg, rep, sent, ref, ref_digest)
        bad += ["round %d %s" % (rounds, m) for m in b.values()]
        fatal += f
        lat += l
        signed += s
        lost += lo
        unclosed += un
        attempted += len(ref)
        records += rep["records"]
        records_lost += max(total - rep["records"], 0)
        per["throughput_rps"].append(rep["records"] / (rep["proc_wall_ns"] / 1e9))
        per["cpu_ns_per_record"].append(rep["proc_cpu_ns"] / rep["records"])
        per["setup_s"].append((rep["compile_ns"] + rep["construct_ns"] + rep["open_ns"]) / 1e9)
        per["peak_rss_mb"].append(rep["max_rss_kb"] / 1024)
        if args.trace:
            # The traced run: the same input and query seed through the
            # span-recording loop, which must produce the same rows.
            try:
                trep, tsent = run_round(cfg, trace, pcap, qseed, speedup, traced=True)
            except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
                fatal.append("traced round %d: %s" % (rounds, e))
                break
            if trep["digest"] != rep["digest"] or not trep["ok"]:
                fatal.append("traced rows differ from untraced rows")
            layer = layer_metrics(trep, os.path.join(WORK, "spans.json"), tsent)
            if layer["ledger.unattributed_share"] > 0.10:
                fatal.append("ledger leaves %.1f%% of wall time unattributed"
                             % (100 * layer["ledger.unattributed_share"]))
            layers.append(layer)
            overhead.append((trep["proc_cpu_ns"] / trep["records"])
                            / (rep["proc_cpu_ns"] / rep["records"]))
        rounds += 1

    failed = len(bad)
    log("%s seed %d: %d rounds; windows attempted=%d failed=%d with_lost_records=%d "
        "never_closed=%d; records attempted=%d delivered=%d lost=%d"
        % (args.workload, args.seed, rounds, attempted, failed, lost, unclosed,
           total * rounds, records, records_lost))
    for msg in (fatal + bad)[:20]:
        log("CHECK FAILED: " + msg)

    values = {}
    if args.trace:
        for k in PER_LAYER_UNITS:
            if k == "ledger.trace_overhead":
                values[k] = statistics.median(overhead) if overhead else 0.0
            else:
                values[k] = statistics.median(l[k] for l in layers) if layers else 0.0
        units = PER_LAYER_UNITS
    else:
        for k in per:
            values[k] = statistics.median(per[k]) if per[k] else 0.0
        # The mean over rounds: on tcp_presample a round's peak RSS takes one
        # of a few levels (how far SocketSource's buffer grew), and the median
        # or maximum of such a mixture jumps between levels from run to run.
        values["peak_rss_mb"] = statistics.fmean(per["peak_rss_mb"]) if per["peak_rss_mb"] else 0.0
        for k, q in (("window_close_p50_ms", 0.5), ("window_close_p90_ms", 0.9)):
            values[k] = metrics.block_quantile(lat, q, LATENCY_BLOCK) if lat else 0.0
        values["est_rel_err"] = sum(abs(e) for e in signed) / len(signed) if signed else 0.0
        units = dict(END_TO_END)
        log("latency samples: %d in %d blocks of >= %d"
            % (len(lat), max(len(lat) // LATENCY_BLOCK, 1), LATENCY_BLOCK))
    result = {"correct": not fatal, "attempted": max(attempted, 1), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
