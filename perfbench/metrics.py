"""Reference and metric code of the end-to-end benchmark.

Everything here is computed apart from the engine: the per-window reference
sums come straight from the generated input files, and the latency,
error and ledger figures from the raw timestamps and spans the engine
processes report. test_metrics.py checks each function on inputs small
enough to verify by hand.
"""

import bisect
import statistics

TRACE_MAGIC = b"SOPTRC01"
RECORD_SIZE = 24  # ts_ns u64 | src u32 | dst u32 | sport u16 | dport u16 | len u16 | proto u8 | pad u8
PCAP_NS_MAGIC = 0xA1B23C4D
PCAP_RECORD_SIZE = 16 + 24  # record header + IPv4 header + the two ports


def _windows_from_columns(ts, lens, window_ns):
    """Per-window (count, byte sum) from time-sorted ts and len sequences."""
    out = []
    if len(ts) == 0:
        return out
    last = ts[len(ts) - 1] // window_ns
    lo = 0
    for w in range(last + 1):
        hi = bisect.bisect_left(ts, (w + 1) * window_ns, lo)
        out.append((hi - lo, sum(lens[lo:hi])))
        lo = hi
    return out


def trace_windows(data, window_ns):
    """Reference per-window (records, byte sum) of a trace file's bytes."""
    if data[:8] != TRACE_MAGIC:
        raise ValueError("not a trace file")
    n = int.from_bytes(data[8:16], "little")
    body = memoryview(data)[16:16 + n * RECORD_SIZE]
    if len(body) != n * RECORD_SIZE:
        raise ValueError("truncated trace file")
    ts = body.cast("Q")[0::3]
    lens = body.cast("H")[10::12]
    if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("trace not sorted by time")
    return _windows_from_columns(ts, lens, window_ns)


def pcap_windows(data, window_ns):
    """Reference per-window (records, byte sum) of a nanosecond raw-IPv4
    pcap file with one fixed-size record per packet, as perf_gen writes."""
    if int.from_bytes(data[0:4], "little") != PCAP_NS_MAGIC:
        raise ValueError("not a little-endian nanosecond pcap")
    body = memoryview(data)[24:]
    if len(body) % PCAP_RECORD_SIZE:
        raise ValueError("pcap records are not all %d bytes" % PCAP_RECORD_SIZE)
    words = body.cast("I")
    step = PCAP_RECORD_SIZE // 4
    if any(c != 24 for c in words[2::step]):
        raise ValueError("unexpected captured length")
    ts = [s * 1000000000 + f for s, f in zip(words[0::step], words[1::step])]
    lens = words[3::step]
    if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("pcap not sorted by time")
    return _windows_from_columns(ts, lens, window_ns)


def quantile(values, q):
    """The q-quantile by linear interpolation between closest ranks."""
    v = sorted(values)
    if not v:
        raise ValueError("no values")
    pos = q * (len(v) - 1)
    i = int(pos)
    if i + 1 >= len(v):
        return float(v[-1])
    return v[i] + (v[i + 1] - v[i]) * (pos - i)


def block_quantile(values, q, block):
    """The median over consecutive blocks of `block` values of each block's
    q-quantile; leftover values join the last block, and fewer than `block`
    values form one block. A disturbance shorter than a few blocks moves
    one block's quantile and not the median."""
    n = max(len(values) // block, 1)
    blocks = [values[i * block:(i + 1) * block] for i in range(n - 1)]
    blocks.append(values[(n - 1) * block:])
    return statistics.median(quantile(b, q) for b in blocks)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(n=4) gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def estimate_errors(estimates, exact):
    """Per-window relative errors (est - exact) / exact as signed floats;
    windows without bytes get 0."""
    return [(e - x) / x if x else 0.0 for e, x in zip(estimates, exact)]


def error_check(signed, samples, k=6.0):
    """Checks estimates against the sample-size ceiling.

    With subset-sum sampling at threshold z = X / N the estimate of a window
    sum X has a relative standard error of about 1 / sqrt(N), so each window's
    |error| must lie below k / sqrt(N_w), N_w being the rows it produced, and
    the mean signed error over W windows below k * sqrt(mean(1 / N_w) / W).
    Returns ([(window, message) for each window over its ceiling], message
    or None for the mean)."""
    bad = []
    for w, (e, n) in enumerate(zip(signed, samples)):
        if n <= 0 or abs(e) > k / n ** 0.5:
            bad.append((w, "window %d: rel error %.4f with %d samples" % (w, e, n)))
    mean_failure = None
    if signed:
        w_count = len(signed)
        mean = sum(signed) / w_count
        ceiling = k * (sum(1.0 / max(n, 1) for n in samples) / w_count / w_count) ** 0.5
        if abs(mean) > ceiling:
            mean_failure = "mean signed error %.5f exceeds %.5f" % (mean, ceiling)
    return bad, mean_failure


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover. `spans` is a list of (name, parent, start, end); the
    result is a list parallel to it."""
    children = {}
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0
        cur_end = start
        for j in sorted(children.get(i, []), key=lambda k: spans[k][2]):
            s = max(spans[j][2], cur_end)
            e = min(spans[j][3], end)
            if e > s:
                covered += e - s
                cur_end = e
        out.append((end - start) - covered)
    return out


def ledger(spans, root):
    """Self time per span name under `root`, and the share of the root's
    wall time no child span covers."""
    st = self_times(spans)
    by_name = {}
    for i, (name, parent, _, _) in enumerate(spans):
        if parent == root:
            by_name[name] = by_name.get(name, 0) + st[i]
    wall = spans[root][3] - spans[root][2]
    return by_name, (st[root] / wall if wall else 0.0)
