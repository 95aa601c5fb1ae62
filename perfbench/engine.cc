// perf_engine: the benchmark's engine process. One process runs one round of
// one workload: it compiles the queries, builds the two-level runtime and
// opens the source (set-up), runs the stream to its end, and prints one JSON
// line describing what it saw.
//
//   perf_engine --query presample|subsetsum --source tcp:<port>|pcap:<path>
//               --n <samples> --zlow <z> --window <sec>
//               --qseed <n> [--ckpt-dir <dir> --ckpt-every <windows>]
//               [--spans <out.json>]
//
// It builds the pipeline streamop_cli builds — a low-level selection query
// feeding one high-level sampling query, driven by
// TwoLevelRuntime::RunSource — but drains result rows at every source read,
// so each window's rows get a wall-clock timestamp as soon as they exist
// (streamop_cli prints nothing until the stream ends).
//
// Without --spans the stream runs through RunSource itself, behind a
// ResumableSource decorator that does the draining and notes, per window,
// when the first record of the next window reached the engine. With
// --spans the process instead runs a copy of RunSource's loop built from the
// same public calls, timing each call into a module as a span (name, start,
// end, parent) kept in memory and written to the file at exit. Both modes
// print the same row digest, so the benchmark can check that the traced loop
// computes what RunSource computes.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/serde.h"
#include "engine/checkpoint.h"
#include "engine/runtime.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "stream/pcap_reader.h"
#include "stream/socket_source.h"
#include "tuple/tuple_batch.h"

using namespace streamop;

namespace {

uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Peak resident set of this process image, in kB. getrusage's ru_maxrss
// would do, but Linux carries it across execve, so a child of a large
// parent would report the parent's peak.
uint64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

uint64_t ProcessCpuNs() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

struct Args {
  std::string query;
  std::string source;
  uint64_t n = 0;
  double zlow = 0.0;
  uint64_t window_sec = 1;
  uint64_t qseed = 1;
  std::string ckpt_dir;
  uint64_t ckpt_every = 1;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--query") {
      a->query = v;
    } else if (k == "--source") {
      a->source = v;
    } else if (k == "--n") {
      a->n = std::strtoull(v, nullptr, 10);
    } else if (k == "--zlow") {
      a->zlow = std::atof(v);
    } else if (k == "--window") {
      a->window_sec = std::strtoull(v, nullptr, 10);
    } else if (k == "--qseed") {
      a->qseed = std::strtoull(v, nullptr, 10);
    } else if (k == "--ckpt-dir") {
      a->ckpt_dir = v;
    } else if (k == "--ckpt-every") {
      a->ckpt_every = std::strtoull(v, nullptr, 10);
    } else if (k == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return (a->query == "presample" || a->query == "subsetsum") &&
         !a->source.empty() && a->n > 0 && a->window_sec > 0 &&
         a->ckpt_every > 0 &&
         (a->query != "presample" || a->zlow > 0.0);
}

// The low level: a pass-through selection, or the Fig. 6 basic subset-sum
// pre-sampler with threshold z (records it keeps carry max(len, z)).
std::string LowSql(const Args& a) {
  if (a.query == "subsetsum") {
    return "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
           "FROM PKT";
  }
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, "
                "UMAX(len, %.17g) as len FROM PKT "
                "WHERE ssample(len, 0, 2, 1, %.17g) = TRUE",
                a.zlow, a.zlow);
  return buf;
}

// The high level: the paper's relaxed dynamic subset-sum (§6.1), N samples
// per window, relax factor f = 10, and the probabilistic (DLT coin-flip)
// admission of small tuples that the paper's live runs used.
std::string HighSql(const Args& a) {
  char buf[600];
  std::snprintf(buf, sizeof(buf),
                "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) "
                "FROM PKTS "
                "WHERE ssample(len, %llu, 2, 10, 0, 1) = TRUE "
                "GROUP BY time/%llu as tb, srcIP, destIP, ts_ns "
                "HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE "
                "CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE "
                "CLEANING BY ssclean_with(sum(len)) = TRUE",
                static_cast<unsigned long long>(a.n),
                static_cast<unsigned long long>(a.window_sec));
  return buf;
}

std::unique_ptr<ResumableSource> MakeSource(const std::string& spec) {
  if (spec.rfind("pcap:", 0) == 0) {
    PcapReaderConfig cfg;
    cfg.path = spec.substr(5);
    return std::make_unique<PcapReader>(cfg);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    SocketSourceConfig cfg;
    cfg.mode = SocketSourceConfig::Mode::kTcp;
    cfg.host = "127.0.0.1";
    cfg.port = static_cast<uint16_t>(std::atoi(spec.c_str() + 4));
    return std::make_unique<SocketSource>(cfg);
  }
  return nullptr;
}

// What the engine saw of one window.
struct WindowLog {
  uint64_t records = 0;     // records of this window delivered by the source
  uint64_t rows = 0;        // result rows drained for it
  double est = 0.0;         // sum of its rows' estimate column
  uint64_t close_ts = 0;    // ts_ns of the first record of the next window
  uint64_t arrival_ns = 0;  // when that record's read returned (0 = none)
  uint64_t drain_ns = 0;    // when the window's first rows were drained
};

// Accumulates drained result rows: per-window counts and estimates, the
// first drain time of each window, and an order-sensitive digest of every
// value's bits (two runs with equal digests produced the same rows).
class RowSink {
 public:
  explicit RowSink(std::vector<WindowLog>* windows) : windows_(windows) {}

  void Take(const std::vector<Tuple>& rows, uint64_t now) {
    for (const Tuple& t : rows) {
      const uint64_t tb = t[0].AsUInt();
      if (tb >= windows_->size()) windows_->resize(tb + 1);
      WindowLog& w = (*windows_)[tb];
      if (w.rows == 0) w.drain_ns = now;
      ++w.rows;
      w.est += t[3].AsDouble();
      for (size_t i = 0; i < t.size(); ++i) {
        digest_ = (digest_ ^ t[i].Hash()) * 1099511628211ull;
      }
      ++total_;
    }
  }
  uint64_t digest() const { return digest_; }
  uint64_t total() const { return total_; }

 private:
  std::vector<WindowLog>* windows_;
  uint64_t digest_ = 1469598103934665603ull;
  uint64_t total_ = 0;
};

// Notes, per window, how many records arrived and when the first record of
// the following window reached the engine (the record that closes it).
class ArrivalLog {
 public:
  ArrivalLog(std::vector<WindowLog>* windows, uint64_t window_ns)
      : windows_(windows), window_ns_(window_ns) {}

  void Note(const PacketRecord* recs, size_t n, uint64_t now) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t ts = recs[i].ts_ns;
      if (ts >= next_boundary_ || !started_) {
        const uint64_t tb = ts / window_ns_;
        if (tb >= windows_->size()) windows_->resize(tb + 1);
        if (started_) {
          (*windows_)[cur_].close_ts = ts;
          (*windows_)[cur_].arrival_ns = now;
        }
        started_ = true;
        cur_ = tb;
        next_boundary_ = (tb + 1) * window_ns_;
      }
      ++(*windows_)[cur_].records;
    }
  }

 private:
  std::vector<WindowLog>* windows_;
  uint64_t window_ns_;
  uint64_t next_boundary_ = 0;
  uint64_t cur_ = 0;
  bool started_ = false;
};

// Processing-interval clocks shared by both modes: the interval starts at
// the first read (set-up is over) and ends after the final flush.
struct Interval {
  uint64_t wall_start = 0, wall_end = 0;
  uint64_t cpu_start = 0, cpu_end = 0;
  void Start() {
    wall_start = MonoNs();
    cpu_start = ProcessCpuNs();
  }
  void Stop() {
    wall_end = MonoNs();
    cpu_end = ProcessCpuNs();
  }
};

// The untraced path: RunSource reads through this decorator, which drains
// the high node's rows before every read and logs arrivals after it. Its
// Open() is the source-open step of set-up. SocketSource connects and runs
// HELLO/ACK lazily inside the first Read(), which cannot be told apart from
// receiving the first data, so that read belongs to the processing interval.
class DrainingSource : public ResumableSource {
 public:
  DrainingSource(ResumableSource* inner, QueryNode* high, RowSink* sink,
                 ArrivalLog* arrivals, Interval* interval)
      : inner_(inner),
        high_(high),
        sink_(sink),
        arrivals_(arrivals),
        interval_(interval) {}

  const char* kind() const override { return inner_->kind(); }
  uint64_t stream_id() const override { return inner_->stream_id(); }
  std::string describe() const override { return inner_->describe(); }
  Status Open() override {
    const uint64_t t0 = MonoNs();
    const Status st = inner_->Open();
    open_ns_ = MonoNs() - t0;
    return st;
  }
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override {
    if (reads_++ == 0) interval_->Start();
    const uint64_t t_in = MonoNs();
    const std::vector<Tuple> rows = high_->DrainOutput();
    if (!rows.empty()) sink_->Take(rows, t_in);
    const ReadResult rr = inner_->Read(buf, max, n_out);
    const uint64_t t_out = MonoNs();
    if (*n_out == 0 && rr == ReadResult::kIdle) ++idle_reads_;
    arrivals_->Note(buf, *n_out, t_out);
    return rr;
  }
  uint64_t durable_offset() const override { return inner_->durable_offset(); }
  Status SeekTo(uint64_t offset) override { return inner_->SeekTo(offset); }
  uint64_t offset_lag() const override { return inner_->offset_lag(); }
  const SourceIngestStats& stats() const override { return inner_->stats(); }
  Status last_status() const override { return inner_->last_status(); }

  uint64_t open_ns() const { return open_ns_; }
  uint64_t reads() const { return reads_; }
  uint64_t idle_reads() const { return idle_reads_; }

 private:
  ResumableSource* inner_;
  QueryNode* high_;
  RowSink* sink_;
  ArrivalLog* arrivals_;
  Interval* interval_;
  uint64_t open_ns_ = 0;
  uint64_t reads_ = 0;
  uint64_t idle_reads_ = 0;
};

// In-memory span store for the traced path.
class Spans {
 public:
  struct Span {
    uint32_t name;
    int32_t parent;
    uint64_t start, end;
    uint64_t cpu;    // thread CPU inside the span (stream.read only)
    uint64_t count;  // records, rows or bytes the call handled
  };
  enum Name : uint32_t {
    kCompile, kConstruct, kOpen, kRound, kRead, kBuild, kSelect, kAdmit,
    kFlush, kSnapshot, kDrain, kIngestMetrics, kFinish, kNumNames
  };
  static constexpr const char* kNames[kNumNames] = {
      "query.compile",   "engine.construct", "stream.open",
      "round",           "stream.read",      "tuple.batch_build",
      "query.select",    "core.admit",       "core.flush",
      "engine.snapshot", "engine.drain",     "obs.ingest_metrics",
      "engine.finish"};

  // Room for a traced round's spans up front, so the loop never reallocates
  // (pages the round does not fill are never touched).
  void Reserve() { spans_.reserve(size_t{1} << 22); }
  int32_t Add(Name name, int32_t parent, uint64_t start, uint64_t end,
              uint64_t count = 0, uint64_t cpu = 0) {
    spans_.push_back({name, parent, start, end, cpu, count});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  Span& at(int32_t i) { return spans_[static_cast<size_t>(i)]; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"names\": [";
    for (uint32_t i = 0; i < kNumNames; ++i) {
      out << (i ? ", " : "") << '"' << kNames[i] << '"';
    }
    out << "], \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.parent << ','
          << s.start << ',' << s.end << ',' << s.cpu << ',' << s.count << ']';
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// The same snapshot image TwoLevelRuntime writes for a RunSource run: the
// operator's durable state, no shed controller, the exemplar reservoirs and
// the source-offset section.
std::string SnapshotPayload(SamplingOperator* op, const ResumableSource& src) {
  ByteWriter w;
  op->SerializeDurableState(w);
  w.Bool(false);
  ByteWriter ew;
  obs::ExemplarStore::Default().SerializeTo(ew);
  w.Bool(true);
  w.Str(ew.data());
  w.Bool(true);
  w.Str(src.kind());
  w.U64(src.stream_id());
  w.U64(src.durable_offset());
  return w.data();
}

struct LoopCounters {
  uint64_t reads = 0;
  uint64_t idle_reads = 0;
  uint64_t offset_lag_max = 0;
  uint64_t malformed = 0;
};

// RunSource's loop, call for call, with a span around each call into a
// module. Returns the first failing status.
Status TracedLoop(TwoLevelRuntime& rt, ResumableSource& src, RowSink& sink,
                  Spans& spans, Interval& interval, LoopCounters* c) {
  QueryNode& low = rt.low_node();
  QueryNode& high = rt.high_node(0);
  SamplingOperator* op = high.sampling_operator();
  CheckpointManager* mgr = rt.checkpoint_manager(0);
  uint64_t pending = 0;
  if (mgr != nullptr) {
    // RunSource defers each snapshot to the next ingest batch boundary.
    op->set_window_flush_hook([&](uint64_t windows) {
      if (mgr->ShouldWrite(windows)) pending = std::max(pending, windows);
    });
  }
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const obs::IngestSourceMetrics ingest =
      obs::IngestSourceMetrics::Create(reg, src.describe());
  SourceIngestStats prev;

  const size_t kBatch = RuntimeOptions().batch_size;
  std::vector<PacketRecord> records(kBatch);
  TupleBatch batch(low.input_width(), kBatch);
  TupleBatch low_out;
  Status status;

  const uint64_t t = MonoNs();
  STREAMOP_RETURN_NOT_OK(src.Open());
  const uint64_t t2 = MonoNs();
  spans.Add(Spans::kOpen, -1, t, t2);
  interval.Start();
  const int32_t root = spans.Add(Spans::kRound, -1, t2, 0);
  size_t n = 0;
  ResumableSource::ReadResult rr = ResumableSource::ReadResult::kIdle;
  auto read = [&] {
    const uint64_t r0 = MonoNs();
    const uint64_t c0 = ThreadCpuNs();
    rr = src.Read(records.data(), kBatch, &n);
    const uint64_t c1 = ThreadCpuNs();
    spans.Add(Spans::kRead, root, r0, MonoNs(), n, c1 - c0);
    ++c->reads;
    c->offset_lag_max = std::max(c->offset_lag_max, src.offset_lag());
  };
  read();

  auto flush_pending = [&] {
    if (pending == 0) return;
    const uint64_t s0 = MonoNs();
    const std::string payload = SnapshotPayload(op, src);
    mgr->Write(pending, payload);
    spans.Add(Spans::kSnapshot, root, s0, MonoNs(), payload.size());
    pending = 0;
  };
  auto push_high = [&](const TupleBatch& in) {
    const uint64_t before = op->windows_flushed();
    const uint64_t h0 = MonoNs();
    status = high.PushBatch(in, 1.0, nullptr, nullptr);
    const uint64_t h1 = MonoNs();
    const bool closed = op->windows_flushed() != before;
    spans.Add(closed ? Spans::kFlush : Spans::kAdmit, root, h0, h1,
              in.num_rows());
    return h1 - h0;
  };

  for (;;) {
    if (n > 0) {
      const uint64_t b0 = MonoNs();
      batch.Clear();
      for (size_t i = 0; i < n; ++i) {
        if (records[i].len < 20) {  // RunSource's malformed-record gate
          ++c->malformed;
          continue;
        }
        batch.AppendPacket(records[i]);
      }
      const uint64_t b1 = MonoNs();
      spans.Add(Spans::kBuild, root, b0, b1, n);
      status = low.PushBatch(batch, 1.0, &low_out);
      const uint64_t b2 = MonoNs();
      spans.Add(Spans::kSelect, root, b1, b2, low_out.num_rows());
      low.AddCpuNanos(b2 - b0);
      low.RecordBatch(b2 - b0, batch.num_rows());
      if (status.ok()) {
        const uint64_t h_ns = push_high(low_out);
        high.AddCpuNanos(h_ns);
        if (low_out.num_rows() > 0) high.RecordBatch(h_ns, low_out.num_rows());
      }
      if (!status.ok()) break;
    } else if (rr == ResumableSource::ReadResult::kIdle) {
      ++c->idle_reads;
      const uint64_t b1 = MonoNs();
      batch.Clear();
      status = low.PushBatch(batch, 1.0, &low_out);
      spans.Add(Spans::kSelect, root, b1, MonoNs(), 0);
      if (status.ok()) push_high(low_out);
      if (!status.ok()) break;
    }
    flush_pending();
    const uint64_t m0 = MonoNs();
    const SourceIngestStats& s = src.stats();
    if (ingest.enabled()) {
      ingest.frames->Add(s.frames - prev.frames);
      ingest.records->Add(s.records - prev.records);
      ingest.malformed_frames->Add(s.malformed_frames - prev.malformed_frames);
      ingest.reconnects->Add(s.reconnects - prev.reconnects);
      ingest.gaps->Add(s.gaps - prev.gaps);
      ingest.gap_records->Add(s.gap_records - prev.gap_records);
      ingest.duplicates->Add(s.duplicate_records - prev.duplicate_records);
      ingest.heartbeats->Add(s.heartbeats - prev.heartbeats);
      ingest.durable_offset->Set(static_cast<double>(src.durable_offset()));
      ingest.resume_offset->Set(static_cast<double>(s.resume_offset));
      ingest.offset_lag->Set(static_cast<double>(src.offset_lag()));
    }
    prev = s;
    spans.Add(Spans::kIngestMetrics, root, m0, MonoNs());
    if (rr == ResumableSource::ReadResult::kEnd) break;

    const uint64_t d0 = MonoNs();
    const std::vector<Tuple> rows = high.DrainOutput();
    const uint64_t d1 = MonoNs();
    spans.Add(Spans::kDrain, root, d0, d1, rows.size());
    if (!rows.empty()) sink.Take(rows, d1);
    read();
  }

  if (status.ok() && src.last_status().ok()) {
    const uint64_t f0 = MonoNs();
    status = low.Finish();
    if (status.ok()) {
      for (const Tuple& row : low.DrainOutput()) {
        status = high.Push(row);
        if (!status.ok()) break;
      }
    }
    if (status.ok()) status = high.Finish();
    spans.Add(Spans::kFinish, root, f0, MonoNs());
  }
  flush_pending();
  if (mgr != nullptr) op->set_window_flush_hook(nullptr);
  const uint64_t d0 = MonoNs();
  const std::vector<Tuple> rows = high.DrainOutput();
  spans.Add(Spans::kDrain, root, d0, MonoNs(), rows.size());
  interval.Stop();
  spans.at(root).end = interval.wall_end;
  sink.Take(rows, interval.wall_end);
  if (!status.ok()) return status;
  return src.last_status();
}

// Verifies every file the checkpoint directory holds; returns the flush
// counts of the snapshots that verified, sorted.
std::vector<uint64_t> VerifySnapshots(const std::string& dir,
                                      uint64_t* files) {
  std::vector<uint64_t> ok;
  *files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++*files;
    std::ifstream in(e.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LoadedCheckpoint loaded;
    if (CheckpointManager::VerifySnapshot(bytes, &loaded)) {
      ok.push_back(loaded.windows_flushed);
    }
  }
  std::sort(ok.begin(), ok.end());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_engine --query presample|subsetsum --source "
                 "tcp:<port>|pcap:<path> --n <N> --zlow <z> "
                 "--window <sec> --qseed <n> [--ckpt-dir <dir> --ckpt-every "
                 "<windows>] [--spans <out>]\n");
    return 2;
  }
  const bool traced = !args.spans_path.empty();
  Spans spans;
  if (traced) spans.Reserve();

  // Set-up step 1: compile both queries.
  const uint64_t t0 = MonoNs();
  const Catalog catalog = Catalog::Default();
  Result<CompiledQuery> low = CompileQuery(LowSql(args), catalog,
                                           {.seed = args.qseed});
  Result<CompiledQuery> high = CompileQuery(HighSql(args), catalog,
                                            {.seed = args.qseed});
  const uint64_t t1 = MonoNs();
  if (!low.ok() || !high.ok()) {
    std::fprintf(stderr, "compile: %s\n",
                 (!low.ok() ? low.status() : high.status()).ToString().c_str());
    return 1;
  }

  // Set-up step 2: the runtime (with durability, this scans the snapshot
  // directory for a state to restore).
  RuntimeOptions opt;
  if (!args.ckpt_dir.empty()) {
    opt.checkpoint.dir = args.ckpt_dir;
    opt.checkpoint.every_n_windows = args.ckpt_every;
    opt.checkpoint.retain = size_t{1} << 30;  // keep every snapshot written
  }
  TwoLevelRuntime rt(*low, {*high}, opt);
  const uint64_t t2 = MonoNs();
  if (traced) {
    spans.Add(Spans::kCompile, -1, t0, t1);
    spans.Add(Spans::kConstruct, -1, t1, t2);
  }

  std::unique_ptr<ResumableSource> source = MakeSource(args.source);
  if (source == nullptr) {
    std::fprintf(stderr, "bad --source %s\n", args.source.c_str());
    return 2;
  }

  std::vector<WindowLog> windows;
  RowSink sink(&windows);
  Interval interval;
  LoopCounters counters;
  uint64_t open_ns = 0;
  Status status;
  // Set-up step 3, ResumableSource::Open(), happens inside both loops.
  if (traced) {
    status = TracedLoop(rt, *source, sink, spans, interval, &counters);
    open_ns = spans.at(2).end - spans.at(2).start;
  } else {
    ArrivalLog arrivals(&windows, args.window_sec * 1000000000ull);
    DrainingSource draining(source.get(), &rt.high_node(0), &sink, &arrivals,
                            &interval);
    Result<RunReport> report = rt.RunSource(draining);
    interval.Stop();
    sink.Take(rt.high_node(0).DrainOutput(), interval.wall_end);
    status = report.status();
    open_ns = draining.open_ns();
    counters.reads = draining.reads();
    counters.idle_reads = draining.idle_reads();
    if (report.ok()) counters.malformed = report->packets_malformed;
  }
  if (!status.ok()) std::fprintf(stderr, "run: %s\n", status.ToString().c_str());

  uint64_t ckpt_files = 0;
  std::vector<uint64_t> verified;
  if (!args.ckpt_dir.empty() && std::filesystem::is_directory(args.ckpt_dir)) {
    verified = VerifySnapshots(args.ckpt_dir, &ckpt_files);
  }
  bool consecutive = true;  // one snapshot per cadence step, none missing
  for (size_t i = 0; i < verified.size(); ++i) {
    consecutive &= verified[i] == (i + 1) * args.ckpt_every;
  }
  if (traced && !spans.Write(args.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    status = Status::IOError("spans file");
  }

  QueryNode& hn = rt.high_node(0);
  uint64_t cleaning = 0, tuples_in = 0, admitted = 0, out_rows = 0, peak = 0;
  for (const WindowStats& w : hn.window_stats()) {
    cleaning += w.cleaning_phases;
    tuples_in += w.tuples_in;
    admitted += w.tuples_admitted;
    out_rows += w.tuples_output;
    peak = std::max(peak, w.peak_groups);
  }
  const SourceIngestStats& ss = source->stats();

  std::ostringstream o;
  o.precision(17);
  o << "{\"ok\": " << (status.ok() ? "true" : "false")
    << ", \"traced\": " << (traced ? "true" : "false")
    << ", \"compile_ns\": " << (t1 - t0)
    << ", \"construct_ns\": " << (t2 - t1) << ", \"open_ns\": " << open_ns
    << ", \"proc_wall_ns\": " << (interval.wall_end - interval.wall_start)
    << ", \"proc_cpu_ns\": " << (interval.cpu_end - interval.cpu_start)
    << ", \"proc_start_ns\": " << interval.wall_start
    << ", \"max_rss_kb\": " << PeakRssKb()
    << ", \"records\": " << ss.records << ", \"frames\": " << ss.frames
    << ", \"malformed_frames\": " << ss.malformed_frames
    << ", \"malformed_records\": " << counters.malformed
    << ", \"gaps\": " << ss.gaps << ", \"gap_records\": " << ss.gap_records
    << ", \"duplicates\": " << ss.duplicate_records
    << ", \"reconnects\": " << ss.reconnects
    << ", \"reads\": " << counters.reads
    << ", \"idle_reads\": " << counters.idle_reads
    << ", \"offset_lag_max\": " << counters.offset_lag_max
    << ", \"low_in\": " << rt.low_node().tuples_in()
    << ", \"low_out\": " << rt.low_node().tuples_out()
    << ", \"windows_flushed\": " << hn.sampling_operator()->windows_flushed()
    << ", \"cleaning_phases\": " << cleaning
    << ", \"high_tuples_in\": " << tuples_in
    << ", \"high_admitted\": " << admitted
    << ", \"high_rows_out\": " << out_rows << ", \"peak_groups\": " << peak
    << ", \"ckpt_files\": " << ckpt_files
    << ", \"ckpt_verified\": " << verified.size()
    << ", \"ckpt_consecutive\": " << (consecutive ? "true" : "false")
    << ", \"rows\": " << sink.total() << ", \"digest\": \"" << std::hex
    << sink.digest() << std::dec << "\", \"windows\": [";
  for (size_t i = 0; i < windows.size(); ++i) {
    const WindowLog& w = windows[i];
    o << (i ? ", " : "") << '[' << i << ", " << w.records << ", " << w.rows
      << ", " << w.est << ", " << w.close_ts << ", " << w.arrival_ns << ", "
      << w.drain_ns << ']';
  }
  o << "]}";
  std::printf("%s\n", o.str().c_str());
  return status.ok() ? 0 : 1;
}
