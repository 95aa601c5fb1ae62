// TwoLevelRuntime: the Gigascope execution architecture (§3, Fig. 1).
//
// Packets flow   feed -> batch -> low-level node -> high-level nodes. The
// feed is any ResumableSource (an in-memory trace, a pcap file, a socket)
// read by RunSource, or a trace pushed through an SPSC ring by RunThreaded's
// producer thread. Both paths share one per-record gate, one per-batch step
// and one end-of-stream step, so they emit the same spans and profiler
// phases. The low-level node is a selection (or pre-sampling selection)
// query; its output tuples are the only per-packet copies up the pipeline,
// which is why a selective low-level query slashes total cost (Fig. 6). The
// runtime stopwatches each node and reports %CPU relative to the stream's
// real-time duration — the paper's metric of "fraction of one CPU consumed
// at line rate".

#ifndef STREAMOP_ENGINE_RUNTIME_H_
#define STREAMOP_ENGINE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/checkpoint.h"
#include "engine/load_shed.h"
#include "engine/query_node.h"
#include "net/trace_generator.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "query/analyzer.h"
#include "stream/resumable_source.h"
#include "stream/ring_buffer.h"

namespace streamop {

/// Per-node outcome of a run.
struct NodeReport {
  std::string name;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  double cpu_seconds = 0.0;
  double cpu_percent = 0.0;  // 100 * cpu_seconds / stream_seconds
};

/// Per-source ingest outcome of a RunSource run (stream/resumable_source.h).
struct SourceReport {
  std::string source;              // ResumableSource::describe()
  bool resumed_from_offset = false;  // restore seeked instead of replaying
  bool clean_end = false;            // EOF/FIN, not an ingest failure
  uint64_t durable_offset = 0;       // final resumable offset
  uint64_t offset_lag = 0;           // producer head - consumed, at exit
  std::string error;                 // last_status() message when not ok
  SourceIngestStats stats;
};

struct RunReport {
  double stream_seconds = 0.0;    // the feed's timestamp span
  double pipeline_seconds = 0.0;  // RunThreaded: end-to-end wall time
  uint64_t packets = 0;           // records taken from the feed

  // Ring-buffer overload accounting (RunThreaded only: RunSource has no
  // ring). A full ring makes the producer either retry (default: yield
  // until space, deterministic) or drop the packet (drop_on_overload —
  // Gigascope's behaviour). Either way the overload is visible.
  uint64_t ring_push_failures = 0;   // TryPush calls that found the ring full
  uint64_t ring_producer_retries = 0;  // producer yield-and-retry rounds
  uint64_t packets_dropped = 0;        // only with drop_on_overload
  uint64_t ring_occupancy_hwm = 0;     // high-water mark of ring occupancy

  // Producer backoff ladder (RunThreaded): after a burst of yields the
  // producer sleeps with exponentially growing intervals instead of
  // spinning; total sleep time quantifies how long the pipeline ran
  // producer-bound.
  uint64_t producer_backoff_sleeps = 0;
  double producer_backoff_seconds = 0.0;

  // Degradation summary (RunThreaded). With shedding enabled, `tuples_shed`
  // of `tuples_offered` packets were dropped at the consumer's Bernoulli
  // gate and the survivors reweighted by 1/p; shed_p_min/max bracket the
  // admission probability over the run.
  bool shedding_enabled = false;
  uint64_t tuples_offered = 0;
  uint64_t tuples_shed = 0;
  double shed_fraction = 0.0;
  double shed_p_min = 1.0;
  double shed_p_max = 1.0;

  uint64_t late_tuples = 0;        // clamped non-monotonic arrivals (nodes)
  uint64_t packets_malformed = 0;  // len below the 20-byte IP header minimum
  bool watchdog_fired = false;     // run terminated by the stall watchdog

  // Durability summary (engine/checkpoint.h). `recovered` is set when the
  // runtime restored a snapshot at construction; `recovered_windows` is the
  // flush count of the newest snapshot restored. `checkpoint_degraded`
  // means the last write attempt exhausted its retries (ingest continued
  // without durability).
  bool recovered = false;
  uint64_t recovered_windows = 0;
  bool checkpoint_degraded = false;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t checkpoint_corrupt_skipped = 0;

  // Ingest (RunSource): one entry per source fed this run.
  std::vector<SourceReport> sources;

  NodeReport low;
  std::vector<NodeReport> high;
};

/// Runtime tuning knobs.
struct RuntimeOptions {
  /// RunThreaded only: slots in the producer -> consumer ring.
  size_t ring_capacity = 1 << 16;
  /// Records per batch: RunSource's Read() size, RunThreaded's ring drain.
  size_t batch_size = 512;
  /// RunThreaded only: drop packets when the ring is full instead of
  /// spinning the producer (the paper's Gigascope drops under overload).
  /// Off by default — dropping makes results depend on thread timing.
  bool drop_on_overload = false;
  /// Registry backing all runtime/node/operator metrics; nullptr uses the
  /// process-wide default registry.
  obs::MetricRegistry* registry = nullptr;

  /// Adaptive load shedding (RunThreaded only): when enabled, the consumer
  /// pre-samples packets with the AIMD-controlled probability p and tags
  /// admitted tuples with weight 1/p (see engine/load_shed.h).
  LoadShedConfig shed;

  /// Stall watchdog (RunThreaded): if neither thread makes progress for
  /// this long, the run aborts with Status::ResourceExhausted instead of
  /// hanging. 0 disables the watchdog.
  uint64_t stall_timeout_ms = 10000;

  /// Test hook: invoked by the consumer before each batch with the batch
  /// index and the runtime's abort flag. Fault-injection tests install
  /// cooperative stalls here (stream/fault_injection.h); the hook MUST
  /// return promptly once the abort flag is set.
  std::function<void(uint64_t, const std::atomic<bool>&)> consumer_stall_hook;

  /// Durable snapshots (engine/checkpoint.h): with a non-empty dir, every
  /// sampling node writes a versioned CRC-guarded snapshot of its durable
  /// state (plus the load-shed controller and exemplar reservoirs) every
  /// `checkpoint.every_n_windows` window flushes, and the runtime restores
  /// the newest valid snapshot at construction — a killed process resumes
  /// at the last flushed window. The `node` field is overwritten per node.
  CheckpointConfig checkpoint;

  /// RunSource: stop after this many delivered records (0 = run until the
  /// source ends). Lets a live socket run have a bounded footprint.
  uint64_t source_max_records = 0;

  /// RunSource: end the run cleanly after this much *consecutive* idle
  /// time (no records, only heartbeat reads). 0 = wait forever. Distinct
  /// from the per-read timeout (SocketSourceConfig::read_timeout_ms),
  /// which only bounds one Read() call.
  uint64_t source_max_idle_ms = 0;

  /// Embedded introspection server (obs/http_server.h): -1 disables it,
  /// 0 binds an ephemeral port (read back via http_server()->port()), any
  /// other value binds that port on loopback. The server starts with the
  /// runtime, serves /metrics, /metrics.json, /traces, /windows and
  /// /healthz while runs execute, and stops with the runtime's destructor.
  int http_port = -1;

  /// Metrics time-series ring + sampler thread (obs/timeseries.h). The
  /// runtime-level default zeroes interval_ms — no ring, no sampler, no
  /// alert engine — so existing embedders pay nothing. Any positive
  /// interval (or a non-empty flight dir below) brings up the whole
  /// stack: ring, alert engine with the built-in SLO rules, sampler
  /// thread, and the /timeseries, /alerts and /dashboard endpoints.
  obs::TimeSeriesOptions timeseries{.interval_ms = 0};

  /// Extra alert rules (the --alert-rules file contents, one rule per
  /// line — syntax in obs/alerts.h). Installed after the built-ins; parse
  /// errors are reported on stderr and via alerts_status().
  std::string alert_rules;

  /// Accuracy-SLO target for the built-in quality CI-width rule
  /// (obs/alerts.h AlertEngine::Options). <= 0 disables that rule.
  double quality_ci_target = 0.0;

  /// Flight recorder (obs/flight_recorder.h): with a non-empty dir the
  /// sampler spills the telemetry tail there on cadence and at every
  /// checkpoint write, and the runtime loads any pre-crash segment at
  /// construction, printing the forensic report to stderr and serving it
  /// on /forensics. A non-empty dir implies the time-series stack even if
  /// timeseries.interval_ms was left 0 (it then runs at 250ms).
  obs::FlightRecorderOptions flight;
};

/// One low-level query feeding any number of high-level queries.
class TwoLevelRuntime {
 public:
  using Options = RuntimeOptions;

  /// `low` must be a selection query over the packet schema; each entry of
  /// `high` consumes the low node's output schema (which, for the bundled
  /// benchmarks, re-exposes the packet columns).
  TwoLevelRuntime(const CompiledQuery& low,
                  const std::vector<CompiledQuery>& high,
                  RuntimeOptions options = RuntimeOptions());

  /// Feeds the pipeline from `source` (stream/resumable_source.h): an
  /// in-memory trace (stream/trace_source.h), a pcap file or a socket. The
  /// loop is single-threaded: read a batch from the source, push it
  /// through the nodes, repeat; read timeouts degrade to heartbeat-empty
  /// batches so the loop keeps turning while the wire is quiet. High-level
  /// node outputs are retained and can be drained from the nodes.
  ///
  /// Durability: snapshots requested by the window-flush hook are deferred
  /// to the next ingest batch boundary, where every record read so far has
  /// been fully processed, and the source's durable offset is persisted
  /// alongside the operator state. On restore, when the newest snapshots
  /// carry a source section matching this source's kind and stream id, the
  /// runtime seeks the source to the saved offset and cancels positional
  /// replay — byte-identical resume for traces and pcap, at-most-once for
  /// sockets. Any mismatch (different source, mixed offsets, a snapshot
  /// without a source section) falls back to the armed replay-from-start
  /// path.
  Result<RunReport> RunSource(ResumableSource& source);

  /// Runs a trace with true pipeline parallelism, the way Gigascope
  /// deploys its query nodes: a producer thread feeds the ring buffer and
  /// a consumer thread runs the low-level node + high-level operators.
  /// Results are identical to RunSource() over the same trace (the pipeline
  /// is deterministic); only the wall-clock overlap differs. Adds load
  /// shedding, the stall watchdog and the ring's overload accounting; the
  /// report carries the end-to-end wall time in `pipeline_seconds`.
  /// Snapshots are written as soon as the flush hook asks and carry no
  /// source section, so a restored run replays the trace from the start,
  /// discarding the already-processed prefix by position.
  Result<RunReport> RunThreaded(const Trace& trace);

  QueryNode& low_node() { return *low_; }
  QueryNode& high_node(size_t i) { return *high_[i]; }
  size_t num_high_nodes() const { return high_.size(); }

  /// Report of the most recent run, including runs that returned an error
  /// Status — the degradation summary (shed fraction, late tuples, watchdog
  /// verdict) survives an aborted run for post-mortems. Call from the
  /// driving thread only; concurrent readers (the /healthz endpoint) go
  /// through HealthJson(), which copies under the report mutex.
  const RunReport& last_report() const { return last_report_; }

  /// The embedded introspection server, or nullptr when http_port < 0 or
  /// startup failed (see http_status()).
  obs::HttpServer* http_server() { return http_server_.get(); }
  const Status& http_status() const { return http_status_; }

  /// The observability time-series stack, or nullptr when disabled
  /// (timeseries.interval_ms == 0 and flight.dir empty).
  obs::TimeSeries* timeseries() { return ts_.get(); }
  obs::AlertEngine* alert_engine() { return alerts_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  obs::TimeSeriesSampler* sampler() { return sampler_.get(); }
  /// Parse status of RuntimeOptions::alert_rules (OK when empty).
  const Status& alerts_status() const { return alerts_status_; }

  /// The pre-crash forensic report loaded from flight.dir at construction
  /// (ForensicReport::valid is false when none was found). The JSON form
  /// is what /forensics serves under "report".
  const obs::ForensicReport& forensic_report() const {
    return forensic_report_;
  }

  /// True while RunSource()/RunThreaded() is executing.
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// /healthz body: run state + the degradation summary of the most recent
  /// (or in-flight) run as JSON. Thread-safe.
  std::string HealthJson() const;

  /// /healthz verdict: false once a run was terminated by the watchdog.
  bool healthy() const;

  /// True when a snapshot was restored at construction; the first run then
  /// resumes after the snapshot (see RunSource and RunThreaded for how).
  bool recovered() const { return recovered_; }
  uint64_t recovered_windows() const { return recovered_windows_; }

  /// The checkpoint manager of high node `i`, or nullptr when
  /// checkpointing is disabled or the node is not a sampling node.
  CheckpointManager* checkpoint_manager(size_t i) {
    return i < checkpoint_mgrs_.size() ? checkpoint_mgrs_[i].get() : nullptr;
  }

 private:
  // What the newest restored snapshot of each high node said about the
  // input source it was taken against (empty when nothing was restored or
  // the snapshot predates source sections).
  struct RestoredSourceInfo {
    bool restored = false;    // this node restored any snapshot
    bool has_source = false;  // ... carrying a source-offset section
    std::string kind;
    uint64_t stream_id = 0;
    uint64_t offset = 0;
  };

  // True while any sampling node is still discarding replayed input.
  bool AnyNodeRecovering() const;
  // The end-of-stream step of every run path: finishes the low node, feeds
  // its last rows to the high nodes at `weight`, then finishes those.
  Status FinishNodes(double weight);
  // The report tail of every run path, failed runs included: adds the
  // per-node reports, late tuples and checkpoint counters to `report`,
  // publishes it to last_report_ (under the mutex, for /healthz readers)
  // and refreshes the degradation gauges in the registry.
  void PublishReport(RunReport* report);
  // Serializes one node's durable state (+ shed controller, exemplars and
  // — for source runs — the source offset section) and hands it to `mgr`.
  void WriteNodeSnapshot(SamplingOperator* op, CheckpointManager* mgr,
                         uint64_t windows_flushed,
                         const ResumableSource* source);
  // RunSource restore: seek `source` to the checkpointed offset and cancel
  // positional replay when every restored node agrees on (kind, stream_id,
  // offset); otherwise leave the replay path armed. Returns whether the
  // seek was applied.
  bool ApplySourceResume(ResumableSource& source);
  // Writes the snapshots deferred by the flush hook during RunSource.
  void FlushPendingSnapshots(const ResumableSource* source);

  Options options_;
  RunReport last_report_;
  mutable std::mutex report_mu_;
  std::atomic<bool> running_{false};
  std::unique_ptr<QueryNode> low_;
  std::vector<std::unique_ptr<QueryNode>> high_;
  // Durability (engine/checkpoint.h): one manager per high node (nullptr
  // for selection nodes or with checkpointing disabled). active_shed_
  // points at the live controller while RunThreaded executes so the flush
  // hook (consumer thread) can include its state in snapshots.
  std::vector<std::unique_ptr<CheckpointManager>> checkpoint_mgrs_;
  std::atomic<LoadShedController*> active_shed_{nullptr};
  bool recovered_ = false;
  uint64_t recovered_windows_ = 0;
  std::string restored_shed_blob_;  // applied to the next run's controller
  std::vector<RestoredSourceInfo> restored_sources_;  // parallel to high_
  // RunSource state. source_run_active_ gates the flush hook onto the
  // deferred-snapshot path; it is only mutated by the thread driving
  // RunSource, and source runs never overlap threaded runs on one runtime.
  bool source_run_active_ = false;
  std::vector<uint64_t> pending_snapshots_;  // windows_flushed per node, 0=none
  // Live ingest view for /healthz while RunSource is in flight.
  std::atomic<bool> source_active_{false};
  std::atomic<uint64_t> live_source_offset_{0};
  std::atomic<uint64_t> live_source_lag_{0};
  std::atomic<uint64_t> live_source_reconnects_{0};
  std::atomic<uint64_t> live_source_gaps_{0};
  obs::RingBufferMetrics ring_metrics_;   // outlives the per-run rings
  obs::Counter* producer_retries_ = nullptr;
  obs::Counter* packets_dropped_ = nullptr;
  // Degradation summary as gauges (satellite of the PR 3 RunReport): what
  // /metrics scrapes see without parsing stderr or RunReport.
  obs::Gauge* shed_fraction_gauge_ = nullptr;
  obs::Gauge* shed_p_min_gauge_ = nullptr;
  obs::Gauge* shed_p_max_gauge_ = nullptr;
  obs::Gauge* late_tuples_gauge_ = nullptr;
  obs::Gauge* packets_malformed_gauge_ = nullptr;
  obs::Gauge* watchdog_fired_gauge_ = nullptr;
  Status http_status_;
  // Time-series / alerting / forensics stack (obs/timeseries.h et al.),
  // created when options enable it. Declared before http_server_ and
  // sampler_ so both consumer threads stop before their data sources die.
  std::unique_ptr<obs::TimeSeries> ts_;
  std::unique_ptr<obs::AlertEngine> alerts_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::ForensicReport forensic_report_;  // pre-crash segment, if any
  Status alerts_status_;
  // Declared last: destroyed first, so the sampler and serving threads
  // (whose handlers read last_report_, the ring and the alert board) stop
  // before the state they read.
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::HttpServer> http_server_;
};

/// Single-node convenience: run one query over a trace and report stats.
/// The trace is fed through an instrumented ring buffer in batches (the
/// same data path the two-level runtime uses), so ring occupancy and
/// batch-latency metrics land in `registry` (nullptr = default registry).
struct SingleRunResult {
  NodeReport report;
  std::vector<Tuple> output;
  std::vector<WindowStats> windows;
};
Result<SingleRunResult> RunQueryOverTrace(const CompiledQuery& query,
                                          const Trace& trace,
                                          const std::string& name = "query",
                                          obs::MetricRegistry* registry =
                                              nullptr);

}  // namespace streamop

#endif  // STREAMOP_ENGINE_RUNTIME_H_
