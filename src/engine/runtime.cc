#include "engine/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace streamop {

namespace {

using obs::NowNanos;

// A packet whose length is below the 20-byte IPv4 header minimum is
// malformed (fault injection truncates below this).
constexpr uint16_t kMinPacketLen = 20;

// Producer backoff ladder: this many plain yields before sleeping, then
// exponentially growing sleeps between these bounds.
constexpr int kBackoffYields = 32;
constexpr uint64_t kBackoffMinSleepNs = 1000;     // 1 us
constexpr uint64_t kBackoffMaxSleepNs = 1000000;  // 1 ms

// Marks the runtime as running for the duration of a RunSource/RunThreaded
// call (exception- and early-return-safe), so /healthz can tell an
// in-flight run from a completed one.
class RunningGuard {
 public:
  explicit RunningGuard(std::atomic<bool>& flag) : flag_(flag) {
    flag_.store(true, std::memory_order_relaxed);
  }
  ~RunningGuard() { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool>& flag_;
};

// The per-record gate of every run path: a malformed record is counted and
// offered as an exemplar (its timestamp and claimed length), never fed to
// the query nodes. Rare path: the offer is one relaxed load and one
// uncontended lock.
bool WellFormed(const PacketRecord& p, uint64_t* malformed) {
  if (p.len >= kMinPacketLen) return true;
  ++*malformed;
  if constexpr (obs::kStatsEnabled) {
    obs::ExemplarStore& store = obs::ExemplarStore::Default();
    if (store.enabled()) {
      obs::Exemplar ex;
      ex.ts_ns = p.ts_ns;
      ex.value = static_cast<double>(p.len);
      ex.dims[0] = p.ts_ns;
      ex.dims[1] = p.len;
      ex.ndims = 2;
      store.Offer(obs::ExemplarStore::kMalformed, ex);
    }
  }
  return false;
}

// The per-batch step of every run path (DESIGN.md §9). Begin() opens the
// drain phase and hands out the cleared batch; the caller fills it through
// its gates and calls Push(), which closes the drain phase, pushes the batch
// low -> high with per-node CPU and latency accounting, and emits the
// ring_drain span under the window the batch fed. With spans and phase
// accounting off, the step adds two relaxed loads per batch.
class BatchStep {
 public:
  BatchStep(QueryNode& low,
            const std::vector<std::unique_ptr<QueryNode>>& high,
            size_t batch_size)
      : low_(low), high_(high), batch_(low.input_width(), batch_size) {}

  TupleBatch& Begin() {
    span_on_ = obs::SpanRing::Default().enabled();
    prof_on_ = obs::Profiler::Default().phase_accounting_enabled();
    t0_ = NowNanos();
    drain_c0_ = prof_on_ ? obs::CycleNow() : 0;
    batch_.Clear();
    return batch_;
  }

  // `consumed` counts the records this batch took from the feed, gated ones
  // included. An empty step is a heartbeat: it turns the nodes over (hooks,
  // deferred snapshots) but is neither timed nor spanned.
  Status Push(size_t consumed, double weight) {
    const uint64_t drain_end = span_on_ ? NowNanos() : 0;
    if (prof_on_) {
      obs::Profiler::Default().AddPhaseCycles(obs::Profiler::kDrain,
                                              obs::CycleNow() - drain_c0_);
    }
    // Causal context: rows drained go down; the id of the window span the
    // batch fed comes back up through the sampling operator, so the drain
    // span below parents under the window root it actually filled.
    obs::SpanContext sctx;
    sctx.shed_p = weight > 1.0 ? 1.0 / weight : 1.0;
    sctx.rows = batch_.num_rows();
    STREAMOP_RETURN_NOT_OK(low_.PushBatch(batch_, weight, &low_out_));
    const bool timed = consumed > 0;
    if (timed) {
      const uint64_t batch_ns = NowNanos() - t0_;
      low_.AddCpuNanos(batch_ns);
      low_.RecordBatch(batch_ns, batch_.num_rows());
    }
    for (auto& node : high_) {
      const uint64_t h0 = timed ? NowNanos() : 0;
      STREAMOP_RETURN_NOT_OK(node->PushBatch(low_out_, weight, nullptr,
                                             span_on_ ? &sctx : nullptr));
      if (!timed) continue;
      const uint64_t h_ns = NowNanos() - h0;
      node->AddCpuNanos(h_ns);
      if (low_out_.num_rows() > 0) {
        node->RecordBatch(h_ns, low_out_.num_rows());
      }
    }
    if (span_on_ && timed) {
      obs::SpanRecord dr;
      dr.name = "ring_drain";
      dr.parent_id = sctx.window_span_id;
      dr.window_seq = sctx.window_seq;
      dr.ts_ns = t0_;
      dr.dur_ns = drain_end - t0_;
      dr.rows = batch_.num_rows();
      dr.shed_p = sctx.shed_p;
      obs::SpanRing::Default().Emit(dr);
    }
    return Status::OK();
  }

 private:
  QueryNode& low_;
  const std::vector<std::unique_ptr<QueryNode>>& high_;
  TupleBatch batch_;
  TupleBatch low_out_;
  bool span_on_ = false;
  bool prof_on_ = false;
  uint64_t t0_ = 0;
  uint64_t drain_c0_ = 0;
};

// Offers a shed-drop exemplar: which packet the Bernoulli pre-sampler
// dropped, at what admission probability.
void OfferShedExemplar(const PacketRecord& p, double weight) {
  if constexpr (obs::kStatsEnabled) {
    obs::ExemplarStore& store = obs::ExemplarStore::Default();
    if (!store.enabled()) return;
    obs::Exemplar ex;
    ex.ts_ns = p.ts_ns;
    ex.value = weight > 1.0 ? 1.0 / weight : 1.0;  // admission probability
    ex.weight = weight;
    ex.dims[0] = p.ts_ns;
    ex.dims[1] = p.src_ip;
    ex.dims[2] = p.dst_ip;
    ex.dims[3] = p.len;
    ex.ndims = 4;
    store.Offer(obs::ExemplarStore::kShedDrop, ex);
  }
}

NodeReport MakeReport(const QueryNode& node, double stream_seconds) {
  NodeReport r;
  r.name = node.name();
  r.tuples_in = node.tuples_in();
  r.tuples_out = node.tuples_out();
  r.cpu_seconds = static_cast<double>(node.cpu_nanos()) * 1e-9;
  r.cpu_percent =
      stream_seconds > 0.0 ? 100.0 * r.cpu_seconds / stream_seconds : 0.0;
  return r;
}

}  // namespace

TwoLevelRuntime::TwoLevelRuntime(const CompiledQuery& low,
                                 const std::vector<CompiledQuery>& high,
                                 Options options)
    : options_(options) {
  if (options_.registry == nullptr) {
    options_.registry = &obs::MetricRegistry::Default();
  }
  obs::MetricRegistry& reg = *options_.registry;
  ring_metrics_ = obs::RingBufferMetrics::Create(reg);
  producer_retries_ =
      reg.GetCounter("streamop_runtime_producer_retries_total");
  packets_dropped_ = reg.GetCounter("streamop_runtime_packets_dropped_total");
  shed_fraction_gauge_ = reg.GetGauge("streamop_runtime_shed_fraction");
  shed_p_min_gauge_ = reg.GetGauge("streamop_runtime_shed_p_min");
  shed_p_max_gauge_ = reg.GetGauge("streamop_runtime_shed_p_max");
  late_tuples_gauge_ = reg.GetGauge("streamop_runtime_late_tuples");
  packets_malformed_gauge_ =
      reg.GetGauge("streamop_runtime_packets_malformed");
  watchdog_fired_gauge_ = reg.GetGauge("streamop_runtime_watchdog_fired");
  low_ = std::make_unique<QueryNode>("low", low, &reg);
  for (size_t i = 0; i < high.size(); ++i) {
    high_.push_back(std::make_unique<QueryNode>("high" + std::to_string(i),
                                                high[i], &reg));
  }

  // Durability (engine/checkpoint.h): one manager per sampling node. The
  // newest valid snapshot is restored here, at construction, so the first
  // run resumes at the last flushed window; the installed flush hook then
  // snapshots at the configured cadence. Selection nodes are stateless and
  // get no manager.
  if (!options_.checkpoint.dir.empty()) {
    checkpoint_mgrs_.resize(high_.size());
    restored_sources_.resize(high_.size());
    for (size_t i = 0; i < high_.size(); ++i) {
      SamplingOperator* op = high_[i]->sampling_operator();
      if (op == nullptr) continue;
      CheckpointConfig cfg = options_.checkpoint;
      cfg.node = high_[i]->name();
      cfg.registry = &reg;
      checkpoint_mgrs_[i] = std::make_unique<CheckpointManager>(cfg);
      CheckpointManager* mgr = checkpoint_mgrs_[i].get();

      if (auto loaded = mgr->LoadLatest()) {
        ByteReader r(loaded->payload);
        if (op->RestoreDurableState(r)) {
          // Trailing sections: load-shed controller (applied to the next
          // run's controller) and the exemplar reservoirs (applied now).
          if (r.Bool()) restored_shed_blob_ = r.Str();
          if (r.Bool()) {
            const std::string ex = r.Str();
            ByteReader er(ex);
            obs::ExemplarStore::Default().RestoreFrom(er);
          }
          // Source-offset section (RunSource snapshots only; absent from
          // trace-run snapshots and anything written before it existed).
          restored_sources_[i].restored = true;
          if (r.remaining() > 0 && r.Bool()) {
            restored_sources_[i].has_source = true;
            restored_sources_[i].kind = r.Str();
            restored_sources_[i].stream_id = r.U64();
            restored_sources_[i].offset = r.U64();
          }
          recovered_ = true;
          recovered_windows_ =
              std::max(recovered_windows_, loaded->windows_flushed);
          std::fprintf(
              stderr,
              "[checkpoint] %s: restored %s (window %llu, replaying "
              "%llu tuples)\n",
              high_[i]->name().c_str(), loaded->path.c_str(),
              static_cast<unsigned long long>(loaded->windows_flushed),
              static_cast<unsigned long long>(op->recovery_skip_remaining()));
        } else {
          std::fprintf(stderr,
                       "[checkpoint] %s: snapshot %s does not match this "
                       "query, starting fresh\n",
                       high_[i]->name().c_str(), loaded->path.c_str());
        }
      }

      op->set_window_flush_hook([this, op, mgr, i](uint64_t windows_flushed) {
        if (!mgr->ShouldWrite(windows_flushed)) return;
        if (source_run_active_) {
          // Mid-batch state doesn't align with any source offset: defer
          // to the ingest batch boundary, where RunSource snapshots with
          // the source's durable offset attached.
          pending_snapshots_[i] = std::max(pending_snapshots_[i],
                                           windows_flushed);
          return;
        }
        WriteNodeSnapshot(op, mgr, windows_flushed, nullptr);
      });
    }
  }

  // Flight-recorder observability stack (obs/timeseries.h, obs/alerts.h,
  // obs/flight_recorder.h): a positive sampling interval or a flight dir
  // brings up the ring, the alert engine (built-in SLO rules + the user's
  // --alert-rules file) and the sampler thread. Loading the pre-crash
  // segment happens BEFORE the first spill could overwrite it.
  const bool want_timeseries =
      options_.timeseries.interval_ms > 0 || !options_.flight.dir.empty();
  if (want_timeseries) {
    if (!options_.flight.dir.empty()) {
      auto loaded = obs::FlightRecorder::Load(options_.flight.dir);
      if (loaded.ok()) {
        forensic_report_ = std::move(*loaded);
        std::fputs(forensic_report_.ToText().c_str(), stderr);
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        std::fprintf(stderr, "[flight] %s: %s\n",
                     options_.flight.dir.c_str(),
                     loaded.status().message().c_str());
      }
      flight_ = std::make_unique<obs::FlightRecorder>(options_.flight);
    }
    obs::TimeSeriesOptions ts_opts = options_.timeseries;
    if (ts_opts.interval_ms == 0) ts_opts.interval_ms = 250;
    ts_ = std::make_unique<obs::TimeSeries>(ts_opts);
    obs::AlertEngine::Options alert_opts;
    alert_opts.quality_ci_target = options_.quality_ci_target;
    alerts_ = std::make_unique<obs::AlertEngine>(alert_opts);
    alerts_->AddBuiltinRules();
    if (!options_.alert_rules.empty()) {
      alerts_status_ = alerts_->AddRulesFromText(options_.alert_rules);
      if (!alerts_status_.ok()) {
        std::fprintf(stderr, "[alerts] %s\n",
                     alerts_status_.message().c_str());
      }
    }
    obs::TimeSeriesSampler::Options sampler_opts;
    sampler_opts.interval_ms = ts_opts.interval_ms;
    sampler_opts.registry = &reg;
    sampler_opts.timeseries = ts_.get();
    sampler_opts.alerts = alerts_.get();
    sampler_opts.recorder = flight_.get();
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(sampler_opts);
    (void)sampler_->Start();  // no-op under STREAMOP_NO_STATS
  }

  if (options_.http_port >= 0) {
    obs::HttpServerOptions http;
    http.port = static_cast<uint16_t>(options_.http_port);
    http.registry = &reg;
    http.health_json = [this] { return HealthJson(); };
    http.healthy = [this] { return healthy(); };
    http.timeseries = ts_.get();
    http.alerts = alerts_.get();
    http.flight_recorder = flight_.get();
    if (forensic_report_.valid) {
      http.forensics_json = [this] { return forensic_report_.ToJson(); };
    }
    http_server_ = std::make_unique<obs::HttpServer>(std::move(http));
    http_status_ = http_server_->Start();
    if (!http_status_.ok()) http_server_.reset();
  }
}

void TwoLevelRuntime::PublishReport(RunReport* report) {
  report->late_tuples = low_->late_tuples();
  report->low = MakeReport(*low_, report->stream_seconds);
  for (auto& node : high_) {
    report->late_tuples += node->late_tuples();
    report->high.push_back(MakeReport(*node, report->stream_seconds));
  }
  report->recovered = recovered_;
  report->recovered_windows = recovered_windows_;
  for (const auto& mgr : checkpoint_mgrs_) {
    if (mgr == nullptr) continue;
    report->checkpoints_written += mgr->writes();
    report->checkpoint_failures += mgr->failures();
    report->checkpoint_corrupt_skipped += mgr->corrupt_skipped();
    if (mgr->degraded()) report->checkpoint_degraded = true;
  }
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = *report;
  }
  shed_fraction_gauge_->Set(report->shed_fraction);
  shed_p_min_gauge_->Set(report->shed_p_min);
  shed_p_max_gauge_->Set(report->shed_p_max);
  late_tuples_gauge_->Set(static_cast<double>(report->late_tuples));
  packets_malformed_gauge_->Set(
      static_cast<double>(report->packets_malformed));
  watchdog_fired_gauge_->Set(report->watchdog_fired ? 1.0 : 0.0);
}

Status TwoLevelRuntime::FinishNodes(double weight) {
  const uint64_t t0 = NowNanos();
  STREAMOP_RETURN_NOT_OK(low_->Finish());
  const std::vector<Tuple> rows = low_->DrainOutput();
  low_->AddCpuNanos(NowNanos() - t0);
  for (auto& node : high_) {
    const uint64_t h0 = NowNanos();
    for (const Tuple& t : rows) STREAMOP_RETURN_NOT_OK(node->Push(t, weight));
    STREAMOP_RETURN_NOT_OK(node->Finish());
    node->AddCpuNanos(NowNanos() - h0);
  }
  return Status::OK();
}

bool TwoLevelRuntime::AnyNodeRecovering() const {
  for (const auto& node : high_) {
    SamplingOperator* op = node->sampling_operator();
    if (op != nullptr && op->recovering()) return true;
  }
  return false;
}

void TwoLevelRuntime::WriteNodeSnapshot(SamplingOperator* op,
                                        CheckpointManager* mgr,
                                        uint64_t windows_flushed,
                                        const ResumableSource* source) {
  ByteWriter w;
  op->SerializeDurableState(w);
  // Shed controller state rides along while a threaded run is live (the
  // hook runs on the consumer thread, which owns the controller, so this
  // read is unsynchronized but single-threaded).
  LoadShedController* shed = active_shed_.load(std::memory_order_acquire);
  w.Bool(shed != nullptr);
  if (shed != nullptr) {
    ByteWriter sw;
    shed->SerializeTo(sw);
    w.Str(sw.data());
  }
  ByteWriter ew;
  obs::ExemplarStore::Default().SerializeTo(ew);
  w.Bool(true);
  w.Str(ew.data());
  // Source-offset section: present only for RunSource snapshots, which
  // are taken at ingest batch boundaries where the operator state and the
  // source's durable offset describe the same prefix of the input.
  w.Bool(source != nullptr);
  if (source != nullptr) {
    w.Str(source->kind());
    w.U64(source->stream_id());
    w.U64(source->durable_offset());
  }
  mgr->Write(windows_flushed, w.data());
  // Checkpoint-cadence forensics: keep the flight segment in step with the
  // durable state, so a crash right after a checkpoint still leaves a
  // telemetry tail that covers the checkpointed window.
  if (flight_ != nullptr) flight_->RequestSpill();
}

void TwoLevelRuntime::FlushPendingSnapshots(const ResumableSource* source) {
  for (size_t i = 0; i < pending_snapshots_.size(); ++i) {
    if (pending_snapshots_[i] == 0) continue;
    WriteNodeSnapshot(high_[i]->sampling_operator(), checkpoint_mgrs_[i].get(),
                      pending_snapshots_[i], source);
    pending_snapshots_[i] = 0;
  }
}

bool TwoLevelRuntime::ApplySourceResume(ResumableSource& source) {
  if (!recovered_ || restored_sources_.empty()) return false;
  bool any = false;
  uint64_t offset = 0;
  for (size_t i = 0; i < high_.size(); ++i) {
    if (checkpoint_mgrs_[i] == nullptr) continue;
    const RestoredSourceInfo& rs = restored_sources_[i];
    // Every checkpoint-managed node must have been restored from a
    // snapshot naming THIS source at ONE offset; a node restored without
    // a source section (or not restored at all) still expects the replay-
    // from-start contract, and seeking would starve it of its prefix.
    if (!rs.restored || !rs.has_source) return false;
    if (rs.kind != source.kind() || rs.stream_id != source.stream_id()) {
      std::fprintf(stderr,
                   "[checkpoint] %s: snapshot was taken against %s source "
                   "id %llx, not %s — falling back to positional replay\n",
                   high_[i]->name().c_str(), rs.kind.c_str(),
                   static_cast<unsigned long long>(rs.stream_id),
                   source.describe().c_str());
      return false;
    }
    if (any && rs.offset != offset) return false;  // mixed offsets
    offset = rs.offset;
    any = true;
  }
  if (!any) return false;
  const Status st = source.SeekTo(offset);
  if (!st.ok()) {
    std::fprintf(stderr,
                 "[checkpoint] cannot seek %s to offset %llu (%s) — "
                 "falling back to positional replay\n",
                 source.describe().c_str(),
                 static_cast<unsigned long long>(offset),
                 st.message().c_str());
    return false;
  }
  // The source now continues exactly where the snapshots left off: no
  // replayed prefix will arrive, so cancel the positional skip.
  for (size_t i = 0; i < high_.size(); ++i) {
    if (checkpoint_mgrs_[i] == nullptr) continue;
    high_[i]->sampling_operator()->ClearRecoveryReplay();
  }
  std::fprintf(stderr, "[checkpoint] resuming %s at offset %llu\n",
               source.describe().c_str(),
               static_cast<unsigned long long>(offset));
  return true;
}

bool TwoLevelRuntime::healthy() const {
  if (alerts_ != nullptr && alerts_->critical_firing()) return false;
  std::lock_guard<std::mutex> lock(report_mu_);
  return !last_report_.watchdog_fired;
}

std::string TwoLevelRuntime::HealthJson() const {
  RunReport r;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    r = last_report_;
  }
  // Checkpoint state is read live from the managers (not the report copy)
  // so /healthz reflects writes and failures of an in-flight run too.
  const bool ckpt_enabled = !checkpoint_mgrs_.empty();
  bool ckpt_degraded = false;
  uint64_t ckpt_writes = 0, ckpt_failures = 0, ckpt_corrupt = 0;
  for (const auto& mgr : checkpoint_mgrs_) {
    if (mgr == nullptr) continue;
    ckpt_writes += mgr->writes();
    ckpt_failures += mgr->failures();
    ckpt_corrupt += mgr->corrupt_skipped();
    if (mgr->degraded()) ckpt_degraded = true;
  }
  // Alert summary + flight-recorder status (obs/alerts.h): a firing
  // critical alert dominates every other status and flips the endpoint to
  // 503 via healthy().
  const bool alerts_enabled = alerts_ != nullptr;
  obs::AlertSummary alerts;
  if (alerts_enabled) alerts = alerts_->Summary();
  const bool critical_alert = alerts.critical_firing > 0;
  const char* alert_worst =
      alerts.firing > 0 ? obs::AlertSeverityName(alerts.worst) : "none";
  const bool flight_enabled = flight_ != nullptr && flight_->enabled();
  const bool is_running = running_.load(std::memory_order_relaxed);
  const char* status =
      r.watchdog_fired
          ? "watchdog_fired"
          : critical_alert
                ? "critical_alert"
                : is_running
                      ? "running"
                      : (ckpt_degraded || alerts.firing > 0 ||
                         (r.shedding_enabled && r.shed_fraction > 0.0))
                            ? "degraded"
                            : "ok";
  const bool src_active = source_active_.load(std::memory_order_relaxed);
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"status\": \"%s\", \"running\": %s, \"watchdog_fired\": %s, "
      "\"shedding_enabled\": %s, \"shed_fraction\": %.6f, "
      "\"shed_p_min\": %.6f, \"shed_p_max\": %.6f, "
      "\"tuples_shed\": %llu, \"late_tuples\": %llu, "
      "\"packets_malformed\": %llu, \"packets\": %llu, "
      "\"checkpoint_enabled\": %s, \"checkpoint_degraded\": %s, "
      "\"recovered\": %s, \"recovered_windows\": %llu, "
      "\"checkpoints_written\": %llu, \"checkpoint_failures\": %llu, "
      "\"checkpoint_corrupt_skipped\": %llu, "
      "\"source_active\": %s, \"source_offset\": %llu, "
      "\"source_lag\": %llu, \"source_reconnects\": %llu, "
      "\"source_gaps\": %llu, "
      "\"alerts_enabled\": %s, \"alerts_firing\": %llu, "
      "\"alerts_pending\": %llu, \"alerts_critical_firing\": %llu, "
      "\"alerts_worst_severity\": \"%s\", "
      "\"flight_recorder_enabled\": %s, \"flight_spills\": %llu, "
      "\"flight_spill_failures\": %llu, \"forensic_report_loaded\": %s}\n",
      status, is_running ? "true" : "false",
      r.watchdog_fired ? "true" : "false",
      r.shedding_enabled ? "true" : "false", r.shed_fraction, r.shed_p_min,
      r.shed_p_max, static_cast<unsigned long long>(r.tuples_shed),
      static_cast<unsigned long long>(r.late_tuples),
      static_cast<unsigned long long>(r.packets_malformed),
      static_cast<unsigned long long>(r.packets),
      ckpt_enabled ? "true" : "false", ckpt_degraded ? "true" : "false",
      recovered_ ? "true" : "false",
      static_cast<unsigned long long>(recovered_windows_),
      static_cast<unsigned long long>(ckpt_writes),
      static_cast<unsigned long long>(ckpt_failures),
      static_cast<unsigned long long>(ckpt_corrupt),
      src_active ? "true" : "false",
      static_cast<unsigned long long>(
          live_source_offset_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          live_source_lag_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          live_source_reconnects_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          live_source_gaps_.load(std::memory_order_relaxed)),
      alerts_enabled ? "true" : "false",
      static_cast<unsigned long long>(alerts.firing),
      static_cast<unsigned long long>(alerts.pending),
      static_cast<unsigned long long>(alerts.critical_firing), alert_worst,
      flight_enabled ? "true" : "false",
      static_cast<unsigned long long>(
          flight_ != nullptr ? flight_->spills() : 0),
      static_cast<unsigned long long>(
          flight_ != nullptr ? flight_->spill_failures() : 0),
      forensic_report_.valid ? "true" : "false");
  return buf;
}

Result<RunReport> TwoLevelRuntime::RunSource(ResumableSource& source) {
  RunningGuard running(running_);
  const obs::IngestSourceMetrics ingest =
      obs::IngestSourceMetrics::Create(*options_.registry, source.describe());

  // Restore-side seek must happen before Open(): pcap applies the pending
  // seek when opening, sockets put the offset in their first HELLO.
  const bool resumed = ApplySourceResume(source);
  STREAMOP_RETURN_NOT_OK(source.Open());

  source_run_active_ = true;
  source_active_.store(true, std::memory_order_relaxed);
  pending_snapshots_.assign(high_.size(), 0);

  std::vector<PacketRecord> records(options_.batch_size);
  BatchStep step(*low_, high_, options_.batch_size);
  uint64_t delivered = 0;
  uint64_t malformed = 0;
  uint64_t first_ts = 0;
  uint64_t last_ts = 0;
  int64_t idle_since_ns = -1;
  bool clean_end = false;
  Status status;
  SourceIngestStats prev;  // last stats pushed into the counters

  auto sync_metrics = [&] {
    const SourceIngestStats& s = source.stats();
    if (ingest.enabled()) {
      ingest.frames->Add(s.frames - prev.frames);
      ingest.records->Add(s.records - prev.records);
      ingest.malformed_frames->Add(s.malformed_frames - prev.malformed_frames);
      ingest.reconnects->Add(s.reconnects - prev.reconnects);
      ingest.gaps->Add(s.gaps - prev.gaps);
      ingest.gap_records->Add(s.gap_records - prev.gap_records);
      ingest.duplicates->Add(s.duplicate_records - prev.duplicate_records);
      ingest.heartbeats->Add(s.heartbeats - prev.heartbeats);
      ingest.durable_offset->Set(static_cast<double>(source.durable_offset()));
      ingest.resume_offset->Set(static_cast<double>(s.resume_offset));
      ingest.offset_lag->Set(static_cast<double>(source.offset_lag()));
    }
    prev = s;
    live_source_offset_.store(source.durable_offset(),
                              std::memory_order_relaxed);
    live_source_lag_.store(source.offset_lag(), std::memory_order_relaxed);
    live_source_reconnects_.store(s.reconnects, std::memory_order_relaxed);
    live_source_gaps_.store(s.gaps, std::memory_order_relaxed);
  };

  for (;;) {
    size_t n = 0;
    const ResumableSource::ReadResult rr =
        source.Read(records.data(), records.size(), &n);
    if (n > 0) {
      if (delivered == 0) first_ts = records[0].ts_ns;
      delivered += n;
      idle_since_ns = -1;
    }
    // A quiet wire still turns the pipeline over with an empty batch:
    // hooks run, metrics refresh, deferred snapshots land.
    if (n > 0 || rr == ResumableSource::ReadResult::kIdle) {
      TupleBatch& batch = step.Begin();
      for (size_t i = 0; i < n; ++i) {
        const PacketRecord& p = records[i];
        last_ts = std::max(last_ts, p.ts_ns);
        if (WellFormed(p, &malformed)) batch.AppendPacket(p);
      }
      status = step.Push(n, 1.0);
      if (!status.ok()) break;
    }

    // Ingest batch boundary: every record read so far is fully processed,
    // so a deferred snapshot here can bind the operator state to the
    // source's durable offset.
    FlushPendingSnapshots(&source);
    sync_metrics();

    if (rr == ResumableSource::ReadResult::kEnd) {
      clean_end = source.last_status().ok();
      break;
    }
    if (options_.source_max_records > 0 &&
        delivered >= options_.source_max_records) {
      clean_end = true;
      break;
    }
    if (rr == ResumableSource::ReadResult::kIdle &&
        options_.source_max_idle_ms > 0) {
      const int64_t now = static_cast<int64_t>(NowNanos());
      if (idle_since_ns < 0) {
        idle_since_ns = now;
      } else if (now - idle_since_ns >=
                 static_cast<int64_t>(options_.source_max_idle_ms) *
                     1000000) {
        clean_end = true;  // configured idle budget: a clean end
        break;
      }
    }
  }

  // End of stream: flush the final windows, but only on a clean end — an
  // ingest failure must not emit partial windows as if they completed.
  if (status.ok() && clean_end) status = FinishNodes(1.0);
  // Snapshots deferred by the final flush bind to the end-of-stream offset.
  FlushPendingSnapshots(&source);
  source_run_active_ = false;
  source_active_.store(false, std::memory_order_relaxed);
  sync_metrics();

  RunReport report;
  report.stream_seconds =
      last_ts > first_ts ? static_cast<double>(last_ts - first_ts) * 1e-9 : 0.0;
  report.packets = delivered;
  report.packets_malformed = malformed;
  SourceReport sr;
  sr.source = source.describe();
  sr.resumed_from_offset = resumed;
  sr.clean_end = clean_end && status.ok();
  sr.durable_offset = source.durable_offset();
  sr.offset_lag = source.offset_lag();
  if (!source.last_status().ok()) sr.error = source.last_status().message();
  sr.stats = source.stats();
  report.sources.push_back(std::move(sr));
  PublishReport(&report);

  if (!status.ok()) return status;
  if (!clean_end && !source.last_status().ok()) return source.last_status();
  return report;
}

Result<RunReport> TwoLevelRuntime::RunThreaded(const Trace& trace) {
  RunningGuard running(running_);
  RingBuffer<const PacketRecord*> ring(options_.ring_capacity);
  ring.AttachMetrics(&ring_metrics_);
  const std::vector<PacketRecord>& packets = trace.packets();
  LoadShedController shed(options_.shed, options_.registry);
  // A restored snapshot carries the controller state from the killed run;
  // apply it so the admission probability resumes where it left off.
  if (!restored_shed_blob_.empty()) {
    ByteReader sr(restored_shed_blob_);
    shed.RestoreFrom(sr);
    restored_shed_blob_.clear();
  }
  // Publish for the checkpoint flush hook (runs on the consumer thread,
  // the same thread that drives the controller).
  active_shed_.store(&shed, std::memory_order_release);

  std::atomic<bool> abort{false};         // any party: stop everything
  std::atomic<bool> consumer_done{false};
  // Progress heartbeat for the watchdog: bumped on every push, pop and
  // drop. If it freezes for stall_timeout_ms the run is declared stuck.
  std::atomic<uint64_t> progress{0};
  // Producer->controller feedback, independent of the (compile-out-able)
  // obs counters: TryPush failures since the controller's last tick.
  std::atomic<uint64_t> push_failures{0};

  // Overload accounting, surfaced in the report and the registry: every
  // failed push is either retried (bounded backoff, deterministic default)
  // or dropped (drop_on_overload, the paper's Gigascope behaviour).
  uint64_t producer_retries = 0;
  uint64_t packets_dropped = 0;
  uint64_t backoff_sleeps = 0;
  uint64_t backoff_ns = 0;

  uint64_t wall0 = NowNanos();
  std::thread producer([&] {
    const bool drop = options_.drop_on_overload;
    int yields = 0;
    uint64_t sleep_ns = kBackoffMinSleepNs;
    for (const PacketRecord& p : packets) {
      while (!ring.TryPush(&p)) {
        if (abort.load(std::memory_order_acquire) || ring.poisoned()) {
          return;  // aborted runs leave the ring poisoned, not closed
        }
        push_failures.fetch_add(1, std::memory_order_relaxed);
        if (drop) {
          ++packets_dropped;
          progress.fetch_add(1, std::memory_order_relaxed);
          break;  // overload: shed this packet, move on
        }
        // Bounded backoff ladder: a burst of yields, then exponentially
        // growing sleeps capped at 1 ms — the producer never busy-spins
        // unboundedly against a slow consumer.
        ++producer_retries;
        if (yields < kBackoffYields) {
          ++yields;
          std::this_thread::yield();
        } else {
          ++backoff_sleeps;
          backoff_ns += sleep_ns;
          std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
          sleep_ns = std::min(sleep_ns * 2, kBackoffMaxSleepNs);
        }
      }
      // Ladder resets after any successful push.
      yields = 0;
      sleep_ns = kBackoffMinSleepNs;
      progress.fetch_add(1, std::memory_order_relaxed);
    }
    ring.Close();  // end of stream: consumer drains and exits
  });

  Status status;
  uint64_t consumer_malformed = 0;
  std::thread consumer([&] {
    const PacketRecord* p = nullptr;
    const bool shed_on = options_.shed.enabled;
    const uint64_t tick_ns = options_.shed.tick_interval_us * 1000;
    uint64_t last_tick_ns = 0;
    uint64_t last_failures = 0;
    uint64_t batch_index = 0;
    BatchStep step(*low_, high_, options_.batch_size);
    for (;;) {
      if (abort.load(std::memory_order_acquire)) break;
      if (options_.consumer_stall_hook) {
        options_.consumer_stall_hook(batch_index, abort);
        if (abort.load(std::memory_order_acquire)) break;
      }
      ++batch_index;

      // While a restored node is still discarding its replayed prefix the
      // shed gate is bypassed (weight 1.0, no Admit draws, no Tick): the
      // replayed packets were already admitted before the crash, and
      // re-shedding or re-tuning on them would double-drop / perturb the
      // restored admission probability. Recovery is byte-exact for
      // non-shed runs; with shedding, the RNG draws consumed before the
      // snapshot are part of the restored controller state, so the
      // post-replay stream continues from the same admission sequence.
      const bool replaying = AnyNodeRecovering();

      // Controller tick, rate-limited here so the controller itself stays
      // pure (unit tests drive Tick directly). The post-tick p is constant
      // across the batch, so one weight applies to every admitted tuple.
      if (shed_on && !replaying) {
        const uint64_t now = NowNanos();
        if (last_tick_ns == 0 || now - last_tick_ns >= tick_ns) {
          const uint64_t f = push_failures.load(std::memory_order_relaxed);
          shed.Tick(ring.size(), ring.capacity(), f - last_failures);
          last_failures = f;
          last_tick_ns = now;
        }
      }
      const double weight = (shed_on && !replaying) ? shed.weight() : 1.0;

      size_t popped = 0;
      TupleBatch& batch = step.Begin();
      for (size_t i = 0; i < options_.batch_size && ring.TryPop(&p); ++i) {
        ++popped;
        progress.fetch_add(1, std::memory_order_relaxed);
        if (!WellFormed(*p, &consumer_malformed)) continue;
        if (shed_on && !replaying && !shed.Admit()) {  // Bernoulli pre-sample
          OfferShedExemplar(*p, weight);
          continue;
        }
        batch.AppendPacket(*p);  // weight is constant across the batch
      }
      status = step.Push(popped, weight);
      if (!status.ok()) break;
      if (popped == 0) {
        if (ring.closed() && ring.empty()) break;  // clean end of stream
        std::this_thread::yield();
      }
    }
    if (!status.ok()) {
      // Consumer failed: poison the ring so the producer's retry loop (and
      // any pending pushes) unstick immediately instead of live-locking.
      abort.store(true, std::memory_order_release);
      ring.Poison();
    }
    consumer_done.store(true, std::memory_order_release);
    progress.fetch_add(1, std::memory_order_relaxed);
  });

  // Watchdog: the main thread supervises both workers. If the progress
  // heartbeat freezes for stall_timeout_ms — a hung consumer, a deadlocked
  // hook — it aborts and poisons the ring; both threads exit cooperatively
  // and the run reports ResourceExhausted instead of hanging forever.
  bool watchdog_fired = false;
  {
    const uint64_t timeout_ns = options_.stall_timeout_ms * 1000000ull;
    uint64_t last_progress = progress.load(std::memory_order_relaxed);
    uint64_t last_change_ns = NowNanos();
    while (!consumer_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const uint64_t now_progress = progress.load(std::memory_order_relaxed);
      if (now_progress != last_progress) {
        last_progress = now_progress;
        last_change_ns = NowNanos();
        continue;
      }
      if (timeout_ns > 0 && NowNanos() - last_change_ns >= timeout_ns) {
        watchdog_fired = true;
        abort.store(true, std::memory_order_release);
        ring.Poison();
        break;
      }
    }
  }
  producer.join();
  consumer.join();

  producer_retries_->Add(producer_retries);
  packets_dropped_->Add(packets_dropped);

  // End of stream (only on a clean run: an aborted pipeline must not emit
  // partial windows as if they were complete).
  if (status.ok() && !watchdog_fired) {
    status = FinishNodes(options_.shed.enabled ? shed.weight() : 1.0);
  }

  // The final flush (Finish above) may have snapshotted through the hook;
  // from here the controller is about to leave scope, so unpublish it.
  active_shed_.store(nullptr, std::memory_order_release);

  // The report — including the degradation summary — is built even for
  // failed runs and kept in last_report() for post-mortems.
  RunReport report;
  report.stream_seconds = trace.DurationSec();
  report.pipeline_seconds = static_cast<double>(NowNanos() - wall0) * 1e-9;
  report.packets = packets.size();
  report.ring_producer_retries = producer_retries;
  report.packets_dropped = packets_dropped;
  report.producer_backoff_sleeps = backoff_sleeps;
  report.producer_backoff_seconds = static_cast<double>(backoff_ns) * 1e-9;
  report.packets_malformed = consumer_malformed;
  report.watchdog_fired = watchdog_fired;
  report.shedding_enabled = options_.shed.enabled;
  report.tuples_offered = shed.offered();
  report.tuples_shed = shed.shed();
  report.shed_fraction = shed.shed_fraction();
  report.shed_p_min = shed.min_probability_seen();
  report.shed_p_max = shed.max_probability_seen();
  report.ring_push_failures = ring_metrics_.enabled()
                                  ? ring_metrics_.push_failures->value()
                                  : push_failures.load();
  report.ring_occupancy_hwm =
      ring_metrics_.enabled()
          ? static_cast<uint64_t>(ring_metrics_.occupancy_hwm->value())
          : 0;
  PublishReport(&report);

  if (watchdog_fired) {
    return Status::ResourceExhausted(
        "pipeline stalled: no progress for " +
        std::to_string(options_.stall_timeout_ms) +
        " ms (watchdog); see last_report() for the degradation summary");
  }
  if (!status.ok()) return status;
  return report;
}

Result<SingleRunResult> RunQueryOverTrace(const CompiledQuery& query,
                                          const Trace& trace,
                                          const std::string& name,
                                          obs::MetricRegistry* registry) {
  obs::MetricRegistry& reg =
      registry != nullptr ? *registry : obs::MetricRegistry::Default();
  QueryNode node(name, query, &reg);

  // Feed through an instrumented ring in batches — the same data path the
  // two-level runtime uses — so single-query runs (the CLI, the figure
  // benchmarks) surface ring occupancy and batch-latency metrics too.
  const obs::RingBufferMetrics ring_metrics =
      obs::RingBufferMetrics::Create(reg);
  RingBuffer<const PacketRecord*> ring(1 << 16);
  ring.AttachMetrics(&ring_metrics);
  constexpr size_t kBatch = 512;

  const std::vector<PacketRecord>& packets = trace.packets();
  TupleBatch batch(node.input_width(), kBatch);
  size_t produced = 0;
  while (produced < packets.size()) {
    while (produced < packets.size() && ring.TryPush(&packets[produced])) {
      ++produced;
    }
    while (!ring.empty()) {
      uint64_t t0 = NowNanos();
      batch.Clear();
      const PacketRecord* p = nullptr;
      for (size_t i = 0; i < kBatch && ring.TryPop(&p); ++i) {
        batch.AppendPacket(*p);
      }
      STREAMOP_RETURN_NOT_OK(node.PushBatch(batch));
      uint64_t batch_ns = NowNanos() - t0;
      node.AddCpuNanos(batch_ns);
      node.RecordBatch(batch_ns, batch.num_rows());
    }
  }
  uint64_t t0 = NowNanos();
  STREAMOP_RETURN_NOT_OK(node.Finish());
  node.AddCpuNanos(NowNanos() - t0);

  SingleRunResult out;
  out.report = MakeReport(node, trace.DurationSec());
  out.output = node.DrainOutput();
  out.windows = node.window_stats();
  return out;
}

}  // namespace streamop
