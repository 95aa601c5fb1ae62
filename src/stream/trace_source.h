// TraceSource: a ResumableSource over an in-memory Trace, so a generated or
// loaded trace runs through TwoLevelRuntime::RunSource like a pcap file or
// a socket.
//
// The durable offset is the index of the next record to deliver. A restore
// seeks there and re-reads the identical records, so trace crash recovery
// is byte-identical, as for pcap. The stream id hashes the trace's records:
// the same trace always gets the same id, and a checkpoint taken over one
// trace never seeks into a different one. It is computed on first use, so
// runs that never checkpoint do not pay for it.

#ifndef STREAMOP_STREAM_TRACE_SOURCE_H_
#define STREAMOP_STREAM_TRACE_SOURCE_H_

#include <string>

#include "net/trace_generator.h"
#include "stream/resumable_source.h"

namespace streamop {

class TraceSource : public ResumableSource {
 public:
  /// `trace` must outlive the source.
  explicit TraceSource(const Trace& trace) : trace_(trace) {}

  const char* kind() const override { return "trace"; }
  uint64_t stream_id() const override;
  std::string describe() const override {
    return "trace:" + std::to_string(trace_.size()) + " records";
  }
  Status Open() override { return Status::OK(); }
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override;
  uint64_t durable_offset() const override { return offset_; }
  Status SeekTo(uint64_t offset) override;
  uint64_t offset_lag() const override { return trace_.size() - offset_; }
  const SourceIngestStats& stats() const override { return stats_; }
  Status last_status() const override { return Status::OK(); }

 private:
  const Trace& trace_;
  uint64_t offset_ = 0;
  SourceIngestStats stats_;
  mutable uint64_t stream_id_ = 0;  // 0 = not computed yet
};

}  // namespace streamop

#endif  // STREAMOP_STREAM_TRACE_SOURCE_H_
