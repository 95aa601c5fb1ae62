#include "stream/trace_source.h"

#include <algorithm>

#include "common/hash.h"

namespace streamop {

uint64_t TraceSource::stream_id() const {
  if (stream_id_ == 0) {
    // Field by field: PacketRecord's pad byte carries no data.
    uint64_t h = Mix64(trace_.size());
    for (const PacketRecord& p : trace_.packets()) {
      h = HashCombine(h, p.ts_ns);
      h = HashCombine(h, uint64_t{p.src_ip} << 32 | p.dst_ip);
      h = HashCombine(h, uint64_t{p.src_port} << 40 |
                             uint64_t{p.dst_port} << 24 |
                             uint64_t{p.len} << 8 | p.proto);
    }
    stream_id_ = h != 0 ? h : 1;
  }
  return stream_id_;
}

ResumableSource::ReadResult TraceSource::Read(PacketRecord* buf, size_t max,
                                              size_t* n_out) {
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(max, trace_.size() - offset_));
  const PacketRecord* from = trace_.packets().data() + offset_;
  std::copy(from, from + n, buf);
  offset_ += n;
  stats_.records += n;
  *n_out = n;
  return n > 0 ? ReadResult::kRecords : ReadResult::kEnd;
}

Status TraceSource::SeekTo(uint64_t offset) {
  if (offset > trace_.size()) {
    return Status::InvalidArgument("trace seek past the last record");
  }
  offset_ = offset;
  stats_.resume_offset = offset;
  return Status::OK();
}

}  // namespace streamop
