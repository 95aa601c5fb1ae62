// Unit tests for src/stream: the SPSC ring buffer (single- and
// multi-threaded), the tuple sources and the resumable trace source.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "net/trace_generator.h"
#include "stream/ring_buffer.h"
#include "stream/stream_source.h"
#include "stream/trace_source.h"

namespace streamop {
namespace {

TEST(RingBufferTest, CapacityRoundsToPowerOfTwo) {
  RingBuffer<int> rb(5);
  EXPECT_GE(rb.capacity(), 5u);
  RingBuffer<int> rb2(1);
  EXPECT_GE(rb2.capacity(), 1u);
}

TEST(RingBufferTest, PushPopFifoOrder) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(rb.TryPush(i));
  EXPECT_EQ(rb.size(), 5u);
  int v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rb.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.TryPop(&v));
}

TEST(RingBufferTest, FullBufferRejectsPush) {
  RingBuffer<int> rb(2);  // usable capacity >= 2
  size_t pushed = 0;
  while (rb.TryPush(1)) ++pushed;
  EXPECT_EQ(pushed, rb.capacity());
  int v;
  ASSERT_TRUE(rb.TryPop(&v));
  EXPECT_TRUE(rb.TryPush(2));  // space reclaimed
}

TEST(RingBufferTest, BatchOperations) {
  RingBuffer<int> rb(16);
  int in[10];
  std::iota(in, in + 10, 0);
  EXPECT_EQ(rb.PushBatch(in, 10), 10u);
  int out[10];
  EXPECT_EQ(rb.PopBatch(out, 10), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(RingBufferTest, WrapAroundManyTimes) {
  RingBuffer<uint64_t> rb(4);
  uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (rb.TryPush(next_in)) ++next_in;
    uint64_t v;
    while (rb.TryPop(&v)) {
      EXPECT_EQ(v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(RingBufferTest, SpscTwoThreads) {
  RingBuffer<uint64_t> rb(1024);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (rb.TryPush(i)) ++i;
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t v;
    if (rb.TryPop(&v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(rb.empty());
}

TEST(StreamSourceTest, PacketToTupleFieldMapping) {
  PacketRecord p{};
  p.ts_ns = 2'500'000'000ULL;
  p.src_ip = 10;
  p.dst_ip = 20;
  p.src_port = 30;
  p.dst_port = 40;
  p.proto = 6;
  p.len = 99;
  Tuple t = PacketToTuple(p);
  SchemaPtr schema = MakePacketSchema();
  ASSERT_EQ(t.size(), schema->num_fields());
  EXPECT_EQ(t[schema->FieldIndex("time")].uint_value(), 2u);
  EXPECT_EQ(t[schema->FieldIndex("ts_ns")].uint_value(), 2'500'000'000ULL);
  EXPECT_EQ(t[schema->FieldIndex("srcIP")].uint_value(), 10u);
  EXPECT_EQ(t[schema->FieldIndex("destIP")].uint_value(), 20u);
  EXPECT_EQ(t[schema->FieldIndex("srcPort")].uint_value(), 30u);
  EXPECT_EQ(t[schema->FieldIndex("destPort")].uint_value(), 40u);
  EXPECT_EQ(t[schema->FieldIndex("proto")].uint_value(), 6u);
  EXPECT_EQ(t[schema->FieldIndex("len")].uint_value(), 99u);
}

TEST(StreamSourceTest, TraceSourceReplaysAll) {
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 3);
  TraceTupleSource src(&trace);
  Tuple t;
  size_t n = 0;
  while (src.Next(&t)) ++n;
  EXPECT_EQ(n, trace.size());
  EXPECT_FALSE(src.Next(&t));  // stays exhausted
}

TEST(StreamSourceTest, TraceSourceReset) {
  Trace trace = TraceGenerator::MakeResearchFeed(0.5, 3);
  TraceTupleSource src(&trace);
  Tuple t;
  size_t first = 0;
  while (src.Next(&t)) ++first;
  src.Reset();
  size_t second = 0;
  while (src.Next(&t)) ++second;
  EXPECT_EQ(first, second);
}

TEST(StreamSourceTest, VectorSource) {
  SchemaPtr schema = MakePacketSchema();
  std::vector<Tuple> tuples = {Tuple({Value::UInt(1)}),
                               Tuple({Value::UInt(2)})};
  VectorTupleSource src(schema, tuples);
  EXPECT_EQ(src.schema()->name(), "PKT");
  Tuple t;
  ASSERT_TRUE(src.Next(&t));
  EXPECT_EQ(t[0].uint_value(), 1u);
  ASSERT_TRUE(src.Next(&t));
  EXPECT_EQ(t[0].uint_value(), 2u);
  EXPECT_FALSE(src.Next(&t));
  src.Reset();
  ASSERT_TRUE(src.Next(&t));
  EXPECT_EQ(t[0].uint_value(), 1u);
}

// ---------- TraceSource (ResumableSource over an in-memory trace) ----------

bool SameRecord(const PacketRecord& a, const PacketRecord& b) {
  return a.ts_ns == b.ts_ns && a.src_ip == b.src_ip && a.dst_ip == b.dst_ip &&
         a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.len == b.len && a.proto == b.proto;
}

TEST(TraceSourceTest, ReadHonoursMaxAndOffsetCountsDelivered) {
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 3);
  ASSERT_GT(trace.size(), 100u);
  TraceSource src(trace);
  ASSERT_TRUE(src.Open().ok());
  EXPECT_STREQ(src.kind(), "trace");
  std::vector<PacketRecord> buf(64);
  size_t delivered = 0;
  for (;;) {
    size_t n = 0;
    const auto r = src.Read(buf.data(), 40, &n);
    if (r == ResumableSource::ReadResult::kEnd) {
      EXPECT_EQ(n, 0u);
      break;
    }
    ASSERT_EQ(r, ResumableSource::ReadResult::kRecords);
    ASSERT_LE(n, 40u);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameRecord(buf[i], trace.at(delivered + i)));
    }
    delivered += n;
    EXPECT_EQ(src.durable_offset(), delivered);
    EXPECT_EQ(src.offset_lag(), trace.size() - delivered);
  }
  EXPECT_EQ(delivered, trace.size());
  EXPECT_EQ(src.stats().records, trace.size());
  EXPECT_TRUE(src.last_status().ok());
}

TEST(TraceSourceTest, SeekToResumesAtTheRecord) {
  Trace trace = TraceGenerator::MakeResearchFeed(1.0, 3);
  const size_t k = trace.size() / 3;
  TraceSource src(trace);
  ASSERT_TRUE(src.SeekTo(k).ok());
  ASSERT_TRUE(src.Open().ok());
  EXPECT_EQ(src.durable_offset(), k);
  EXPECT_EQ(src.stats().resume_offset, k);
  std::vector<PacketRecord> buf(8);
  size_t n = 0;
  ASSERT_EQ(src.Read(buf.data(), buf.size(), &n),
            ResumableSource::ReadResult::kRecords);
  ASSERT_EQ(n, buf.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(SameRecord(buf[i], trace.at(k + i)));
  }
  EXPECT_EQ(src.durable_offset(), k + n);
  EXPECT_FALSE(src.SeekTo(trace.size() + 1).ok());
  ASSERT_TRUE(src.SeekTo(trace.size()).ok());
  EXPECT_EQ(src.Read(buf.data(), buf.size(), &n),
            ResumableSource::ReadResult::kEnd);
  EXPECT_TRUE(src.last_status().ok());
}

TEST(TraceSourceTest, StreamIdFollowsTheTraceContents) {
  Trace a = TraceGenerator::MakeResearchFeed(1.0, 3);
  Trace same = TraceGenerator::MakeResearchFeed(1.0, 3);
  Trace other = TraceGenerator::MakeResearchFeed(1.0, 4);
  Trace one_changed = a;
  one_changed.mutable_packets()[a.size() / 2].len ^= 1;
  EXPECT_EQ(TraceSource(a).stream_id(), TraceSource(same).stream_id());
  EXPECT_NE(TraceSource(a).stream_id(), TraceSource(other).stream_id());
  EXPECT_NE(TraceSource(a).stream_id(), TraceSource(one_changed).stream_id());
}

}  // namespace
}  // namespace streamop
