// Unit tests for src/net: packet records, rate models, trace generation,
// the binary trace format and the sender's pacing schedule.

#include <gtest/gtest.h>

#include <cstdio>

#include "net/packet.h"
#include "net/rate_model.h"
#include "net/trace_generator.h"
#include "net/trace_sender.h"

namespace streamop {
namespace {

TEST(PacketTest, LayoutAndSeconds) {
  PacketRecord p{};
  p.ts_ns = 3'500'000'000ULL;
  EXPECT_EQ(p.ts_sec(), 3u);
  EXPECT_EQ(sizeof(PacketRecord), 24u);
}

TEST(PacketTest, ToStringRendersAddresses) {
  PacketRecord p{};
  p.ts_ns = 1'000'000'001ULL;
  p.src_ip = 0x0a000001;
  p.dst_ip = 0xc0a80001;
  p.src_port = 1234;
  p.dst_port = 80;
  p.proto = kProtoTcp;
  p.len = 1500;
  std::string s = p.ToString();
  EXPECT_NE(s.find("10.0.0.1:1234"), std::string::npos);
  EXPECT_NE(s.find("192.168.0.1:80"), std::string::npos);
  EXPECT_NE(s.find("len=1500"), std::string::npos);
}

TEST(FlowKeyTest, EqualityAndHash) {
  PacketRecord p{};
  p.src_ip = 1;
  p.dst_ip = 2;
  p.src_port = 3;
  p.dst_port = 4;
  p.proto = kProtoUdp;
  FlowKey a = FlowKeyOf(p);
  FlowKey b = FlowKeyOf(p);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  p.dst_port = 5;
  FlowKey c = FlowKeyOf(p);
  EXPECT_FALSE(a == c);
}

TEST(RateModelTest, ConstantWithoutJitter) {
  ConstantRateModel m(1000.0);
  Pcg64 rng(1);
  EXPECT_DOUBLE_EQ(m.RateAt(0.0, rng), 1000.0);
  EXPECT_DOUBLE_EQ(m.RateAt(100.0, rng), 1000.0);
}

TEST(RateModelTest, ConstantJitterStaysPositive) {
  ConstantRateModel m(1000.0, 0.5);
  Pcg64 rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(m.RateAt(i, rng), 0.0);
  }
}

TEST(RateModelTest, MarkovBurstSwitchesStates) {
  MarkovBurstRateModel::Params p;
  p.high_rate_pps = 10000;
  p.low_rate_pps = 1000;
  p.mean_high_holding_sec = 5;
  p.mean_low_holding_sec = 5;
  p.within_state_spread = 0.0;
  MarkovBurstRateModel m(p);
  Pcg64 rng(3);
  bool saw_high = false, saw_low = false;
  for (double t = 0; t < 300; t += 1.0) {
    double r = m.RateAt(t, rng);
    if (r > 5000) saw_high = true;
    if (r < 5000) saw_low = true;
  }
  EXPECT_TRUE(saw_high);
  EXPECT_TRUE(saw_low);
}

TEST(RateModelTest, SinusoidalOscillatesAndStaysPositive) {
  SinusoidalRateModel m(100.0, 500.0, 60.0);  // amplitude > base
  Pcg64 rng(4);
  double mn = 1e18, mx = 0;
  for (double t = 0; t < 60; t += 0.5) {
    double r = m.RateAt(t, rng);
    mn = std::min(mn, r);
    mx = std::max(mx, r);
  }
  EXPECT_GE(mn, 1.0);  // clamped at 1
  EXPECT_GT(mx, 500.0);
}

TEST(TraceGeneratorTest, DeterministicGivenSeed) {
  Trace a = TraceGenerator::MakeResearchFeed(5.0, 99);
  Trace b = TraceGenerator::MakeResearchFeed(5.0, 99);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < std::min<size_t>(a.size(), 100); ++i) {
    EXPECT_EQ(a.at(i).ts_ns, b.at(i).ts_ns);
    EXPECT_EQ(a.at(i).src_ip, b.at(i).src_ip);
  }
}

TEST(TraceGeneratorTest, SeedsChangeTrace) {
  Trace a = TraceGenerator::MakeResearchFeed(5.0, 1);
  Trace b = TraceGenerator::MakeResearchFeed(5.0, 2);
  EXPECT_NE(a.size(), b.size());
}

TEST(TraceGeneratorTest, TimestampsMonotone) {
  Trace t = TraceGenerator::MakeResearchFeed(10.0, 5);
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t.at(i).ts_ns, t.at(i - 1).ts_ns);
  }
}

TEST(TraceGeneratorTest, ResearchFeedRateInBand) {
  Trace t = TraceGenerator::MakeResearchFeed(30.0, 7);
  double pps = static_cast<double>(t.size()) / 30.0;
  // 3k-15k pkt/s band with spread; allow generous margins.
  EXPECT_GT(pps, 1000.0);
  EXPECT_LT(pps, 25000.0);
}

TEST(TraceGeneratorTest, DataCenterFeedNearNominal) {
  Trace t = TraceGenerator::MakeDataCenterFeed(5.0, 7);
  double pps = static_cast<double>(t.size()) / 5.0;
  EXPECT_NEAR(pps, 100000.0, 10000.0);
}

TEST(TraceGeneratorTest, LengthsInModeledRanges) {
  Trace t = TraceGenerator::MakeResearchFeed(3.0, 11);
  for (const PacketRecord& p : t.packets()) {
    bool small = p.len >= 40 && p.len <= 52;
    bool mid = p.len >= 400 && p.len <= 700;
    bool big = p.len >= 1400 && p.len <= 1500;
    EXPECT_TRUE(small || mid || big) << p.len;
  }
}

TEST(TraceGeneratorTest, AddressesInConfiguredPools) {
  TraceGenConfig cfg;
  cfg.duration_sec = 2.0;
  cfg.num_src_addrs = 10;
  cfg.num_dst_addrs = 20;
  TraceGenerator gen(cfg);
  ConstantRateModel rate(5000.0);
  Trace t = gen.Generate(rate);
  ASSERT_GT(t.size(), 0u);
  for (const PacketRecord& p : t.packets()) {
    EXPECT_GE(p.src_ip, cfg.src_base);
    EXPECT_LT(p.src_ip, cfg.src_base + 10);
    EXPECT_GE(p.dst_ip, cfg.dst_base);
    EXPECT_LT(p.dst_ip, cfg.dst_base + 20);
  }
}

TEST(TraceTest, WindowAggregatesMatchManualSums) {
  Trace t = TraceGenerator::MakeResearchFeed(7.0, 13);
  auto bytes = t.BytesPerWindow(2);
  auto counts = t.PacketsPerWindow(2);
  uint64_t total_b = 0, total_c = 0;
  for (uint64_t b : bytes) total_b += b;
  for (uint64_t c : counts) total_c += c;
  EXPECT_EQ(total_b, t.TotalBytes());
  EXPECT_EQ(total_c, t.size());
  EXPECT_EQ(counts.size(), bytes.size());
}

TEST(TraceTest, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.TotalBytes(), 0u);
  EXPECT_DOUBLE_EQ(t.DurationSec(), 0.0);
  EXPECT_TRUE(t.BytesPerWindow(10).empty());
}

TEST(TraceTest, SaveLoadRoundTrip) {
  Trace t = TraceGenerator::MakeResearchFeed(2.0, 17);
  std::string path = testing::TempDir() + "/streamop_trace_test.bin";
  ASSERT_TRUE(t.SaveTo(path).ok());
  Result<Trace> loaded = Trace::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(loaded->at(i).ts_ns, t.at(i).ts_ns);
    EXPECT_EQ(loaded->at(i).len, t.at(i).len);
  }
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/streamop_bad_trace.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  Result<Trace> r = Trace::LoadFrom(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadMissingFileFails) {
  Result<Trace> r = Trace::LoadFrom("/nonexistent/path/t.bin");
  EXPECT_FALSE(r.ok());
}

TEST(PaceScheduleTest, FramesAreDueOnAnAbsoluteSchedule) {
  // 1M rec/s: each record is due 1 us after the one before it.
  PaceSchedule pace;
  pace.records_per_sec = 1e6;
  pace.Restart(5000);
  // Sent 500 records right away: the next frame is due at 5000 + 500 us.
  EXPECT_EQ(pace.Book(500, 5000), 500000);
  // The sleep overshot by 30 us: the next wait is shortened to compensate.
  EXPECT_EQ(pace.Book(500, 535000), 470000);
  EXPECT_EQ(pace.sent, 1000u);
}

TEST(PaceScheduleTest, BehindScheduleSendsAtOnceUntilCaughtUp) {
  PaceSchedule pace;
  pace.records_per_sec = 1e6;
  pace.Restart(0);
  // A slow send left the sender 2 ms behind: no sleep for the next frames
  // until the schedule is ahead of the clock again.
  EXPECT_EQ(pace.Book(500, 2500000), 0);
  EXPECT_EQ(pace.Book(500, 2500000), 0);
  EXPECT_EQ(pace.Book(1000, 2500000), 0);
  EXPECT_EQ(pace.Book(1000, 2500000), 500000);
}

TEST(PaceScheduleTest, RestartStartsTheScheduleOver) {
  PaceSchedule pace;
  pace.records_per_sec = 2000.0;  // 500 us per record
  pace.Restart(0);
  EXPECT_EQ(pace.Book(4, 0), 2000000);
  // A reconnect 10 s later: nothing is owed for the time disconnected.
  pace.Restart(10000000000);
  EXPECT_EQ(pace.sent, 0u);
  EXPECT_EQ(pace.Book(2, 10000000000), 1000000);
}

}  // namespace
}  // namespace streamop
