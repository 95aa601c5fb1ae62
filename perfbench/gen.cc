// perf_gen: writes one workload's input before any engine process starts.
//
//   perf_gen --feed research|datacenter --duration <sec> --seed <n>
//            --trace <out.bin> [--pcap <out.pcap>]
//
// The records come from the engine's own feed generators, so a feed and seed
// name exactly one input. `datacenter` is TraceGenerator::MakeDataCenterFeed
// as is. `research` is MakeResearchFeed's rate model (15k/700 pkt/s Markov
// bursts) with its holding times and rate tick divided by 20: the benchmark
// closes 1 s windows where the paper closed 20 s ones, and the scaling keeps
// the same number of load changes per window. The trace file is what the TCP senders stream; the
// pcap file (nanosecond timestamps, raw IPv4) is what the pcap workload
// reads. Both carry the same records, and the benchmark computes its
// reference sums from these files, never from the engine's output.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/pcap_format.h"
#include "net/trace_generator.h"

using namespace streamop;

int main(int argc, char** argv) {
  std::string feed, trace_path, pcap_path;
  double duration = 0.0;
  uint64_t seed = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--feed") {
      feed = v;
    } else if (a == "--duration") {
      duration = std::atof(v);
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      trace_path = v;
    } else if (a == "--pcap") {
      pcap_path = v;
    } else {
      std::fprintf(stderr, "perf_gen: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if ((feed != "research" && feed != "datacenter") || duration <= 0.0 ||
      trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: perf_gen --feed research|datacenter --duration <s> "
                 "--seed <n> --trace <out> [--pcap <out>]\n");
    return 2;
  }
  Trace trace;
  if (feed == "research") {
    TraceGenConfig cfg;
    cfg.duration_sec = duration;
    cfg.seed = seed;
    cfg.rate_tick_sec = 1.0 / 20;
    MarkovBurstRateModel::Params p;
    p.high_rate_pps = 15000.0;
    p.low_rate_pps = 700.0;
    p.mean_high_holding_sec = 25.0 / 20;
    p.mean_low_holding_sec = 20.0 / 20;
    p.within_state_spread = 0.35;
    MarkovBurstRateModel rate(p);
    trace = TraceGenerator(cfg).Generate(rate);
  } else {
    trace = TraceGenerator::MakeDataCenterFeed(duration, seed);
  }
  Status st = trace.SaveTo(trace_path);
  if (st.ok() && !pcap_path.empty()) st = WritePcap(trace, pcap_path);
  if (!st.ok()) {
    std::fprintf(stderr, "perf_gen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%zu\n", trace.size());
  return 0;
}
