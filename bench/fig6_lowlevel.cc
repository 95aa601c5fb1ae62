// Figure 6 — "Effect of low-level query type".
//
// Gigascope's two-level architecture: a low-level query node feeds the
// high-level dynamic subset-sum query. With a plain *selection* subquery,
// every packet is copied up to the high level, so the low level pays the
// full per-packet copy cost and the high level sees the full stream. With a
// *basic subset-sum* subquery (threshold 1/10th of the dynamic sampler's
// level, per §7.2), the low level forwards a small fraction of the packets:
// both the low-level output cost and the high-level load collapse.
//
// We report low- and high-level %CPU for both configurations across the
// samples-per-period sweep.

#include <cstdio>

#include "bench/bench_util.h"
#include "stream/trace_source.h"

using namespace streamop;
using namespace streamop::bench;

namespace {

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

std::string PreSamplingLow(double z_low) {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, "
                "UMAX(len, %g) as len FROM PKT "
                "WHERE ssample(len, 0, 2, 1, %g) = TRUE",
                z_low, z_low);
  return buf;
}

struct TwoLevelResult {
  double low_cpu = 0.0;
  double high_cpu = 0.0;
  uint64_t forwarded = 0;
  double worst_rel_err = 0.0;
};

TwoLevelResult RunTwoLevel(const Trace& trace, const std::string& low_sql,
                           uint64_t n) {
  CompiledQuery low = MustCompile(low_sql, 41);
  CompiledQuery high = MustCompile(SubsetSumSql(n, 10.0), 42);
  TwoLevelRuntime rt(low, {high});
  TraceSource src(trace);
  Result<RunReport> report = rt.RunSource(src);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  TwoLevelResult out;
  out.low_cpu = report->low.cpu_percent;
  out.high_cpu = report->high[0].cpu_percent;
  out.forwarded = report->low.tuples_out;

  // Sanity: the end-to-end estimate must still track the trace.
  std::vector<uint64_t> truth = trace.BytesPerWindow(20);
  std::vector<double> est =
      EstimatePerWindow(rt.high_node(0).DrainOutput(), truth.size());
  for (size_t w = 0; w < truth.size(); ++w) {
    if (truth[w] == 0) continue;
    double rel = std::fabs(est[w] - static_cast<double>(truth[w])) /
                 static_cast<double>(truth[w]);
    out.worst_rel_err = std::max(out.worst_rel_err, rel);
  }
  return out;
}

}  // namespace

int main() {
  const double kDurationSec = 20.0;
  Trace trace = TraceGenerator::MakeDataCenterFeed(kDurationSec, /*seed=*/78);
  const double bytes_per_period =
      static_cast<double>(trace.TotalBytes()) * 20.0 / kDurationSec;

  PrintHeader("Figure 6: effect of low-level query type");
  std::printf("trace: %zu packets over %.0f s\n", trace.size(), kDurationSec);
  std::printf("%-14s | %-36s | %-36s\n", "", "selection subquery",
              "basic-SS subquery (z/10)");
  std::printf("%-14s | %10s %10s %12s | %10s %10s %12s\n", "samples/period",
              "low%CPU", "high%CPU", "forwarded", "low%CPU", "high%CPU",
              "forwarded");

  double sel_high_sum = 0, pre_high_sum = 0, sel_low_sum = 0, pre_low_sum = 0;
  int rows = 0;
  for (uint64_t n : {1000ULL, 2500ULL, 5000ULL, 10000ULL}) {
    TwoLevelResult sel = RunTwoLevel(trace, kPassThroughLow, n);
    // §7.2: the low level runs basic subset-sum with a threshold 1/10th of
    // the level the dynamic sampler would use for this target.
    double z_low = bytes_per_period / static_cast<double>(n) / 10.0;
    TwoLevelResult pre = RunTwoLevel(trace, PreSamplingLow(z_low), n);
    std::printf("%-14llu | %9.2f%% %9.2f%% %12llu | %9.2f%% %9.2f%% %12llu\n",
                static_cast<unsigned long long>(n), sel.low_cpu, sel.high_cpu,
                static_cast<unsigned long long>(sel.forwarded), pre.low_cpu,
                pre.high_cpu, static_cast<unsigned long long>(pre.forwarded));
    if (pre.worst_rel_err > 0.25) {
      std::printf("  WARNING: pre-sampled estimate error %.1f%%\n",
                  100 * pre.worst_rel_err);
    }
    sel_high_sum += sel.high_cpu;
    pre_high_sum += pre.high_cpu;
    sel_low_sum += sel.low_cpu;
    pre_low_sum += pre.low_cpu;
    ++rows;
  }
  std::printf(
      "\nsummary: mean low-level %%CPU %.2f -> %.2f; mean high-level %%CPU "
      "%.2f -> %.2f with basic-SS pre-sampling\n",
      sel_low_sum / rows, pre_low_sum / rows, sel_high_sum / rows,
      pre_high_sum / rows);
  std::printf(
      "paper shape: basic-SS subquery slashes both the low-level cost (few "
      "output copies) and the high-level load -> %s\n",
      (pre_high_sum < 0.5 * sel_high_sum) ? "REPRODUCED" : "CHECK");
  return 0;
}
