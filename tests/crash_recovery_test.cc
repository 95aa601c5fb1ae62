// Crash-recovery tests (DESIGN.md §10): a forked child runs the two-level
// pipeline with checkpointing and is SIGKILLed mid-stream — no atexit
// hooks, no flushes, a real crash. A fresh runtime pointed at the same
// checkpoint dir must restore the newest valid snapshot and, replaying the
// same trace, produce output byte-identical to what an uninterrupted run
// emits for the post-snapshot windows.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"
#include "stream/fault_injection.h"
#include "stream/trace_source.h"

namespace streamop {
namespace {

namespace fs = std::filesystem;

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

constexpr char kAggQuery[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY time/5 as tb, "
    "srcIP";

// The paper's dynamic subset-sum query: sampler state (threshold z, RNG,
// per-group partials) must survive the crash for the estimates to land.
constexpr char kSubsetSumQuery[] = R"(
    SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
    FROM PKTS
    WHERE ssample(len, 500, 2, 10) = TRUE
    GROUP BY time/5 as tb, srcIP, destIP, ts_ns
    HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
    CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
    CLEANING BY ssclean_with(sum(len)) = TRUE
)";

std::vector<std::string> RowsAsStrings(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string s;
    for (size_t i = 0; i < t.size(); ++i) {
      s += t[i].ToString();
      s += '\t';
    }
    out.push_back(std::move(s));
  }
  return out;
}

RuntimeOptions CheckpointedOptions(const std::string& dir) {
  RuntimeOptions opt;
  opt.checkpoint.dir = dir;
  opt.checkpoint.every_n_windows = 1;
  return opt;
}

size_t CountSnapshots(const fs::path& dir) {
  if (!fs::exists(dir)) return 0;
  size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".ckpt.") != std::string::npos &&
        name.rfind(".tmp") == std::string::npos) {
      ++n;
    }
  }
  return n;
}

// Forks a child that runs the checkpointed pipeline (throttled so windows
// flush over wall-clock seconds), waits for `kill_after_snapshots`
// snapshot files, then SIGKILLs it. Returns false if the child finished
// before it could be killed (the caller should treat that as a skip, not a
// failure — it means the machine outran the throttle).
bool RunChildAndKill(const Trace& trace, const std::string& high_sql,
                     const fs::path& dir, size_t kill_after_snapshots) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: run to completion unless killed. Everything is stack-local;
    // SIGKILL means no destructors, no fsync beyond the checkpoints' own.
    auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
    auto high = CompileQuery(high_sql, Catalog::Default(), {.seed = 3});
    if (!low.ok() || !high.ok()) _exit(3);
    RuntimeOptions opt = CheckpointedOptions(dir.string());
    // Throttle the consumer so the ~6 windows take a few seconds: the
    // parent kills us long before the final window.
    ConsumerStallSpec stall;
    stall.stall_at_batch = 0;
    stall.per_batch_ms = 4;
    opt.consumer_stall_hook = MakeConsumerStallHook(stall);
    TwoLevelRuntime rt(*low, {*high}, opt);
    auto report = rt.RunThreaded(trace);
    _exit(report.ok() ? 0 : 4);
  }

  // Parent: wait for enough snapshots, then kill without warning.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool killed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (CountSnapshots(dir) >= kill_after_snapshots) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      return false;  // child finished before we could kill it
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!killed) ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return killed && WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("crash_" + std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

void ExpectRecoveredSuffixMatchesReference(const Trace& trace,
                                           const std::string& high_sql,
                                           const fs::path& dir) {
  // Reference: the same queries, same seed, uninterrupted, no checkpoints.
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(high_sql, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  std::vector<std::string> reference;
  {
    TwoLevelRuntime ref(*low, {*high});
    TraceSource src(trace);
    auto report = ref.RunSource(src);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reference = RowsAsStrings(ref.high_node(0).DrainOutput());
  }

  // Recovery: restore from the killed run's snapshots and replay.
  TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(dir.string()));
  ASSERT_TRUE(rt.recovered()) << "no valid snapshot was restored";
  const uint64_t watermark = rt.recovered_windows();
  EXPECT_GE(watermark, 1u);
  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->recovered);
  EXPECT_EQ(report->recovered_windows, watermark);
  EXPECT_EQ(report->checkpoint_corrupt_skipped, 0u);

  // The recovered run emits exactly the windows flushed after the restored
  // snapshot; determinism makes them byte-identical to the reference's
  // suffix. (Windows before the watermark were emitted by the killed
  // child before it died — at-most-once output, never duplicated here.)
  const std::vector<std::string> recovered =
      RowsAsStrings(rt.high_node(0).DrainOutput());
  ASSERT_LE(recovered.size(), reference.size());
  const std::vector<std::string> ref_tail(reference.end() - recovered.size(),
                                          reference.end());
  EXPECT_EQ(recovered, ref_tail);
}

TEST_F(CrashRecoveryTest, SigkillThenResumeAggregation) {
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  if (!RunChildAndKill(trace, kAggQuery, dir_, 2)) {
    GTEST_SKIP() << "child completed before SIGKILL; machine too fast for "
                    "the throttle";
  }
  ASSERT_GE(CountSnapshots(dir_), 1u);
  ExpectRecoveredSuffixMatchesReference(trace, kAggQuery, dir_);
}

TEST_F(CrashRecoveryTest, SigkillThenResumeSubsetSumSampling) {
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  if (!RunChildAndKill(trace, kSubsetSumQuery, dir_, 2)) {
    GTEST_SKIP() << "child completed before SIGKILL; machine too fast for "
                    "the throttle";
  }
  ExpectRecoveredSuffixMatchesReference(trace, kSubsetSumQuery, dir_);
}

TEST_F(CrashRecoveryTest, RecoveredEstimatesTrackGroundTruth) {
  // Quality gate on the recovered run: per-window subset-sum estimates for
  // the recovered windows stay within the same error envelope the paper's
  // operator delivers uninterrupted (±10% of true bytes per window).
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  if (!RunChildAndKill(trace, kSubsetSumQuery, dir_, 2)) {
    GTEST_SKIP() << "child completed before SIGKILL";
  }
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kSubsetSumQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(dir_.string()));
  ASSERT_TRUE(rt.recovered());
  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto truth = trace.BytesPerWindow(5);
  std::vector<double> est(truth.size(), 0.0);
  std::vector<bool> seen(truth.size(), false);
  for (const Tuple& t : rt.high_node(0).DrainOutput()) {
    const uint64_t tb = t[0].AsUInt();
    ASSERT_LT(tb, truth.size());
    est[tb] += t[3].AsDouble();
    seen[tb] = true;
  }
  size_t checked = 0;
  for (size_t w = 0; w + 1 < truth.size(); ++w) {  // skip the partial tail
    if (!seen[w] || truth[w] == 0) continue;
    const double rel = std::fabs(est[w] - static_cast<double>(truth[w])) /
                       static_cast<double>(truth[w]);
    EXPECT_LT(rel, 0.10) << "recovered window " << w;
    ++checked;
  }
  EXPECT_GE(checked, 1u) << "recovery left no full window to verify";
}

TEST_F(CrashRecoveryTest, CleanRunThenRestartEmitsNothingTwice) {
  // A clean (non-crashed) run checkpoints through FinishStream; restarting
  // over the same trace must replay everything and emit zero duplicate
  // rows — exactly-once output across process restarts on a clean kill.
  Trace trace = TraceGenerator::MakeResearchFeed(20.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  size_t first_rows = 0;
  {
    TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(dir_.string()));
    auto report = rt.RunThreaded(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->recovered);
    EXPECT_GT(report->checkpoints_written, 0u);
    first_rows = rt.high_node(0).DrainOutput().size();
    EXPECT_GT(first_rows, 0u);
  }
  {
    TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(dir_.string()));
    EXPECT_TRUE(rt.recovered());
    auto report = rt.RunThreaded(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->recovered);
    EXPECT_EQ(rt.high_node(0).DrainOutput().size(), 0u);
  }
}

TEST_F(CrashRecoveryTest, CorruptedSnapshotsFallBackThenFreshStart) {
  // Corrupt every snapshot the killed run left: recovery must detect all
  // of them (counted, logged), restore nothing, and still run correctly
  // from scratch — never crash, never restore garbage.
  Trace trace = TraceGenerator::MakeResearchFeed(20.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  {
    TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(dir_.string()));
    ASSERT_TRUE(rt.RunThreaded(trace).ok());
  }
  size_t corrupted = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    ASSERT_TRUE(InjectCheckpointFault(
        e.path().string(),
        corrupted % 2 == 0 ? CheckpointFault::kBitFlip
                           : CheckpointFault::kStaleVersion,
        corrupted + 1));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  TwoLevelRuntime rt(*low, {*high}, CheckpointedOptions(dir_.string()));
  EXPECT_FALSE(rt.recovered());
  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->checkpoint_corrupt_skipped, corrupted);

  // Fresh start produced the full output, same as a reference run.
  TwoLevelRuntime ref(*low, {*high});
  TraceSource src(trace);
  ASSERT_TRUE(ref.RunSource(src).ok());
  EXPECT_EQ(RowsAsStrings(rt.high_node(0).DrainOutput()),
            RowsAsStrings(ref.high_node(0).DrainOutput()));
}

}  // namespace
}  // namespace streamop
