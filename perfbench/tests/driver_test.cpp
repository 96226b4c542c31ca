// The benchmark driver must not fork from the repo's run driver: at a short
// length, every workload gives the same virtual results through
// perfbench::run_workload (untraced and traced) as through
// xcc::run_experiment. Also checks the seed contract: the same seed repeats
// byte for byte, another seed changes the results.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <string>

#include "adapter.hpp"
#include "workloads.hpp"

namespace {

constexpr std::uint64_t kSeed = 7;

xcc::ExperimentConfig short_config(const std::string& name, std::uint64_t seed) {
  const int blocks = name == "inclusion-zipf" ? 4 : 6;
  auto cfg = perfbench::workload_config(name, seed, blocks);
  EXPECT_TRUE(cfg.has_value()) << name;
  return *cfg;
}

void expect_same(const xcc::CompletionBreakdown& a,
                 const xcc::CompletionBreakdown& b, const char* what) {
  EXPECT_EQ(a.requested, b.requested) << what;
  EXPECT_EQ(a.uncommitted, b.uncommitted) << what;
  EXPECT_EQ(a.initiated_only, b.initiated_only) << what;
  EXPECT_EQ(a.partial, b.partial) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
}

class DriverMatchesRunExperiment
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DriverMatchesRunExperiment, SameVirtualResults) {
  const std::string name = GetParam();
  const xcc::ExperimentConfig cfg = short_config(name, kSeed);
  const xcc::ExperimentResult ref = xcc::run_experiment(cfg);
  ASSERT_TRUE(ref.ok) << ref.error;

  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    perfbench::RunOptions opt;
    opt.traced = traced;
    const perfbench::RunResult r = perfbench::run_workload(cfg, opt);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.tfps, cfg.relayer_count > 0 ? ref.tfps : ref.inclusion_tfps);
    EXPECT_EQ(r.window_seconds, ref.window_seconds);
    EXPECT_EQ(r.avg_block_interval, ref.avg_block_interval);
    EXPECT_EQ(r.sim_seconds, ref.sim_seconds);
    expect_same(r.window_breakdown, ref.window_breakdown, "window");
    expect_same(r.final_breakdown, ref.final_breakdown, "final");
    EXPECT_GT(r.succeeded, 0u);
    EXPECT_EQ(r.latency.samples, r.succeeded);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DriverMatchesRunExperiment,
                         ::testing::Values("relay-serial", "relay-mitigated",
                                           "inclusion-zipf"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(DriverSeed, SameSeedRepeatsOtherSeedDiffers) {
  const perfbench::RunResult a =
      perfbench::run_workload(short_config("relay-serial", kSeed));
  const perfbench::RunResult b =
      perfbench::run_workload(short_config("relay-serial", kSeed));
  const perfbench::RunResult c =
      perfbench::run_workload(short_config("relay-serial", kSeed + 1));
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.latency.p50_s, b.latency.p50_s);
  EXPECT_EQ(a.latency.p99_s, b.latency.p99_s);
  EXPECT_EQ(a.events, b.events);
  EXPECT_NE(a.events, c.events);
  EXPECT_NE(a.latency.p99_s, c.latency.p99_s);
}

TEST(DriverWorkloads, UnknownNameIsRejected) {
  EXPECT_FALSE(perfbench::workload_config("no-such-workload", 1).has_value());
}

}  // namespace
