// The runtime invariant checker (src/check): clean full-stack runs stay
// violation-free, a deliberately broken keeper is detected, fail-fast mode
// throws, fuzz scenarios are deterministic per seed, planted bank faults are
// caught at the block that writes them, and the write-set-driven store model
// never drifts from a full sweep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "cosmos/coin.hpp"
#include "xcc/testbed.hpp"

namespace {

// A seed whose generated scenario (two relayers + redundant deliveries)
// exposes the skip-replay-check mutation. Pinned rather than searched so the
// test is fast; fuzz_scenarios re-derives such seeds continuously.
constexpr std::uint64_t kCatchingSeed = 1031378132722ULL;

TEST(InvariantChecker, CleanScenarioHasNoViolations) {
  const check::ScenarioResult res = check::run_scenario(kCatchingSeed);
  ASSERT_TRUE(res.setup_ok) << res.setup_error;
  EXPECT_GT(res.blocks_checked, 0u);
  EXPECT_TRUE(res.violations.empty());
}

TEST(InvariantChecker, SkipReplayMutationIsCaught) {
  check::ScenarioOptions opt;
  opt.mutate_skip_replay = true;
  const check::ScenarioResult res = check::run_scenario(kCatchingSeed, opt);
  ASSERT_TRUE(res.setup_ok) << res.setup_error;
  ASSERT_FALSE(res.violations.empty());
  // The broken replay check manifests as a double-applied recv.
  bool exactly_once_recv = false;
  for (const check::Violation& v : res.violations) {
    if (v.invariant == "exactly-once-recv") exactly_once_recv = true;
  }
  EXPECT_TRUE(exactly_once_recv);
}

TEST(InvariantChecker, FailFastThrowsInvariantViolation) {
  check::ScenarioOptions opt;
  opt.mutate_skip_replay = true;
  opt.fail_fast = true;
  EXPECT_THROW(check::run_scenario(kCatchingSeed, opt),
               check::InvariantViolation);
}

TEST(InvariantChecker, ScenarioIsDeterministicPerSeed) {
  const check::ScenarioResult a = check::run_scenario(kCatchingSeed);
  const check::ScenarioResult b = check::run_scenario(kCatchingSeed);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.blocks_checked, b.blocks_checked);
  EXPECT_EQ(a.transfers_requested, b.transfers_requested);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.packets_timed_out, b.packets_timed_out);
  EXPECT_EQ(a.redundant_messages, b.redundant_messages);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

// --- planted bank-conservation faults --------------------------------------
// Each fault is written straight into chain 0's store between two commits,
// bypassing the bank keeper (supply stays unchanged). The checker only sees
// it through that block's store write-set, so a missed write means a missed
// violation.

constexpr sim::TimePoint kLimit = sim::seconds(600);

/// BankKeeper's balance key layout.
std::string balance_key(const chain::Address& addr) {
  return "bank/bal/" + addr + "|" + cosmos::kNativeDenom;
}

util::Bytes amount_bytes(std::uint64_t v) {
  util::Bytes b;
  util::append_u64_be(b, v);
  return b;
}

class PlantedBankFault : public ::testing::Test {
 protected:
  void SetUp() override {
    xcc::TestbedConfig cfg;
    cfg.invariant_fail_fast = false;
    tb_ = std::make_unique<xcc::Testbed>(cfg);
    tb_->start_chains();
    ASSERT_TRUE(tb_->run_until_height(3, kLimit));
    user_ = tb_->user_accounts().front();
    funded_ = app().bank().balance(user_, cosmos::kNativeDenom);
    ASSERT_GT(funded_, 0u);
  }

  cosmos::CosmosApp& app() { return *tb_->chain(0).app; }
  /// The height of the next block chain 0 commits.
  chain::Height next_height() { return tb_->chain(0).ledger->height() + 1; }
  void run_blocks(chain::Height n) {
    ASSERT_TRUE(tb_->run_until_height(next_height() + n, kLimit));
  }

  /// The planted fault must first show up as bank-conservation on chain 0
  /// at `height`, with nothing reported before it.
  void expect_caught_at(chain::Height height) {
    const std::vector<check::Violation>& vs = tb_->checker()->violations();
    ASSERT_FALSE(vs.empty()) << "planted fault not detected";
    EXPECT_EQ(vs.front().invariant, "bank-conservation")
        << vs.front().to_string();
    EXPECT_EQ(vs.front().chain, tb_->chain(0).id);
    EXPECT_EQ(vs.front().height, height) << vs.front().to_string();
    // The model followed the store exactly: no drift against a sweep.
    EXPECT_EQ(tb_->checker()->cross_check(), 0u);
  }

  std::unique_ptr<xcc::Testbed> tb_;
  chain::Address user_;
  std::uint64_t funded_ = 0;
};

TEST_F(PlantedBankFault, RaisedBalanceIsCaughtAtItsBlock) {
  const chain::Height planted = next_height();
  app().store().set(balance_key(user_), amount_bytes(funded_ + 7));
  run_blocks(2);
  expect_caught_at(planted);
}

TEST_F(PlantedBankFault, ErasedBalanceIsCaughtAtItsBlock) {
  const chain::Height planted = next_height();
  app().store().erase(balance_key(user_));
  run_blocks(2);
  expect_caught_at(planted);
}

TEST_F(PlantedBankFault, RevertedTxRaisesNothing) {
  app().store().begin_tx();
  app().store().set(balance_key(user_), amount_bytes(funded_ + 7));
  app().store().erase(balance_key(tb_->user_accounts().back()));
  app().store().revert_tx();
  run_blocks(3);
  EXPECT_TRUE(tb_->checker()->violations().empty())
      << tb_->checker()->report();
  EXPECT_EQ(tb_->checker()->cross_check(), 0u);
}

// --- differential: incremental model vs full sweep, every block -------------

constexpr std::uint64_t kFuzzBaseSeed = 0xF022ED5EEDULL;  // fuzz_scenarios'

class ModelMatchesSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelMatchesSweep, AfterEveryBlockOfTwentyFuzzSeeds) {
  check::ScenarioOptions opt;
  opt.topology = GetParam();
  for (std::uint64_t seed = kFuzzBaseSeed; seed < kFuzzBaseSeed + 20; ++seed) {
    std::uint64_t sweeps = 0, drifts = 0;
    const check::ScenarioResult res =
        check::run_scenario(seed, opt, [&](xcc::Testbed& tb) {
          for (int i = 0; i < tb.chain_count(); ++i) {
            tb.chain(i).engine->subscribe_block(
                [&](const chain::Block&,
                    const std::vector<chain::DeliverTxResult>&) {
                  ++sweeps;
                  drifts += tb.checker()->cross_check();
                });
          }
        });
    ASSERT_TRUE(res.setup_ok) << "seed " << seed << ": " << res.setup_error;
    EXPECT_EQ(sweeps, res.blocks_checked) << "seed " << seed;
    EXPECT_EQ(drifts, 0u) << "seed " << seed;
    for (const check::Violation& v : res.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ModelMatchesSweep,
                         ::testing::Values("pair", "mesh3"));

}  // namespace
