#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRelayBlocks = 50;
constexpr int kInclusionBlocks = 45;
constexpr std::size_t kInclusionAccounts = 300'000;
constexpr double kInclusionTxRate = 10.0;  // tx/s of 100 transfers each

/// One relayer path over the paper's 200 ms WAN, rate-mode closed-loop CLI
/// wallets, drained to completion.
xcc::ExperimentConfig relay(double rps, int relayers, std::uint64_t seed,
                            int blocks) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = relayers;
  cfg.collect_steps = false;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = blocks;
  cfg.testbed.rtt = sim::millis(200);
  cfg.testbed.seed = seed;
  cfg.wait_for_drain = true;
  cfg.max_sim_time = sim::seconds(4'000);
  return cfg;
}

}  // namespace

std::optional<xcc::ExperimentConfig> workload_config(std::string_view name,
                                                     std::uint64_t seed,
                                                     int blocks) {
  if (name == "relay-serial") {
    // Paper defaults: serial RPC, block-scan tx_search, no cache, no
    // coordination; 200 RPS is past Fig. 8's ~140 RPS peak.
    return relay(200, 1, seed, blocks > 0 ? blocks : kRelayBlocks);
  }
  if (name == "relay-mitigated") {
    // The full mitigation stack of the ablation bench's "all" row.
    xcc::ExperimentConfig cfg =
        relay(300, 2, seed, blocks > 0 ? blocks : kRelayBlocks);
    cfg.testbed.rpc_query_workers = 4;
    cfg.testbed.indexed_tx_search = true;
    cfg.relayer.query_cache.enabled = true;
    cfg.relayer.skip_satisfied_chunks = true;
    cfg.relayer.coordination.mode = relayer::CoordinationMode::kShardSequences;
    return cfg;
  }
  if (name == "inclusion-zipf") {
    // Open loop, Zipf(1.0) senders over 3x10^5 funded accounts, no relayer,
    // run until every submission resolves; checks stay on.
    const int window = blocks > 0 ? blocks : kInclusionBlocks;
    xcc::ExperimentConfig cfg;
    cfg.relayer_count = 0;
    cfg.collect_steps = false;
    cfg.measure_blocks = window;
    cfg.wait_for_workload = true;
    cfg.testbed.seed = seed;
    cfg.workload.open_loop = true;
    cfg.workload.msgs_per_tx = 100;
    cfg.workload.open_loop_accounts = kInclusionAccounts;
    cfg.workload.zipf_exponent = 1.0;
    cfg.workload.open_loop_tx_rate = kInclusionTxRate;
    // Submission spans the window: rate x 100 transfers x block interval.
    const double submit_seconds =
        static_cast<double>(window) *
        sim::to_seconds(cfg.testbed.min_block_interval);
    cfg.workload.total_transfers = static_cast<std::uint64_t>(
        submit_seconds * kInclusionTxRate *
        static_cast<double>(cfg.workload.msgs_per_tx));
    cfg.max_sim_time = sim::seconds(submit_seconds * 4.0 + 600.0);
    return cfg;
  }
  return std::nullopt;
}

}  // namespace perfbench
