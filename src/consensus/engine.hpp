#pragma once
// Tendermint-style BFT consensus engine (paper §II-A).
//
// Each height runs in rounds: the rotating proposer reaps the mempool and
// broadcasts a proposal; validators validate and broadcast prevotes; on a
// +2/3 prevote quorum they broadcast precommits; on a +2/3 precommit quorum
// the block commits. If a round times out (proposer down, votes missing) the
// engine advances to the next round with a new proposer.
//
// All validator-to-validator traffic flows through net::Network with the
// testbed latency model, so consensus latency reacts to the configured RTT
// and to block size (proposal gossip is bandwidth-bound).
//
// Simplification (documented in DESIGN.md): the committed ledger and
// application state are shared per chain rather than replicated per
// validator — honest validators converge to identical state anyway, and the
// paper's bottlenecks live in the RPC layer and relayer, not in state sync.
// Consensus *timing* (what the experiments measure) is fully message-driven.
//
// The block interval emerges as
//   max(min_block_interval, consensus latency + block execution time)
// which is the mechanism behind the paper's Fig. 7 interval growth.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "chain/app.hpp"
#include "chain/block.hpp"
#include "chain/evidence.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "chain/validator.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace consensus {

struct EngineConfig {
  /// Pacing between blocks (Gaia's `timeout_commit` tuned so the paper's
  /// "at least 5 seconds between consecutive blocks" holds).
  sim::Duration min_block_interval = sim::seconds(5);
  /// Round timeout: if no commit by then, advance round with a new proposer.
  sim::Duration round_timeout = sim::seconds(3);
  /// Block limits (Tendermint byte default ~21 MB; Gaia commonly runs with
  /// an unbounded block gas limit, so the default here is non-binding).
  std::uint64_t max_block_gas = 100'000'000'000ULL;
  std::size_t max_block_bytes = 21 * 1024 * 1024;
  /// Superlinear per-block overhead: tx indexing, mempool recheck and state
  /// growth make processing grow faster than linearly in block fullness —
  /// the accelerating block intervals of the paper's Fig. 7. Applied as
  /// (total messages in block)^2 * this many nanoseconds.
  double block_overhead_quadratic_ns = 47.0;
  /// Per-transaction proposal validation cost at each validator (signature
  /// and stateless checks; execution happens after commit).
  sim::Duration validate_cost_per_tx = sim::micros(120);
  sim::Duration validate_cost_base = sim::millis(1);
  /// Vote message payload (bytes) for the bandwidth model.
  std::uint64_t vote_bytes = 256;
};

class Engine {
 public:
  using BlockCallback = std::function<void(
      const chain::Block&, const std::vector<chain::DeliverTxResult>&)>;

  Engine(sim::Scheduler& sched, net::Network& network,
         chain::ValidatorSet validators, chain::App& app,
         chain::Mempool& mempool, chain::Ledger& ledger, EngineConfig config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Starts producing blocks; the first proposal fires after one interval.
  void start();
  /// Stops after the in-flight height completes. The engine can be
  /// start()ed again later (chain halt/restart): mempool, store and ledger
  /// are owned elsewhere and survive untouched.
  void stop();
  bool running() const { return running_; }

  /// Byzantine-fault injection: synthesizes duplicate-vote evidence for the
  /// given validator (signed with its real key against the latest committed
  /// block plus a forged fork id) and queues it for the next proposal.
  void report_equivocation(std::size_t validator_idx);

  /// Invoked (in subscription order) when a block commits and has been
  /// executed; RPC servers and metrics hook in here.
  void subscribe_block(BlockCallback cb);

  /// Failure injection: a down validator neither proposes nor votes.
  void set_validator_live(std::size_t index, bool live);

  /// Wires telemetry. Track `name`/"consensus" gets one "height" span per
  /// block (round start through execution end — its width is the emergent
  /// block interval of Fig. 7) with a nested "exec" span, plus block/round
  /// counters and a block-fullness histogram. Call before start().
  void set_telemetry(telemetry::Hub* hub, const std::string& name);

  const chain::ValidatorSet& validators() const { return validators_; }
  chain::Ledger& ledger() { return ledger_; }
  chain::Mempool& mempool() { return mempool_; }
  chain::App& app() { return app_; }
  const EngineConfig& config() const { return config_; }

  // --- statistics -------------------------------------------------------
  std::uint64_t empty_blocks() const { return empty_blocks_ctr_->value(); }
  std::uint64_t total_rounds() const { return rounds_ctr_->value(); }
  std::uint64_t failed_rounds() const { return failed_rounds_ctr_->value(); }
  /// Verified misbehaviour proofs carried in committed blocks.
  std::uint64_t evidence_committed() const { return evidence_committed_; }
  sim::Duration last_exec_duration() const { return last_exec_duration_; }

 private:
  struct VoteTally {
    std::vector<bool> prevoted;
    std::vector<bool> precommitted;
    std::int64_t prevote_power = 0;
    std::int64_t precommit_power = 0;
    bool prevote_quorum_announced = false;
    bool committed = false;
  };

  // Height/round lifecycle.
  void schedule_next_height();
  void begin_round(chain::Height height, int round);
  void on_round_timeout(chain::Height height, int round);
  void propose(chain::Height height, int round);
  void on_proposal(std::size_t validator_idx, chain::Height height, int round,
                   std::shared_ptr<chain::Block> block);
  void cast_prevote(std::size_t validator_idx, chain::Height height, int round);
  void on_prevote(std::size_t from_idx, chain::Height height, int round);
  void on_precommit(std::size_t from_idx, chain::Height height, int round);
  void commit_block(chain::Height height, int round);

  VoteTally& tally(chain::Height height, int round);
  sim::Duration validation_cost(const chain::Block& block) const;

  sim::Scheduler& sched_;
  net::Network& network_;
  chain::ValidatorSet validators_;
  chain::App& app_;
  chain::Mempool& mempool_;
  chain::Ledger& ledger_;
  EngineConfig config_;

  std::vector<BlockCallback> block_callbacks_;
  std::vector<bool> live_;

  bool running_ = false;
  chain::Height current_height_ = 0;
  int current_round_ = 0;
  std::shared_ptr<chain::Block> current_block_;  // proposal being voted on
  std::map<std::pair<chain::Height, int>, VoteTally> tallies_;
  sim::EventId round_timeout_event_ = sim::kInvalidEvent;
  sim::TimePoint last_block_time_ = 0;
  sim::TimePoint last_commit_done_ = 0;

  std::vector<chain::Evidence> pending_evidence_;

  std::uint64_t evidence_committed_ = 0;
  sim::Duration last_exec_duration_ = 0;

  telemetry::Hub* hub_ = nullptr;
  telemetry::TrackId track_ = 0;
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* blocks_ctr_ = nullptr;
  telemetry::Counter* empty_blocks_ctr_ = nullptr;
  telemetry::Counter* rounds_ctr_ = nullptr;
  telemetry::Counter* failed_rounds_ctr_ = nullptr;
  telemetry::Histogram* block_msgs_hist_ = nullptr;
  sim::TimePoint height_start_ = 0;  // round-0 start of the current height
};

}  // namespace consensus
