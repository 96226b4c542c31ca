#pragma once
// The benchmark's one adapter into the simulator.
//
// Every call the benchmark makes into the program lives in adapter.cpp, so a
// later change to the program's run driver has exactly one place to port.
// run_workload() mirrors xcc::run_experiment() step for step (same Testbed
// adjustments, same setup order, same window and drain/resolve logic) but
// times each phase from outside through public calls only, and reads latency
// from committed blocks through its own block subscribers instead of the
// relayer step log (no confirmation polling, so no observer effect).
//
// Untraced runs feed the end-to-end metrics. A traced run additionally arms
// the host profiler around the measured phase, records spans at every public
// call it makes, and times the invariant checker from outside (see
// RunOptions::traced).

#include <cstdint>
#include <string>
#include <vector>

#include "xcc/experiment.hpp"

namespace perfbench {

struct RunOptions {
  /// Traced run: profiler armed around the measured phase, spans recorded,
  /// and the invariant checker attached between two of the benchmark's own
  /// block subscribers (the Testbed's built-in checker is turned off so the
  /// same checks run exactly once, timed at the boundary).
  bool traced = false;
  /// Where a traced run writes its spans (JSON lines); empty = keep none.
  std::string spans_path;
};

/// Nearest-rank percentile summary of a latency sample. Transfers that never
/// finished count as beyond every limit: when the rank lands on one, the
/// percentile reads kUnfinished.
struct Percentiles {
  static constexpr double kUnfinished = 1e9;
  std::uint64_t samples = 0;  // finished transfers
  double p50_s = 0.0;
  double p99_s = 0.0;
};

struct RunResult {
  bool ok = false;
  std::string error;

  // --- virtual (exact for a seed) -----------------------------------------
  bool relay = false;  // relay workload (else inclusion-only)
  xcc::CompletionBreakdown window_breakdown;
  xcc::CompletionBreakdown final_breakdown;
  double tfps = 0.0;            // Fig. 8 (relay) or Fig. 6 (inclusion)
  double window_seconds = 0.0;
  double avg_block_interval = 0.0;
  double sim_seconds = 0.0;
  double measured_sim_seconds = 0.0;  // virtual length of the measured phase

  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;   // relay: ack committed; inclusion: committed
  std::uint64_t rejected = 0;    // never committed / failed on delivery
  std::uint64_t timed_out = 0;
  std::uint64_t unresolved = 0;  // still in flight when the run ended

  /// Relay: send commit -> ack commit on the source. Inclusion: mempool
  /// admission -> commit.
  Percentiles latency;
  Percentiles recv_leg;  // relay: send commit -> recv commit on destination
  Percentiles ack_leg;   // relay: recv commit -> ack commit on source
  /// send_packet events on the channel seen by the benchmark's subscriber.
  std::uint64_t sends_observed = 0;

  std::uint64_t events = 0;          // scheduler events in the measured phase
  std::uint64_t failed_rounds = 0;
  std::uint64_t rpc_requests_served = 0;
  std::uint64_t rpc_requests_rejected = 0;
  double rpc_busy_s = 0.0;           // source machine-0 node
  double rpc_utilization = 0.0;
  std::uint64_t chunk_queries = 0;
  std::uint64_t chunk_queries_skipped = 0;
  double cache_hit_ratio = 0.0;
  double redundant_ratio = 0.0;
  std::uint64_t coordination_skipped = 0;
  std::uint64_t sequence_mismatch = 0;
  std::uint64_t no_confirmation = 0;
  std::uint64_t net_messages = 0;
  double net_bytes_per_transfer = 0.0;
  std::uint64_t mempool_peak = 0;    // largest backlog after a commit
  std::uint64_t blocks_checked = 0;

  // --- host ------------------------------------------------------------------
  double setup_s = 0.0;
  double genesis_s = 0.0;
  double boot_s = 0.0;
  double handshake_s = 0.0;
  double measured_s = 0.0;  // workload start -> drain / resolution
  double peak_rss_mib = 0.0;
  double rss_growth_mib = 0.0;  // peak RSS minus RSS right after setup

  // Traced runs only: profiler self times over the measured phase.
  struct Layer {
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };
  Layer sim, rpc, pull, build, broadcast, exec, hash, store;
  double check_self_s = 0.0;  // checker self time, taken out of exec
  double profiled_wall_s = 0.0;
  double unattributed_s = 0.0;
  double host_ms_per_block_p50 = 0.0;
  double host_ms_per_block_p99 = 0.0;
  std::size_t spans = 0;
};

/// Runs one workload (an ExperimentConfig as the repo's benches build them;
/// collect_steps is ignored) to drain or resolution. An invariant violation
/// or a failed setup comes back as ok == false with the reason in error.
RunResult run_workload(const xcc::ExperimentConfig& config,
                       const RunOptions& options = {});

/// Times `count` further setups (Testbed construction through relayer start)
/// of the same config, each torn down before the next, in host seconds.
std::vector<double> time_setups(const xcc::ExperimentConfig& config, int count);

}  // namespace perfbench
