#pragma once
// Experiment runner: wires Setup + Benchmark + Analysis into one run.
//
// Every bench binary (one per paper table/figure, and the mesh bench)
// configures an ExperimentConfig and calls run_experiment(); the returned
// ExperimentResult carries all the series the paper reports. The run is a
// transfer route over the testbed's topology; the paper's pair is the
// one-hop route {0, 1} over the one-edge topology.

#include <string>
#include <vector>

#include "relayer/relayer.hpp"
#include "xcc/analysis.hpp"
#include "xcc/workload.hpp"

namespace xcc {

struct ExperimentConfig {
  TestbedConfig testbed;  // .topology is the connection graph
  WorkloadConfig workload;
  relayer::RelayerConfig relayer;

  /// Transfer route as testbed chain indices (>= 2 entries, consecutive
  /// chains connected by the topology). Transfers start on route.front()
  /// and the packet-forward middleware carries them to route.back().
  std::vector<int> route{0, 1};

  /// Relayer instances on each hop of the route (0 = none: inclusion-only
  /// experiments, Figs. 6-7 / Table I).
  int relayer_count = 1;

  /// Measurement window in source-chain blocks after workload start.
  int measure_blocks = 50;

  /// Keep simulating past the window until all packets resolve (or no
  /// further progress) — used by the latency experiments (Figs. 12-13).
  bool wait_for_drain = false;
  /// Keep simulating until the workload has submitted everything and every
  /// transaction outcome resolved — Table I's submission accounting.
  bool wait_for_workload = false;
  sim::Duration drain_no_progress_limit = sim::seconds(120);

  /// Collect per-packet step records (disable for the very hot inclusion
  /// sweeps where the extra confirmation queries would distort Table I).
  bool collect_steps = true;

  /// Enables the telemetry hub for this run; ExperimentResult::metrics then
  /// carries the registry snapshot. Implied by trace_path/metrics_csv_path.
  bool telemetry = false;
  /// When non-empty, the full virtual-time trace is written here as Chrome
  /// trace-event JSON (load in Perfetto). Tracing needs the per-packet step
  /// records, so collect_steps is forced on — note the observer effect: the
  /// workload then issues extra confirmation queries, exactly like the
  /// paper's own measurement tooling (§III-B).
  std::string trace_path;
  /// When non-empty, the metrics snapshot is also written here as CSV.
  std::string metrics_csv_path;

  // --- observability pillar (sampler / flight recorder / watchdogs) -------
  /// Virtual-time sampling cadence (0 = sampling off unless series_csv_path
  /// is set, then one sample per source-chain block interval). Each tick
  /// snapshots every registry counter/gauge plus the component probes (RPC
  /// queue depths, relayer pending table by stage, mempool sizes, cache hit
  /// rate, outstanding commitments) and evaluates the anomaly watchdogs.
  sim::Duration sample_interval = 0;
  /// When non-empty, the sampled series is written here as CSV.
  std::string series_csv_path;
  /// When non-empty, arms the flight recorder: recent structured events
  /// (relayer steps, RPC admissions, commits, faults) are journaled into a
  /// bounded ring and the first failure trigger (invariant violation,
  /// abandoned packet) auto-dumps journal + metrics + series here.
  std::string flight_dump_path;
  /// Ring capacity (retained journal entries) when the recorder is armed.
  std::size_t flight_capacity = 512;

  sim::Duration max_sim_time = sim::seconds(14'400);
};

struct ExperimentResult {
  bool ok = false;
  std::string error;

  // Status at the end of the measurement window (Figs. 8-11 / Table I).
  CompletionBreakdown window_breakdown;
  /// Completed transfers per second within the window.
  double tfps = 0.0;
  /// Successful MsgTransfer inclusions per second within the window (Fig 6).
  double inclusion_tfps = 0.0;
  double window_seconds = 0.0;

  // Block production (Fig. 7).
  std::vector<double> block_intervals;
  double avg_block_interval = 0.0;
  std::uint64_t empty_blocks = 0;

  // Final status after draining (Figs. 12-13, §V).
  CompletionBreakdown final_breakdown;
  /// Last ack confirmation minus first transfer broadcast (Fig. 12's 455 s).
  double completion_latency_seconds = 0.0;

  // Route outcome, observed on the route's last chain.
  /// Submission-to-delivery latency of every transfer delivered to its
  /// final receiver, in delivery order, matched FIFO against the broadcast
  /// times in the step log (empty unless steps are collected).
  std::vector<double> delivery_latencies_seconds;
  /// Delivered transfers per second, first broadcast to last delivery.
  double delivery_tfps = 0.0;
  /// Packet-forward middleware counters summed over all chains.
  std::uint64_t packets_forwarded = 0;
  std::uint64_t forwards_completed = 0;
  std::uint64_t forwards_unwound = 0;
  /// Violations the invariant checker collected (0 under fail-fast, which
  /// throws at the first one instead).
  std::uint64_t invariant_violations = 0;
  /// Final app hash per chain (hex): the determinism fingerprint.
  std::vector<std::string> app_hashes;

  relayer::StepLog steps;
  TransferWorkload::Stats workload;
  std::vector<relayer::Relayer::Stats> relayers;
  /// QueryCache hit/miss/eviction totals summed over all relayers (all
  /// zeros in the default cache-off runs; the ablation bench reports them).
  relayer::QueryCache::Stats query_cache;

  // Aggregated wallet failure counters (paper §IV-A error taxonomy).
  std::uint64_t sequence_mismatch_errors = 0;
  std::uint64_t no_confirmation_errors = 0;
  std::uint64_t rpc_unavailable_errors = 0;

  // RPC utilisation on the machine-0 full nodes of the route's first and
  // last chain (the bottleneck analysis).
  double rpc_busy_seconds_a = 0.0;
  double rpc_busy_seconds_b = 0.0;

  // Host-side execution stats (nondeterministic — they belong in the `host`
  // section of a bench report, never next to the virtual-time results).
  double host_seconds = 0.0;
  /// Virtual time the scheduler reached, in seconds.
  double sim_seconds = 0.0;
  /// DES events the scheduler dispatched over the whole run.
  std::uint64_t events_executed = 0;

  /// Registry snapshot (empty unless the run had telemetry enabled).
  telemetry::MetricsSnapshot metrics;
  /// Sampled virtual-time series (empty unless sampling was on).
  telemetry::SeriesSnapshot series;
  /// Anomaly-watchdog warnings tripped on the sampled series.
  std::vector<telemetry::WatchdogWarning> warnings;
  /// Failure triggers the flight recorder saw (dump written on the first).
  std::size_t flight_dump_triggers = 0;
  /// Non-empty when writing trace_path / metrics_csv_path failed; the
  /// experiment itself still succeeds (ok stays true).
  std::string telemetry_error;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace xcc
