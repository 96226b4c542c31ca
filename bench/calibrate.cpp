// Calibration probe (developer tool): prints the simulator's values for the
// paper's anchor measurements so cost-model constants can be tuned.
//
//   anchor                          paper value
//   Fig. 12 total completion        455 s  (5,000 transfers, 1 block)
//   Fig. 12 transfer segment        126 s  (data pull 110 s)
//   Fig. 12 receive segment         261 s  (data pull 207 s)
//   Fig. 12 ack segment              68 s
//   Fig. 8 TFPS @ 20 RPS            ~14
//   Fig. 8 TFPS @ 140 RPS           ~80 (200 ms) / ~90 (0 ms)
//   Fig. 8 TFPS @ 300 RPS           ~50 (200 ms)
//   Fig. 6 inclusion TFPS @ 250     ~200
//   Fig. 6 inclusion TFPS @ 3000    ~961 (peak)
//
// All probes are independent simulations; they are submitted as one batch
// to the parallel runner and reported in a fixed order afterwards.

#include "common.hpp"

namespace {

xcc::ExperimentConfig fig12_probe_config() {
  xcc::ExperimentConfig cfg;
  cfg.workload.total_transfers = 5'000;
  cfg.workload.spread_blocks = 1;
  cfg.measure_blocks = 5;
  cfg.wait_for_drain = true;
  cfg.max_sim_time = sim::seconds(4'000);
  return cfg;
}

void fig12_report(const xcc::ExperimentResult& res) {
  if (!res.ok) {
    std::cout << "fig12 probe FAILED: " << res.error << "\n";
    return;
  }
  const auto& s = res.steps;
  auto fin = [&](relayer::Step st) { return s.step_finish_seconds(st); };
  const auto bcasts =
      s.completion_times_seconds(relayer::Step::kTransferBroadcast);
  const double t0 = bcasts.empty() ? 0 : bcasts.front();
  std::cout << "fig12: total=" << util::fmt_double(res.completion_latency_seconds, 1)
            << "s (paper 455)\n";
  std::cout << "  transfer segment ends (pull done): "
            << util::fmt_double(fin(relayer::Step::kTransferDataPull) - t0, 1)
            << "s (paper 126)\n";
  std::cout << "  recv segment ends (recv pull done): "
            << util::fmt_double(fin(relayer::Step::kRecvDataPull) - t0, 1)
            << "s (paper 126+261=387)\n";
  std::cout << "  ack conf ends: "
            << util::fmt_double(fin(relayer::Step::kAckConfirmation) - t0, 1)
            << "s (paper 455)\n";
  std::cout << "  completed=" << res.final_breakdown.completed << "/5000\n";
}

xcc::ExperimentConfig fig8_probe_config(double rps, sim::Duration rtt) {
  xcc::ExperimentConfig cfg;
  cfg.testbed.rtt = rtt;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = 50;
  cfg.collect_steps = false;
  cfg.max_sim_time = sim::seconds(2'000);
  return cfg;
}

void fig8_report(double rps, sim::Duration rtt,
                 const xcc::ExperimentResult& res) {
  std::cout << "fig8 rps=" << rps << " rtt=" << sim::to_millis(rtt)
            << "ms: tfps=" << util::fmt_double(res.tfps, 1)
            << " completed=" << res.window_breakdown.completed
            << " partial=" << res.window_breakdown.partial
            << " initiated=" << res.window_breakdown.initiated_only
            << " interval=" << util::fmt_double(res.avg_block_interval, 2)
            << " rpcA=" << util::fmt_double(res.rpc_busy_seconds_a, 0)
            << "s rpcB=" << util::fmt_double(res.rpc_busy_seconds_b, 0)
            << "s\n";
}

xcc::ExperimentConfig fig6_probe_config(double rps) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = 0;
  cfg.collect_steps = false;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = 15;
  cfg.max_sim_time = sim::seconds(2'000);
  return cfg;
}

void fig6_report(double rps, const xcc::ExperimentResult& res) {
  std::cout << "fig6 rps=" << rps
            << ": inclusion_tfps=" << util::fmt_double(res.inclusion_tfps, 1)
            << " interval=" << util::fmt_double(res.avg_block_interval, 2)
            << " committed=" << res.window_breakdown.committed()
            << " uncommitted=" << res.window_breakdown.uncommitted << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Prints a fixed probe set and writes no files: no --trace/--series/
  // --flight target (instrumented = false), no report for --json, and no
  // sweep for --full or --reps to resize.
  const bench::Options opt =
      bench::parse_options(argc, argv, {}, /*instrumented=*/false);
  if (opt.json || opt.full || opt.reps > 0) {
    std::cerr << "calibrate runs a fixed probe set and writes no report: "
                 "--full, --reps and --json are not supported\n";
    return 1;
  }
  std::cout << "-- calibration probes (" << bench::jobs_or_default(opt)
            << " worker(s)) --\n";

  const std::vector<double> fig6_rates = {250, 1000, 3000, 6000};
  const std::vector<std::pair<double, sim::Duration>> fig8_points = {
      {20, sim::millis(200)},
      {140, sim::millis(200)},
      {140, sim::millis(0.5)},
      {300, sim::millis(200)}};

  std::vector<xcc::ExperimentConfig> configs;
  for (double rps : fig6_rates) configs.push_back(fig6_probe_config(rps));
  for (const auto& [rps, rtt] : fig8_points) {
    configs.push_back(fig8_probe_config(rps, rtt));
  }
  configs.push_back(fig12_probe_config());

  xcc::SweepStats stats;
  const auto results =
      xcc::run_experiments(configs, bench::jobs_or_default(opt), &stats);

  std::size_t idx = 0;
  for (double rps : fig6_rates) fig6_report(rps, results[idx++]);
  for (const auto& [rps, rtt] : fig8_points) {
    fig8_report(rps, rtt, results[idx++]);
  }
  fig12_report(results[idx++]);
  bench::print_sweep_summary(stats);
  return 0;
}
