// Figure 13: completion latency of 5,000 transfers under seven submission
// strategies — the batch spread evenly over 1, 2, 4, 8, 16, 32 or 64
// consecutive blocks.
//
// Paper: 455 s (1 block), 286 s (2), 219 s (4), 143 s (8), 138 s (16, the
// minimum: -70% vs 1 block), then back UP to 240 s (32) and 441 s (64):
// small per-block batches keep the quadratic-ish pull costs down, but
// spreading further just serializes the submission window itself.

#include "common.hpp"

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);

  bench::print_header(
      "Figure 13: 5,000 transfers, submission spread over k blocks",
      "455/286/219/143/138/240/441 s for k=1/2/4/8/16/32/64; best at k=16",
      opt);

  const std::vector<int> spreads = {1, 2, 4, 8, 16, 32, 64};
  const std::vector<double> paper = {455, 286, 219, 143, 138, 240, 441};

  std::vector<xcc::ExperimentConfig> configs;
  for (const int k : spreads) {
    xcc::ExperimentConfig cfg;
    cfg.workload.total_transfers = 5'000;
    cfg.workload.spread_blocks = k;
    cfg.measure_blocks = 5 + k;
    cfg.wait_for_drain = true;
    cfg.drain_no_progress_limit = sim::seconds(300);
    cfg.max_sim_time = sim::seconds(6'000);
    configs.push_back(cfg);
  }
  const auto results = bench::run_sweep(opt, configs);

  util::Table table({"spread (blocks)", "completion latency (s)",
                     "paper (s)", "completed", "first completion (s)"});
  double base_latency = 0;
  double best = 1e18;
  int best_k = 1;
  for (std::size_t i = 0; i < spreads.size(); ++i) {
    const int k = spreads[i];
    const auto& res = results[i];
    if (!res.ok) {
      std::cout << "  spread " << k << " FAILED: " << res.error << "\n";
      continue;
    }
    const auto acks =
        res.steps.completion_times_seconds(relayer::Step::kAckConfirmation);
    const auto bcasts =
        res.steps.completion_times_seconds(relayer::Step::kTransferBroadcast);
    const double t0 = bcasts.empty() ? 0 : bcasts.front();
    const double first_done = acks.empty() ? 0 : acks.front() - t0;
    const double latency = res.completion_latency_seconds;
    if (k == 1) base_latency = latency;
    if (latency < best) {
      best = latency;
      best_k = k;
    }
    table.add_row({std::to_string(k), util::fmt_double(latency, 1),
                   util::fmt_double(paper[i], 0),
                   util::fmt_int(static_cast<long long>(
                       res.final_breakdown.completed)),
                   util::fmt_double(first_done, 1)});
    std::cout << "  spread " << k << ": " << util::fmt_double(latency, 1)
              << " s\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  if (base_latency > 0) {
    std::cout << "\nbest strategy: " << best_k << " blocks, "
              << util::fmt_percent((base_latency - best) / base_latency)
              << " lower latency than single-block submission "
              << "(paper: 16 blocks, -70%)\n";
  }
  bench::write_view(opt, "fig13_submission_strategies", table);
  return 0;
}
