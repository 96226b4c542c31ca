// The inclusion sweep: input rates 250-13,000 RPS submitted through
// CLI-style multi-account wallets for 15 consecutive blocks, 5 validators,
// 200 ms RTT, no relayer. Each distinct run executes once; Figs. 6 and 7
// are two views of the same runs (sweeps.hpp).
//
// Figure 6: throughput achieved by the Tendermint blockchain (transfers
// *included* per second). Paper shape: rises from ~200 TFPS at 250 RPS to
// a ~961 TFPS peak near 3,000 RPS, then declines (830 at 4,000, 499 at
// 9,000) as block intervals stretch; above 10,000 RPS submission itself
// collapses (Table I). The paper reports violin distributions over 20
// executions; we print the median / quartiles / min / max of the same
// measurement.
//
// Figure 7: average time interval between two consecutive blocks. Paper
// shape: pinned at the 5 s floor for low rates, growing (and accelerating)
// once blocks fill — execution, indexing and recheck times push the next
// proposal out.

#include "sweeps.hpp"

namespace {

using Sweep = bench::Sweep<bench::InclusionKey>;
using View = bench::View<bench::InclusionKey>;

util::Table fig6_table(const View& view, const Sweep& sweep) {
  bench::print_header(
      "Figure 6: Tendermint blockchain throughput (inclusion TFPS)",
      "peak ~961 TFPS at 3,000 RPS; ~200 at 250 RPS; decline beyond 4,000");
  util::Table table({"input rate (RPS)", "median TFPS", "lower q", "upper q",
                     "min", "max", "n"});
  for (const auto& row : view.rows) {
    util::Sample tfps;
    for (const auto& key : row.keys) {
      const auto& res = sweep.at(key);
      if (res.ok) tfps.add(res.inclusion_tfps);
    }
    table.add_row({util::fmt_int(static_cast<long long>(row.rps)),
                   util::fmt_double(tfps.median(), 1),
                   util::fmt_double(tfps.lower_quartile(), 1),
                   util::fmt_double(tfps.upper_quartile(), 1),
                   util::fmt_double(tfps.min(), 1),
                   util::fmt_double(tfps.max(), 1),
                   std::to_string(tfps.count())});
    std::cout << "  rate " << row.rps << ": median "
              << util::fmt_double(tfps.median(), 1) << " TFPS\n";
  }
  return table;
}

util::Table fig7_table(const View& view, const Sweep& sweep) {
  bench::print_header(
      "Figure 7: average block interval vs input rate",
      "5 s floor at low rates; grows with block fullness beyond ~2,000 RPS");
  util::Table table({"input rate (RPS)", "avg interval (s)", "sd",
                     "max interval (s)", "n runs"});
  for (const auto& row : view.rows) {
    util::Sample avg;
    util::Sample max_iv;
    for (const auto& key : row.keys) {
      const auto& res = sweep.at(key);
      if (!res.ok || res.block_intervals.empty()) continue;
      avg.add(res.avg_block_interval);
      double mx = 0;
      for (double v : res.block_intervals) mx = std::max(mx, v);
      max_iv.add(mx);
    }
    table.add_row({util::fmt_int(static_cast<long long>(row.rps)),
                   util::fmt_double(avg.mean(), 2),
                   util::fmt_double(avg.stddev(), 2),
                   util::fmt_double(max_iv.mean(), 2),
                   std::to_string(avg.count())});
    std::cout << "  rate " << row.rps << ": avg interval "
              << util::fmt_double(avg.mean(), 2) << " s\n";
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Inclusion sweep (Figs. 6-7)",
                      "one execution per distinct (rate, repetition)", opt);
  bench::run_views(
      opt, bench::inclusion_views(opt.full, bench::reps_or(opt, 3, 20)),
      {{"fig6_tendermint_throughput", fig6_table},
       {"fig7_block_interval", fig7_table}});
  return 0;
}
