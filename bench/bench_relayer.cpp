// The relayer sweep: Hermes-like relayers over one channel, input rates
// 20-300 RPS, 50-block window, network latency 0 ms and 200 ms. Each
// distinct run executes once; Figs. 8-11 are four views of the same runs
// (sweeps.hpp).
//
// Figure 8: completed transfers per second with ONE relayer. Paper shape:
// throughput tracks the input rate at low rates (14 TFPS at 20 RPS), peaks
// around 140 RPS (~90 TFPS at 0 ms / ~80 at 200 ms), then declines with
// further input (50-56 TFPS at 300 RPS) as the serialized RPC data pulls
// grow with block fullness.
//
// Figure 9: the same with TWO independent relayers serving the channel.
// Paper finding: counter-intuitively, two relayers are SLOWER than one —
// peak throughput drops by 14% (0 ms) / 33% (200 ms) versus Fig. 8 —
// because ICS-18 gives relayers no way to coordinate, so both deliver the
// same packets and the loser burns fees on "packet messages are redundant"
// failures (23,020 such errors at 100 RPS in the paper's logs).
//
// Figures 10 and 11: completion status of the transfers submitted within
// the window, 200 ms latency, one and two relayers: completed
// (transfer+receive+ack), partially completed (transfer+receive), only
// initiated (transfer), and not committed. Paper shape: >99.9% committed
// up to 160 RPS; from 180 RPS onward a growing share ends the window only
// partially completed or initiated because the relayer falls behind (given
// enough time all valid transfers complete). Two relayers are worse even
// where everything commits, because redundant deliveries waste both
// relayers' time.

#include <tuple>

#include "sweeps.hpp"

namespace {

using Sweep = bench::Sweep<bench::RelayerKey>;
using View = bench::View<bench::RelayerKey>;

double redundant_errors(const xcc::ExperimentResult& res) {
  double red = 0;
  for (const auto& st : res.relayers) {
    red += static_cast<double>(st.redundant_errors);
  }
  return red;
}

util::Table fig8_table(const View& view, const Sweep& sweep) {
  bench::print_header(
      "Figure 8: one-relayer cross-chain throughput vs input rate",
      "peak ~80-90 TFPS at 140 RPS; ~14 at 20 RPS; ~50-56 at 300 RPS");
  util::Table table({"input rate (RPS)", "latency", "mean TFPS", "sd",
                     "completed", "partial", "initiated", "n"});
  for (const auto& row : view.rows) {
    util::Sample tfps;
    double completed = 0, partial = 0, initiated = 0;
    int n = 0;
    for (const auto& key : row.keys) {
      const auto& res = sweep.at(key);
      if (!res.ok) continue;
      ++n;
      tfps.add(res.tfps);
      completed += static_cast<double>(res.window_breakdown.completed);
      partial += static_cast<double>(res.window_breakdown.partial);
      initiated += static_cast<double>(res.window_breakdown.initiated_only);
    }
    if (n == 0) continue;
    table.add_row({util::fmt_int(static_cast<long long>(row.rps)),
                   row.latency, util::fmt_double(tfps.mean(), 1),
                   util::fmt_double(tfps.stddev(), 1),
                   util::fmt_int(static_cast<long long>(completed / n)),
                   util::fmt_int(static_cast<long long>(partial / n)),
                   util::fmt_int(static_cast<long long>(initiated / n)),
                   std::to_string(n)});
    std::cout << "  " << row.latency << " rate " << row.rps << ": "
              << util::fmt_double(tfps.mean(), 1) << " TFPS\n";
  }
  return table;
}

util::Table fig9_table(const View& view, const Sweep& sweep) {
  bench::print_header(
      "Figure 9: two-relayer throughput (vs one-relayer baseline)",
      "peak lower than one relayer (paper: -14% at 0 ms, -33% at 200 ms); "
      "redundant-message errors");
  util::Table table({"input rate (RPS)", "latency", "1-relayer TFPS",
                     "2-relayer TFPS", "change", "redundant msgs", "n"});
  // Peak per latency, in row order: {latency, 1-relayer, 2-relayer}.
  std::vector<std::tuple<std::string, double, double>> peaks;
  for (const auto& row : view.rows) {
    util::Sample one, two, redundant;
    for (const auto& key : row.keys) {
      const auto& res = sweep.at(key);
      if (!res.ok) continue;
      if (key.relayers == 1) {
        one.add(res.tfps);
      } else {
        two.add(res.tfps);
        redundant.add(redundant_errors(res));
      }
    }
    if (peaks.empty() || std::get<0>(peaks.back()) != row.latency) {
      peaks.emplace_back(row.latency, 0.0, 0.0);
    }
    auto& [latency, peak1, peak2] = peaks.back();
    peak1 = std::max(peak1, one.mean());
    peak2 = std::max(peak2, two.mean());
    const double change =
        one.mean() > 0 ? (two.mean() - one.mean()) / one.mean() : 0;
    table.add_row({util::fmt_int(static_cast<long long>(row.rps)),
                   row.latency, util::fmt_double(one.mean(), 1),
                   util::fmt_double(two.mean(), 1), util::fmt_percent(change),
                   util::fmt_int(static_cast<long long>(redundant.mean())),
                   std::to_string(two.count())});
    std::cout << "  " << row.latency << " rate " << row.rps << ": 1r "
              << util::fmt_double(one.mean(), 1) << " vs 2r "
              << util::fmt_double(two.mean(), 1) << " TFPS\n";
  }
  for (const auto& [latency, peak1, peak2] : peaks) {
    std::cout << "  " << latency << " peak: 1 relayer "
              << util::fmt_double(peak1, 1) << " TFPS, 2 relayers "
              << util::fmt_double(peak2, 1) << " TFPS ("
              << util::fmt_percent(peak1 > 0 ? (peak2 - peak1) / peak1 : 0)
              << ")\n";
  }
  return table;
}

/// Figs. 10-11: window-end completion shares; with two relayers the table
/// also counts redundant-delivery errors.
util::Table completion_table(const View& view, const Sweep& sweep,
                             bool two_relayers) {
  std::vector<std::string> header = {"input rate (RPS)", "requested",
                                     "completed %",      "partial %",
                                     "initiated %",      "uncommitted %"};
  if (two_relayers) header.push_back("redundant msgs");
  util::Table table(header);
  for (const auto& row : view.rows) {
    double requested = 0, completed = 0, partial = 0, initiated = 0,
           uncommitted = 0, redundant = 0;
    int n = 0;
    for (const auto& key : row.keys) {
      const auto& res = sweep.at(key);
      if (!res.ok) continue;
      ++n;
      requested += static_cast<double>(res.window_breakdown.requested);
      completed += static_cast<double>(res.window_breakdown.completed);
      partial += static_cast<double>(res.window_breakdown.partial);
      initiated += static_cast<double>(res.window_breakdown.initiated_only);
      uncommitted += static_cast<double>(res.window_breakdown.uncommitted);
      redundant += redundant_errors(res);
    }
    if (n == 0 || requested == 0) continue;
    std::vector<std::string> cells = {
        util::fmt_int(static_cast<long long>(row.rps)),
        util::fmt_int(static_cast<long long>(requested / n)),
        util::fmt_percent(completed / requested),
        util::fmt_percent(partial / requested),
        util::fmt_percent(initiated / requested),
        util::fmt_percent(uncommitted / requested)};
    if (two_relayers) {
      cells.push_back(util::fmt_int(static_cast<long long>(redundant / n)));
    }
    table.add_row(cells);
  }
  return table;
}

util::Table fig10_table(const View& view, const Sweep& sweep) {
  bench::print_header(
      "Figure 10: transfer completion status at window end (one relayer)",
      "completed share shrinks beyond ~160 RPS as the relayer saturates");
  return completion_table(view, sweep, /*two_relayers=*/false);
}

util::Table fig11_table(const View& view, const Sweep& sweep) {
  bench::print_header(
      "Figure 11: transfer completion status at window end (two relayers)",
      "larger partial/initiated share than Fig. 10 at equal rates");
  return completion_table(view, sweep, /*two_relayers=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Relayer sweep (Figs. 8-11)",
      "one execution per distinct (rate, relayers, latency, repetition)", opt);
  bench::run_views(
      opt, bench::relayer_views(opt.full, bench::reps_or(opt, 2, 20)),
      {{"fig8_relayer_throughput", fig8_table},
       {"fig9_two_relayers", fig9_table},
       {"fig10_completion_one", fig10_table},
       {"fig11_completion_two", fig11_table}});
  return 0;
}
