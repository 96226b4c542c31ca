#pragma once
// The two declared sweeps behind Figs. 6-11.
//
// The paper reads Fig. 7 off the executions behind Fig. 6, and Figs. 10-11
// off those behind Figs. 8-9. Each figure here is a view: its table rows,
// each naming the runs it aggregates as keys. A binary runs the
// de-duplicated union of its views' keys once (Sweep), in first-view order,
// and projects every view's table from those results. The union's first
// key is the first view's first run, so --trace/--series/--flight
// instrument the Fig. 6 / Fig. 8 first point.

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace bench {

/// One inclusion-only run (Figs. 6-7).
struct InclusionKey {
  double rps = 0;
  int rep = 0;

  bool operator==(const InclusionKey&) const = default;
  xcc::ExperimentConfig config() const { return inclusion_config(rps, rep); }
};

/// One relayer-throughput run (Figs. 8-11).
struct RelayerKey {
  double rps = 0;
  int relayers = 1;
  sim::Duration rtt = 0;
  int rep = 0;

  bool operator==(const RelayerKey&) const = default;
  xcc::ExperimentConfig config() const {
    return relayer_config(rps, relayers, rtt, rep);
  }
};

/// One table row of a view: its label cells and the runs it aggregates.
template <typename Key>
struct Row {
  double rps = 0;
  std::string latency;  // relayer views only: "0ms" / "200ms"
  std::vector<Key> keys;
};

/// One figure's table: its name (the <view>.csv / BENCH_<view>.json stem)
/// and its rows.
template <typename Key>
struct View {
  std::string name;
  std::vector<Row<Key>> rows;
};

/// The de-duplicated union of some views' keys, in first-view order, and
/// after run() the result of each.
template <typename Key>
class Sweep {
 public:
  explicit Sweep(const std::vector<View<Key>>& views) {
    for (const View<Key>& view : views) {
      for (const Row<Key>& row : view.rows) {
        for (const Key& key : row.keys) {
          if (!contains(key)) keys_.push_back(key);
        }
      }
    }
  }

  const std::vector<Key>& keys() const { return keys_; }

  bool contains(const Key& key) const {
    return std::find(keys_.begin(), keys_.end(), key) != keys_.end();
  }

  /// Executes every key once through run_sweep.
  void run(const Options& opt) {
    std::vector<xcc::ExperimentConfig> configs;
    configs.reserve(keys_.size());
    for (const Key& key : keys_) configs.push_back(key.config());
    results_ = run_sweep(opt, std::move(configs));
  }

  /// The result of a declared key, after run().
  const xcc::ExperimentResult& at(const Key& key) const {
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    return results_.at(static_cast<std::size_t>(it - keys_.begin()));
  }

 private:
  std::vector<Key> keys_;
  std::vector<xcc::ExperimentResult> results_;
};

/// Projects one view's table from the executed sweep.
template <typename Key>
using Projection = util::Table (*)(const View<Key>&, const Sweep<Key>&);

/// Runs the union of `views` once, then prints and writes every view's
/// table (write_view), projected by `projections.at(view.name)`.
template <typename Key>
void run_views(const Options& opt, const std::vector<View<Key>>& views,
               const std::map<std::string, Projection<Key>>& projections) {
  Sweep<Key> sweep(views);
  sweep.run(opt);
  for (const View<Key>& view : views) {
    const util::Table table = projections.at(view.name)(view, sweep);
    std::cout << "\n";
    table.print(std::cout);
    write_view(opt, view.name, table);
    std::cout << "\n";
  }
}

/// Figs. 6 and 7, in that order: `reps` runs per input rate.
inline std::vector<View<InclusionKey>> inclusion_views(bool full, int reps) {
  const std::vector<double> full_rates = {250,  500,   1000,  2000,  3000,
                                          4000, 5000,  6000,  7000,  8000,
                                          9000, 10000, 11000, 12000, 13000};
  const auto view = [&](std::string name, std::vector<double> trimmed) {
    View<InclusionKey> v{std::move(name), {}};
    for (double rps : full ? full_rates : trimmed) {
      Row<InclusionKey> row{rps, "", {}};
      for (int rep = 0; rep < reps; ++rep) row.keys.push_back({rps, rep});
      v.rows.push_back(std::move(row));
    }
    return v;
  };
  return {view("fig6_tendermint_throughput",
               {250, 500, 1000, 2000, 3000, 4000, 6000, 9000, 13000}),
          view("fig7_block_interval",
               {250, 1000, 2000, 3000, 4000, 6000, 9000, 13000})};
}

/// Figs. 8, 9, 10 and 11, in that order: one row per latency and input
/// rate, holding `reps` runs of each relayer count. Fig. 9 rows interleave
/// the one- and two-relayer runs per repetition.
inline std::vector<View<RelayerKey>> relayer_views(bool full, int reps) {
  const std::vector<double> full_rates = {20,  40,  60,  80,  100,
                                          120, 140, 160, 180, 200,
                                          220, 240, 260, 280, 300};
  using Latency = std::pair<std::string, sim::Duration>;
  const Latency zero{"0ms", sim::millis(0.5)};
  const Latency wan{"200ms", sim::millis(200)};
  const auto view = [&](std::string name, std::vector<double> trimmed,
                        const std::vector<Latency>& latencies,
                        const std::vector<int>& relayer_counts) {
    View<RelayerKey> v{std::move(name), {}};
    for (const auto& [label, rtt] : latencies) {
      for (double rps : full ? full_rates : trimmed) {
        Row<RelayerKey> row{rps, label, {}};
        for (int rep = 0; rep < reps; ++rep) {
          for (int relayers : relayer_counts) {
            row.keys.push_back({rps, relayers, rtt, rep});
          }
        }
        v.rows.push_back(std::move(row));
      }
    }
    return v;
  };
  return {view("fig8_relayer_throughput", {20, 60, 100, 140, 180, 220, 300},
               {zero, wan}, {1}),
          view("fig9_two_relayers", {20, 100, 140, 160, 220, 300},
               {zero, wan}, {1, 2}),
          view("fig10_completion_one", {20, 100, 160, 220, 300}, {wan}, {1}),
          view("fig11_completion_two", {20, 100, 160, 220, 300}, {wan}, {2})};
}

}  // namespace bench
