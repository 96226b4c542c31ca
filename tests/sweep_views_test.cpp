// The two declared sweeps behind Figs. 6-11 (bench/sweeps.hpp), checked as
// declarations: no simulation runs. Each binary executes the de-duplicated
// union of its views' keys once, so the union must be duplicate-free, every
// view row must resolve into it, and its first key must stay the first
// point of Fig. 6 / Fig. 8 (the experiment --trace/--series/--flight
// instrument).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench/sweeps.hpp"

namespace {

template <typename Key>
void expect_well_formed(const std::vector<bench::View<Key>>& views,
                        std::size_t union_size) {
  const bench::Sweep<Key> sweep(views);
  const std::vector<Key>& keys = sweep.keys();
  EXPECT_EQ(keys.size(), union_size);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_FALSE(keys[i] == keys[j]) << "duplicate keys " << i << ", " << j;
    }
  }
  for (const bench::View<Key>& view : views) {
    EXPECT_FALSE(view.rows.empty()) << view.name;
    for (const bench::Row<Key>& row : view.rows) {
      EXPECT_FALSE(row.keys.empty()) << view.name << " rate " << row.rps;
      for (const Key& key : row.keys) {
        EXPECT_TRUE(sweep.contains(key)) << view.name << " rate " << row.rps;
      }
    }
  }
}

std::vector<std::string> names(const auto& views) {
  std::vector<std::string> out;
  for (const auto& view : views) out.push_back(view.name);
  return out;
}

TEST(SweepViews, InclusionUnionCoversFigs6And7) {
  // Default: Fig. 7's rates are a subset of Fig. 6's, 9 rates x 3 reps.
  expect_well_formed(bench::inclusion_views(/*full=*/false, /*reps=*/3), 27);
  // --full: both figures share the 15-rate grid, 20 reps.
  expect_well_formed(bench::inclusion_views(/*full=*/true, /*reps=*/20), 300);
  EXPECT_EQ(names(bench::inclusion_views(false, 3)),
            (std::vector<std::string>{"fig6_tendermint_throughput",
                                      "fig7_block_interval"}));
}

TEST(SweepViews, RelayerUnionCoversFigs8To11) {
  // Default: Fig. 8's 28 one-relayer runs, plus Fig. 9's 160 RPS
  // one-relayer pair at both latencies (4) and its two-relayer runs (24);
  // Figs. 10-11 add nothing.
  expect_well_formed(bench::relayer_views(/*full=*/false, /*reps=*/2), 56);
  // --full: 15 rates x 2 latencies x {1, 2} relayers x 20 reps.
  expect_well_formed(bench::relayer_views(/*full=*/true, /*reps=*/20), 1200);
  EXPECT_EQ(names(bench::relayer_views(false, 2)),
            (std::vector<std::string>{"fig8_relayer_throughput",
                                      "fig9_two_relayers",
                                      "fig10_completion_one",
                                      "fig11_completion_two"}));
}

TEST(SweepViews, FirstKeyIsTheFirstFigurePoint) {
  // Fig. 6's first point: 250 RPS, repetition 0.
  const bench::Sweep<bench::InclusionKey> inclusion(
      bench::inclusion_views(false, 3));
  EXPECT_TRUE((inclusion.keys().front() == bench::InclusionKey{250, 0}));
  // Fig. 8's first point: 20 RPS, one relayer, the "0ms" link, repetition 0.
  const bench::Sweep<bench::RelayerKey> relayer(bench::relayer_views(false, 2));
  EXPECT_TRUE((relayer.keys().front() ==
               bench::RelayerKey{20, 1, sim::millis(0.5), 0}));
}

}  // namespace
