#pragma once
// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// The paper's contribution is a measurement framework; this registry makes
// the *simulator's own* mechanisms measurable from the inside. Every
// component that models a bottleneck (RPC queue, relayer batches, mempool
// admission, consensus rounds) registers instruments here; snapshots are
// deterministic (sorted by name, virtual-time driven) so two runs with the
// same seed produce byte-identical metrics.csv files.
//
// Cost model: instruments are registered once (map lookup + allocation) and
// then updated through stable pointers (one add per event), cheap enough to
// stay enabled in benches. Counters always count: with telemetry off they
// bind to a component's own Registry (telemetry::counter_store), and the
// disabled hub's registry stays empty (the disabled-mode test asserts it).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Bounds are set at registration
/// and never reallocate on the observe() path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// q-quantile (q in [0,1], clamped) linearly interpolated inside the
  /// bucket that crosses rank q*count. The first bucket interpolates from
  /// min(); observations in the unbounded overflow bucket report max() (no
  /// upper bound to interpolate towards). Returns 0 for an empty histogram.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_counts().size() == bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One row of a registry snapshot (see Registry::snapshot()).
struct MetricRow {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  double value = 0.0;          // counter/gauge value; histogram mean
  std::uint64_t count = 0;     // histogram observation count
  double sum = 0.0;            // histogram sum
  double min = 0.0;            // histogram min
  double max = 0.0;            // histogram max
  // Interpolated percentiles (Histogram::quantile); histograms only. Not
  // part of the CSV schema — consumed by the JSON bench reports.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// "le_<bound>:<count>" pairs, space separated, overflow last ("le_inf").
  std::string buckets;
};

/// Deterministic, name-sorted view of all instruments at one instant.
using MetricsSnapshot = std::vector<MetricRow>;

/// Renders a snapshot as CSV (also used by Registry::write_csv).
std::string snapshot_to_csv(const MetricsSnapshot& snapshot);

/// Owns all instruments for one simulation. NOT thread-safe by design: each
/// experiment (and therefore each worker thread of the parallel sweep
/// runner) owns its private registry, exactly like sim::Scheduler.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Pointers are stable for the registry's lifetime — cache them at
  /// the call site and keep the hot path to a single add().
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// `bounds` must be sorted ascending; it is fixed at first registration
  /// (later calls with the same name ignore the argument).
  Histogram* histogram(std::string_view name, std::vector<double> bounds);

  /// Read-only lookup without registration (nullptr when `name` was never
  /// registered) — lets tests and benches assert on a single instrument
  /// without scanning a full snapshot.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Name-sorted rows; byte-identical across identical runs.
  MetricsSnapshot snapshot() const;

  /// Calls `fn(name, value)` for every counter, then every gauge (each group
  /// in name order). The cheap path for per-sample reads: no allocation, no
  /// histogram quantile work (the sampler records totals-so-far, not
  /// distributions).
  template <typename Fn>
  void for_each_scalar(Fn&& fn) const {
    for (const auto& [name, c] : counters_) {
      fn(name, static_cast<double>(c.value()));
    }
    for (const auto& [name, g] : gauges_) fn(name, g.value());
  }

  /// Writes snapshot_to_csv() to `path`. Reports I/O failure (unwritable
  /// directory, disk error) instead of silently succeeding.
  util::Status write_csv(const std::string& path) const;

 private:
  // std::map: deterministic iteration order and stable element addresses.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace telemetry
