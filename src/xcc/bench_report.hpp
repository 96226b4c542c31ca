#pragma once
// Machine-readable bench reports (BENCH_<name>.json).
//
// Every bench binary can emit one versioned JSON report per view next to
// its CSV (`--json` writes BENCH_<view>.json into the working directory, see
// bench/common.hpp). The document keeps the two time
// domains the simulator lives in strictly apart:
//
//   "virtual" — everything derived from simulated time: the bench's result
//     table (the same cells the CSV gets) and the metrics-registry snapshot
//     with interpolated latency percentiles. Deterministic by construction:
//     two same-seed runs must produce byte-identical virtual sections, and
//     bench_compare treats any drift as a correctness regression.
//
//   "host" — everything measured on the machine that ran the sweep: wall
//     and aggregate seconds, DES events/sec, the sim-time/host-time ratio,
//     peak RSS and the per-subsystem profiler breakdown. Nondeterministic
//     by nature; bench_compare checks it against noise bands only.
//
// Schema changes bump kBenchReportSchemaVersion; tools/bench_report_schema.py
// validates the layout in CI (run_benches.sh --check).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/series.hpp"
#include "telemetry/watchdog.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "xcc/parallel.hpp"

namespace xcc {

inline constexpr int kBenchReportSchemaVersion = 1;

/// Everything a bench harness accumulated for one report.
struct BenchReportInputs {
  std::string bench;  // bench id, e.g. "fig8_relayer_throughput"

  // Invocation config (all of it deterministic given the command line).
  bool full = false;
  int reps = 0;  // as passed; 0 = per-bench default
  int jobs = 0;  // as passed; 0 = hardware concurrency
  bool trace = false;  // --trace changes the virtual results (observer
                       // effect), so it is part of the comparable config
  std::vector<std::pair<std::string, std::string>> flags;  // bench-specific
  std::uint64_t seed_base = 0;

  // Virtual-time results.
  const util::Table* table = nullptr;  // the bench's CSV table
  telemetry::MetricsSnapshot metrics;  // first experiment's registry

  // Virtual-time series summary (only when --series sampled the first
  // experiment; plain runs omit the section so committed baselines and
  // bench_compare stay unchanged).
  bool have_series = false;
  telemetry::SeriesSnapshot series;
  std::vector<telemetry::WatchdogWarning> warnings;

  // Host-time results.
  SweepStats sweep;                   // accumulated over all sweeps
  telemetry::ProfileReport profile;   // merged over all worker threads
};

util::json::Value build_bench_report(const BenchReportInputs& in);

/// Serializes (pretty, 2-space indent) and writes atomically enough for the
/// cache in run_benches.sh: write to `path` and report I/O failures.
util::Status write_json_file(const std::string& path,
                             const util::json::Value& value);

/// Peak resident set size of this process in bytes (0 where unsupported).
std::uint64_t peak_rss_bytes();

}  // namespace xcc
