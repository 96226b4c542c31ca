#pragma once
// Shared helpers for the bench binaries.
//
// A bench writes each of its result tables into the working directory as
// <view>.csv, where the view is the table's name (fig8_relayer_throughput).
// One binary may write several views: bench_inclusion and bench_relayer run
// one sweep each and project Figs. 6-7 and Figs. 8-11 from it (sweeps.hpp).
//
// Every binary accepts:
//   --full         run the paper's full sweep (20 executions per point);
//                  default is a trimmed grid so `for b in build/bench/*`
//                  finishes quickly
//   --reps N       override the executions per point (N >= 1)
//   --jobs N       worker threads for the sweep, N >= 1 (default: hardware
//                  concurrency). Every repetition is an independent,
//                  seed-deterministic simulation, so results — and the CSV —
//                  are byte-identical for any N.
//   --json         also write a machine-readable report per view,
//                  BENCH_<view>.json (see xcc/bench_report.hpp): the view's
//                  table and metrics in a deterministic "virtual" section,
//                  wall time / events-per-second / profiler breakdown in a
//                  nondeterministic "host" section. Also arms the host-time
//                  profiler for the run. Unlike --trace it does NOT force
//                  step collection, so the virtual results are identical to
//                  a plain run.
//
// Benches whose runs go through run_sweep also accept (the others reject
// them, since they have no first experiment to instrument):
//   --trace FILE   enable telemetry on the sweep's FIRST experiment and
//                  write its Chrome trace-event JSON (open in Perfetto) to
//                  FILE, plus the metrics snapshot to FILE.metrics.csv.
//                  One experiment only, so the output is a single
//                  deterministic file (byte-identical across runs).
//   --series FILE  sample the first experiment's metrics + component probes
//                  over virtual time (one row per source block interval)
//                  and write the time-series CSV to FILE; with --json the
//                  report gains a virtual `series` summary section.
//   --flight FILE  arm the flight recorder on the first experiment; the
//                  first failure trigger (invariant violation, abandoned
//                  packet) dumps journal + metrics + series to FILE
//                  (render with tools/run_report).
//
// Unknown options are an error (usage + exit 1): a typoed flag must not
// silently fall back to default behaviour. Bench-specific flags register a
// FlagSpec so parse_options can accept them and list them under --help.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/table.hpp"
#include "xcc/bench_report.hpp"
#include "xcc/experiment.hpp"
#include "xcc/parallel.hpp"

namespace bench {

struct Options {
  bool full = false;
  int reps = 0;  // 0 = per-bench default
  int jobs = 0;  // 0 = hardware concurrency
  bool json = false;   // --json: write BENCH_<view>.json per view
  std::string trace;   // --trace FILE: trace the sweep's first experiment
  std::string series;  // --series FILE: time-series CSV, first experiment
  std::string flight;  // --flight FILE: flight-dump path, first experiment
  /// Bench-specific flags actually passed, in command-line order; value-less
  /// flags record "true". Embedded in the report's config section.
  std::vector<std::pair<std::string, std::string>> extra;
};

/// A bench-specific flag parse_options should accept (and --help list).
struct FlagSpec {
  std::string name;  // "--smoke"
  bool takes_value = false;
  std::string help;
};

namespace detail {

/// Accumulated report state for this binary, shared by every view it
/// writes: sweep utilisation, merged profiler output and the first
/// experiment's metrics.
struct ReportState {
  xcc::ProfileCollector profiler;
  xcc::SweepStats sweep{};
  telemetry::MetricsSnapshot metrics;
  bool have_metrics = false;
  telemetry::SeriesSnapshot series;
  std::vector<telemetry::WatchdogWarning> warnings;
  bool have_series = false;

  void add_sweep(const xcc::SweepStats& s) {
    sweep.workers = std::max(sweep.workers, s.workers);
    sweep.jobs += s.jobs;
    sweep.wall_seconds += s.wall_seconds;
    sweep.aggregate_seconds += s.aggregate_seconds;
  }
};

inline ReportState g_report;

}  // namespace detail

/// Parses the shared flags plus `extra_flags`. `instrumented` says whether
/// the bench runs through run_sweep: only then is there a first experiment
/// for --trace/--series/--flight, so otherwise they are unknown options.
inline Options parse_options(int argc, char** argv,
                             const std::vector<FlagSpec>& extra_flags = {},
                             bool instrumented = true) {
  Options opt;

  const auto usage = [&](std::ostream& os) {
    os << "usage: " << (argc > 0 ? argv[0] : "bench") << " [options]\n"
       << "writes each result table to <view>.csv in the working directory\n"
       << "  --full        run the paper's full sweep\n"
       << "  --reps N      executions per sweep point\n"
       << "  --jobs N      worker threads (default: hardware concurrency)\n"
       << "  --json        also write BENCH_<view>.json per table (virtual\n"
       << "                + host sections); arms the host-time profiler\n";
    if (instrumented) {
      os << "  --trace FILE  telemetry on the first experiment: Chrome trace\n"
         << "                JSON to FILE + metrics CSV to FILE.metrics.csv\n"
         << "                (forces step collection — observer effect)\n"
         << "  --series FILE sample the first experiment over virtual time;\n"
         << "                time-series CSV to FILE\n"
         << "  --flight FILE arm the flight recorder on the first experiment;\n"
         << "                a failure dumps journal+metrics+series to FILE\n";
    }
    os << "  --help        show this help\n";
    for (const FlagSpec& f : extra_flags) {
      os << "  " << f.name << (f.takes_value ? " V" : "") << "  " << f.help
         << "\n";
    }
  };
  const auto fail = [&](const std::string& what) {
    std::cerr << what << "\n";
    usage(std::cerr);
    std::exit(1);
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    const auto take_value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 < argc) return argv[++i];
      fail("option " + arg + " requires a value");
      return {};
    };
    // A count that is not a positive integer is a usage error, never a
    // silent fall back to the default.
    const auto take_count = [&]() -> int {
      const std::string v = take_value();
      int n = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec != std::errc() || end != v.data() + v.size() || n <= 0) {
        fail("option " + arg + " needs a positive integer, got '" + v + "'");
      }
      return n;
    };

    if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--reps") {
      opt.reps = take_count();
    } else if (arg == "--jobs") {
      opt.jobs = take_count();
    } else if (arg == "--json") {
      // Reports are named after their views; a value here would be
      // silently ignored, so reject it.
      if (has_inline) fail("option --json takes no value");
      opt.json = true;
    } else if (instrumented && arg == "--trace") {
      opt.trace = take_value();
    } else if (instrumented && arg == "--series") {
      opt.series = take_value();
    } else if (instrumented && arg == "--flight") {
      opt.flight = take_value();
    } else if (arg == "--help") {
      usage(std::cout);
      std::exit(0);
    } else {
      bool matched = false;
      for (const FlagSpec& f : extra_flags) {
        if (f.name == arg) {
          opt.extra.emplace_back(arg, f.takes_value ? take_value() : "true");
          matched = true;
          break;
        }
      }
      if (!matched) fail(std::string("unknown option: ") + argv[i]);
    }
  }
  return opt;
}

inline int reps_or(const Options& opt, int trimmed, int full) {
  if (opt.reps > 0) return opt.reps;
  return opt.full ? full : trimmed;
}

/// Worker-thread count for a sweep (--jobs, default hardware concurrency).
inline int jobs_or_default(const Options& opt) {
  return opt.jobs > 0 ? opt.jobs : xcc::default_workers();
}

/// Seeds: one deterministic seed per repetition.
inline std::uint64_t seed_for(int rep) {
  return 0xD5A7000ULL + static_cast<std::uint64_t>(rep) * 7919;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "== " << title << " ==\n";
  std::cout << "paper reference: " << paper << "\n\n";
}

/// Header variant that also announces the parallel configuration.
inline void print_header(const std::string& title, const std::string& paper,
                         const Options& opt) {
  std::cout << "== " << title << " ==\n";
  std::cout << "paper reference: " << paper << "\n";
  std::cout << "parallel sweep: up to " << jobs_or_default(opt)
            << " worker(s)\n\n";
}

/// Prints the utilisation of a finished sweep (the achieved speedup over a
/// serial execution of the same points).
inline void print_sweep_summary(const xcc::SweepStats& stats) {
  std::cout << "[sweep] " << stats.jobs << " run(s) on " << stats.workers
            << " worker(s): wall " << util::fmt_double(stats.wall_seconds, 1)
            << " s, aggregate "
            << util::fmt_double(stats.aggregate_seconds, 1) << " s, speedup "
            << util::fmt_double(stats.speedup(), 2) << "x\n\n";
}

/// Applies --trace/--series/--flight to a sweep: the FIRST experiment gets
/// telemetry and writes the requested artifacts. Only one experiment, so
/// every output stays a single byte-identical file regardless of --jobs.
inline void apply_trace(const Options& opt,
                        std::vector<xcc::ExperimentConfig>& configs) {
  if (configs.empty()) return;
  if (!opt.trace.empty()) {
    configs.front().trace_path = opt.trace;
    configs.front().metrics_csv_path = opt.trace + ".metrics.csv";
  }
  if (!opt.series.empty()) configs.front().series_csv_path = opt.series;
  if (!opt.flight.empty()) configs.front().flight_dump_path = opt.flight;
}

/// Prints the outcome of the --trace/--series/--flight artifacts (all taken
/// from the sweep's first result).
inline void print_trace_summary(const Options& opt,
                                const std::vector<xcc::ExperimentResult>& rs) {
  if (rs.empty() ||
      (opt.trace.empty() && opt.series.empty() && opt.flight.empty())) {
    return;
  }
  const xcc::ExperimentResult& first = rs.front();
  if (!first.telemetry_error.empty()) {
    std::cout << "[telemetry] FAILED: " << first.telemetry_error << "\n";
  }
  if (!opt.trace.empty() && first.telemetry_error.empty()) {
    std::cout << "[trace] wrote " << opt.trace << " and " << opt.trace
              << ".metrics.csv (" << first.metrics.size() << " metrics)\n";
  }
  if (!opt.series.empty()) {
    std::cout << "[series] wrote " << opt.series << " ("
              << first.series.samples() << " samples, "
              << first.series.columns.size() << " columns)\n";
    for (const auto& w : first.warnings) {
      std::cout << "[watchdog] " << w.rule << " on " << w.column << " at t="
                << w.t << "us: " << w.detail << "\n";
    }
  }
  if (!opt.flight.empty()) {
    if (first.flight_dump_triggers > 0) {
      std::cout << "[flight] dump written to " << opt.flight << " ("
                << first.flight_dump_triggers << " trigger(s))\n";
    } else {
      std::cout << "[flight] armed, no failure trigger (no dump)\n";
    }
  }
  std::cout << "\n";
}

/// Under --json with --series, keeps the first result's sampled series and
/// watchdog warnings for the report's virtual `series` section.
inline void keep_series(const Options& opt,
                        const std::vector<xcc::ExperimentResult>& results) {
  if (!opt.json || opt.series.empty() ||
      detail::g_report.have_series || results.empty() ||
      !results.front().ok) {
    return;
  }
  detail::g_report.series = results.front().series;
  detail::g_report.warnings = results.front().warnings;
  detail::g_report.have_series = true;
}

/// Runs a whole sweep through the parallel pool (submission order ==
/// result order) and prints the utilisation summary. Honors --trace; under
/// --json the first experiment also snapshots its metrics registry (pure
/// observation: unlike --trace nothing forces step collection, so the
/// virtual results are unchanged) and the host-time profiler is armed.
inline std::vector<xcc::ExperimentResult> run_sweep(
    const Options& opt, std::vector<xcc::ExperimentConfig> configs) {
  apply_trace(opt, configs);
  const bool reporting = opt.json;
  if (reporting && !configs.empty()) configs.front().telemetry = true;
  xcc::SweepStats stats;
  auto results =
      xcc::run_experiments(configs, jobs_or_default(opt), &stats,
                           reporting ? &detail::g_report.profiler : nullptr);
  if (reporting) {
    detail::g_report.add_sweep(stats);
    if (!detail::g_report.have_metrics && !results.empty() &&
        results.front().ok) {
      detail::g_report.metrics = results.front().metrics;
      detail::g_report.have_metrics = true;
    }
  }
  keep_series(opt, results);
  print_sweep_summary(stats);
  print_trace_summary(opt, results);
  return results;
}

/// Runs custom scenario jobs (benches not built on run_experiment) through
/// the same pool, with the same summary and --json profiling. These benches
/// have no first experiment to instrument, so they parse their options with
/// `instrumented = false`.
inline void run_scenarios(const Options& opt,
                          std::vector<std::function<void()>>& jobs) {
  const bool reporting = opt.json;
  xcc::SweepStats stats;
  xcc::run_jobs(jobs, jobs_or_default(opt), &stats,
                reporting ? &detail::g_report.profiler : nullptr);
  if (reporting) detail::g_report.add_sweep(stats);
  print_sweep_summary(stats);
}

/// Writes one view: its table to <view>.csv in the working directory and,
/// under --json, the BENCH_<view>.json report, whose deterministic virtual
/// points are the table's cells. Call after the last sweep. `host_extras`
/// are injected as additional keys of the report's host section (schema v1
/// allows extra host keys); use them for bench-specific host measurements
/// such as per-tier RSS so bench_compare noise-checks them too.
inline void write_view(
    const Options& opt, const std::string& view, const util::Table& table,
    std::vector<std::pair<std::string, util::json::Value>> host_extras = {}) {
  const std::string csv = view + ".csv";
  table.write_csv(csv);
  std::cout << "CSV written to " << csv << "\n";
  if (!opt.json) return;
  xcc::BenchReportInputs in;
  in.bench = view;
  in.full = opt.full;
  in.reps = opt.reps;
  in.jobs = opt.jobs;
  in.trace = !opt.trace.empty();
  in.flags = opt.extra;
  in.seed_base = seed_for(0);
  in.table = &table;
  in.metrics = detail::g_report.metrics;
  in.have_series = detail::g_report.have_series;
  in.series = detail::g_report.series;
  in.warnings = detail::g_report.warnings;
  in.sweep = detail::g_report.sweep;
  in.profile = detail::g_report.profiler.merged();
  auto report = xcc::build_bench_report(in);
  if (!host_extras.empty()) {
    for (auto& member : report.members()) {
      if (member.first != "host") continue;
      for (auto& [key, value] : host_extras) {
        member.second.set(key, std::move(value));
      }
    }
  }
  const std::string json = "BENCH_" + view + ".json";
  const util::Status st = xcc::write_json_file(json, report);
  if (!st.is_ok()) {
    std::cerr << "[json] FAILED: " << st.to_string() << "\n";
    std::exit(1);  // a requested report that was not produced must be loud
  }
  std::cout << "[json] wrote " << json << "\n";
}

/// Config for one inclusion-only run (Figs. 6-7 / Table I): submits at
/// `rps` for `blocks` blocks with no relayer.
inline xcc::ExperimentConfig inclusion_config(double rps, int rep,
                                              int blocks = 15,
                                              bool resolve_workload = false) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = 0;
  cfg.collect_steps = false;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = blocks;
  cfg.testbed.seed = seed_for(rep);
  // Table I needs every submission's final outcome; the Fig. 6/7 series
  // only need the measurement window.
  cfg.wait_for_workload = resolve_workload;
  cfg.max_sim_time = sim::seconds(8'000);
  return cfg;
}

/// Config for one relayer-throughput run (Figs. 8-11): `relayers`
/// instances, 50-block window, given RTT.
inline xcc::ExperimentConfig relayer_config(double rps, int relayers,
                                            sim::Duration rtt, int rep,
                                            int blocks = 50) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = relayers;
  cfg.collect_steps = false;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = blocks;
  cfg.testbed.rtt = rtt;
  cfg.testbed.seed = seed_for(rep);
  cfg.max_sim_time = sim::seconds(4'000);
  return cfg;
}

}  // namespace bench
