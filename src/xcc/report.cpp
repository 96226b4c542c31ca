#include "xcc/report.hpp"

#include <fstream>
#include <sstream>

#include "util/table.hpp"

namespace xcc {

namespace {

void section_configuration(std::ostringstream& os,
                           const ExperimentConfig& config) {
  os << "## Configuration\n\n";
  os << "| parameter | value |\n|---|---|\n";
  os << "| machines | " << config.testbed.machines << " |\n";
  os << "| validators per chain | " << config.testbed.validators_per_chain
     << " |\n";
  os << "| network RTT | " << sim::to_millis(config.testbed.rtt) << " ms |\n";
  os << "| min block interval | "
     << sim::to_seconds(config.testbed.min_block_interval) << " s |\n";
  os << "| relayers | " << config.relayer_count << " |\n";
  os << "| relayer clear interval | " << config.relayer.clear_interval
     << " blocks |\n";
  os << "| parallel RPC requests (ablation) | "
     << config.testbed.rpc_query_workers << " |\n";
  if (config.workload.total_transfers > 0) {
    os << "| workload | " << config.workload.total_transfers
       << " transfers over " << config.workload.spread_blocks
       << " block(s) |\n";
  } else {
    os << "| workload | " << config.workload.requests_per_second
       << " transfers/s for " << config.measure_blocks << " blocks |\n";
  }
  os << "| messages per transaction | " << config.workload.msgs_per_tx
     << " |\n";
  os << "| seed | " << config.testbed.seed << " |\n\n";
}

void section_throughput(std::ostringstream& os, const ExperimentResult& r) {
  os << "## Throughput\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| completed transfers per second (TFPS) | "
     << util::fmt_double(r.tfps, 2) << " |\n";
  os << "| transfers included per second | "
     << util::fmt_double(r.inclusion_tfps, 2) << " |\n";
  os << "| measurement window | " << util::fmt_double(r.window_seconds, 1)
     << " s |\n";
  os << "| avg block interval | " << util::fmt_double(r.avg_block_interval, 2)
     << " s |\n";
  os << "| empty blocks | " << r.empty_blocks << " |\n\n";
}

void section_completion(std::ostringstream& os, const char* name,
                        const CompletionBreakdown& b) {
  os << "## Completion status (" << name << ")\n\n";
  os << "| status | count |\n|---|---|\n";
  os << "| requested | " << b.requested << " |\n";
  os << "| completed (transfer+receive+ack) | " << b.completed << " |\n";
  os << "| partial (transfer+receive) | " << b.partial << " |\n";
  os << "| initiated only (transfer) | " << b.initiated_only << " |\n";
  os << "| timed out (refunded) | " << b.timed_out << " |\n";
  os << "| not committed | " << b.uncommitted << " |\n\n";
}

void section_steps(std::ostringstream& os, const relayer::StepLog& steps) {
  const auto broadcasts =
      steps.completion_times_seconds(relayer::Step::kTransferBroadcast);
  if (broadcasts.empty()) return;
  const double t0 = broadcasts.front();
  os << "## Per-step latency (seconds since first transfer broadcast)\n\n";
  os << "| # | step | starts | 50% done | ends |\n|---|---|---|---|---|\n";
  for (int s = 0; s < static_cast<int>(relayer::kStepCount); ++s) {
    const auto step = static_cast<relayer::Step>(s);
    const auto times = steps.completion_times_seconds(step);
    if (times.empty()) continue;
    os << "| " << s + 1 << " | " << relayer::step_name(step) << " | "
       << util::fmt_double(times.front() - t0, 1) << " | "
       << util::fmt_double(times[times.size() / 2] - t0, 1) << " | "
       << util::fmt_double(times.back() - t0, 1) << " |\n";
  }
  os << "\n";
}

void section_errors(std::ostringstream& os, const ExperimentResult& r) {
  os << "## Errors and relayer statistics\n\n";
  os << "| counter | value |\n|---|---|\n";
  os << "| account sequence mismatches | " << r.sequence_mismatch_errors
     << " |\n";
  os << "| failed tx: no confirmation | " << r.no_confirmation_errors
     << " |\n";
  os << "| RPC queue rejections | " << r.rpc_unavailable_errors << " |\n";
  std::uint64_t redundant = 0, frames_failed = 0, timed_out = 0;
  for (const auto& s : r.relayers) {
    redundant += s.redundant_errors;
    frames_failed += s.frames_failed;
    timed_out += s.packets_timed_out;
  }
  os << "| redundant packet messages | " << redundant << " |\n";
  os << "| failed event-collection frames | " << frames_failed << " |\n";
  os << "| packets refunded via MsgTimeout | " << timed_out << " |\n";
  os << "| RPC busy time, source node | "
     << util::fmt_double(r.rpc_busy_seconds_a, 1) << " s |\n";
  os << "| RPC busy time, destination node | "
     << util::fmt_double(r.rpc_busy_seconds_b, 1) << " s |\n\n";
}

void section_anomalies(std::ostringstream& os, const ExperimentResult& r) {
  if (r.warnings.empty()) return;
  os << "## Anomaly watchdogs\n\n";
  os << "| rule | series column | fired at | detail |\n|---|---|---|---|\n";
  for (const telemetry::WatchdogWarning& w : r.warnings) {
    os << "| " << w.rule << " | " << w.column << " | "
       << util::fmt_double(sim::to_seconds(w.t), 1) << " s | " << w.detail
       << " |\n";
  }
  os << "\n";
}

void section_metrics(std::ostringstream& os, const ExperimentResult& r) {
  if (r.metrics.empty()) return;
  os << "## Metrics\n\n";
  os << "| name | kind | value | count | mean |\n|---|---|---|---|---|\n";
  for (const telemetry::MetricRow& row : r.metrics) {
    os << "| " << row.name << " | " << row.kind << " | ";
    if (row.kind == "histogram") {
      os << util::fmt_double(row.sum, 2) << " | " << row.count << " | "
         << util::fmt_double(row.count > 0
                                 ? row.sum / static_cast<double>(row.count)
                                 : 0.0,
                             3);
    } else {
      os << util::fmt_double(row.value, 2) << " | - | -";
    }
    os << " |\n";
  }
  os << "\n";
  if (!r.telemetry_error.empty()) {
    os << "**Telemetry export failed:** " << r.telemetry_error << "\n\n";
  }
}

}  // namespace

std::string render_report(const ExperimentConfig& config,
                          const ExperimentResult& result,
                          const std::string& title) {
  std::ostringstream os;
  os << "# " << title << "\n\n";
  if (!result.ok) {
    os << "**EXPERIMENT FAILED:** " << result.error << "\n";
    return os.str();
  }
  section_configuration(os, config);
  section_throughput(os, result);
  section_completion(os, "at window end", result.window_breakdown);
  section_completion(os, "final", result.final_breakdown);
  if (result.completion_latency_seconds > 0) {
    os << "## Completion latency\n\n"
       << "All transfers completed "
       << util::fmt_double(result.completion_latency_seconds, 1)
       << " s after the first broadcast.\n\n";
  }
  section_steps(os, result.steps);
  section_errors(os, result);
  section_anomalies(os, result);
  section_metrics(os, result);
  return os.str();
}

bool write_report(const std::string& path, const ExperimentConfig& config,
                  const ExperimentResult& result, const std::string& title) {
  std::ofstream f(path);
  if (!f) return false;
  f << render_report(config, result, title);
  return static_cast<bool>(f);
}

}  // namespace xcc
