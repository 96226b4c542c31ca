// One benchmark repetition: runs a single workload once in this process and
// prints one JSON object with a `virtual` section (exact for a seed) and a
// `host` section (timings). perfbench/run.py aggregates repetitions.
//
//   perfbench_driver --workload NAME --seed N [--trace] [--setups K]
//                    [--spans PATH]
//
// --trace    traced repetition (profiler, spans, externally timed checker)
// --setups K after the run, time K further setups of the same config
// --spans    where a traced repetition writes its spans (JSON lines)
//
// Exit status: 0 when the run completed (the outcome gate lives in run.py),
// 1 on an invariant violation or failed setup, 2 on bad arguments.

#include <cstdlib>
#include <iostream>
#include <string>

#include "adapter.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using util::json::Value;

Value breakdown(const xcc::CompletionBreakdown& b) {
  return Value::object()
      .set("requested", b.requested)
      .set("uncommitted", b.uncommitted)
      .set("initiated_only", b.initiated_only)
      .set("partial", b.partial)
      .set("completed", b.completed)
      .set("timed_out", b.timed_out);
}

Value layer(const perfbench::RunResult::Layer& l) {
  return Value::object().set("self_s", l.self_s).set("calls", l.calls);
}

int usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload NAME --seed N [--trace]"
               " [--setups K] [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int extra_setups = 0;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      options.traced = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--setups" && has_value) {
      extra_setups = std::atoi(argv[++i]);
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  const auto config = perfbench::workload_config(workload, seed);
  if (!config) return usage(("unknown workload '" + workload + "'").c_str());

  const perfbench::RunResult r = perfbench::run_workload(*config, options);
  if (!r.ok) {
    std::cout << Value::object().set("ok", false).set("error", r.error).dump(0)
              << std::endl;
    return 1;
  }

  Value v = Value::object();
  v.set("tfps", r.tfps)
      .set("window_seconds", r.window_seconds)
      .set("avg_block_interval", r.avg_block_interval)
      .set("sim_seconds", r.sim_seconds)
      .set("measured_sim_seconds", r.measured_sim_seconds)
      .set("window_breakdown", breakdown(r.window_breakdown))
      .set("final_breakdown", breakdown(r.final_breakdown))
      .set("attempted", r.attempted)
      .set("succeeded", r.succeeded)
      .set("rejected", r.rejected)
      .set("timed_out", r.timed_out)
      .set("unresolved", r.unresolved)
      .set("sends_observed", r.sends_observed)
      .set("latency_samples", r.latency.samples)
      .set("latency_p50_s", r.latency.p50_s)
      .set("latency_p99_s", r.latency.p99_s)
      .set("recv_leg_p50_s", r.recv_leg.p50_s)
      .set("ack_leg_p50_s", r.ack_leg.p50_s)
      .set("events", r.events)
      .set("failed_rounds", r.failed_rounds)
      .set("rpc_requests_served", r.rpc_requests_served)
      .set("rpc_requests_rejected", r.rpc_requests_rejected)
      .set("rpc_busy_s", r.rpc_busy_s)
      .set("rpc_utilization", r.rpc_utilization)
      .set("chunk_queries", r.chunk_queries)
      .set("chunk_queries_skipped", r.chunk_queries_skipped)
      .set("cache_hit_ratio", r.cache_hit_ratio)
      .set("redundant_ratio", r.redundant_ratio)
      .set("coordination_skipped", r.coordination_skipped)
      .set("sequence_mismatch", r.sequence_mismatch)
      .set("no_confirmation", r.no_confirmation)
      .set("net_messages", r.net_messages)
      .set("net_bytes_per_transfer", r.net_bytes_per_transfer)
      .set("mempool_peak", r.mempool_peak)
      .set("blocks_checked", r.blocks_checked);

  Value setups = Value::array();
  for (double s : perfbench::time_setups(*config, extra_setups)) {
    setups.items().emplace_back(s);
  }

  Value h = Value::object();
  h.set("setup_s", r.setup_s)
      .set("extra_setups_s", std::move(setups))
      .set("genesis_s", r.genesis_s)
      .set("boot_s", r.boot_s)
      .set("handshake_s", r.handshake_s)
      .set("measured_s", r.measured_s)
      .set("peak_rss_mib", r.peak_rss_mib)
      .set("rss_growth_mib", r.rss_growth_mib)
      .set("host_ms_per_block_p50", r.host_ms_per_block_p50)
      .set("host_ms_per_block_p99", r.host_ms_per_block_p99);
  if (options.traced) {
    h.set("sim", layer(r.sim))
        .set("rpc", layer(r.rpc))
        .set("relayer_pull", layer(r.pull))
        .set("relayer_build", layer(r.build))
        .set("relayer_broadcast", layer(r.broadcast))
        .set("consensus_exec", layer(r.exec))
        .set("crypto_hash", layer(r.hash))
        .set("kv_store", layer(r.store))
        .set("check_self_s", r.check_self_s)
        .set("profiled_wall_s", r.profiled_wall_s)
        .set("unattributed_s", r.unattributed_s)
        .set("spans", static_cast<std::uint64_t>(r.spans));
  }

  std::cout << Value::object()
                   .set("ok", true)
                   .set("traced", options.traced)
                   .set("virtual", std::move(v))
                   .set("host", std::move(h))
                   .dump(0)
            << std::endl;
  return 0;
}
