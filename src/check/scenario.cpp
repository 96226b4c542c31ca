#include "check/scenario.hpp"

#include <memory>
#include <utility>

#include "util/rng.hpp"
#include "xcc/mesh.hpp"
#include "xcc/testbed.hpp"
#include "xcc/topology.hpp"
#include "xcc/workload.hpp"

namespace check {

namespace {

/// Uniform pick from a small option list.
template <typename T, std::size_t N>
T pick(util::Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

/// The multi-hop route a mesh scenario forwards its transfers along: the
/// full line for "line<k>", spoke-hub-spoke for "hub<k>", and a deliberate
/// two-hop detour for "mesh<k>" (the direct channel exists — forwarding past
/// it is exactly the case that must stay conservation-clean).
std::vector<int> scenario_route(const xcc::TopologyConfig& topo) {
  if (topo.name.rfind("line", 0) == 0) {
    std::vector<int> route(static_cast<std::size_t>(topo.chain_count));
    for (int i = 0; i < topo.chain_count; ++i) {
      route[static_cast<std::size_t>(i)] = i;
    }
    return route;
  }
  if (topo.name.rfind("hub", 0) == 0 && topo.chain_count >= 3) {
    return {1, 0, 2};
  }
  if (topo.name.rfind("mesh", 0) == 0 && topo.chain_count >= 3) {
    return {0, 1, 2};
  }
  return {0, 1};
}

}  // namespace

ScenarioResult run_scenario(std::uint64_t seed,
                            const ScenarioOptions& options) {
  ScenarioResult result;
  result.seed = seed;

  // All scenario choices derive from this stream; the testbed's own RNGs
  // derive from the same seed. Everything else is virtual-time scheduling,
  // so the whole run is reproducible from `seed` alone.
  util::Rng rng(seed ^ 0x5CEAA71005CEAA71ULL);

  static constexpr int kRttsMs[] = {0, 50, 200, 300};
  static constexpr int kBlockIntervalsS[] = {1, 2, 5};
  static constexpr std::size_t kMsgsPerTx[] = {1, 5, 20};
  static constexpr std::int64_t kTimeoutOffsets[] = {3, 5, 8, 100'000};
  static constexpr std::int64_t kClearIntervals[] = {0, 5};

  xcc::TestbedConfig tb_cfg;
  tb_cfg.seed = seed;
  tb_cfg.rpc_query_workers = options.rpc_query_workers;
  tb_cfg.rtt = sim::millis(pick(rng, kRttsMs));
  tb_cfg.min_block_interval = sim::seconds(pick(rng, kBlockIntervalsS));
  tb_cfg.user_accounts = 64;
  tb_cfg.invariant_checks = true;
  // Collect by default; the fuzzer reports violating seeds afterwards.
  tb_cfg.invariant_fail_fast = options.fail_fast;

  // Mutation scenarios force two relayers: the broken replay check is only
  // reachable through redundant deliveries.
  const int relayers =
      options.mutate_skip_replay ? 2 : (rng.chance(0.5) ? 2 : 1);

  xcc::WorkloadConfig wl_cfg;
  wl_cfg.total_transfers = 10 + rng.next_below(50);
  wl_cfg.spread_blocks = 1 + static_cast<int>(rng.next_below(3));
  wl_cfg.msgs_per_tx = pick(rng, kMsgsPerTx);
  wl_cfg.transfer_amount = 1 + rng.next_below(1'000);
  // Tight offsets produce genuine IBC timeouts under WAN latency.
  wl_cfg.timeout_height_offset = pick(rng, kTimeoutOffsets);

  net::FaultProfile faults;
  if (rng.chance(0.7)) {
    faults.drop_probability = rng.uniform(0.0, 0.03);
    faults.duplicate_probability = rng.uniform(0.0, 0.08);
    faults.delay_probability = rng.uniform(0.0, 0.15);
    faults.max_extra_delay = sim::millis(10 + rng.next_below(240));
  }
  const bool restart_relayer = rng.chance(0.4);
  const bool validator_blip = rng.chance(0.3);
  const std::int64_t clear_interval = pick(rng, kClearIntervals);

  result.summary =
      "rtt=" + std::to_string(tb_cfg.rtt / sim::millis(1)) + "ms block=" +
      std::to_string(tb_cfg.min_block_interval / sim::seconds(1)) +
      "s relayers=" + std::to_string(relayers) +
      " clear=" + std::to_string(clear_interval) +
      " transfers=" + std::to_string(wl_cfg.total_transfers) +
      " msgs/tx=" + std::to_string(wl_cfg.msgs_per_tx) +
      " timeout_off=" + std::to_string(wl_cfg.timeout_height_offset) +
      (faults.active() ? " net-faults" : "") +
      (restart_relayer ? " relayer-restart" : "") +
      (validator_blip ? " validator-blip" : "") +
      (options.mutate_skip_replay ? " MUTATED" : "");

  auto topo = xcc::TopologyConfig::from_name(options.topology);
  if (!topo.is_ok()) {
    result.setup_error = topo.status().to_string();
    return result;
  }
  tb_cfg.topology = topo.value();
  const std::vector<int> route = scenario_route(tb_cfg.topology);
  const int hops = static_cast<int>(route.size()) - 1;
  tb_cfg.relayer_wallets = hops * relayers;
  // Routes may originate off chain 0, where the senders are not funded.
  tb_cfg.fund_users_on_all_chains = route.front() != 0;
  if (options.topology != "pair") {
    result.summary += " topo=" + options.topology +
                      " hops=" + std::to_string(hops);
  }

  // --- Deploy and establish the channels (fault-free: setup is not the
  // subject under test, and a wedged handshake would just time out). -------
  xcc::Testbed tb(tb_cfg);
  const int edges = static_cast<int>(tb_cfg.topology.edges.size());
  const xcc::MeshSetupResult mesh = xcc::establish_mesh(
      tb, sim::seconds(300) + sim::seconds(600) * edges);
  if (!mesh.ok) {
    result.setup_error = mesh.error;
    return result;
  }
  auto route_hops = xcc::route_hops(mesh, tb_cfg.topology, route);
  if (!route_hops.is_ok()) {
    result.setup_error = route_hops.status().to_string();
    return result;
  }
  const std::vector<xcc::ChannelSetupResult>& channels = route_hops.value();
  result.setup_ok = true;

  if (options.mutate_skip_replay) {
    for (int i = 0; i < tb.chain_count(); ++i) {
      tb.chain(i).ibc->set_faults(ibc::KeeperFaults{true});
    }
  }

  // --- Relayers (per hop, one per machine as in the paper's deployment). --
  relayer::RelayerConfig rc;
  rc.clear_interval = clear_interval;
  rc.coordination.mode =
      relayer::coordination_mode_from_string(options.coordination);
  std::vector<std::unique_ptr<relayer::Relayer>> relayer_instances =
      xcc::start_relayer_fleet(tb, channels, relayers, rc, nullptr);

  // --- Fault schedule ------------------------------------------------------
  const sim::TimePoint t0 = tb.scheduler().now();
  tb.network().set_fault_profile(faults);
  if (restart_relayer) {
    relayer::Relayer* victim = relayer_instances[0].get();
    const sim::TimePoint down =
        t0 + sim::seconds(10 + rng.next_below(50));
    const sim::TimePoint up = down + sim::seconds(5 + rng.next_below(40));
    tb.scheduler().schedule_at(down, [victim] { victim->stop(); });
    tb.scheduler().schedule_at(up, [victim] { victim->start(); });
  }
  if (validator_blip) {
    // Pairs keep the historical coin flip, so their seeds map unchanged.
    const int victim_chain =
        tb.chain_count() == 2
            ? (rng.chance(0.5) ? 0 : 1)
            : static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(tb.chain_count())));
    consensus::Engine* engine = tb.chain(victim_chain).engine.get();
    const std::size_t idx =
        1 + rng.next_below(
                static_cast<std::uint64_t>(tb_cfg.validators_per_chain - 1));
    const sim::TimePoint down =
        t0 + sim::seconds(10 + rng.next_below(60));
    const sim::TimePoint up = down + sim::seconds(10 + rng.next_below(40));
    tb.scheduler().schedule_at(down,
                               [engine, idx] {
                                 engine->set_validator_live(idx, false);
                               });
    tb.scheduler().schedule_at(up, [engine, idx] {
      engine->set_validator_live(idx, true);
    });
  }

  // --- Workload + run ------------------------------------------------------
  std::vector<ibc::ChannelId> onward;
  for (std::size_t h = 1; h < channels.size(); ++h) {
    onward.push_back(channels[h].channel_a);
  }
  xcc::TransferWorkload workload(tb, channels.front(), wl_cfg, nullptr,
                                 std::move(onward));
  workload.start();
  tb.run_until(t0 + sim::seconds(400));

  // Lift the faults and let in-flight work settle: late acks/clears after
  // recovery are exactly where stale-state bugs would surface.
  tb.network().set_fault_profile(net::FaultProfile{});
  tb.run_until(tb.scheduler().now() + sim::seconds(100));

  for (auto& r : relayer_instances) r->stop();

  result.blocks_checked = tb.checker()->blocks_checked();
  result.transfers_requested = workload.stats().requested;
  for (int i = 0; i < tb.chain_count(); ++i) {
    result.packets_received += tb.chain(i).ibc->packets_received();
    result.packets_timed_out += tb.chain(i).ibc->packets_timed_out();
    result.redundant_messages += tb.chain(i).ibc->redundant_messages();
  }
  result.messages_dropped = tb.network().messages_dropped();
  result.messages_duplicated = tb.network().messages_duplicated();
  result.violations = tb.checker()->violations();
  return result;
}

}  // namespace check
