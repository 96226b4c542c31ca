#include "xcc/mesh.hpp"

#include <cassert>
#include <utility>

namespace xcc {

namespace {

/// The same channel seen from its B side.
ChannelSetupResult reversed(ChannelSetupResult c) {
  std::swap(c.chain_x, c.chain_y);
  std::swap(c.client_on_a, c.client_on_b);
  std::swap(c.connection_a, c.connection_b);
  std::swap(c.channel_a, c.channel_b);
  return c;
}

}  // namespace

MeshSetupResult establish_mesh(Testbed& testbed, sim::TimePoint limit) {
  MeshSetupResult out;
  testbed.start_chains();
  if (!testbed.run_until_height(2, limit)) {
    out.error = "chains failed to start";
    return out;
  }
  const TopologyConfig& topo = testbed.config().topology;
  out.channels.reserve(topo.edges.size());
  for (std::size_t e = 0; e < topo.edges.size(); ++e) {
    const TopologyEdge& edge = topo.edges[e];
    HandshakeDriver hs(testbed, /*relayer_wallet=*/0, /*machine=*/0,
                       edge.trusting_period, edge.chain_a, edge.chain_b,
                       edge.ordering);
    ChannelSetupResult setup = hs.establish_channel_blocking(limit);
    if (!setup.ok) {
      out.error = "edge " + std::to_string(e) + " (" +
                  std::to_string(edge.chain_a) + "-" +
                  std::to_string(edge.chain_b) +
                  ") handshake failed: " + setup.error;
      return out;
    }
    out.channels.push_back(std::move(setup));
  }
  out.ok = true;
  return out;
}

util::Result<std::vector<ChannelSetupResult>> route_hops(
    const MeshSetupResult& mesh, const TopologyConfig& topology,
    const std::vector<int>& route) {
  if (route.size() < 2) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "route needs at least two chains");
  }
  std::vector<ChannelSetupResult> out;
  out.reserve(route.size() - 1);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const int e = topology.edge_between(route[i], route[i + 1]);
    if (e < 0 || static_cast<std::size_t>(e) >= mesh.channels.size()) {
      return util::Status::error(
          util::ErrorCode::kInvalidArgument,
          "route hop " + std::to_string(i) + " connects chains " +
              std::to_string(route[i]) + " and " +
              std::to_string(route[i + 1]) + ", which the topology does not");
    }
    const ChannelSetupResult& c = mesh.channels[static_cast<std::size_t>(e)];
    out.push_back(c.chain_x == route[i] ? c : reversed(c));
  }
  return out;
}

std::vector<std::unique_ptr<relayer::Relayer>> start_relayer_fleet(
    Testbed& testbed, const std::vector<ChannelSetupResult>& hops, int count,
    const relayer::RelayerConfig& base, relayer::StepLog* steps) {
  std::vector<std::unique_ptr<relayer::Relayer>> fleet;
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const ChannelSetupResult& hop = hops[h];
    ChainDeployment& x = testbed.chain(hop.chain_x);
    ChainDeployment& y = testbed.chain(hop.chain_y);
    for (int k = 0; k < count; ++k) {
      const int wallet = static_cast<int>(h) * count + k;
      assert(wallet < testbed.config().relayer_wallets &&
             "testbed needs hops * count relayer wallets");
      const auto machine =
          static_cast<std::size_t>(k % testbed.config().machines);
      relayer::ChainHandle ha{x.servers[machine].get(), x.id,
                              {testbed.relayer_account(hop.chain_x, wallet)}};
      relayer::ChainHandle hb{y.servers[machine].get(), y.id,
                              {testbed.relayer_account(hop.chain_y, wallet)}};
      relayer::RelayerConfig rc = base;
      rc.machine = static_cast<net::MachineId>(machine);
      rc.coordination.relayer_index = k;
      rc.coordination.relayer_count = count;
      rc.telemetry_hop = static_cast<std::uint16_t>(h);
      fleet.push_back(std::make_unique<relayer::Relayer>(
          testbed.scheduler(), ha, hb, hop.path(), rc,
          k == 0 ? steps : nullptr));
      fleet.back()->set_telemetry(testbed.hub(),
                                  "relayer" + std::to_string(wallet));
      fleet.back()->start();
    }
  }
  return fleet;
}

}  // namespace xcc
