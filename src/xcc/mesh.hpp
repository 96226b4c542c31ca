#pragma once
// Route plumbing shared by every run driver: channels over an N-chain
// TopologyConfig, the hops a transfer route crosses, and the relayer fleet
// on those hops (DESIGN.md §4i).
//
// establish_mesh() brings the testbed up and runs the HandshakeDriver once
// per topology edge; route_hops() orients the channels a chain-index route
// crosses; start_relayer_fleet() places the relayer instances on them. The
// paper's pair is the one-hop route {0, 1} over the one-edge topology, so
// run_experiment(), check::run_scenario() and the chaos campaigns all deploy
// through these three functions.

#include <memory>
#include <string>
#include <vector>

#include "relayer/events.hpp"
#include "relayer/relayer.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"
#include "xcc/topology.hpp"

namespace xcc {

struct MeshSetupResult {
  bool ok = false;
  std::string error;
  /// channels[e] is the channel of topology.edges[e], oriented like the
  /// edge (chain_x = edge.chain_a).
  std::vector<ChannelSetupResult> channels;
};

/// Starts every chain, waits until each has produced height 2, then
/// establishes one channel per topology edge, sequentially (handshakes
/// share relayer wallet 0). Fails when the chains do not start or an edge's
/// handshake fails or exceeds `limit`.
MeshSetupResult establish_mesh(Testbed& testbed, sim::TimePoint limit);

/// The channels along `route` (consecutive testbed chain indices): result[i]
/// is the channel between route[i] and route[i+1], oriented so chain_x =
/// route[i] (the hop's source side). Fails when the route is shorter than
/// two chains or uses a pair of chains the topology does not connect.
util::Result<std::vector<ChannelSetupResult>> route_hops(
    const MeshSetupResult& mesh, const TopologyConfig& topology,
    const std::vector<int>& route);

/// Builds and starts the relayer fleet of a route: `count` instances of
/// `base` on each hop. Instance k of hop h signs with relayer wallet
/// h * count + k (so the testbed needs `relayer_wallets >= hops * count`),
/// is colocated with machine k and queries that machine's full nodes (the
/// paper's one-relayer-per-machine deployment), holds coordination position
/// (k, count), tags its step records with hop h and is named
/// "relayer<h * count + k>". The first instance of each hop feeds `steps`.
std::vector<std::unique_ptr<relayer::Relayer>> start_relayer_fleet(
    Testbed& testbed, const std::vector<ChannelSetupResult>& hops, int count,
    const relayer::RelayerConfig& base, relayer::StepLog* steps);

}  // namespace xcc
