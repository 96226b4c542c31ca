// N-chain mesh topologies and multi-hop packet forwarding (DESIGN.md §4i):
// topology construction and validation, the forward middleware's route
// encoding and refund unwinding, and end-to-end multi-hop routes through
// run_experiment() under the invariant checker — including the same-seed
// byte-identical rerun, the mid-route-timeout regression and the
// observability artifacts of a route run.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "check/scenario.hpp"
#include "ibc/forward.hpp"
#include "ibc/transfer.hpp"
#include "relayer/events.hpp"
#include "util/json.hpp"
#include "xcc/experiment.hpp"
#include "xcc/testbed.hpp"
#include "xcc/topology.hpp"

namespace {

// --- Topology construction ---------------------------------------------------

TEST(Topology, BuildersProduceExpectedShapes) {
  const auto pair = xcc::TopologyConfig::two_chain();
  EXPECT_EQ(pair.chain_count, 2);
  ASSERT_EQ(pair.edges.size(), 1u);
  EXPECT_TRUE(pair.validate().is_ok());

  const auto line = xcc::TopologyConfig::line(4);
  EXPECT_EQ(line.chain_count, 4);
  ASSERT_EQ(line.edges.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(line.edges[static_cast<std::size_t>(i)].chain_a, i);
    EXPECT_EQ(line.edges[static_cast<std::size_t>(i)].chain_b, i + 1);
  }
  EXPECT_TRUE(line.validate().is_ok());

  const auto hub = xcc::TopologyConfig::hub_and_spoke(5);
  EXPECT_EQ(hub.chain_count, 5);
  ASSERT_EQ(hub.edges.size(), 4u);
  for (const auto& e : hub.edges) EXPECT_EQ(e.chain_a, 0);
  EXPECT_TRUE(hub.validate().is_ok());

  const auto mesh = xcc::TopologyConfig::full_mesh(5);
  EXPECT_EQ(mesh.chain_count, 5);
  EXPECT_EQ(mesh.edges.size(), 10u);  // C(5,2)
  EXPECT_TRUE(mesh.validate().is_ok());
  // Every pair connected, both orientations resolvable.
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      if (x == y) continue;
      EXPECT_GE(mesh.edge_between(x, y), 0) << x << "," << y;
    }
  }
}

TEST(Topology, FromNameParsesAndRejects) {
  EXPECT_TRUE(xcc::TopologyConfig::from_name("pair").is_ok());
  auto line = xcc::TopologyConfig::from_name("line3");
  ASSERT_TRUE(line.is_ok());
  EXPECT_EQ(line.value().chain_count, 3);
  EXPECT_TRUE(xcc::TopologyConfig::from_name("hub4").is_ok());
  EXPECT_TRUE(xcc::TopologyConfig::from_name("mesh5").is_ok());
  EXPECT_FALSE(xcc::TopologyConfig::from_name("ring3").is_ok());
  EXPECT_FALSE(xcc::TopologyConfig::from_name("line1").is_ok());
  EXPECT_FALSE(xcc::TopologyConfig::from_name("mesh65").is_ok());
  EXPECT_FALSE(xcc::TopologyConfig::from_name("line").is_ok());
}

TEST(Topology, ValidateFailsLoudly) {
  xcc::TopologyConfig bad = xcc::TopologyConfig::line(3);
  bad.edges[1].chain_b = 7;  // unknown chain index
  const auto st = bad.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("unknown chain"), std::string::npos);

  xcc::TopologyConfig self = xcc::TopologyConfig::line(3);
  self.edges[0].chain_b = 0;
  EXPECT_FALSE(self.validate().is_ok());

  xcc::TopologyConfig empty;
  empty.edges.clear();
  EXPECT_FALSE(empty.validate().is_ok());
}

TEST(Topology, TestbedRejectsInvalidTopology) {
  xcc::TestbedConfig cfg;
  cfg.topology = xcc::TopologyConfig::line(3);
  cfg.topology.edges[0].chain_a = 9;
  EXPECT_THROW(xcc::Testbed tb(cfg), std::invalid_argument);
}

TEST(Topology, HandshakeRejectsUnknownChainPair) {
  xcc::TestbedConfig cfg;  // plain two-chain testbed
  xcc::Testbed tb(cfg);
  tb.start_chains();
  ASSERT_TRUE(tb.run_until_height(2, sim::seconds(300)));
  xcc::HandshakeDriver hs(tb, 0, 0, 0, /*chain_x=*/0, /*chain_y=*/5);
  const auto result = hs.establish_channel_blocking(sim::seconds(600));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown chain pair"), std::string::npos);
}

// --- Forward route encoding --------------------------------------------------

TEST(ForwardRoute, EncodeParseRoundtrip) {
  const std::vector<ibc::ChannelId> hops{"channel-1", "channel-0",
                                         "channel-7"};
  const std::string encoded =
      ibc::ForwardMiddleware::encode_route(hops, "alice");
  EXPECT_EQ(encoded, "fwd:channel-1/channel-0/channel-7:alice");

  std::vector<ibc::ChannelId> parsed;
  std::string final_receiver;
  ASSERT_TRUE(
      ibc::ForwardMiddleware::parse_route(encoded, parsed, final_receiver));
  EXPECT_EQ(parsed, hops);
  EXPECT_EQ(final_receiver, "alice");
}

TEST(ForwardRoute, ParseRejectsMalformed) {
  std::vector<ibc::ChannelId> hops;
  std::string fin;
  EXPECT_FALSE(ibc::ForwardMiddleware::parse_route("alice", hops, fin));
  EXPECT_FALSE(ibc::ForwardMiddleware::parse_route("fwd:", hops, fin));
  EXPECT_FALSE(ibc::ForwardMiddleware::parse_route("fwd:chan", hops, fin));
  EXPECT_FALSE(ibc::ForwardMiddleware::parse_route("fwd::alice", hops, fin));
  EXPECT_FALSE(
      ibc::ForwardMiddleware::parse_route("fwd:a//b:alice", hops, fin));
}

TEST(ForwardRoute, TracePrefixingKeepsRoutesDistinct) {
  // A token forwarded 0→1→2 must not be fungible with one sent 0→2 direct:
  // the trace grows one hop per channel traversed, so the voucher hashes
  // differ (checker satellite: distinct per-route conservation buckets).
  const std::string forwarded =
      ibc::voucher_denom("transfer/channel-0/transfer/channel-1/uatom");
  const std::string direct = ibc::voucher_denom("transfer/channel-1/uatom");
  EXPECT_NE(forwarded, direct);
}

// --- Telemetry hop lanes -----------------------------------------------------

TEST(StepLogHops, LegacyCsvStaysThreeColumns) {
  relayer::StepLog log;
  log.record(relayer::Step::kTransferBroadcast, 1, sim::seconds(1));
  log.record(relayer::Step::kRecvBuild, 1, sim::seconds(2));
  const std::string path = ::testing::TempDir() + "steps_legacy.csv";
  ASSERT_TRUE(log.write_csv(path).is_ok());
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "time_s,step,sequence");
}

TEST(StepLogHops, MultiHopCsvGrowsHopColumn) {
  relayer::StepLog log;
  log.record(relayer::Step::kTransferBroadcast, 1, sim::seconds(1));
  log.record(relayer::Step::kRecvBuild, 1, sim::seconds(2), /*hop=*/1);
  const std::string path = ::testing::TempDir() + "steps_hops.csv";
  ASSERT_TRUE(log.write_csv(path).is_ok());
  std::ifstream f(path);
  std::string header, row0, row1;
  std::getline(f, header);
  std::getline(f, row0);
  std::getline(f, row1);
  EXPECT_EQ(header, "time_s,step,sequence,hop");
  EXPECT_NE(row0.find(",0"), std::string::npos);
  EXPECT_NE(row1.find(",1"), std::string::npos);
}

// --- End-to-end multi-hop ----------------------------------------------------

xcc::ExperimentConfig line3_config(std::uint64_t seed) {
  xcc::ExperimentConfig cfg;
  cfg.testbed.topology = xcc::TopologyConfig::line(3);
  cfg.testbed.seed = seed;
  cfg.testbed.machines = 2;
  cfg.testbed.validators_per_chain = 4;
  cfg.testbed.invariant_fail_fast = false;  // count, don't throw
  cfg.workload.total_transfers = 8;
  cfg.workload.msgs_per_tx = 4;
  cfg.measure_blocks = 4;
  cfg.wait_for_drain = true;
  cfg.route = {0, 1, 2};
  cfg.max_sim_time = sim::seconds(2'000);
  return cfg;
}

TEST(MeshRouting, TwoHopLineDeliversAndStaysConservative) {
  const auto r = xcc::run_experiment(line3_config(7));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.delivery_latencies_seconds.size(), r.workload.requested);
  EXPECT_EQ(r.final_breakdown.completed, r.workload.requested);
  EXPECT_EQ(r.invariant_violations, 0u);
  // Every transfer crossed the middle chain exactly once and settled.
  EXPECT_EQ(r.packets_forwarded, r.workload.requested);
  EXPECT_EQ(r.forwards_completed, r.workload.requested);
  EXPECT_EQ(r.forwards_unwound, 0u);
  EXPECT_GT(r.delivery_tfps, 0.0);
  for (double v : r.delivery_latencies_seconds) EXPECT_GT(v, 0.0);
  ASSERT_EQ(r.app_hashes.size(), 3u);
  for (const auto& h : r.app_hashes) EXPECT_FALSE(h.empty());
  // One relayer per hop, each on its own wallet.
  EXPECT_EQ(r.relayers.size(), 2u);
}

TEST(MeshRouting, SameSeedRerunIsByteIdentical) {
  const auto a = xcc::run_experiment(line3_config(42));
  const auto b = xcc::run_experiment(line3_config(42));
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  EXPECT_EQ(a.app_hashes, b.app_hashes);
  EXPECT_EQ(a.delivery_latencies_seconds, b.delivery_latencies_seconds);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.steps.records().size(), b.steps.records().size());
  for (std::size_t i = 0; i < a.steps.records().size(); ++i) {
    EXPECT_EQ(a.steps.records()[i].time, b.steps.records()[i].time);
    EXPECT_EQ(a.steps.records()[i].sequence, b.steps.records()[i].sequence);
    EXPECT_EQ(a.steps.records()[i].hop, b.steps.records()[i].hop);
  }
}

TEST(MeshRouting, MidRouteTimeoutRefundsExactlyOnce) {
  // Three-hop route 0→1→2→3 with a one-block per-hop timeout budget: the
  // first forwarded hop (hop 2 of 3, on chain 1) times out before any
  // relayer can deliver it. The middleware must refund the forwarding
  // agent, unwind chain 1's local delivery, and propagate an error ack so
  // chain 0 releases the hop-1 escrow back to the sender — exactly once.
  xcc::ExperimentConfig cfg;
  cfg.testbed.topology = xcc::TopologyConfig::line(4);
  cfg.testbed.seed = 11;
  cfg.testbed.machines = 2;
  cfg.testbed.validators_per_chain = 4;
  cfg.testbed.forward_hop_timeout_blocks = 1;
  cfg.testbed.invariant_fail_fast = false;
  cfg.workload.total_transfers = 4;
  cfg.workload.msgs_per_tx = 2;
  cfg.measure_blocks = 4;
  cfg.wait_for_drain = true;
  cfg.route = {0, 1, 2, 3};
  cfg.max_sim_time = sim::seconds(2'000);
  const auto r = xcc::run_experiment(cfg);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.delivery_latencies_seconds.empty())
      << "one-block hop budget must not be relayable";
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.packets_forwarded, 0u);
  // Every forwarded packet unwound; none completed.
  EXPECT_EQ(r.forwards_completed, 0u);
  EXPECT_EQ(r.forwards_unwound, r.packets_forwarded);
}

TEST(MeshRouting, RouteRunWritesSeriesAndTrace) {
  // A multi-hop run gets the same observability wiring as the pair: the
  // sampler's relayer probes (on the first hop's first instance), the
  // trace export and an armed flight recorder.
  xcc::ExperimentConfig cfg = line3_config(5);
  const std::string dir = ::testing::TempDir();
  cfg.series_csv_path = dir + "route_series.csv";
  cfg.trace_path = dir + "route_trace.json";
  cfg.flight_dump_path = dir + "route.flight";
  const auto r = xcc::run_experiment(cfg);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.telemetry_error.empty()) << r.telemetry_error;
  EXPECT_EQ(r.delivery_latencies_seconds.size(), r.workload.requested);

  std::ifstream series(cfg.series_csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(series, header));
  EXPECT_NE(header.find("probe.relayer0.in_flight"), std::string::npos);
  EXPECT_NE(header.find("probe.relayer0.stage.recv_done"), std::string::npos);
  EXPECT_GT(r.series.samples(), 1u);

  std::ifstream trace_file(cfg.trace_path);
  std::stringstream trace;
  trace << trace_file.rdbuf();
  const auto parsed = util::json::parse(trace.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const util::json::Value* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
}

TEST(MeshRouting, FuzzerTopologiesStayInvariantClean) {
  for (const char* topo : {"line3", "hub3", "mesh3"}) {
    check::ScenarioOptions opts;
    opts.topology = topo;
    for (std::uint64_t seed : {1001ULL, 1002ULL}) {
      const auto r = check::run_scenario(seed, opts);
      ASSERT_TRUE(r.setup_ok) << topo << " seed " << seed << ": "
                              << r.setup_error;
      EXPECT_TRUE(r.violations.empty())
          << topo << " seed " << seed << ": " << r.violations.size()
          << " violation(s)";
    }
  }
}

}  // namespace
