// Mesh-topology routing bench (DESIGN.md §4i): the simulator beyond the
// paper's two-chain deployment.
//
// Three sections over N-chain connection graphs with the ICS-20
// packet-forward middleware:
//
//   hub_vs_mesh   the same spoke-to-spoke transfer on a hub-and-spoke
//                 topology (two hops through the hub) vs a full mesh (one
//                 direct hop), N in {3, 5}: the latency/throughput price of
//                 routing through an intermediary
//   hops          end-to-end latency vs route length on line topologies,
//                 1-4 hops: each hop appends one full relay cycle, so
//                 latency must grow ~linearly with hop count
//   placement     relayer placement/coordination sensitivity on the 2-hop
//                 line: one relayer per hop, a racing pair per hop, a
//                 sequence-sharded pair, and a fee-capped fleet whose
//                 per-hop budget excludes every instance (the route starves
//                 and nothing is relayed)
//
//   --smoke   trimmed grid (N=3 points, 1-2 hops) for the sanitizer CI
//             phase; self-checks still run.
//
// Every point is one run_experiment() over its topology and route, so
// --trace/--series/--flight apply to the first point (hub3), as in every
// sweep bench.
//
// Self-checks (exit 1 on failure):
//   * every run is invariant-clean; every non-starved run delivers all
//     transfers, the starved run delivers none and counts routing skips
//   * hub routes forward every packet, direct mesh routes forward none,
//     and the direct route beats the hub route on latency
//   * hop-sweep latency is strictly increasing and ~linear in hop count
//   * the sharded pair actually partitions work (coordination skips > 0)

#include "common.hpp"
#include "xcc/topology.hpp"

namespace {

struct Point {
  std::string section;
  std::string topo;          // TopologyConfig::from_name() spelling
  std::vector<int> route;
  int relayers_per_hop = 1;
  const char* coordination = "none";
  double per_hop_fee_budget = 0;  // 0 = unlimited
};

std::string route_label(const std::vector<int>& route) {
  std::string s;
  for (std::size_t i = 0; i < route.size(); ++i) {
    if (i > 0) s += '>';
    s += std::to_string(route[i]);
  }
  return s;
}

/// Every run submits `transfers` from two accounts, five per transaction,
/// one transaction in flight per account: rate mode at two transactions per
/// block for as many blocks as the total needs.
constexpr int kAccounts = 2;
constexpr int kMsgsPerTx = 5;

xcc::ExperimentConfig make_config(const Point& p, std::uint64_t transfers) {
  xcc::ExperimentConfig cfg;
  cfg.testbed.topology = xcc::TopologyConfig::from_name(p.topo).value();
  cfg.testbed.seed = bench::seed_for(0);
  cfg.testbed.machines = 3;
  cfg.testbed.validators_per_chain = 4;
  // Collect violations rather than throwing: the bench reports the count
  // (and self-checks it is zero).
  cfg.testbed.invariant_fail_fast = false;
  const int per_block = kAccounts * kMsgsPerTx;
  cfg.workload.msgs_per_tx = kMsgsPerTx;
  cfg.workload.requests_per_second =
      per_block / sim::to_seconds(cfg.testbed.min_block_interval);
  cfg.measure_blocks = static_cast<int>(transfers) / per_block;
  cfg.wait_for_drain = true;
  cfg.route = p.route;
  cfg.relayer_count = p.relayers_per_hop;
  cfg.relayer.coordination.mode =
      relayer::coordination_mode_from_string(p.coordination);
  cfg.relayer.coordination.shard_width = 4;
  cfg.relayer.per_hop_fee_budget = p.per_hop_fee_budget;
  cfg.max_sim_time = sim::seconds(4'000);
  // The starved route never progresses; stop draining quickly.
  cfg.drain_no_progress_limit =
      sim::seconds(p.per_hop_fee_budget > 0 ? 60 : 180);
  return cfg;
}

double avg_latency(const xcc::ExperimentResult& r) {
  const auto& lat = r.delivery_latencies_seconds;
  if (lat.empty()) return 0.0;
  double sum = 0;
  for (double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

std::uint64_t routing_skipped(const xcc::ExperimentResult& r) {
  std::uint64_t n = 0;
  for (const auto& st : r.relayers) n += st.routing_skipped;
  return n;
}

std::uint64_t coordination_skipped(const xcc::ExperimentResult& r) {
  std::uint64_t n = 0;
  for (const auto& st : r.relayers) n += st.coordination_skipped;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const bench::Options opt = bench::parse_options(
      argc, argv,
      {{"--smoke", false, "trimmed grid for the sanitizer CI phase"}});

  bench::print_header(
      "Mesh routing: hub vs full mesh, latency vs hop count, placement",
      "beyond the paper's two-chain deployment (SIII-C); ICS-20 "
      "packet-forward middleware over N-chain topologies",
      opt);

  const std::uint64_t transfers = smoke ? 10 : 40;
  const int max_hops = smoke ? 2 : 4;

  std::vector<Point> points;
  // Section 1: the same spoke-to-spoke transfer, hub vs direct mesh.
  points.push_back({"hub_vs_mesh", "hub3", {1, 0, 2}});
  points.push_back({"hub_vs_mesh", "mesh3", {1, 2}});
  if (!smoke) {
    points.push_back({"hub_vs_mesh", "hub5", {1, 0, 2}});
    points.push_back({"hub_vs_mesh", "mesh5", {1, 2}});
  }
  // Section 2: latency vs hop count on lines.
  const std::size_t hops_begin = points.size();
  for (int h = 1; h <= max_hops; ++h) {
    Point p;
    p.section = "hops";
    p.topo = "line" + std::to_string(h + 1);
    for (int c = 0; c <= h; ++c) p.route.push_back(c);
    points.push_back(std::move(p));
  }
  // Section 3: relayer placement / coordination on the 2-hop line.
  const std::size_t place_begin = points.size();
  points.push_back({"placement", "line3", {0, 1, 2}, 1, "none", 0});
  if (!smoke) {
    points.push_back({"placement", "line3", {0, 1, 2}, 2, "none", 0});
  }
  points.push_back({"placement", "line3", {0, 1, 2}, 2, "shard", 0});
  points.push_back({"placement", "line3", {0, 1, 2}, 1, "none", 1.0});

  std::vector<xcc::ExperimentConfig> configs;
  for (const Point& p : points) configs.push_back(make_config(p, transfers));
  const auto results = bench::run_sweep(opt, std::move(configs));

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) {
      std::cout << "experiment failed (" << points[i].topo << " "
                << route_label(points[i].route) << "): " << results[i].error
                << "\n";
      return 1;
    }
  }

  util::Table table({"section", "topo", "route", "hops", "relayers", "coord",
                     "requested", "completed", "tfps", "avg_latency_s",
                     "forwarded", "unwound", "routing_skip", "coord_skip",
                     "violations"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const xcc::ExperimentResult& r = results[i];
    table.add_row({p.section, p.topo, route_label(p.route),
                   std::to_string(p.route.size() - 1),
                   std::to_string(p.relayers_per_hop), p.coordination,
                   std::to_string(r.workload.requested),
                   std::to_string(r.delivery_latencies_seconds.size()),
                   util::fmt_double(r.delivery_tfps, 2),
                   util::fmt_double(avg_latency(r), 2),
                   std::to_string(r.packets_forwarded),
                   std::to_string(r.forwards_unwound),
                   std::to_string(routing_skipped(r)),
                   std::to_string(coordination_skipped(r)),
                   std::to_string(r.invariant_violations)});
  }
  table.print(std::cout);
  bench::write_view(opt, "mesh_routing", table);

  bool failed = false;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "MESH CHECK FAILED: " << what << "\n";
      failed = true;
    }
  };

  const std::size_t starved = points.size() - 1;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const std::string tag = points[i].topo + " " + route_label(points[i].route);
    const std::uint64_t completed = r.delivery_latencies_seconds.size();
    check(r.invariant_violations == 0, tag + ": invariant violations");
    if (i == starved) {
      check(completed == 0, tag + ": fee-starved route still delivered");
      check(routing_skipped(r) > 0, tag + ": fee cap never skipped a packet");
    } else {
      check(completed == r.workload.requested,
            tag + ": delivered " + std::to_string(completed) + " of " +
                std::to_string(r.workload.requested));
      check(r.forwards_unwound == 0, tag + ": unexpected unwinds");
    }
  }

  // Hub routes forward through the middle chain; direct mesh routes do not,
  // and skipping the intermediary must pay off in latency.
  const auto& hub3 = results[0];
  const auto& mesh3 = results[1];
  check(hub3.packets_forwarded == hub3.workload.requested,
        "hub3 did not forward every packet");
  check(mesh3.packets_forwarded == 0, "direct mesh3 route forwarded packets");
  check(avg_latency(mesh3) < avg_latency(hub3),
        "direct mesh3 latency not below 2-hop hub3 latency");

  // Latency vs hop count: strictly increasing and ~linear (every increment
  // within a generous band around the mean increment).
  std::vector<double> lat;
  for (int h = 1; h <= max_hops; ++h) {
    lat.push_back(
        avg_latency(results[hops_begin + static_cast<std::size_t>(h - 1)]));
  }
  std::cout << "\nlatency vs hops:";
  for (std::size_t i = 0; i < lat.size(); ++i) {
    std::cout << " h" << (i + 1) << "=" << util::fmt_double(lat[i], 1) << "s";
  }
  std::cout << "\n";
  for (std::size_t i = 1; i < lat.size(); ++i) {
    check(lat[i] > lat[i - 1], "hop latency not increasing at h=" +
                                   std::to_string(i + 1));
  }
  if (lat.size() >= 3) {
    const double mean_inc =
        (lat.back() - lat.front()) / static_cast<double>(lat.size() - 1);
    for (std::size_t i = 1; i < lat.size(); ++i) {
      const double inc = lat[i] - lat[i - 1];
      check(inc > 0.25 * mean_inc && inc < 3.0 * mean_inc,
            "hop latency increment at h=" + std::to_string(i + 1) +
                " not ~linear (" + util::fmt_double(inc, 2) + "s vs mean " +
                util::fmt_double(mean_inc, 2) + "s)");
    }
  }

  // The sharded pair must actually partition work across both instances.
  const std::size_t shard_idx = smoke ? place_begin + 1 : place_begin + 2;
  check(coordination_skipped(results[shard_idx]) > 0,
        "sharded placement never skipped a peer-owned packet");

  if (failed) return 1;
  std::cout << "\nmesh routing checks passed\n";
  return 0;
}
