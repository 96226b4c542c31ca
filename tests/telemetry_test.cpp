// Unit tests for the telemetry subsystem: instrument semantics, registry
// snapshot determinism, trace-event JSON round-trip, disabled-mode no-ops,
// Status-reporting on export I/O failure and the components' one counter
// store (counts identical with telemetry on and off).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "relayer/events.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "xcc/experiment.hpp"
#include "xcc/mesh.hpp"
#include "xcc/workload.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Instrument semantics.

TEST(CounterTest, AccumulatesDeltas) {
  telemetry::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  telemetry::Gauge g;
  g.set(10.0);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(1.0);  // set overwrites, last write wins
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(HistogramTest, BucketsObservations) {
  telemetry::Histogram h({1.0, 5.0, 10.0});
  // bucket i counts v <= bounds[i]; one extra overflow bucket.
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (boundary is inclusive)
  h.observe(3.0);   // <= 5
  h.observe(10.0);  // <= 10
  h.observe(99.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 113.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  EXPECT_DOUBLE_EQ(h.mean(), 113.5 / 5.0);
}

TEST(HistogramTest, EmptyHistogramIsSafe) {
  telemetry::Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty: no rank to interpolate
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  telemetry::Histogram h({10.0, 20.0, 30.0});
  for (const double v : {5.0, 12.0, 15.0, 22.0, 24.0, 26.0, 28.0, 35.0}) {
    h.observe(v);
  }
  // Rank 4 of 8 lands in the (20, 30] bucket (3 below it, 4 inside):
  // 20 + 10 * (4-3)/4 = 22.5.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 22.5);
  // q=0 interpolates from min() inside the first bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  // q=1 lands in the unbounded overflow bucket and reports max().
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 35.0);
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramTest, QuantileSingleBucketClampsToObservedRange) {
  telemetry::Histogram h({100.0});
  h.observe(10.0);
  h.observe(20.0);
  // Linear interpolation towards the (far) bucket bound would overshoot the
  // data; the result is clamped into [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
}

TEST(HistogramTest, QuantileAllMassInOverflowReportsMax) {
  telemetry::Histogram h({1.0});
  h.observe(5.0);
  h.observe(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.0);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(RegistryTest, InstrumentPointersAreStableAndShared) {
  telemetry::Registry reg;
  telemetry::Counter* a = reg.counter("x.events");
  telemetry::Counter* b = reg.counter("x.events");
  EXPECT_EQ(a, b);  // same name -> same instrument
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
  // Different kinds under different names coexist.
  reg.gauge("x.depth")->set(2.0);
  reg.histogram("x.sizes", {1.0, 10.0})->observe(4.0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(RegistryTest, HistogramBoundsFixedAtFirstRegistration) {
  telemetry::Registry reg;
  telemetry::Histogram* h = reg.histogram("h", {1.0, 2.0});
  telemetry::Histogram* again = reg.histogram("h", {99.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(again->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, FindHistogramHitMissAndWrongType) {
  telemetry::Registry reg;
  telemetry::Histogram* h = reg.histogram("lat", {1.0, 2.0});
  h->observe(1.5);
  // Hit: same instrument the registration returned, without creating one.
  const telemetry::Histogram* found = reg.find_histogram("lat");
  ASSERT_EQ(found, h);
  EXPECT_EQ(found->count(), 1u);
  // Miss: never registered, and the lookup must not register it.
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  // Wrong type: a counter under that name is not a histogram.
  reg.counter("events")->add(1);
  EXPECT_EQ(reg.find_histogram("events"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryTest, SnapshotCarriesHistogramPercentiles) {
  telemetry::Registry reg;
  telemetry::Histogram* h = reg.histogram("lat", {10.0, 20.0, 30.0});
  for (const double v : {5.0, 12.0, 15.0, 22.0, 24.0, 26.0, 28.0, 35.0}) {
    h->observe(v);
  }
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].p50, h->quantile(0.50));
  EXPECT_DOUBLE_EQ(snap[0].p90, h->quantile(0.90));
  EXPECT_DOUBLE_EQ(snap[0].p99, h->quantile(0.99));
}

TEST(RegistryTest, SnapshotIsNameSortedAndComplete) {
  telemetry::Registry reg;
  reg.counter("zeta")->add(7);
  reg.gauge("alpha")->set(1.5);
  reg.histogram("mid", {10.0})->observe(3.0);
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[0].kind, "gauge");
  EXPECT_DOUBLE_EQ(snap[0].value, 1.5);
  EXPECT_EQ(snap[1].kind, "histogram");
  EXPECT_EQ(snap[1].count, 1u);
  EXPECT_DOUBLE_EQ(snap[1].sum, 3.0);
  EXPECT_EQ(snap[2].kind, "counter");
  EXPECT_DOUBLE_EQ(snap[2].value, 7.0);
}

TEST(RegistryTest, WriteCsvSucceedsAndReportsFailure) {
  telemetry::Registry reg;
  reg.counter("a")->add(1);
  const std::string path = ::testing::TempDir() + "telemetry_reg.csv";
  ASSERT_TRUE(reg.write_csv(path).is_ok());
  const std::string csv = slurp(path);
  EXPECT_NE(csv.find("a"), std::string::npos);
  EXPECT_EQ(csv, telemetry::snapshot_to_csv(reg.snapshot()));
  std::remove(path.c_str());

  const util::Status bad = reg.write_csv("/nonexistent-dir/x/metrics.csv");
  EXPECT_FALSE(bad.is_ok());
}

// ---------------------------------------------------------------------------
// Tracer: JSON round-trip and event limit.

TEST(TracerTest, JsonRoundTripContainsAllSpanFamilies) {
  telemetry::Tracer tr;
  const telemetry::TrackId track = tr.track("src.m0.rpc", "service");
  tr.complete(track, "queue_wait", 100, 50);
  tr.complete(track, "broadcast_tx_sync", 150, 2000);
  tr.instant(track, "rejected", 200);
  tr.counter(track, "queued", 150, 3.0);
  tr.async_begin("packet", 7, 100);
  tr.async_instant("RecvPacket", 7, 500);
  tr.async_end("packet", 7, 900);
  EXPECT_EQ(tr.event_count(), 7u);

  const std::string json = tr.to_json();
  // Minimal structural parse: the envelope plus one entry per event, with
  // the phases and fields Perfetto keys on.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"queue_wait\",\"ph\":\"X\",\"ts\":100,"
                      "\"dur\":50"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"rejected\",\"ph\":\"i\",\"ts\":200"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":3}"), std::string::npos);
  // Async lifecycle: begin/instant/end share category "packet" and id 0x7.
  EXPECT_NE(json.find("{\"name\":\"packet\",\"ph\":\"b\",\"ts\":100,"
                      "\"cat\":\"packet\",\"id\":\"0x7\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"RecvPacket\",\"ph\":\"n\",\"ts\":500"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"packet\",\"ph\":\"e\",\"ts\":900"),
            std::string::npos);
  // Track metadata names the process/thread rows.
  EXPECT_NE(json.find("\"args\":{\"name\":\"src.m0.rpc\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"service\"}"), std::string::npos);
  // Balanced braces => structurally plausible JSON (full validation happens
  // in run_benches.sh --check via python json.load).
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
}

TEST(TracerTest, EscapesControlCharactersInNames) {
  telemetry::Tracer tr;
  const telemetry::TrackId track = tr.track("p", "t");
  tr.instant(track, "with\"quote\\and\nnewline", 1);
  const std::string json = tr.to_json();
  EXPECT_NE(json.find("with\\\"quote\\\\and\\nnewline"), std::string::npos);
}

TEST(TracerTest, EventLimitDropsAndCounts) {
  telemetry::Tracer tr;
  tr.set_event_limit(2);
  const telemetry::TrackId track = tr.track("p", "t");
  tr.instant(track, "a", 1);
  tr.instant(track, "b", 2);
  tr.instant(track, "c", 3);  // over the limit
  EXPECT_EQ(tr.event_count(), 2u);
  EXPECT_EQ(tr.dropped_events(), 1u);
  EXPECT_NE(tr.to_json().find("\"droppedEvents\":1"), std::string::npos);
}

TEST(TracerTest, WriteJsonSucceedsAndReportsFailure) {
  telemetry::Tracer tr;
  tr.async_begin("packet", 1, 0);
  const std::string path = ::testing::TempDir() + "telemetry_trace.json";
  ASSERT_TRUE(tr.write_json(path).is_ok());
  EXPECT_EQ(slurp(path), tr.to_json());
  std::remove(path.c_str());

  const util::Status bad = tr.write_json("/nonexistent-dir/x/trace.json");
  EXPECT_FALSE(bad.is_ok());
}

// ---------------------------------------------------------------------------
// StepLog export failure surfaces as Status (regression: used to return
// void and silently drop the dataset on I/O errors).

TEST(StepLogTest, WriteCsvReportsUnwritablePath) {
  relayer::StepLog log;
  log.record(relayer::Step::kTransferBroadcast, 1, sim::seconds(1));
  const util::Status bad = log.write_csv("/nonexistent-dir/x/steps.csv");
  EXPECT_FALSE(bad.is_ok());

  const std::string path = ::testing::TempDir() + "steplog_ok.csv";
  EXPECT_TRUE(log.write_csv(path).is_ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Disabled mode: a hub that was never enabled must cost nothing and record
// nothing; the accessors gate every instrumentation site.

TEST(DisabledModeTest, AccessorsReturnNullWhenDisabledOrAbsent) {
  EXPECT_EQ(telemetry::metrics(nullptr), nullptr);
  EXPECT_EQ(telemetry::tracer(nullptr), nullptr);
  telemetry::Hub hub;  // constructed disabled
  EXPECT_EQ(telemetry::metrics(&hub), nullptr);
  EXPECT_EQ(telemetry::tracer(&hub), nullptr);
#ifndef IBC_TELEMETRY_DISABLED
  hub.enable();
  EXPECT_NE(telemetry::metrics(&hub), nullptr);
  EXPECT_NE(telemetry::tracer(&hub), nullptr);
#endif
}

TEST(DisabledModeTest, ExperimentWithoutTelemetryRecordsNothing) {
  xcc::ExperimentConfig cfg;
  cfg.workload.total_transfers = 5;
  cfg.workload.msgs_per_tx = 5;
  cfg.relayer_count = 1;
  cfg.measure_blocks = 3;
  cfg.wait_for_drain = true;
  cfg.collect_steps = false;
  cfg.testbed.seed = 1234;
  cfg.max_sim_time = sim::seconds(600);
  const xcc::ExperimentResult r = xcc::run_experiment(cfg);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.metrics.empty());   // no registry snapshot taken
  EXPECT_TRUE(r.telemetry_error.empty());
}

// ---------------------------------------------------------------------------
// End-to-end determinism: two identical telemetry runs must produce
// byte-identical trace JSON and metrics CSV (the property the golden-figure
// suite and the --trace bench flag rely on). Meaningless when telemetry is
// compiled out — the artifacts are empty by design.
#ifndef IBC_TELEMETRY_DISABLED

xcc::ExperimentConfig traced_config(const std::string& tag) {
  xcc::ExperimentConfig cfg;
  cfg.workload.total_transfers = 30;
  cfg.workload.msgs_per_tx = 10;
  cfg.relayer_count = 1;
  cfg.measure_blocks = 5;
  cfg.wait_for_drain = true;
  cfg.testbed.seed = 77;
  cfg.max_sim_time = sim::seconds(2'000);
  cfg.trace_path = ::testing::TempDir() + "telemetry_e2e_" + tag + ".json";
  cfg.metrics_csv_path =
      ::testing::TempDir() + "telemetry_e2e_" + tag + ".metrics.csv";
  return cfg;
}

TEST(TelemetryE2ETest, IdenticalRunsProduceIdenticalArtifacts) {
  const xcc::ExperimentConfig cfg_a = traced_config("a");
  const xcc::ExperimentConfig cfg_b = traced_config("b");
  const xcc::ExperimentResult ra = xcc::run_experiment(cfg_a);
  const xcc::ExperimentResult rb = xcc::run_experiment(cfg_b);
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  ASSERT_TRUE(ra.telemetry_error.empty()) << ra.telemetry_error;
  ASSERT_TRUE(rb.telemetry_error.empty()) << rb.telemetry_error;

  const std::string trace_a = slurp(cfg_a.trace_path);
  const std::string trace_b = slurp(cfg_b.trace_path);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);  // byte-identical across same-seed runs

  const std::string csv_a = slurp(cfg_a.metrics_csv_path);
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, slurp(cfg_b.metrics_csv_path));

  // The in-memory snapshot matches the exported CSV.
  EXPECT_EQ(telemetry::snapshot_to_csv(ra.metrics), csv_a);

  // The trace carries the span families the tentpole promises: per-packet
  // lifecycle rows and rpc service spans.
  EXPECT_NE(trace_a.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"cat\":\"packet\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"name\":\"broadcast_tx_sync\""),
            std::string::npos);
  // Every opened packet span is closed (kAckConfirmation reached for all).
  EXPECT_EQ(count_occurrences(trace_a, "\"ph\":\"b\""),
            count_occurrences(trace_a, "\"ph\":\"e\""));

  // Metrics cover the instrumented layers.
  const auto has_metric = [&](const std::string& name) {
    for (const telemetry::MetricRow& row : ra.metrics) {
      if (row.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_metric("net.messages"));
  EXPECT_TRUE(has_metric("src.blocks"));
  EXPECT_TRUE(has_metric("src.mempool.admitted"));
  EXPECT_TRUE(has_metric("relayer0.ops.relay_batch"));
  EXPECT_TRUE(has_metric("relayer0.relay_batch_size"));

  // All 30 transfers completed, each tracked as one closed async span.
  EXPECT_EQ(ra.final_breakdown.completed, 30u);

  for (const auto& p : {cfg_a.trace_path, cfg_a.metrics_csv_path,
                        cfg_b.trace_path, cfg_b.metrics_csv_path}) {
    std::remove(p.c_str());
  }
}

#endif  // IBC_TELEMETRY_DISABLED

// ---------------------------------------------------------------------------
// One counter store: each component count lives in one telemetry::Counter,
// bound to the hub's registry on telemetry runs and to the component's own
// registry otherwise. Turning telemetry on must change no count, and on a
// telemetry run every accessor must read the registry counter of its name.

/// Every count accessor of a finished run, keyed by the registry name its
/// counter carries on a telemetry run.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

struct CountedRun {
  Counts counts;
  std::vector<relayer::Relayer::Stats> relayers;
  std::vector<relayer::QueryCache::Stats> caches;
};

/// Drives a fixed-seed transfer along `route` with `relayers_per_hop`
/// cache-enabled relayers per hop under network `faults`, then reads every
/// count accessor. Counters are checked against the hub registry before the
/// testbed goes away.
CountedRun run_counted(xcc::TopologyConfig topology, std::vector<int> route,
                       int relayers_per_hop, net::FaultProfile faults,
                       bool telemetry) {
  xcc::TestbedConfig tc;
  tc.topology = std::move(topology);
  tc.seed = 2024;
  tc.machines = 2;
  tc.validators_per_chain = 4;
  tc.telemetry = telemetry;
  tc.relayer_wallets = static_cast<int>(route.size() - 1) * relayers_per_hop;
  tc.fund_users_on_all_chains = true;
  // The burst block's event frame overflows: failed frames (§V), recovered
  // by the relayers' clear passes.
  tc.rpc_cost.websocket_max_frame_bytes = 64 * 1024;
  xcc::Testbed tb(tc);
  const sim::TimePoint limit = sim::seconds(3'000);
  const xcc::MeshSetupResult mesh = xcc::establish_mesh(tb, limit);
  auto hops = xcc::route_hops(mesh, tc.topology, route);
  if (!mesh.ok || !hops.is_ok()) {
    ADD_FAILURE() << "setup failed: " << mesh.error;
    return {};
  }
  tb.network().set_fault_profile(faults);
  relayer::RelayerConfig rc;
  rc.query_cache.enabled = true;
  rc.clear_interval = 10;
  auto fleet = xcc::start_relayer_fleet(tb, hops.value(), relayers_per_hop,
                                        rc, nullptr);
  xcc::WorkloadConfig wc;
  wc.total_transfers = 120;
  wc.msgs_per_tx = 20;
  std::vector<ibc::ChannelId> onward;
  for (std::size_t h = 1; h < hops.value().size(); ++h) {
    onward.push_back(hops.value()[h].channel_a);
  }
  xcc::TransferWorkload workload(tb, hops.value().front(), wc, nullptr,
                                 std::move(onward));
  workload.start();
  tb.run_until_height(tb.chain(0).ledger->height() + 60, limit);

  CountedRun run;
  const auto add = [&](const std::string& name, std::uint64_t value) {
    run.counts.emplace_back(name, value);
  };
  const net::Network& net = tb.network();
  add("net.messages", net.messages_sent());
  add("net.bytes", net.bytes_sent());
  add("net.dropped", net.messages_dropped());
  add("net.duplicated", net.messages_duplicated());
  add("net.delayed", net.messages_delayed());
  for (int i = 0; i < tb.chain_count(); ++i) {
    const std::string p =
        i == 0 ? "src" : i == 1 ? "dst" : "c" + std::to_string(i);
    xcc::ChainDeployment& c = tb.chain(i);
    add(p + ".rounds", c.engine->total_rounds());
    add(p + ".failed_rounds", c.engine->failed_rounds());
    add(p + ".empty_blocks", c.engine->empty_blocks());
    add(p + ".mempool.rejected_full", c.mempool->rejected_full());
    add(p + ".mempool.rejected_checktx", c.mempool->rejected_checktx());
    add(p + ".mempool.evicted_recheck", c.mempool->evicted_recheck());
    for (std::size_t m = 0; m < c.servers.size(); ++m) {
      const std::string rpc = p + ".m" + std::to_string(m) + ".rpc";
      add(rpc + ".completed", c.servers[m]->requests_served());
      add(rpc + ".rejected", c.servers[m]->requests_rejected());
      add(rpc + ".ws_frames_oversize",
          c.servers[m]->frames_dropped_oversize());
    }
  }
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    const std::string r = "relayer" + std::to_string(k);
    const relayer::Relayer::Stats st = fleet[k]->stats();
    add(r + ".packets_relayed", st.packets_relayed);
    add(r + ".packets_completed", st.packets_completed);
    add(r + ".packets_timed_out", st.packets_timed_out);
    add(r + ".redundant_errors", st.redundant_errors);
    add(r + ".frames_failed", st.frames_failed);
    add(r + ".recv_txs_failed", st.recv_txs_failed);
    add(r + ".ack_txs_failed", st.ack_txs_failed);
    add(r + ".pull.chunk_queries", st.chunk_queries);
    add(r + ".pull.chunks_skipped", st.chunk_queries_skipped);
    add(r + ".pull.query_failures", st.pull_query_failures);
    add(r + ".pull.ack_decode_failures", st.ack_decode_failures);
    add(r + ".abandoned_packets", st.abandoned_packets);
    add(r + ".coordination_skipped", st.coordination_skipped);
    add(r + ".routing_skipped", st.routing_skipped);
    const relayer::QueryCache::Stats cs = fleet[k]->query_cache().stats();
    add(r + ".query_cache.hits", cs.hits);
    add(r + ".query_cache.misses", cs.misses);
    add(r + ".query_cache.insertions", cs.insertions);
    add(r + ".query_cache.evictions", cs.evictions);
    add(r + ".query_cache.invalidations", cs.invalidations);
    add(r + ".query_cache.stale_rejections", cs.stale_rejections);
    run.relayers.push_back(st);
    run.caches.push_back(cs);
  }

  const telemetry::Registry& reg = tb.hub()->registry();
  if (telemetry::metrics(tb.hub()) == nullptr) {
    EXPECT_EQ(reg.size(), 0u);  // counted privately, hub stays empty
  } else {
    for (const auto& [name, value] : run.counts) {
      const telemetry::Counter* c = reg.find_counter(name);
      if (c == nullptr) {
        ADD_FAILURE() << "no registry counter " << name;
        continue;
      }
      EXPECT_EQ(c->value(), value) << name;
    }
  }
  for (auto& r : fleet) r->stop();
  return run;
}

/// Sum of the counts whose name ends in `suffix`.
std::uint64_t total(const CountedRun& run, const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : run.counts) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

void expect_same_counts(const CountedRun& off, const CountedRun& on) {
  ASSERT_EQ(off.counts.size(), on.counts.size());
  for (std::size_t i = 0; i < off.counts.size(); ++i) {
    EXPECT_EQ(off.counts[i], on.counts[i]);
  }
  ASSERT_EQ(off.relayers.size(), on.relayers.size());
  for (std::size_t k = 0; k < off.caches.size(); ++k) {
    EXPECT_EQ(off.caches[k].bytes, on.caches[k].bytes);
  }
  // The run did real work: the checks above compared live counts.
  for (const char* name :
       {".packets_relayed", ".packets_completed", ".frames_failed",
        ".query_cache.hits", ".ws_frames_oversize", "net.duplicated",
        "net.delayed", ".rpc.completed"}) {
    EXPECT_GT(total(on, name), 0u) << name;
  }
}

/// Duplicates and delays, after setup: they move the network fault counters
/// without losing any message.
net::FaultProfile reordering_faults() {
  net::FaultProfile faults;
  faults.duplicate_probability = 0.01;
  faults.delay_probability = 0.02;
  faults.max_extra_delay = sim::millis(300);
  return faults;
}

TEST(CounterStore, PairCountsIgnoreTelemetryAndMatchRegistry) {
  net::FaultProfile faults = reordering_faults();
  faults.drop_probability = 0.002;
  const auto pair = xcc::TopologyConfig::two_chain();
  const CountedRun off = run_counted(pair, {0, 1}, 2, faults, false);
  const CountedRun on = run_counted(pair, {0, 1}, 2, faults, true);
  expect_same_counts(off, on);
  EXPECT_GT(total(on, "net.dropped"), 0u);
  ASSERT_EQ(on.relayers.size(), 2u);
  // Two racing relayers on one channel: the §IV-A redundant failures.
  EXPECT_GT(on.relayers[0].redundant_errors + on.relayers[1].redundant_errors,
            0u);
}

TEST(CounterStore, MeshCountsIgnoreTelemetryAndMatchRegistry) {
  const auto mesh = xcc::TopologyConfig::full_mesh(3);
  const CountedRun off =
      run_counted(mesh, {0, 1, 2}, 1, reordering_faults(), false);
  const CountedRun on =
      run_counted(mesh, {0, 1, 2}, 1, reordering_faults(), true);
  expect_same_counts(off, on);
  ASSERT_EQ(on.relayers.size(), 2u);
  EXPECT_GT(on.relayers[1].packets_relayed, 0u);  // the second hop relays
}

// ---------------------------------------------------------------------------
// Host-time profiler (telemetry/profiler.hpp).

using telemetry::ProfileKey;

TEST(ProfileReportTest, MergeSumsEntriesWallAndSimTime) {
  telemetry::ProfileReport a;
  a.entries[static_cast<std::size_t>(ProfileKey::kSchedulerDispatch)] = {
      2'000'000'000, 100};
  a.entries[static_cast<std::size_t>(ProfileKey::kCryptoHash)] = {
      1'000'000'000, 50};
  a.wall_nanos = 4'000'000'000;
  a.sim_micros = 8'000'000;
  telemetry::ProfileReport b;
  b.entries[static_cast<std::size_t>(ProfileKey::kCryptoHash)] = {
      500'000'000, 25};
  b.wall_nanos = 1'000'000'000;

  a.merge(b);
  EXPECT_EQ(a.entry(ProfileKey::kCryptoHash).nanos, 1'500'000'000u);
  EXPECT_EQ(a.entry(ProfileKey::kCryptoHash).calls, 75u);
  EXPECT_EQ(a.wall_nanos, 5'000'000'000u);
  EXPECT_EQ(a.sim_micros, 8'000'000u);
  // Derived stats: events = dispatch calls; rates are per aggregate wall.
  EXPECT_EQ(a.events_executed(), 100u);
  EXPECT_DOUBLE_EQ(a.events_per_second(), 100.0 / 5.0);
  EXPECT_DOUBLE_EQ(a.sim_time_ratio(), 8.0 / 5.0);
  EXPECT_DOUBLE_EQ(a.attributed_seconds(), 3.5);
  EXPECT_DOUBLE_EQ(a.share(ProfileKey::kCryptoHash), 1.5 / 3.5);
}

TEST(ProfileReportTest, EmptyReportDerivedStatsAreZero) {
  const telemetry::ProfileReport r;
  EXPECT_DOUBLE_EQ(r.events_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(r.sim_time_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(r.share(ProfileKey::kKvStore), 0.0);
}

#ifndef IBC_TELEMETRY_DISABLED

TEST(ProfilerTest, NestedScopesAccumulateDisjointSelfTime) {
  telemetry::profiler::start();
  {
    telemetry::ProfileScope outer(ProfileKey::kSchedulerDispatch);
    telemetry::profiler::add_sim_progress(2'000'000);
    {
      telemetry::ProfileScope inner(ProfileKey::kCryptoHash);
      // Spin until the clock visibly advances so inner self time is > 0.
      const auto t0 = telemetry::profiler::detail::now_ns();
      while (telemetry::profiler::detail::now_ns() - t0 < 100'000) {
      }
    }
  }
  const telemetry::ProfileReport r = telemetry::profiler::stop();
  EXPECT_EQ(r.entry(ProfileKey::kSchedulerDispatch).calls, 1u);
  EXPECT_EQ(r.entry(ProfileKey::kCryptoHash).calls, 1u);
  EXPECT_GT(r.entry(ProfileKey::kCryptoHash).nanos, 0u);
  EXPECT_EQ(r.sim_micros, 2'000'000u);
  EXPECT_EQ(r.events_executed(), 1u);
  EXPECT_GT(r.wall_nanos, 0u);
  // Self time is disjoint: the per-subsystem total cannot exceed the
  // profiled wall time.
  EXPECT_LE(r.attributed_seconds(), r.wall_seconds());
}

TEST(ProfilerTest, ScopesAreNoopsWhenNotArmed) {
  {
    telemetry::ProfileScope scope(ProfileKey::kKvStore);
    telemetry::profiler::add_sim_progress(123);
  }
  const telemetry::ProfileReport r = telemetry::profiler::stop();
  EXPECT_EQ(r.wall_nanos, 0u);
  EXPECT_EQ(r.sim_micros, 0u);
  for (std::size_t i = 0; i < telemetry::kProfileKeyCount; ++i) {
    EXPECT_EQ(r.entries[i].nanos, 0u);
    EXPECT_EQ(r.entries[i].calls, 0u);
  }
}

TEST(ProfilerTest, StartResetsPriorAccumulation) {
  telemetry::profiler::start();
  { telemetry::ProfileScope scope(ProfileKey::kRpcService); }
  telemetry::profiler::start();  // re-arm: prior scope must be discarded
  const telemetry::ProfileReport r = telemetry::profiler::stop();
  EXPECT_EQ(r.entry(ProfileKey::kRpcService).calls, 0u);
}

TEST(ProfilerTest, ProfileKeyNamesAreStable) {
  EXPECT_EQ(telemetry::profile_key_name(ProfileKey::kSchedulerDispatch),
            "scheduler_dispatch");
  EXPECT_EQ(telemetry::profile_key_name(ProfileKey::kKvStore), "kv_store");
}

#endif  // IBC_TELEMETRY_DISABLED

}  // namespace
