#include "adapter.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "check/invariant.hpp"
#include "ibc/msgs.hpp"
#include "telemetry/profiler.hpp"
#include "xcc/analysis.hpp"
#include "xcc/bench_report.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"
#include "xcc/workload.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return mib(static_cast<double>(resident) *
             static_cast<double>(sysconf(_SC_PAGESIZE)));
}

/// Nearest rank over `total` transfers, of which those in `finished` ended;
/// the rest rank above every finished one.
Percentiles percentiles(std::vector<double> finished, std::uint64_t total) {
  std::sort(finished.begin(), finished.end());
  Percentiles p;
  p.samples = finished.size();
  const auto rank = [&](double q) {
    if (total == 0) return 0.0;
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(total)));
    const std::size_t idx = k == 0 ? 0 : k - 1;
    return idx < finished.size() ? finished[idx] : Percentiles::kUnfinished;
  };
  p.p50_s = rank(0.50);
  p.p99_s = rank(0.99);
  return p;
}

// Same sizing as run_experiment (experiment.cpp): the workload's accounts
// plus four spares, and one funded wallet per relayer.
xcc::TestbedConfig testbed_config(const xcc::ExperimentConfig& config) {
  const xcc::WorkloadConfig& wl = config.workload;
  xcc::TestbedConfig tb = config.testbed;
  int needed = 0;
  if (wl.open_loop) {
    needed = static_cast<int>(wl.open_loop_accounts);
  } else if (wl.total_transfers > 0) {
    const auto spread =
        static_cast<std::uint64_t>(std::max(wl.spread_blocks, 1));
    const std::uint64_t per_batch = (wl.total_transfers + spread - 1) / spread;
    needed = static_cast<int>((per_batch + wl.msgs_per_tx - 1) / wl.msgs_per_tx);
  } else {
    needed = static_cast<int>(std::ceil(
        wl.requests_per_second * sim::to_seconds(tb.min_block_interval) /
        static_cast<double>(wl.msgs_per_tx)));
  }
  tb.user_accounts = std::max(tb.user_accounts, needed + 4);
  tb.relayer_wallets =
      std::max(tb.relayer_wallets, std::max(config.relayer_count, 1));
  return tb;
}

/// In-memory span log of the calls a traced run makes; written once at the
/// end of the run.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  /// Virtual timestamps read 0 until the Testbed's scheduler exists.
  void attach(const sim::Scheduler* sched) { sched_ = sched; }

  std::size_t begin(const char* name, std::size_t parent = 0) {
    if (!on_) return 0;
    spans_.push_back({name, parent, now_ns(), 0, vnow(), 0});
    return spans_.size();
  }
  void end(std::size_t id) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.end_ns = now_ns();
    s.vend = vnow();
  }
  std::size_t size() const { return spans_.size(); }

  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::ofstream out(path);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_us\":"
          << (s.start_ns - t0) / 1000
          << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000
          << ",\"vstart_s\":" << sim::to_seconds(s.vstart)
          << ",\"vend_s\":" << sim::to_seconds(s.vend) << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    std::uint64_t start_ns, end_ns;
    sim::TimePoint vstart, vend;
  };
  sim::TimePoint vnow() const { return sched_ ? sched_->now() : 0; }
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  bool on_;
  const sim::Scheduler* sched_ = nullptr;
  std::vector<Span> spans_;
};

/// The benchmark's own block subscriber on both chains: per-packet commit
/// times for the relay legs, per-transfer inclusion latency, and per-block
/// host time. Shared with the engine callbacks, which cannot be removed.
struct Observed {
  // Channel under test (empty until the handshake finished).
  ibc::ChannelId channel_a;
  ibc::ChannelId channel_b;

  // Virtual commit time per packet sequence (index = sequence; < 0 = none).
  std::vector<double> sent, received, acked;
  std::uint64_t sends = 0, recvs = 0, acks = 0, timeouts = 0;
  std::uint64_t recv_msgs = 0;  // MsgRecvPacket in committed dst txs

  // Inclusion latency: mempool admission time by (sender, sequence).
  bool track_inclusion = false;
  std::unordered_map<std::string, sim::TimePoint> admitted;
  std::vector<double> inclusion_s;  // one entry per committed transfer

  // Host time between consecutive source commits, and mempool high-water.
  bool measuring = false;
  Clock::time_point last_commit{};
  std::vector<double> host_ms_per_block;
  std::size_t mempool_peak = 0;

  static void stamp(std::vector<double>& v, ibc::Sequence seq, double t) {
    if (v.size() <= seq) v.resize(seq + 1, -1.0);
    v[seq] = t;
  }
  static std::string tx_key(const chain::Address& sender, std::uint64_t seq) {
    return sender + "#" + std::to_string(seq);
  }
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>
  progress() const {
    return {sends, recvs, acks, timeouts};
  }
  bool all_resolved() const {
    return recvs == acks && sends == recvs + timeouts;
  }
};

void watch_chains(xcc::Testbed& tb, const std::shared_ptr<Observed>& obs) {
  sim::Scheduler* sched = &tb.scheduler();
  chain::Mempool* pool_a = tb.chain_a().mempool.get();
  chain::Mempool* pool_b = tb.chain_b().mempool.get();
  tb.chain_a().engine->subscribe_block(
      [obs, sched, pool_a, pool_b](
          const chain::Block& block,
          const std::vector<chain::DeliverTxResult>& results) {
        Observed& o = *obs;
        const sim::TimePoint now = sched->now();
        const double t = sim::to_seconds(now);
        if (o.measuring) {
          const auto host_now = Clock::now();
          o.host_ms_per_block.push_back(
              std::chrono::duration<double, std::milli>(host_now -
                                                        o.last_commit)
                  .count());
          o.last_commit = host_now;
          o.mempool_peak =
              std::max({o.mempool_peak, pool_a->size(), pool_b->size()});
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (!results[i].status.is_ok()) continue;
          const chain::Tx& tx = block.txs[i];
          if (o.track_inclusion) {
            const auto it = o.admitted.find(Observed::tx_key(tx.sender, tx.sequence));
            if (it != o.admitted.end()) {
              o.inclusion_s.insert(o.inclusion_s.end(), tx.msgs.size(),
                                   sim::to_seconds(now - it->second));
              o.admitted.erase(it);
            }
          }
          if (o.channel_a.empty()) continue;
          for (const chain::Event& ev : results[i].events) {
            const bool send = ev.type == "send_packet";
            const bool ack = !send && ev.type == "acknowledge_packet";
            const bool timeout = !send && !ack && ev.type == "timeout_packet";
            if (!send && !ack && !timeout) continue;
            if (ev.attribute("packet_src_channel") != o.channel_a) continue;
            const ibc::Sequence seq =
                std::stoull(ev.attribute("packet_sequence"));
            if (send) {
              ++o.sends;
              Observed::stamp(o.sent, seq, t);
            } else if (ack) {
              ++o.acks;
              Observed::stamp(o.acked, seq, t);
            } else {
              ++o.timeouts;
            }
          }
        }
      });
  tb.chain_b().engine->subscribe_block(
      [obs, sched](const chain::Block& block,
                   const std::vector<chain::DeliverTxResult>& results) {
        Observed& o = *obs;
        if (o.channel_b.empty()) return;
        const double t = sim::to_seconds(sched->now());
        for (std::size_t i = 0; i < results.size(); ++i) {
          for (const chain::Msg& m : block.txs[i].msgs) {
            if (m.type_url == ibc::kMsgRecvPacketUrl) ++o.recv_msgs;
          }
          if (!results[i].status.is_ok()) continue;
          for (const chain::Event& ev : results[i].events) {
            if (ev.type != "recv_packet" ||
                ev.attribute("packet_dst_channel") != o.channel_b) {
              continue;
            }
            ++o.recvs;
            Observed::stamp(o.received, std::stoull(ev.attribute(
                                            "packet_sequence")),
                            t);
          }
        }
      });
  if (obs->track_inclusion) {
    // Pass-through admission observer: never censors, only timestamps.
    pool_a->set_censor([obs, sched](const chain::Tx& tx) {
      if (obs->measuring) {
        obs->admitted[Observed::tx_key(tx.sender, tx.sequence)] = sched->now();
      }
      return false;
    });
  }
}

/// Times the invariant checker from outside: a subscriber before and one
/// after the checker's own, on every chain. Self time excludes the profiler
/// scopes (store, hashing) the checks enter, which those layers already
/// count, so all reported self times stay disjoint.
struct CheckTimer {
  Clock::time_point start{};
  std::uint64_t nested_ns = 0;
  std::size_t span = 0;
  double self_s = 0.0;

  // Reads the profiler's per-thread slots (header-visible, read only): the
  // profiler's public API reports totals only when it is stopped.
  static std::uint64_t profiled_child_ns() {
    std::uint64_t ns = 0;
    const auto& slots = telemetry::profiler::detail::tls.slots;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (k != static_cast<std::size_t>(telemetry::ProfileKey::kConsensusExec)) {
        ns += slots[k].nanos;
      }
    }
    return ns;
  }
};

std::unique_ptr<check::InvariantChecker> attach_timed_checker(
    xcc::Testbed& tb, const std::shared_ptr<CheckTimer>& timer,
    SpanLog& spans) {
  SpanLog* log = &spans;
  for (int i = 0; i < tb.chain_count(); ++i) {
    // One span per commit of each chain, covering its invariant checks.
    const char* name = i == 0 ? "commit.src.check" : "commit.dst.check";
    tb.chain(i).engine->subscribe_block(
        [timer, log, name](const chain::Block&,
                           const std::vector<chain::DeliverTxResult>&) {
          timer->span = log->begin(name);
          timer->start = Clock::now();
          timer->nested_ns = CheckTimer::profiled_child_ns();
        });
  }
  check::CheckerConfig cc;
  cc.fail_fast = tb.config().invariant_fail_fast;
  std::vector<check::ChainHandles> handles;
  for (int i = 0; i < tb.chain_count(); ++i) {
    handles.push_back({tb.chain(i).id, tb.chain(i).app.get(),
                       tb.chain(i).engine.get()});
  }
  auto checker = std::make_unique<check::InvariantChecker>(std::move(handles), cc);
  for (int i = 0; i < tb.chain_count(); ++i) {
    tb.chain(i).engine->subscribe_block(
        [timer, log](const chain::Block&,
                     const std::vector<chain::DeliverTxResult>&) {
          log->end(timer->span);
          if (!telemetry::profiler::active()) return;
          const double nested =
              static_cast<double>(CheckTimer::profiled_child_ns() -
                                  timer->nested_ns) / 1e9;
          timer->self_s += seconds_since(timer->start) - nested;
        });
  }
  return checker;
}

RunResult::Layer layer(const telemetry::ProfileReport& rep,
                       telemetry::ProfileKey key) {
  return {rep.seconds(key), rep.entry(key).calls};
}

/// Everything from Testbed construction through relayer start.
struct Deployment {
  std::unique_ptr<xcc::Testbed> tb;
  xcc::ChannelSetupResult channel;
  std::vector<std::unique_ptr<relayer::Relayer>> relayers;
  std::string error;
};

/// `before_start` runs between Testbed construction and chain start, where
/// block subscribers must be registered.
template <typename BeforeStart>
Deployment deploy(const xcc::ExperimentConfig& config,
                  xcc::TestbedConfig tb_cfg, RunResult& r, SpanLog& spans,
                  BeforeStart&& before_start) {
  Deployment d;
  const auto t0 = Clock::now();
  std::size_t span = spans.begin("setup.genesis");
  d.tb = std::make_unique<xcc::Testbed>(tb_cfg);
  xcc::Testbed& tb = *d.tb;
  before_start(tb);
  spans.end(span);
  r.genesis_s = seconds_since(t0);

  const auto t1 = Clock::now();
  span = spans.begin("setup.boot");
  tb.start_chains();
  const bool booted = tb.run_until_height(2, config.max_sim_time);
  spans.end(span);
  r.boot_s = seconds_since(t1);
  if (!booted) {
    d.error = "chains failed to start";
    return d;
  }

  const auto t2 = Clock::now();
  span = spans.begin("setup.handshake");
  xcc::HandshakeDriver handshake(tb, /*relayer_wallet=*/0, /*machine=*/0);
  d.channel = handshake.establish_channel_blocking(config.max_sim_time);
  spans.end(span);
  r.handshake_s = seconds_since(t2);
  if (!d.channel.ok) {
    d.error = "channel setup failed: " + d.channel.error;
    return d;
  }

  span = spans.begin("setup.relayers");
  for (int k = 0; k < config.relayer_count; ++k) {
    const auto machine = static_cast<std::size_t>(k % tb_cfg.machines);
    relayer::ChainHandle ha{tb.chain_a().servers[machine].get(),
                            tb.chain_a().id, {tb.relayer_account_a(k)}};
    relayer::ChainHandle hb{tb.chain_b().servers[machine].get(),
                            tb.chain_b().id, {tb.relayer_account_b(k)}};
    relayer::RelayerConfig rc = config.relayer;
    rc.machine = static_cast<net::MachineId>(machine);
    rc.coordination.relayer_index = k;
    rc.coordination.relayer_count = config.relayer_count;
    d.relayers.push_back(std::make_unique<relayer::Relayer>(
        tb.scheduler(), ha, hb, d.channel.path(), rc, nullptr));
    d.relayers.back()->set_telemetry(tb.hub(), "relayer" + std::to_string(k));
    d.relayers.back()->start();
  }
  spans.end(span);
  r.setup_s = seconds_since(t0);
  return d;
}

struct RpcTotals {
  std::uint64_t served = 0, rejected = 0;
};

RpcTotals rpc_totals(xcc::Testbed& tb) {
  RpcTotals t;
  for (int i = 0; i < tb.chain_count(); ++i) {
    for (const auto& s : tb.chain(i).servers) {
      t.served += s->requests_served();
      t.rejected += s->requests_rejected();
    }
  }
  return t;
}

void run_measured(const xcc::ExperimentConfig& config, Deployment& d,
                  Observed& obs, const CheckTimer& check_timer, bool traced,
                  SpanLog& spans, RunResult& r) {
  xcc::Testbed& tb = *d.tb;
  sim::Scheduler& sched = tb.scheduler();
  const sim::TimePoint limit = config.max_sim_time;

  xcc::WorkloadConfig wl_cfg = config.workload;
  if (wl_cfg.total_transfers == 0) wl_cfg.duration_blocks = config.measure_blocks;
  std::unique_ptr<xcc::TransferWorkload> closed;
  std::unique_ptr<xcc::OpenLoopWorkload> open;
  if (wl_cfg.open_loop) {
    open = std::make_unique<xcc::OpenLoopWorkload>(tb, d.channel, wl_cfg);
  } else {
    closed = std::make_unique<xcc::TransferWorkload>(tb, d.channel, wl_cfg,
                                                     nullptr);
  }
  const auto finished = [&] { return open ? open->finished() : closed->finished(); };
  const auto requested = [&] {
    return open ? open->stats().requested : closed->stats().requested;
  };

  const chain::Height start_height = tb.chain_a().ledger->height();
  const sim::TimePoint v0 = sched.now();
  const std::uint64_t events0 = sched.executed_events();
  const std::uint64_t msgs0 = tb.network().messages_sent();
  const std::uint64_t bytes0 = tb.network().bytes_sent();
  const RpcTotals rpc0 = rpc_totals(tb);
  const sim::Duration busy0 = tb.chain_a().servers[0]->busy_time();

  if (traced) telemetry::profiler::start();
  const auto m0 = Clock::now();
  obs.measuring = true;
  obs.last_commit = m0;
  const std::size_t measured = spans.begin("measured");
  if (open) {
    open->start();
  } else {
    closed->start();
  }

  // Window: one run_until_height call per block, which steps the scheduler
  // exactly as a single call to the window end would.
  const chain::Height window_end = start_height + config.measure_blocks;
  for (chain::Height h = start_height + 1; h <= window_end; ++h) {
    const std::size_t s = spans.begin("sim.block", measured);
    const bool reached = tb.run_until_height(h, limit);
    spans.end(s);
    if (!reached) break;
  }
  xcc::Analyzer analyzer(tb, d.channel);
  r.window_breakdown = analyzer.completion_breakdown(requested());
  r.window_seconds = analyzer.window_seconds(
      start_height, std::min(window_end, tb.chain_a().ledger->height()));
  if (r.window_seconds > 0) {
    r.tfps = static_cast<double>(
                 r.relay ? r.window_breakdown.completed
                         : analyzer.included_transfers(start_height, window_end)) /
             r.window_seconds;
  }
  const std::vector<double> intervals =
      analyzer.block_intervals(start_height, window_end);
  if (!intervals.empty()) {
    double sum = 0;
    for (double v : intervals) sum += v;
    r.avg_block_interval = sum / static_cast<double>(intervals.size());
  }

  if (config.wait_for_workload) {
    while (!finished() && sched.now() < limit) {
      const std::size_t s = spans.begin("sim.steps", measured);
      bool stepped = true;
      for (int i = 0; i < 4096 && stepped && !finished() && sched.now() < limit;
           ++i) {
        stepped = sched.step();
      }
      spans.end(s);
      if (!stepped) break;
    }
  }

  // Drain: run_experiment's loop, with progress read from the subscriber's
  // event counts (the Analyzer's state classification, computed from the
  // events that change it) instead of re-classifying every packet per poll.
  if (config.wait_for_drain) {
    sim::TimePoint last_progress = sched.now();
    auto last = obs.progress();
    while (sched.now() < limit) {
      const std::size_t s = spans.begin("sim.drain", measured);
      tb.run_until(sched.now() + sim::seconds(5));
      spans.end(s);
      const auto now = obs.progress();
      if (now != last) {
        last_progress = sched.now();
        last = now;
      }
      if (obs.all_resolved() && finished()) break;
      if (sched.now() - last_progress > config.drain_no_progress_limit) break;
    }
  }
  spans.end(measured);
  obs.measuring = false;
  r.measured_s = seconds_since(m0);
  if (traced) {
    using telemetry::ProfileKey;
    const telemetry::ProfileReport rep = telemetry::profiler::stop();
    r.sim = layer(rep, ProfileKey::kSchedulerDispatch);
    r.rpc = layer(rep, ProfileKey::kRpcService);
    r.pull = layer(rep, ProfileKey::kRelayerPull);
    r.build = layer(rep, ProfileKey::kRelayerBuild);
    r.broadcast = layer(rep, ProfileKey::kRelayerBroadcast);
    r.exec = layer(rep, ProfileKey::kConsensusExec);
    r.hash = layer(rep, ProfileKey::kCryptoHash);
    r.store = layer(rep, ProfileKey::kKvStore);
    // The checker runs inside the commit closure: move its self time out of
    // consensus execution into its own layer.
    r.check_self_s = check_timer.self_s;
    r.exec.self_s -= r.check_self_s;
    r.profiled_wall_s = rep.wall_seconds();
    r.unattributed_s = rep.wall_seconds() - rep.attributed_seconds();
  }
  r.measured_sim_seconds = sim::to_seconds(sched.now() - v0);
  r.events = sched.executed_events() - events0;
  r.net_messages = tb.network().messages_sent() - msgs0;
  const std::uint64_t net_bytes = tb.network().bytes_sent() - bytes0;
  const RpcTotals rpc1 = rpc_totals(tb);
  r.rpc_requests_served = rpc1.served - rpc0.served;
  r.rpc_requests_rejected = rpc1.rejected - rpc0.rejected;
  r.rpc_busy_s = sim::to_seconds(tb.chain_a().servers[0]->busy_time() - busy0);
  if (r.measured_sim_seconds > 0) {
    r.rpc_utilization =
        r.rpc_busy_s / (r.measured_sim_seconds *
                        static_cast<double>(tb.chain_a().servers[0]->query_workers()));
  }

  // --- outcome accounting ---------------------------------------------------
  r.final_breakdown = analyzer.completion_breakdown(requested());
  r.sim_seconds = sim::to_seconds(sched.now());
  r.sends_observed = obs.sends;
  r.attempted = requested();
  if (r.relay) {
    const xcc::CompletionBreakdown& b = r.final_breakdown;
    r.succeeded = b.completed;
    r.rejected = b.uncommitted;
    r.timed_out = b.timed_out;
    r.unresolved = b.partial + b.initiated_only;
    std::vector<double> total, recv, ack;
    for (std::size_t seq = 1; seq < obs.sent.size(); ++seq) {
      const double sent = obs.sent[seq];
      const double got = seq < obs.received.size() ? obs.received[seq] : -1.0;
      const double acked = seq < obs.acked.size() ? obs.acked[seq] : -1.0;
      if (sent < 0) continue;
      if (got >= 0) recv.push_back(got - sent);
      if (acked >= 0) total.push_back(acked - sent);
      if (got >= 0 && acked >= 0) ack.push_back(acked - got);
    }
    r.latency = percentiles(std::move(total), r.attempted);
    r.recv_leg = percentiles(std::move(recv), obs.sends);
    r.ack_leg = percentiles(std::move(ack), obs.recvs);
  } else {
    const xcc::TransferWorkload::Stats& st = open->stats();
    r.succeeded = st.committed;
    r.rejected = st.failed_submission;
    r.unresolved = r.attempted - std::min(r.attempted, r.succeeded + r.rejected);
    r.latency = percentiles(obs.inclusion_s, r.attempted);
  }
  if (r.succeeded > 0) {
    r.net_bytes_per_transfer =
        static_cast<double>(net_bytes) / static_cast<double>(r.succeeded);
  }

  for (int i = 0; i < tb.chain_count(); ++i) {
    r.failed_rounds += tb.chain(i).engine->failed_rounds();
  }
  relayer::QueryCache::Stats cache;
  for (auto& rl : d.relayers) {
    const relayer::Relayer::Stats& st = rl->stats();
    r.chunk_queries += st.chunk_queries;
    r.chunk_queries_skipped += st.chunk_queries_skipped;
    r.coordination_skipped += st.coordination_skipped;
    cache.merge(rl->query_cache().stats());
    r.sequence_mismatch += rl->wallet_a().sequence_mismatch_errors() +
                           rl->wallet_b().sequence_mismatch_errors();
    r.no_confirmation += rl->wallet_a().no_confirmation_errors() +
                         rl->wallet_b().no_confirmation_errors();
  }
  if (closed) {
    r.sequence_mismatch += closed->sequence_mismatch_errors();
    r.no_confirmation += closed->no_confirmation_errors();
  }
  if (cache.hits + cache.misses > 0) {
    r.cache_hit_ratio = static_cast<double>(cache.hits) /
                        static_cast<double>(cache.hits + cache.misses);
  }
  if (obs.recv_msgs > 0) {
    r.redundant_ratio =
        static_cast<double>(tb.chain_b().ibc->redundant_messages()) /
        static_cast<double>(obs.recv_msgs);
  }
  for (auto& rl : d.relayers) rl->stop();

  r.mempool_peak = obs.mempool_peak;
  const Percentiles per_block =
      percentiles(obs.host_ms_per_block, obs.host_ms_per_block.size());
  r.host_ms_per_block_p50 = per_block.p50_s;
  r.host_ms_per_block_p99 = per_block.p99_s;
}

}  // namespace

RunResult run_workload(const xcc::ExperimentConfig& config,
                       const RunOptions& options) {
  RunResult r;
  r.relay = config.relayer_count > 0;
  xcc::TestbedConfig tb_cfg = testbed_config(config);
  const bool timed_checker = options.traced && tb_cfg.invariant_checks;
  if (timed_checker) tb_cfg.invariant_checks = false;

  auto obs = std::make_shared<Observed>();
  obs->track_inclusion = !r.relay;
  auto timer = std::make_shared<CheckTimer>();
  SpanLog spans(options.traced);
  std::unique_ptr<check::InvariantChecker> checker;
  try {
    Deployment d = deploy(config, tb_cfg, r, spans, [&](xcc::Testbed& tb) {
      spans.attach(&tb.scheduler());
      watch_chains(tb, obs);
      if (timed_checker) checker = attach_timed_checker(tb, timer, spans);
    });
    if (!d.error.empty()) {
      r.error = d.error;
      return r;
    }
    obs->channel_a = d.channel.channel_a;
    obs->channel_b = d.channel.channel_b;
    const double rss_after_setup = current_rss_mib();
    run_measured(config, d, *obs, *timer, options.traced, spans, r);
    const check::InvariantChecker* active =
        checker ? checker.get() : d.tb->checker();
    r.blocks_checked = active ? active->blocks_checked() : 0;
    r.peak_rss_mib = mib(static_cast<double>(xcc::peak_rss_bytes()));
    r.rss_growth_mib = r.peak_rss_mib - rss_after_setup;
  } catch (const check::InvariantViolation& v) {
    if (telemetry::profiler::active()) (void)telemetry::profiler::stop();
    r.error = "invariant violation: " + v.violation.to_string();
    return r;
  }
  r.spans = spans.size();
  spans.write(options.spans_path);
  r.ok = true;
  return r;
}

std::vector<double> time_setups(const xcc::ExperimentConfig& config,
                                int count) {
  std::vector<double> out;
  SpanLog spans(false);
  for (int i = 0; i < count; ++i) {
    RunResult r;
    const Deployment d =
        deploy(config, testbed_config(config), r, spans, [](xcc::Testbed&) {});
    if (!d.error.empty()) break;
    out.push_back(r.setup_s);
  }
  return out;
}

}  // namespace perfbench
