#include "xcc/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "ibc/host.hpp"
#include "util/bytes.hpp"
#include "xcc/mesh.hpp"

namespace xcc {

namespace {

/// Accounts the workload will need (rate mode: rate/20; burst: batch/100).
int accounts_needed(const WorkloadConfig& wl, sim::Duration block_interval) {
  if (wl.open_loop) {
    return static_cast<int>(wl.open_loop_accounts);
  }
  if (wl.total_transfers > 0) {
    const std::uint64_t per_batch =
        (wl.total_transfers + static_cast<std::uint64_t>(
                                  std::max(wl.spread_blocks, 1)) - 1) /
        static_cast<std::uint64_t>(std::max(wl.spread_blocks, 1));
    return static_cast<int>((per_batch + wl.msgs_per_tx - 1) / wl.msgs_per_tx);
  }
  const double per_block =
      wl.requests_per_second * sim::to_seconds(block_interval);
  return static_cast<int>(
      std::ceil(per_block / static_cast<double>(wl.msgs_per_tx)));
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const auto host_start = std::chrono::steady_clock::now();
  ExperimentResult result;

  // --- Setup ---------------------------------------------------------------
  const bool sampling_on =
      config.sample_interval > 0 || !config.series_csv_path.empty();
  const bool flight_on = !config.flight_dump_path.empty();
  const bool telemetry_on = config.telemetry || !config.trace_path.empty() ||
                            !config.metrics_csv_path.empty() || sampling_on ||
                            flight_on;
  // Packet lifecycle spans are derived from the step log, so a traced run
  // must collect steps (observer effect documented at trace_path).
  const bool collect_steps = config.collect_steps || !config.trace_path.empty();

  TestbedConfig tb_cfg = config.testbed;
  tb_cfg.telemetry = tb_cfg.telemetry || telemetry_on;
  tb_cfg.user_accounts = std::max(
      tb_cfg.user_accounts,
      accounts_needed(config.workload, tb_cfg.min_block_interval) + 4);
  const int hop_count =
      std::max(static_cast<int>(config.route.size()) - 1, 1);
  tb_cfg.relayer_wallets = std::max(
      tb_cfg.relayer_wallets, std::max(hop_count * config.relayer_count, 1));
  if (config.workload.open_loop && config.route.size() > 2) {
    result.error = "open-loop workloads run on one-hop routes only";
    return result;
  }
  if (!config.route.empty() && config.route.front() != 0) {
    // User accounts are funded on chain 0 unless told otherwise.
    tb_cfg.fund_users_on_all_chains = true;
  }

  Testbed tb(tb_cfg);
  // Arm the flight recorder before anything runs so handshake-era events are
  // journaled too. The metrics() guard folds this away in disabled builds.
  if (flight_on && telemetry::metrics(tb.hub()) != nullptr) {
    tb.hub()->flight().arm(config.flight_capacity);
    tb.hub()->set_flight_dump_path(config.flight_dump_path);
  }
  const sim::TimePoint hard_limit = config.max_sim_time;
  const MeshSetupResult mesh = establish_mesh(tb, hard_limit);
  if (!mesh.ok) {
    result.error = mesh.error;
    return result;
  }
  auto route = route_hops(mesh, tb_cfg.topology, config.route);
  if (!route.is_ok()) {
    result.error = route.status().to_string();
    return result;
  }
  const std::vector<ChannelSetupResult>& hops = route.value();
  const ChannelSetupResult& channel = hops.front();
  ChainDeployment& src = tb.chain(config.route.front());
  ChainDeployment& dst = tb.chain(config.route.back());

  // --- Relayers -------------------------------------------------------------
  relayer::StepLog steps;
  steps.set_tracer(telemetry::tracer(tb.hub()));
  // The first instance on each hop feeds the step log (Fig. 12's per-step
  // series is a single-relayer analysis).
  std::vector<std::unique_ptr<relayer::Relayer>> relayers =
      start_relayer_fleet(tb, hops, config.relayer_count, config.relayer,
                          collect_steps ? &steps : nullptr);

  // --- Observability: sampler probes, watchdogs, sampling tick --------------
  // (see DESIGN.md §4j). Everything below folds away in disabled builds:
  // sampler() is then constexpr nullptr.
  telemetry::Sampler* smp =
      sampling_on ? telemetry::sampler(tb.hub()) : nullptr;
  auto tick = std::make_shared<std::function<void()>>();
  if (smp != nullptr) {
    for (int side = 0; side < 2; ++side) {
      ChainDeployment& cd = side == 0 ? src : dst;
      const std::string tag = side == 0 ? "src" : "dst";
      // Aggregate RPC backlog across the chain's full nodes, plus the
      // per-worker busy split on the machine-0 endpoint (the one the
      // first relayer queries — the paper's bottleneck node).
      smp->add_probe("probe." + tag + ".rpc_queue", [&cd] {
        double depth = 0;
        for (const auto& s : cd.servers) {
          depth += static_cast<double>(s->queue_depth());
        }
        return depth;
      });
      smp->add_probe("probe." + tag + ".mempool", [&cd] {
        return static_cast<double>(cd.mempool->size());
      });
      rpc::Server* s0 = cd.servers[0].get();
      for (std::size_t w = 0; w < s0->query_workers(); ++w) {
        smp->add_probe(
            "probe." + tag + ".m0.w" + std::to_string(w) + ".busy_s",
            [s0, w] { return sim::to_seconds(s0->worker_stats(w).busy_time); });
      }
    }
    // Chain-side backlog: packet commitments not yet acked/timed out on the
    // source end. Independent of any relayer's private table, so it still
    // moves when every relayer ignores the channel (fee-starved fleets).
    {
      const ibc::PortId port = channel.path().port;
      const ibc::ChannelId chan_a = channel.channel_a;
      const cosmos::CosmosApp* app_a = src.app.get();
      smp->add_probe(
          "probe.src.outstanding_commitments", [app_a, port, chan_a] {
            return static_cast<double>(
                app_a->store()
                    .keys_with_prefix(
                        ibc::host::packet_commitment_prefix(port, chan_a))
                    .size());
          });
    }
    if (!relayers.empty()) {
      relayer::Relayer* r0 = relayers.front().get();
      smp->add_probe("probe.relayer0.in_flight", [r0] {
        return static_cast<double>(r0->stage_counts().in_flight());
      });
      smp->add_probe("probe.relayer0.stage.extracted", [r0] {
        return static_cast<double>(r0->stage_counts().extracted);
      });
      smp->add_probe("probe.relayer0.stage.pulled", [r0] {
        return static_cast<double>(r0->stage_counts().pulled);
      });
      smp->add_probe("probe.relayer0.stage.recv_in_flight", [r0] {
        return static_cast<double>(r0->stage_counts().recv_in_flight);
      });
      smp->add_probe("probe.relayer0.stage.recv_done", [r0] {
        return static_cast<double>(r0->stage_counts().recv_done);
      });
      smp->add_probe("probe.relayer0.stage.ack_in_flight", [r0] {
        return static_cast<double>(r0->stage_counts().ack_in_flight);
      });
      smp->add_probe("probe.relayer0.lane0_depth", [r0] {
        return static_cast<double>(r0->lane_depth(0));
      });
      smp->add_probe("probe.relayer0.lane1_depth", [r0] {
        return static_cast<double>(r0->lane_depth(1));
      });
      smp->add_probe("probe.relayer0.oldest_pending_blocks", [r0] {
        return static_cast<double>(r0->oldest_pending_blocks());
      });
      smp->add_probe("probe.relayer0.cache_hit_rate", [r0] {
        const auto& cs = r0->query_cache().stats();
        const double total = static_cast<double>(cs.hits + cs.misses);
        return total > 0 ? static_cast<double>(cs.hits) / total : 0.0;
      });
    }

    // Default watchdog rules — one per anomaly class the paper's failure
    // analysis motivates (see watchdog.hpp). Windows are in samples.
    telemetry::Watchdog* wd = telemetry::watchdog(tb.hub());
    if (!relayers.empty()) {
      // Fig. 8 saturation: the relayer's in-flight table only ever grows.
      wd->watch_monotone_growth("probe.relayer0.in_flight", 8, 8.0);
      // Stalled packet: something has been stuck in flight for 30+ source
      // blocks across consecutive samples.
      wd->watch_threshold("probe.relayer0.oldest_pending_blocks", 30.0, 3);
      // Wedged worker lane: ops queued but no relay batch starting.
      wd->watch_stuck("probe.relayer0.lane0_depth", "relayer0.ops.relay_batch",
                      12);
      // Zero-progress window: chain-side backlog exists but nothing is
      // being relayed (catches fee-starved / routing-skipped fleets whose
      // private tables stay empty).
      wd->watch_stuck("probe.src.outstanding_commitments",
                      "relayer0.packets_relayed", 12);
    }

    const sim::Duration interval = config.sample_interval > 0
                                       ? config.sample_interval
                                       : tb_cfg.min_block_interval;
    sim::Scheduler& sched = tb.scheduler();
    telemetry::Tracer* tr = telemetry::tracer(tb.hub());
    const telemetry::TrackId wd_track =
        tr != nullptr ? tr->track("watchdog", "anomalies") : 0;
    // Self-rescheduling sampling tick. The shared function is nulled at
    // collection time, which both stops the cadence and breaks the
    // self-reference cycle; a straggler scheduled event then sees the null.
    *tick = [smp, wd, tr, wd_track, &sched, tick, interval] {
      smp->sample(sched.now());
      const std::size_t before = wd->warnings().size();
      wd->evaluate(sched.now());
      if (tr != nullptr) {
        for (std::size_t i = before; i < wd->warnings().size(); ++i) {
          const telemetry::WatchdogWarning& w = wd->warnings()[i];
          tr->instant(wd_track, w.rule + ":" + w.column, sched.now());
        }
      }
      sched.schedule_after(interval, [tick] {
        if (*tick) (*tick)();
      });
    };
    (*tick)();  // row 0: state right after setup, before the workload
  }

  // --- Delivery observer ----------------------------------------------------
  // The route's last chain delivers to the final receivers ("recv-<sender>";
  // a forwarding hop delivers to the middleware's agent instead). Delivery
  // times are matched against the step log's broadcast times after the run,
  // so the observer only runs when steps are collected.
  auto deliveries = std::make_shared<std::vector<sim::TimePoint>>();
  if (collect_steps) {
    sim::Scheduler* sched = &tb.scheduler();
    dst.engine->subscribe_block(
        [sched, deliveries](const chain::Block&,
                            const std::vector<chain::DeliverTxResult>& txs) {
          for (const chain::DeliverTxResult& tx : txs) {
            if (!tx.status.is_ok()) continue;
            for (const chain::Event& ev : tx.events) {
              if (ev.type == "fungible_token_packet" &&
                  ev.attribute("success") == "true" &&
                  ev.attribute("receiver").rfind("recv-", 0) == 0) {
                deliveries->push_back(sched->now());
              }
            }
          }
        });
  }

  // --- Benchmark -------------------------------------------------------------
  WorkloadConfig wl_cfg = config.workload;
  if (wl_cfg.total_transfers == 0) {
    // Rate mode submits for exactly the measurement window (the paper's
    // "input rate R for N consecutive blocks").
    wl_cfg.duration_blocks = config.measure_blocks;
  }
  // Open-loop runs use the fire-and-forget harness (no per-account wallet,
  // no step log); everything else uses the paper's closed-loop connector.
  std::unique_ptr<TransferWorkload> closed;
  std::unique_ptr<OpenLoopWorkload> open;
  if (wl_cfg.open_loop) {
    open = std::make_unique<OpenLoopWorkload>(tb, channel, wl_cfg);
  } else {
    std::vector<ibc::ChannelId> onward;
    for (std::size_t h = 1; h < hops.size(); ++h) {
      onward.push_back(hops[h].channel_a);
    }
    closed = std::make_unique<TransferWorkload>(
        tb, channel, wl_cfg, collect_steps ? &steps : nullptr,
        std::move(onward));
  }
  const auto wl_finished = [&]() {
    return open ? open->finished() : closed->finished();
  };
  const auto wl_stats = [&]() -> const TransferWorkload::Stats& {
    return open ? open->stats() : closed->stats();
  };
  const chain::Height start_height = src.ledger->height();
  if (open) {
    open->start();
  } else {
    closed->start();
  }

  const chain::Height window_end = start_height + config.measure_blocks;
  if (!tb.run_until_height(window_end, hard_limit)) {
    // The chain stalled this badly only under extreme overload; report what
    // we have rather than failing (Table I's highest rates look like this).
  }

  Analyzer analyzer(tb, channel);
  result.window_breakdown =
      analyzer.completion_breakdown(wl_stats().requested);
  result.window_seconds = analyzer.window_seconds(
      start_height, std::min(window_end, src.ledger->height()));
  if (result.window_seconds > 0) {
    result.tfps = static_cast<double>(result.window_breakdown.completed) /
                  result.window_seconds;
    result.inclusion_tfps =
        static_cast<double>(analyzer.included_transfers(
            start_height, window_end)) /
        result.window_seconds;
  }
  result.block_intervals = analyzer.block_intervals(start_height, window_end);
  if (!result.block_intervals.empty()) {
    double sum = 0;
    for (double v : result.block_intervals) sum += v;
    result.avg_block_interval =
        sum / static_cast<double>(result.block_intervals.size());
  }
  result.empty_blocks = src.engine->empty_blocks();

  if (config.wait_for_workload) {
    while (!wl_finished() && tb.scheduler().now() < hard_limit) {
      if (!tb.scheduler().step()) break;
    }
  }

  // --- Drain (latency experiments) --------------------------------------------
  if (config.wait_for_drain) {
    sim::TimePoint last_progress = tb.scheduler().now();
    CompletionBreakdown last =
        analyzer.completion_breakdown(wl_stats().requested);
    std::size_t last_steps = steps.records().size();
    while (tb.scheduler().now() < hard_limit) {
      tb.run_until(tb.scheduler().now() + sim::seconds(5));
      CompletionBreakdown now =
          analyzer.completion_breakdown(wl_stats().requested);
      const bool all_resolved = now.partial == 0 && now.initiated_only == 0 &&
                                wl_finished();
      if (now.completed != last.completed || now.partial != last.partial ||
          now.initiated_only != last.initiated_only ||
          now.timed_out != last.timed_out ||
          steps.records().size() != last_steps) {
        last_progress = tb.scheduler().now();
        last = now;
        last_steps = steps.records().size();
      }
      if (all_resolved) break;
      if (tb.scheduler().now() - last_progress >
          config.drain_no_progress_limit) {
        break;  // stuck packets (§V) stay stuck; stop waiting
      }
    }
  }

  result.final_breakdown =
      analyzer.completion_breakdown(wl_stats().requested);

  // --- Collect ------------------------------------------------------------------
  for (auto& r : relayers) {
    result.relayers.push_back(r->stats());
    result.query_cache.merge(r->query_cache().stats());
    result.sequence_mismatch_errors +=
        r->wallet_a().sequence_mismatch_errors() +
        r->wallet_b().sequence_mismatch_errors();
    result.no_confirmation_errors += r->wallet_a().no_confirmation_errors() +
                                     r->wallet_b().no_confirmation_errors();
    result.rpc_unavailable_errors += r->wallet_a().rpc_unavailable_errors() +
                                     r->wallet_b().rpc_unavailable_errors();
    r->stop();
  }
  result.workload = wl_stats();
  if (closed) {
    // Open-loop submission has no wallet layer, so no wallet error counters.
    result.sequence_mismatch_errors += closed->sequence_mismatch_errors();
    result.no_confirmation_errors += closed->no_confirmation_errors();
    result.rpc_unavailable_errors += closed->rpc_unavailable_errors();
  }
  result.steps = std::move(steps);

  const auto broadcasts = result.steps.completion_times_seconds(
      relayer::Step::kTransferBroadcast);
  const double last_ack =
      result.steps.step_finish_seconds(relayer::Step::kAckConfirmation);
  if (!broadcasts.empty() && last_ack > 0) {
    result.completion_latency_seconds = last_ack - broadcasts.front();
  }

  result.rpc_busy_seconds_a = sim::to_seconds(src.servers[0]->busy_time());
  result.rpc_busy_seconds_b = sim::to_seconds(dst.servers[0]->busy_time());

  // Deliveries pair FIFO with the broadcast times: transfers are
  // homogeneous, so the latency distribution is exact even where
  // submission order and delivery order differ across accounts.
  std::vector<sim::TimePoint> broadcast_times;
  for (const relayer::StepRecord& rec : result.steps.records()) {
    if (rec.step == relayer::Step::kTransferBroadcast) {
      broadcast_times.push_back(rec.time);
    }
  }
  std::sort(broadcast_times.begin(), broadcast_times.end());
  const std::size_t matched =
      std::min(deliveries->size(), broadcast_times.size());
  for (std::size_t i = 0; i < matched; ++i) {
    result.delivery_latencies_seconds.push_back(
        sim::to_seconds((*deliveries)[i] - broadcast_times[i]));
  }
  if (matched > 0 && (*deliveries)[matched - 1] > broadcast_times.front()) {
    result.delivery_tfps =
        static_cast<double>(matched) /
        sim::to_seconds((*deliveries)[matched - 1] - broadcast_times.front());
  }
  for (int i = 0; i < tb.chain_count(); ++i) {
    if (const ibc::ForwardMiddleware* fwd = tb.chain(i).forward.get()) {
      result.packets_forwarded += fwd->packets_forwarded();
      result.forwards_completed += fwd->forwards_completed();
      result.forwards_unwound += fwd->forwards_unwound();
    }
    const chain::Height h = tb.chain(i).ledger->height();
    const crypto::Digest* d = tb.chain(i).ledger->app_hash_after(h);
    result.app_hashes.push_back(
        d != nullptr ? util::to_hex(crypto::digest_to_bytes(*d)) : "");
  }
  if (tb.checker() != nullptr) {
    tb.checker()->cross_check();
    result.invariant_violations = tb.checker()->violations().size();
  }

  // The step log moved into the result outlives the testbed (and its
  // tracer); sever the mirror hook before that can dangle.
  result.steps.set_tracer(nullptr);

  // --- Telemetry export ---------------------------------------------------------
  if (smp != nullptr) {
    *tick = nullptr;  // stop the cadence and break the closure cycle
    smp->sample(tb.scheduler().now());  // final row: end-of-run state
    if (auto* wd = telemetry::watchdog(tb.hub())) {
      wd->evaluate(tb.scheduler().now());
      result.warnings = wd->warnings();
    }
    result.series = smp->snapshot();
    if (!config.series_csv_path.empty()) {
      const util::Status st = smp->write_csv(config.series_csv_path);
      if (!st.is_ok()) {
        if (!result.telemetry_error.empty()) result.telemetry_error += "; ";
        result.telemetry_error += st.to_string();
      }
    }
  }
  if (telemetry::metrics(tb.hub()) != nullptr) {
    result.flight_dump_triggers = tb.hub()->dump_triggers();
  }
  if (telemetry_on) {
    result.metrics = tb.hub()->registry().snapshot();
  }
  if (!config.trace_path.empty()) {
    const util::Status st =
        tb.hub()->trace_sink().write_json(config.trace_path);
    if (!st.is_ok()) result.telemetry_error = st.to_string();
  }
  if (!config.metrics_csv_path.empty()) {
    const util::Status st =
        tb.hub()->registry().write_csv(config.metrics_csv_path);
    if (!st.is_ok()) {
      if (!result.telemetry_error.empty()) result.telemetry_error += "; ";
      result.telemetry_error += st.to_string();
    }
  }

  result.sim_seconds = sim::to_seconds(tb.scheduler().now());
  result.events_executed = tb.scheduler().executed_events();
  result.host_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - host_start)
                            .count();

  result.ok = true;
  return result;
}

}  // namespace xcc
