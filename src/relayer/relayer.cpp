#include "relayer/relayer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "ibc/forward.hpp"
#include "ibc/host.hpp"
#include "telemetry/profiler.hpp"
#include "util/log.hpp"

namespace relayer {

Relayer::Relayer(sim::Scheduler& sched, ChainHandle a, ChainHandle b,
                 PathConfig path, RelayerConfig config, StepLog* step_log)
    : sched_(sched),
      a_(std::move(a)),
      b_(std::move(b)),
      path_(std::move(path)),
      config_(std::move(config)),
      step_log_(step_log),
      cache_(sched, config_.query_cache),
      coordination_(config_.coordination) {
  set_telemetry(nullptr, "");
  fee_ok_ = config_.per_hop_fee_budget <= 0 ||
            static_cast<double>(estimate_gas(1, 1, gas_.recv_packet)) *
                    config_.gas_price <=
                config_.per_hop_fee_budget;
  WalletConfig wa = config_.wallet;
  wa.accounts = a_.wallet_accounts;
  wa.gas_price = config_.gas_price;
  wa.optimistic_sequencing = true;
  wallet_a_ = std::make_unique<Wallet>(sched_, *a_.server, config_.machine, wa);

  WalletConfig wb = config_.wallet;
  wb.accounts = b_.wallet_accounts;
  wb.gas_price = config_.gas_price;
  wb.optimistic_sequencing = true;
  wallet_b_ = std::make_unique<Wallet>(sched_, *b_.server, config_.machine, wb);
}

Relayer::~Relayer() {
  stop();
}

void Relayer::start() {
  assert(!running_);
  running_ = true;
  // A fresh process has a fresh event source: a wedge inherited from a
  // previous life would be a bug, not §V behaviour.
  ws_wedged_a_ = false;
  ws_wedged_b_ = false;
  // Likewise a fresh op queue: a stop() mid-op dropped that op's done()
  // continuation, so op_running_ would stay true forever and the lane would
  // never pump again (the startup rescan below would sit queued behind it).
  ++lane_epoch_;
  for (int lane = 0; lane < 2; ++lane) {
    ops_[lane].clear();
    op_running_[lane] = false;
  }
  // Nothing is genuinely in flight after a restart: every op and wallet
  // callback of the previous life dropped its continuation. Surviving table
  // entries parked in transient stages would otherwise be skipped by both
  // the clear pass and the ack scan and strand forever.
  for (auto& [seq, ps] : packets_) {
    (void)seq;
    switch (ps.stage) {
      case Stage::kRecvInFlight:
        // Recv outcome unknown; re-relaying is safe (redundant at worst).
        ps.stage = Stage::kPulled;
        break;
      case Stage::kAckInFlight:
        ps.stage = Stage::kRecvDone;
        ps.ack_tx_failed = true;  // clear redrives; no-op if ack committed
        break;
      case Stage::kRecvDone:
        if (ps.packet && ps.ack) ps.ack_tx_failed = true;
        break;
      default:
        break;
    }
  }
  sub_a_ = a_.server->subscribe_new_block(
      config_.machine, [this](const rpc::NewBlockFrame& f) {
        if (running_) on_frame_a(f);
      });
  sub_b_ = b_.server->subscribe_new_block(
      config_.machine, [this](const rpc::NewBlockFrame& f) {
        if (running_) on_frame_b(f);
      });
  if (!config_.startup_rescan) return;
  // Crash recovery: the packet table is in-memory only, so everything
  // in flight when the previous instance died is gone. Rebuild it from
  // queryable chain state — outstanding commitments on the source (a clear
  // pass over a bounded window) and recent write_acknowledgement events on
  // the destination (packets delivered but never acknowledged).
  a_.server->status(config_.machine, [this](rpc::Server::StatusInfo info) {
    if (!running_ || info.height == 0) return;
    const chain::Height from =
        info.height > config_.startup_rescan_depth
            ? info.height - config_.startup_rescan_depth + 1
            : 1;
    Op op;
    op.kind = Op::Kind::kClear;
    op.clear = ClearOp{from, info.height};
    last_clear_height_ = info.height;
    enqueue(std::move(op));
  });
  b_.server->status(config_.machine, [this](rpc::Server::StatusInfo info) {
    if (!running_ || info.height == 0) return;
    last_seen_b_height_ = std::max(last_seen_b_height_, info.height);
    const chain::Height from =
        info.height > config_.startup_rescan_depth
            ? info.height - config_.startup_rescan_depth + 1
            : 1;
    Op op;
    op.kind = Op::Kind::kAckScan;
    op.ack_scan = ClearOp{from, info.height};
    enqueue(std::move(op));
  });
}

void Relayer::stop() {
  if (!running_) return;
  running_ = false;
  a_.server->unsubscribe(sub_a_);
  b_.server->unsubscribe(sub_b_);
}

namespace {
// Indexed by Op::Kind; span + counter names for the worker-lane telemetry.
constexpr const char* kOpNames[7] = {"relay_batch",   "ack_batch",
                                     "timeout_batch", "clear",
                                     "retry_recv",    "retry_ack",
                                     "ack_scan"};
}  // namespace

void Relayer::set_telemetry(telemetry::Hub* hub, const std::string& name) {
  hub_ = hub;
  if (auto* t = telemetry::tracer(hub_)) {
    lane_track_[0] = t->track(name, "recv");
    lane_track_[1] = t->track(name, "ack/timeout");
  }
  if (auto* r = telemetry::counter_store(hub_, own_counters_)) {
    for (int i = 0; i < 7; ++i) {
      op_ctr_[i] = r->counter(name + ".ops." + kOpNames[i]);
    }
    chunk_queries_ctr_ = r->counter(name + ".pull.chunk_queries");
    chunks_skipped_ctr_ = r->counter(name + ".pull.chunks_skipped");
    pull_failures_ctr_ = r->counter(name + ".pull.query_failures");
    ack_decode_failures_ctr_ = r->counter(name + ".pull.ack_decode_failures");
    abandoned_ctr_ = r->counter(name + ".abandoned_packets");
    relayed_ctr_ = r->counter(name + ".packets_relayed");
    completed_ctr_ = r->counter(name + ".packets_completed");
    timed_out_ctr_ = r->counter(name + ".packets_timed_out");
    redundant_ctr_ = r->counter(name + ".redundant_errors");
    frames_failed_ctr_ = r->counter(name + ".frames_failed");
    recv_failed_ctr_ = r->counter(name + ".recv_txs_failed");
    ack_failed_ctr_ = r->counter(name + ".ack_txs_failed");
    routing_skipped_ctr_ = r->counter(name + ".routing_skipped");
    coordination_skipped_ctr_ = r->counter(name + ".coordination_skipped");
  }
  if (auto* m = telemetry::metrics(hub_)) {
    const std::vector<double> bounds = {1, 2, 5, 10, 20, 50, 100, 200};
    relay_batch_hist_ = m->histogram(name + ".relay_batch_size", bounds);
    ack_batch_hist_ = m->histogram(name + ".ack_batch_size", bounds);
  }
  flight_name_ = name;
  cache_.set_telemetry(hub, name);
}

Relayer::Stats Relayer::stats() const {
  // In Stats field order.
  return {relayed_ctr_->value(),       completed_ctr_->value(),
          timed_out_ctr_->value(),     redundant_ctr_->value(),
          frames_failed_ctr_->value(), recv_failed_ctr_->value(),
          ack_failed_ctr_->value(),    chunk_queries_ctr_->value(),
          chunks_skipped_ctr_->value(), pull_failures_ctr_->value(),
          ack_decode_failures_ctr_->value(), abandoned_ctr_->value(),
          coordination_skipped_ctr_->value(), routing_skipped_ctr_->value()};
}

bool Relayer::adopts(ibc::Sequence seq, chain::Height height) {
  if (!fee_ok_) {
    // Routing policy: this instance does not serve the channel (or the
    // hop's fee exceeds its budget) — another placement covers it.
    routing_skipped_ctr_->add();
    return false;
  }
  if (!coordination_.owns(seq, height)) {
    // A coordinated peer owns this packet; never enter it in the table so
    // no lane (pull, recv, ack, timeout, retry) ever touches it.
    coordination_skipped_ctr_->add();
    return false;
  }
  return true;
}

Relayer::StageCounts Relayer::stage_counts() const {
  StageCounts c;
  for (const auto& [seq, ps] : packets_) {
    switch (ps.stage) {
      case Stage::kExtracted: ++c.extracted; break;
      case Stage::kPulled: ++c.pulled; break;
      case Stage::kRecvInFlight: ++c.recv_in_flight; break;
      case Stage::kRecvDone: ++c.recv_done; break;
      case Stage::kAckInFlight: ++c.ack_in_flight; break;
      case Stage::kDone: ++c.done; break;
      case Stage::kTimedOut: ++c.timed_out; break;
      case Stage::kAbandoned: ++c.abandoned; break;
    }
  }
  return c;
}

std::size_t Relayer::lane_depth(int lane) const {
  return ops_[lane].size() + (op_running_[lane] ? 1 : 0);
}

chain::Height Relayer::oldest_pending_blocks() const {
  chain::Height oldest = 0;
  for (const auto& [seq, ps] : packets_) {
    if (ps.stage == Stage::kDone || ps.stage == Stage::kTimedOut ||
        ps.stage == Stage::kAbandoned) {
      continue;
    }
    if (ps.src_height > 0 && last_seen_a_height_ >= ps.src_height) {
      oldest = std::max(oldest, last_seen_a_height_ - ps.src_height);
    }
  }
  return oldest;
}

void Relayer::record(Step step, ibc::Sequence seq) {
  if (step_log_)
    step_log_->record(step, seq, sched_.now(), config_.telemetry_hop);
  if (auto* f = telemetry::flight(hub_)) {
    // Every per-packet lifecycle transition funnels through here, so this
    // one site journals the relayer's recent history for the flight dump.
    f->record(sched_.now(), "relayer",
              flight_name_ + " " + std::string(step_name(step)) +
                  " seq=" + std::to_string(seq));
  }
}

void Relayer::release_later(std::shared_ptr<std::function<void()>> fn) {
  sched_.schedule_after(0, [fn] { *fn = nullptr; });
}

// --- Supervisor: frame handling ---------------------------------------------

void Relayer::on_frame_a(const rpc::NewBlockFrame& frame) {
  // Chain A advanced: cached latest-height store responses (commitment
  // proofs) against its full node are stale. No-op when caching is off.
  cache_.on_height_advance(*a_.server, frame.height);
  last_seen_a_height_ = std::max(last_seen_a_height_, frame.height);
  if (!frame.events_ok) {
    // Paper §V: "Failed to collect events" — the event payload exceeded the
    // WebSocket frame limit. The packets in this block are invisible to the
    // relayer until (if ever) a clear pass rediscovers them; with the
    // sticky-failure behaviour the event source stays broken afterwards.
    frames_failed_ctr_->add();
    if (config_.websocket_failure_sticky) ws_wedged_a_ = true;
    IBC_LOG(kWarn, "relayer") << "failed to collect events at height "
                              << frame.height;
  }

  std::vector<ibc::Sequence> new_seqs;
  if (ws_wedged_a_) {
    // Event extraction disabled; block-height bookkeeping (below) still
    // runs, so clearing can rediscover the packets.
    check_timeouts();
    if (config_.clear_interval > 0 &&
        frame.height - last_clear_height_ >= config_.clear_interval) {
      Op op;
      op.kind = Op::Kind::kClear;
      op.clear = ClearOp{1, frame.height};
      last_clear_height_ = frame.height;
      enqueue(std::move(op));
    }
    return;
  }
  for (const chain::Event& ev : frame.events) {
    if (ev.type == "send_packet") {
      if (ev.attribute("packet_src_channel") != path_.channel_a) continue;
      const std::uint64_t seq =
          std::strtoull(ev.attribute("packet_sequence").c_str(), nullptr, 10);
      if (seq == 0 || packets_.contains(seq)) continue;
      if (!adopts(seq, frame.height)) continue;
      PacketState st;
      st.stage = Stage::kExtracted;
      st.src_height = frame.height;
      packets_.emplace(seq, std::move(st));
      record(Step::kTransferExtraction, seq);
      new_seqs.push_back(seq);
    } else if (ev.type == "acknowledge_packet") {
      if (ev.attribute("packet_src_channel") != path_.channel_a) continue;
      const std::uint64_t seq =
          std::strtoull(ev.attribute("packet_sequence").c_str(), nullptr, 10);
      record(Step::kAckExtraction, seq);
    }
  }

  if (!new_seqs.empty()) {
    // Confirm the transfers committed (one status round trip covers the
    // batch — near-instant in Fig. 12).
    const chain::Height h = frame.height;
    auto seqs = std::make_shared<std::vector<ibc::Sequence>>(new_seqs);
    a_.server->status(config_.machine,
                      [this, seqs, h](rpc::Server::StatusInfo) {
                        if (!running_) return;
                        for (ibc::Sequence s : *seqs) {
                          record(Step::kTransferConfirmation, s);
                        }
                        Op op;
                        op.kind = Op::Kind::kRelay;
                        op.relay = RelayBatchOp{h, *seqs};
                        enqueue(std::move(op));
                      });
  }

  check_timeouts();

  if (config_.clear_interval > 0 &&
      frame.height - last_clear_height_ >= config_.clear_interval) {
    Op op;
    op.kind = Op::Kind::kClear;
    op.clear = ClearOp{1, frame.height};
    last_clear_height_ = frame.height;
    enqueue(std::move(op));
  }
}

void Relayer::on_frame_b(const rpc::NewBlockFrame& frame) {
  cache_.on_height_advance(*b_.server, frame.height);
  last_seen_b_height_ = std::max(last_seen_b_height_, frame.height);
  if (!frame.events_ok) {
    frames_failed_ctr_->add();
    if (config_.websocket_failure_sticky) ws_wedged_b_ = true;
  }
  if (ws_wedged_b_) return;  // ack extraction disabled; commit-callback path
                             // still drives acks for our own recv txs

  std::vector<ibc::Sequence> ack_seqs;
  for (const chain::Event& ev : frame.events) {
    if (ev.type != "write_acknowledgement") continue;
    if (ev.attribute("packet_src_channel") != path_.channel_a) continue;
    const std::uint64_t seq =
        std::strtoull(ev.attribute("packet_sequence").c_str(), nullptr, 10);
    const auto it = packets_.find(seq);
    if (it == packets_.end()) continue;  // not a packet we are tracking
    PacketState& st = it->second;
    if (st.stage == Stage::kAckInFlight || st.stage == Stage::kDone ||
        st.stage == Stage::kTimedOut || st.stage == Stage::kAbandoned) {
      continue;
    }
    record(Step::kRecvExtraction, seq);
    st.stage = Stage::kRecvDone;
    st.dst_height = frame.height;
    ack_seqs.push_back(seq);
  }

  if (!ack_seqs.empty()) {
    Op op;
    op.kind = Op::Kind::kAck;
    op.ack = AckBatchOp{frame.height, std::move(ack_seqs)};
    enqueue(std::move(op));
  }
}

void Relayer::check_timeouts() {
  if (last_seen_b_height_ == 0) return;
  std::vector<ibc::Sequence> expired;
  for (auto& [seq, st] : packets_) {
    if (st.stage != Stage::kPulled) continue;
    if (!st.packet || st.packet->timeout_height == 0) continue;
    if (last_seen_b_height_ >= st.packet->timeout_height &&
        !timeout_candidates_.contains(seq)) {
      timeout_candidates_.insert(seq);
      expired.push_back(seq);
    }
  }
  if (!expired.empty()) {
    Op op;
    op.kind = Op::Kind::kTimeout;
    op.timeout = TimeoutBatchOp{std::move(expired)};
    enqueue(std::move(op));
  }
}

// --- Worker loop ----------------------------------------------------------------

void Relayer::enqueue(Op op) {
  const int lane = (op.kind == Op::Kind::kRelay ||
                    op.kind == Op::Kind::kClear ||
                    op.kind == Op::Kind::kRetryRecv)
                       ? 0
                       : 1;
  ops_[lane].push_back(std::move(op));
  pump(lane);
}

void Relayer::enqueue_retry(Op op) {
  if (config_.retry_backoff <= 0) {
    // Hermes-faithful: the rebuilt batch re-enters its lane immediately.
    enqueue(std::move(op));
    return;
  }
  sched_.schedule_after(config_.retry_backoff,
                        [this, op = std::move(op)]() mutable {
                          if (running_) enqueue(std::move(op));
                        });
}

void Relayer::abandon_packet(ibc::Sequence seq, PacketState& ps,
                             const char* why) {
  ps.stage = Stage::kAbandoned;
  abandoned_ctr_->add();
  timeout_candidates_.erase(seq);
  IBC_LOG(kWarn, "relayer")
      << "abandoning packet " << seq << " after bounded retries (" << why
      << ")";
  if (auto* f = telemetry::flight(hub_)) {
    f->record(sched_.now(), "relayer",
              flight_name_ + " abandon seq=" + std::to_string(seq) + " (" +
                  why + ")");
  }
  // An abandoned packet is a terminal failure: emit the post-mortem dump
  // (first trigger wins; disabled builds fold this away entirely).
  if (telemetry::metrics(hub_) != nullptr) {
    hub_->trigger_flight_dump("abandoned-packet", sched_.now());
  }
}

void Relayer::pump(int lane) {
  if (op_running_[lane] || ops_[lane].empty() || !running_) return;
  op_running_[lane] = true;
  Op op = std::move(ops_[lane].front());
  ops_[lane].pop_front();
  const int kind_idx = static_cast<int>(op.kind);
  op_ctr_[kind_idx]->add();
  std::function<void()> done = [this, lane, epoch = lane_epoch_]() {
    // A done() surviving from before a restart must not unlock the lane the
    // new life is using.
    if (epoch != lane_epoch_) return;
    op_running_[lane] = false;
    // Defer through the scheduler so deep op chains do not recurse.
    sched_.schedule_after(0, [this, lane] { pump(lane); });
  };
  if (telemetry::tracer(hub_)) {
    // Span covers the whole op, queries and submission included — emitted at
    // completion (trace viewers sort by ts, so out-of-order append is fine).
    done = [this, lane, kind_idx, start = sched_.now(),
            inner = std::move(done)]() {
      if (auto* t = telemetry::tracer(hub_)) {
        t->complete(lane_track_[lane], kOpNames[kind_idx], start,
                    sched_.now() - start);
      }
      inner();
    };
  }
  switch (op.kind) {
    case Op::Kind::kRelay:
      run_relay_batch(std::move(op.relay), std::move(done));
      break;
    case Op::Kind::kAck:
      run_ack_batch(std::move(op.ack), std::move(done));
      break;
    case Op::Kind::kTimeout:
      run_timeout_batch(std::move(op.timeout), std::move(done));
      break;
    case Op::Kind::kClear:
      run_clear(std::move(op.clear), std::move(done));
      break;
    case Op::Kind::kRetryRecv:
      build_and_send_recv(std::move(op.retry.seqs), std::move(done));
      break;
    case Op::Kind::kRetryAck:
      build_and_send_ack(std::move(op.retry.seqs), std::move(done));
      break;
    case Op::Kind::kAckScan:
      run_ack_scan(std::move(op.ack_scan), std::move(done));
      break;
  }
}

// --- Data pulls -------------------------------------------------------------------

bool Relayer::chunk_satisfied(const std::string& event_type,
                              const std::vector<ibc::Sequence>& seqs,
                              std::size_t begin, std::size_t end) const {
  for (std::size_t i = begin; i < end; ++i) {
    const auto it = packets_.find(seqs[i]);
    if (it == packets_.end()) continue;  // untracked: a pull can't use it
    const PacketState& st = it->second;
    if (event_type == "send_packet") {
      if (st.stage == Stage::kExtracted) return false;
    } else {  // write_acknowledgement
      if (st.stage == Stage::kRecvDone && !st.ack.has_value()) return false;
    }
  }
  return true;
}

void Relayer::pull_chunks(rpc::Server* server, chain::Height height,
                          const std::string& event_type,
                          std::vector<ibc::Sequence> seqs,
                          std::size_t chunk_index, bool any_failed,
                          std::function<void(PullResult)> done) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerPull);
  const std::size_t chunk = config_.event_query_chunk;
  std::size_t begin = chunk_index * chunk;
  if (config_.skip_satisfied_chunks) {
    // Chunk queries return whole transactions, so one response often covers
    // sequences of later chunks; Hermes still issues those queries (the
    // redundancy the paper's Fig. 12 pull times include) — skipping them is
    // an opt-in mitigation.
    while (begin < seqs.size() &&
           chunk_satisfied(event_type, seqs, begin,
                           std::min(begin + chunk, seqs.size()))) {
      chunks_skipped_ctr_->add();
      ++chunk_index;
      begin = chunk_index * chunk;
    }
  }
  if (begin >= seqs.size()) {
    done(seqs.empty()     ? PullResult::kNothingToPull
         : any_failed     ? PullResult::kPartialFailure
                          : PullResult::kComplete);
    return;
  }
  const std::size_t end = std::min(begin + chunk, seqs.size());
  const ibc::Sequence lo = seqs[begin];
  const ibc::Sequence hi = seqs[end - 1];
  const Step pull_step = event_type == "send_packet"
                             ? Step::kTransferDataPull
                             : Step::kRecvDataPull;

  chunk_queries_ctr_->add();
  cache_.query_packet_events(
      *server, config_.machine, height, event_type, lo, hi,
      [this, server, height, event_type, seqs = std::move(seqs), chunk_index,
       any_failed, done = std::move(done), pull_step, lo, hi](
          util::Result<rpc::TxSearchPage> res) mutable {
        if (!running_) return;
        // Host-side pull cost: scanning returned pages for packet events.
        telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerPull);
        bool failed = any_failed;
        if (res.is_ok()) {
          for (const rpc::TxResponse& tx : res.value().txs) {
            for (const chain::Event& ev : tx.result.events) {
              if (ev.type != event_type) continue;
              auto pkt = ibc::packet_from_event(ev);
              if (!pkt || pkt->source_channel != path_.channel_a) continue;
              const auto it = packets_.find(pkt->sequence);
              if (it == packets_.end()) continue;
              PacketState& st = it->second;
              // A chunk query returns whole transactions, so events for
              // sequences outside the chunk ride along; process (and log)
              // each packet's pull exactly once.
              if (event_type == "send_packet") {
                if (st.stage == Stage::kExtracted) {
                  record(pull_step, pkt->sequence);
                  st.packet = std::move(*pkt);
                  st.stage = Stage::kPulled;
                }
              } else {  // write_acknowledgement
                if (st.ack.has_value()) continue;
                if (!st.packet) st.packet = std::move(*pkt);
                ibc::Acknowledgement ack;
                if (ibc::Acknowledgement::decode(
                        util::to_bytes(ev.attribute("packet_ack")), ack)) {
                  record(pull_step, pkt->sequence);
                  st.ack = std::move(ack);
                  st.ack_decode_failed = false;
                } else {
                  // Malformed packet_ack payload: without the decoded ack
                  // this packet cannot be acknowledged. Count it, drop any
                  // cached copy of the bad page, and let the ack batch's
                  // completion handler schedule a bounded re-pull.
                  ack_decode_failures_ctr_->add();
                  st.ack_decode_failed = true;
                  cache_.invalidate_page(*server, height, event_type, lo, hi);
                  IBC_LOG(kWarn, "relayer")
                      << "undecodable packet_ack for sequence "
                      << pkt->sequence << " at height " << height;
                }
              }
            }
          }
        } else {
          // A failed chunk query used to vanish silently, leaving its
          // packets stuck with no trace; count and log it, and report the
          // pull as partial so callers can tell.
          failed = true;
          pull_failures_ctr_->add();
          IBC_LOG(kWarn, "relayer")
              << event_type << " pull chunk [" << lo << ", " << hi
              << "] at height " << height
              << " failed: " << res.status().to_string();
        }
        pull_chunks(server, height, event_type, std::move(seqs),
                    chunk_index + 1, failed, std::move(done));
      });
}

// --- Gas ------------------------------------------------------------------------

std::uint64_t Relayer::estimate_gas(std::size_t updates,
                                    std::size_t packet_msgs,
                                    std::uint64_t per_packet_gas,
                                    std::uint64_t extra_gas) const {
  const double raw =
      69'000.0 + static_cast<double>(updates) * static_cast<double>(gas_.update_client) +
      static_cast<double>(packet_msgs) * static_cast<double>(per_packet_gas) +
      static_cast<double>(extra_gas);
  return static_cast<std::uint64_t>(std::ceil(raw * config_.gas_headroom));
}

// --- Client updates ----------------------------------------------------------------

void Relayer::fetch_update(rpc::Server* server, const ibc::ClientId& client_id,
                           chain::Height height,
                           std::function<void(std::optional<chain::Msg>)> cb) {
  // Headers are immutable once committed — ideal cache fodder: every tx in a
  // batch containing the same proof height re-fetches the same header.
  cache_.query_header(
      *server, config_.machine, height,
      [client_id, cb = std::move(cb)](
          util::Result<rpc::Server::HeaderInfo> res) {
        if (!res.is_ok()) {
          cb(std::nullopt);
          return;
        }
        telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerPull);
        const rpc::Server::HeaderInfo& info = res.value();
        ibc::Header header;
        header.chain_id = info.header.chain_id;
        header.height = info.header.height;
        header.time = info.header.time;
        header.app_hash_after = info.app_hash_after;
        header.validators_hash = info.header.validators_hash;
        header.block_id = chain::BlockId{info.header.hash()};
        header.commit = info.commit;
        ibc::MsgUpdateClient update;
        update.client_id = client_id;
        update.header = std::move(header);
        cb(update.to_msg());
      });
}

// --- Relay batches -----------------------------------------------------------------

void Relayer::run_relay_batch(RelayBatchOp op, std::function<void()> done) {
  std::vector<ibc::Sequence> seqs;
  for (ibc::Sequence s : op.seqs) {
    const auto it = packets_.find(s);
    if (it != packets_.end() && it->second.stage == Stage::kExtracted) {
      seqs.push_back(s);
    }
  }
  if (seqs.empty()) {
    done();
    return;
  }
  if (relay_batch_hist_) {
    relay_batch_hist_->observe(static_cast<double>(seqs.size()));
  }
  auto after_pull = [this, seqs, done = std::move(done)](PullResult pr) mutable {
    std::vector<ibc::Sequence> pulled;
    for (ibc::Sequence s : seqs) {
      const auto it = packets_.find(s);
      if (it != packets_.end() && it->second.stage == Stage::kPulled) {
        pulled.push_back(s);
      }
    }
    if (pr == PullResult::kPartialFailure) {
      // Per-chunk errors were already counted/logged; packets left in
      // kExtracted are rediscovered by the next clear pass.
      IBC_LOG(kWarn, "relayer")
          << "relay batch pull incomplete: " << pulled.size() << "/"
          << seqs.size() << " packets pulled";
    }
    if (pulled.empty()) {
      done();
      return;
    }
    build_and_send_recv(std::move(pulled), std::move(done));
  };
  pull_chunks(a_.server, op.src_height, "send_packet", std::move(seqs), 0,
              /*any_failed=*/false, std::move(after_pull));
}

void Relayer::build_and_send_recv(std::vector<ibc::Sequence> seqs,
                                  std::function<void()> done) {
  // Stage 1: per-packet commitment proof queries (sequential — the RPC node
  // serves one request at a time anyway) + per-message CPU.
  struct BuildState {
    std::vector<ibc::Sequence> seqs;
    std::size_t next = 0;
    std::vector<ibc::MsgRecvPacket> msgs;
    std::function<void()> done;
  };
  auto st = std::make_shared<BuildState>();
  st->seqs = std::move(seqs);
  st->done = std::move(done);

  // The closure holds itself only weakly: queued callbacks carry the strong
  // references, so when the simulation tears down mid-chain the cycle
  // collapses instead of leaking (a strong self-capture is unreclaimable).
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, st, wstep = std::weak_ptr<std::function<void()>>(step)]() {
    auto step = wstep.lock();
    if (!step || !running_) return;
    telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBuild);
    if (st->next >= st->seqs.size()) {
      release_later(step);
      // Stage 2: group into transactions and submit.
      if (st->msgs.empty()) {
        st->done();
        return;
      }
      struct SendState {
        std::vector<ibc::MsgRecvPacket> msgs;
        std::size_t next_tx_begin = 0;
        std::function<void()> done;
      };
      auto send = std::make_shared<SendState>();
      send->msgs = std::move(st->msgs);
      send->done = std::move(st->done);

      auto send_step = std::make_shared<std::function<void()>>();
      *send_step = [this, send,
                    wsend = std::weak_ptr<std::function<void()>>(send_step)]() {
        auto send_step = wsend.lock();
        if (!send_step) return;
        if (!running_ || send->next_tx_begin >= send->msgs.size()) {
          if (send->next_tx_begin >= send->msgs.size()) {
            release_later(send_step);
            send->done();
          }
          return;
        }
        telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBroadcast);
        const std::size_t begin = send->next_tx_begin;
        const std::size_t end = std::min(
            begin + config_.max_msgs_per_tx, send->msgs.size());
        send->next_tx_begin = end;

        // Distinct proof heights in this tx need client updates.
        std::vector<chain::Height> heights;
        for (std::size_t i = begin; i < end; ++i) {
          const auto h = static_cast<chain::Height>(send->msgs[i].proof_height);
          if (std::find(heights.begin(), heights.end(), h) == heights.end()) {
            heights.push_back(h);
          }
        }
        std::sort(heights.begin(), heights.end());

        auto updates = std::make_shared<std::vector<chain::Msg>>();
        auto fetch_next = std::make_shared<std::function<void(std::size_t)>>();
        *fetch_next = [this, send, send_step, heights, updates,
                       wfetch = std::weak_ptr<std::function<void(std::size_t)>>(
                           fetch_next),
                       begin, end](std::size_t hi) {
          auto fetch_next = wfetch.lock();
          if (!fetch_next) return;
          if (hi >= heights.size()) {
            // Chain complete: release the stored closure.
            sched_.schedule_after(0, [fetch_next] { *fetch_next = nullptr; });
          }
          if (hi < heights.size()) {
            fetch_update(a_.server, path_.client_on_b, heights[hi],
                         [updates, fetch_next, hi](std::optional<chain::Msg> u) {
                           if (u) updates->push_back(std::move(*u));
                           if (*fetch_next) (*fetch_next)(hi + 1);
                         });
            return;
          }
          // Assemble and submit the tx.
          std::vector<chain::Msg> msgs = *updates;
          std::vector<ibc::Sequence> tx_seqs;
          // A packet whose receiver encodes a forward route executes an
          // onward transfer inside the destination's recv handler; without
          // budgeting it the tx runs out of gas on every middle-chain hop.
          std::uint64_t forward_gas = 0;
          for (std::size_t i = begin; i < end; ++i) {
            if (ibc::ForwardMiddleware::is_forward_packet(
                    send->msgs[i].packet.data)) {
              forward_gas += gas_.transfer;
            }
            msgs.push_back(send->msgs[i].to_msg());
            tx_seqs.push_back(send->msgs[i].packet.sequence);
          }
          const std::uint64_t gas = estimate_gas(
              updates->size(), end - begin, gas_.recv_packet, forward_gas);
          // The pipeline advances to the next tx as soon as this one is in
          // the mempool (optimistic submission); the commit callback only
          // does bookkeeping. `advanced` guards the pipeline continuation if
          // the broadcast itself fails.
          auto advanced = std::make_shared<bool>(false);
          wallet_b_->submit(
              std::move(msgs), gas,
              [this, tx_seqs, send_step, advanced](const Wallet::SubmitOutcome& out) {
                if (!running_) return;
                std::vector<ibc::Sequence> recv_done;
                std::vector<ibc::Sequence> retry_seqs;
                for (ibc::Sequence s : tx_seqs) {
                  const auto it = packets_.find(s);
                  if (it == packets_.end()) continue;
                  PacketState& ps = it->second;
                  if (out.status.is_ok()) {
                    record(Step::kRecvConfirmation, s);
                    relayed_ctr_->add();
                    if (ps.stage == Stage::kRecvInFlight) {
                      ps.stage = Stage::kRecvDone;
                      ps.dst_height = out.height;
                      recv_done.push_back(s);
                    }
                  } else if (out.status.code() ==
                             util::ErrorCode::kRedundantPacket) {
                    redundant_ctr_->add();
                    if (ps.stage == Stage::kRecvInFlight) {
                      if (ps.recv_retries <
                          static_cast<std::uint8_t>(config_.max_packet_retries)) {
                        // Hermes retries the failed batch, rebuilding the
                        // proofs and resubmitting (wasted work when another
                        // relayer actually delivered the packets); the cap
                        // bounds what used to be a one-shot set.
                        ++ps.recv_retries;
                        ps.stage = Stage::kPulled;
                        retry_seqs.push_back(s);
                      } else {
                        // Retries exhausted: treat as delivered elsewhere;
                        // the destination's write_ack event drives the ack.
                        ps.stage = Stage::kRecvDone;
                      }
                    }
                  } else if (out.status.code() == util::ErrorCode::kTimeout &&
                             out.committed) {
                    // Packet expired before delivery.
                    if (ps.stage == Stage::kRecvInFlight) {
                      ps.stage = Stage::kPulled;  // timeout path picks it up
                    }
                  } else {
                    recv_failed_ctr_->add();
                    IBC_LOG(kWarn, "relayer")
                        << "recv tx failed: " << out.status.to_string();
                    if (ps.stage == Stage::kRecvInFlight) {
                      // Clearing rebuilds and resubmits kPulled packets; a
                      // persistent fault (e.g. chronic under-gassing) used
                      // to loop forever through that path. Bound it.
                      if (++ps.recv_failures >
                          static_cast<std::uint8_t>(config_.max_submit_failures)) {
                        abandon_packet(s, ps, "recv submit failures");
                      } else {
                        ps.stage = Stage::kPulled;  // retried by clearing
                      }
                    }
                  }
                }
                // Normally the destination's WebSocket frame announces the
                // write_acks (batched per block, as Hermes sees them); the
                // committed recv tx's own events are the fallback when that
                // event stream is broken (oversized frames, §V).
                if (ws_wedged_b_ && !recv_done.empty()) {
                  Op ack_op;
                  ack_op.kind = Op::Kind::kAck;
                  ack_op.ack = AckBatchOp{out.height, std::move(recv_done)};
                  enqueue(std::move(ack_op));
                }
                if (!retry_seqs.empty()) {
                  Op retry;
                  retry.kind = Op::Kind::kRetryRecv;
                  retry.retry = RetryOp{std::move(retry_seqs)};
                  enqueue_retry(std::move(retry));
                }
                if (!*advanced) {
                  *advanced = true;
                  if (*send_step) (*send_step)();
                }
              },
              [this, tx_seqs, send_step, advanced]() {
                for (ibc::Sequence s : tx_seqs) {
                  record(Step::kRecvBroadcast, s);
                  const auto it = packets_.find(s);
                  if (it != packets_.end() &&
                      it->second.stage == Stage::kPulled) {
                    it->second.stage = Stage::kRecvInFlight;
                  }
                }
                if (!*advanced) {
                  *advanced = true;
                  if (*send_step) (*send_step)();
                }
              });
        };
        if (*fetch_next) (*fetch_next)(0);
      };
      if (*send_step) (*send_step)();
      return;
    }

    const ibc::Sequence seq = st->seqs[st->next++];
    const auto it = packets_.find(seq);
    if (it == packets_.end() || it->second.stage != Stage::kPulled ||
        !it->second.packet) {
      if (*step) (*step)();
      return;
    }
    const std::string key =
        ibc::host::packet_commitment_key(path_.port, path_.channel_a, seq);
    cache_.abci_query(
        *a_.server, config_.machine, key, /*prove=*/true,
        [this, st, step, seq](util::Result<rpc::Server::AbciQueryResult> res) {
          if (!running_) return;
          telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBuild);
          const auto it2 = packets_.find(seq);
          if (res.is_ok() && res.value().exists && it2 != packets_.end() &&
              it2->second.packet) {
            ibc::MsgRecvPacket msg;
            msg.packet = *it2->second.packet;
            msg.proof_commitment = res.value().proof;
            msg.proof_height = res.value().height;
            st->msgs.push_back(std::move(msg));
            // Per-message assembly CPU, then the next packet.
            sched_.schedule_after(config_.build_cpu_per_msg, [this, step, seq] {
              record(Step::kRecvBuild, seq);
              if (*step) (*step)();
            });
            return;
          }
          // Commitment gone (acked/timed out already) or query failed.
          if (*step) (*step)();
        });
  };
  if (*step) (*step)();
}

void Relayer::run_ack_batch(AckBatchOp op, std::function<void()> done) {
  std::vector<ibc::Sequence> seqs;
  for (ibc::Sequence s : op.seqs) {
    const auto it = packets_.find(s);
    if (it != packets_.end() && it->second.stage == Stage::kRecvDone) {
      seqs.push_back(s);
    }
  }
  if (seqs.empty()) {
    done();
    return;
  }
  if (ack_batch_hist_) {
    ack_batch_hist_->observe(static_cast<double>(seqs.size()));
  }
  auto after_pull = [this, seqs, dst_height = op.dst_height,
                     done = std::move(done)](PullResult pr) mutable {
    std::vector<ibc::Sequence> ready;
    std::vector<ibc::Sequence> repull;
    for (ibc::Sequence s : seqs) {
      const auto it = packets_.find(s);
      if (it == packets_.end()) continue;
      PacketState& ps = it->second;
      if (ps.stage == Stage::kRecvDone && ps.packet && ps.ack) {
        ready.push_back(s);
      } else if (ps.stage == Stage::kRecvDone && ps.ack_decode_failed) {
        // The write_ack event came back with an undecodable packet_ack;
        // re-pull after a backoff (a fresh query usually delivers an intact
        // payload) instead of stranding the packet until timeout scan.
        if (++ps.ack_repulls >
            static_cast<std::uint8_t>(config_.max_submit_failures)) {
          abandon_packet(s, ps, "undecodable packet_ack");
        } else {
          repull.push_back(s);
        }
      }
    }
    if (pr == PullResult::kPartialFailure) {
      IBC_LOG(kWarn, "relayer")
          << "ack batch pull incomplete: " << ready.size() << "/"
          << seqs.size() << " acks pulled";
    }
    if (!repull.empty()) {
      sched_.schedule_after(config_.ack_repull_backoff,
                            [this, dst_height, repull = std::move(repull)] {
                              if (!running_) return;
                              Op op;
                              op.kind = Op::Kind::kAck;
                              op.ack = AckBatchOp{dst_height, repull};
                              enqueue(std::move(op));
                            });
    }
    if (ready.empty()) {
      done();
      return;
    }
    build_and_send_ack(std::move(ready), std::move(done));
  };
  pull_chunks(b_.server, op.dst_height, "write_acknowledgement",
              std::move(seqs), 0, /*any_failed=*/false, std::move(after_pull));
}

void Relayer::build_and_send_ack(std::vector<ibc::Sequence> seqs,
                                 std::function<void()> done) {
  struct BuildState {
    std::vector<ibc::Sequence> seqs;
    std::size_t next = 0;
    std::vector<ibc::MsgAcknowledgementMsg> msgs;
    std::function<void()> done;
  };
  auto st = std::make_shared<BuildState>();
  st->seqs = std::move(seqs);
  st->done = std::move(done);

  // The closure holds itself only weakly: queued callbacks carry the strong
  // references, so when the simulation tears down mid-chain the cycle
  // collapses instead of leaking (a strong self-capture is unreclaimable).
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, st, wstep = std::weak_ptr<std::function<void()>>(step)]() {
    auto step = wstep.lock();
    if (!step || !running_) return;
    telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBuild);
    if (st->next >= st->seqs.size()) {
      release_later(step);
      if (st->msgs.empty()) {
        st->done();
        return;
      }
      struct SendState {
        std::vector<ibc::MsgAcknowledgementMsg> msgs;
        std::size_t next_tx_begin = 0;
        std::function<void()> done;
      };
      auto send = std::make_shared<SendState>();
      send->msgs = std::move(st->msgs);
      send->done = std::move(st->done);

      auto send_step = std::make_shared<std::function<void()>>();
      *send_step = [this, send,
                    wsend = std::weak_ptr<std::function<void()>>(send_step)]() {
        auto send_step = wsend.lock();
        if (!send_step) return;
        if (!running_ || send->next_tx_begin >= send->msgs.size()) {
          if (send->next_tx_begin >= send->msgs.size()) {
            release_later(send_step);
            send->done();
          }
          return;
        }
        telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBroadcast);
        const std::size_t begin = send->next_tx_begin;
        const std::size_t end = std::min(
            begin + config_.max_msgs_per_tx, send->msgs.size());
        send->next_tx_begin = end;

        std::vector<chain::Height> heights;
        for (std::size_t i = begin; i < end; ++i) {
          const auto h = static_cast<chain::Height>(send->msgs[i].proof_height);
          if (std::find(heights.begin(), heights.end(), h) == heights.end()) {
            heights.push_back(h);
          }
        }
        std::sort(heights.begin(), heights.end());

        auto updates = std::make_shared<std::vector<chain::Msg>>();
        auto fetch_next = std::make_shared<std::function<void(std::size_t)>>();
        *fetch_next = [this, send, send_step, heights, updates,
                       wfetch = std::weak_ptr<std::function<void(std::size_t)>>(
                           fetch_next),
                       begin, end](std::size_t hi) {
          auto fetch_next = wfetch.lock();
          if (!fetch_next) return;
          if (hi >= heights.size()) {
            // Chain complete: release the stored closure.
            sched_.schedule_after(0, [fetch_next] { *fetch_next = nullptr; });
          }
          if (hi < heights.size()) {
            fetch_update(b_.server, path_.client_on_a, heights[hi],
                         [updates, fetch_next, hi](std::optional<chain::Msg> u) {
                           if (u) updates->push_back(std::move(*u));
                           if (*fetch_next) (*fetch_next)(hi + 1);
                         });
            return;
          }
          std::vector<chain::Msg> msgs = *updates;
          std::vector<ibc::Sequence> tx_seqs;
          for (std::size_t i = begin; i < end; ++i) {
            msgs.push_back(send->msgs[i].to_msg());
            tx_seqs.push_back(send->msgs[i].packet.sequence);
          }
          const std::uint64_t gas = estimate_gas(
              updates->size(), end - begin, gas_.acknowledge);
          auto advanced = std::make_shared<bool>(false);
          wallet_a_->submit(
              std::move(msgs), gas,
              [this, tx_seqs, send_step, advanced](const Wallet::SubmitOutcome& out) {
                if (!running_) return;
                std::vector<ibc::Sequence> retry_seqs;
                for (ibc::Sequence s : tx_seqs) {
                  const auto it = packets_.find(s);
                  if (it == packets_.end()) continue;
                  PacketState& ps = it->second;
                  if (out.status.is_ok()) {
                    record(Step::kAckConfirmation, s);
                    completed_ctr_->add();
                    ps.stage = Stage::kDone;
                  } else if (out.status.code() ==
                             util::ErrorCode::kRedundantPacket) {
                    redundant_ctr_->add();
                    if (ps.stage == Stage::kAckInFlight &&
                        ps.ack_retries <
                            static_cast<std::uint8_t>(
                                config_.max_packet_retries)) {
                      ++ps.ack_retries;
                      ps.stage = Stage::kRecvDone;  // rebuild + resubmit
                      retry_seqs.push_back(s);
                    } else {
                      // Most likely another relayer completed it — but a
                      // single genuinely-redundant msg fails the whole tx,
                      // so batch-mates may NOT be acked yet. Park at
                      // kRecvDone flagged for clearing: the clear pass only
                      // sees still-outstanding commitments, so truly
                      // completed packets drop out and stragglers get a
                      // clean redrive.
                      ps.stage = Stage::kRecvDone;
                      ps.ack_tx_failed = true;
                    }
                  } else {
                    ack_failed_ctr_->add();
                    IBC_LOG(kWarn, "relayer")
                        << "ack tx failed: " << out.status.to_string();
                    // A censored/unreachable mempool fails submit before
                    // broadcast, leaving the stage at kRecvDone; flag both
                    // shapes so run_clear redrives the ack either way.
                    if (ps.stage == Stage::kAckInFlight) {
                      ps.stage = Stage::kRecvDone;
                    }
                    if (ps.stage == Stage::kRecvDone) {
                      ps.ack_tx_failed = true;
                    }
                  }
                }
                if (!retry_seqs.empty()) {
                  Op retry;
                  retry.kind = Op::Kind::kRetryAck;
                  retry.retry = RetryOp{std::move(retry_seqs)};
                  enqueue_retry(std::move(retry));
                }
                if (!*advanced) {
                  *advanced = true;
                  if (*send_step) (*send_step)();
                }
              },
              [this, tx_seqs, send_step, advanced]() {
                for (ibc::Sequence s : tx_seqs) {
                  record(Step::kAckBroadcast, s);
                  const auto it = packets_.find(s);
                  if (it != packets_.end() &&
                      it->second.stage == Stage::kRecvDone) {
                    it->second.stage = Stage::kAckInFlight;
                  }
                }
                if (!*advanced) {
                  *advanced = true;
                  if (*send_step) (*send_step)();
                }
              });
        };
        if (*fetch_next) (*fetch_next)(0);
      };
      if (*send_step) (*send_step)();
      return;
    }

    const ibc::Sequence seq = st->seqs[st->next++];
    const auto it = packets_.find(seq);
    if (it == packets_.end() || it->second.stage != Stage::kRecvDone ||
        !it->second.packet || !it->second.ack) {
      if (*step) (*step)();
      return;
    }
    const std::string key =
        ibc::host::packet_ack_key(path_.port, path_.channel_b, seq);
    cache_.abci_query(
        *b_.server, config_.machine, key, /*prove=*/true,
        [this, st, step, seq](util::Result<rpc::Server::AbciQueryResult> res) {
          if (!running_) return;
          telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBuild);
          const auto it2 = packets_.find(seq);
          if (res.is_ok() && res.value().exists && it2 != packets_.end()) {
            ibc::MsgAcknowledgementMsg msg;
            msg.packet = *it2->second.packet;
            msg.ack = *it2->second.ack;
            msg.proof_ack = res.value().proof;
            msg.proof_height = res.value().height;
            st->msgs.push_back(std::move(msg));
            sched_.schedule_after(config_.build_cpu_per_msg, [this, step, seq] {
              record(Step::kAckBuild, seq);
              if (*step) (*step)();
            });
            return;
          }
          if (*step) (*step)();
        });
  };
  if (*step) (*step)();
}

// --- Timeouts --------------------------------------------------------------------

void Relayer::run_timeout_batch(TimeoutBatchOp op, std::function<void()> done) {
  struct BuildState {
    std::vector<ibc::Sequence> seqs;
    std::size_t next = 0;
    std::vector<ibc::MsgTimeout> msgs;
    std::function<void()> done;
  };
  auto st = std::make_shared<BuildState>();
  st->seqs = std::move(op.seqs);
  st->done = std::move(done);

  // The closure holds itself only weakly: queued callbacks carry the strong
  // references, so when the simulation tears down mid-chain the cycle
  // collapses instead of leaking (a strong self-capture is unreclaimable).
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, st, wstep = std::weak_ptr<std::function<void()>>(step)]() {
    auto step = wstep.lock();
    if (!step || !running_) return;
    if (st->next >= st->seqs.size()) {
      release_later(step);
      if (st->msgs.empty()) {
        st->done();
        return;
      }
      // One tx per batch chunk; timeout volume is small in practice.
      std::vector<chain::Height> heights;
      for (const auto& m : st->msgs) {
        const auto h = static_cast<chain::Height>(m.proof_height);
        if (std::find(heights.begin(), heights.end(), h) == heights.end()) {
          heights.push_back(h);
        }
      }
      std::sort(heights.begin(), heights.end());
      auto updates = std::make_shared<std::vector<chain::Msg>>();
      auto fetch_next = std::make_shared<std::function<void(std::size_t)>>();
      *fetch_next = [this, st, heights, updates,
                     wfetch = std::weak_ptr<std::function<void(std::size_t)>>(
                         fetch_next)](std::size_t hi) {
        auto fetch_next = wfetch.lock();
        if (!fetch_next) return;
        if (hi >= heights.size()) {
          // Chain complete: release the stored closure.
          sched_.schedule_after(0, [fetch_next] { *fetch_next = nullptr; });
        }
        if (hi < heights.size()) {
          fetch_update(b_.server, path_.client_on_a, heights[hi],
                       [updates, fetch_next, hi](std::optional<chain::Msg> u) {
                         if (u) updates->push_back(std::move(*u));
                         if (*fetch_next) (*fetch_next)(hi + 1);
                       });
          return;
        }
        std::vector<chain::Msg> msgs = *updates;
        std::vector<ibc::Sequence> tx_seqs;
        for (const auto& m : st->msgs) {
          msgs.push_back(m.to_msg());
          tx_seqs.push_back(m.packet.sequence);
        }
        const std::uint64_t gas =
            estimate_gas(updates->size(), tx_seqs.size(), gas_.timeout);
        wallet_a_->submit(
            std::move(msgs), gas,
            [this, tx_seqs, done = st->done](const Wallet::SubmitOutcome& out) {
              if (!running_) return;
              for (ibc::Sequence s : tx_seqs) {
                const auto it = packets_.find(s);
                if (it == packets_.end()) continue;
                if (out.status.is_ok()) {
                  timed_out_ctr_->add();
                  it->second.stage = Stage::kTimedOut;
                } else if (out.status.code() ==
                           util::ErrorCode::kRedundantPacket) {
                  redundant_ctr_->add();
                  it->second.stage = Stage::kTimedOut;
                }
                timeout_candidates_.erase(s);
              }
              done();
            });
      };
      if (*fetch_next) (*fetch_next)(0);
      return;
    }

    const ibc::Sequence seq = st->seqs[st->next++];
    const auto it = packets_.find(seq);
    if (it == packets_.end() || it->second.stage != Stage::kPulled ||
        !it->second.packet) {
      if (*step) (*step)();
      return;
    }
    // Non-existence proof of the receipt on the destination chain. Never
    // cached: a receipt can appear at any commit, and a stale "not received"
    // answer would produce a doomed MsgTimeout (timeouts are rare, so there
    // is no win to chase either).
    const std::string key =
        ibc::host::packet_receipt_key(path_.port, path_.channel_b, seq);
    b_.server->abci_query(
        config_.machine, key, /*prove=*/true,
        [this, st, step, seq](util::Result<rpc::Server::AbciQueryResult> res) {
          if (!running_) return;
          const auto it2 = packets_.find(seq);
          if (res.is_ok() && !res.value().exists && it2 != packets_.end() &&
              it2->second.packet) {
            ibc::MsgTimeout msg;
            msg.packet = *it2->second.packet;
            msg.proof_unreceived = res.value().proof;
            msg.proof_height = res.value().height;
            st->msgs.push_back(std::move(msg));
          }
          if (*step) (*step)();
        });
  };
  if (*step) (*step)();
}

// --- Clearing ---------------------------------------------------------------------

void Relayer::run_clear(ClearOp op, std::function<void()> done) {
  // 1. Enumerate outstanding commitments on the source chain.
  a_.server->abci_query_prefix(
      config_.machine,
      ibc::host::packet_commitment_prefix(path_.port, path_.channel_a),
      [this, op, done = std::move(done)](std::vector<std::string> keys) mutable {
        if (!running_) return;
        std::vector<ibc::Sequence> unknown;
        std::vector<ibc::Sequence> stuck_acks;
        bool ackless = false;
        const std::string prefix =
            ibc::host::packet_commitment_prefix(path_.port, path_.channel_a);
        for (const std::string& key : keys) {
          const ibc::Sequence seq =
              std::strtoull(key.c_str() + prefix.size(), nullptr, 10);
          if (seq == 0) continue;
          const auto it = packets_.find(seq);
          if (it == packets_.end()) {
            // Never seen (e.g. lost in an oversized WebSocket frame). Under
            // coordination, only adopt strays this instance owns — the
            // owning peer's own clear pass covers the rest.
            if (!adopts(seq, last_seen_a_height_)) continue;
            PacketState ps;
            ps.stage = Stage::kExtracted;
            packets_.emplace(seq, std::move(ps));
            unknown.push_back(seq);
          } else if (it->second.stage == Stage::kPulled ||
                     it->second.stage == Stage::kExtracted) {
            // kPulled: stalled after a failed submit — retry relay.
            // kExtracted: seen in a frame but the data pull never delivered
            // (every chunk query for it errored); without this the packet
            // was stuck forever while its commitment sat on chain.
            unknown.push_back(seq);
          } else if (it->second.stage == Stage::kRecvDone &&
                     it->second.packet && it->second.ack &&
                     it->second.ack_tx_failed) {
            // Recv committed but the ack tx failed (e.g. censored or
            // unreachable source mempool) and nothing re-drives it: the
            // write_ack event fires exactly once. The commitment is still
            // outstanding, so clearing redelivers the ack — Hermes' clear
            // sweeps unreceived acks for the same reason. The ack_tx_failed
            // gate matters: kRecvDone with packet+ack is also the transient
            // state of a healthy ack mid-build (stage only advances at
            // broadcast), and redriving those duplicates work on every
            // clear pass without bound.
            it->second.ack_tx_failed = false;
            stuck_acks.push_back(seq);
          } else if (it->second.stage == Stage::kRecvDone &&
                     !it->second.ack) {
            // Recv committed but the write_ack event was missed (crash
            // window, dropped frame, or another relayer delivered it while
            // this one was down) so the ack value was never pulled. It is
            // sitting on the destination chain — recover it with an ack
            // scan, same as the startup path.
            ackless = true;
          }
        }
        if (ackless) {
          const chain::Height to =
              last_seen_b_height_ > 0 ? last_seen_b_height_ : 1;
          Op scan;
          scan.kind = Op::Kind::kAckScan;
          scan.ack_scan = ClearOp{
              to > config_.startup_rescan_depth
                  ? to - config_.startup_rescan_depth + 1
                  : 1,
              to};
          enqueue(std::move(scan));
        }
        if (!stuck_acks.empty()) {
          std::sort(stuck_acks.begin(), stuck_acks.end());
          done = [this, acks = std::move(stuck_acks),
                  next = std::move(done)]() mutable {
            build_and_send_ack(std::move(acks), std::move(next));
          };
        }
        if (unknown.empty()) {
          done();
          return;
        }
        std::sort(unknown.begin(), unknown.end());

        // 2. Recover packet data with an (expensive) height-range scan.
        const ibc::Sequence lo = unknown.front();
        const ibc::Sequence hi = unknown.back();
        a_.server->query_packet_events_range(
            config_.machine, op.scan_from, op.scan_to, "send_packet", lo, hi,
            [this, unknown, done = std::move(done)](
                util::Result<rpc::TxSearchPage> res) mutable {
              if (!running_) return;
              if (!res.is_ok()) {
                // Same defect class as the chunked pulls: a failed recovery
                // scan used to disappear without a trace.
                pull_failures_ctr_->add();
                IBC_LOG(kWarn, "relayer")
                    << "clear range scan failed: " << res.status().to_string();
              }
              if (res.is_ok()) {
                for (const rpc::TxResponse& tx : res.value().txs) {
                  for (const chain::Event& ev : tx.result.events) {
                    if (ev.type != "send_packet") continue;
                    auto pkt = ibc::packet_from_event(ev);
                    if (!pkt || pkt->source_channel != path_.channel_a) {
                      continue;
                    }
                    const auto it = packets_.find(pkt->sequence);
                    if (it != packets_.end() &&
                        it->second.stage == Stage::kExtracted) {
                      it->second.src_height = tx.height;
                      it->second.packet = std::move(*pkt);
                      it->second.stage = Stage::kPulled;
                    }
                  }
                }
              }
              std::vector<ibc::Sequence> ready;
              for (ibc::Sequence s : unknown) {
                const auto it = packets_.find(s);
                if (it != packets_.end() &&
                    it->second.stage == Stage::kPulled) {
                  ready.push_back(s);
                }
              }
              if (ready.empty()) {
                done();
                return;
              }
              build_and_send_recv(std::move(ready), std::move(done));
            });
      });
}

// --- Startup ack re-scan ----------------------------------------------------------

void Relayer::run_ack_scan(ClearOp op, std::function<void()> done) {
  // Packets whose recv committed before the crash left a
  // write_acknowledgement event on the destination but no ack on the
  // source — and a restarted relayer has no in-memory PacketState for them,
  // so clearing would resubmit the recv (failing as redundant) instead of
  // the ack. Walk the window once and restore them to kRecvDone with their
  // decoded ack, then drive the acks.
  b_.server->query_packet_events_range(
      config_.machine, op.scan_from, op.scan_to, "write_acknowledgement",
      /*seq_begin=*/1, /*seq_end=*/std::numeric_limits<std::uint64_t>::max(),
      [this, done = std::move(done)](
          util::Result<rpc::TxSearchPage> res) mutable {
        if (!running_) return;
        if (!res.is_ok()) {
          pull_failures_ctr_->add();
          IBC_LOG(kWarn, "relayer")
              << "startup ack scan failed: " << res.status().to_string();
          done();
          return;
        }
        std::vector<ibc::Sequence> ready;
        for (const rpc::TxResponse& tx : res.value().txs) {
          for (const chain::Event& ev : tx.result.events) {
            if (ev.type != "write_acknowledgement") continue;
            auto pkt = ibc::packet_from_event(ev);
            if (!pkt || pkt->source_channel != path_.channel_a) continue;
            const ibc::Sequence seq = pkt->sequence;
            // An unowned, unseen packet is a peer's to acknowledge.
            if (!packets_.contains(seq) && !adopts(seq, last_seen_a_height_)) {
              continue;
            }
            PacketState& st = packets_[seq];  // inserts when unseen
            if (st.stage == Stage::kAckInFlight || st.stage == Stage::kDone ||
                st.stage == Stage::kTimedOut ||
                st.stage == Stage::kAbandoned || st.ack.has_value()) {
              continue;
            }
            ibc::Acknowledgement ack;
            if (!ibc::Acknowledgement::decode(
                    util::to_bytes(ev.attribute("packet_ack")), ack)) {
              ack_decode_failures_ctr_->add();
              continue;
            }
            st.packet = std::move(*pkt);
            st.ack = std::move(ack);
            st.stage = Stage::kRecvDone;
            st.dst_height = tx.height;
            ready.push_back(seq);
          }
        }
        if (ready.empty()) {
          done();
          return;
        }
        std::sort(ready.begin(), ready.end());
        build_and_send_ack(std::move(ready), std::move(done));
      });
}

}  // namespace relayer
