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

namespace {
// Hermes bundles at most 100 messages per transaction (§III-D).
constexpr std::size_t kMaxMsgsPerTx = 100;
// Packet-event queries are chunked by sequence ranges of this size.
constexpr std::size_t kEventQueryChunk = 50;
// CPU time to assemble one IBC message (proof decoding, encoding).
constexpr sim::Duration kBuildCpuPerMsg = sim::micros(1'500);
// Rebuild-and-resubmit retries per packet per direction after a "redundant
// packet" batch failure (Hermes retries a failed batch once, §IV-A).
constexpr std::uint8_t kMaxPacketRetries = 1;
// How many blocks a startup clear pass or an ack re-scan walks back.
constexpr chain::Height kStartupRescanDepth = 1'000;
// Indexed by Op::Kind; span + counter names for the worker-lane telemetry.
constexpr const char* kOpNames[7] = {"relay_batch",   "ack_batch",
                                     "timeout_batch", "clear",
                                     "retry_recv",    "retry_ack",
                                     "ack_scan"};

// The block window [from, to] a re-scan ending at block `to` walks.
std::pair<chain::Height, chain::Height> rescan_window(chain::Height to) {
  return {to > kStartupRescanDepth ? to - kStartupRescanDepth + 1 : 1, to};
}

// Calls fn(event, packet, tx height) for every `type` event in `page` that
// decodes to a packet sent from `channel`.
template <typename Fn>
void for_each_packet_event(const rpc::TxSearchPage& page,
                           const std::string& type,
                           const ibc::ChannelId& channel, Fn&& fn) {
  for (const rpc::TxResponse& tx : page.txs) {
    for (const chain::Event& ev : tx.result().events) {
      if (ev.type != type) continue;
      auto pkt = ibc::packet_from_event(ev);
      if (!pkt || pkt->source_channel != channel) continue;
      fn(ev, *pkt, tx.height);
    }
  }
}

// The distinct proof heights of msgs[begin, end), ascending: a tx carries
// one MsgUpdateClient per height ahead of its packet messages.
template <typename M>
std::vector<chain::Height> proof_heights(const std::vector<M>& msgs,
                                         std::size_t begin, std::size_t end) {
  std::vector<chain::Height> heights;
  for (std::size_t i = begin; i < end; ++i) {
    heights.push_back(msgs[i].proof_height);
  }
  std::sort(heights.begin(), heights.end());
  heights.erase(std::unique(heights.begin(), heights.end()), heights.end());
  return heights;
}
}  // namespace

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
  auto make_wallet = [this](const ChainHandle& h) {
    WalletConfig wc = config_.wallet;
    wc.accounts = h.wallet_accounts;
    wc.gas_price = config_.gas_price;
    wc.optimistic_sequencing = true;
    return std::make_unique<Wallet>(sched_, *h.server, config_.machine, wc);
  };
  wallet_a_ = make_wallet(a_);
  wallet_b_ = make_wallet(b_);

  recv_leg_ = Leg{
      .src = a_.server, .wallet = wallet_b_.get(), .client = path_.client_on_b,
      .proof_key = ibc::host::packet_commitment_key,
      .proof_channel = path_.channel_a,
      .needs_ack = false,
      .build = [](const PacketState& ps,
                  const rpc::Server::AbciQueryResult& proof) {
        return ibc::MsgRecvPacket{*ps.packet, proof.proof, proof.height}
            .to_msg();
      },
      .ready = Stage::kPulled, .in_flight = Stage::kRecvInFlight,
      .build_step = Step::kRecvBuild, .broadcast_step = Step::kRecvBroadcast,
      .packet_gas = gas_.recv_packet, .forward_gas = true,
      .on_outcome = &Relayer::on_recv_outcome,
  };
  ack_leg_ = Leg{
      .src = b_.server, .wallet = wallet_a_.get(), .client = path_.client_on_a,
      .proof_key = ibc::host::packet_ack_key,
      .proof_channel = path_.channel_b,
      .needs_ack = true,
      .build = [](const PacketState& ps,
                  const rpc::Server::AbciQueryResult& proof) {
        return ibc::MsgAcknowledgementMsg{*ps.packet, *ps.ack, proof.proof,
                                          proof.height}
            .to_msg();
      },
      .ready = Stage::kRecvDone, .in_flight = Stage::kAckInFlight,
      .build_step = Step::kAckBuild, .broadcast_step = Step::kAckBroadcast,
      .packet_gas = gas_.acknowledge, .forward_gas = false,
      .on_outcome = &Relayer::on_ack_outcome,
  };
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
    const auto [from, to] = rescan_window(info.height);
    last_clear_height_ = info.height;
    enqueue({Op::Kind::kClear, from, to, {}});
  });
  b_.server->status(config_.machine, [this](rpc::Server::StatusInfo info) {
    if (!running_ || info.height == 0) return;
    last_seen_b_height_ = std::max(last_seen_b_height_, info.height);
    const auto [from, to] = rescan_window(info.height);
    enqueue({Op::Kind::kAckScan, from, to, {}});
  });
}

void Relayer::stop() {
  if (!running_) return;
  running_ = false;
  a_.server->unsubscribe(sub_a_);
  b_.server->unsubscribe(sub_b_);
}

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
    maybe_enqueue_clear(frame.height);
    return;
  }
  for (const chain::Event& ev : frame.events()) {
    if (ev.type != "send_packet" && ev.type != "acknowledge_packet") continue;
    if (ev.attribute("packet_src_channel") != path_.channel_a) continue;
    const std::uint64_t seq = chain::parse_u64(ev.attribute("packet_sequence"));
    if (ev.type == "acknowledge_packet") {
      record(Step::kAckExtraction, seq);
      continue;
    }
    if (seq == 0 || packets_.contains(seq)) continue;
    if (!adopts(seq, frame.height)) continue;
    PacketState st;
    st.stage = Stage::kExtracted;
    st.src_height = frame.height;
    packets_.emplace(seq, std::move(st));
    record(Step::kTransferExtraction, seq);
    new_seqs.push_back(seq);
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
                        enqueue({Op::Kind::kRelay, h, 0, *seqs});
                      });
  }

  check_timeouts();
  maybe_enqueue_clear(frame.height);
}

void Relayer::maybe_enqueue_clear(chain::Height height) {
  if (config_.clear_interval <= 0 ||
      height - last_clear_height_ < config_.clear_interval) {
    return;
  }
  last_clear_height_ = height;
  enqueue({Op::Kind::kClear, 1, height, {}});
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
  for (const chain::Event& ev : frame.events()) {
    if (ev.type != "write_acknowledgement") continue;
    if (ev.attribute("packet_src_channel") != path_.channel_a) continue;
    const std::uint64_t seq =
        chain::parse_u64(ev.attribute("packet_sequence"));
    const auto it = packets_.find(seq);
    if (it == packets_.end()) continue;  // not a packet we are tracking
    PacketState& st = it->second;
    if (st.stage == Stage::kAckInFlight || st.stage == Stage::kDone ||
        st.stage == Stage::kTimedOut || st.stage == Stage::kAbandoned) {
      continue;
    }
    record(Step::kRecvExtraction, seq);
    st.stage = Stage::kRecvDone;
    ack_seqs.push_back(seq);
  }

  if (!ack_seqs.empty()) {
    enqueue({Op::Kind::kAck, frame.height, 0, std::move(ack_seqs)});
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
    enqueue({Op::Kind::kTimeout, 0, 0, std::move(expired)});
  }
}

std::vector<ibc::Sequence> Relayer::in_stage(
    const std::vector<ibc::Sequence>& seqs, Stage stage) const {
  std::vector<ibc::Sequence> out;
  for (ibc::Sequence s : seqs) {
    const auto it = packets_.find(s);
    if (it != packets_.end() && it->second.stage == stage) out.push_back(s);
  }
  return out;
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
      run_relay_batch(std::move(op), std::move(done));
      break;
    case Op::Kind::kAck:
      run_ack_batch(std::move(op), std::move(done));
      break;
    case Op::Kind::kTimeout:
      run_timeout_batch(std::move(op), std::move(done));
      break;
    case Op::Kind::kClear:
      run_clear(std::move(op), std::move(done));
      break;
    case Op::Kind::kRetryRecv:
    case Op::Kind::kRetryAck:
      build_and_send(op.kind == Op::Kind::kRetryRecv ? recv_leg_ : ack_leg_,
                     std::move(op.seqs), std::move(done));
      break;
    case Op::Kind::kAckScan:
      run_ack_scan(std::move(op), std::move(done));
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
  std::size_t begin = chunk_index * kEventQueryChunk;
  if (config_.skip_satisfied_chunks) {
    // Chunk queries return whole transactions, so one response often covers
    // sequences of later chunks; Hermes still issues those queries (the
    // redundancy the paper's Fig. 12 pull times include) — skipping them is
    // an opt-in mitigation.
    while (begin < seqs.size() &&
           chunk_satisfied(event_type, seqs, begin,
                           std::min(begin + kEventQueryChunk, seqs.size()))) {
      chunks_skipped_ctr_->add();
      ++chunk_index;
      begin = chunk_index * kEventQueryChunk;
    }
  }
  if (begin >= seqs.size()) {
    done(seqs.empty()     ? PullResult::kNothingToPull
         : any_failed     ? PullResult::kPartialFailure
                          : PullResult::kComplete);
    return;
  }
  const std::size_t end = std::min(begin + kEventQueryChunk, seqs.size());
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
          for_each_packet_event(
              res.value(), event_type, path_.channel_a,
              [&](const chain::Event& ev, ibc::Packet& pkt, chain::Height) {
                const auto it = packets_.find(pkt.sequence);
                if (it == packets_.end()) return;
                PacketState& st = it->second;
                // A chunk query returns whole transactions, so events for
                // sequences outside the chunk ride along; process (and log)
                // each packet's pull exactly once.
                if (event_type == "send_packet") {
                  if (st.stage == Stage::kExtracted) {
                    record(pull_step, pkt.sequence);
                    st.packet = std::move(pkt);
                    st.stage = Stage::kPulled;
                  }
                  return;
                }
                // write_acknowledgement
                if (st.ack.has_value()) return;
                if (!st.packet) st.packet = std::move(pkt);
                ibc::Acknowledgement ack;
                if (ibc::Acknowledgement::decode(
                        util::to_bytes(ev.attribute("packet_ack")), ack)) {
                  record(pull_step, pkt.sequence);
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
                      << pkt.sequence << " at height " << height;
                }
              });
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

void Relayer::fetch_updates(rpc::Server* server, const ibc::ClientId& client,
                            std::vector<chain::Height> heights,
                            std::function<void(std::vector<chain::Msg>)> cb) {
  auto updates = std::make_shared<std::vector<chain::Msg>>();
  auto fetch_next = std::make_shared<std::function<void(std::size_t)>>();
  *fetch_next = [this, server, client, heights = std::move(heights), updates,
                 cb = std::move(cb),
                 wfetch = std::weak_ptr<std::function<void(std::size_t)>>(
                     fetch_next)](std::size_t hi) {
    auto fetch_next = wfetch.lock();
    if (!fetch_next) return;
    if (hi < heights.size()) {
      // Headers are immutable once committed — ideal cache fodder: every tx
      // in a batch containing the same proof height re-fetches the same
      // header.
      cache_.query_header(
          *server, config_.machine, heights[hi],
          [client, updates, fetch_next,
           hi](util::Result<rpc::Server::HeaderInfo> res) {
            telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerPull);
            if (res.is_ok()) {
              const rpc::Server::HeaderInfo& info = res.value();
              const ibc::MsgUpdateClient update{
                  client,
                  {.chain_id = info.header.chain_id,
                   .height = info.header.height,
                   .time = info.header.time,
                   .app_hash_after = info.app_hash_after,
                   .validators_hash = info.header.validators_hash,
                   .block_id = chain::BlockId{info.header.hash()},
                   .commit = info.commit}};
              updates->push_back(update.to_msg());
            }
            if (*fetch_next) (*fetch_next)(hi + 1);
          });
      return;
    }
    // Chain complete: release the stored closure.
    sched_.schedule_after(0, [fetch_next] { *fetch_next = nullptr; });
    cb(std::move(*updates));
  };
  (*fetch_next)(0);
}

// --- Relay legs ------------------------------------------------------------------

void Relayer::run_relay_batch(Op op, std::function<void()> done) {
  std::vector<ibc::Sequence> seqs = in_stage(op.seqs, Stage::kExtracted);
  if (seqs.empty()) {
    done();
    return;
  }
  if (relay_batch_hist_) {
    relay_batch_hist_->observe(static_cast<double>(seqs.size()));
  }
  auto after_pull = [this, seqs, done = std::move(done)](PullResult pr) mutable {
    std::vector<ibc::Sequence> pulled = in_stage(seqs, Stage::kPulled);
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
    build_and_send(recv_leg_, std::move(pulled), std::move(done));
  };
  pull_chunks(a_.server, op.from, "send_packet", std::move(seqs), 0,
              /*any_failed=*/false, std::move(after_pull));
}

void Relayer::run_ack_batch(Op op, std::function<void()> done) {
  std::vector<ibc::Sequence> seqs = in_stage(op.seqs, Stage::kRecvDone);
  if (seqs.empty()) {
    done();
    return;
  }
  if (ack_batch_hist_) {
    ack_batch_hist_->observe(static_cast<double>(seqs.size()));
  }
  auto after_pull = [this, seqs, dst_height = op.from,
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
                              enqueue({Op::Kind::kAck, dst_height, 0, repull});
                            });
    }
    if (ready.empty()) {
      done();
      return;
    }
    build_and_send(ack_leg_, std::move(ready), std::move(done));
  };
  pull_chunks(b_.server, op.from, "write_acknowledgement", std::move(seqs), 0,
              /*any_failed=*/false, std::move(after_pull));
}

void Relayer::build_and_send(const Leg& leg, std::vector<ibc::Sequence> seqs,
                             std::function<void()> done) {
  struct LegState {
    std::vector<ibc::Sequence> seqs;
    std::size_t next = 0;           // next packet to prove
    std::vector<LegMsg> msgs;
    std::size_t next_tx_begin = 0;  // first message of the next tx
    std::function<void()> done;
  };
  auto st = std::make_shared<LegState>();
  st->seqs = std::move(seqs);
  st->done = std::move(done);
  auto send_step = std::make_shared<std::function<void()>>();

  // Stage 1: per-packet proof queries (sequential — the RPC node serves one
  // request at a time anyway) + per-message CPU.
  // The closure holds itself only weakly: queued callbacks carry the strong
  // references, so when the simulation tears down mid-chain the cycle
  // collapses instead of leaking (a strong self-capture is unreclaimable).
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, &leg, st, send_step,
           wstep = std::weak_ptr<std::function<void()>>(step)]() {
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
      (*send_step)();
      return;
    }

    const ibc::Sequence seq = st->seqs[st->next++];
    const auto it = packets_.find(seq);
    if (it == packets_.end() || it->second.stage != leg.ready ||
        !it->second.packet || (leg.needs_ack && !it->second.ack)) {
      if (*step) (*step)();
      return;
    }
    cache_.abci_query(
        *leg.src, config_.machine,
        leg.proof_key(path_.port, leg.proof_channel, seq), /*prove=*/true,
        [this, &leg, st, step,
         seq](util::Result<rpc::Server::AbciQueryResult> res) {
          if (!running_) return;
          telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBuild);
          const auto it2 = packets_.find(seq);
          if (res.is_ok() && res.value().exists && it2 != packets_.end() &&
              it2->second.packet) {
            const PacketState& ps = it2->second;
            LegMsg msg{seq, res.value().height, 0, leg.build(ps, res.value())};
            // A packet whose receiver encodes a forward route executes an
            // onward transfer inside the destination's recv handler; without
            // budgeting it the tx runs out of gas on every middle-chain hop.
            if (leg.forward_gas &&
                ibc::ForwardMiddleware::is_forward_packet(ps.packet->data)) {
              msg.extra_gas = gas_.transfer;
            }
            st->msgs.push_back(std::move(msg));
            // Per-message assembly CPU, then the next packet.
            sched_.schedule_after(kBuildCpuPerMsg, [this, &leg, step, seq] {
              record(leg.build_step, seq);
              if (*step) (*step)();
            });
            return;
          }
          // Proven state gone (acked/timed out already) or query failed.
          if (*step) (*step)();
        });
  };

  // Stage 2: txs of at most 100 packet messages, each behind its client
  // updates.
  *send_step = [this, &leg, st,
                wsend = std::weak_ptr<std::function<void()>>(send_step)]() {
    auto send_step = wsend.lock();
    if (!send_step) return;
    if (!running_ || st->next_tx_begin >= st->msgs.size()) {
      if (st->next_tx_begin >= st->msgs.size()) {
        release_later(send_step);
        st->done();
      }
      return;
    }
    telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBroadcast);
    const std::size_t begin = st->next_tx_begin;
    const std::size_t end = std::min(begin + kMaxMsgsPerTx, st->msgs.size());
    st->next_tx_begin = end;

    fetch_updates(
        leg.src, leg.client, proof_heights(st->msgs, begin, end),
        [this, &leg, st, send_step, begin,
         end](std::vector<chain::Msg> msgs) {
          // Assemble and submit the tx: the client updates, then the packet
          // messages they prove.
          const std::size_t updates = msgs.size();
          std::vector<ibc::Sequence> tx_seqs;
          std::uint64_t extra_gas = 0;
          for (std::size_t i = begin; i < end; ++i) {
            extra_gas += st->msgs[i].extra_gas;
            msgs.push_back(std::move(st->msgs[i].msg));
            tx_seqs.push_back(st->msgs[i].seq);
          }
          const std::uint64_t gas =
              estimate_gas(updates, end - begin, leg.packet_gas, extra_gas);
          // The pipeline advances to the next tx as soon as this one is in
          // the mempool (optimistic submission); the commit callback only
          // does bookkeeping. `advanced` guards the pipeline continuation if
          // the broadcast itself fails.
          auto advanced = std::make_shared<bool>(false);
          leg.wallet->submit(
              std::move(msgs), gas,
              [this, &leg, tx_seqs, send_step,
               advanced](const Wallet::SubmitOutcome& out) {
                if (!running_) return;
                (this->*leg.on_outcome)(tx_seqs, out);
                if (!*advanced) {
                  *advanced = true;
                  if (*send_step) (*send_step)();
                }
              },
              [this, &leg, tx_seqs, send_step, advanced]() {
                for (ibc::Sequence s : tx_seqs) {
                  record(leg.broadcast_step, s);
                  const auto it = packets_.find(s);
                  if (it != packets_.end() && it->second.stage == leg.ready) {
                    it->second.stage = leg.in_flight;
                  }
                }
                if (!*advanced) {
                  *advanced = true;
                  if (*send_step) (*send_step)();
                }
              });
        });
  };
  (*step)();
}

void Relayer::on_recv_outcome(const std::vector<ibc::Sequence>& tx_seqs,
                              const Wallet::SubmitOutcome& out) {
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
        recv_done.push_back(s);
      }
    } else if (out.status.code() == util::ErrorCode::kRedundantPacket) {
      redundant_ctr_->add();
      if (ps.stage == Stage::kRecvInFlight) {
        if (ps.recv_retries < kMaxPacketRetries) {
          // Hermes retries the failed batch, rebuilding the proofs and
          // resubmitting (wasted work when another relayer actually
          // delivered the packets); the cap bounds what used to be a
          // one-shot set.
          ++ps.recv_retries;
          ps.stage = Stage::kPulled;
          retry_seqs.push_back(s);
        } else {
          // Retries exhausted: treat as delivered elsewhere; the
          // destination's write_ack event drives the ack.
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
      IBC_LOG(kWarn, "relayer") << "recv tx failed: " << out.status.to_string();
      if (ps.stage == Stage::kRecvInFlight) {
        // Clearing rebuilds and resubmits kPulled packets; a persistent
        // fault (e.g. chronic under-gassing) used to loop forever through
        // that path. Bound it.
        if (++ps.recv_failures >
            static_cast<std::uint8_t>(config_.max_submit_failures)) {
          abandon_packet(s, ps, "recv submit failures");
        } else {
          ps.stage = Stage::kPulled;  // retried by clearing
        }
      }
    }
  }
  // Normally the destination's WebSocket frame announces the write_acks
  // (batched per block, as Hermes sees them); the committed recv tx's own
  // events are the fallback when that event stream is broken (oversized
  // frames, §V).
  if (ws_wedged_b_ && !recv_done.empty()) {
    enqueue({Op::Kind::kAck, out.height, 0, std::move(recv_done)});
  }
  // Hermes-faithful: the rebuilt batch re-enters its lane immediately.
  if (!retry_seqs.empty()) {
    enqueue({Op::Kind::kRetryRecv, 0, 0, std::move(retry_seqs)});
  }
}

void Relayer::on_ack_outcome(const std::vector<ibc::Sequence>& tx_seqs,
                             const Wallet::SubmitOutcome& out) {
  std::vector<ibc::Sequence> retry_seqs;
  for (ibc::Sequence s : tx_seqs) {
    const auto it = packets_.find(s);
    if (it == packets_.end()) continue;
    PacketState& ps = it->second;
    if (out.status.is_ok()) {
      record(Step::kAckConfirmation, s);
      completed_ctr_->add();
      ps.stage = Stage::kDone;
    } else if (out.status.code() == util::ErrorCode::kRedundantPacket) {
      redundant_ctr_->add();
      if (ps.stage == Stage::kAckInFlight &&
          ps.ack_retries < kMaxPacketRetries) {
        ++ps.ack_retries;
        ps.stage = Stage::kRecvDone;  // rebuild + resubmit
        retry_seqs.push_back(s);
      } else {
        // Most likely another relayer completed it — but a single
        // genuinely-redundant msg fails the whole tx, so batch-mates may NOT
        // be acked yet. Park at kRecvDone flagged for clearing: the clear
        // pass only sees still-outstanding commitments, so truly completed
        // packets drop out and stragglers get a clean redrive.
        ps.stage = Stage::kRecvDone;
        ps.ack_tx_failed = true;
      }
    } else {
      ack_failed_ctr_->add();
      IBC_LOG(kWarn, "relayer") << "ack tx failed: " << out.status.to_string();
      // A censored/unreachable mempool fails submit before broadcast,
      // leaving the stage at kRecvDone; flag both shapes so run_clear
      // redrives the ack either way.
      if (ps.stage == Stage::kAckInFlight) {
        ps.stage = Stage::kRecvDone;
      }
      if (ps.stage == Stage::kRecvDone) {
        ps.ack_tx_failed = true;
      }
    }
  }
  if (!retry_seqs.empty()) {
    enqueue({Op::Kind::kRetryAck, 0, 0, std::move(retry_seqs)});
  }
}

// --- Timeouts --------------------------------------------------------------------

void Relayer::run_timeout_batch(Op op, std::function<void()> done) {
  struct BuildState {
    std::vector<ibc::Sequence> seqs;
    std::size_t next = 0;
    std::vector<LegMsg> msgs;
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
      fetch_updates(
          b_.server, path_.client_on_a,
          proof_heights(st->msgs, 0, st->msgs.size()),
          [this, st](std::vector<chain::Msg> msgs) {
            const std::size_t updates = msgs.size();
            std::vector<ibc::Sequence> tx_seqs;
            for (LegMsg& m : st->msgs) {
              msgs.push_back(std::move(m.msg));
              tx_seqs.push_back(m.seq);
            }
            const std::uint64_t gas =
                estimate_gas(updates, tx_seqs.size(), gas_.timeout);
            wallet_a_->submit(
                std::move(msgs), gas,
                [this, tx_seqs,
                 done = st->done](const Wallet::SubmitOutcome& out) {
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
          });
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
            const ibc::MsgTimeout msg{*it2->second.packet, res.value().proof,
                                      res.value().height};
            st->msgs.push_back(LegMsg{seq, msg.proof_height, 0, msg.to_msg()});
          }
          if (*step) (*step)();
        });
  };
  (*step)();
}

// --- Clearing ---------------------------------------------------------------------

void Relayer::run_clear(Op op, std::function<void()> done) {
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
          const auto [from, to] =
              rescan_window(last_seen_b_height_ > 0 ? last_seen_b_height_ : 1);
          enqueue({Op::Kind::kAckScan, from, to, {}});
        }
        if (!stuck_acks.empty()) {
          std::sort(stuck_acks.begin(), stuck_acks.end());
          done = [this, acks = std::move(stuck_acks),
                  next = std::move(done)]() mutable {
            build_and_send(ack_leg_, std::move(acks), std::move(next));
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
            config_.machine, op.from, op.to, "send_packet", lo, hi,
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
                for_each_packet_event(
                    res.value(), "send_packet", path_.channel_a,
                    [this](const chain::Event&, ibc::Packet& pkt,
                           chain::Height tx_height) {
                      const auto it = packets_.find(pkt.sequence);
                      if (it != packets_.end() &&
                          it->second.stage == Stage::kExtracted) {
                        it->second.src_height = tx_height;
                        it->second.packet = std::move(pkt);
                        it->second.stage = Stage::kPulled;
                      }
                    });
              }
              std::vector<ibc::Sequence> ready =
                  in_stage(unknown, Stage::kPulled);
              if (ready.empty()) {
                done();
                return;
              }
              build_and_send(recv_leg_, std::move(ready), std::move(done));
            });
      });
}

// --- Startup ack re-scan ----------------------------------------------------------

void Relayer::run_ack_scan(Op op, std::function<void()> done) {
  // Packets whose recv committed before the crash left a
  // write_acknowledgement event on the destination but no ack on the
  // source — and a restarted relayer has no in-memory PacketState for them,
  // so clearing would resubmit the recv (failing as redundant) instead of
  // the ack. Walk the window once and restore them to kRecvDone with their
  // decoded ack, then drive the acks.
  b_.server->query_packet_events_range(
      config_.machine, op.from, op.to, "write_acknowledgement",
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
        for_each_packet_event(
            res.value(), "write_acknowledgement", path_.channel_a,
            [&](const chain::Event& ev, ibc::Packet& pkt, chain::Height) {
              const ibc::Sequence seq = pkt.sequence;
              // An unowned, unseen packet is a peer's to acknowledge.
              if (!packets_.contains(seq) &&
                  !adopts(seq, last_seen_a_height_)) {
                return;
              }
              PacketState& st = packets_[seq];  // inserts when unseen
              if (st.stage == Stage::kAckInFlight ||
                  st.stage == Stage::kDone || st.stage == Stage::kTimedOut ||
                  st.stage == Stage::kAbandoned || st.ack.has_value()) {
                return;
              }
              ibc::Acknowledgement ack;
              if (!ibc::Acknowledgement::decode(
                      util::to_bytes(ev.attribute("packet_ack")), ack)) {
                ack_decode_failures_ctr_->add();
                return;
              }
              st.packet = std::move(pkt);
              st.ack = std::move(ack);
              st.stage = Stage::kRecvDone;
              ready.push_back(seq);
            });
        if (ready.empty()) {
          done();
          return;
        }
        std::sort(ready.begin(), ready.end());
        build_and_send(ack_leg_, std::move(ready), std::move(done));
      });
}

}  // namespace relayer
