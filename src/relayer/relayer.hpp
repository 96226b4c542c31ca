#pragma once
// Hermes-like IBC relayer (paper §II-C, Fig. 4).
//
// Architecture mirrors Hermes v1:
//   * the Supervisor subscribes to new-block event frames from both chains'
//     full nodes (WebSocket) and dispatches work per channel;
//   * a PathWorker per direction plays the roles of Packet Command Worker +
//     Packet Workers: it schedules operations — data pulls, message builds,
//     broadcasts, timeouts, clearing — and executes them sequentially
//     (Hermes handles blocks sequentially; the paper's Fig. 12 pipeline is a
//     direct consequence);
//   * ChainEndpoints are the wallet + RPC client pairs through which all
//     chain interaction flows. The relayer NEVER touches chain internals
//     directly — every read is an RPC query against the (serialized) full
//     node, which is precisely where the paper finds 69% of the time going.
//
// Relayers are deliberately unaware of each other (ICS-18 gives them no
// coordination protocol); running two on one channel duplicates deliveries
// and burns fees — the "packet messages are redundant" failures of §IV-A.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "ibc/gas.hpp"
#include "ibc/msgs.hpp"
#include "relayer/coordination.hpp"
#include "relayer/events.hpp"
#include "relayer/query_cache.hpp"
#include "relayer/wallet.hpp"
#include "rpc/server.hpp"

namespace relayer {

/// One side of the relay path.
struct ChainHandle {
  rpc::Server* server = nullptr;     // full node this relayer queries
  chain::ChainId chain_id;
  std::vector<chain::Address> wallet_accounts;  // funded relayer wallet(s)
};

/// Channel topology (established during setup).
struct PathConfig {
  ibc::PortId port = ibc::kTransferPort;
  ibc::ChannelId channel_a;     // channel id on chain A
  ibc::ChannelId channel_b;     // channel id on chain B
  ibc::ClientId client_on_a;    // client of B hosted on A
  ibc::ClientId client_on_b;    // client of A hosted on B
};

struct RelayerConfig {
  net::MachineId machine = 0;
  /// Gas headroom multiplier over the estimated message gas.
  double gas_headroom = 1.15;
  double gas_price = 0.01;
  /// Clear (re-scan commitments for unrelayed packets) every N source
  /// blocks; 0 disables clearing — with a failed WebSocket frame this is
  /// what leaves packets permanently stuck (paper §V).
  std::int64_t clear_interval = 0;
  /// Paper §V: after a "Failed to collect events" frame, Hermes's event
  /// source enters a bad state and later transactions are not delivered
  /// either ("...but also impacts future transactions"). true reproduces
  /// that: event extraction from the failed chain stays disabled (height
  /// tracking and clearing still work). false models a fixed relayer.
  bool websocket_failure_sticky = true;
  /// Memoize data-pull responses (paper §VI's proposed mitigation). Off by
  /// default: the paper measured an uncached Hermes and the golden figures
  /// depend on every pull paying the serial-RPC scan cost.
  QueryCacheConfig query_cache;
  /// Skip chunk queries whose every sequence was already satisfied by
  /// ride-along events from an earlier whole-transaction response. Off by
  /// default: real Hermes issues the redundant queries, and the paper's
  /// Fig. 12 pull times were measured with them — this is a mitigation
  /// knob (exercised with the cache ablation), not a faithful behaviour.
  bool skip_satisfied_chunks = false;
  /// Non-redundant submit failures (and malformed-ack re-pulls) tolerated
  /// per packet per direction before the relayer gives up on it; abandoned
  /// packets surface in Stats::abandoned_packets instead of looping through
  /// clearing forever.
  int max_submit_failures = 3;
  /// Delay before re-pulling ack data after a malformed packet_ack event
  /// (decode failure); the fresh query usually returns an intact payload.
  sim::Duration ack_repull_backoff = sim::seconds(5);
  /// Crash-recovery: on start(), re-hydrate pending work from queryable
  /// chain state instead of assuming a clean slate. The relayer's packet
  /// table is in-memory only, so a restarted instance has lost every
  /// in-flight packet; with this on, start() scans the source chain's
  /// outstanding commitments (a clear pass) and the destination chain's
  /// recent write_acknowledgement events (the last 1000 blocks) to rebuild
  /// it. Off by default: a first start has nothing to recover and the
  /// extra queries would shift every seeded timeline.
  bool startup_rescan = false;
  /// Fleet coordination (mitigation for Fig. 9's redundant-work loss):
  /// partitions packet ownership across relayer instances. kNone by default
  /// — ICS-18 relayers race, exactly as the paper measured.
  CoordinationConfig coordination;
  /// Maximum fee (gas * gas_price) this instance will pay for a single
  /// recv-packet message; 0 = unlimited. A hop whose estimated relay fee
  /// exceeds the budget is left for better-funded instances.
  double per_hop_fee_budget = 0;
  /// Route-hop index this instance's 13-step records are tagged with (0 =
  /// the classic single-hop lane; hop h of a multi-hop route gets its own
  /// telemetry lane in the StepLog CSV and trace spans).
  std::uint16_t telemetry_hop = 0;
  WalletConfig wallet;  // accounts are filled per chain from ChainHandle
};

/// Outcome of a chunked data pull (Relayer::pull_chunks).
enum class PullResult : std::uint8_t {
  kComplete,        // every chunk was queried (or skipped as satisfied)
  kNothingToPull,   // degenerate empty sequence list — no query was issued
  kPartialFailure,  // at least one chunk query returned an error
};

class Relayer {
 public:
  Relayer(sim::Scheduler& sched, ChainHandle a, ChainHandle b, PathConfig path,
          RelayerConfig config, StepLog* step_log);
  ~Relayer();

  Relayer(const Relayer&) = delete;
  Relayer& operator=(const Relayer&) = delete;

  /// Subscribes to both chains and begins relaying.
  void start();
  void stop();

  /// Wires telemetry. Each worker lane gets a trace track under process
  /// `name` ("recv" and "ack/timeout"); every queued operation becomes a
  /// complete span covering assemble-through-submit, so relayer batch growth
  /// under load (paper Fig. 8) is visible on the timeline. Also binds the
  /// Stats and per-op counters and registers batch-size histograms.
  void set_telemetry(telemetry::Hub* hub, const std::string& name);

  struct Stats {
    std::uint64_t packets_relayed = 0;       // recv committed on dst
    std::uint64_t packets_completed = 0;     // ack committed on src
    std::uint64_t packets_timed_out = 0;     // timeout committed on src
    std::uint64_t redundant_errors = 0;      // "packet messages are redundant"
    std::uint64_t frames_failed = 0;         // "Failed to collect events"
    std::uint64_t recv_txs_failed = 0;
    std::uint64_t ack_txs_failed = 0;
    std::uint64_t chunk_queries = 0;          // paid data-pull chunk queries
    std::uint64_t chunk_queries_skipped = 0;  // satisfied by ride-alongs
    std::uint64_t pull_query_failures = 0;    // chunk queries that errored
    std::uint64_t ack_decode_failures = 0;    // malformed packet_ack payloads
    std::uint64_t abandoned_packets = 0;      // gave up after bounded retries
    std::uint64_t coordination_skipped = 0;   // packets owned by a peer
    std::uint64_t routing_skipped = 0;        // unserved channel / over budget
  };
  /// Reads the bound counters (a snapshot, not a live view).
  Stats stats() const;
  Wallet& wallet_a() { return *wallet_a_; }
  Wallet& wallet_b() { return *wallet_b_; }
  const QueryCache& query_cache() const { return cache_; }

  /// Pending-table occupancy by lifecycle stage — the sampler's per-stage
  /// probe columns (paper Fig. 8's backlog, split by where packets sit).
  struct StageCounts {
    std::size_t extracted = 0;
    std::size_t pulled = 0;
    std::size_t recv_in_flight = 0;
    std::size_t recv_done = 0;
    std::size_t ack_in_flight = 0;
    std::size_t done = 0;
    std::size_t timed_out = 0;
    std::size_t abandoned = 0;
    /// Entries still moving through the pipeline (non-terminal stages).
    std::size_t in_flight() const {
      return extracted + pulled + recv_in_flight + recv_done + ack_in_flight;
    }
  };
  StageCounts stage_counts() const;
  /// Operations held by worker lane 0 (recv) or 1 (ack/timeout): queued
  /// plus the one executing. A wedged lane shows as a depth that never
  /// drains.
  std::size_t lane_depth(int lane) const;
  /// Source-block age of the oldest packet still in flight (0 when the
  /// table has no non-terminal entry) — the stalled-packet watchdog input.
  chain::Height oldest_pending_blocks() const;

 private:
  // The relayer tracks each packet through these stages.
  enum class Stage : std::uint8_t {
    kExtracted,    // seen in a send_packet event
    kPulled,       // packet data retrieved
    kRecvInFlight, // recv tx broadcast
    kRecvDone,     // recv committed on dst
    kAckInFlight,  // ack tx broadcast
    kDone,         // ack committed on src (transfer complete)
    kTimedOut,     // MsgTimeout committed on src (refunded)
    kAbandoned,    // gave up after bounded retries (terminal; counted)
  };

  struct PacketState {
    Stage stage = Stage::kExtracted;
    chain::Height src_height = 0;   // block containing the send_packet event
    std::optional<ibc::Packet> packet;
    std::optional<ibc::Acknowledgement> ack;
    // Bounded-retry bookkeeping (per direction; see RelayerConfig caps).
    std::uint8_t recv_retries = 0;     // redundant-batch rebuilds
    std::uint8_t ack_retries = 0;
    std::uint8_t recv_failures = 0;    // non-redundant submit failures
    std::uint8_t ack_repulls = 0;      // malformed-ack re-pull attempts
    bool ack_decode_failed = false;    // last pull had an undecodable ack
    bool ack_tx_failed = false;        // ack broadcast failed; clear redrives
  };

  // Operations executed sequentially by the path worker. kRelay and kAck
  // pull their `seqs` at block `from`; kClear and kAckScan walk the block
  // window [from, to]; kTimeout, kRetryRecv and kRetryAck act on `seqs`.
  struct Op {
    enum class Kind {
      kRelay,
      kAck,
      kTimeout,
      kClear,
      kRetryRecv,
      kRetryAck,
      kAckScan,  // startup re-scan of dst write_acknowledgement events
    } kind;
    chain::Height from = 0;
    chain::Height to = 0;
    std::vector<ibc::Sequence> seqs;
  };

  // A packet message built for submission, with what its tx needs of it.
  struct LegMsg {
    ibc::Sequence seq = 0;
    chain::Height proof_height = 0;
    std::uint64_t extra_gas = 0;  // destination work beyond the handler
    chain::Msg msg;
  };

  // What the recv and ack legs differ in. Each proves packet state on its
  // source chain, updates the destination's client of that chain to every
  // proof height, and submits the packet messages behind those updates.
  struct Leg {
    rpc::Server* src;      // proves packet state and serves the headers
    Wallet* wallet;        // submits on the destination
    ibc::ClientId client;  // the destination's client of `src`
    // Store key (on `proof_channel`) whose existence the message proves.
    std::string (*proof_key)(const ibc::PortId&, const ibc::ChannelId&,
                             ibc::Sequence);
    ibc::ChannelId proof_channel;
    bool needs_ack;        // the message carries the decoded ack
    chain::Msg (*build)(const PacketState&,
                        const rpc::Server::AbciQueryResult&);
    Stage ready;           // packets are built in this stage...
    Stage in_flight;       // ...and move to this one at broadcast
    Step build_step;
    Step broadcast_step;
    std::uint64_t packet_gas;
    bool forward_gas;      // budget onward transfers of forward packets
    void (Relayer::*on_outcome)(const std::vector<ibc::Sequence>&,
                                const Wallet::SubmitOutcome&);
  };

  // Frame handling (Supervisor).
  void on_frame_a(const rpc::NewBlockFrame& frame);
  void on_frame_b(const rpc::NewBlockFrame& frame);

  // Worker loops. Hermes runs separate packet workers per direction of
  // work; we model that as two sequential pumps running concurrently: the
  // recv path (queries chain A, submits to B) and the ack/timeout path
  // (queries chain B, submits to A). Each pump is internally sequential —
  // blocks are handled in order, as the paper observes.
  void enqueue(Op op);
  void pump(int lane);
  void run_relay_batch(Op op, std::function<void()> done);
  void run_ack_batch(Op op, std::function<void()> done);
  void run_timeout_batch(Op op, std::function<void()> done);
  void run_clear(Op op, std::function<void()> done);
  /// Startup re-scan (RelayerConfig::startup_rescan): walks the destination
  /// chain's write_acknowledgement events over a height window and restores
  /// packets that were delivered but not yet acknowledged when the previous
  /// instance crashed, then drives their acks.
  void run_ack_scan(Op op, std::function<void()> done);

  // Relay-batch stages.
  void pull_chunks(rpc::Server* server, chain::Height height,
                   const std::string& event_type,
                   std::vector<ibc::Sequence> seqs, std::size_t chunk_index,
                   bool any_failed, std::function<void(PullResult)> done);

  /// True when every tracked sequence in seqs[begin, end) already has the
  /// data this pull is after (ride-along events from an earlier chunk's
  /// whole-transaction response).
  bool chunk_satisfied(const std::string& event_type,
                       const std::vector<ibc::Sequence>& seqs,
                       std::size_t begin, std::size_t end) const;

  /// Terminal give-up after bounded retries: counts, logs, and parks the
  /// packet in Stage::kAbandoned so no lane touches it again.
  void abandon_packet(ibc::Sequence seq, PacketState& ps, const char* why);

  /// Runs one relay leg over `seqs`: a proof query and the build CPU per
  /// packet, then txs of at most 100 packet messages, each behind one
  /// MsgUpdateClient per distinct proof height.
  void build_and_send(const Leg& leg, std::vector<ibc::Sequence> seqs,
                      std::function<void()> done);
  void on_recv_outcome(const std::vector<ibc::Sequence>& tx_seqs,
                       const Wallet::SubmitOutcome& out);
  void on_ack_outcome(const std::vector<ibc::Sequence>& tx_seqs,
                      const Wallet::SubmitOutcome& out);

  /// Fetches one MsgUpdateClient per height, in order, from `server`'s
  /// headers and hands them to `cb` (failed fetches are left out).
  void fetch_updates(rpc::Server* server, const ibc::ClientId& client,
                     std::vector<chain::Height> heights,
                     std::function<void(std::vector<chain::Msg>)> cb);

  void record(Step step, ibc::Sequence seq);
  void check_timeouts();
  /// The sequences of `seqs` whose tracked packet sits in `stage`.
  std::vector<ibc::Sequence> in_stage(const std::vector<ibc::Sequence>& seqs,
                                      Stage stage) const;
  /// Enqueues a clear pass over [1, height] once `clear_interval` source
  /// blocks have passed since the last one.
  void maybe_enqueue_clear(chain::Height height);

  /// Should this instance take on an unseen packet first observed at
  /// `height`? Checks the routing policy (fee_ok_), then coordination
  /// ownership, and counts the skip (routing_skipped / coordination_skipped)
  /// when not.
  bool adopts(ibc::Sequence seq, chain::Height height);

  /// Clears a self-referential step closure once its chain has finished
  /// (deferred one tick so the currently-executing function is not destroyed
  /// under itself). Without this the recursive shared_ptr<function> cycles
  /// leak.
  void release_later(std::shared_ptr<std::function<void()>> fn);

  /// `extra_gas` covers work the destination executes beyond the packet
  /// handler itself (e.g. the forward middleware's onward transfer).
  std::uint64_t estimate_gas(std::size_t updates, std::size_t packet_msgs,
                             std::uint64_t per_packet_gas,
                             std::uint64_t extra_gas = 0) const;

  sim::Scheduler& sched_;
  ChainHandle a_;
  ChainHandle b_;
  PathConfig path_;
  RelayerConfig config_;
  StepLog* step_log_;
  ibc::GasTable gas_;

  telemetry::Hub* hub_ = nullptr;
  telemetry::TrackId lane_track_[2] = {0, 0};
  telemetry::Histogram* relay_batch_hist_ = nullptr;
  telemetry::Histogram* ack_batch_hist_ = nullptr;
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* op_ctr_[7] = {};          // indexed by Op::Kind
  // The Stats counters; stats() reads them.
  telemetry::Counter* chunk_queries_ctr_ = nullptr;
  telemetry::Counter* chunks_skipped_ctr_ = nullptr;
  telemetry::Counter* pull_failures_ctr_ = nullptr;
  telemetry::Counter* ack_decode_failures_ctr_ = nullptr;
  telemetry::Counter* abandoned_ctr_ = nullptr;
  telemetry::Counter* relayed_ctr_ = nullptr;
  telemetry::Counter* completed_ctr_ = nullptr;
  telemetry::Counter* timed_out_ctr_ = nullptr;
  telemetry::Counter* redundant_ctr_ = nullptr;
  telemetry::Counter* frames_failed_ctr_ = nullptr;
  telemetry::Counter* recv_failed_ctr_ = nullptr;
  telemetry::Counter* ack_failed_ctr_ = nullptr;
  telemetry::Counter* routing_skipped_ctr_ = nullptr;
  telemetry::Counter* coordination_skipped_ctr_ = nullptr;
  std::string flight_name_;  // journal tag for the flight recorder

  QueryCache cache_;
  std::unique_ptr<Wallet> wallet_a_;
  std::unique_ptr<Wallet> wallet_b_;
  Leg recv_leg_;  // proves on A, submits to B
  Leg ack_leg_;   // proves on B, submits to A

  std::map<ibc::Sequence, PacketState> packets_;
  std::deque<Op> ops_[2];        // lane 0: relay/clear; lane 1: ack/timeout
  bool op_running_[2] = {false, false};
  // Bumped on every start(): a stop() mid-op drops the op's done()
  // continuation, so restart must clear op_running_ itself — and ignore any
  // straggler done() from the previous life that would unlock a lane the
  // new life is using.
  std::uint64_t lane_epoch_ = 0;
  bool running_ = false;
  CoordinationPolicy coordination_;
  bool fee_ok_ = true;       // estimated recv fee within per_hop_fee_budget
  rpc::Server::SubscriptionId sub_a_ = 0;
  rpc::Server::SubscriptionId sub_b_ = 0;
  chain::Height last_seen_a_height_ = 0;
  chain::Height last_seen_b_height_ = 0;
  chain::Height last_clear_height_ = 0;
  bool ws_wedged_a_ = false;  // §V sticky event-collection failure
  bool ws_wedged_b_ = false;
  std::set<ibc::Sequence> timeout_candidates_;
};

}  // namespace relayer
