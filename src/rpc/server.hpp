#pragma once
// Tendermint-style RPC server for one full node.
//
// All request handlers run through a single-server sim::ServiceQueue —
// Tendermint cannot execute queries in parallel, and that serialization is
// the paper's central bottleneck. Every call models client->server and
// server->client network latency (loopback when the client is colocated,
// exactly the paper's recommended production deployment).
//
// Endpoints mirror the subset of the Tendermint RPC + Cosmos LCD surface the
// Hermes relayer and the paper's measurement tool exercise:
//   broadcast_tx_sync, tx (by hash), tx_search (by height, paginated),
//   packet-event queries (chunked, what Hermes data pulls use),
//   abci_query (store reads with proofs), status, and a WebSocket
//   new-block event subscription with the 16 MB frame limit.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chain/app.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "cosmos/app.hpp"
#include "net/network.hpp"
#include "rpc/cost_model.hpp"
#include "sim/scheduler.hpp"
#include "sim/service_queue.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace rpc {

/// A transaction as returned by query endpoints: location + execution result.
struct TxResponse {
  chain::TxHash hash{};
  chain::Height height = 0;
  std::uint32_t index = 0;
  chain::Tx tx;
  chain::DeliverTxResult result;

  /// Event payload size of this entry (drives marshal cost).
  std::size_t event_bytes() const { return result.encoded_size(); }
};

/// Result page for tx_search.
struct TxSearchPage {
  std::vector<TxResponse> txs;
  std::uint32_t total_count = 0;  // matches across all pages
};

/// One frame pushed on the new-block WebSocket subscription.
struct NewBlockFrame {
  chain::Height height = 0;
  sim::TimePoint block_time = 0;
  std::size_t tx_count = 0;
  /// False => the frame exceeded the 16 MB limit and the subscriber got
  /// "Failed to collect events" instead of the event list (paper §V).
  bool events_ok = true;
  std::size_t frame_bytes = 0;
  /// Flattened per-tx events (empty when events_ok is false).
  std::vector<chain::Event> events;
};

class Server {
 public:
  Server(sim::Scheduler& sched, net::Network& network, net::MachineId machine,
         chain::Ledger& ledger, chain::Mempool& mempool, cosmos::CosmosApp& app,
         CostModel cost = {}, std::uint64_t seed = 0x59C0FFEE);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  net::MachineId machine() const { return machine_; }
  const CostModel& cost_model() const { return cost_; }

  /// Wires telemetry. `track_name` names this server's trace track (e.g.
  /// "src.m0.rpc"); every endpoint's queue-wait and service time lands there,
  /// labelled by endpoint. Also binds request and websocket frame counters.
  void set_telemetry(telemetry::Hub* hub, const std::string& track_name);

  /// Concurrent-RPC mitigation: a pool of N query workers draining the
  /// shared FIFO (the paper's bottleneck is N=1 — Tendermint serializes
  /// query execution). Worker assignment is deterministic (lowest free
  /// index), so N=1 is byte-identical to the original serialized queue.
  void set_query_workers(std::size_t n) { queue_.set_servers(n); }
  std::size_t query_workers() const { return queue_.servers(); }

  /// Per-worker utilisation (completed jobs + busy time) for worker `w` in
  /// [0, query_workers()).
  sim::ServiceQueue::WorkerStats worker_stats(std::size_t w) const {
    return queue_.worker_stats(w);
  }

  /// Indexed tx_search mitigation: price packet-event queries off the
  /// ledger's commit-time packet-event index (the caller must also enable it
  /// on the Ledger). Results are unchanged — only service time drops.
  void set_indexed_tx_search(bool on) { cost_.indexed_tx_search = on; }

  /// Fault-injection hook for tests: runs on every packet-event query
  /// response (single-block and range form) after the page is assembled but
  /// before delivery. The hook may mutate the page (e.g. corrupt a
  /// packet_ack attribute) or return an error, which is delivered to the
  /// client in place of the page. Unset (the default) costs nothing.
  using QueryTamper = std::function<util::Status(TxSearchPage&)>;
  void set_query_tamper(QueryTamper tamper) { tamper_ = std::move(tamper); }

  // --- transaction submission -------------------------------------------
  /// CheckTx + mempool admission. The callback receives the admission
  /// status; kResourceExhausted/kUnavailable indicate an overloaded server.
  void broadcast_tx_sync(net::MachineId client, chain::Tx tx,
                         std::function<void(util::Status)> cb);

  // --- queries ------------------------------------------------------------
  /// Single transaction by hash (confirmation checks).
  void query_tx(net::MachineId client, chain::TxHash hash,
                std::function<void(util::Result<TxResponse>)> cb);

  /// All transactions in block `height`, paginated (`page` is 1-based).
  /// Models `tx_search tx.height=H` — the expensive full-data query the
  /// paper's data collection uses (§V).
  void tx_search_height(net::MachineId client, chain::Height height,
                        std::uint32_t page, std::uint32_t per_page,
                        std::function<void(util::Result<TxSearchPage>)> cb);

  /// Chunked packet-event query: the Hermes "data pull". Returns the txs in
  /// block `height` that contain events of `event_type` whose
  /// "packet_sequence" attribute falls in [seq_begin, seq_end]. Service cost
  /// scans the whole block's events and marshals the matches.
  void query_packet_events(net::MachineId client, chain::Height height,
                           const std::string& event_type,
                           std::uint64_t seq_begin, std::uint64_t seq_end,
                           std::function<void(util::Result<TxSearchPage>)> cb);

  /// Range variant used by packet clearing: scans every block in
  /// [height_begin, height_end] for matching packet events. Far more
  /// expensive than the single-block form — the indexer walks each block's
  /// event payload.
  void query_packet_events_range(
      net::MachineId client, chain::Height height_begin,
      chain::Height height_end, const std::string& event_type,
      std::uint64_t seq_begin, std::uint64_t seq_end,
      std::function<void(util::Result<TxSearchPage>)> cb);

  /// ABCI store query at the latest committed height; optionally with an
  /// existence proof. The callback also receives the height the data/proof
  /// commits to.
  struct AbciQueryResult {
    chain::Height height = 0;
    bool exists = false;
    util::Bytes value;
    chain::StoreProof proof;  // populated when prove=true
  };
  void abci_query(net::MachineId client, const std::string& key, bool prove,
                  std::function<void(util::Result<AbciQueryResult>)> cb);

  /// Keys under a store prefix (paginated upstream; full list here, the
  /// relayer chunks downstream). Used for packet clearing.
  void abci_query_prefix(net::MachineId client, const std::string& prefix,
                         std::function<void(std::vector<std::string>)> cb);

  /// Block header + the commit that finalized it + the post-execution app
  /// hash — everything a relayer needs to build a light-client update.
  struct HeaderInfo {
    chain::BlockHeader header;
    chain::Commit commit;
    crypto::Digest app_hash_after{};
  };
  void query_header(net::MachineId client, chain::Height height,
                    std::function<void(util::Result<HeaderInfo>)> cb);

  /// Node status: latest height and block time.
  struct StatusInfo {
    chain::Height height = 0;
    sim::TimePoint block_time = 0;
  };
  void status(net::MachineId client, std::function<void(StatusInfo)> cb);

  // --- WebSocket subscription ---------------------------------------------
  using SubscriptionId = std::uint64_t;
  using FrameCallback = std::function<void(const NewBlockFrame&)>;

  /// Subscribes to new-block event frames. Frames are pushed over the
  /// network to `client` as blocks commit.
  SubscriptionId subscribe_new_block(net::MachineId client, FrameCallback cb);
  void unsubscribe(SubscriptionId id);

  /// Wire this to consensus::Engine::subscribe_block.
  void on_block_committed(const chain::Block& block,
                          const std::vector<chain::DeliverTxResult>& results);

  // --- statistics ----------------------------------------------------------
  std::uint64_t requests_served() const { return queue_.completed(); }
  std::uint64_t requests_rejected() const { return queue_.rejected(); }
  sim::Duration busy_time() const { return queue_.total_busy_time(); }
  /// Requests currently held by this server: waiting in the FIFO plus in
  /// service — the sampler's per-endpoint queue-depth probe.
  std::size_t queue_depth() const {
    return queue_.queued() + queue_.in_service();
  }
  std::uint64_t frames_dropped_oversize() const {
    return frames_oversize_ctr_->value();
  }

 private:
  /// Round-trips a request: client->server latency, serialized service,
  /// server->client latency, then `deliver` runs at the client. When the
  /// request queue is full, `on_reject` runs instead (after the inbound
  /// latency). `label` (string literal) names the service span in traces.
  void roundtrip(net::MachineId client, std::uint64_t request_bytes,
                 std::function<sim::Duration()> service_cost,
                 std::uint64_t response_bytes_hint,
                 std::function<void()> deliver,
                 std::function<void()> on_reject,
                 const char* label = nullptr);

  TxResponse make_response(chain::Height height, std::uint32_t index) const;

  sim::Scheduler& sched_;
  net::Network& network_;
  net::MachineId machine_;
  chain::Ledger& ledger_;
  chain::Mempool& mempool_;
  cosmos::CosmosApp& app_;
  CostModel cost_;
  util::Rng rng_;
  sim::ServiceQueue queue_;

  /// Applies the configured service-time jitter to a base cost.
  sim::Duration jittered(sim::Duration base);

  struct Subscription {
    SubscriptionId id;
    net::MachineId client;
    FrameCallback cb;
  };
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_subscription_ = 1;
  QueryTamper tamper_;
  telemetry::Hub* hub_ = nullptr;  // flight-recorder journaling only
  std::string flight_name_;        // this endpoint's journal tag
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* frames_pushed_ctr_ = nullptr;
  telemetry::Counter* frames_oversize_ctr_ = nullptr;
};

}  // namespace rpc
