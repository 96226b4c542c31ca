#pragma once
// Relayer-side query cache (paper §VI's proposed mitigation, measured here).
//
// The paper finds 69% of cross-chain processing time inside relayer data
// pulls because Tendermint's serial RPC re-scans a block's whole event
// payload for every chunked tx_search (§IV-B), and §VI suggests caching
// pulled data as a remedy without quantifying it. QueryCache is that remedy:
// a height-keyed memoization layer in front of the three read endpoints the
// relayer hammers — packet-event pages, headers and ABCI proof queries.
//
// Semantics:
//   * Pages and headers are keyed by (server, height, ...) and are immutable
//     once the block is committed, so they never expire; ABCI store queries
//     answer at the *latest* height, so their entries are invalidated as
//     soon as the relayer observes a newer block on that chain
//     (on_height_advance).
//   * Entries live under one LRU byte budget; inserting past the budget
//     evicts from the cold end.
//   * A hit skips the RPC round trip entirely and delivers a copy of the
//     response after CostModel::cache_hit_cost of local work — the server's
//     request queue never sees the request, which is exactly the relief the
//     paper predicts for its serial-RPC bottleneck.
//
// Disabled (the default, paper-faithful mode) the cache is a zero-state
// pass-through: every call forwards verbatim to the server, no counters
// move, and simulation timing is untouched — the golden figures depend on
// this.

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <tuple>
#include <variant>

#include "rpc/server.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace relayer {

struct QueryCacheConfig {
  /// Off by default: the paper measured an uncached Hermes, and the golden
  /// figures assume the serial-RPC scan cost on every pull.
  bool enabled = false;
  /// LRU byte budget over estimated response sizes.
  std::size_t max_bytes = 8 * 1024 * 1024;
};

class QueryCache {
 public:
  QueryCache(sim::Scheduler& sched, QueryCacheConfig config)
      : sched_(sched), config_(config) {
    set_telemetry(nullptr, "");
  }

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  const QueryCacheConfig& config() const { return config_; }

  /// Binds hit/miss/eviction counters under `<name>.query_cache.*` and a
  /// "query_cache" trace track carrying one complete span per hit (misses
  /// show up as the usual rpc spans they fall through to).
  void set_telemetry(telemetry::Hub* hub, const std::string& name);

  // --- memoizing wrappers over the rpc::Server read endpoints --------------
  void query_packet_events(
      rpc::Server& server, net::MachineId client, chain::Height height,
      const std::string& event_type, std::uint64_t seq_begin,
      std::uint64_t seq_end,
      std::function<void(util::Result<rpc::TxSearchPage>)> cb);

  void query_header(
      rpc::Server& server, net::MachineId client, chain::Height height,
      std::function<void(util::Result<rpc::Server::HeaderInfo>)> cb);

  void abci_query(
      rpc::Server& server, net::MachineId client, const std::string& key,
      bool prove,
      std::function<void(util::Result<rpc::Server::AbciQueryResult>)> cb);

  /// The relayer observed `height` on `server`'s chain: every ABCI entry for
  /// that server answering at an older height is stale (store queries read
  /// the latest committed state) and is dropped.
  void on_height_advance(const rpc::Server& server, chain::Height height);

  /// Drops one cached page (used when a consumer finds the payload
  /// undecodable — a fresh pull should not be answered from the bad copy).
  void invalidate_page(const rpc::Server& server, chain::Height height,
                       const std::string& event_type, std::uint64_t seq_begin,
                       std::uint64_t seq_end);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;      // LRU byte-budget pressure
    std::uint64_t invalidations = 0;  // height advance + explicit drops
    /// ABCI responses whose payload height was already below the observed
    /// chain height when they completed — never cached (see abci_query).
    std::uint64_t stale_rejections = 0;
    std::size_t bytes = 0;            // current estimated footprint

    void merge(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      insertions += o.insertions;
      evictions += o.evictions;
      invalidations += o.invalidations;
      stale_rejections += o.stale_rejections;
      bytes += o.bytes;
    }
  };
  /// Reads the bound counters (a snapshot, not a live view).
  Stats stats() const;

 private:
  enum class Kind : std::uint8_t { kPage = 0, kHeader, kAbci };

  struct Key {
    const void* server = nullptr;
    Kind kind = Kind::kPage;
    chain::Height height = 0;       // page/header height; kAbci keys at 0
    std::uint64_t lo = 0;           // page sequence range
    std::uint64_t hi = 0;
    bool prove = false;             // kAbci only
    std::string extra;              // page: event type; kAbci: store key

    auto tie() const {
      return std::tie(server, kind, height, lo, hi, prove, extra);
    }
    bool operator<(const Key& o) const { return tie() < o.tie(); }
  };

  using Payload = std::variant<rpc::TxSearchPage, rpc::Server::HeaderInfo,
                               rpc::Server::AbciQueryResult>;

  struct Entry {
    Key key;
    std::size_t bytes = 0;
    Payload payload;
  };
  using Index = std::map<Key, std::list<Entry>::iterator>;

  /// LRU touch + lookup; nullptr on miss.
  const Entry* lookup(const Key& key);
  void insert(Key key, Payload payload, std::size_t bytes);
  Index::iterator erase(Index::iterator it);
  void evict_coldest();

  /// Books a hit and delivers `deliver` after cache_hit_cost of local work.
  void serve_hit(const rpc::Server& server, const char* what,
                 std::function<void()> deliver);

  sim::Scheduler& sched_;
  QueryCacheConfig config_;
  std::list<Entry> lru_;  // front = hottest
  Index index_;
  std::size_t bytes_ = 0;  // estimated footprint of the cached entries
  /// Latest chain height observed per server (on_height_advance). ABCI
  /// responses answering below this watermark are stale by the time they
  /// arrive and must not be cached: an in-flight query started before a
  /// height advance completes after it — a reorder the concurrent-RPC
  /// worker pool makes routine — and on_height_advance has already run, so
  /// the stale entry would survive until the *next* advance, serving hits.
  std::map<const void*, chain::Height> observed_height_;

  telemetry::Hub* hub_ = nullptr;
  telemetry::TrackId track_ = 0;
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* hits_ctr_ = nullptr;
  telemetry::Counter* misses_ctr_ = nullptr;
  telemetry::Counter* evictions_ctr_ = nullptr;
  telemetry::Counter* invalidations_ctr_ = nullptr;
  telemetry::Counter* insertions_ctr_ = nullptr;
  telemetry::Counter* stale_rejections_ctr_ = nullptr;
  telemetry::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace relayer
