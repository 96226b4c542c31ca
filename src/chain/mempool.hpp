#pragma once
// Transaction mempool.
//
// Admission runs the application's CheckTx (ante handler), which enforces
// the account-sequence rule that limits each account to one in-flight
// transaction — the Cosmos behaviour the paper works around with multiple
// user accounts (§III-D). Reaping selects transactions FIFO up to the block
// gas and byte limits.
//
// The pool is sender-sharded for large depths: admission appends to the
// sender's shard in O(1) (duplicate detection via a hash set, per-sender
// pending counts via a map instead of a pool scan), each item caches its
// tx hash so recheck never re-encodes pooled transactions, and a global
// admission ticket lets reap() k-way-merge the shards back into the exact
// FIFO admission order — proposals are byte-identical to the unsharded
// implementation.

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "chain/app.hpp"
#include "chain/tx.hpp"
#include "telemetry/telemetry.hpp"
#include "util/status.hpp"

namespace chain {

class Mempool {
 public:
  /// `max_txs` bounds the pool; additions beyond it fail with
  /// RESOURCE_EXHAUSTED (mempool full).
  Mempool(App& app, std::size_t max_txs);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// CheckTx + admission. Duplicates (by hash) are rejected.
  util::Status add(const Tx& tx);

  /// Censorship fault injection: while set, any tx for which the predicate
  /// returns true is refused admission (UNAVAILABLE), as if every node's
  /// mempool filtered it. Pass nullptr to lift the censorship window.
  void set_censor(std::function<bool(const Tx&)> censor) {
    censor_ = std::move(censor);
  }
  std::uint64_t censored() const { return censored_; }

  /// Selects transactions for a proposal, FIFO, while both budgets hold.
  /// Does not remove them (they leave the pool on commit).
  std::vector<Tx> reap(std::uint64_t max_gas, std::size_t max_bytes) const;

  /// Drops committed transactions and re-checks the remainder against the
  /// post-block state (stale sequence numbers get evicted, as in Tendermint's
  /// recheck).
  void update_after_commit(const std::vector<Tx>& committed);

  std::size_t size() const { return count_; }
  bool contains(const TxHash& hash) const { return hashes_.contains(hash); }

  std::uint64_t rejected_full() const { return full_ctr_->value(); }
  std::uint64_t rejected_checktx() const { return checktx_ctr_->value(); }
  std::uint64_t evicted_recheck() const { return recheck_ctr_->value(); }

  /// Binds the admission counters under `<name>.`: admitted / rejected_full
  /// / rejected_checktx (the paper's "account sequence mismatch" class) /
  /// evicted_recheck. Call before the first add().
  void set_telemetry(telemetry::Hub* hub, const std::string& name);

 private:
  static constexpr std::size_t kShards = 16;

  struct Item {
    Tx tx;
    TxHash hash;            // cached: recheck never re-encodes the tx
    std::uint64_t ticket;   // global admission order
  };

  struct TxHashHasher {
    std::size_t operator()(const TxHash& h) const {
      std::size_t v;  // sha256 output is uniform; any 8 bytes suffice
      std::memcpy(&v, h.data(), sizeof(v));
      return v;
    }
  };

  static std::size_t shard_for(const Address& sender);
  void note_removed(const Item& item);

  App& app_;
  std::size_t max_txs_;
  std::array<std::deque<Item>, kShards> shards_;
  std::unordered_set<TxHash, TxHashHasher> hashes_;
  std::unordered_map<Address, std::uint64_t> pending_per_sender_;
  std::uint64_t next_ticket_ = 0;
  std::size_t count_ = 0;
  std::function<bool(const Tx&)> censor_;
  std::uint64_t censored_ = 0;
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* admitted_ctr_ = nullptr;
  telemetry::Counter* full_ctr_ = nullptr;
  telemetry::Counter* checktx_ctr_ = nullptr;
  telemetry::Counter* recheck_ctr_ = nullptr;
};

}  // namespace chain
