#include "chain/mempool.hpp"

#include <limits>

namespace chain {

Mempool::Mempool(App& app, std::size_t max_txs)
    : app_(app), max_txs_(max_txs) {
  set_telemetry(nullptr, "");
}

void Mempool::set_telemetry(telemetry::Hub* hub, const std::string& name) {
  if (auto* r = telemetry::counter_store(hub, own_counters_)) {
    admitted_ctr_ = r->counter(name + ".admitted");
    full_ctr_ = r->counter(name + ".rejected_full");
    checktx_ctr_ = r->counter(name + ".rejected_checktx");
    recheck_ctr_ = r->counter(name + ".evicted_recheck");
  }
}

std::size_t Mempool::shard_for(const Address& sender) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : sender) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h) & (kShards - 1);
}

void Mempool::note_removed(const Item& item) {
  hashes_.erase(item.hash);
  --count_;
  const auto it = pending_per_sender_.find(item.tx.sender);
  if (it != pending_per_sender_.end() && --it->second == 0) {
    pending_per_sender_.erase(it);
  }
}

util::Status Mempool::add(const Tx& tx) {
  const TxHash hash = tx.hash();
  if (hashes_.contains(hash)) {
    return util::Status::error(util::ErrorCode::kAlreadyExists,
                               "tx already in mempool");
  }
  if (count_ >= max_txs_) {
    full_ctr_->add();
    return util::Status::error(util::ErrorCode::kResourceExhausted,
                               "mempool is full");
  }
  if (censor_ && censor_(tx)) {
    ++censored_;
    return util::Status::error(util::ErrorCode::kUnavailable,
                               "censored by mempool filter");
  }
  // Mempool-aware sequence check (the SDK's check-state): a sender may queue
  // consecutive sequences without waiting for commits. A gap or reuse still
  // fails with "account sequence mismatch".
  std::uint64_t pending_same_sender = 0;
  if (const auto it = pending_per_sender_.find(tx.sender);
      it != pending_per_sender_.end()) {
    pending_same_sender = it->second;
  }
  CheckTxResult res = app_.check_tx_pending(tx, pending_same_sender);
  if (!res.status.is_ok()) {
    checktx_ctr_->add();
    return res.status;
  }
  shards_[shard_for(tx.sender)].push_back(Item{tx, hash, next_ticket_++});
  hashes_.insert(hash);
  ++pending_per_sender_[tx.sender];
  ++count_;
  admitted_ctr_->add();
  return util::Status::ok();
}

std::vector<Tx> Mempool::reap(std::uint64_t max_gas,
                              std::size_t max_bytes) const {
  std::vector<Tx> out;
  std::uint64_t gas = 0;
  std::size_t bytes = 0;
  // Merge the shards back into global admission order by ticket; the
  // selection logic below then matches the unsharded FIFO loop exactly.
  std::array<std::size_t, kShards> cursor{};
  while (true) {
    int best = -1;
    std::uint64_t best_ticket = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < kShards; ++s) {
      if (cursor[s] >= shards_[s].size()) continue;
      const std::uint64_t t = shards_[s][cursor[s]].ticket;
      if (t < best_ticket) {
        best_ticket = t;
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    const Tx& tx = shards_[static_cast<std::size_t>(best)]
                       [cursor[static_cast<std::size_t>(best)]++]
                           .tx;
    if (gas + tx.gas_limit > max_gas && !out.empty()) break;
    if (bytes + tx.size_bytes() > max_bytes && !out.empty()) break;
    if (gas + tx.gas_limit > max_gas || bytes + tx.size_bytes() > max_bytes) {
      // A single oversized tx can never fit; skip it rather than stall.
      continue;
    }
    out.push_back(tx);
    gas += tx.gas_limit;
    bytes += tx.size_bytes();
  }
  return out;
}

void Mempool::update_after_commit(const std::vector<TxHash>& committed) {
  const std::unordered_set<TxHash, TxHashHasher> committed_hashes(
      committed.begin(), committed.end(), committed.size() * 2);

  // A sender maps to exactly one shard, so shard-local FIFO rechecks see
  // the same per-sender pending counts as a global FIFO pass would.
  for (auto& shard : shards_) {
    std::deque<Item> survivors;
    std::unordered_map<Address, std::uint64_t> pending_counts;
    for (Item& item : shard) {
      if (committed_hashes.contains(item.hash)) {
        note_removed(item);
        continue;
      }
      // Recheck against post-block state (pending-aware, preserving FIFO
      // chains of consecutive sequences); evict now-invalid txs.
      CheckTxResult res =
          app_.check_tx_pending(item.tx, pending_counts[item.tx.sender]);
      if (!res.status.is_ok()) {
        note_removed(item);
        recheck_ctr_->add();
        continue;
      }
      ++pending_counts[item.tx.sender];
      survivors.push_back(std::move(item));
    }
    shard = std::move(survivors);
  }
}

}  // namespace chain
