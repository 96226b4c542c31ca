#pragma once
// Committed chain storage and transaction index.
//
// Holds the blocks the consensus engine commits, the DeliverTx results for
// every transaction (consumed by RPC `tx_search`-style queries — whose large
// response payloads are a core finding of the paper), and a hash -> location
// index.
//
// Committed data is immutable and shared: each block is one CommittedBlock
// record behind a shared_ptr, and RPC responses, WebSocket frames and
// relayer cache entries hold that pointer plus an index instead of copies.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "chain/app.hpp"
#include "chain/block.hpp"

namespace chain {

struct TxLocation {
  Height height = 0;
  std::uint32_t index = 0;
};

/// One row of the opt-in packet-event index: an event of type `type_id`
/// carrying packet_sequence `seq`, emitted by transaction `tx_index` of its
/// block. Rows are kept sorted by (type_id, seq, tx_index) per block so
/// lookups are a binary search plus a contiguous walk of the matches.
struct PacketEventEntry {
  std::uint32_t type_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t tx_index = 0;

  friend bool operator<(const PacketEventEntry& a, const PacketEventEntry& b) {
    if (a.type_id != b.type_id) return a.type_id < b.type_id;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.tx_index < b.tx_index;
  }
};

/// One committed block as the ledger keeps it. Never modified after
/// append(); readers share it by pointer, so it outlives the ledger's own
/// vectors growing and stays valid for as long as any response holds it.
struct CommittedBlock {
  Block block;
  std::vector<DeliverTxResult> results;  // index-aligned with block.txs
  std::vector<TxHash> tx_hashes;         // index-aligned; hashed once here
  std::size_t event_bytes = 0;           // sum of results' encoded sizes
  crypto::Digest app_hash_after{};
  Commit seen_commit;
};

using CommittedBlockPtr = std::shared_ptr<const CommittedBlock>;

class Ledger {
 public:
  explicit Ledger(ChainId chain_id) : chain_id_(std::move(chain_id)) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  const ChainId& chain_id() const { return chain_id_; }

  /// Appends a committed block plus its execution results; `results` must be
  /// index-aligned with `block.txs`. `seen_commit` is the +2/3 precommit set
  /// that committed this block (Tendermint's block store keeps the same for
  /// serving light clients before block h+1 exists).
  void append(Block block, std::vector<DeliverTxResult> results,
              crypto::Digest app_hash_after, Commit seen_commit);

  /// The commit that finalized block `h` (nullptr if not committed).
  const Commit* seen_commit(Height h) const;

  Height height() const { return static_cast<Height>(blocks_.size()); }

  /// The shared record of block `h` (null for heights not yet committed).
  CommittedBlockPtr committed(Height h) const;

  /// 1-based access; returns nullptr for heights not yet committed.
  const Block* block_at(Height h) const;
  const std::vector<DeliverTxResult>* results_at(Height h) const;

  /// App state root after executing block `h` (what a light client tracks).
  const crypto::Digest* app_hash_after(Height h) const;

  /// Looks up a transaction by hash.
  const TxLocation* find_tx(const TxHash& hash) const;

  /// Total encoded size of the DeliverTx events of block `h`; this is the
  /// payload the WebSocket pushes to subscribers and the quantity checked
  /// against the 16 MB frame limit (paper §V).
  std::size_t block_event_bytes(Height h) const;

  /// Total transactions committed so far.
  std::uint64_t total_txs() const { return total_txs_; }

  /// Block interval series (time between consecutive headers) for Fig. 7.
  std::vector<double> block_intervals_seconds() const;

  // --- packet-event index (indexed tx_search mitigation) -------------------
  // Tendermint's tx indexer re-scans a block's full event payload for every
  // query — the superlinear cost the paper measures in §V. The mitigation
  // maintains a height → (event type, packet_sequence) → tx index at commit
  // time, so packet-event queries cost O(result page). Off by default; the
  // query results are identical either way (only the modelled service time
  // changes), which the equivalence property test pins.

  /// Turns the index on, retroactively indexing already-committed blocks;
  /// subsequent append() calls maintain it incrementally.
  void enable_packet_index();
  bool packet_index_enabled() const { return packet_index_enabled_; }

  /// Tx indices in block `h` with at least one `event_type` event whose
  /// packet_sequence lies in [seq_begin, seq_end] — ascending and unique,
  /// byte-identical to what the full scan produces.
  std::vector<std::uint32_t> indexed_packet_txs(Height h,
                                                const std::string& event_type,
                                                std::uint64_t seq_begin,
                                                std::uint64_t seq_end) const;

  /// Total index rows for block `h` (diagnostics / cost assertions).
  std::size_t packet_index_entries(Height h) const;

 private:
  void index_block(std::size_t block_idx);
  /// Record of block `h`, or nullptr for heights not yet committed.
  const CommittedBlock* record(Height h) const;

  ChainId chain_id_;
  std::vector<CommittedBlockPtr> blocks_;
  std::map<TxHash, TxLocation> tx_index_;
  std::uint64_t total_txs_ = 0;
  bool packet_index_enabled_ = false;
  std::map<std::string, std::uint32_t> event_type_ids_;
  std::vector<std::vector<PacketEventEntry>> packet_index_;  // per block
};

}  // namespace chain
