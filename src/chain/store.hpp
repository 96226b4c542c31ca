#pragma once
// Application key-value store with a commitment root.
//
// The Cosmos SDK keeps module state in Merkle-ised KV stores whose root goes
// into the block header (app_hash) and against which IBC proofs are checked.
// We keep an *incrementally maintained set-hash* root:
// root = XOR over entries of SHA-256(key || value). The XOR set-hash updates
// in O(1) per mutation and is deterministic; it loses Merkle path proofs, so
// existence proofs are issued explicitly via prove()/verify_proof() below,
// which bind (key, value, root-at-height) — sufficient for the simulator's
// honest-node verification semantics (substitution noted in DESIGN.md).
//
// Layout (memory-lean, DESIGN.md "Memory-lean state store"): entries live in
// a flat arena indexed by an open-addressing hash table; key bytes are
// appended to a shared key arena and small values are stored inline in the
// entry, so a typical (key, u64) pair costs no per-entry heap allocation.
// Ordered prefix scans run over a lazily maintained sorted view of the entry
// indices. The bytes fed to the set-hash are identical to the historical
// std::map layout, so roots, proofs and golden traces are unchanged.
//
// Write-set: every close_write_set() (the app calls it at each block commit)
// publishes the keys whose value changed since the previous close, with
// their values before and after. Consumers such as the invariant checker
// advance per-block models in O(writes) instead of rescanning the state.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace chain {

/// Existence (or non-existence) proof for a key under a store root.
struct StoreProof {
  std::string key;
  util::Bytes value;       // empty + exists=false => non-existence proof
  bool exists = false;
  crypto::Digest root{};   // the root this proof commits to
  crypto::Digest binding{};  // H(key || value || exists || root)
};

class KvStore {
 public:
  KvStore() = default;

  void set(const std::string& key, util::Bytes value);
  void erase(const std::string& key);
  std::optional<util::Bytes> get(const std::string& key) const;

  /// Zero-copy view of a stored value. Invalidated by any mutation.
  std::optional<util::BytesView> get_view(std::string_view key) const;

  bool contains(const std::string& key) const;

  /// All keys with the given prefix, in lexicographic order (copies; prefer
  /// scan_prefix() in hot paths).
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  /// Allocation-free ordered scan over keys sharing a prefix:
  ///   for (auto it = store.scan_prefix("bank/bal/"); it.next();)
  ///     use(it.key(), it.value());
  /// The referenced prefix and the store must outlive the iterator; any
  /// store mutation invalidates it.
  class PrefixIter {
   public:
    bool next();
    std::string_view key() const;
    util::BytesView value() const;

   private:
    friend class KvStore;
    PrefixIter(const KvStore* store, std::string_view prefix, std::size_t pos)
        : store_(store), prefix_(prefix), pos_(pos) {}
    const KvStore* store_;
    std::string_view prefix_;
    std::size_t pos_;
    std::uint32_t cur_ = 0xffffffffu;
  };
  PrefixIter scan_prefix(std::string_view prefix) const;

  /// Visits every live entry as fn(key, value), in no particular order and
  /// without building the sorted view: for full sweeps whose result does
  /// not depend on order. The store must not be mutated during the visit.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.live) fn(key_of(e), value_of(e));
    }
  }

  std::size_t size() const { return live_count_; }

  /// Pre-sizes the entry arena, hash index and key arena for an expected
  /// total entry count (bulk-load fast path).
  void reserve(std::size_t expected_entries, std::size_t avg_key_bytes = 32);

  /// Current commitment root (incremental set-hash).
  const crypto::Digest& root() const { return root_; }

  /// Issues a proof of (non-)existence of `key` under the current root.
  StoreProof prove(const std::string& key) const;

  // --- transaction journal ----------------------------------------------
  // Cosmos reverts all state writes of a failing transaction. begin_tx()
  // starts recording undo entries; revert_tx() restores the pre-tx state;
  // commit_tx() discards the journal. Nesting is not supported.
  void begin_tx();
  void commit_tx();
  void revert_tx();
  bool in_tx() const { return journaling_; }

  // --- per-commit write-set ---------------------------------------------
  /// One key whose value differs between two consecutive closes.
  struct Write {
    std::string_view key;
    std::optional<util::BytesView> before;  // nullopt: absent at the older
    std::optional<util::BytesView> after;   // nullopt: absent at the newer
  };

  /// The diff between the last two close_write_set() calls, in first-write
  /// order. Keys written back to their earlier value (reverted txs, set to
  /// the same bytes, created then erased) are not in it. Reading does not
  /// consume it: it stays readable, unchanged, until the next close.
  class WriteSet {
   public:
    /// False until the store has been closed twice: the first close has no
    /// earlier commit to diff against (genesis state is not recorded).
    bool complete() const { return complete_; }
    std::size_t size() const { return recs_.size(); }
    Write operator[](std::size_t i) const;

   private:
    friend class KvStore;
    struct Rec {
      std::uint32_t key_off, key_len;
      std::uint32_t before_off, before_len;
      std::uint32_t after_off, after_len;
      std::uint32_t entry;  // open interval: the entry written
      bool had_before, has_after;
    };
    bool complete_ = false;
    std::string keys_;
    util::Bytes values_;
    std::vector<Rec> recs_;
  };

  /// Ends the current write interval: publishes its net changes as
  /// write_set() and starts recording the next interval.
  void close_write_set();
  const WriteSet& write_set() const { return closed_; }

 private:
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  /// Values up to this many bytes live inline in the entry (covers u64
  /// balances/sequences and 32-byte commitments/acks).
  static constexpr std::size_t kInlineValue = 32;

  struct Entry {
    std::uint32_t key_off = 0;
    std::uint32_t key_len = 0;
    std::uint32_t val_len = 0;
    bool live = false;
    bool written = false;  // key already recorded in the open write interval
    std::uint64_t key_hash = 0;
    std::array<std::uint8_t, kInlineValue> inline_val{};
    util::Bytes spill;  // value bytes when val_len > kInlineValue
    // Cached SHA-256 contribution to the set-hash root, so overwriting a
    // key hashes only the new value (and erasing hashes nothing) instead
    // of rehashing the old value to back it out.
    crypto::Digest hash{};
  };

  static crypto::Digest entry_hash(std::string_view key,
                                   util::BytesView value);
  static std::uint64_t hash_key(std::string_view key);
  void xor_into_root(const crypto::Digest& h);

  std::string_view key_of(const Entry& e) const {
    return std::string_view(key_arena_.data() + e.key_off, e.key_len);
  }
  util::BytesView value_of(const Entry& e) const {
    const std::uint8_t* p =
        e.val_len <= kInlineValue ? e.inline_val.data() : e.spill.data();
    return util::BytesView(p, e.val_len);
  }
  static void assign_value(Entry& e, util::Bytes&& value);

  /// Bucket holding `key`, or the empty bucket where it would be inserted.
  std::size_t find_bucket(std::string_view key, std::uint64_t h) const;
  std::uint32_t find_entry(std::string_view key) const;
  void grow_index(std::size_t min_buckets);
  void index_remove(std::size_t bucket);
  void maybe_compact();
  void ensure_sorted() const;

  void journal_record(const std::string& key);
  /// First write to entry `idx`'s key in the open interval: marks the entry
  /// and records the key's value as of the last close (nullopt: new key).
  void record_write(std::string_view key, std::uint32_t idx,
                    std::optional<util::BytesView> before);

  std::vector<Entry> entries_;
  std::string key_arena_;
  std::vector<std::uint32_t> index_;  // bucket -> entry idx (kNoEntry = free)
  std::size_t live_count_ = 0;
  std::size_t dead_count_ = 0;
  crypto::Digest root_{};

  // Lazily maintained lexicographic view: `sorted_` holds entry indices in
  // key order (possibly including entries erased since the last rebuild);
  // `unsorted_` holds indices inserted since. ensure_sorted() merges and
  // purges on demand, so pure write workloads never pay for ordering.
  mutable std::vector<std::uint32_t> sorted_;
  mutable std::vector<std::uint32_t> unsorted_;
  mutable std::size_t sorted_dead_ = 0;

  struct UndoEntry {
    std::string key;
    std::optional<util::Bytes> old_value;  // nullopt = key did not exist
  };
  bool journaling_ = false;
  std::vector<UndoEntry> journal_;

  // Open write interval: one record per key first written since the last
  // close, with that key's value then. A key erased and re-created within
  // the interval gets a second record (the re-created entry is unmarked);
  // close_write_set() keeps the first. Keys are copied and entry indices
  // follow compaction, so it cannot strand a record. Off until the first
  // close.
  bool recording_ = false;
  WriteSet open_;
  WriteSet closed_;
};

/// Verifies a proof against an expected root (e.g. the app_hash a light
/// client tracked for the proof's height).
bool verify_store_proof(const StoreProof& proof, const crypto::Digest& root);

/// Recomputes the binding digest for a proof's fields.
crypto::Digest store_proof_binding(const std::string& key,
                                   util::BytesView value, bool exists,
                                   const crypto::Digest& root);

}  // namespace chain
