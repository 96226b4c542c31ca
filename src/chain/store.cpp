#include "chain/store.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/profiler.hpp"

namespace chain {

crypto::Digest KvStore::entry_hash(std::string_view key,
                                   util::BytesView value) {
  // Exact historical byte layout: u32_be(key.size()) || key || value.
  std::uint8_t len[4];
  const auto n = static_cast<std::uint32_t>(key.size());
  len[0] = static_cast<std::uint8_t>(n >> 24);
  len[1] = static_cast<std::uint8_t>(n >> 16);
  len[2] = static_cast<std::uint8_t>(n >> 8);
  len[3] = static_cast<std::uint8_t>(n);
  crypto::Sha256 h;
  h.update(len, sizeof(len));
  h.update(key.data(), key.size());
  h.update(value.data(), value.size());
  return h.finalize();
}

std::uint64_t KvStore::hash_key(std::string_view key) {
  // FNV-1a 64. Not adversarial input; full key bytes are compared on match.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void KvStore::xor_into_root(const crypto::Digest& h) {
  for (std::size_t i = 0; i < root_.size(); ++i) root_[i] ^= h[i];
}

void KvStore::assign_value(Entry& e, util::Bytes&& value) {
  e.val_len = static_cast<std::uint32_t>(value.size());
  if (value.size() <= kInlineValue) {
    if (!value.empty()) {
      std::memcpy(e.inline_val.data(), value.data(), value.size());
    }
    e.spill = util::Bytes();  // release any previous spill allocation
  } else {
    e.spill = std::move(value);
  }
}

std::size_t KvStore::find_bucket(std::string_view key, std::uint64_t h) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t b = static_cast<std::size_t>(h) & mask;
  while (true) {
    const std::uint32_t idx = index_[b];
    if (idx == kNoEntry) return b;
    const Entry& e = entries_[idx];
    if (e.key_hash == h && key_of(e) == key) return b;
    b = (b + 1) & mask;
  }
}

std::uint32_t KvStore::find_entry(std::string_view key) const {
  if (index_.empty()) return kNoEntry;
  return index_[find_bucket(key, hash_key(key))];
}

void KvStore::grow_index(std::size_t min_buckets) {
  std::size_t cap = 16;
  while (cap < min_buckets) cap *= 2;
  index_.assign(cap, kNoEntry);
  const std::size_t mask = cap - 1;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!e.live) continue;
    std::size_t b = static_cast<std::size_t>(e.key_hash) & mask;
    while (index_[b] != kNoEntry) b = (b + 1) & mask;
    index_[b] = i;
  }
}

void KvStore::index_remove(std::size_t bucket) {
  // Backward-shift deletion keeps linear probe chains dense (no tombstones).
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = bucket;
  std::size_t i = bucket;
  while (true) {
    i = (i + 1) & mask;
    const std::uint32_t idx = index_[i];
    if (idx == kNoEntry) break;
    const std::size_t home =
        static_cast<std::size_t>(entries_[idx].key_hash) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = idx;
      hole = i;
    }
  }
  index_[hole] = kNoEntry;
}

void KvStore::maybe_compact() {
  // Erase/re-insert churn (packet commitments are deleted on ack) strands
  // dead entries and their arena keys; rebuild once they dominate.
  if (dead_count_ < 4096 || dead_count_ * 2 < live_count_) return;

  std::vector<Entry> new_entries;
  new_entries.reserve(live_count_);
  std::string new_arena;
  new_arena.reserve(key_arena_.size() - key_arena_.size() / 3);
  std::vector<std::uint32_t> remap(entries_.size(), kNoEntry);
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (!e.live) continue;
    const std::string_view k = key_of(e);
    remap[i] = static_cast<std::uint32_t>(new_entries.size());
    e.key_off = static_cast<std::uint32_t>(new_arena.size());
    new_arena.append(k);
    new_entries.push_back(std::move(e));
  }
  entries_ = std::move(new_entries);
  key_arena_ = std::move(new_arena);
  dead_count_ = 0;

  auto remap_list = [&remap](std::vector<std::uint32_t>& list) {
    std::size_t out = 0;
    for (const std::uint32_t idx : list) {
      if (remap[idx] != kNoEntry) list[out++] = remap[idx];
    }
    list.resize(out);
  };
  remap_list(sorted_);
  remap_list(unsorted_);
  sorted_dead_ = 0;
  for (WriteSet::Rec& r : open_.recs_) {
    if (r.entry != kNoEntry) r.entry = remap[r.entry];
  }
  grow_index(index_.size());
}

void KvStore::ensure_sorted() const {
  const bool purge_due = sorted_dead_ > 64 && sorted_dead_ * 4 > sorted_.size();
  if (unsorted_.empty() && !purge_due) return;

  auto key_less = [this](std::uint32_t a, std::uint32_t b) {
    return key_of(entries_[a]) < key_of(entries_[b]);
  };

  // Purge dead indices from both lists while we are touching them anyway.
  auto drop_dead = [this](std::vector<std::uint32_t>& list) {
    std::size_t out = 0;
    for (const std::uint32_t idx : list) {
      if (entries_[idx].live) list[out++] = idx;
    }
    list.resize(out);
  };
  drop_dead(sorted_);
  drop_dead(unsorted_);
  sorted_dead_ = 0;

  if (!unsorted_.empty()) {
    std::sort(unsorted_.begin(), unsorted_.end(), key_less);
    const std::size_t mid = sorted_.size();
    sorted_.insert(sorted_.end(), unsorted_.begin(), unsorted_.end());
    unsorted_.clear();
    // Append-heavy workloads (sequences, fresh commitments) often sort
    // entirely after the existing keys; skip the merge when they do.
    if (mid > 0 && key_less(sorted_[mid], sorted_[mid - 1])) {
      std::inplace_merge(sorted_.begin(), sorted_.begin() + mid, sorted_.end(),
                         key_less);
    }
  }
}

void KvStore::reserve(std::size_t expected_entries, std::size_t avg_key_bytes) {
  entries_.reserve(expected_entries);
  key_arena_.reserve(expected_entries * avg_key_bytes);
  if (expected_entries > 0) {
    std::size_t cap = 16;
    while (cap * 3 < expected_entries * 4) cap *= 2;
    if (cap > index_.size()) grow_index(cap);
  }
}

void KvStore::begin_tx() {
  journaling_ = true;
  journal_.clear();
}

void KvStore::commit_tx() {
  journaling_ = false;
  journal_.clear();
}

void KvStore::revert_tx() {
  journaling_ = false;
  // Undo in reverse order so repeated writes to one key restore correctly.
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    if (it->old_value.has_value()) {
      set(it->key, std::move(*it->old_value));
    } else {
      erase(it->key);
    }
  }
  journal_.clear();
}

void KvStore::journal_record(const std::string& key) {
  if (!journaling_) return;
  const std::uint32_t idx = find_entry(key);
  if (idx != kNoEntry) {
    const util::BytesView v = value_of(entries_[idx]);
    journal_.push_back(UndoEntry{key, util::Bytes(v.begin(), v.end())});
  } else {
    journal_.push_back(UndoEntry{key, std::nullopt});
  }
}

void KvStore::record_write(std::string_view key, std::uint32_t idx,
                           std::optional<util::BytesView> before) {
  entries_[idx].written = true;
  WriteSet::Rec r{};
  r.entry = idx;
  r.key_off = static_cast<std::uint32_t>(open_.keys_.size());
  r.key_len = static_cast<std::uint32_t>(key.size());
  open_.keys_.append(key);
  r.had_before = before.has_value();
  if (before) {
    r.before_off = static_cast<std::uint32_t>(open_.values_.size());
    r.before_len = static_cast<std::uint32_t>(before->size());
    open_.values_.insert(open_.values_.end(), before->begin(), before->end());
  }
  open_.recs_.push_back(r);
}

void KvStore::close_write_set() {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  WriteSet& out = closed_;
  out.complete_ = recording_;
  out.keys_.clear();
  out.values_.clear();
  out.recs_.clear();
  const auto append_value = [&out](util::BytesView v, std::uint32_t& off,
                                   std::uint32_t& len) {
    off = static_cast<std::uint32_t>(out.values_.size());
    len = static_cast<std::uint32_t>(v.size());
    out.values_.insert(out.values_.end(), v.begin(), v.end());
  };
  for (const WriteSet::Rec& r : open_.recs_) {
    const std::string_view key(open_.keys_.data() + r.key_off, r.key_len);
    const util::BytesView before(open_.values_.data() + r.before_off,
                                 r.before_len);
    std::optional<util::BytesView> after;
    // A live entry is the key's only one; after an erase, look the key up.
    std::uint32_t idx = r.entry;
    if (idx == kNoEntry || !entries_[idx].live) idx = find_entry(key);
    if (idx != kNoEntry) {
      Entry& e = entries_[idx];
      // Unmarked: an earlier record of this key already cleared the mark.
      // Later records of a key only arise from re-creation after an erase,
      // so the first one holds the value as of the last close.
      if (!e.written) continue;
      e.written = false;
      after = value_of(e);
    }
    if (r.had_before == after.has_value() &&
        (!after || std::equal(before.begin(), before.end(), after->begin(),
                              after->end()))) {
      continue;  // back to its value at the last close
    }
    WriteSet::Rec o{};
    o.key_off = static_cast<std::uint32_t>(out.keys_.size());
    o.key_len = r.key_len;
    out.keys_.append(key);
    o.had_before = r.had_before;
    if (r.had_before) append_value(before, o.before_off, o.before_len);
    o.has_after = after.has_value();
    if (after) append_value(*after, o.after_off, o.after_len);
    out.recs_.push_back(o);
  }
  open_.keys_.clear();
  open_.values_.clear();
  open_.recs_.clear();
  recording_ = true;
}

KvStore::Write KvStore::WriteSet::operator[](std::size_t i) const {
  const Rec& r = recs_[i];
  Write w;
  w.key = std::string_view(keys_.data() + r.key_off, r.key_len);
  if (r.had_before) {
    w.before = util::BytesView(values_.data() + r.before_off, r.before_len);
  }
  if (r.has_after) {
    w.after = util::BytesView(values_.data() + r.after_off, r.after_len);
  }
  return w;
}

void KvStore::set(const std::string& key, util::Bytes value) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  journal_record(key);
  if (index_.empty() || (live_count_ + 1) * 4 > index_.size() * 3) {
    grow_index(index_.empty() ? 16 : index_.size() * 2);
  }
  const std::uint64_t h = hash_key(key);
  const std::size_t bucket = find_bucket(key, h);
  std::uint32_t idx = index_[bucket];
  if (idx != kNoEntry) {
    Entry& e = entries_[idx];
    if (recording_ && !e.written) record_write(key, idx, value_of(e));
    xor_into_root(e.hash);  // remove old contribution, no rehash
    assign_value(e, std::move(value));
    e.hash = entry_hash(key, value_of(e));
    xor_into_root(e.hash);
    return;
  }
  idx = static_cast<std::uint32_t>(entries_.size());
  Entry e;
  e.key_off = static_cast<std::uint32_t>(key_arena_.size());
  e.key_len = static_cast<std::uint32_t>(key.size());
  e.key_hash = h;
  e.live = true;
  key_arena_.append(key);
  assign_value(e, std::move(value));
  e.hash = entry_hash(key, value_of(e));
  entries_.push_back(std::move(e));
  if (recording_) record_write(key, idx, std::nullopt);
  index_[bucket] = idx;
  unsorted_.push_back(idx);
  ++live_count_;
  xor_into_root(entries_[idx].hash);
}

void KvStore::erase(const std::string& key) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  journal_record(key);
  if (index_.empty()) return;
  const std::size_t bucket = find_bucket(key, hash_key(key));
  const std::uint32_t idx = index_[bucket];
  if (idx == kNoEntry) return;
  Entry& e = entries_[idx];
  if (recording_ && !e.written) record_write(key, idx, value_of(e));
  xor_into_root(e.hash);
  e.live = false;
  e.spill = util::Bytes();
  index_remove(bucket);
  --live_count_;
  ++dead_count_;
  ++sorted_dead_;
  maybe_compact();
}

std::optional<util::Bytes> KvStore::get(const std::string& key) const {
  const std::uint32_t idx = find_entry(key);
  if (idx == kNoEntry) return std::nullopt;
  const util::BytesView v = value_of(entries_[idx]);
  return util::Bytes(v.begin(), v.end());
}

std::optional<util::BytesView> KvStore::get_view(std::string_view key) const {
  const std::uint32_t idx = find_entry(key);
  if (idx == kNoEntry) return std::nullopt;
  return value_of(entries_[idx]);
}

bool KvStore::contains(const std::string& key) const {
  return find_entry(key) != kNoEntry;
}

KvStore::PrefixIter KvStore::scan_prefix(std::string_view prefix) const {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  ensure_sorted();
  const auto begin = std::lower_bound(
      sorted_.begin(), sorted_.end(), prefix,
      [this](std::uint32_t idx, std::string_view p) {
        return key_of(entries_[idx]) < p;
      });
  return PrefixIter(this, prefix,
                    static_cast<std::size_t>(begin - sorted_.begin()));
}

bool KvStore::PrefixIter::next() {
  while (pos_ < store_->sorted_.size()) {
    const std::uint32_t idx = store_->sorted_[pos_++];
    const auto& e = store_->entries_[idx];
    const std::string_view k = store_->key_of(e);
    if (k.size() < prefix_.size() ||
        k.compare(0, prefix_.size(), prefix_) != 0) {
      break;  // sorted order: once past the prefix, no more matches
    }
    if (!e.live) continue;
    cur_ = idx;
    return true;
  }
  pos_ = store_->sorted_.size();
  cur_ = 0xffffffffu;
  return false;
}

std::string_view KvStore::PrefixIter::key() const {
  return store_->key_of(store_->entries_[cur_]);
}

util::BytesView KvStore::PrefixIter::value() const {
  return store_->value_of(store_->entries_[cur_]);
}

std::vector<std::string> KvStore::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = scan_prefix(prefix); it.next();) {
    out.emplace_back(it.key());
  }
  return out;
}

StoreProof KvStore::prove(const std::string& key) const {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  StoreProof proof;
  proof.key = key;
  proof.root = root_;
  const std::uint32_t idx = find_entry(key);
  if (idx != kNoEntry) {
    proof.exists = true;
    const util::BytesView v = value_of(entries_[idx]);
    proof.value.assign(v.begin(), v.end());
  }
  proof.binding = store_proof_binding(key, proof.value, proof.exists, root_);
  return proof;
}

crypto::Digest store_proof_binding(const std::string& key,
                                   util::BytesView value, bool exists,
                                   const crypto::Digest& root) {
  static constexpr char kDomain[] = "store-proof/";
  crypto::Sha256 h;
  h.update(kDomain, sizeof(kDomain) - 1);
  h.update(key.data(), key.size());
  h.update(value.data(), value.size());
  const std::uint8_t e = exists ? 1 : 0;
  h.update(&e, 1);
  h.update(root.data(), root.size());
  return h.finalize();
}

bool verify_store_proof(const StoreProof& proof, const crypto::Digest& root) {
  if (proof.root != root) return false;
  return proof.binding ==
         store_proof_binding(proof.key, proof.value, proof.exists, proof.root);
}

}  // namespace chain
