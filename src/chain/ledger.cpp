#include "chain/ledger.hpp"

#include <algorithm>
#include <cassert>

namespace chain {

void Ledger::append(Block block, std::vector<DeliverTxResult> results,
                    crypto::Digest app_hash_after, Commit seen_commit) {
  assert(block.header.height == height() + 1 &&
         "blocks must be appended in order");
  assert(results.size() == block.txs.size());
  auto rec = std::make_shared<CommittedBlock>();
  const Height h = block.header.height;
  rec->tx_hashes.reserve(block.txs.size());
  for (std::uint32_t i = 0; i < block.txs.size(); ++i) {
    rec->tx_hashes.push_back(block.txs[i].hash());
    tx_index_[rec->tx_hashes.back()] = TxLocation{h, i};
  }
  total_txs_ += block.txs.size();
  for (const DeliverTxResult& r : results) rec->event_bytes += r.encoded_size();
  rec->block = std::move(block);
  rec->results = std::move(results);
  rec->app_hash_after = app_hash_after;
  rec->seen_commit = std::move(seen_commit);
  blocks_.push_back(std::move(rec));
  if (packet_index_enabled_) {
    packet_index_.emplace_back();
    index_block(blocks_.size() - 1);
  }
}

void Ledger::index_block(std::size_t block_idx) {
  std::vector<PacketEventEntry>& rows = packet_index_[block_idx];
  const std::vector<DeliverTxResult>& results = blocks_[block_idx]->results;
  for (std::uint32_t i = 0; i < results.size(); ++i) {
    for (const Event& ev : results[i].events) {
      const std::string& seq_str = ev.attribute("packet_sequence");
      if (seq_str.empty()) continue;
      const auto [it, inserted] = event_type_ids_.try_emplace(
          ev.type, static_cast<std::uint32_t>(event_type_ids_.size()));
      rows.push_back(PacketEventEntry{it->second, parse_u64(seq_str), i});
    }
  }
  std::sort(rows.begin(), rows.end());
}

void Ledger::enable_packet_index() {
  if (packet_index_enabled_) return;
  packet_index_enabled_ = true;
  packet_index_.assign(blocks_.size(), {});
  for (std::size_t b = 0; b < blocks_.size(); ++b) index_block(b);
}

std::vector<std::uint32_t> Ledger::indexed_packet_txs(
    Height h, const std::string& event_type, std::uint64_t seq_begin,
    std::uint64_t seq_end) const {
  std::vector<std::uint32_t> out;
  if (h < 1 || static_cast<std::size_t>(h) > packet_index_.size()) return out;
  const auto type_it = event_type_ids_.find(event_type);
  if (type_it == event_type_ids_.end()) return out;
  const std::vector<PacketEventEntry>& rows =
      packet_index_[static_cast<std::size_t>(h - 1)];
  const auto lo = std::lower_bound(
      rows.begin(), rows.end(),
      PacketEventEntry{type_it->second, seq_begin, 0});
  for (auto it = lo; it != rows.end() && it->type_id == type_it->second &&
                     it->seq <= seq_end;
       ++it) {
    out.push_back(it->tx_index);
  }
  // A tx can emit several in-range events; the scan path reports each tx
  // once, in ascending tx order.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t Ledger::packet_index_entries(Height h) const {
  if (h < 1 || static_cast<std::size_t>(h) > packet_index_.size()) return 0;
  return packet_index_[static_cast<std::size_t>(h - 1)].size();
}

const CommittedBlock* Ledger::record(Height h) const {
  if (h < 1 || h > height()) return nullptr;
  return blocks_[static_cast<std::size_t>(h - 1)].get();
}

CommittedBlockPtr Ledger::committed(Height h) const {
  if (h < 1 || h > height()) return nullptr;
  return blocks_[static_cast<std::size_t>(h - 1)];
}

const Commit* Ledger::seen_commit(Height h) const {
  const CommittedBlock* r = record(h);
  return r ? &r->seen_commit : nullptr;
}

const Block* Ledger::block_at(Height h) const {
  const CommittedBlock* r = record(h);
  return r ? &r->block : nullptr;
}

const std::vector<DeliverTxResult>* Ledger::results_at(Height h) const {
  const CommittedBlock* r = record(h);
  return r ? &r->results : nullptr;
}

const crypto::Digest* Ledger::app_hash_after(Height h) const {
  const CommittedBlock* r = record(h);
  return r ? &r->app_hash_after : nullptr;
}

const TxLocation* Ledger::find_tx(const TxHash& hash) const {
  const auto it = tx_index_.find(hash);
  if (it == tx_index_.end()) return nullptr;
  return &it->second;
}

std::size_t Ledger::block_event_bytes(Height h) const {
  const CommittedBlock* r = record(h);
  return r ? r->event_bytes : 0;
}

std::vector<double> Ledger::block_intervals_seconds() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < blocks_.size(); ++i) {
    out.push_back(sim::to_seconds(blocks_[i]->block.header.time -
                                  blocks_[i - 1]->block.header.time));
  }
  return out;
}

}  // namespace chain
