#include "xcc/analysis.hpp"

#include "ibc/host.hpp"
#include "ibc/msgs.hpp"

namespace xcc {

CompletionBreakdown Analyzer::completion_breakdown(
    std::uint64_t requested) const {
  CompletionBreakdown out;
  out.requested = requested;

  const chain::KvStore& store_a = testbed_.chain(channel_.chain_x).app->store();
  const chain::KvStore& store_b = testbed_.chain(channel_.chain_y).app->store();

  // Highest sequence ever assigned on the channel.
  const auto next_send_raw = store_a.get(
      ibc::host::next_sequence_send_key(ibc::kTransferPort, channel_.channel_a));
  ibc::Sequence next_send = 1;
  if (next_send_raw && next_send_raw->size() == 8) {
    next_send = util::read_u64_be(*next_send_raw, 0);
  }
  const std::uint64_t initiated = next_send - 1;
  out.uncommitted = requested > initiated ? requested - initiated : 0;

  for (ibc::Sequence s = 1; s < next_send; ++s) {
    const bool commitment_present = store_a.contains(
        ibc::host::packet_commitment_key(ibc::kTransferPort,
                                         channel_.channel_a, s));
    const bool received = store_b.contains(ibc::host::packet_receipt_key(
        ibc::kTransferPort, channel_.channel_b, s));
    if (received && !commitment_present) {
      ++out.completed;
    } else if (received && commitment_present) {
      ++out.partial;
    } else if (!received && commitment_present) {
      ++out.initiated_only;
    } else {
      // Neither receipt nor commitment: the commitment was deleted by a
      // MsgTimeout (refund path).
      ++out.timed_out;
    }
  }
  return out;
}

std::uint64_t Analyzer::included_transfers(chain::Height h_begin,
                                           chain::Height h_end) const {
  const chain::Ledger& ledger = *testbed_.chain(channel_.chain_x).ledger;
  std::uint64_t count = 0;
  for (chain::Height h = h_begin + 1; h <= std::min(h_end, ledger.height());
       ++h) {
    const chain::Block* block = ledger.block_at(h);
    const auto* results = ledger.results_at(h);
    if (!block || !results) continue;
    for (std::size_t i = 0; i < block->txs.size(); ++i) {
      if (!(*results)[i].status.is_ok()) continue;
      for (const chain::Msg& m : block->txs[i].msgs) {
        if (m.type_url == ibc::kMsgTransferUrl) ++count;
      }
    }
  }
  return count;
}

std::vector<double> Analyzer::block_intervals(chain::Height h_begin,
                                              chain::Height h_end) const {
  const chain::Ledger& ledger = *testbed_.chain(channel_.chain_x).ledger;
  std::vector<double> out;
  for (chain::Height h = std::max<chain::Height>(h_begin + 1, 2);
       h <= std::min(h_end, ledger.height()); ++h) {
    const chain::Block* cur = ledger.block_at(h);
    const chain::Block* prev = ledger.block_at(h - 1);
    if (cur && prev) {
      out.push_back(sim::to_seconds(cur->header.time - prev->header.time));
    }
  }
  return out;
}

double Analyzer::window_seconds(chain::Height h_begin,
                                chain::Height h_end) const {
  const chain::Ledger& ledger = *testbed_.chain(channel_.chain_x).ledger;
  const chain::Block* b0 = ledger.block_at(std::max<chain::Height>(h_begin, 1));
  const chain::Block* b1 = ledger.block_at(std::min(h_end, ledger.height()));
  if (!b0 || !b1) return 0.0;
  return sim::to_seconds(b1->header.time - b0->header.time);
}

}  // namespace xcc
