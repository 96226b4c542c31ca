#include "check/invariant.hpp"

#include <cstdlib>
#include <iterator>

#include "ibc/client.hpp"
#include "ibc/connection.hpp"
#include "ibc/host.hpp"
#include "ibc/packet.hpp"
#include "ibc/transfer.hpp"
#include "util/bytes.hpp"

namespace check {

namespace {

/// The packet fields carried by every life-cycle event (acknowledge/timeout
/// events omit packet_data, so this is a lighter parse than
/// ibc::packet_from_event).
struct PacketRef {
  ibc::Sequence sequence = 0;
  std::string src_port, src_channel, dst_port, dst_channel;
  std::string_view data;  // into the event; "" when the event omits it
};

bool parse_packet_event(const chain::Event& ev, PacketRef& out) {
  // One pass over the attributes (send_packet alone fires once per
  // transfer); as with Event::attribute, the first occurrence of a key wins.
  static constexpr std::string_view kKeys[] = {
      "packet_sequence", "packet_src_port",    "packet_src_channel",
      "packet_dst_port", "packet_dst_channel", "packet_data"};
  const std::string* found[std::size(kKeys)] = {};
  for (const auto& [key, value] : ev.attributes) {
    for (std::size_t i = 0; i < std::size(kKeys); ++i) {
      if (found[i] == nullptr && key == kKeys[i]) {
        found[i] = &value;
        break;
      }
    }
  }
  const auto field = [&found](std::size_t i) -> std::string_view {
    return found[i] != nullptr ? std::string_view(*found[i]) : "";
  };
  if (field(0).empty()) return false;
  char* end = nullptr;
  out.sequence = std::strtoull(found[0]->c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out.src_port = field(1);
  out.src_channel = field(2);
  out.dst_port = field(3);
  out.dst_channel = field(4);
  out.data = field(5);
  return !out.src_port.empty() && !out.src_channel.empty() &&
         !out.dst_port.empty() && !out.dst_channel.empty();
}

bool parse_transfer_data(std::string_view raw,
                         ibc::FungibleTokenPacketData& out) {
  return ibc::FungibleTokenPacketData::from_json(
      util::BytesView(reinterpret_cast<const std::uint8_t*>(raw.data()),
                      raw.size()),
      out);
}

/// True when a trace path re-enters the channel it came from (the ICS-20
/// "returning" test: burn-on-send / unescrow-on-recv).
bool is_returning(std::string_view denom_path, std::string_view port,
                  std::string_view channel) {
  // Prefix "<port>/<channel>/", matched piecewise (runs once per send).
  const std::size_t n = port.size() + channel.size() + 2;
  return denom_path.size() > n && denom_path.starts_with(port) &&
         denom_path[port.size()] == '/' &&
         denom_path.substr(port.size() + 1).starts_with(channel) &&
         denom_path[n - 1] == '/';
}

/// The denom a trace path is held under locally: the base denom at the
/// origin zone, a voucher hash everywhere else.
std::string held_denom(const std::string& denom_path) {
  if (denom_path.find('/') == std::string::npos) return denom_path;
  return ibc::voucher_denom(denom_path);
}

std::string chan_str(const std::string& port, const std::string& channel) {
  return port + "/" + channel;
}

// Store prefixes the store model follows. Balance keys are
// "bank/bal/<addr>|<denom>", channel ends
// "ibc/channelEnds/ports/<port>/channels/<channel>", client states
// "ibc/clients/<client>/clientState".
constexpr std::string_view kBalancePrefix = "bank/bal/";
constexpr std::string_view kSupplyPrefix = "bank/supply/";
constexpr std::string_view kChannelEndPrefix = "ibc/channelEnds/ports/";
constexpr std::string_view kClientPrefix = "ibc/clients/";
constexpr std::string_view kClientStateSuffix = "/clientState";

/// A balance as BankKeeper stores it (8-byte big-endian u64); absent or
/// other-sized values count 0.
std::uint64_t stored_amount(const std::optional<util::BytesView>& v) {
  return v && v->size() == 8 ? util::read_u64_be(*v, 0) : 0;
}

}  // namespace

void InvariantChecker::StoreModel::apply(
    std::string_view key, const std::optional<util::BytesView>& before,
    const std::optional<util::BytesView>& after) {
  if (key.starts_with(kBalancePrefix)) {
    const std::size_t sep = key.find('|', kBalancePrefix.size());
    if (sep == std::string_view::npos) return;
    // Wrapping u64, like summing the balances afresh.
    bank_sums[std::string(key.substr(sep + 1))] +=
        stored_amount(after) - stored_amount(before);
  } else if (key.starts_with(kSupplyPrefix)) {
    bank_sums.try_emplace(std::string(key.substr(kSupplyPrefix.size())), 0);
  } else if (key.starts_with(kChannelEndPrefix)) {
    const std::size_t marker = key.find("/channels/", kChannelEndPrefix.size());
    if (marker == std::string_view::npos) return;
    if (!after) {
      channel_ends.erase(std::string(key));
      return;
    }
    channel_ends.try_emplace(
        std::string(key),
        std::string(key.substr(kChannelEndPrefix.size(),
                               marker - kChannelEndPrefix.size())),
        std::string(key.substr(marker + 10)));
  } else if (key.starts_with(kClientPrefix)) {
    // Consensus-state entries share the prefix.
    if (key.size() <= kClientPrefix.size() + kClientStateSuffix.size() ||
        !key.ends_with(kClientStateSuffix)) {
      return;
    }
    if (!after) {
      clients.erase(std::string(key));
      return;
    }
    clients.try_emplace(
        std::string(key),
        key.substr(kClientPrefix.size(), key.size() - kClientPrefix.size() -
                                             kClientStateSuffix.size()));
  }
}

std::string Violation::to_string() const {
  return "[" + chain + " @" + std::to_string(height) + "] " + invariant +
         ": " + detail;
}

InvariantViolation::InvariantViolation(const Violation& v)
    : std::runtime_error("IBC invariant violated " + v.to_string()),
      violation(v) {}

bool InvariantChecker::SeqWindow::insert(ibc::Sequence s) {
  if (contains(s)) return false;
  if (s == contiguous + 1) {
    ++contiguous;
    // Absorb any sparse sequences that became contiguous.
    auto it = sparse.begin();
    while (it != sparse.end() && *it == contiguous + 1) {
      ++contiguous;
      it = sparse.erase(it);
    }
  } else {
    sparse.insert(s);
  }
  return true;
}

bool InvariantChecker::SeqWindow::contains(ibc::Sequence s) const {
  return (s >= 1 && s <= contiguous) || sparse.count(s) > 0;
}

InvariantChecker::InvariantChecker(std::vector<ChainHandles> chains,
                                   CheckerConfig config)
    : config_(config), chains_(chains.size()) {
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains_[i].h = chains[i];
    chain_index_[chains_[i].h.id] = i;
    chains_[i].h.engine->subscribe_block(
        [this, i](const chain::Block& block,
                  const std::vector<chain::DeliverTxResult>& results) {
          on_block(i, block, results);
        });
  }
}

InvariantChecker::InvariantChecker(ChainHandles a, ChainHandles b,
                                   CheckerConfig config)
    : InvariantChecker(std::vector<ChainHandles>{a, b}, config) {}

InvariantChecker::ChainState* InvariantChecker::counterparty_of(
    ChainState& c, const std::string& port, const std::string& channel,
    chain::Height height) {
  ibc::ChannelKeeper channels(c.h.app->store());
  auto end = channels.get(port, channel);
  if (!end.is_ok()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " has no channel end");
    return nullptr;
  }
  ibc::ConnectionKeeper connections(c.h.app->store());
  auto conn = connections.get(end.value().connection);
  if (!conn.is_ok()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " references missing connection " +
             end.value().connection);
    return nullptr;
  }
  ibc::ClientKeeper clients(c.h.app->store());
  auto client = clients.client_state(conn.value().client_id);
  if (!client.is_ok()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " references missing client " +
             conn.value().client_id);
    return nullptr;
  }
  const auto it = chain_index_.find(client.value().chain_id);
  if (it == chain_index_.end()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " client tracks unknown chain " +
             client.value().chain_id);
    return nullptr;
  }
  return &chains_[it->second];
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += v.to_string();
    out += '\n';
  }
  if (overflowed_) out += "(further violations suppressed)\n";
  return out;
}

void InvariantChecker::fail(const chain::ChainId& chain, chain::Height height,
                            std::string invariant, std::string detail) {
  Violation v{std::move(invariant), chain, height, std::move(detail)};
  if (hook_) hook_(v);
  if (config_.fail_fast) throw InvariantViolation(v);
  if (violations_.size() >= config_.max_violations) {
    overflowed_ = true;
    return;
  }
  violations_.push_back(std::move(v));
}

void InvariantChecker::on_block(
    std::size_t chain_idx, const chain::Block& block,
    const std::vector<chain::DeliverTxResult>& results) {
  ChainState& c = chains_[chain_idx];
  const chain::Height height = block.header.height;
  ++blocks_checked_;

  check_account_sequences(c, block, results);
  for (const chain::DeliverTxResult& res : results) {
    if (!res.status.is_ok()) continue;  // failed txs mutate nothing
    process_events(c, height, res.events);
  }
  advance_model(c);
  check_channel_counters(c, height);
  check_client_heights(c, height);
  check_bank_conservation(c, height);
  check_escrow_model(c, height);
}

InvariantChecker::StoreModel InvariantChecker::sweep_store(
    const ChainState& c) const {
  // Order-free: the sums commute and the maps order themselves, so the
  // sweep needs no sorted view of the store.
  StoreModel m;
  c.h.app->store().for_each(
      [&m](std::string_view key, util::BytesView value) {
        m.apply(key, std::nullopt, value);
      });
  return m;
}

void InvariantChecker::advance_model(ChainState& c) {
  const chain::KvStore::WriteSet& writes = c.h.app->store().write_set();
  if (!c.seeded || !writes.complete()) {
    c.model = sweep_store(c);
    c.seeded = true;
    return;
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const chain::KvStore::Write w = writes[i];
    c.model.apply(w.key, w.before, w.after);
  }
}

std::size_t InvariantChecker::cross_check() {
  std::size_t drifts = 0;
  for (ChainState& c : chains_) {
    if (!c.seeded) continue;
    const StoreModel fresh = sweep_store(c);
    const chain::Height height = c.h.app->current_height();
    const auto drift = [&](const std::string& detail) {
      ++drifts;
      fail(c.h.id, height, "checker-drift", detail);
    };
    for (const auto& [denom, sum] : fresh.bank_sums) {
      const auto it = c.model.bank_sums.find(denom);
      if (it == c.model.bank_sums.end()) {
        drift("denom " + denom + " missing from the incremental model");
      } else if (it->second != sum) {
        drift("denom " + denom + ": incremental balance sum " +
              std::to_string(it->second) + ", sweep " + std::to_string(sum));
      }
    }
    for (const auto& [denom, sum] : c.model.bank_sums) {
      if (sum != 0 && !fresh.bank_sums.contains(denom)) {
        drift("denom " + denom + ": incremental balance sum " +
              std::to_string(sum) + ", sweep finds no keys");
      }
    }
    const auto compare_keys = [&](const auto& model, const auto& swept,
                                  const std::string& what) {
      for (const auto& [key, value] : swept) {
        if (!model.contains(key)) {
          drift(what + " " + key + " missing from the incremental model");
        }
      }
      for (const auto& [key, value] : model) {
        if (!swept.contains(key)) {
          drift(what + " " + key +
                " in the incremental model but not the store");
        }
      }
    };
    compare_keys(c.model.channel_ends, fresh.channel_ends, "channel end");
    compare_keys(c.model.clients, fresh.clients, "client state");
  }
  return drifts;
}

void InvariantChecker::process_events(ChainState& c, chain::Height height,
                                      const std::vector<chain::Event>& events) {
  ibc::ChannelKeeper channels(c.h.app->store());
  for (std::size_t ev_idx = 0; ev_idx < events.size(); ++ev_idx) {
    const chain::Event& ev = events[ev_idx];
    if (ev.type != "send_packet" && ev.type != "recv_packet" &&
        ev.type != "write_acknowledgement" &&
        ev.type != "acknowledge_packet" && ev.type != "timeout_packet") {
      continue;
    }
    PacketRef p;
    if (!parse_packet_event(ev, p)) {
      fail(c.h.id, height, "event-format",
           "unparseable packet event " + ev.type);
      continue;
    }

    if (ev.type == "send_packet") {
      ChannelTrack& ch = c.channels[{p.src_port, p.src_channel}];
      if (p.sequence != ch.last_send + 1) {
        fail(c.h.id, height, "send-sequence-gap",
             chan_str(p.src_port, p.src_channel) + " sent sequence " +
                 std::to_string(p.sequence) + ", expected " +
                 std::to_string(ch.last_send + 1));
      }
      if (p.sequence > ch.last_send) ch.last_send = p.sequence;

      ibc::FungibleTokenPacketData data;
      if (p.src_port == ibc::kTransferPort &&
          parse_transfer_data(p.data, data)) {
        PendingTransfer pending{data.amount, data.denom,
                                is_returning(data.denom, p.src_port,
                                             p.src_channel)};
        if (pending.returning) {
          // Voucher burnt on send; supply shrinks until refund (if any).
          auto& supply = c.voucher_supply[ibc::voucher_denom(data.denom)];
          if (supply < data.amount) {
            fail(c.h.id, height, "token-conservation",
                 "burnt more " + data.denom + " than was ever minted");
            supply = 0;
          } else {
            supply -= data.amount;
          }
        } else {
          c.escrow[{ibc::escrow_address(p.src_port, p.src_channel),
                    held_denom(data.denom)}] += data.amount;
        }
        // Sends run in sequence order, so the end is the insertion point.
        ch.pending.insert_or_assign(ch.pending.end(), p.sequence,
                                    std::move(pending));
      }

    } else if (ev.type == "recv_packet") {
      ChannelTrack& ch = c.channels[{p.dst_port, p.dst_channel}];
      const ibc::Sequence prev_contiguous = ch.recvs.contiguous;
      if (!ch.recvs.insert(p.sequence)) {
        fail(c.h.id, height, "exactly-once-recv",
             chan_str(p.dst_port, p.dst_channel) + " received sequence " +
                 std::to_string(p.sequence) + " twice");
      }
      // The counterparty must have sent it first (commits are totally
      // ordered in virtual time, so its send event was already observed).
      if (ChainState* other =
              counterparty_of(c, p.dst_port, p.dst_channel, height)) {
        const ChannelTrack& src =
            other->channels[{p.src_port, p.src_channel}];
        if (p.sequence > src.last_send) {
          fail(c.h.id, height, "recv-unsent",
               chan_str(p.dst_port, p.dst_channel) + " received sequence " +
                   std::to_string(p.sequence) +
                   " but counterparty only sent " +
                   std::to_string(src.last_send));
        }
      }
      auto end = channels.get(p.dst_port, p.dst_channel);
      if (end.is_ok() &&
          end.value().ordering == ibc::ChannelOrdering::kOrdered &&
          p.sequence != prev_contiguous + 1) {
        fail(c.h.id, height, "ordered-delivery",
             chan_str(p.dst_port, p.dst_channel) + " delivered sequence " +
                 std::to_string(p.sequence) + " out of order (expected " +
                 std::to_string(prev_contiguous + 1) + ")");
      }

      // When the acknowledgement is deferred past this transaction (async
      // ack, packet-forward middleware), the mint/unescrow has already
      // happened here at recv: account for it optimistically and remember
      // to reverse if the eventual ack reports failure.
      ibc::FungibleTokenPacketData data;
      if (p.dst_port == ibc::kTransferPort &&
          parse_transfer_data(p.data, data)) {
        bool acked_in_tx = false;
        const std::string seq_str = std::to_string(p.sequence);
        for (std::size_t j = ev_idx + 1; j < events.size(); ++j) {
          if (events[j].type == "write_acknowledgement" &&
              events[j].attribute("packet_sequence") == seq_str &&
              events[j].attribute("packet_dst_port") == p.dst_port &&
              events[j].attribute("packet_dst_channel") == p.dst_channel) {
            acked_in_tx = true;
            break;
          }
        }
        if (!acked_in_tx) {
          account_recv_success(c, p.src_port, p.src_channel, p.dst_port,
                               p.dst_channel, data.amount, data.denom,
                               height);
          ch.async_recv[p.sequence] = AsyncRecv{data.amount, data.denom};
        }
      }

    } else if (ev.type == "write_acknowledgement") {
      ChannelTrack& ch = c.channels[{p.dst_port, p.dst_channel}];
      ibc::Acknowledgement ack;
      const std::string& raw = ev.attribute("packet_ack");
      if (!ibc::Acknowledgement::decode(util::to_bytes(raw), ack)) {
        fail(c.h.id, height, "event-format",
             "undecodable packet_ack for sequence " +
                 std::to_string(p.sequence));
        continue;
      }
      ch.ack_success[p.sequence] = ack.success;

      const auto async_it = ch.async_recv.find(p.sequence);
      if (async_it != ch.async_recv.end()) {
        // Deferred ack resolving: the recv already accounted optimistically;
        // a failure means the middleware unwound its delivery (burn /
        // re-escrow) in this same transaction, so reverse the model too.
        if (!ack.success && p.dst_port == ibc::kTransferPort) {
          const AsyncRecv& ar = async_it->second;
          if (is_returning(ar.denom_path, p.src_port, p.src_channel)) {
            const std::string inner = ar.denom_path.substr(
                p.src_port.size() + p.src_channel.size() + 2);
            c.escrow[{ibc::escrow_address(p.dst_port, p.dst_channel),
                      held_denom(inner)}] += ar.amount;
          } else {
            const std::string path =
                p.dst_port + "/" + p.dst_channel + "/" + ar.denom_path;
            auto& supply = c.voucher_supply[ibc::voucher_denom(path)];
            if (supply < ar.amount) {
              fail(c.h.id, height, "token-conservation",
                   "unwound more " + ar.denom_path +
                       " than the deferred recv minted");
              supply = 0;
            } else {
              supply -= ar.amount;
            }
          }
        }
        ch.async_recv.erase(async_it);
      } else {
        ibc::FungibleTokenPacketData data;
        if (ack.success && p.dst_port == ibc::kTransferPort &&
            parse_transfer_data(p.data, data)) {
          account_recv_success(c, p.src_port, p.src_channel, p.dst_port,
                               p.dst_channel, data.amount, data.denom,
                               height);
        }
      }

    } else if (ev.type == "acknowledge_packet") {
      ChannelTrack& ch = c.channels[{p.src_port, p.src_channel}];
      if (!ch.acks.insert(p.sequence)) {
        fail(c.h.id, height, "exactly-once-ack",
             chan_str(p.src_port, p.src_channel) + " acknowledged sequence " +
                 std::to_string(p.sequence) + " twice");
      }
      if (ch.timeouts.contains(p.sequence)) {
        fail(c.h.id, height, "ack-after-timeout",
             chan_str(p.src_port, p.src_channel) + " sequence " +
                 std::to_string(p.sequence) +
                 " acknowledged after timing out");
      }
      ChainState* other =
          counterparty_of(c, p.src_port, p.src_channel, height);
      bool wrote_ack = false, ack_ok = false;
      if (other != nullptr) {
        const ChannelTrack& dst =
            other->channels[{p.dst_port, p.dst_channel}];
        const auto outcome = dst.ack_success.find(p.sequence);
        wrote_ack = outcome != dst.ack_success.end();
        ack_ok = wrote_ack && outcome->second;
        if (!wrote_ack) {
          fail(c.h.id, height, "ack-without-write",
               chan_str(p.src_port, p.src_channel) + " sequence " +
                   std::to_string(p.sequence) +
                   " acknowledged but counterparty never wrote an ack");
        }
      }
      const auto pending = ch.pending.find(p.sequence);
      if (pending != ch.pending.end()) {
        const bool success = ack_ok;
        if (!success) {
          // Failed transfer: the module refunds the sender.
          if (pending->second.returning) {
            c.voucher_supply[ibc::voucher_denom(pending->second.denom_path)] +=
                pending->second.amount;
          } else {
            auto& escrow = c.escrow[{
                ibc::escrow_address(p.src_port, p.src_channel),
                held_denom(pending->second.denom_path)}];
            if (escrow < pending->second.amount) {
              fail(c.h.id, height, "token-conservation",
                   "refunded more than remained in escrow for " +
                       chan_str(p.src_port, p.src_channel));
              escrow = 0;
            } else {
              escrow -= pending->second.amount;
            }
          }
        }
        ch.pending.erase(pending);
      }

    } else {  // timeout_packet
      ChannelTrack& ch = c.channels[{p.src_port, p.src_channel}];
      if (!ch.timeouts.insert(p.sequence)) {
        fail(c.h.id, height, "exactly-once-timeout",
             chan_str(p.src_port, p.src_channel) + " timed out sequence " +
                 std::to_string(p.sequence) + " twice");
      }
      if (ch.acks.contains(p.sequence)) {
        fail(c.h.id, height, "timeout-after-ack",
             chan_str(p.src_port, p.src_channel) + " sequence " +
                 std::to_string(p.sequence) + " timed out after an ack");
      }
      if (ChainState* other =
              counterparty_of(c, p.src_port, p.src_channel, height)) {
        const ChannelTrack& dst =
            other->channels[{p.dst_port, p.dst_channel}];
        if (dst.recvs.contains(p.sequence)) {
          fail(c.h.id, height, "timeout-after-recv",
               chan_str(p.src_port, p.src_channel) + " sequence " +
                   std::to_string(p.sequence) +
                   " timed out although the counterparty received it");
        }
      }
      const auto pending = ch.pending.find(p.sequence);
      if (pending != ch.pending.end()) {
        if (pending->second.returning) {
          c.voucher_supply[ibc::voucher_denom(pending->second.denom_path)] +=
              pending->second.amount;
        } else {
          auto& escrow = c.escrow[{
              ibc::escrow_address(p.src_port, p.src_channel),
              held_denom(pending->second.denom_path)}];
          if (escrow < pending->second.amount) {
            fail(c.h.id, height, "token-conservation",
                 "timeout refunded more than remained in escrow for " +
                     chan_str(p.src_port, p.src_channel));
            escrow = 0;
          } else {
            escrow -= pending->second.amount;
          }
        }
        ch.pending.erase(pending);
      }
    }
  }
}

void InvariantChecker::account_recv_success(
    ChainState& c, const std::string& src_port, const std::string& src_channel,
    const std::string& dst_port, const std::string& dst_channel,
    std::uint64_t amount, const std::string& denom_path,
    chain::Height height) {
  if (is_returning(denom_path, src_port, src_channel)) {
    // Token came home: the local escrow released the inner denom.
    const std::string inner =
        denom_path.substr(src_port.size() + src_channel.size() + 2);
    auto& escrow = c.escrow[{ibc::escrow_address(dst_port, dst_channel),
                             held_denom(inner)}];
    if (escrow < amount) {
      fail(c.h.id, height, "token-conservation",
           "unescrowed more " + inner + " than was escrowed");
      escrow = 0;
    } else {
      escrow -= amount;
    }
  } else {
    // We are the sink: the trace extends by this hop, so a denom forwarded
    // A->B->C and one sent A->C directly mint *different* vouchers.
    const std::string path = dst_port + "/" + dst_channel + "/" + denom_path;
    c.voucher_supply[ibc::voucher_denom(path)] += amount;
  }
}

void InvariantChecker::check_account_sequences(
    ChainState& c, const chain::Block& block,
    const std::vector<chain::DeliverTxResult>& results) {
  const chain::Height height = block.header.height;
  // (sender -> txs in this block), plus per-sender sequences consumed by
  // successful txs (a repeat would be a double-spent account sequence).
  std::map<chain::Address, std::uint64_t> tx_count;
  std::map<chain::Address, std::set<std::uint64_t>> consumed;
  for (std::size_t i = 0; i < block.txs.size() && i < results.size(); ++i) {
    const chain::Tx& tx = block.txs[i];
    ++tx_count[tx.sender];
    if (!results[i].status.is_ok()) continue;
    if (!consumed[tx.sender].insert(tx.sequence).second) {
      fail(c.h.id, height, "account-sequence-reuse",
           tx.sender + " executed two txs with sequence " +
               std::to_string(tx.sequence) + " in one block");
    }
  }
  for (const auto& [sender, count] : tx_count) {
    const std::uint64_t now = c.h.app->auth().sequence(sender);
    const auto it = c.auth_seq.find(sender);
    if (it != c.auth_seq.end()) {
      if (now < it->second) {
        fail(c.h.id, height, "account-sequence-decrease",
             sender + " sequence went from " + std::to_string(it->second) +
                 " to " + std::to_string(now));
      } else if (now - it->second > count) {
        fail(c.h.id, height, "account-sequence-overrun",
             sender + " sequence advanced by " +
                 std::to_string(now - it->second) + " with only " +
                 std::to_string(count) + " txs in the block");
      }
    }
    c.auth_seq[sender] = now;
  }
}

void InvariantChecker::check_channel_counters(ChainState& c,
                                              chain::Height height) {
  ibc::ChannelKeeper channels(c.h.app->store());
  for (const auto& [key, ref] : c.model.channel_ends) {
    const auto& [port, channel] = ref;
    auto end_res = channels.get(port, channel);
    if (!end_res.is_ok()) continue;
    const ibc::ChannelEnd& end = end_res.value();
    const ibc::Sequence s = channels.next_sequence_send(port, channel);
    const ibc::Sequence r = channels.next_sequence_recv(port, channel);
    const ibc::Sequence a = channels.next_sequence_ack(port, channel);

    ChannelTrack& ch = c.channels[{port, channel}];
    if (s < ch.snap_send || r < ch.snap_recv || a < ch.snap_ack) {
      fail(c.h.id, height, "sequence-monotonicity",
           chan_str(port, channel) + " counters regressed: send " +
               std::to_string(ch.snap_send) + "->" + std::to_string(s) +
               ", recv " + std::to_string(ch.snap_recv) + "->" +
               std::to_string(r) + ", ack " + std::to_string(ch.snap_ack) +
               "->" + std::to_string(a));
    }
    ch.snap_send = s;
    ch.snap_recv = r;
    ch.snap_ack = a;

    if (end.phase != ibc::ChannelPhase::kOpen &&
        end.phase != ibc::ChannelPhase::kClosed) {
      continue;  // counters are installed when the channel opens
    }
    if (s < 1 || r < 1 || a < 1) {
      fail(c.h.id, height, "sequence-monotonicity",
           chan_str(port, channel) + " open with uninitialized counters");
      continue;
    }
    // Counters must agree with the event history: sends allocate strictly
    // contiguous sequences...
    if (s != ch.last_send + 1) {
      fail(c.h.id, height, "send-counter-mismatch",
           chan_str(port, channel) + " nextSequenceSend " +
               std::to_string(s) + " but " + std::to_string(ch.last_send) +
               " send events were observed");
    }
    // ...and ORDERED channels bump recv/ack one at a time, in order.
    if (end.ordering == ibc::ChannelOrdering::kOrdered) {
      if (r != ch.recvs.contiguous + 1) {
        fail(c.h.id, height, "ordered-recv-counter",
             chan_str(port, channel) + " nextSequenceRecv " +
                 std::to_string(r) + " but contiguous receives reach " +
                 std::to_string(ch.recvs.contiguous));
      }
      if (a != ch.acks.contiguous + 1) {
        fail(c.h.id, height, "ordered-ack-counter",
             chan_str(port, channel) + " nextSequenceAck " +
                 std::to_string(a) + " but contiguous acks reach " +
                 std::to_string(ch.acks.contiguous));
      }
      // Cross-chain: the counterparty cannot have received or acked past
      // what this end sent/the counterparty received. Resolved per channel
      // through the connection's client, not "the other chain".
      ChainState* other = counterparty_of(c, port, channel, height);
      if (other != nullptr) {
        ibc::ChannelKeeper other_channels(other->h.app->store());
        if (other_channels.exists(end.counterparty_port,
                                  end.counterparty_channel)) {
          const ibc::Sequence other_r = other_channels.next_sequence_recv(
              end.counterparty_port, end.counterparty_channel);
          if (other_r > s) {
            fail(c.h.id, height, "ordered-recv-ahead-of-send",
                 chan_str(port, channel) + " counterparty nextSequenceRecv " +
                     std::to_string(other_r) + " exceeds nextSequenceSend " +
                     std::to_string(s));
          }
          if (other_r >= 1 && a > other_r) {
            fail(c.h.id, height, "ordered-ack-ahead-of-recv",
                 chan_str(port, channel) + " nextSequenceAck " +
                     std::to_string(a) + " exceeds counterparty recv " +
                     std::to_string(other_r));
          }
        }
      }
    }
  }
}

void InvariantChecker::check_client_heights(ChainState& c,
                                            chain::Height height) {
  for (const auto& [key, client] : c.model.clients) {
    const auto value = c.h.app->store().get_view(key);
    if (!value) continue;
    ibc::ClientState state;
    if (!ibc::ClientState::decode(*value, state)) {
      fail(c.h.id, height, "client-state-decode",
           "client " + client + " state is undecodable");
      continue;
    }
    const auto it = c.client_heights.find(client);
    if (it != c.client_heights.end() && state.latest_height < it->second) {
      fail(c.h.id, height, "client-height-monotonicity",
           "client " + client + " latest height went from " +
               std::to_string(it->second) + " to " +
               std::to_string(state.latest_height));
    }
    c.client_heights[client] = state.latest_height;
  }
}

void InvariantChecker::check_bank_conservation(ChainState& c,
                                               chain::Height height) {
  // Per-chain: for every denom, the sum of balances equals the recorded
  // supply (bank mints/burns maintain the supply; everything else is a
  // transfer). The sums are the model's running ones.
  for (const auto& [denom, sum] : c.model.bank_sums) {
    const std::uint64_t supply = c.h.app->bank().supply(denom);
    if (supply != sum) {
      fail(c.h.id, height, "bank-conservation",
           "denom " + denom + ": balances sum to " + std::to_string(sum) +
               " but supply is " + std::to_string(supply));
    }
  }
}

void InvariantChecker::check_escrow_model(ChainState& c,
                                          chain::Height height) {
  // Cross-chain conservation: actual escrow balances and voucher supplies
  // must match the model maintained from the packet events of *both* chains
  // (escrowed == minted on the other side + in flight, expressed per chain).
  for (const auto& [key, expected] : c.escrow) {
    const std::uint64_t actual = c.h.app->bank().balance(key.first,
                                                         key.second);
    if (actual != expected) {
      fail(c.h.id, height, "escrow-conservation",
           key.first + " holds " + std::to_string(actual) + " " +
               key.second + ", packet history implies " +
               std::to_string(expected));
    }
  }
  for (const auto& [denom, expected] : c.voucher_supply) {
    const std::uint64_t actual = c.h.app->bank().supply(denom);
    if (actual != expected) {
      fail(c.h.id, height, "voucher-conservation",
           "voucher " + denom + " supply is " + std::to_string(actual) +
               ", packet history implies " + std::to_string(expected));
    }
  }
}

}  // namespace check
