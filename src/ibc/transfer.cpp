#include "ibc/transfer.hpp"

#include <algorithm>

namespace ibc {

namespace {

// Minimal strict parser for the flat string-object JSON that to_json emits.
// Returns false on any deviation (recv validates counterparty input).
bool parse_flat_json(std::string_view s,
                     std::vector<std::pair<std::string, std::string>>& out) {
  out.clear();
  out.reserve(4);  // the four ICS-20 fields
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t')) ++i;
  };
  auto parse_string = [&](std::string& v) -> bool {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    v.clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      v.push_back(s[i]);
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skip_ws();
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < s.size() && s[i] == '}') return ++i, i == s.size();
  for (;;) {
    skip_ws();
    std::string key, value;
    if (!parse_string(key)) return false;
    skip_ws();
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    skip_ws();
    if (!parse_string(value)) return false;
    out.emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  skip_ws();
  if (i >= s.size() || s[i] != '}') return false;
  ++i;
  skip_ws();
  return i == s.size();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

util::Bytes FungibleTokenPacketData::to_json() const {
  std::string json = "{\"amount\":\"" + std::to_string(amount) +
                     "\",\"denom\":\"" + json_escape(denom) +
                     "\",\"receiver\":\"" + json_escape(receiver) +
                     "\",\"sender\":\"" + json_escape(sender) + "\"}";
  return util::to_bytes(json);
}

bool FungibleTokenPacketData::from_json(util::BytesView json,
                                        FungibleTokenPacketData& out) {
  std::vector<std::pair<std::string, std::string>> kv;
  const std::string_view text(reinterpret_cast<const char*>(json.data()),
                              json.size());
  if (!parse_flat_json(text, kv)) return false;
  bool has_amount = false, has_denom = false, has_recv = false,
       has_sender = false;
  for (auto& [k, v] : kv) {
    if (k == "amount") {
      char* end = nullptr;
      out.amount = std::strtoull(v.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v.empty()) return false;
      has_amount = true;
    } else if (k == "denom") {
      out.denom = std::move(v);
      has_denom = true;
    } else if (k == "receiver") {
      out.receiver = std::move(v);
      has_recv = true;
    } else if (k == "sender") {
      out.sender = std::move(v);
      has_sender = true;
    } else {
      return false;
    }
  }
  return has_amount && has_denom && has_recv && has_sender;
}

std::string voucher_denom(const std::string& trace_path) {
  const crypto::Digest d = crypto::sha256(util::to_bytes(trace_path));
  std::string hex = crypto::digest_hex(d);
  std::transform(hex.begin(), hex.end(), hex.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return "ibc/" + hex;
}

chain::Address escrow_address(const PortId& port, const ChannelId& channel) {
  return "escrow-" + port + "-" + channel;
}

bool TransferModule::is_returning(const std::string& denom_path,
                                  const PortId& port,
                                  const ChannelId& channel) {
  const std::string prefix = port + "/" + channel + "/";
  return denom_path.size() > prefix.size() &&
         denom_path.compare(0, prefix.size(), prefix) == 0;
}

// MsgTransfer handler object.
class TransferModule::Handler : public cosmos::MsgHandler {
 public:
  explicit Handler(TransferModule& owner) : owner_(owner) {}
  util::Status handle(const chain::Msg& msg, cosmos::MsgContext& ctx) override {
    return owner_.handle_transfer(msg, ctx);
  }

 private:
  TransferModule& owner_;
};

TransferModule::TransferModule(cosmos::CosmosApp& app, IbcKeeper& ibc)
    : app_(app), ibc_(ibc), handler_(std::make_unique<Handler>(*this)) {
  app_.register_handler(kMsgTransferUrl, handler_.get());
  ibc_.bind_port(kTransferPort, this);
}

TransferModule::~TransferModule() = default;

std::string TransferModule::local_denom(const std::string& trace_path) {
  return trace_path.find('/') == std::string::npos ? trace_path
                                                   : voucher_denom(trace_path);
}

util::Status TransferModule::handle_transfer(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgTransfer m;
  if (!MsgTransfer::from_msg(msg, m)) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "malformed MsgTransfer");
  }
  return send_transfer(m, ctx);
}

util::Status TransferModule::send_transfer(const MsgTransfer& m,
                                           cosmos::MsgContext& ctx) {
  const GasTable& gas = ibc_.gas();
  // Sequence-keyed jitter uses the upcoming send sequence.
  const Sequence seq =
      ibc_.channels().next_sequence_send(m.source_port, m.source_channel);
  ctx.gas_used += jittered_gas(gas.transfer, gas.transfer_jitter, seq);

  if (m.amount == 0) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "transfer amount must be positive");
  }

  // Determine the on-wire denom path and move the tokens.
  std::string denom_path = m.denom;
  if (m.denom.rfind("ibc/", 0) == 0) {
    denom_path = trace_path(m.denom);
    if (denom_path.empty()) {
      return util::Status::error(util::ErrorCode::kNotFound,
                                 "unknown voucher denom " + m.denom);
    }
  }

  if (is_returning(denom_path, m.source_port, m.source_channel)) {
    // Returning voucher: burn it here; the counterparty unescrows.
    util::Status s = app_.bank().burn(m.sender, cosmos::Coin{m.denom, m.amount});
    if (!s.is_ok()) return s;
  } else {
    // Source-zone send: escrow the tokens for this channel.
    util::Status s = app_.bank().send(
        m.sender, escrow_address(m.source_port, m.source_channel),
        cosmos::Coin{m.denom, m.amount});
    if (!s.is_ok()) return s;
  }

  FungibleTokenPacketData data;
  data.denom = denom_path;
  data.amount = m.amount;
  data.sender = m.sender;
  data.receiver = m.receiver;

  auto seq_res =
      ibc_.send_packet(m.source_port, m.source_channel, data.to_json(),
                       m.timeout_height, m.timeout_timestamp, ctx);
  if (!seq_res.is_ok()) return seq_res.status();

  ++transfers_initiated_;
  ctx.events->push_back(chain::Event{
      "ibc_transfer",
      {{"sender", m.sender},
       {"receiver", m.receiver},
       {"amount", std::to_string(m.amount)},
       {"denom", m.denom}}});
  return util::Status::ok();
}

std::optional<Acknowledgement> TransferModule::on_recv_packet(
    const Packet& packet, cosmos::MsgContext& ctx) {
  FungibleTokenPacketData data;
  if (!FungibleTokenPacketData::from_json(packet.data, data)) {
    return Acknowledgement{false, "cannot unmarshal ICS-20 packet data"};
  }

  Acknowledgement ack{true, ""};
  if (is_returning(data.denom, packet.source_port, packet.source_channel)) {
    // Token is coming home: strip one hop and unescrow the inner denom.
    const std::string prefix =
        packet.source_port + "/" + packet.source_channel + "/";
    const std::string inner = data.denom.substr(prefix.size());
    util::Status s = app_.bank().send(
        escrow_address(packet.destination_port, packet.destination_channel),
        data.receiver, cosmos::Coin{local_denom(inner), data.amount});
    if (!s.is_ok()) {
      return Acknowledgement{false, s.message()};
    }
  } else {
    // We are the sink: mint a voucher under the extended trace path.
    const std::string path = packet.destination_port + "/" +
                             packet.destination_channel + "/" + data.denom;
    const std::string denom = voucher_denom(path);
    app_.store().set("ibc/denomTraces/" + denom, util::to_bytes(path));
    app_.bank().mint(data.receiver, cosmos::Coin{denom, data.amount});
  }

  ctx.events->push_back(chain::Event{
      "fungible_token_packet",
      {{"receiver", data.receiver},
       {"denom", data.denom},
       {"amount", std::to_string(data.amount)},
       {"success", ack.success ? "true" : "false"}}});
  return ack;
}

util::Status TransferModule::refund(const Packet& packet,
                                    cosmos::MsgContext& ctx) {
  FungibleTokenPacketData data;
  if (!FungibleTokenPacketData::from_json(packet.data, data)) {
    return util::Status::error(util::ErrorCode::kInternal,
                               "cannot unmarshal own packet data for refund");
  }
  ++refunds_;
  if (is_returning(data.denom, packet.source_port, packet.source_channel)) {
    // We burned a voucher on send; mint it back.
    const std::string denom = voucher_denom(data.denom);
    app_.bank().mint(data.sender, cosmos::Coin{denom, data.amount});
    (void)ctx;
    return util::Status::ok();
  }
  // We escrowed on send; release back. The escrow holds the LOCAL denom —
  // the voucher hash when a multi-hop token was forwarded onward, not the
  // on-wire trace path (refunding data.denom verbatim would conjure a
  // denomination this chain never held).
  return app_.bank().send(
      escrow_address(packet.source_port, packet.source_channel), data.sender,
      cosmos::Coin{local_denom(data.denom), data.amount});
}

util::Status TransferModule::on_acknowledgement_packet(
    const Packet& packet, const Acknowledgement& ack, cosmos::MsgContext& ctx) {
  if (ack.success) return util::Status::ok();  // transfer finalized
  return refund(packet, ctx);
}

util::Status TransferModule::on_timeout_packet(const Packet& packet,
                                               cosmos::MsgContext& ctx) {
  return refund(packet, ctx);
}

std::string TransferModule::trace_path(const std::string& voucher) const {
  const auto raw = app_.store().get("ibc/denomTraces/" + voucher);
  if (!raw) return {};
  return util::to_string(*raw);
}

}  // namespace ibc
