#include "ibc/packet.hpp"

#include <charconv>

namespace ibc {

namespace {
void append_str(util::Bytes& out, const std::string& s) {
  util::append_u32_be(out, static_cast<std::uint32_t>(s.size()));
  util::append(out, util::to_bytes(s));
}

bool read_str(util::BytesView data, std::size_t& off, std::string& out) {
  if (off + 4 > data.size()) return false;
  const std::uint32_t len = util::read_u32_be(data, off);
  off += 4;
  if (off + len > data.size()) return false;
  out.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
             data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return true;
}
}  // namespace

util::Bytes Packet::encode() const {
  util::Bytes out;
  util::append_u64_be(out, sequence);
  append_str(out, source_port);
  append_str(out, source_channel);
  append_str(out, destination_port);
  append_str(out, destination_channel);
  util::append_u32_be(out, static_cast<std::uint32_t>(data.size()));
  util::append(out, data);
  util::append_u64_be(out, static_cast<std::uint64_t>(timeout_height));
  util::append_u64_be(out, static_cast<std::uint64_t>(timeout_timestamp));
  return out;
}

bool Packet::decode(util::BytesView bytes, Packet& out) {
  std::size_t off = 0;
  if (off + 8 > bytes.size()) return false;
  out.sequence = util::read_u64_be(bytes, off);
  off += 8;
  if (!read_str(bytes, off, out.source_port)) return false;
  if (!read_str(bytes, off, out.source_channel)) return false;
  if (!read_str(bytes, off, out.destination_port)) return false;
  if (!read_str(bytes, off, out.destination_channel)) return false;
  if (off + 4 > bytes.size()) return false;
  const std::uint32_t dlen = util::read_u32_be(bytes, off);
  off += 4;
  if (off + dlen > bytes.size()) return false;
  out.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                  bytes.begin() + static_cast<std::ptrdiff_t>(off + dlen));
  off += dlen;
  if (off + 16 > bytes.size()) return false;
  out.timeout_height = static_cast<std::int64_t>(util::read_u64_be(bytes, off));
  off += 8;
  out.timeout_timestamp =
      static_cast<std::int64_t>(util::read_u64_be(bytes, off));
  off += 8;
  return off == bytes.size();
}

crypto::Digest Packet::commitment() const {
  const crypto::Digest data_hash = crypto::sha256(data);
  crypto::Sha256 h;
  util::Bytes prefix;
  util::append_u64_be(prefix, static_cast<std::uint64_t>(timeout_height));
  util::append_u64_be(prefix, static_cast<std::uint64_t>(timeout_timestamp));
  h.update(prefix);
  h.update(util::BytesView(data_hash.data(), data_hash.size()));
  return h.finalize();
}

std::optional<Packet> packet_from_event(const chain::Event& event) {
  Packet p;
  const std::string& seq = event.attribute("packet_sequence");
  const auto [seq_end, seq_err] =
      std::from_chars(seq.data(), seq.data() + seq.size(), p.sequence);
  if (seq_err != std::errc{} || seq_end != seq.data() + seq.size()) {
    return std::nullopt;
  }

  p.source_port = event.attribute("packet_src_port");
  p.source_channel = event.attribute("packet_src_channel");
  p.destination_port = event.attribute("packet_dst_port");
  p.destination_channel = event.attribute("packet_dst_channel");
  if (p.source_port.empty() || p.source_channel.empty() ||
      p.destination_port.empty() || p.destination_channel.empty()) {
    return std::nullopt;
  }

  // Timeout height is rendered "revision-height" (e.g. "0-1234").
  const std::string_view th = event.attribute("packet_timeout_height");
  const std::size_t dash = th.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  p.timeout_height =
      static_cast<std::int64_t>(chain::parse_u64(th.substr(dash + 1)));
  p.timeout_timestamp = static_cast<std::int64_t>(
      chain::parse_u64(event.attribute("packet_timeout_timestamp")));

  p.data = util::to_bytes(event.attribute("packet_data"));
  return p;
}

util::Bytes Acknowledgement::encode() const {
  util::Bytes out;
  out.push_back(success ? 1 : 0);
  util::append(out, util::to_bytes(error));
  return out;
}

bool Acknowledgement::decode(util::BytesView bytes, Acknowledgement& out) {
  if (bytes.empty()) return false;
  out.success = bytes[0] != 0;
  out.error.assign(bytes.begin() + 1, bytes.end());
  return true;
}

crypto::Digest Acknowledgement::commitment() const {
  return crypto::sha256(encode());
}

}  // namespace ibc
