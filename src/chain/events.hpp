#pragma once
// ABCI events.
//
// DeliverTx emits typed events with string attributes (e.g. `send_packet`
// with packet data). The relayer's Supervisor subscribes to these via the
// RPC WebSocket; their encoded size is what hits the 16 MB frame limit in
// the paper's §V "WebSocket space limit" challenge.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chain {

struct Event {
  std::string type;
  std::vector<std::pair<std::string, std::string>> attributes;

  /// First attribute value with the given key, or "" if absent. The value is
  /// returned by reference (valid as long as the event), so a lookup neither
  /// builds a key temporary nor copies the value; it is a `std::string`
  /// rather than a view so callers needing one (`std::stoull`) take it as is.
  const std::string& attribute(std::string_view key) const;

  /// Approximate JSON-encoded size, used for WebSocket frame accounting.
  std::size_t encoded_size() const;
};

/// Total encoded size of an event list.
std::size_t encoded_size(const std::vector<Event>& events);

/// Value of a decimal attribute such as packet_sequence, parsed in place
/// with std::from_chars: the leading digits' value, 0 when there are none.
std::uint64_t parse_u64(std::string_view s);

}  // namespace chain
