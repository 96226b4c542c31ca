#include "chain/events.hpp"

#include <charconv>

namespace chain {

const std::string& Event::attribute(std::string_view key) const {
  static const std::string kAbsent;
  for (const auto& [k, v] : attributes) {
    if (k == key) return v;
  }
  return kAbsent;
}

std::size_t Event::encoded_size() const {
  // {"type":"...","attributes":[{"key":"...","value":"..."},...]}
  std::size_t n = type.size() + 32;
  for (const auto& [k, v] : attributes) {
    n += k.size() + v.size() + 24;
  }
  return n;
}

std::size_t encoded_size(const std::vector<Event>& events) {
  std::size_t n = 2;
  for (const Event& e : events) n += e.encoded_size() + 1;
  return n;
}

std::uint64_t parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

}  // namespace chain
