#include "relayer/coordination.hpp"

namespace relayer {

CoordinationMode coordination_mode_from_string(const std::string& s) {
  if (s == "shard") return CoordinationMode::kShardSequences;
  if (s == "lease") return CoordinationMode::kLeaderLease;
  return CoordinationMode::kNone;
}

const char* coordination_mode_name(CoordinationMode mode) {
  switch (mode) {
    case CoordinationMode::kShardSequences:
      return "shard";
    case CoordinationMode::kLeaderLease:
      return "lease";
    case CoordinationMode::kNone:
      break;
  }
  return "none";
}

bool CoordinationPolicy::owns(ibc::Sequence seq,
                              chain::Height src_height) const {
  if (!enabled()) return true;  // racing fleet, or a sole server owns all
  const auto count = static_cast<std::uint64_t>(config_.relayer_count);
  const auto index = static_cast<std::uint64_t>(config_.relayer_index);
  switch (config_.mode) {
    case CoordinationMode::kShardSequences: {
      // Sequences start at 1; shard 0 is [1, shard_width].
      const std::uint64_t width =
          config_.shard_width > 0 ? config_.shard_width : 1;
      const std::uint64_t shard = (seq > 0 ? seq - 1 : 0) / width;
      return shard % count == index;
    }
    case CoordinationMode::kLeaderLease: {
      const std::int64_t term =
          config_.lease_blocks > 0 ? config_.lease_blocks : 1;
      const auto epoch =
          static_cast<std::uint64_t>(src_height > 0 ? src_height : 0) /
          static_cast<std::uint64_t>(term);
      return epoch % count == index;
    }
    case CoordinationMode::kNone:
      break;
  }
  return true;
}

}  // namespace relayer
