#pragma once
// Relayer coordination policy (mitigation for the paper's Fig. 9 loss).
//
// ICS-18 gives relayers no coordination protocol: every instance races to
// relay every packet, exactly one submission wins, and the rest fail with
// "packet messages are redundant" after burning a data pull, a build, and a
// broadcast. Fig. 9 measures the damage — two relayers deliver 14 % (LAN) to
// 33 % (WAN) *fewer* transfers per second than one.
//
// A CoordinationPolicy deterministically partitions packets so each is
// driven by exactly one instance (the IBC overview paper's relayer
// fungibility makes any assignment safe — delivery, not identity, is what
// the protocol checks):
//
//   kNone            every relayer owns every packet — the paper-faithful
//                    racing default.
//   kShardSequences  ownership by contiguous packet-sequence ranges
//                    ("shards") of `shard_width`, round-robin across
//                    instances. Both relayers stay active, so throughput
//                    parallelises across their (distinct) full nodes.
//   kLeaderLease     a rotating leader owns *all* packets for
//                    `lease_blocks` source blocks, then hands over. Models
//                    an active/standby deployment: no redundant work, but
//                    no parallelism either.
//
// Ownership is decided when a packet first enters the relayer's table (at
// extraction or adoption) and is sticky from then on: later stages (pull,
// recv, ack, timeout) only act on table entries, so a packet never migrates
// mid-flight.

#include <cstdint>
#include <string>

#include "chain/types.hpp"
#include "ibc/ids.hpp"

namespace relayer {

enum class CoordinationMode : std::uint8_t {
  kNone,
  kShardSequences,
  kLeaderLease,
};

/// Parses "none" | "shard" | "lease"; defaults to kNone for unknown input.
CoordinationMode coordination_mode_from_string(const std::string& s);
const char* coordination_mode_name(CoordinationMode mode);

struct CoordinationConfig {
  CoordinationMode mode = CoordinationMode::kNone;
  /// This instance's position among the relayers serving its channel,
  /// assigned by the fleet builder: 0 <= relayer_index < relayer_count.
  int relayer_index = 0;
  int relayer_count = 1;
  /// kShardSequences: consecutive sequences per shard. Small enough that a
  /// steady workload keeps every instance busy, large enough that one
  /// relay batch usually stays within a single owner's shard.
  std::uint64_t shard_width = 100;
  /// kLeaderLease: source-chain blocks per leadership term.
  std::int64_t lease_blocks = 20;
};

class CoordinationPolicy {
 public:
  CoordinationPolicy() = default;
  explicit CoordinationPolicy(CoordinationConfig config) : config_(config) {}

  const CoordinationConfig& config() const { return config_; }

  /// True when a partitioning mode is active for a fleet of more than one.
  bool enabled() const {
    return config_.mode != CoordinationMode::kNone &&
           config_.relayer_count > 1;
  }

  /// Does this instance own packet `seq`, first seen at source-chain height
  /// `src_height`? Always true when coordination is off or the fleet has one
  /// member. `src_height` only matters for kLeaderLease (the lease epoch);
  /// callers that adopt packets outside a frame context pass their latest
  /// observed source height.
  bool owns(ibc::Sequence seq, chain::Height src_height) const;

 private:
  CoordinationConfig config_;
};

}  // namespace relayer
