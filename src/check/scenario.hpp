#pragma once
// Seed-deterministic fuzz scenarios.
//
// A scenario is a full testbed run whose workload, relayer deployment and
// fault schedule (network drops/duplicates/extra delay, relayer
// crash-restart, validator blackouts, tight packet timeouts) are all derived
// from one 64-bit seed. The run executes under the invariant checker in
// collect mode; a violating seed reproduces bit-for-bit with
// `fuzz_scenarios --seed=S`.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariant.hpp"

namespace xcc {
class Testbed;
}  // namespace xcc

namespace check {

struct ScenarioOptions {
  /// Install the deliberately broken recvPacket replay check on both chains
  /// (ibc::KeeperFaults) — used to prove the checker detects real bugs.
  bool mutate_skip_replay = false;
  /// Throw check::InvariantViolation at the first violation instead of
  /// collecting them into ScenarioResult::violations.
  bool fail_fast = false;
  /// RPC query workers per server (concurrent-RPC mitigation); 1 keeps the
  /// historical seed→scenario mapping byte-identical. The mitigation CI
  /// phase re-fuzzes with 4 to prove the invariants hold when the worker
  /// pool reorders query completions.
  std::size_t rpc_query_workers = 1;
  /// Relayer coordination mode for multi-relayer scenarios ("none" | "shard"
  /// | "lease"); "none" is the historical racing behaviour.
  std::string coordination = "none";
  /// Connection-graph topology ("pair" | "line<k>" | "hub<k>" | "mesh<k>").
  /// "pair" keeps the historical seed→scenario mapping byte-identical; any
  /// other value runs the same scenario over a multi-hop route of that
  /// topology (see scenario_route): the relayers on every hop and the burst
  /// workload forwarded along it, under the same seed-derived faults.
  std::string topology = "pair";
};

struct ScenarioResult {
  std::uint64_t seed = 0;
  /// One-line description of the generated scenario (rtt, relayers, faults).
  std::string summary;

  bool setup_ok = false;  // chains produced blocks and the channel opened
  std::string setup_error;

  std::uint64_t blocks_checked = 0;
  std::uint64_t transfers_requested = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_timed_out = 0;
  std::uint64_t redundant_messages = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;

  std::vector<Violation> violations;
};

/// Composes and runs the scenario for `seed`. Deterministic: the same seed
/// and options always produce the same result. The checker's full-sweep
/// cross-check runs once at the end, so model drift is reported too.
ScenarioResult run_scenario(std::uint64_t seed,
                            const ScenarioOptions& options = {});

/// As above, calling `on_testbed` once the Testbed exists, before any chain
/// starts: block subscribers registered there run after the checker's.
ScenarioResult run_scenario(
    std::uint64_t seed, const ScenarioOptions& options,
    const std::function<void(xcc::Testbed&)>& on_testbed);

}  // namespace check
