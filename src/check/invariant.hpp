#pragma once
// Runtime IBC invariant checker.
//
// Subscribes to every chain's block-commit events and asserts, at every
// commit, the safety properties the paper's throughput/latency figures rest
// on: exactly-once packet delivery (ICS-04), send/recv/ack sequence
// monotonicity with no gaps (ICS-04), escrow/voucher token conservation
// across chains (ICS-20), per-chain bank conservation, light-client height
// monotonicity (ICS-02) and no double-spent account sequence numbers. The
// simulation is a single-threaded DES and a commit is one atomic event, so
// inspecting the stores from a commit callback observes a consistent global
// state.
//
// Per-block cost follows the block, not the chain's state. Packet checks
// read the block's events; store-derived checks keep a model per chain
// (running per-denom balance sums, the channel ends and light clients)
// that one full sweep seeds on the chain's first checked commit and each
// block's store write-set (chain::KvStore::write_set) then advances.
// cross_check() re-sweeps and reports any drift between the two; the run
// drivers (xcc::run_experiment, check::run_scenario) call it once at the
// end of a run.
//
// Wired into xcc::Testbed (opt-out via TestbedConfig::invariant_checks), so
// every integration test and bench runs under it for free. The fuzzer
// (fuzz_scenarios) runs it with fail_fast=false and collects violations.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chain/block.hpp"
#include "chain/ledger.hpp"
#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "ibc/channel.hpp"
#include "util/bytes.hpp"

namespace check {

/// One invariant failure, with enough context to debug the offending seed.
struct Violation {
  std::string invariant;  // e.g. "exactly-once-recv"
  chain::ChainId chain;
  chain::Height height = 0;
  std::string detail;

  std::string to_string() const;
};

/// Thrown from the commit callback when fail_fast is set; propagates out of
/// Scheduler::run_* so tests and benches fail loudly at the violating commit.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const Violation& v);
  const Violation violation;
};

struct CheckerConfig {
  /// Throw InvariantViolation at the first violation (tests/benches).
  /// false: record violations and keep simulating (fuzzer mode).
  bool fail_fast = true;
  /// Recording cap in collect mode; one broken invariant tends to cascade.
  std::size_t max_violations = 64;
};

/// Everything the checker reads from one deployed chain.
struct ChainHandles {
  chain::ChainId id;
  cosmos::CosmosApp* app = nullptr;
  consensus::Engine* engine = nullptr;
};

class InvariantChecker {
 public:
  /// Subscribes to every chain's block events. The handles must outlive the
  /// checker (in the Testbed all are members of the same object).
  /// Counterparties are resolved per channel through the connection's light
  /// client (channel -> connection -> client -> tracked chain id), never by
  /// "the other chain" — a 2-chain shortcut that aliases channels once a
  /// third chain exists.
  explicit InvariantChecker(std::vector<ChainHandles> chains,
                            CheckerConfig config = {});
  /// Two-chain convenience (the paper's deployment).
  InvariantChecker(ChainHandles a, ChainHandles b, CheckerConfig config = {});

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Observability hook: runs for every Violation before it is thrown
  /// (fail_fast) or recorded — including violations the collection cap would
  /// suppress. The Testbed wires this to the telemetry hub's flight-dump
  /// trigger so a post-mortem journal lands on disk even when the violation
  /// aborts the run. The hook must not throw.
  using ViolationHook = std::function<void(const Violation&)>;
  void set_violation_hook(ViolationHook hook) { hook_ = std::move(hook); }

  /// Re-derives every seeded chain's store model (balance sums per denom,
  /// channel ends, light clients) from a full sweep of its store and
  /// reports a `checker-drift` violation for each disagreement with the
  /// incrementally maintained one. Returns the number of disagreements.
  std::size_t cross_check();

  std::uint64_t blocks_checked() const { return blocks_checked_; }
  const std::vector<Violation>& violations() const { return violations_; }
  /// Human-readable list of all recorded violations ("" when clean).
  std::string report() const;

 private:
  /// Per-channel set of already-used sequences, compressed as a contiguous
  /// prefix [1, contiguous] plus an out-of-order overflow set, so unordered
  /// channels at bench scale stay O(reorder window) instead of O(packets).
  struct SeqWindow {
    ibc::Sequence contiguous = 0;
    std::set<ibc::Sequence> sparse;

    bool insert(ibc::Sequence s);  // false when s was already present
    bool contains(ibc::Sequence s) const;
  };

  /// An unresolved outgoing transfer (commitment written, no ack/timeout
  /// processed yet); drives the escrow/voucher conservation model.
  struct PendingTransfer {
    std::uint64_t amount = 0;
    std::string denom_path;  // on-wire trace path from the packet data
    bool returning = false;  // burnt a voucher on send (vs escrowed)
  };

  /// A receive whose acknowledgement was deferred (packet-forward
  /// middleware): the mint/unescrow already happened at recv, so the model
  /// is updated optimistically and reversed if the eventual ack fails.
  struct AsyncRecv {
    std::uint64_t amount = 0;
    std::string denom_path;  // on-wire trace path from the packet data
  };

  struct ChannelTrack {
    // Event-derived.
    ibc::Sequence last_send = 0;  // send_packet events must run 1,2,3,...
    SeqWindow recvs, acks, timeouts;
    std::map<ibc::Sequence, PendingTransfer> pending;  // by send sequence
    /// On the destination side: ack success per received sequence (decoded
    /// from write_acknowledgement), consumed by the source's ack handling.
    std::map<ibc::Sequence, bool> ack_success;
    /// Receives still awaiting their deferred acknowledgement.
    std::map<ibc::Sequence, AsyncRecv> async_recv;

    // Store-snapshot from the previous commit (0 = not yet seen).
    ibc::Sequence snap_send = 0, snap_recv = 0, snap_ack = 0;
  };

  /// Store-derived state the per-block checks walk, in store-key order (so
  /// their violations come out in key order).
  struct StoreModel {
    /// Every denom with a balance or supply key seen since seeding, with
    /// the wrapping u64 sum of its 8-byte balances (other sizes count 0).
    std::map<std::string, std::uint64_t> bank_sums;
    /// Channel-end key -> (port, channel).
    std::map<std::string, std::pair<std::string, std::string>> channel_ends;
    /// Client-state key -> client id.
    std::map<std::string, std::string> clients;

    /// Applies one store write (nullopt = absent) to the model.
    void apply(std::string_view key,
               const std::optional<util::BytesView>& before,
               const std::optional<util::BytesView>& after);
  };

  struct ChainState {
    ChainHandles h;
    bool seeded = false;  // model holds the state of the last commit
    StoreModel model;
    /// Keyed by (port, channel).
    std::map<std::pair<std::string, std::string>, ChannelTrack> channels;
    /// Light-client latest heights from the previous commit.
    std::map<std::string, std::int64_t> client_heights;
    /// auth sequence per sender as of the previous commit (lazily seeded).
    std::map<chain::Address, std::uint64_t> auth_seq;
    /// Conservation model: expected escrow balance per (address, denom) and
    /// expected voucher supply per denom, updated from packet events.
    std::map<std::pair<chain::Address, std::string>, std::uint64_t> escrow;
    std::map<std::string, std::uint64_t> voucher_supply;
  };

  void on_block(std::size_t chain_idx, const chain::Block& block,
                const std::vector<chain::DeliverTxResult>& results);
  void process_events(ChainState& c, chain::Height height,
                      const std::vector<chain::Event>& events);

  /// Chain hosting the counterparty end of `c`'s channel (port, channel),
  /// resolved through the channel's connection and light client. Reports an
  /// "unknown-counterparty" violation and returns nullptr when any link of
  /// the chain is missing — cross-chain assertions are then skipped.
  ChainState* counterparty_of(ChainState& c, const std::string& port,
                              const std::string& channel,
                              chain::Height height);

  /// Applies the escrow/voucher model for a successfully delivered ICS-20
  /// packet (unescrow the returning inner denom, or mint the extended-trace
  /// voucher). Shared by the sync path (at write_acknowledgement) and the
  /// async path (optimistically at recv_packet).
  void account_recv_success(ChainState& c, const std::string& src_port,
                            const std::string& src_channel,
                            const std::string& dst_port,
                            const std::string& dst_channel,
                            std::uint64_t amount,
                            const std::string& denom_path,
                            chain::Height height);
  /// The model a fresh full sweep of `c`'s store yields.
  StoreModel sweep_store(const ChainState& c) const;
  /// Seeds `c`'s model by a sweep on its first checked commit, then applies
  /// each commit's write-set.
  void advance_model(ChainState& c);

  void check_account_sequences(ChainState& c, const chain::Block& block,
                               const std::vector<chain::DeliverTxResult>& res);
  void check_channel_counters(ChainState& c, chain::Height height);
  void check_client_heights(ChainState& c, chain::Height height);
  void check_bank_conservation(ChainState& c, chain::Height height);
  void check_escrow_model(ChainState& c, chain::Height height);

  void fail(const chain::ChainId& chain, chain::Height height,
            std::string invariant, std::string detail);

  CheckerConfig config_;
  std::vector<ChainState> chains_;
  /// chain id -> index into chains_, for counterparty resolution.
  std::map<chain::ChainId, std::size_t> chain_index_;
  std::uint64_t blocks_checked_ = 0;
  std::vector<Violation> violations_;
  bool overflowed_ = false;  // violations_ hit max_violations
  ViolationHook hook_;
};

}  // namespace check
