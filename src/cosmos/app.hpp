#pragma once
// The Cosmos-SDK-style application: ante handler + message router.
//
// Implements chain::App. DeliverTx semantics mirror the SDK:
//   * the ante handler (sequence check, fee deduction) runs first and its
//     effects PERSIST even when message execution later fails — a failed tx
//     still pays its fee and consumes a sequence number;
//   * message handlers run inside a store journal; any failure reverts all
//     message writes and fails the whole transaction (this is what turns the
//     second relayer's duplicate packet batches into fee-burning no-ops in
//     the two-relayer experiments).

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "chain/app.hpp"
#include "chain/store.hpp"
#include "cosmos/auth.hpp"
#include "cosmos/bank.hpp"
#include "sim/time.hpp"

namespace cosmos {

class CosmosApp;

/// Execution context handed to message handlers.
struct MsgContext {
  CosmosApp& app;
  chain::Height height = 0;
  sim::TimePoint block_time = 0;
  const chain::Tx* tx = nullptr;
  std::vector<chain::Event>* events = nullptr;  // append emitted events here
  std::uint64_t gas_used = 0;                   // handlers add their gas
};

/// A message handler for one type URL (an SDK module's Msg service).
class MsgHandler {
 public:
  virtual ~MsgHandler() = default;
  virtual util::Status handle(const chain::Msg& msg, MsgContext& ctx) = 0;
};

struct AppConfig {
  /// Gas charged per transaction before any message runs (ante overhead,
  /// signature verification). Calibrated with the IBC message costs so a
  /// 100-transfer tx lands at the paper's ~3.67M gas.
  std::uint64_t base_tx_gas = 69'000;
  /// Fee rate the chain demands (the paper configures 0.01 token/gas).
  double min_gas_price = 0.01;
  /// Virtual execution time per unit of gas. Calibrated (together with the
  /// consensus engine's quadratic per-block overhead) against Fig. 6/7: a
  /// 100-message transfer tx (~3.67M gas) executes in ~9 ms of node CPU;
  /// the quadratic term dominates the interval growth at high rates.
  double exec_nanos_per_gas = 2.5;
};

class CosmosApp : public chain::App {
 public:
  explicit CosmosApp(chain::ChainId chain_id, AppConfig config = {});

  /// Registers `handler` for a message type URL. The app keeps a reference;
  /// handlers outlive the app in practice (owned by module objects).
  void register_handler(const std::string& type_url, MsgHandler* handler);

  /// Genesis helper: create an account with a native-token balance.
  void add_genesis_account(const chain::Address& addr, std::uint64_t amount);

  /// Bulk genesis fast path for funding many (potentially millions of)
  /// accounts: pre-sizes the store and writes the bank supply once instead
  /// of per account. Final state — and therefore the app hash — is
  /// byte-identical to add_genesis_account() in a loop.
  void add_genesis_accounts(const std::vector<chain::Address>& addrs,
                            std::uint64_t amount);

  // chain::App ------------------------------------------------------------
  chain::CheckTxResult check_tx(const chain::Tx& tx) override;
  chain::CheckTxResult check_tx_pending(
      const chain::Tx& tx, std::uint64_t pending_same_sender) override;
  void begin_block(const chain::BlockHeader& header) override;
  chain::DeliverTxResult deliver_tx(const chain::Tx& tx) override;
  std::vector<chain::Event> end_block(chain::Height height) override;
  /// Closes the store's write-set for this block and returns its root.
  crypto::Digest commit() override;
  sim::Duration execution_cost(const chain::Tx& tx) const override;

  // Keeper access for modules and tests.
  chain::KvStore& store() { return store_; }
  const chain::KvStore& store() const { return store_; }
  BankKeeper& bank() { return bank_; }
  AuthKeeper& auth() { return auth_; }
  const chain::ChainId& chain_id() const { return chain_id_; }
  const AppConfig& config() const { return config_; }

  chain::Height current_height() const { return current_height_; }
  sim::TimePoint current_block_time() const { return current_block_time_; }

  /// Address that accumulates fees (the "fee collector" module account).
  static const chain::Address& fee_collector();

  // Statistics.
  std::uint64_t txs_failed() const { return txs_failed_; }
  std::uint64_t txs_succeeded() const { return txs_succeeded_; }

 private:
  util::Status ante_check(const chain::Tx& tx,
                          std::uint64_t pending_same_sender) const;

  chain::ChainId chain_id_;
  AppConfig config_;
  chain::KvStore store_;
  BankKeeper bank_;
  AuthKeeper auth_;
  std::map<std::string, MsgHandler*> handlers_;

  chain::Height current_height_ = 0;
  sim::TimePoint current_block_time_ = 0;
  std::uint64_t txs_failed_ = 0;
  std::uint64_t txs_succeeded_ = 0;
};

}  // namespace cosmos
