#include "xcc/handshake.hpp"

#include "ibc/host.hpp"

namespace xcc {

relayer::PathConfig ChannelSetupResult::path() const {
  relayer::PathConfig p;
  p.port = ibc::kTransferPort;
  p.channel_a = channel_a;
  p.channel_b = channel_b;
  p.client_on_a = client_on_a;
  p.client_on_b = client_on_b;
  return p;
}

namespace {

ibc::ClientState make_client_state(const chain::ChainId& chain_id,
                                   const chain::ValidatorSet& validators,
                                   sim::Duration trusting_period) {
  ibc::ClientState cs;
  cs.chain_id = chain_id;
  if (trusting_period > 0) cs.trusting_period = trusting_period;
  for (const chain::Validator& v : validators.validators()) {
    cs.validators.push_back(ibc::ClientValidator{v.keys.pub, v.power});
  }
  return cs;
}

}  // namespace

// Shared flow state: each handshake step is a member function chained via
// callbacks; the first error short-circuits to finish().
struct HandshakeDriver::Flow : std::enable_shared_from_this<Flow> {
  HandshakeDriver* driver = nullptr;
  std::function<void(ChannelSetupResult)> cb;
  ChannelSetupResult result;
  bool finished = false;

  ChainDeployment& ca() const {
    return driver->testbed_.chain(driver->chain_x_);
  }
  ChainDeployment& cb_chain() const {
    return driver->testbed_.chain(driver->chain_y_);
  }
  rpc::Server* sa() const {
    return ca().servers[static_cast<std::size_t>(driver->machine_)].get();
  }
  rpc::Server* sb() const {
    return cb_chain().servers[static_cast<std::size_t>(driver->machine_)].get();
  }
  net::MachineId machine() const { return driver->machine_; }

  void finish(bool ok, std::string error) {
    if (finished) return;
    finished = true;
    result.ok = ok;
    result.error = std::move(error);
    if (cb) cb(result);
  }

  // Submits msgs via `wallet`, then reads the committed tx's events and
  // hands the named attribute of `event_type` to `next`.
  void submit_and_read(relayer::Wallet& wallet, rpc::Server* server,
                       std::vector<chain::Msg> msgs, std::uint64_t gas,
                       const std::string& event_type,
                       const std::string& attribute,
                       std::function<void(std::string)> next) {
    auto self = shared_from_this();
    wallet.submit(
        std::move(msgs), gas,
        [self, server, event_type, attribute,
         next = std::move(next)](const relayer::Wallet::SubmitOutcome& out) {
          if (self->finished) return;
          if (!out.status.is_ok()) {
            self->finish(false, "handshake tx failed: " + out.status.to_string());
            return;
          }
          if (event_type.empty()) {
            next({});
            return;
          }
          server->query_tx(
              self->machine(), out.hash,
              [self, event_type, attribute,
               next](util::Result<rpc::TxResponse> res) {
                if (self->finished) return;
                if (!res.is_ok()) {
                  self->finish(false, "cannot read handshake tx events");
                  return;
                }
                for (const chain::Event& ev : res.value().result().events) {
                  if (ev.type != event_type) continue;
                  const std::string& v = ev.attribute(attribute);
                  if (!v.empty()) {
                    next(v);
                    return;
                  }
                }
                self->finish(false, "missing " + event_type + " event");
              });
        });
  }

  // Fetches (proof at H, MsgUpdateClient for H) of `key` on `src`, where the
  // client being updated lives on the other chain.
  void proof_and_update(rpc::Server* src, const ibc::ClientId& client_on_dst,
                        const std::string& key,
                        std::function<void(chain::StoreProof, chain::Height,
                                           chain::Msg)> next) {
    auto self = shared_from_this();
    src->abci_query(
        machine(), key, /*prove=*/true,
        [self, src, client_on_dst,
         next = std::move(next)](util::Result<rpc::Server::AbciQueryResult> res) {
          if (self->finished) return;
          if (!res.is_ok()) {
            self->finish(false, "proof query failed: " + res.status().to_string());
            return;
          }
          const chain::Height h = res.value().height;
          const chain::StoreProof proof = res.value().proof;
          src->query_header(
              self->machine(), h,
              [self, client_on_dst, proof, h,
               next](util::Result<rpc::Server::HeaderInfo> hres) {
                if (self->finished) return;
                if (!hres.is_ok()) {
                  self->finish(false, "header query failed");
                  return;
                }
                const rpc::Server::HeaderInfo& info = hres.value();
                ibc::Header header;
                header.chain_id = info.header.chain_id;
                header.height = info.header.height;
                header.time = info.header.time;
                header.app_hash_after = info.app_hash_after;
                header.validators_hash = info.header.validators_hash;
                header.block_id = chain::BlockId{info.header.hash()};
                header.commit = info.commit;
                ibc::MsgUpdateClient update;
                update.client_id = client_on_dst;
                update.header = std::move(header);
                next(proof, h, update.to_msg());
              });
        });
  }

  static std::uint64_t handshake_gas(std::size_t msgs) {
    return 69'000 + 250'000 * static_cast<std::uint64_t>(msgs);
  }

  // --- the eleven steps --------------------------------------------------

  void start() {
    create_client_on_a();
  }

  void create_client_on_a() {
    auto self = shared_from_this();
    // Client of B on A, initialized from B's current head.
    sb()->status(machine(), [self](rpc::Server::StatusInfo st) {
      if (self->finished) return;
      self->sb()->query_header(
          self->machine(), st.height,
          [self](util::Result<rpc::Server::HeaderInfo> res) {
            if (self->finished) return;
            if (!res.is_ok()) {
              self->finish(false, "cannot fetch B header");
              return;
            }
            ibc::MsgCreateClient msg;
            msg.client_state = make_client_state(
                self->cb_chain().id, self->cb_chain().engine->validators(),
                self->driver->trusting_period_);
            msg.initial_height = res.value().header.height;
            msg.initial_consensus.app_hash = res.value().app_hash_after;
            msg.initial_consensus.timestamp = res.value().header.time;
            msg.initial_consensus.validators_hash =
                res.value().header.validators_hash;
            self->submit_and_read(
                *self->driver->wallet_a_, self->sa(), {msg.to_msg()},
                handshake_gas(1), "create_client", "client_id",
                [self](std::string id) {
                  self->result.client_on_a = std::move(id);
                  self->create_client_on_b();
                });
          });
    });
  }

  void create_client_on_b() {
    auto self = shared_from_this();
    sa()->status(machine(), [self](rpc::Server::StatusInfo st) {
      if (self->finished) return;
      self->sa()->query_header(
          self->machine(), st.height,
          [self](util::Result<rpc::Server::HeaderInfo> res) {
            if (self->finished) return;
            if (!res.is_ok()) {
              self->finish(false, "cannot fetch A header");
              return;
            }
            ibc::MsgCreateClient msg;
            msg.client_state = make_client_state(
                self->ca().id, self->ca().engine->validators(),
                self->driver->trusting_period_);
            msg.initial_height = res.value().header.height;
            msg.initial_consensus.app_hash = res.value().app_hash_after;
            msg.initial_consensus.timestamp = res.value().header.time;
            msg.initial_consensus.validators_hash =
                res.value().header.validators_hash;
            self->submit_and_read(
                *self->driver->wallet_b_, self->sb(), {msg.to_msg()},
                handshake_gas(1), "create_client", "client_id",
                [self](std::string id) {
                  self->result.client_on_b = std::move(id);
                  self->conn_init();
                });
          });
    });
  }

  void conn_init() {
    ibc::MsgConnOpenInit msg;
    msg.client_id = result.client_on_a;
    msg.counterparty_client_id = result.client_on_b;
    submit_and_read(*driver->wallet_a_, sa(), {msg.to_msg()},
                    handshake_gas(1), "connection_open_init", "connection_id",
                    [self = shared_from_this()](std::string id) {
                      self->result.connection_a = std::move(id);
                      self->conn_try();
                    });
  }

  void conn_try() {
    auto self = shared_from_this();
    proof_and_update(
        sa(), result.client_on_b, ibc::host::connection_key(result.connection_a),
        [self](chain::StoreProof proof, chain::Height h, chain::Msg update) {
          ibc::MsgConnOpenTry msg;
          msg.client_id = self->result.client_on_b;
          msg.counterparty_client_id = self->result.client_on_a;
          msg.counterparty_connection = self->result.connection_a;
          msg.proof_init = std::move(proof);
          msg.proof_height = h;
          self->submit_and_read(
              *self->driver->wallet_b_, self->sb(),
              {std::move(update), msg.to_msg()}, handshake_gas(2),
              "connection_open_try", "connection_id",
              [self](std::string id) {
                self->result.connection_b = std::move(id);
                self->conn_ack();
              });
        });
  }

  void conn_ack() {
    auto self = shared_from_this();
    proof_and_update(
        sb(), result.client_on_a, ibc::host::connection_key(result.connection_b),
        [self](chain::StoreProof proof, chain::Height h, chain::Msg update) {
          ibc::MsgConnOpenAck msg;
          msg.connection_id = self->result.connection_a;
          msg.counterparty_connection = self->result.connection_b;
          msg.proof_try = std::move(proof);
          msg.proof_height = h;
          self->submit_and_read(
              *self->driver->wallet_a_, self->sa(),
              {std::move(update), msg.to_msg()}, handshake_gas(2),
              "connection_open_ack", "connection_id",
              [self](std::string) { self->conn_confirm(); });
        });
  }

  void conn_confirm() {
    auto self = shared_from_this();
    proof_and_update(
        sa(), result.client_on_b, ibc::host::connection_key(result.connection_a),
        [self](chain::StoreProof proof, chain::Height h, chain::Msg update) {
          ibc::MsgConnOpenConfirm msg;
          msg.connection_id = self->result.connection_b;
          msg.proof_ack = std::move(proof);
          msg.proof_height = h;
          self->submit_and_read(
              *self->driver->wallet_b_, self->sb(),
              {std::move(update), msg.to_msg()}, handshake_gas(2),
              "connection_open_confirm", "connection_id",
              [self](std::string) { self->chan_init(); });
        });
  }

  void chan_init() {
    ibc::MsgChanOpenInit msg;
    msg.port = ibc::kTransferPort;
    msg.connection = result.connection_a;
    msg.counterparty_port = ibc::kTransferPort;
    msg.ordering = driver->ordering_;
    msg.version = "ics20-1";
    submit_and_read(*driver->wallet_a_, sa(), {msg.to_msg()},
                    handshake_gas(1), "channel_open_init", "channel_id",
                    [self = shared_from_this()](std::string id) {
                      self->result.channel_a = std::move(id);
                      self->chan_try();
                    });
  }

  void chan_try() {
    auto self = shared_from_this();
    proof_and_update(
        sa(), result.client_on_b,
        ibc::host::channel_key(ibc::kTransferPort, result.channel_a),
        [self](chain::StoreProof proof, chain::Height h, chain::Msg update) {
          ibc::MsgChanOpenTry msg;
          msg.port = ibc::kTransferPort;
          msg.connection = self->result.connection_b;
          msg.counterparty_port = ibc::kTransferPort;
          msg.counterparty_channel = self->result.channel_a;
          msg.ordering = self->driver->ordering_;
          msg.version = "ics20-1";
          msg.proof_init = std::move(proof);
          msg.proof_height = h;
          self->submit_and_read(
              *self->driver->wallet_b_, self->sb(),
              {std::move(update), msg.to_msg()}, handshake_gas(2),
              "channel_open_try", "channel_id",
              [self](std::string id) {
                self->result.channel_b = std::move(id);
                self->chan_ack();
              });
        });
  }

  void chan_ack() {
    auto self = shared_from_this();
    proof_and_update(
        sb(), result.client_on_a,
        ibc::host::channel_key(ibc::kTransferPort, result.channel_b),
        [self](chain::StoreProof proof, chain::Height h, chain::Msg update) {
          ibc::MsgChanOpenAck msg;
          msg.port = ibc::kTransferPort;
          msg.channel = self->result.channel_a;
          msg.counterparty_channel = self->result.channel_b;
          msg.proof_try = std::move(proof);
          msg.proof_height = h;
          self->submit_and_read(
              *self->driver->wallet_a_, self->sa(),
              {std::move(update), msg.to_msg()}, handshake_gas(2),
              "channel_open_ack", "channel_id",
              [self](std::string) { self->chan_confirm(); });
        });
  }

  void chan_confirm() {
    auto self = shared_from_this();
    proof_and_update(
        sa(), result.client_on_b,
        ibc::host::channel_key(ibc::kTransferPort, result.channel_a),
        [self](chain::StoreProof proof, chain::Height h, chain::Msg update) {
          ibc::MsgChanOpenConfirm msg;
          msg.port = ibc::kTransferPort;
          msg.channel = self->result.channel_b;
          msg.proof_ack = std::move(proof);
          msg.proof_height = h;
          self->submit_and_read(
              *self->driver->wallet_b_, self->sb(),
              {std::move(update), msg.to_msg()}, handshake_gas(2),
              "channel_open_confirm", "channel_id",
              [self](std::string) { self->finish(true, {}); });
        });
  }
};

HandshakeDriver::HandshakeDriver(Testbed& testbed, int relayer_wallet,
                                 net::MachineId machine,
                                 sim::Duration trusting_period, int chain_x,
                                 int chain_y, ibc::ChannelOrdering ordering)
    : testbed_(testbed),
      machine_(machine),
      trusting_period_(trusting_period),
      chain_x_(chain_x),
      chain_y_(chain_y),
      ordering_(ordering) {
  if (chain_x < 0 || chain_x >= testbed.chain_count() || chain_y < 0 ||
      chain_y >= testbed.chain_count() || chain_x == chain_y) {
    init_error_ = "handshake references unknown chain pair (" +
                  std::to_string(chain_x) + ", " + std::to_string(chain_y) +
                  ") in a " + std::to_string(testbed.chain_count()) +
                  "-chain testbed";
    return;
  }
  relayer::WalletConfig wc;
  wc.optimistic_sequencing = false;  // handshakes wait for each commit
  wc.confirm_timeout = sim::seconds(60);
  wc.accounts = {testbed.relayer_account(chain_x, relayer_wallet)};
  wallet_a_ = std::make_unique<relayer::Wallet>(
      testbed.scheduler(),
      *testbed.chain(chain_x).servers[static_cast<std::size_t>(machine)],
      machine, wc);
  wc.accounts = {testbed.relayer_account(chain_y, relayer_wallet)};
  wallet_b_ = std::make_unique<relayer::Wallet>(
      testbed.scheduler(),
      *testbed.chain(chain_y).servers[static_cast<std::size_t>(machine)],
      machine, wc);
}

HandshakeDriver::~HandshakeDriver() = default;

void HandshakeDriver::establish_channel(
    std::function<void(ChannelSetupResult)> cb) {
  if (!init_error_.empty()) {
    ChannelSetupResult failed;
    failed.ok = false;
    failed.error = init_error_;
    failed.chain_x = chain_x_;
    failed.chain_y = chain_y_;
    if (cb) cb(std::move(failed));
    return;
  }
  flow_ = std::make_shared<Flow>();
  flow_->driver = this;
  flow_->cb = std::move(cb);
  flow_->result.chain_x = chain_x_;
  flow_->result.chain_y = chain_y_;
  flow_->start();
}

ChannelSetupResult HandshakeDriver::establish_channel_blocking(
    sim::TimePoint limit) {
  ChannelSetupResult result;
  bool done = false;
  establish_channel([&](ChannelSetupResult r) {
    result = std::move(r);
    done = true;
  });
  sim::Scheduler& sched = testbed_.scheduler();
  while (!done && sched.now() < limit) {
    if (!sched.step()) break;
  }
  if (!done) {
    result.ok = false;
    result.error = "handshake did not complete before limit";
  }
  return result;
}

}  // namespace xcc
