// §IV-A gas usage: the paper reports that 100-message transactions consume
// on average 3,669,161 gas (transfers), 7,238,699 (receives, including the
// client update Hermes prepends) and 3,107,462 (acknowledgements), with
// variances of at most 1%, 4.1% and 7.6%.
//
// This bench relays 500 transfers end-to-end and reads the actual gas of
// every committed 100-message transaction from the ledgers.

#include "common.hpp"

#include "ibc/msgs.hpp"

namespace {

struct GasSample {
  util::Sample gas;
  void scan(const chain::Ledger& ledger, const std::string& url,
            std::size_t min_msgs) {
    for (chain::Height h = 1; h <= ledger.height(); ++h) {
      const chain::Block* block = ledger.block_at(h);
      const auto* results = ledger.results_at(h);
      for (std::size_t i = 0; i < block->txs.size(); ++i) {
        if (!(*results)[i].status.is_ok()) continue;
        std::size_t matching = 0;
        for (const chain::Msg& m : block->txs[i].msgs) {
          if (m.type_url == url) ++matching;
        }
        if (matching >= min_msgs) {
          gas.add(static_cast<double>((*results)[i].gas_used));
        }
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {}, /*instrumented=*/false);

  bench::print_header(
      "Gas usage of 100-message IBC transactions (§IV-A)",
      "transfer 3,669,161 (±1%) / recv 7,238,699 (±4.1%) / ack 3,107,462 "
      "(±7.6%)",
      opt);

  // Single self-contained scenario, executed through the shared runner so
  // all benches report via the same path (--jobs has nothing to fan out).
  GasSample transfer, recv, ack;
  std::uint64_t completed = 0;
  std::string error;
  std::vector<std::function<void()>> jobs{[&] {
    xcc::TestbedConfig tb_cfg;
    tb_cfg.user_accounts = 10;
    xcc::Testbed tb(tb_cfg);
    tb.start_chains();
    tb.run_until_height(2, sim::seconds(120));
    xcc::HandshakeDriver driver(tb);
    const auto channel = driver.establish_channel_blocking(
        tb.scheduler().now() + sim::seconds(600));
    if (!channel.ok) {
      error = channel.error;
      return;
    }
    relayer::ChainHandle ha{tb.chain_a().servers[0].get(), tb.chain_a().id,
                            {tb.relayer_account_a(0)}};
    relayer::ChainHandle hb{tb.chain_b().servers[0].get(), tb.chain_b().id,
                            {tb.relayer_account_b(0)}};
    relayer::Relayer relayer(tb.scheduler(), ha, hb, channel.path(), {},
                             nullptr);
    relayer.start();

    xcc::WorkloadConfig wl;
    wl.total_transfers = 500;
    xcc::TransferWorkload workload(tb, channel, wl, nullptr);
    workload.start();

    const sim::TimePoint limit = tb.scheduler().now() + sim::seconds(1'200);
    while (tb.scheduler().now() < limit &&
           relayer.stats().packets_completed < 500) {
      if (!tb.scheduler().step()) break;
    }

    transfer.scan(*tb.chain_a().ledger, ibc::kMsgTransferUrl, 100);
    recv.scan(*tb.chain_b().ledger, ibc::kMsgRecvPacketUrl, 100);
    ack.scan(*tb.chain_a().ledger, ibc::kMsgAcknowledgementUrl, 100);
    completed = relayer.stats().packets_completed;
  }};
  bench::run_scenarios(opt, jobs);
  if (!error.empty()) {
    std::cout << "setup failed: " << error << "\n";
    return 1;
  }

  auto spread = [](const util::Sample& s) {
    if (s.mean() <= 0) return 0.0;
    return std::max(s.max() - s.mean(), s.mean() - s.min()) / s.mean();
  };

  util::Table table({"tx type (100 msgs)", "mean gas", "max spread",
                     "paper gas", "paper spread", "n"});
  table.add_row({"MsgTransfer", util::fmt_int(static_cast<long long>(transfer.gas.mean())),
                 util::fmt_percent(spread(transfer.gas)), "3,669,161", "1.0%",
                 std::to_string(transfer.gas.count())});
  table.add_row({"MsgRecvPacket (+update)",
                 util::fmt_int(static_cast<long long>(recv.gas.mean())),
                 util::fmt_percent(spread(recv.gas)), "7,238,699", "4.1%",
                 std::to_string(recv.gas.count())});
  table.add_row({"MsgAcknowledgement (+update)",
                 util::fmt_int(static_cast<long long>(ack.gas.mean())),
                 util::fmt_percent(spread(ack.gas)), "3,107,462", "7.6%",
                 std::to_string(ack.gas.count())});
  table.print(std::cout);
  bench::write_view(opt, "table_gas_usage", table);
  std::cout << "\ncompleted " << completed << "/500 transfers\n";
  return 0;
}
