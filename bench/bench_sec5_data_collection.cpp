// §V "Transaction data collection": the paper's tool must fetch every
// transaction of every block through tx_search-style queries, and reports
// that one block of 20 txs x 100 transfer messages returns 331,706 lines of
// output in ~2.9 s, and a block of 20 x 100 recv messages takes ~5.7 s —
// with pagination needed because blocks can exceed a single response.
//
// This bench builds exactly those two blocks by running a 2,000-transfer
// batch end-to-end, then measures the Cross-chain Data Connector collecting
// each of them through the real paginated RPC path.

#include "common.hpp"

#include "ibc/msgs.hpp"
#include "xcc/data_connector.hpp"
#include "xcc/handshake.hpp"
#include "xcc/workload.hpp"

namespace {

/// The block on `ledger` containing the most messages of `url`.
chain::Height densest_block(const chain::Ledger& ledger,
                            const std::string& url, std::size_t& msg_count) {
  chain::Height best = 0;
  msg_count = 0;
  for (chain::Height h = 1; h <= ledger.height(); ++h) {
    const chain::Block* block = ledger.block_at(h);
    std::size_t count = 0;
    for (const chain::Tx& tx : block->txs) {
      for (const chain::Msg& m : tx.msgs) {
        if (m.type_url == url) ++count;
      }
    }
    if (count > msg_count) {
      msg_count = count;
      best = h;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {}, /*instrumented=*/false);

  bench::print_header(
      "Section V: transaction data collection cost",
      "block of 2,000 transfer msgs ~2.9 s; 2,000 recv msgs ~5.7 s; "
      "pagination required",
      opt);

  // Single self-contained scenario, executed through the shared runner so
  // all benches report via the same path (--jobs has nothing to fan out).
  std::size_t transfer_msgs = 0, recv_msgs = 0;
  xcc::RpcDataConnector::BlockData data_a, data_b;
  std::size_t bytes_a = 0, bytes_b = 0;
  std::string error;
  std::vector<std::function<void()>> jobs{[&] {
    xcc::TestbedConfig cfg;
    cfg.user_accounts = 24;
    xcc::Testbed tb(cfg);
    tb.start_chains();
    tb.run_until_height(2, sim::seconds(120));
    xcc::HandshakeDriver driver(tb);
    const auto channel = driver.establish_channel_blocking(sim::seconds(600));
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

    // 2,000 transfers in one block -> one A block with 20 x 100 transfer
    // msgs, and (after relay) B block(s) dense with recv msgs.
    xcc::WorkloadConfig wl;
    wl.total_transfers = 2'000;
    wl.spread_blocks = 1;
    xcc::TransferWorkload workload(tb, channel, wl, nullptr);
    workload.start();
    const sim::TimePoint limit = tb.scheduler().now() + sim::seconds(1'200);
    while (tb.scheduler().now() < limit &&
           relayer.stats().packets_completed < 2'000) {
      if (!tb.scheduler().step()) break;
    }

    const chain::Height block_a = densest_block(
        *tb.chain_a().ledger, ibc::kMsgTransferUrl, transfer_msgs);
    const chain::Height block_b = densest_block(
        *tb.chain_b().ledger, ibc::kMsgRecvPacketUrl, recv_msgs);

    // Collect each block through the paper's RPC path (machine-0 full
    // nodes, Tendermint's 30-per-page default).
    xcc::RpcDataConnector conn_a(tb.scheduler(), *tb.chain_a().servers[0], 0);
    xcc::RpcDataConnector conn_b(tb.scheduler(), *tb.chain_b().servers[0], 0);
    const sim::TimePoint deadline = tb.scheduler().now() + sim::seconds(600);
    data_a = conn_a.collect_block_blocking(block_a, deadline);
    data_b = conn_b.collect_block_blocking(block_b, deadline);

    for (const auto& tx : data_a.txs) bytes_a += tx.event_bytes();
    for (const auto& tx : data_b.txs) bytes_b += tx.event_bytes();
  }};
  bench::run_scenarios(opt, jobs);
  if (!error.empty()) {
    std::cout << "setup failed: " << error << "\n";
    return 1;
  }

  util::Table table({"block", "msgs", "txs", "pages", "payload (KB)",
                     "collection time (s)", "paper (s, at 2,000 msgs)"});
  table.add_row({"A (transfer msgs)", util::fmt_int(static_cast<long long>(transfer_msgs)),
                 std::to_string(data_a.txs.size()), std::to_string(data_a.pages),
                 util::fmt_int(static_cast<long long>(bytes_a / 1024)),
                 util::fmt_double(sim::to_seconds(data_a.elapsed), 2), "2.9"});
  table.add_row({"B (recv msgs)", util::fmt_int(static_cast<long long>(recv_msgs)),
                 std::to_string(data_b.txs.size()), std::to_string(data_b.pages),
                 util::fmt_int(static_cast<long long>(bytes_b / 1024)),
                 util::fmt_double(sim::to_seconds(data_b.elapsed), 2), "5.7"});
  table.print(std::cout);

  std::cout << "\n(The paper's 331,706-line / 579,919-line outputs correspond "
               "to the payload sizes above;\n recv blocks cost ~2x because "
               "their event payloads are ~2x larger.)\n";
  bench::write_view(opt, "sec5_data_collection", table);
  return 0;
}
