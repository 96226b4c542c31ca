// Ablation (§IV-A discussion): "An alternative to increase cross-chain
// throughput would be to establish separate cross-chain channels for each
// relayer to relay on, however ... tokens sent through different channels
// are represented using different denominations and are not fungible."
//
// This bench quantifies that trade-off at an input rate past the
// single-relayer peak:
//   A. 1 relayer, 1 channel              (baseline)
//   B. 2 relayers, 1 shared channel      (Fig. 9: redundancy)
//   C. 2 relayers, 2 separate channels   (the alternative: workload split)
// and shows the resulting voucher denominations on the destination chain.

#include "common.hpp"

#include "ibc/transfer.hpp"
#include "xcc/analysis.hpp"
#include "xcc/handshake.hpp"
#include "xcc/workload.hpp"

namespace {

struct Outcome {
  double tfps = 0;
  std::uint64_t completed = 0;
  std::uint64_t redundant = 0;
  std::vector<std::string> denoms;
};

Outcome run_config(int relayers, int channels, double rps) {
  xcc::TestbedConfig cfg;
  cfg.user_accounts = static_cast<int>(rps / 20) + 8;
  xcc::Testbed tb(cfg);
  tb.start_chains();
  tb.run_until_height(2, sim::seconds(120));

  std::vector<xcc::ChannelSetupResult> chans;
  for (int c = 0; c < channels; ++c) {
    xcc::HandshakeDriver driver(tb, /*relayer_wallet=*/0, /*machine=*/0);
    auto ch = driver.establish_channel_blocking(tb.scheduler().now() +
                                                sim::seconds(900));
    if (!ch.ok) return {};
    chans.push_back(std::move(ch));
  }

  std::vector<std::unique_ptr<relayer::Relayer>> rls;
  for (int k = 0; k < relayers; ++k) {
    const auto m = static_cast<std::size_t>(k);
    relayer::ChainHandle ha{tb.chain_a().servers[m].get(), tb.chain_a().id,
                            {tb.relayer_account_a(k)}};
    relayer::ChainHandle hb{tb.chain_b().servers[m].get(), tb.chain_b().id,
                            {tb.relayer_account_b(k)}};
    relayer::RelayerConfig rc;
    rc.machine = static_cast<net::MachineId>(m);
    // With separate channels, relayer k serves channel k; with a shared
    // channel everyone serves channel 0.
    const auto& path = chans[static_cast<std::size_t>(k) % chans.size()];
    rls.push_back(std::make_unique<relayer::Relayer>(
        tb.scheduler(), ha, hb, path.path(), rc, nullptr));
    rls.back()->start();
  }

  // Split the workload across channels (half the rate each when 2).
  std::vector<std::unique_ptr<xcc::TransferWorkload>> loads;
  const chain::Height start_height = tb.chain_a().ledger->height();
  for (int c = 0; c < channels; ++c) {
    xcc::WorkloadConfig wl;
    wl.requests_per_second = rps / channels;
    wl.duration_blocks = 50;
    wl.account_offset = static_cast<std::size_t>(c) *
                        (static_cast<std::size_t>(rps / 20) / 2 + 2);
    loads.push_back(std::make_unique<xcc::TransferWorkload>(
        tb, chans[static_cast<std::size_t>(c)], wl, nullptr));
    loads.back()->start();
  }

  tb.run_until_height(start_height + 50, sim::seconds(3'000));

  Outcome out;
  std::uint64_t requested = 0;
  double window = 0;
  for (int c = 0; c < channels; ++c) {
    xcc::Analyzer analyzer(tb, chans[static_cast<std::size_t>(c)]);
    const auto b = analyzer.completion_breakdown(loads[static_cast<std::size_t>(c)]->stats().requested);
    out.completed += b.completed;
    requested += b.requested;
    window = analyzer.window_seconds(start_height, start_height + 50);
    out.denoms.push_back(ibc::voucher_denom(
        "transfer/" + chans[static_cast<std::size_t>(c)].channel_b + "/" +
        cosmos::kNativeDenom));
  }
  if (window > 0) out.tfps = static_cast<double>(out.completed) / window;
  for (const auto& r : rls) {
    out.redundant += r->stats().redundant_errors;
    r->stop();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {}, /*instrumented=*/false);

  bench::print_header(
      "Ablation: two relayers — one shared channel vs one channel each",
      "§IV-A: separate channels avoid redundancy but break token fungibility",
      opt);

  const double rps = 220;  // past the single-relayer peak
  // Three self-contained testbeds — run them concurrently.
  Outcome one, shared, split;
  std::vector<std::function<void()>> jobs{
      [&] { one = run_config(1, 1, rps); },
      [&] { shared = run_config(2, 1, rps); },
      [&] { split = run_config(2, 2, rps); }};
  bench::run_scenarios(opt, jobs);

  util::Table table({"configuration", "TFPS", "completed in window",
                     "redundant msgs", "voucher denominations on B"});
  table.add_row({"1 relayer, 1 channel", util::fmt_double(one.tfps, 1),
                 util::fmt_int(static_cast<long long>(one.completed)),
                 util::fmt_int(static_cast<long long>(one.redundant)), "1"});
  table.add_row({"2 relayers, shared channel",
                 util::fmt_double(shared.tfps, 1),
                 util::fmt_int(static_cast<long long>(shared.completed)),
                 util::fmt_int(static_cast<long long>(shared.redundant)), "1"});
  table.add_row({"2 relayers, 2 channels", util::fmt_double(split.tfps, 1),
                 util::fmt_int(static_cast<long long>(split.completed)),
                 util::fmt_int(static_cast<long long>(split.redundant)),
                 std::to_string(split.denoms.size())});
  table.print(std::cout);

  std::cout << "\nvoucher denominations with split channels (NOT fungible "
               "with each other):\n";
  for (const auto& d : split.denoms) {
    std::cout << "  " << d.substr(0, 24) << "...\n";
  }
  std::cout << "\nSeparate channels eliminate redundant deliveries and scale "
               "throughput,\nbut the same token arrives under a different "
               "denom per channel (§IV-A).\n";
  bench::write_view(opt, "ablation_two_channels", table);
  return 0;
}
