// Table I: execution summary for the Tendermint throughput experiments —
// how many of the requested transfers reach the blockchain's mempool
// ("submitted") and how many of those are committed, per input rate.
//
// Paper values:
//   250-9,000 RPS: >99% submitted, >99% committed
//   10,000: 80.17% submitted, 98.3% committed-of-submitted
//   11,000: 38.6% / 91.6%     12,000: 17.8% / 74.6%
//   13,000: 10.3% / 51%       14,000:  8.5% / 29.2%
// The collapse is driven by RPC overload: broadcasts rejected, confirmations
// unavailable, account sequences desynchronised.

#include "common.hpp"

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  const int reps = bench::reps_or(opt, 2, 20);

  bench::print_header(
      "Table I: execution summary for Tendermint throughput experiments",
      ">99% submitted below 10,000 RPS; collapse to 8.5% at 14,000", opt);

  std::vector<double> rates = {2000, 9000, 10000, 11000, 12000, 13000, 14000};

  std::vector<xcc::ExperimentConfig> configs;
  for (double rps : rates) {
    for (int rep = 0; rep < reps; ++rep) {
      configs.push_back(
          bench::inclusion_config(rps, rep, 15, /*resolve_workload=*/true));
    }
  }
  const auto results = bench::run_sweep(opt, configs);

  util::Table table({"input rate", "requests made", "submitted", "submitted %",
                     "committed", "committed % (of submitted)",
                     "seq mismatches", "no-confirmation"});
  std::size_t idx = 0;
  for (double rps : rates) {
    double requested = 0, submitted = 0, committed = 0;
    double seqmis = 0, noconf = 0;
    int n = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto& res = results[idx++];
      if (!res.ok) continue;
      ++n;
      requested += static_cast<double>(res.workload.requested);
      submitted += static_cast<double>(res.workload.broadcast);
      committed += static_cast<double>(res.workload.committed);
      seqmis += static_cast<double>(res.sequence_mismatch_errors);
      noconf += static_cast<double>(res.no_confirmation_errors);
    }
    if (n == 0) continue;
    requested /= n;
    submitted /= n;
    committed /= n;
    table.add_row(
        {util::fmt_int(static_cast<long long>(rps)),
         util::fmt_int(static_cast<long long>(requested)),
         util::fmt_int(static_cast<long long>(submitted)),
         util::fmt_percent(requested > 0 ? submitted / requested : 0),
         util::fmt_int(static_cast<long long>(committed)),
         util::fmt_percent(submitted > 0 ? committed / submitted : 0),
         util::fmt_int(static_cast<long long>(seqmis / n)),
         util::fmt_int(static_cast<long long>(noconf / n))});
    std::cout << "  rate " << rps << " done\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  bench::write_view(opt, "table1_submission", table);
  std::cout << "\nNote: seq-mismatch / no-confirmation columns count the\n"
               "wallet-level errors the paper names in §IV-A and §V.\n";
  return 0;
}
