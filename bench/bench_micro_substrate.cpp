// Substrate microbenchmarks (google-benchmark): hashing, Merkle trees,
// codecs, the KV store, the DES scheduler and the serialized RPC queue.
// These measure the *simulator's* real CPU costs, useful for keeping the
// experiment harness fast.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "chain/store.hpp"
#include "chain/tx.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "ibc/msgs.hpp"
#include "sim/scheduler.hpp"
#include "sim/service_queue.hpp"
#include "util/rng.hpp"
#include "xcc/bench_report.hpp"

namespace {

void BM_Sha256(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(64 * 1024);

// Incremental hashing (reused Sha256 object, one update per chunk) vs the
// one-shot path above: the store and the wallets hash short multi-part
// inputs, so the per-finalize reset cost is the interesting number.
void BM_Sha256Incremental(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  crypto::Sha256 hasher;
  for (auto _ : state) {
    hasher.update(data.data(), 40);  // length-prefix + key sized chunk
    hasher.update(data.data() + 40, data.size() - 40);
    benchmark::DoNotOptimize(hasher.finalize());  // finalize() auto-resets
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Incremental)->Arg(64)->Arg(1024)->Arg(64 * 1024);

// Batched digests over many small inputs (entry-hash shaped).
void BM_Sha256Batch(benchmark::State& state) {
  const std::size_t n = 256;
  std::vector<util::Bytes> inputs;
  std::vector<util::BytesView> views;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(util::to_bytes("bank/balances/user-" +
                                    std::to_string(i) + "/uatom=123456"));
  }
  for (const util::Bytes& b : inputs) views.push_back(b);
  std::vector<crypto::Digest> out(n);
  for (auto _ : state) {
    crypto::sha256_batch(views.data(), views.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sha256Batch);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(util::to_bytes("leaf-" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::merkle_root(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(128)->Arg(1024);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(util::to_bytes("leaf-" + std::to_string(i)));
  }
  const crypto::Digest root = crypto::merkle_root(leaves);
  for (auto _ : state) {
    const auto proof = crypto::merkle_prove(leaves, 7 % leaves.size());
    benchmark::DoNotOptimize(
        crypto::merkle_verify(root, leaves[7 % leaves.size()], proof));
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(16)->Arg(256);

void BM_TxEncodeDecode(benchmark::State& state) {
  chain::Tx tx;
  tx.sender = "user-42";
  tx.gas_limit = 4'000'000;
  tx.fee = 40'000;
  for (int i = 0; i < state.range(0); ++i) {
    ibc::MsgTransfer m;
    m.source_port = "transfer";
    m.source_channel = "channel-0";
    m.denom = "uatom";
    m.amount = 1;
    m.sender = "user-42";
    m.receiver = "recv-user-42";
    m.timeout_height = 100'000;
    tx.msgs.push_back(m.to_msg());
  }
  for (auto _ : state) {
    const util::Bytes enc = tx.encode();
    chain::Tx out;
    benchmark::DoNotOptimize(chain::decode_tx(enc, out));
  }
}
BENCHMARK(BM_TxEncodeDecode)->Arg(1)->Arg(100);

void BM_PacketCommitment(benchmark::State& state) {
  ibc::Packet p;
  p.sequence = 42;
  p.source_port = "transfer";
  p.source_channel = "channel-0";
  p.destination_port = "transfer";
  p.destination_channel = "channel-0";
  p.data = util::to_bytes(
      R"({"amount":"1","denom":"uatom","receiver":"r","sender":"s"})");
  p.timeout_height = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.commitment());
  }
}
BENCHMARK(BM_PacketCommitment);

void BM_KvStoreSet(benchmark::State& state) {
  chain::KvStore store;
  util::Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
                  std::to_string(i % 10'000),
              util::to_bytes("0123456789abcdef0123456789abcdef"));
    ++i;
  }
}
BENCHMARK(BM_KvStoreSet);

// Overwriting existing keys is the store's hot path during block execution
// (sequence counters, commitments rewritten every block). With the cached
// per-entry digest only the NEW value is hashed on overwrite.
void BM_KvStoreOverwrite(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
                  std::to_string(i),
              util::to_bytes("0123456789abcdef0123456789abcdef"));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("ibc/commitments/ports/transfer/channels/channel-0/sequences/" +
                  std::to_string(i % 10'000),
              util::to_bytes("fedcba9876543210fedcba9876543210"));
    ++i;
  }
}
BENCHMARK(BM_KvStoreOverwrite);

void BM_KvStoreGet(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("bank/balances/user-" + std::to_string(i) + "/uatom",
              util::to_bytes("123456789"));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get_view(
        "bank/balances/user-" + std::to_string(i % 10'000) + "/uatom"));
    ++i;
  }
}
BENCHMARK(BM_KvStoreGet);

// Churn: insert + erase keeps the store at a steady ~10k live entries while
// exercising tombstones, index deletion and the periodic compaction.
void BM_KvStoreErase(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("ibc/commitments/" + std::to_string(i), util::to_bytes("c"));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("ibc/commitments/" + std::to_string(10'000 + i),
              util::to_bytes("c"));
    store.erase("ibc/commitments/" + std::to_string(i));
    ++i;
  }
}
BENCHMARK(BM_KvStoreErase);

// Allocation-free prefix iteration vs the copying keys_with_prefix (both
// over a 1,000-entry module prefix inside a 21k-entry store).
void BM_KvStorePrefixScan(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("bank/balances/user-" + std::to_string(i) + "/uatom",
              util::to_bytes("123456789"));
    store.set("auth/sequences/user-" + std::to_string(i),
              util::to_bytes("7"));
  }
  for (int i = 0; i < 1'000; ++i) {
    store.set("ibc/commitments/" + std::to_string(i), util::to_bytes("c"));
  }
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    for (auto it = store.scan_prefix("ibc/commitments/"); it.next();) {
      bytes += it.value().size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_KvStorePrefixScan);

void BM_KvStoreKeysWithPrefix(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("bank/balances/user-" + std::to_string(i) + "/uatom",
              util::to_bytes("123456789"));
    store.set("auth/sequences/user-" + std::to_string(i),
              util::to_bytes("7"));
  }
  for (int i = 0; i < 1'000; ++i) {
    store.set("ibc/commitments/" + std::to_string(i), util::to_bytes("c"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.keys_with_prefix("ibc/commitments/"));
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_KvStoreKeysWithPrefix);

void BM_KvStoreProve(benchmark::State& state) {
  chain::KvStore store;
  for (int i = 0; i < 10'000; ++i) {
    store.set("k/" + std::to_string(i), util::to_bytes("v"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.prove("k/5000"));
  }
}
BENCHMARK(BM_KvStoreProve);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sched.schedule_at(sim::micros(i), [&fired] { ++fired; });
    }
    sched.run_until(sim::seconds(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerThroughput);

// Timeout-style usage: most scheduled events are cancelled before firing
// (e.g. the consensus engine re-arming its round timer). The slab scheduler
// makes cancel O(1) and recycles slots instead of growing a live map.
void BM_SchedulerScheduleCancelFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int wave = 0; wave < 10; ++wave) {
      std::vector<sim::EventId> timeouts;
      timeouts.reserve(1'000);
      for (int i = 0; i < 1'000; ++i) {
        timeouts.push_back(sched.schedule_after(sim::millis(100),
                                                [&fired] { ++fired; }));
      }
      // 90% of the timeouts are cancelled before they fire.
      for (std::size_t i = 0; i < timeouts.size(); ++i) {
        if (i % 10 != 0) sched.cancel(timeouts[i]);
      }
      sched.run_until(sched.now() + sim::millis(200));
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerScheduleCancelFire);

void BM_ServiceQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::ServiceQueue q(sched);
    int done = 0;
    for (int i = 0; i < 1'000; ++i) {
      q.enqueue(sim::micros(10), [&done] { ++done; });
    }
    sched.run_until(sim::seconds(1));
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_ServiceQueue);

void BM_SignVerify(benchmark::State& state) {
  const crypto::KeyPair kp = crypto::derive_key_pair("bench-signer");
  const util::Bytes msg = util::to_bytes("precommit/chain/42");
  for (auto _ : state) {
    const crypto::Signature sig = crypto::sign(kp.priv, msg);
    benchmark::DoNotOptimize(crypto::verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SignVerify);

}  // namespace

// Console reporter that additionally captures each run for the --json
// report. Everything a microbenchmark measures is host time, so the capture
// lands in the report's nondeterministic "host" section (the virtual
// section stays empty — there is no simulation here).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      auto row = util::json::Value::object();
      row.set("name", run.benchmark_name());
      row.set("iterations", static_cast<std::int64_t>(run.iterations));
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.set("real_ns_per_iter", run.real_accumulated_time * 1e9 / iters);
      row.set("cpu_ns_per_iter", run.cpu_accumulated_time * 1e9 / iters);
      results.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  util::json::Value results = util::json::Value::array();
};

// Custom main instead of BENCHMARK_MAIN(): strip the shared harness flags
// (--jobs/--full/--reps/--trace/--json) so google-benchmark does not reject
// the command line. --json is honored: the captured runs are written to
// BENCH_micro_substrate.json, a BENCH report whose host section carries a
// "microbench" array.
int main(int argc, char** argv) {
  bool json = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json") {
      json = true;
      continue;
    }
    if (a == "--jobs" || a == "--reps" || a == "--trace") {
      ++i;  // skip the flag's value too
      continue;
    }
    if (a == "--full") continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json) {
    const std::string json_path = "BENCH_micro_substrate.json";
    xcc::BenchReportInputs in;
    in.bench = "micro_substrate";
    auto report = xcc::build_bench_report(in);
    for (auto& member : report.members()) {
      if (member.first == "host") {
        member.second.set("microbench", std::move(reporter.results));
      }
    }
    const util::Status st = xcc::write_json_file(json_path, report);
    if (!st.is_ok()) {
      std::cerr << "[json] FAILED: " << st.to_string() << "\n";
      return 1;
    }
    std::cout << "[json] wrote " << json_path << "\n";
  }
  return 0;
}
