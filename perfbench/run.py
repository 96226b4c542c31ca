#!/usr/bin/env python3
"""The repo benchmark: one command per workload, run from the checkout root.

    python3 perfbench/run.py --workload relay-serial --seed 1 --seconds 36 --trace 0

Builds the simulator and the benchmark driver from source into .bench_build,
then runs the workload as repetitions, each a single-threaded simulation in a
fresh process (perfbench_driver), until --seconds of host time have passed.
Every repetition uses the same seed, so their virtual results must agree byte
for byte; host figures are the medians over repetitions.

--trace 0  prints the end-to-end metrics of BENCHMARK.json.
--trace 1  alternates untraced and traced repetitions and prints the
           per-layer metrics; the traced ones write their spans to
           .bench_build/spans/.

Each metric is printed as "name value unit", then the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The run exits non-zero, with the reason on standard error, when the build
fails, a repetition fails (an invariant violation included), repetitions
disagree, the outcome counts do not add up, or a traced-run sanity check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SPANS = os.path.join(BUILD, "spans")
WORKLOADS = ("relay-serial", "relay-mitigated", "inclusion-zipf")
REP_TIMEOUT_S = 120

# Further setups timed inside each repetition, so setup_s is a median over
# many: setup is milliseconds on the relay workloads, genesis-bound (3x10^5
# accounts, most of a second) on inclusion-zipf.
EXTRA_SETUPS = {"relay-serial": 30, "relay-mitigated": 30, "inclusion-zipf": 1}


class GateFailure(Exception):
    pass


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise GateFailure("build failed: " + " ".join(cmd))


def repetition(workload, seed, traced, index):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--setups", str(EXTRA_SETUPS[workload])]
    if traced:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(SPANS, f"{workload}-seed{seed}-rep{index}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateFailure(f"repetition {index} exceeded {REP_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise GateFailure(f"repetition {index} exited {proc.returncode} "
                          f"without a result: {proc.stderr.strip()[-2000:]}")
    if proc.returncode != 0 or not rep.get("ok"):
        raise GateFailure(f"repetition {index} failed: "
                          f"{rep.get('error', proc.stderr.strip()[-2000:])}")
    return rep


def run_repetitions(workload, seed, seconds, trace):
    """Untraced repetitions (trace 0), or alternating untraced and traced
    ones with at least one of each (trace 1), for `seconds`: a repetition
    starts only if, at the median pace so far, at least half of it falls
    inside them."""
    reps, took = [], []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append(repetition(workload, seed, traced, len(reps)))
        took.append(time.monotonic() - t0)
        enough = len(reps) >= (2 if trace else 1)
        if enough and time.monotonic() - start + median(took) / 2 > seconds:
            return reps


def check_outcomes(workload, reps):
    """The correctness gate over the repetitions' virtual results."""
    first = json.dumps(reps[0]["virtual"], sort_keys=True)
    for i, rep in enumerate(reps[1:], 1):
        if json.dumps(rep["virtual"], sort_keys=True) != first:
            raise GateFailure(f"repetition {i} gave other virtual results than "
                              "repetition 0 for the same seed")
    v = reps[0]["virtual"]
    parts = v["succeeded"] + v["rejected"] + v["timed_out"] + v["unresolved"]
    if parts != v["attempted"]:
        raise GateFailure(
            f"succeeded {v['succeeded']} + rejected {v['rejected']} + timed out "
            f"{v['timed_out']} + unresolved {v['unresolved']} != attempted "
            f"{v['attempted']}")
    if v["attempted"] < 1:
        raise GateFailure("the workload attempted no transfers")
    fb = v["final_breakdown"]
    if workload == "inclusion-zipf":
        expected, what = v["succeeded"], "committed transfers"
    else:
        expected, what = fb["completed"], "completed transfers in the final breakdown"
    if v["latency_samples"] != expected:
        raise GateFailure(f"{v['latency_samples']} latency samples != {expected} "
                          f"{what}")
    committed = fb["initiated_only"] + fb["partial"] + fb["completed"] + fb["timed_out"]
    if v["sends_observed"] != committed:
        raise GateFailure(f"subscriber saw {v['sends_observed']} send_packet "
                          f"commits, the Analyzer {committed}")


def median(values):
    return statistics.median(values)


def end_to_end(reps):
    v = reps[0]["virtual"]
    setups = [s for r in reps
              for s in [r["host"]["setup_s"]] + r["host"]["extra_setups_s"]]
    return {
        "setup_s": median(setups),
        "transfers_per_host_s": median(
            [r["virtual"]["succeeded"] / r["host"]["measured_s"] for r in reps]),
        "peak_rss_mib": median([r["host"]["peak_rss_mib"] for r in reps]),
        "tfps": v["tfps"],
        "latency_p50_s": v["latency_p50_s"],
        "latency_p99_s": v["latency_p99_s"],
        "success_ratio": v["succeeded"] / v["attempted"],
    }


LAYERS = ("sim", "rpc", "relayer_pull", "relayer_build", "relayer_broadcast",
          "consensus_exec", "crypto_hash", "kv_store")


def check_trace(workload, traced):
    """Traced-run sanity: disjoint self times fit in the traced wall time, and
    the rpc/relayer layers are busy exactly where the workload predicts."""
    for r in traced:
        h = r["host"]
        self_sum = sum(h[k]["self_s"] for k in LAYERS) + h["check_self_s"]
        if self_sum > h["profiled_wall_s"] * (1 + 1e-9):
            raise GateFailure(f"per-layer self times sum to {self_sum:.6f} s, "
                              f"more than the traced wall {h['profiled_wall_s']:.6f} s")
        relayer_calls = sum(h[k]["calls"] for k in LAYERS if k.startswith("relayer"))
        rpc_share = h["rpc"]["self_s"] / h["profiled_wall_s"]
        if workload == "inclusion-zipf":
            if relayer_calls != 0 or rpc_share >= 0.05:
                raise GateFailure(f"inclusion-zipf: relayer calls {relayer_calls}, "
                                  f"rpc self share {rpc_share:.3f} (want 0, < 0.05)")
        elif relayer_calls == 0 or h["rpc"]["self_s"] <= 0:
            raise GateFailure(f"{workload}: relayer calls {relayer_calls}, "
                              f"rpc self {h['rpc']['self_s']} s (want both > 0)")


def per_layer(reps):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    v = reps[0]["virtual"]

    def host(key, sub=None):
        return median([r["host"][key][sub] if sub else r["host"][key] for r in traced])

    def all_host(key):
        return median([r["host"][key] for r in reps])

    traced_wall = host("measured_s")
    return {
        "setup.genesis_s": all_host("genesis_s"),
        "setup.boot_s": all_host("boot_s"),
        "setup.handshake_s": all_host("handshake_s"),
        "sim.events": v["events"],
        "sim.events_per_host_s": v["events"] / traced_wall,
        "sim.self_s": host("sim", "self_s"),
        "consensus.exec_self_s": host("consensus_exec", "self_s"),
        "consensus.exec_calls": host("consensus_exec", "calls"),
        "consensus.host_ms_per_block_p50": host("host_ms_per_block_p50"),
        "consensus.host_ms_per_block_p99": host("host_ms_per_block_p99"),
        "consensus.block_interval_s": v["avg_block_interval"],
        "consensus.failed_rounds": v["failed_rounds"],
        "chain.store_self_s": host("kv_store", "self_s"),
        "chain.store_calls": host("kv_store", "calls"),
        "chain.mempool_peak": v["mempool_peak"],
        "rss.growth_mib": median([r["host"]["rss_growth_mib"] for r in untraced]),
        "crypto.hash_self_s": host("crypto_hash", "self_s"),
        "crypto.hash_calls": host("crypto_hash", "calls"),
        "rpc.self_s": host("rpc", "self_s"),
        "rpc.calls": host("rpc", "calls"),
        "rpc.requests_served": v["rpc_requests_served"],
        "rpc.requests_rejected": v["rpc_requests_rejected"],
        "rpc.busy_s": v["rpc_busy_s"],
        "rpc.utilization": v["rpc_utilization"],
        "relayer.pull_self_s": host("relayer_pull", "self_s"),
        "relayer.pull_calls": host("relayer_pull", "calls"),
        "relayer.build_self_s": host("relayer_build", "self_s"),
        "relayer.build_calls": host("relayer_build", "calls"),
        "relayer.broadcast_self_s": host("relayer_broadcast", "self_s"),
        "relayer.broadcast_calls": host("relayer_broadcast", "calls"),
        "relayer.chunk_queries": v["chunk_queries"],
        "relayer.chunk_queries_skipped": v["chunk_queries_skipped"],
        "relayer.cache_hit_ratio": v["cache_hit_ratio"],
        "relayer.redundant_ratio": v["redundant_ratio"],
        "relayer.coordination_skipped": v["coordination_skipped"],
        "latency.recv_leg_p50_s": v["recv_leg_p50_s"],
        "latency.ack_leg_p50_s": v["ack_leg_p50_s"],
        "latency.samples": v["latency_samples"],
        "wallet.sequence_mismatch": v["sequence_mismatch"],
        "wallet.no_confirmation": v["no_confirmation"],
        "net.messages": v["net_messages"],
        "net.bytes_per_transfer": v["net_bytes_per_transfer"],
        "check.blocks_checked": v["blocks_checked"],
        "check.self_s": host("check_self_s"),
        "profile.unattributed_s": host("unattributed_s"),
        "trace.overhead_ratio":
            traced_wall / median([r["host"]["measured_s"] for r in untraced]) - 1,
    }


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        reps = run_repetitions(args.workload, args.seed, args.seconds, args.trace)
        check_outcomes(args.workload, reps)
        if args.trace:
            check_trace(args.workload, [r for r in reps if r["traced"]])
            values = per_layer(reps)
        else:
            values = end_to_end(reps)
        declared = declared_metrics(args.trace)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise GateFailure("metrics declared but not measured: " + ", ".join(missing))
    except GateFailure as e:
        sys.stderr.write(f"perfbench: FAILED: {e}\n")
        return 1

    v = reps[0]["virtual"]
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value!r} {m['unit']}")
    print(f"repetitions {len(reps)} (traced {sum(r['traced'] for r in reps)}), "
          f"latency samples {v['latency_samples']}")
    failed = v["attempted"] - v["succeeded"]
    print(json.dumps({"correct": True, "attempted": v["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
