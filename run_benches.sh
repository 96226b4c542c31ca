#!/bin/bash
# Checkpointing bench runner: each bench runs inside bench_results/, its
# output is cached in bench_results/<name>.txt and its tables land next to
# it (<view>.csv, plus a machine-readable BENCH_<view>.json report for the
# bench_* binaries); completed benches are skipped, so the script can be
# re-invoked until everything is done.
#
#   ./run_benches.sh            run all benches (cached)
#   ./run_benches.sh --check    a warning-clean build (every target at the
#                               default build type with -Werror, in a
#                               temporary directory), sanitizer passes
#                               (TSan over the parallel
#                               runner + determinism + telemetry tests, then
#                               ASan+UBSan over the invariant checker, fuzz
#                               scenarios and relayer/RPC/query-cache regression
#                               tests), the golden-figure regression suite
#                               (plus every bench owning a CSV in
#                               bench/golden/ rerun at default settings; each
#                               CSV must match byte for byte),
#                               a --trace smoke test (one traced bench; the
#                               JSON must parse), the cache-ablation smoke
#                               (cache-off CSV byte-exact vs the committed
#                               golden; cache-on trace must parse), and the
#                               bench-report phase: emit a BENCH_*.json,
#                               schema-validate it together with everything
#                               cached in bench_results/, self-compare it
#                               with bench_compare (clean), re-run same-seed
#                               (virtual sections must match exactly) and
#                               verify a perturbed copy is rejected, and the
#                               mitigation phase: the stacked-ablation matrix
#                               smoke under ASan+UBSan, the two-relayer
#                               coordination + worker-pool determinism tests
#                               under TSan, invariant fuzzing with the RPC
#                               worker pool and coordination on, and a fresh
#                               smoke report bench_compare'd against the
#                               committed bench/baselines/ reference, and the
#                               mesh-routing phase: the hub/mesh/hop-sweep
#                               bench smoke under ASan+UBSan, a parallel
#                               multi-hop fuzz sweep under TSan, topology
#                               fuzzing (line/hub/mesh) on the ASan build,
#                               and a fresh smoke report bench_compare'd
#                               against bench/baselines/, and its
#                               --series/--trace artifacts, and the
#                               observability phase: the sampler/watchdog
#                               suite under TSan with a 4-worker sweep, a
#                               planted campaign bug auto-dumping a flight
#                               record that tools/run_report renders,
#                               --series byte-identity across --jobs, the
#                               virtual.series report section validated by
#                               bench_report_schema.py, and an
#                               -DIBC_TELEMETRY=OFF build whose default
#                               bench CSV stays byte-identical, and the
#                               benchmark driver's perfbench_tests (built
#                               via perfbench/CMakeLists.txt into
#                               .bench_build). Ends with a phase summary
#                               table.
cd "$(dirname "$0")"
repo=$PWD

if [ "$1" = "--check" ]; then
  set -e

  PHASES=()
  PHASE_STATUS=()
  phase() {
    PHASES+=("$1")
    PHASE_STATUS+=("FAIL")
    echo
    echo "== $1 =="
  }
  phase_ok() {
    PHASE_STATUS[$((${#PHASE_STATUS[@]} - 1))]="ok"
  }
  print_summary() {
    echo
    echo "== check summary =="
    printf '%-60s %s\n' "phase" "status"
    printf '%-60s %s\n' "-----" "------"
    local all_ok=0
    for i in "${!PHASES[@]}"; do
      printf '%-60s %s\n' "${PHASES[$i]}" "${PHASE_STATUS[$i]}"
      [ "${PHASE_STATUS[$i]}" = "ok" ] || all_ok=1
    done
    if [ ${#PHASES[@]} -gt 0 ] && [ "$all_ok" -eq 0 ]; then
      echo "all checks passed"
    fi
  }
  trap print_summary EXIT

  phase "warning-clean build: every target, default build type, -Werror"
  wdir=$(mktemp -d -t ibc_werror_XXXXXX)
  cmake -B "$wdir" -S . -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "$wdir" -j
  rm -rf "$wdir"
  phase_ok

  phase "ThreadSanitizer: parallel runner + determinism + telemetry"
  cmake -B build-tsan -S . -DTHREAD_SANITIZER=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j --target test_parallel test_relayer_behavior test_telemetry
  (cd build-tsan && ctest --output-on-failure \
    -R 'Parallel|Determinism|Telemetry|Tracer|Registry|Counter|Gauge|Histogram|StepLog|DisabledMode')
  phase_ok

  phase "ASan+UBSan: invariant checker + fuzz scenarios + relayer + RPC + store property"
  cmake -B build-asan -S . -DADDRESS_SANITIZER=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j --target test_invariants test_faults fuzz_scenarios \
    test_relayer_behavior test_query_cache test_rpc_relayer test_campaigns test_lifecycle \
    test_integration
  # StoreModelProperty/StoreProperty run the randomized-op store model tests
  # (hash index, arena, spill values, compaction) under ASan. RpcFixture
  # covers responses and frames that share the ledger's block records.
  # StackFixture holds the relayer-level timeout test and the two-relayer
  # redundant-retry path, both closure chains of the relay legs.
  (cd build-asan && ctest --output-on-failure \
    -R 'InvariantChecker|NetworkFault|TimeoutPath|CodecProperty|RelayerFixture|RpcFixture|QueryCache|StoreModelProperty|StoreProperty|Campaign|ClientLifecycleFixture|RestartFixture|FrameFixture|StackFixture')
  ./build-asan/src/check/fuzz_scenarios --seeds=40
  phase_ok

  phase "chaos campaigns: families under ASan+UBSan, identity diff, TSan pool"
  # Short horizon per family (the 1000-block versions are ctest targets);
  # ASan+UBSan catches lifetime bugs in the fault/recovery paths.
  for f in halt-restart client-expiry client-freeze relayer-crash \
           censorship frame-storm; do
    ./build-asan/src/check/fuzz_scenarios --campaign="$f" --blocks=160
  done
  # The planted expired-client bug must be detected.
  ./build-asan/src/check/fuzz_scenarios --campaign=client-expiry --blocks=300 \
    --mutate=skip-expiry-check --expect-violation
  # Same-seed reruns must be byte-identical (CSV incl. final app hashes),
  # independent of worker count.
  cdir=$(mktemp -d)
  ./build-asan/src/check/fuzz_scenarios --campaign=all --blocks=160 --jobs=2 \
    | grep -v 'worker(s)\|^ran ' > "$cdir/a.txt"
  ./build-asan/src/check/fuzz_scenarios --campaign=all --blocks=160 --jobs=6 \
    | grep -v 'worker(s)\|^ran ' > "$cdir/b.txt"
  diff "$cdir/a.txt" "$cdir/b.txt"
  rm -rf "$cdir"
  # All families through the parallel runner under TSan.
  cmake --build build-tsan -j --target fuzz_scenarios
  ./build-tsan/src/check/fuzz_scenarios --campaign=all --blocks=160 --jobs=4
  phase_ok

  phase "golden-figure regression suite"
  cmake --build build -j --target test_golden
  (cd build && ctest --output-on-failure -R 'GoldenFigures')
  # Every bench that owns a committed figure CSV, at default settings in a
  # scratch directory: each CSV must come out byte-identical to
  # bench/golden/ (ablation_cached_smoke.csv belongs to the cache-ablation
  # phase below).
  golden_benches="bench_inclusion bench_relayer
    bench_table1_submission bench_fig12_latency_breakdown
    bench_fig13_submission_strategies bench_sec5_data_collection
    bench_sec5_websocket_limit bench_table_gas_usage
    bench_ablation_two_channels bench_validators_latency"
  # shellcheck disable=SC2086
  cmake --build build -j --target $golden_benches
  gdir=$(mktemp -d -t ibc_golden_XXXXXX)
  for b in $golden_benches; do
    (cd "$gdir" && "$repo/build/bench/$b" >/dev/null)
  done
  n=0
  for g in bench/golden/*.csv; do
    [ "$(basename "$g")" = ablation_cached_smoke.csv ] && continue
    diff "$g" "$gdir/$(basename "$g")"
    n=$((n + 1))
  done
  echo "$n default CSVs byte-identical to bench/golden/"
  rm -rf "$gdir"
  phase_ok

  phase "trace smoke: fig12 with --trace"
  cmake --build build -j --target bench_fig12_latency_breakdown
  tdir=$(mktemp -d -t ibc_trace_XXXXXX)
  (cd "$tdir" && "$repo/build/bench/bench_fig12_latency_breakdown" \
    --trace trace.json >/dev/null)
  python3 - "$tdir/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
phases = {e["ph"] for e in events}
assert "b" in phases and "e" in phases, "missing async packet lifecycle spans"
assert any(e["ph"] == "X" and e["name"] == "queue_wait" for e in events), \
    "missing rpc queue_wait spans"
print(f"trace OK: {len(events)} events parse, packet + queue_wait spans present")
EOF
  rm -rf "$tdir"
  phase_ok

  phase "cache-ablation smoke: cache-off byte-exact, cache-on trace parses"
  cmake --build build -j --target bench_ablation_cached_relayer
  adir=$(mktemp -d -t ibc_ablation_XXXXXX)
  (cd "$adir" && "$repo/build/bench/bench_ablation_cached_relayer" --smoke \
    --trace trace.json >/dev/null)
  # The cache-off rows are the paper-faithful default path: any byte drift
  # from the committed golden means default relayer behaviour changed.
  diff bench/golden/ablation_cached_smoke.csv "$adir/ablation_cached_relayer.csv"
  echo "ablation smoke CSV byte-identical to bench/golden/ablation_cached_smoke.csv"
  python3 - "$adir/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
hits = [e for e in events if e.get("ph") == "X" and e["name"].startswith("hit_")]
assert hits, "missing query_cache hit spans in cache-on trace"
print(f"ablation trace OK: {len(events)} events parse, {len(hits)} query_cache hit spans")
EOF
  rm -rf "$adir"
  phase_ok

  phase "bench reports: schema + self-compare + same-seed + perturbed"
  cmake --build build -j --target bench_ablation_cached_relayer bench_compare \
    bench_table_gas_usage calibrate
  jdir=$(mktemp -d -t ibc_json_XXXXXX)
  for run in a b; do
    mkdir "$jdir/$run"
    (cd "$jdir/$run" && "$repo/build/bench/bench_ablation_cached_relayer" \
      --smoke --json >/dev/null)
  done
  ja="$jdir/a/BENCH_ablation_cached_relayer.json"
  jb="$jdir/b/BENCH_ablation_cached_relayer.json"
  # Every emitted report (the fresh pair plus anything cached from a full
  # bench run) must satisfy schema v1.
  cached_reports=$(ls bench_results/BENCH_*.json 2>/dev/null || true)
  # shellcheck disable=SC2086
  python3 tools/bench_report_schema.py "$ja" "$jb" $cached_reports
  # Self-compare: a report diffed against itself must be clean (exit 0).
  ./build/tools/bench_compare "$ja" "$ja" >/dev/null
  echo "self-compare clean"
  # Two independent same-seed runs: the virtual sections must match exactly
  # (the determinism contract); host time gets a generous noise band.
  ./build/tools/bench_compare --noise 10 "$ja" "$jb"
  # Surface the peak-RSS delta explicitly: memory regressions hide inside
  # the blanket noise band above, so print the numbers where CI logs show
  # them even when the compare passes.
  python3 - "$ja" "$jb" <<'EOF'
import json, sys
rss = []
for path in sys.argv[1:3]:
    with open(path) as f:
        rss.append(json.load(f)["host"]["peak_rss_bytes"])
delta = (rss[1] - rss[0]) / rss[0] * 100 if rss[0] else 0.0
print(f"peak RSS: {rss[0] / 2**20:.1f} MiB vs {rss[1] / 2**20:.1f} MiB "
      f"({delta:+.1f}%)")
EOF
  # A perturbed virtual cell must be caught as drift (exit 2).
  python3 - "$ja" "$jdir/BENCH_perturbed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc["virtual"]["points"][0][2] = "999.99"
with open(sys.argv[2], "w") as f:
    json.dump(doc, f)
EOF
  if ./build/tools/bench_compare "$ja" "$jdir/BENCH_perturbed.json" >/dev/null; then
    echo "ERROR: bench_compare accepted a perturbed virtual section"
    exit 1
  else
    rc=$?
    [ "$rc" -eq 2 ] || { echo "ERROR: expected exit 2 for virtual drift, got $rc"; exit 1; }
  fi
  echo "perturbed report rejected with exit 2"
  # Strict flag parsing: unknown flags must be rejected with usage, and
  # --help must succeed.
  if ./build/bench/bench_ablation_cached_relayer --no-such-flag >/dev/null 2>&1; then
    echo "ERROR: unknown --no-such-flag was accepted"
    exit 1
  fi
  ./build/bench/bench_ablation_cached_relayer --help | grep -q -- "--json" \
    || { echo "ERROR: --help does not list --json"; exit 1; }
  # A scenario bench has no first experiment to instrument, so --trace must
  # be a usage error (exit 1), not a silent no-op.
  rc=0
  (cd "$jdir" && "$repo/build/bench/bench_table_gas_usage" --trace t.json) \
    >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 1 ] || {
    echo "ERROR: bench_table_gas_usage --trace: expected usage exit 1, got $rc"
    exit 1; }
  # calibrate only prints a fixed probe set: every output flag and every
  # sweep-size flag is a usage error. A --reps/--jobs count that is not a
  # positive integer is one for every bench.
  for cmd in "calibrate --json" "calibrate --trace t.json" \
             "calibrate --series s.csv" "calibrate --flight f.json" \
             "calibrate --full" "calibrate --reps 2" \
             "bench_table_gas_usage --jobs abc"; do
    rc=0
    # Unquoted: "bench --flag value" splits into its words.
    # shellcheck disable=SC2086
    (cd "$jdir" && "$repo/build/bench/"$cmd) >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || {
      echo "ERROR: $cmd: expected usage exit 1, got $rc"
      exit 1; }
  done
  echo "strict flag parsing OK (unknown flag, scenario-bench --trace," \
    "calibrate output and sweep flags and a non-numeric --jobs rejected," \
    "--help lists flags)"
  rm -rf "$jdir"
  phase_ok

  phase "bench_scale smoke: 10^5 tier, schema + same-seed identity + RSS"
  cmake --build build -j --target bench_scale_transfers bench_compare
  sdir=$(mktemp -d -t ibc_scale_XXXXXX)
  for run in a b; do
    mkdir "$sdir/$run"
    (cd "$sdir/$run" && "$repo/build/bench/bench_scale_transfers" --smoke \
      --json >/dev/null)
  done
  python3 tools/bench_report_schema.py "$sdir/a/BENCH_scale_transfers.json" \
    "$sdir/b/BENCH_scale_transfers.json"
  # Same-seed byte-identity of the result table (open-loop workload,
  # Zipf sampler and bulk genesis are all on this path).
  diff "$sdir/a/scale_transfers.csv" "$sdir/b/scale_transfers.csv"
  echo "scale smoke CSV byte-identical across two same-seed runs"
  ./build/tools/bench_compare --noise 10 "$sdir/a/BENCH_scale_transfers.json" \
    "$sdir/b/BENCH_scale_transfers.json"
  # Surface the tier's host-side scaling numbers in the CI log.
  python3 - "$sdir/a/BENCH_scale_transfers.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    tiers = json.load(f)["host"]["scale_tiers"]
for t in tiers:
    print(f"tier {t['transfers']}: {t['sim_seconds_per_host_second']:.1f} "
          f"sim-s/host-s, {t['events_per_second'] / 1e3:.0f}k events/s, "
          f"peak RSS {t['peak_rss_bytes'] / 2**20:.1f} MiB")
EOF
  rm -rf "$sdir"
  phase_ok

  phase "mitigations: ablation smoke ASan, coordination TSan, baseline compare"
  # The stacked-ablation matrix (RPC worker pool x indexed tx_search x
  # relayer coordination) under ASan+UBSan: every mitigation code path runs
  # sanitized, and the bench's own self-checks must pass.
  cmake --build build-asan -j --target bench_ablation_mitigations
  mdir=$(mktemp -d -t ibc_mitig_XXXXXX)
  (cd "$mdir" && "$repo/build-asan/bench/bench_ablation_mitigations" --smoke \
    >/dev/null)
  echo "ablation-matrix smoke passed under ASan+UBSan"
  # Two-relayer coordination regression, worker-pool determinism and the
  # indexed-equivalence property under TSan (the worker pool and the
  # parallel sweep both exercise the threaded runner).
  cmake --build build-tsan -j --target test_mitigations
  (cd build-tsan && ctest --output-on-failure \
    -R 'CoordinationPolicy|CoordinationRegression|WorkerPoolDeterminism|IndexedTxSearch')
  # Invariant checker stays green when the worker pool reorders query
  # completions, with and without coordination sharding on top.
  ./build-asan/src/check/fuzz_scenarios --seeds=20 --rpc-workers=4
  ./build-asan/src/check/fuzz_scenarios --seeds=12 --rpc-workers=4 --coordination=shard
  # Fresh smoke report vs the committed reference: the virtual sections are
  # seed-deterministic, so any drift (exit 2) is a behaviour change in a
  # mitigation path; host-time noise across machines only warns (exit 1).
  cmake --build build -j --target bench_ablation_mitigations bench_compare
  mkdir "$mdir/fresh"
  (cd "$mdir/fresh" && "$repo/build/bench/bench_ablation_mitigations" --smoke \
    --json >/dev/null)
  rc=0
  ./build/tools/bench_compare --noise 10 \
    bench/baselines/BENCH_ablation_mitigations.json \
    "$mdir/fresh/BENCH_ablation_mitigations.json" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "ERROR: mitigation smoke report drifted from bench/baselines (rc=$rc)"
    exit 1
  fi
  [ "$rc" -eq 1 ] && echo "note: host-time noise vs baseline (expected across machines)"
  rm -rf "$mdir"
  phase_ok

  phase "mesh routing: bench smoke ASan, multi-hop fuzz TSan, baseline compare"
  # The mesh-routing bench (hub vs full mesh, hop sweep, relayer placement)
  # under ASan+UBSan: the forward middleware's escrow/mint/unwind paths and
  # the bench's own self-checks all run sanitized.
  cmake --build build-asan -j --target bench_mesh_routing
  xdir=$(mktemp -d -t ibc_mesh_XXXXXX)
  (cd "$xdir" && "$repo/build-asan/bench/bench_mesh_routing" --smoke >/dev/null)
  echo "mesh-routing smoke passed under ASan+UBSan"
  # Multi-hop forwarding under TSan with a parallel fuzz sweep: the per-hop
  # relayer fleet and the threaded runner race against each other.
  cmake --build build-tsan -j --target fuzz_scenarios
  ./build-tsan/src/check/fuzz_scenarios --seeds=8 --jobs=4 --topology=line3
  # Invariant checker across topology shapes (line / hub / full mesh) on the
  # ASan build: trace prefixing, refund unwinding and per-channel
  # coordination all fuzz clean.
  ./build-asan/src/check/fuzz_scenarios --seeds=10 --topology=hub4
  ./build-asan/src/check/fuzz_scenarios --seeds=10 --topology=mesh4 --coordination=shard
  # Fresh smoke report vs the committed reference: seed-deterministic
  # virtual sections, so drift (exit 2) is a routing behaviour change.
  cmake --build build -j --target bench_mesh_routing bench_compare
  mkdir "$xdir/fresh"
  (cd "$xdir/fresh" && "$repo/build/bench/bench_mesh_routing" --smoke \
    --json >/dev/null)
  rc=0
  ./build/tools/bench_compare --noise 10 \
    bench/baselines/BENCH_mesh_routing.json \
    "$xdir/fresh/BENCH_mesh_routing.json" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "ERROR: mesh-routing smoke report drifted from bench/baselines (rc=$rc)"
    exit 1
  fi
  [ "$rc" -eq 1 ] && echo "note: host-time noise vs baseline (expected across machines)"
  # Mesh runs go through the one run driver, so the observability flags
  # must write their artifacts (the first point is a two-hop route).
  mkdir "$xdir/obs"
  (cd "$xdir/obs" && "$repo/build/bench/bench_mesh_routing" --smoke \
    --series "$xdir/mesh.series.csv" --trace "$xdir/mesh.trace.json" >/dev/null)
  [ -s "$xdir/mesh.series.csv" ] && [ -s "$xdir/mesh.trace.json" ] || {
    echo "ERROR: bench_mesh_routing --series/--trace wrote no artifacts"; exit 1; }
  echo "mesh-routing --series and --trace artifacts written"
  rm -rf "$xdir"
  phase_ok

  phase "observability: series TSan, planted-bug flight dump, schema, OFF build"
  # Sampler + watchdogs under TSan: the sampled experiment runs inside a
  # 4-worker sweep (SeriesDeterminism), and the campaign dump path runs its
  # whole testbed with journaling armed.
  cmake --build build-tsan -j --target test_observability
  (cd build-tsan && ctest --output-on-failure \
    -R 'SeriesDeterminism|PlantedAnomaly|CampaignFlightDump')
  # Planted invariant violation -> the run must auto-dump a flight record
  # that tools/run_report parses and renders end to end.
  cmake --build build -j --target fuzz_scenarios run_report bench_relayer
  odir=$(mktemp -d -t ibc_obs_XXXXXX)
  ./build/src/check/fuzz_scenarios --campaign=client-expiry --blocks=300 \
    --mutate=skip-expiry-check --expect-violation \
    --flight="$odir/expiry.flight" --sample-blocks=50
  [ -s "$odir/expiry.flight" ] || {
    echo "ERROR: planted violation produced no flight dump"; exit 1; }
  ./build/tools/run_report --flight "$odir/expiry.flight" \
    --out "$odir/expiry.md"
  grep -q '^## Failure' "$odir/expiry.md"
  grep -q 'campaign-phase:' "$odir/expiry.md"
  echo "flight dump renders: $(wc -l < "$odir/expiry.md") markdown lines"
  # --series at two worker counts must be byte-identical, and with --json
  # every view's report grows a virtual.series section the schema validator
  # accepts.
  mkdir "$odir/j1" "$odir/j4" "$odir/on" "$odir/off"
  (cd "$odir/j1" && "$repo/build/bench/bench_relayer" --reps 1 --jobs 1 \
    --series "$odir/s1.csv" --json >/dev/null)
  (cd "$odir/j4" && "$repo/build/bench/bench_relayer" --reps 1 --jobs 4 \
    --series "$odir/s4.csv" >/dev/null)
  diff "$odir/s1.csv" "$odir/s4.csv"
  echo "series CSV byte-identical at --jobs 1 vs --jobs 4"
  python3 tools/bench_report_schema.py "$odir"/j1/BENCH_*.json
  python3 - "$odir/j1/BENCH_fig8_relayer_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
series = doc["virtual"]["series"]
assert series["samples"] > 0 and series["columns"], "empty series section"
print(f"series section OK: {series['samples']} samples, "
      f"{len(series['columns'])} columns, "
      f"{len(series['warnings'])} warning(s)")
EOF
  # The compile-time kill switch: an -DIBC_TELEMETRY=OFF build must stay
  # green (unit suites for the pillar's passive classes included) and its
  # default bench CSVs must be byte-identical to the instrumented build's.
  cmake -B build-notel -S . -DIBC_TELEMETRY=OFF
  cmake --build build-notel -j --target bench_relayer test_observability
  (cd build-notel && ctest --output-on-failure \
    -R 'FlightRecorder|Watchdog|Sampler')
  (cd "$odir/on" && "$repo/build/bench/bench_relayer" --reps 1 >/dev/null)
  (cd "$odir/off" && "$repo/build-notel/bench/bench_relayer" --reps 1 >/dev/null)
  for v in fig8_relayer_throughput fig9_two_relayers fig10_completion_one \
           fig11_completion_two; do
    diff "$odir/on/$v.csv" "$odir/off/$v.csv"
  done
  echo "default fig8-fig11 CSVs byte-identical with telemetry compiled out"
  rm -rf "$odir"
  phase_ok

  phase "benchmark driver: perfbench_tests (adapter equals run_experiment)"
  # The repo benchmark's own build (perfbench/CMakeLists.txt); its tests
  # check that the benchmark driver gives the same virtual results as
  # xcc::run_experiment on every workload, untraced and traced.
  cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build .bench_build -j --target perfbench_tests
  ./.bench_build/perfbench_tests
  phase_ok

  exit 0
fi

# Every bench runs inside bench_results/, so its <view>.csv, BENCH_<view>.json
# and other outputs land there and the checkout stays untouched.
mkdir -p bench_results
cd bench_results
for b in "$repo"/build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  out="$name.txt"
  if [ -s "$out" ] && grep -q "__DONE__" "$out"; then
    continue
  fi
  # bench_* binaries also emit the machine-readable reports; calibrate's
  # output is host-dependent probing with no result table, so it stays
  # text-only.
  json=""
  case "$name" in
    bench_*) json="--json" ;;
  esac
  echo "running $name..."
  # shellcheck disable=SC2086
  { echo "=== $name ==="; timeout 3000 "$b" $json 2>/dev/null; echo; echo "__DONE__"; } > "$out"
done
echo "all benches complete"
