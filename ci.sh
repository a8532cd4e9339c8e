#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, and a smoke run
# of every experiment binary. Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# json_number KEY FILE
# Prints the first "KEY" number in FILE. The leading quote anchors the
# grep to the exact key, so prefixed keys such as
# "cold_bytes_per_instance" never match. Fails, naming the key and the
# file, when FILE holds no number under KEY.
json_number() {
  local key=$1 file=$2 value
  value=$(grep -m1 -o "\"$key\": *[0-9.eE+-]*" "$file" | sed 's/.*: *//' || true)
  if [ -z "$value" ]; then
    echo "gate: no number for key \"$key\" in $file" >&2
    return 1
  fi
  echo "$value"
}

# Every gate that failed, as "FILE KEY: MESSAGE"; ci.sh exits 1 once, at
# the end, when any did.
failed_gates=()

# failed MESSAGE
# Prints MESSAGE and records it as a failed gate; the run carries on.
failed() {
  echo "** $1 **"
  failed_gates+=("$1")
}

# gate FILE KEY floor|ceiling FRACTION BASELINE MESSAGE
# Reads the first "KEY" number in FILE and fails with MESSAGE when it is
# below (floor) or above (ceiling) FRACTION times BASELINE. BASELINE is a
# committed JSON file holding the same key, or a plain number. A key
# missing from FILE or from a BASELINE file fails the gate. A failed gate
# is recorded and the run carries on, so one run reports every gate.
gate() {
  local file=$1 key=$2 kind=$3 fraction=$4 baseline=$5 message=$6
  local current reference
  if ! current=$(json_number "$key" "$file"); then
    failed_gates+=("$file $key: missing")
    return 0
  fi
  if [ -f "$baseline" ]; then
    if ! reference=$(json_number "$key" "$baseline"); then
      failed_gates+=("$baseline $key: missing")
      return 0
    fi
  else
    reference=$baseline
  fi
  if ! awk -v cur="$current" -v base="$reference" -v kind="$kind" -v f="$fraction" \
    -v key="$key" -v msg="$message" 'BEGIN {
    if (kind != "floor" && kind != "ceiling") { print "gate: unknown kind " kind; exit 2 }
    limit = base * f;
    printf "%s: current %.2f, baseline %.2f, %s %.2f\n", key, cur, base, kind, limit;
    if ((kind == "floor" && cur < limit) || (kind == "ceiling" && cur > limit)) { print msg; exit 1 }
  }'; then
    failed_gates+=("$file $key: $message")
  fi
}

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings; covers the bas-analysis mc module) =="
# The unsafe lints hold the workspace's only unsafe code, the counting
# allocator in bas_sim::alloc, to a SAFETY comment on the impl and on
# every unsafe block, and to explicit blocks inside its unsafe fns.
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::redundant_clone -W clippy::needless_collect \
  -W clippy::large_enum_variant \
  -W clippy::undocumented_unsafe_blocks -W unsafe_op_in_unsafe_fn

echo "== cargo clippy (bas-analysis + bas-attack + bas-faults + bas-fleet + bas-plant + bas-sim + bas-traffic: no unwrap in the analyzers) =="
# The static analyzer is the crate whose own soundness claims the repo
# leans on, bas-attack classifies the kernels' replies and decides the
# dynamic matrix verdicts, bas-faults puts the churn schedules the race
# detector trusts on the kernel's fault calendar, bas-sim's run loop
# fires that calendar, bas-plant is the safety oracle behind every
# safety_violated verdict, and bas-fleet and bas-traffic run long fleet
# jobs where a stray panic aborts the whole run; panicking escape
# hatches are held to a stricter bar in all of them.
cargo clippy -p bas-analysis -p bas-attack -p bas-faults -p bas-fleet -p bas-plant -p bas-traffic -p bas-sim --all-targets -- -D warnings \
  -W clippy::unwrap_used

echo "== rustdoc (deny warnings: a moved or renamed item leaves no dead link) =="
# The vendored proptest stand-in carries its own broken links and stays out.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --no-deps --offline

echo "== cargo test =="
cargo test -q --workspace

echo "== basbench tests (the benchmark's own package) =="
# basbench calls run_fleet_with, run_traffic, check_cells and ExploreOpts
# from its own workspace, so an API change that breaks the benchmark
# fails here rather than only when the benchmark next runs.
cargo test -q --offline --manifest-path basbench/Cargo.toml

echo "== experiment smoke (every exp_* binary, --quick) =="
cargo build -q --release -p bas-bench
for bin in crates/bench/src/bin/exp_*.rs; do
  name="$(basename "$bin" .rs)"
  echo "-- $name --quick"
  "./target/release/$name" --quick > /dev/null
done

echo "== fault campaign (E16) + multi-platform recovery (A3) =="
# The campaign report must be byte-stable across worker counts; this
# regenerates the committed BENCH_faults.json and checks the determinism
# contract cheaply on top of the smoke run above.
./target/release/exp_fault_campaign --quick --json --workers 1 > /dev/null
mv BENCH_faults.json /tmp/BENCH_faults.w1.json
./target/release/exp_fault_campaign --quick --json --workers 4 > /dev/null
cmp /tmp/BENCH_faults.w1.json BENCH_faults.json \
  || failed "BENCH_faults.json differs across worker counts"
for platform in linux minix sel4; do
  echo "-- exp_recovery --quick --platform $platform"
  ./target/release/exp_recovery --quick --platform "$platform" > /dev/null
done

echo "== capability-flow differential (E17: static analyzer vs model checker) =="
# Exits nonzero if any of the 54 matrix cells or the seeded derivation
# scenarios disagree between the static witness analysis and the bounded
# checker, in either direction. --json writes BENCH_cap_flow.json.
./target/release/exp_cap_flow --quick --json --state-budget 500000 > /dev/null

echo "== capability-churn races (E19: detector vs model checker vs static leaks) =="
# Exits nonzero on any missed race, false positive in a churn-free trace,
# CAPABILITY_RACE bit in a plain matrix cell, unmapped revocation leak, or
# unconfirmed witness. The report itself carries no wall-clock values, so
# it must be byte-identical across worker counts.
./target/release/exp_cap_races --quick --json --workers 1 > /dev/null
mv BENCH_races.json /tmp/BENCH_races.w1.json
./target/release/exp_cap_races --quick --json --workers 4 > /dev/null
cmp /tmp/BENCH_races.w1.json BENCH_races.json \
  || failed "BENCH_races.json differs across worker counts"

echo "== committed reports match their regeneration =="
# The three reports above carry no wall-clock values, so each must also
# regenerate byte-identical to its committed copy: a change that moves
# one commits the new file with it.
git diff --exit-code -- BENCH_faults.json BENCH_cap_flow.json BENCH_races.json \
  || failed "a committed report differs from its regeneration"

echo "== race-detector perf gate (trace events/sec vs committed baseline, 30% floor) =="
# Guards the engine-driven churn sweep: replaying the full 21-scenario
# catalog must keep its trace-events/sec within 30% of the committed
# BENCH_races_baseline.json (refresh the baseline deliberately when the
# machine or the engine changes for good reason).
gate BENCH_races_perf.json events_per_second floor 0.7 BENCH_races_baseline.json \
  "** race-detector throughput regressed >30% **"

echo "== model check (E14: exhaustive bounded verification, capped state budget) =="
# Exits nonzero on any cell disagreement, truncated exploration, reachable
# internal invariant, POR verdict divergence, or failed counterexample
# replay. --json writes BENCH_mc.json.
./target/release/exp_model_check --quick --json --state-budget 500000 > /dev/null
# Outside its host and timing keys (top-level workers, cores,
# wall_seconds, states_per_second, sweep_scaling) the report is a pure
# function of the checker and the attack harness: every cell's counts,
# counterexample, POR row and replay. The committed copy must carry the
# regenerated one, so a change that moves any of them commits the new
# file with it.
git show HEAD:BENCH_mc.json > /tmp/BENCH_mc.committed.json
mc_deterministic() {
  grep -v -E '^  "(workers|cores|wall_seconds|states_per_second|sweep_scaling)":' "$1"
}
cmp -s <(mc_deterministic /tmp/BENCH_mc.committed.json) <(mc_deterministic BENCH_mc.json) \
  || failed "BENCH_mc.json: differs from the committed copy outside the host and timing keys"

echo "== model-check perf gate (states/sec vs committed baseline, 30% floor) =="
# Guards the explorer's hot path: the --quick sweep's states/sec must stay
# within 30% of the committed BENCH_mc_baseline.json (refresh the baseline
# deliberately when the machine or the explorer changes for good reason).
gate BENCH_mc.json states_per_second floor 0.7 BENCH_mc_baseline.json \
  "** model-check throughput regressed >30% **"

echo "== fleet perf gate (IPC hot path + throughput vs committed baseline, 30% floor) =="
# Guards the arena IPC hot path and the fleet executor:
# the --quick sweep's rates must stay within 30% of the committed
# BENCH_fleet_baseline.json (refresh the baseline deliberately when the
# machine or the executor changes for good reason).
# The committed full-mode report, whose exact counts are compared with
# their regeneration at the end of this section. It is read from git:
# the smoke run above has already overwritten the working copy with a
# --quick report.
git show HEAD:BENCH_fleet.json > /tmp/BENCH_fleet.committed.json
./target/release/exp_fleet_scale --quick > /dev/null
for metric in messages_per_second fleet_ipc_messages_per_wall_second; do
  gate BENCH_fleet.json "$metric" floor 0.7 BENCH_fleet_baseline.json \
    "** fleet throughput regressed >30% **"
done
# The same ping-pong with the kernel trace on, as every scenario runs it:
# the cost of one typed ipc.deliver record per message.
gate BENCH_fleet.json traced_messages_per_second floor 0.7 BENCH_fleet_baseline.json \
  "** traced IPC hot path regressed >30% **"
# Snapshot-fork boot gates: instances/sec has a floor like the other
# rates; bytes/instance is a regression in the *upward* direction, so it
# gets a ceiling instead (the cold-path keys are "cold_..."-prefixed).
gate BENCH_fleet.json boot_instances_per_sec floor 0.7 BENCH_fleet_baseline.json \
  "** snapshot boot throughput regressed >30% **"
gate BENCH_fleet.json bytes_per_instance ceiling 1.3 BENCH_fleet_baseline.json \
  "** snapshot boot memory per instance regressed >30% **"
# Residency: the largest --quick fleet (16 instances, 10 simulated min)
# on one worker. Each worker runs its instances one at a time on one
# recycled engine, checked out with its kernel trace off (51.2 KiB live
# in all; ~100 KiB when pooled engines kept their trace); 16 resident
# engines would need ~800 KiB. The value is an exact byte count, so the
# ceiling is a plain number that host load cannot trip, not a
# re-measured baseline: the measured value rounded up to 64 KiB.
gate BENCH_fleet.json fleet_peak_live_bytes ceiling 1 65536 \
  "** fleet peak live heap above 64 KiB: engines are piling up or keeping their trace **"
# Allocation budgets, exact allocator-call counts: a warm MINIX instance
# (checkout, 10 simulated s, report, checkin) allocates only its six
# process objects and the controller's memory-table slot list, and a
# recycled engine's steady state allocates nothing on any platform (the
# Linux and seL4 payloads travel inline, as MINIX messages do). Counts,
# not timings, so the ceilings are plain numbers.
gate BENCH_fleet.json lifecycle_allocs_per_instance ceiling 1 7 \
  "** warm MINIX instance allocates more than its 7-call budget **"
for platform in minix linux sel4; do
  gate BENCH_fleet.json "${platform}_steady_allocs_per_sim_second" ceiling 1 0 \
    "** recycled $platform engine allocates in its steady state **"
done
# Exact work ceilings, per simulated second of one quiet 10-minute
# instance: kernel entries, and plant commits (the plant commits a
# segment only when an input changes, and steps nowhere else). Counts,
# not timings: each ceiling is the measured value.
for entry in minix:6.348333333333334:0.041666666666666664 \
  linux:7.153333333333333:0.041666666666666664 \
  sel4:6.175:0.041666666666666664; do
  IFS=: read -r platform entries commits <<< "$entry"
  gate BENCH_fleet.json "${platform}_kernel_entries_per_sim_second" ceiling 1 "$entries" \
    "** $platform makes more kernel entries per simulated second **"
  gate BENCH_fleet.json "${platform}_plant_commits_per_sim_second" ceiling 1 "$commits" \
    "** $platform plant commits more segments per simulated second **"
done
# The 2-worker speedup floors need real cores; on a single-CPU host the
# determinism and throughput gates above still ran. The binary records
# the speedups and leaves these wall-clock floors to ci.sh.
cores=$(grep -m1 -o '"cores": *[0-9]*' BENCH_fleet.json | sed 's/.*: *//')
if [ "$cores" -ge 2 ]; then
  gate BENCH_fleet.json speedup_2_workers floor 1.2 1 \
    "** 2-worker fleet speedup below floor **"
else
  echo "2-worker speedup floor skipped ($cores core(s))"
fi
# Leave the committed full-mode BENCH_fleet.json (256-instance sweep) in
# place rather than the quick file the gate just measured.
./target/release/exp_fleet_scale > /dev/null
# Full mode: the BENCH-quoted speedups on the 256-instance fleet, and the
# snapshot boot of a 100,000-instance MINIX fleet against cold boot.
cores=$(grep -m1 -o '"cores": *[0-9]*' BENCH_fleet.json | sed 's/.*: *//')
if [ "$cores" -ge 2 ]; then
  gate BENCH_fleet.json best_speedup_2plus_workers floor 1.7 1 \
    "** >=2-worker fleet speedup below floor (256 instances) **"
fi
if [ "$cores" -ge 4 ]; then
  gate BENCH_fleet.json best_speedup_4plus_workers floor 2 1 \
    "** >=4-worker fleet speedup below floor (256 instances) **"
fi
gate BENCH_fleet.json boot_speedup floor 10 1 \
  "** snapshot boot less than 10x faster than cold boot **"
# Its byte, allocator-call and work counts are exact (they repeat across
# regenerations), so the committed copy must carry the regenerated
# values: a change that moves one commits the new file with it.
for key in cold_bytes_per_instance bytes_per_instance fleet_peak_live_bytes \
  lifecycle_allocs_per_instance linux_lifecycle_allocs_per_instance \
  sel4_lifecycle_allocs_per_instance minix_steady_allocs_per_sim_second \
  linux_steady_allocs_per_sim_second sel4_steady_allocs_per_sim_second \
  minix_kernel_entries_per_sim_second linux_kernel_entries_per_sim_second \
  sel4_kernel_entries_per_sim_second minix_plant_commits_per_sim_second \
  linux_plant_commits_per_sim_second sel4_plant_commits_per_sim_second; do
  committed=$(json_number "$key" /tmp/BENCH_fleet.committed.json) || committed=missing
  regenerated=$(json_number "$key" BENCH_fleet.json) || regenerated=missing
  if [ "$committed" != "$regenerated" ]; then
    failed "BENCH_fleet.json $key: committed $committed, regenerated $regenerated"
  fi
done

echo "== traffic perf gate (E18: requests/sec vs committed baseline, 30% floor) =="
# exp_traffic itself asserts the deterministic TrafficReport is
# byte-identical across every worker count it sweeps (a file-level cmp
# would trip on the wall-clock sweep numbers, so the check lives inside
# the binary). The gate here adds the throughput floor: the --quick
# sustained requests/sec must stay within 30% of the committed
# BENCH_traffic_baseline.json (refresh the baseline deliberately when
# the machine or the front-end changes for good reason).
# The committed full-mode report, whose deterministic report section is
# compared with its regeneration below. It is read from git: the smoke
# run above has already overwritten the working copy with a --quick
# report.
git show HEAD:BENCH_traffic.json > /tmp/BENCH_traffic.committed.json
./target/release/exp_traffic --quick > /dev/null
gate BENCH_traffic.json requests_per_wall_second floor 0.7 BENCH_traffic_baseline.json \
  "** traffic throughput regressed >30% **"
# Leave the committed full-mode BENCH_traffic.json (1 024-instance run)
# in place, and hold its single-worker rate to the E18 floor.
./target/release/exp_traffic > /dev/null
gate BENCH_traffic.json requests_per_wall_second floor 1 100000 \
  "** E18 floor: fewer than 100k requests/sec on the benign fleet **"
# Everything from the "report" key to the end of the file is the
# TrafficReport, which carries no wall-clock values, so the committed
# copy must carry the regenerated one: a change that moves it commits
# the new file with it.
report_section() { sed -n '/"report": {/,$p' "$1"; }
cmp -s <(report_section /tmp/BENCH_traffic.committed.json) <(report_section BENCH_traffic.json) \
  || failed "BENCH_traffic.json report: differs from the committed copy"

if [ ${#failed_gates[@]} -gt 0 ]; then
  echo "** ${#failed_gates[@]} gate(s) failed: **"
  printf '  %s\n' "${failed_gates[@]}"
  exit 1
fi
echo "CI OK"
