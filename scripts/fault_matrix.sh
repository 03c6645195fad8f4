#!/usr/bin/env bash
# The fault-injection acceptance matrix, one scenario test at a time,
# each under a hard wall-clock timeout: a fault-recovery bug's natural
# failure mode is a *hang* (a wait that never settles, a shutdown that
# never joins), which a plain `cargo test` run would sit in until the
# CI job dies. Here a hung scenario kills only its own test, with a
# name attached.
#
# The scenarios themselves (tests/fault_scenarios.rs) cover every
# fault-capable backend {veo, dma, tcp} × 8 fixed seeds, each run twice
# to assert the seeded failure timeline replays. The pool scenarios
# (tests/pool_scenarios.rs) add the multi-target scheduler on top:
# kill 1 of 4 pooled targets mid-wave on each backend and require every
# offload to complete on a survivor or surface `TargetLost`. The
# reconnect scenarios (tests/reconnect_scenarios.rs) exercise the
# cluster-TCP session-resume path: mid-batch and mid-wave disconnects,
# double disconnects, blackouts that exhaust (or nearly exhaust) the reconnect
# budget, and the discovery handshake, asserting exactly-once-or-lost
# outcomes and zero leaked pending entries throughout; they run one at a
# time and then 20 times as a whole binary, all at once. The membership
# churn scenarios (also tests/pool_scenarios.rs) add dynamic pool
# rosters: a reserve target joining mid-flight, a member retired with
# staged work, a flapping link deprioritized by the background prober,
# and the bounded all-degraded placement wait. The local ring tests
# (tests/local_ring.rs) drive the in-process backend's slot arrays:
# four host threads on one target's rotation, a target that parks
# between posts, and shutdown of a parked or evicted target — a lost
# wake-up there is a hang too. The idle-target tests
# (tests/failure_modes.rs) let a DMA and a VEO target wait past their
# spin window before the next `sync`, and kill a VE while it waits.
#
# Idle targets and host waits spin only where another CPU can run the
# peer (`chan::backoff`). The idle-target and local ring tests run a
# second time under `taskset -c 0`, so the one-CPU branch runs too, and
# so do the allocation bounds of tests/alloc_steady_state.rs; a machine
# without `taskset` fails here rather than skipping it.
set -euo pipefail
cd "$(dirname "$0")/.."

PER_TEST_TIMEOUT="${PER_TEST_TIMEOUT:-120}"

# run <test-binary> <name>...: run each named test of one binary on its
# own, under the timeout. The binary is built first so the timeout
# measures the scenario, not the compiler. `--exact` with a name that
# matches no test runs nothing and still exits 0, so a run passes only
# if it reports `1 passed`: a renamed scenario fails here instead of
# silently dropping out of the matrix.
# Each test runs under `pin` (a command prefix, empty by default).
passed=0
pin=()
run() {
  local bin="$1" t out
  shift
  cargo test -q --test "$bin" --no-run
  for t in "$@"; do
    echo "-- $bin: $t${pin[*]:+ (under ${pin[*]})}"
    if ! out="$("${pin[@]}" timeout --kill-after=10 "$PER_TEST_TIMEOUT" \
        cargo test -q --test "$bin" -- --exact "$t" 2>&1)"; then
      printf '%s\n' "$out" >&2
      echo "FAULT MATRIX FAILURE: '$t' failed or hung (> ${PER_TEST_TIMEOUT}s)" >&2
      exit 1
    fi
    if ! grep -q 'test result: ok\. 1 passed;' <<<"$out"; then
      printf '%s\n' "$out" >&2
      echo "FAULT MATRIX FAILURE: '$t' matches no test in $bin" >&2
      exit 1
    fi
    passed=$((passed + 1))
  done
}

run fault_scenarios \
  kill_one_of_two_targets_veo \
  kill_one_of_two_targets_dma \
  kill_one_of_two_targets_tcp \
  drops_recovered_by_retries_veo \
  drops_recovered_by_retries_dma \
  total_loss_times_out_veo \
  total_loss_times_out_dma \
  timing_faults_change_no_outcome_veo \
  timing_faults_change_no_outcome_dma \
  zero_plan_is_inert_everywhere

run pool_scenarios \
  pool_kill_one_of_four_veo \
  pool_kill_one_of_four_dma \
  pool_kill_one_of_four_tcp \
  staged_batch_offloads_fail_over_to_survivors \
  killing_every_target_empties_the_pool \
  oversized_submit_leaves_the_pool_whole \
  kill_target_latches_eviction_before_returning \
  membership_add_target_mid_flight_matrix \
  membership_remove_target_reclaims_staged_work \
  flapping_target_probed_deprioritized_then_heals \
  all_degraded_cluster_submit_is_bounded_under_permanent_outage \
  all_degraded_cluster_heals_and_unblocks_placement

run reconnect_scenarios \
  mid_batch_disconnect_matrix \
  disconnect_during_staged_accumulator_matrix \
  double_disconnect_matrix \
  reconnect_after_timeout_matrix \
  mid_wave_disconnect_matrix \
  replayed_timelines_are_deterministic \
  eviction_waits_for_the_reconnect_budget \
  discovery_announces_per_host_capabilities

# The reconnect scenarios again, the way tier-1 runs them: the whole
# binary, all its tests at once, a fixed 20 times, each run under the
# timeout. The races of the reconnect path showed only in concurrent
# runs; a hang or a failed scenario fails the matrix.
for i in $(seq 1 20); do
  echo "-- reconnect_scenarios: whole binary, run $i of 20"
  if ! out="$(timeout --kill-after=10 "$PER_TEST_TIMEOUT" \
      cargo test -q --test reconnect_scenarios 2>&1)" ||
    ! grep -q 'test result: ok\.' <<<"$out"; then
    printf '%s\n' "$out" >&2
    echo "FAULT MATRIX FAILURE: whole reconnect_scenarios run $i failed or hung (> ${PER_TEST_TIMEOUT}s)" >&2
    exit 1
  fi
  passed=$((passed + 1))
done

idle_and_ring() {
  run failure_modes \
    idle_target_serves_the_next_sync_dma \
    idle_target_serves_the_next_sync_veo \
    a_ve_killed_during_its_idle_spin_is_evicted

  run local_ring \
    four_hosts_share_one_target_rotation \
    syncs_after_the_target_parked_all_complete \
    shutdown_joins_a_parked_target \
    shutdown_after_eviction_joins
}

idle_and_ring

if ! command -v taskset >/dev/null; then
  echo "FAULT MATRIX FAILURE: no taskset, so the one-CPU pass cannot run" >&2
  exit 1
fi
pin=(taskset -c 0)
idle_and_ring

# The allocation bounds hold on one CPU as well, the shape `batch_veo`,
# `sync_tcp` and `pool_tcp` run in: there a thread that only checks out
# frame buffers (the TCP link thread) and one that only drops them (the
# host) meet only through the depot exchange of `chan::pool`.
run alloc_steady_state \
  steady_state_batched_cycle_allocates_nothing \
  frames_recycle_from_a_dropping_thread_to_a_checking_out_thread \
  warm_adaptive_tick_and_slo_check_allocate_nothing \
  warm_metrics_and_health_recording_allocates_nothing \
  warm_wait::warm_wait_all_loop_allocates_nothing \
  warm_wait::warm_pool_admission_allocates_nothing \
  warm_device::warm_device_allocates_once_per_plain_result \
  warm_device::warm_device_allocates_once_per_batch_carrier_and_never_per_member \
  warm_tcp_sync_allocates_once_per_offload \
  warm_tcp_pipelined_allocates_once_per_offload \
  warm_tcp_pool_submit_allocates_once_per_offload \
  warm_local_sync_allocates_once_per_offload \
  warm_dma_sync_allocates_once_per_offload \
  warm_veo_sync_allocates_once_per_offload \
  warm_dma_put_get_allocates_nothing \
  a_claimed_frame_length_is_not_preallocated \
  a_claimed_codec_length_is_not_preallocated

echo "Fault matrix passed: $passed scenario, whole-binary reconnect, idle-target, local ring and one-CPU allocation runs, 3 backends, 8 seeds."
