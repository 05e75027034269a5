#!/usr/bin/env python3
"""Performance gate: compare a fresh hydra_bench run against the
committed baseline and fail on regressions.

Two kinds of gate, matched to how noisy each metric is:

* Throughput metrics (solver steps/second) vary with the host, so they
  gate on a generous ratio band: the candidate must reach at least
  ``--throughput-floor`` (default 0.5) of the baseline.  CI machines are
  slower and noisier than the machine that recorded the baseline; the
  gate exists to catch algorithmic regressions (a dropped cache, an
  accidental O(n^2)), not scheduler jitter.
* Allocation-contract metrics (solver_allocs_per_step,
  system_allocs_per_run) are deterministic and gate exactly: any value
  above zero means a hot path started allocating and fails outright.
* suite_cache_misses is structural (one miss per distinct run key) and
  gates on exact equality with the baseline: a change means the engine's
  memoization keys changed shape.

* Warm-restart metrics (from the ext_cache_restart bench, passed via
  ``--restart``) gate on absolute contracts, no baseline needed: the
  warm hit rate must reach ``--restart-floor`` (default 0.999 — every
  point served from disk) and both restart passes must reproduce the
  cold results bit-identically.

Usage:
  bench_gate.py --baseline BENCH_baseline.json --candidate BENCH_engine.json
  bench_gate.py --baseline ... --candidate ... --restart BENCH_restart.json
  bench_gate.py --baseline ... --candidate ... --update   # refresh baseline
  bench_gate.py --self-test                               # gate the gate

``--self-test`` proves the gate can actually fail: it checks a synthetic
regressed candidate (halved throughput, nonzero allocs) is rejected and
an identical candidate is accepted, without touching any files.
"""

import argparse
import json
import shutil
import sys

THROUGHPUT_KEYS = [
    "solver_steps_per_second",
    "solver_fused_steps_per_second",
    # Many-core die throughput (aggregate core-cycles/second through an
    # 8-tile MulticoreSystem on a 1-thread tile pool, with migration and
    # the budget arbiter active) — guards the tiled interval loop.
    "multicore_core_steps_per_second",
    # End-to-end suite throughput (instructions retired per wall-second on
    # the 1-thread pass).  This is the metric the hot-loop overhaul is
    # gated on: it covers the bulk idle-skip, the issue-scan fast path and
    # the fused thermal step together, and is host-size independent.
    "suite_instr_per_second",
]
ZERO_KEYS = [
    "solver_allocs_per_step",
    "solver_fused_allocs_per_step",
    "system_allocs_per_run",
]
EXACT_KEYS = [
    "suite_cache_misses",
    # Sparse-dispatch configuration: the 16-core die bench must actually
    # run the sparse LDL^T path (sparse_path true), and the dense/sparse
    # crossover must stay at its committed value — a drift in either
    # means the multicore throughput number silently measures a
    # different engine than the baseline did.
    "sparse_path",
    "sparse_crossover_nodes",
]
# Informational only: wall times and speedup depend on the runner's core
# count and load, so they are printed but never gated.  idle_skip_fraction
# and the feature flags are printed so a gate log records which fast paths
# the candidate was measured with.
INFO_KEYS = [
    "suite_wall_seconds_1_thread",
    "suite_wall_seconds_n_threads",
    "threads",
    "hardware_concurrency",
    "idle_skip_fraction",
    "fused_be",
    "bulk_idle_skip",
    "simd_backend",
]

# The N-thread suite pass must actually go faster than the 1-thread
# pass — but only on hosts that have the cores to run it: a 2-thread
# pool on a 1-core runner time-slices and legitimately reports ~1.0x,
# so the check is skipped (not near-failed) when hardware_concurrency
# is below the pool width.
SPEEDUP_FLOOR = 1.1


def load(path):
    with open(path) as f:
        return json.load(f)


def check_restart(restart, restart_floor):
    """Gate the warm-restart contract (absolute, no baseline).

    Returns a list of failure strings (empty = gate passes).
    """
    failures = []
    rate = restart.get("restart_cache_hit_rate")
    if rate is None:
        failures.append("restart_cache_hit_rate: missing from restart bench")
    else:
        status = "ok" if rate >= restart_floor else "FAIL"
        print(f"  restart_cache_hit_rate: {rate:.3f} "
              f"(floor {restart_floor:.3f}) [{status}]")
        if rate < restart_floor:
            failures.append(
                f"restart_cache_hit_rate: {rate:.3f} below floor "
                f"{restart_floor:.3f} (warm restart recomputed work)")
    for key in ("restart_bit_identical", "corrupt_recovery_bit_identical"):
        val = restart.get(key)
        status = "ok" if val == 1 else "FAIL"
        print(f"  {key}: {val} (contract: 1) [{status}]")
        if val != 1:
            failures.append(f"{key}: {val} != 1 (restart changed results)")
    return failures


def compare(baseline, candidate, throughput_floor,
            require_live_speedup=False):
    """Return a list of failure strings (empty = gate passes)."""
    failures = []
    # suite_instr_per_second is only comparable when both runs simulated
    # the same per-run workload: a shortened smoke run spends most of its
    # wall time in warmup and would trip the floor spuriously.
    same_workload = (baseline.get("suite_run_instructions") ==
                     candidate.get("suite_run_instructions"))
    for key in THROUGHPUT_KEYS:
        if key == "suite_instr_per_second" and not same_workload:
            print(f"  {key}: skipped (suite_run_instructions "
                  f"{candidate.get('suite_run_instructions')} != baseline "
                  f"{baseline.get('suite_run_instructions')})")
            continue
        base = baseline.get(key)
        cand = candidate.get(key)
        if base is None or cand is None:
            failures.append(f"{key}: missing (baseline={base}, candidate={cand})")
            continue
        floor = throughput_floor * base
        status = "ok" if cand >= floor else "FAIL"
        print(f"  {key}: {cand:.0f} vs baseline {base:.0f} "
              f"(floor {floor:.0f}) [{status}]")
        if cand < floor:
            failures.append(
                f"{key}: {cand:.0f} below {throughput_floor:.2f}x baseline "
                f"({base:.0f})")
    for key in ZERO_KEYS:
        cand = candidate.get(key)
        if cand is None:
            failures.append(f"{key}: missing from candidate")
            continue
        status = "ok" if cand == 0 else "FAIL"
        print(f"  {key}: {cand} (contract: 0) [{status}]")
        if cand != 0:
            failures.append(f"{key}: {cand} != 0 (hot path allocates)")
    for key in EXACT_KEYS:
        base = baseline.get(key)
        cand = candidate.get(key)
        status = "ok" if cand == base else "FAIL"
        print(f"  {key}: {cand} vs baseline {base} [{status}]")
        if cand != base:
            failures.append(f"{key}: {cand} != baseline {base}")
    # Parallel speedup: gated only when the host has at least as many
    # hardware threads as the N-thread pool asked for.  A skipped check
    # is normally fine (a 1-core dev box), but with
    # require_live_speedup the skip itself fails: CI runners are
    # provisioned with enough cores, so a skip there means the speedup
    # gate has silently gone dead — exactly the state the committed
    # `speedup: 0.88` baseline once hid.
    speedup = candidate.get("speedup")
    threads = candidate.get("threads", 1)
    cores = candidate.get("hardware_concurrency", 0)
    if speedup is None or threads <= 1:
        if require_live_speedup:
            failures.append(
                f"speedup: check not live (speedup={speedup}, "
                f"threads={threads}) but --require-live-speedup set")
    else:
        if cores < threads:
            print(f"  speedup: {speedup:.2f}x skipped "
                  f"({cores} hardware threads < {threads} pool threads)")
            if require_live_speedup:
                failures.append(
                    f"speedup: check skipped on a starved host ({cores} "
                    f"hardware threads < {threads} pool threads) but "
                    f"--require-live-speedup set")
        else:
            status = "ok" if speedup >= SPEEDUP_FLOOR else "FAIL"
            print(f"  speedup: {speedup:.2f}x at {threads} threads "
                  f"(floor {SPEEDUP_FLOOR:.2f}x) [{status}]")
            if speedup < SPEEDUP_FLOOR:
                failures.append(
                    f"speedup: {speedup:.2f}x below {SPEEDUP_FLOOR:.2f}x "
                    f"with {cores} hardware threads available")
    for key in INFO_KEYS:
        if key in candidate:
            print(f"  {key}: {candidate[key]} (informational)")
    return failures


def self_test(throughput_floor):
    baseline = {
        "solver_steps_per_second": 900000.0,
        "solver_fused_steps_per_second": 1100000.0,
        "multicore_core_steps_per_second": 600000.0,
        "suite_instr_per_second": 900000.0,
        "solver_allocs_per_step": 0,
        "solver_fused_allocs_per_step": 0,
        "system_allocs_per_run": 0,
        "suite_cache_misses": 18,
        "sparse_path": True,
        "sparse_crossover_nodes": 64,
    }
    print("self-test: identical candidate must pass")
    if compare(baseline, dict(baseline), throughput_floor):
        print("self-test FAILED: identical candidate was rejected")
        return 1
    regressed = dict(baseline)
    regressed["solver_steps_per_second"] = (
        baseline["solver_steps_per_second"] * throughput_floor * 0.5)
    regressed["suite_instr_per_second"] = (
        baseline["suite_instr_per_second"] * throughput_floor * 0.5)
    regressed["multicore_core_steps_per_second"] = (
        baseline["multicore_core_steps_per_second"] * throughput_floor * 0.5)
    regressed["system_allocs_per_run"] = 3
    regressed["solver_fused_allocs_per_step"] = 1
    print("self-test: regressed candidate must fail")
    failures = compare(baseline, regressed, throughput_floor)
    expected = {
        "solver_steps_per_second",
        "multicore_core_steps_per_second",
        "suite_instr_per_second",
        "system_allocs_per_run",
        "solver_fused_allocs_per_step",
    }
    caught = {f.split(":")[0] for f in failures}
    if not expected <= caught:
        print(f"self-test FAILED: caught {caught}, expected {expected}")
        return 1
    print("self-test: shortened smoke run must not trip the suite floor")
    short = dict(baseline)
    short["suite_run_instructions"] = 40000
    short["suite_instr_per_second"] = 1.0  # warmup-dominated, incomparable
    base_full = dict(baseline)
    base_full["suite_run_instructions"] = 400000
    if compare(base_full, short, throughput_floor):
        print("self-test FAILED: mismatched-workload candidate rejected")
        return 1
    print("self-test: flat speedup on a starved host must be skipped")
    starved = dict(baseline)
    starved.update(threads=2, hardware_concurrency=1, speedup=1.0)
    if compare(baseline, starved, throughput_floor):
        print("self-test FAILED: core-starved speedup was gated")
        return 1
    print("self-test: flat speedup with cores available must fail")
    flat = dict(baseline)
    flat.update(threads=2, hardware_concurrency=8, speedup=0.9)
    if "speedup" not in {f.split(":")[0]
                         for f in compare(baseline, flat, throughput_floor)}:
        print("self-test FAILED: flat speedup with spare cores passed")
        return 1
    print("self-test: a dead speedup check must fail under "
          "--require-live-speedup")
    for dead in (dict(baseline),  # no speedup/threads keys at all
                 dict(starved)):  # skipped: starved host
        caught = {f.split(":")[0]
                  for f in compare(baseline, dead, throughput_floor,
                                   require_live_speedup=True)}
        if "speedup" not in caught:
            print("self-test FAILED: dead speedup check passed under "
                  "--require-live-speedup")
            return 1
    print("self-test: a live passing speedup must satisfy "
          "--require-live-speedup")
    live = dict(baseline)
    live.update(threads=2, hardware_concurrency=8, speedup=1.8)
    if compare(baseline, live, throughput_floor, require_live_speedup=True):
        print("self-test FAILED: live speedup rejected under "
              "--require-live-speedup")
        return 1
    print("self-test: a flipped sparse path must fail")
    densified = dict(baseline)
    densified["sparse_path"] = False
    if "sparse_path" not in {
            f.split(":")[0]
            for f in compare(baseline, densified, throughput_floor)}:
        print("self-test FAILED: flipped sparse_path passed")
        return 1
    print("self-test: a drifted sparse crossover must fail")
    drifted = dict(baseline)
    drifted["sparse_crossover_nodes"] = 512
    if "sparse_crossover_nodes" not in {
            f.split(":")[0]
            for f in compare(baseline, drifted, throughput_floor)}:
        print("self-test FAILED: drifted sparse_crossover_nodes passed")
        return 1
    restart_ok = {
        "restart_cache_hit_rate": 1.0,
        "restart_bit_identical": 1,
        "corrupt_recovery_bit_identical": 1,
    }
    print("self-test: healthy restart bench must pass")
    if check_restart(restart_ok, 0.999):
        print("self-test FAILED: healthy restart bench was rejected")
        return 1
    print("self-test: cold restart / changed results must fail")
    restart_bad = {
        "restart_cache_hit_rate": 0.5,
        "restart_bit_identical": 0,
        "corrupt_recovery_bit_identical": 1,
    }
    restart_failures = check_restart(restart_bad, 0.999)
    restart_caught = {f.split(":")[0] for f in restart_failures}
    restart_expected = {"restart_cache_hit_rate", "restart_bit_identical"}
    if not restart_expected <= restart_caught:
        print(f"self-test FAILED: caught {restart_caught}, "
              f"expected {restart_expected}")
        return 1
    print("self-test passed: gate rejects injected regressions")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed BENCH_baseline.json")
    ap.add_argument("--candidate", help="fresh BENCH_engine.json")
    ap.add_argument("--throughput-floor", type=float, default=0.5,
                    help="minimum candidate/baseline throughput ratio")
    ap.add_argument("--restart", help="BENCH_restart.json from the "
                    "ext_cache_restart bench (optional)")
    ap.add_argument("--restart-floor", type=float, default=0.999,
                    help="minimum warm-restart cache hit rate")
    ap.add_argument("--require-live-speedup", action="store_true",
                    help="fail if the parallel-speedup check is skipped "
                    "(starved or single-threaded run) instead of passing "
                    "silently — use in CI, where cores are guaranteed")
    ap.add_argument("--update", action="store_true",
                    help="copy candidate over baseline instead of gating")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate fails on a synthetic regression")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.throughput_floor)
    if not args.baseline or not args.candidate:
        ap.error("--baseline and --candidate are required (or --self-test)")
    if args.update:
        shutil.copyfile(args.candidate, args.baseline)
        print(f"baseline updated from {args.candidate}")
        return 0

    print(f"bench gate: {args.candidate} vs {args.baseline}")
    failures = compare(load(args.baseline), load(args.candidate),
                       args.throughput_floor,
                       require_live_speedup=args.require_live_speedup)
    if args.restart:
        print(f"restart gate: {args.restart}")
        failures += check_restart(load(args.restart), args.restart_floor)
    if failures:
        print("bench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
