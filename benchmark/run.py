#!/usr/bin/env python3
"""hydra-dtm benchmark: builds the driver, runs workloads, reports metrics.

Run from the repository root:

  python3 benchmark/run.py                      all workloads, seed 1: every
                                                end-to-end metric with its unit
  python3 benchmark/run.py --trace 1            also the per-layer metrics and
                                                a where-time-goes table
  python3 benchmark/run.py --out A.json         also save the result set
  python3 benchmark/run.py compare A.json B.json
                                                B against A, per workload row
  python3 benchmark/run.py --sets 2             two full sets; do they agree
                                                within the bounds?
  python3 benchmark/run.py --self-test          checks of the compare logic
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                                one run; the last stdout line
                                                is one JSON object

The driver is built from source into build-benchmark/. Metric names, units,
directions and regression bounds come from BENCHMARK.json at the root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")
DRIVER = os.path.join(BUILD, "hydra_benchmark")
GOLDEN = os.path.join(ROOT, "benchmark", "golden.json")
DEFAULT_SECONDS = 10
# One run, build excluded, stays under three minutes.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run the driver.


def local_env():
    """The environment for child processes: temporary files stay inside
    the build directory, and the simulator's HYDRA_* knobs must not leak
    into a measurement."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYDRA_")}
    env["TMPDIR"] = tmp
    return env


def build():
    """Configure once, then (re)build the driver; exit 1 on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "hydra_benchmark",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, env=local_env())
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(1)


def run_driver(workload, seed, seconds, traced, timeout=RUN_TIMEOUT_S):
    """One driver process; returns its raw JSON document."""
    tag = "%s-seed%d-%d" % (workload, seed, os.getpid())
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--work-dir", os.path.join(BUILD, "work", tag)]
    if traced:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=local_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, timeout))
        sys.exit(1)
    if p.returncode != 0:
        log(p.stderr[-4000:])
        log("run.py: driver failed on %s" % workload)
        sys.exit(1)
    return json.loads(p.stdout)


# ---------------------------------------------------------------------------
# Raw driver output -> metrics.


def stats(samples):
    """Median, quartiles and n of a sample list."""
    xs = sorted(samples)
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = med
    return {"value": med, "q1": q1, "q3": q3, "n": len(xs), "samples": xs}


def golden_digests():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def assemble(raw, golden):
    """End-to-end metrics, per-layer metrics and correctness of one run."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    failures = list(raw["failures"])
    failed = raw["failed"]
    want = golden.get(raw["workload"]) if raw["seed"] == 1 else None
    if want is not None and want != raw["digest"]:
        failures.append("digest %s differs from golden %s"
                        % (raw["digest"], want))
        failed += 1
    attempted = max(1, raw["attempted"])
    e2e = {
        "setup_s": stats(raw["setup_s"]),
        "wall_s": stats([r["wall_s"] for r in reps]),
        "sim_mips": stats([r["instructions"] / r["wall_s"] / 1e6 for r in reps]),
        "points_per_s": stats([r["points"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": stats([raw["peak_rss_mb"]]),
    }
    return {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "fingerprint": raw["fingerprint"],
        "digest": raw["digest"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "e2e": e2e,
        "layers": raw["layers"],
    }


def result_line(row, spec, traced):
    """The one-line JSON result of a single run."""
    metrics = {}
    if traced:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": row["layers"][m["name"]],
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": row["e2e"][m["name"]]["value"],
                                  "unit": m["unit"]}
    return json.dumps({"correct": row["failed"] == 0,
                       "attempted": row["attempted"],
                       "failed": row["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# Reports.


def fmt(v):
    return "%.6g" % v


def print_e2e(rows, spec):
    print("%-12s %-14s %12s %-9s %12s %12s %5s" % (
        "workload", "metric", "median", "unit", "q1", "q3", "n"))
    for r in rows:
        for m in spec["end_to_end"]:
            s = r["e2e"][m["name"]]
            print("%-12s %-14s %12s %-9s %12s %12s %5d" % (
                r["workload"], m["name"], fmt(s["value"]), m["unit"],
                fmt(s["q1"]), fmt(s["q3"]), s["n"]))
        print("%-12s %-14s %12s %-9s %12s %12s %5d" % (
            r["workload"], "error_rate", fmt(r["error_rate"]), "fraction", "",
            "", r["attempted"]))
        for f in r["failures"]:
            print("FAILED %s: %s" % (r["workload"], f))


def print_layers(rows, spec):
    names = [r["workload"] for r in rows]
    print("%-28s %-9s " % ("per-layer metric", "unit")
          + " ".join("%12s" % n[:12] for n in names))
    for m in spec["per_layer"]:
        print("%-28s %-9s " % (m["name"], m["unit"])
              + " ".join("%12s" % fmt(r["layers"][m["name"]]) for r in rows))


def where_time_goes(row):
    """Shares of one rep's host time, from a traced run's layer metrics."""
    L = row["layers"]
    wall = row["e2e"]["wall_s"]["value"]
    out = [("setup (once per process, vs one rep)", row["e2e"]["setup_s"]["value"] / wall)]
    if L["engine.jobs"] > 0 or L["disk.hits"] > 0:
        cap = L["engine.pool_utilization"]
        out.append(("engine busy / (pool width x wall)", cap))
        out.append(("disk tier open / wall", L["disk.open_s"] / wall))
    run_s = L["system.init_thermal_s"] + L["system.warmup_s"] + L["system.measure_s"]
    if run_s > 0:
        for k in ("init_thermal", "warmup", "measure"):
            out.append(("system.%s / run time" % k, L["system.%s_s" % k] / run_s))
        m = L["ledger.measure_s"]
        for k in ("workload", "arch", "power", "thermal", "sensor", "policy"):
            out.append(("  measure: %s" % k, L["ledger.%s_s" % k] / m))
        out.append(("  measure: event spine (unexplained)", L["ledger.event_spine_s"] / m))
    return out


def print_where(rows):
    for r in rows:
        print("where time goes: %s" % r["workload"])
        for label, share in where_time_goes(r):
            print("  %-40s %6.1f%%" % (label, 100.0 * share))


# ---------------------------------------------------------------------------
# Compare and agreement.


def fingerprint(rows, git):
    """A result set's fingerprint; the sparse path is per workload."""
    fp = dict(rows[0]["fingerprint"])
    fp["sparse_path"] = {r["workload"]: r["fingerprint"]["sparse_path"] for r in rows}
    fp["git_describe"] = git
    return fp


# git describe is recorded but not compared: comparing two commits on one
# host is what compare is for.
HOST_KEYS = ("nproc", "pool_width", "simd", "sparse_path", "compiler")


def host_mismatch(a, b):
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


# Set-up may grow by its bound or by this many seconds, whichever is larger.
SETUP_FLOOR_S = 0.020


def judge(metric, a, b):
    """Verdict for one metric on one workload: B against A."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    ma, mb = a["value"], b["value"]
    if metric["name"] == "setup_s":
        bound = max(bound, SETUP_FLOOR_S / ma)
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    spread = max((s["q3"] - s["q1"]) / s["value"] if s["value"] else 0.0
                 for s in (a, b))
    all_better = (max(b["samples"]) < min(a["samples"]) if lower
                  else min(b["samples"]) > max(a["samples"]))
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif -worse > bound:
        verdict = "improved"
    else:
        verdict = "ok"
    return verdict, worse, spread


def compare_sets(a, b, spec, out=sys.stdout):
    """Print the per-row verdicts; returns the number of regressions.
    Raises ValueError on a host fingerprint mismatch."""
    bad = host_mismatch(a["fingerprint"], b["fingerprint"])
    if bad:
        raise ValueError("host fingerprints differ in %s; refusing to compare"
                         % ", ".join(bad))
    regressions = 0
    print("%-12s %-14s %12s %12s %8s %8s %s" % (
        "workload", "metric", "A", "B", "worse", "spread", "verdict"), file=out)
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        ra, rb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            verdict, worse, spread = judge(m, ra["e2e"][m["name"]],
                                           rb["e2e"][m["name"]])
            regressions += verdict == "REGRESSION"
            print("%-12s %-14s %12s %12s %+7.1f%% %7.1f%% %s" % (
                w, m["name"], fmt(ra["e2e"][m["name"]]["value"]),
                fmt(rb["e2e"][m["name"]]["value"]), 100 * worse, 100 * spread,
                verdict), file=out)
        # Any rise in the error rate is a regression.
        verdict = "REGRESSION" if rb["error_rate"] > ra["error_rate"] else "ok"
        regressions += verdict == "REGRESSION"
        print("%-12s %-14s %12s %12s %8s %8s %s" % (
            w, "error_rate", fmt(ra["error_rate"]), fmt(rb["error_rate"]),
            "", "", verdict), file=out)
    return regressions


def agreement(a, b, spec, out=sys.stdout):
    """Two sets of the same code: every metric's medians within its bound
    of each other. Returns the number of disagreements."""
    disagreements = 0
    print("%-12s %-14s %12s %12s %8s %s" % ("workload", "metric", "set 1",
                                            "set 2", "diff", "agree"), file=out)
    for w in a["workloads"]:
        ra, rb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            va = ra["e2e"][m["name"]]["value"]
            vb = rb["e2e"][m["name"]]["value"]
            diff = abs(vb - va) / va
            ok = diff <= m["bound"]
            disagreements += not ok
            print("%-12s %-14s %12s %12s %7.1f%% %s" % (
                w, m["name"], fmt(va), fmt(vb), 100 * diff,
                "yes" if ok else "NO"), file=out)
        ok = ra["error_rate"] == 0 and rb["error_rate"] == 0
        disagreements += not ok
        print("%-12s %-14s %12s %12s %8s %s" % (
            w, "error_rate", fmt(ra["error_rate"]), fmt(rb["error_rate"]), "",
            "yes" if ok else "NO"), file=out)
    return disagreements


def git_describe():
    try:
        p = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        return p.stdout.strip() or "none"
    except OSError:
        return "none"


def run_set(spec, seed, seconds, traced):
    golden = golden_digests()
    rows = []
    for w in spec["workloads"]:
        log("run.py: %s (seed %d)" % (w["name"], seed))
        rows.append(assemble(run_driver(w["name"], seed, seconds, traced), golden))
    return {"fingerprint": fingerprint(rows, git_describe()), "seed": seed,
            "workloads": {r["workload"]: r for r in rows}}, rows


# ---------------------------------------------------------------------------
# Self-test on synthetic result sets.


def self_test(spec):
    golden = {"w": "00000000000000aa"}
    fp = {"nproc": 4, "pool_width": 4, "simd": "avx2", "sparse_path": False,
          "compiler": "GNU 12.2.0"}

    def raw(digest, wall):
        return {"workload": "w", "seed": 1, "fingerprint": dict(fp),
                "setup_s": [0.010, 0.011, 0.012],
                "reps": [{"wall_s": wall * f, "instructions": 1000000,
                          "points": 45, "traced": False}
                         for f in (0.99, 1.0, 1.01, 1.0, 1.0)],
                "peak_rss_mb": 50.0, "attempted": 225, "failed": 0,
                "failures": [], "digest": digest, "layers": {}}

    def result_set(row, nproc=4):
        s = {"fingerprint": fingerprint([row], "test"), "workloads": {"w": row}}
        s["fingerprint"]["nproc"] = nproc
        return s

    checks = []
    base = assemble(raw("00000000000000aa", 1.0), golden)
    checks.append(("golden digest matches: error_rate 0", base["error_rate"] == 0))

    slow = assemble(raw("00000000000000aa", 1.3), golden)
    sink = open(os.devnull, "w")
    checks.append(("metric past its bound is flagged",
                   compare_sets(result_set(base), result_set(slow), spec, sink) > 0))
    wall = next(m for m in spec["end_to_end"] if m["name"] == "wall_s")
    checks.append(("within-bound change is not flagged",
                   judge(wall, base["e2e"]["wall_s"],
                         assemble(raw("00000000000000aa", 1.01), golden)
                         ["e2e"]["wall_s"])[0] == "ok"))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    slow_setup = dict(base["e2e"]["setup_s"], value=0.025)
    checks.append(("set-up growth under 20 ms is not flagged",
                   judge(setup, base["e2e"]["setup_s"], slow_setup)[0] == "ok"))
    noisy = dict(base["e2e"]["wall_s"], q1=0.5, q3=1.5)
    checks.append(("spread wider than the bound is unresolved",
                   judge(wall, base["e2e"]["wall_s"], noisy)[0] == "unresolved"))

    bad = assemble(raw("00000000000000bb", 1.0), golden)
    checks.append(("digest mismatch raises error_rate",
                   bad["error_rate"] > 0 and bad["failed"] == 1))
    checks.append(("error_rate rise is a regression",
                   compare_sets(result_set(base), result_set(bad), spec, sink) > 0))

    try:
        compare_sets(result_set(base), result_set(base, nproc=1), spec, sink)
        refused = False
    except ValueError:
        refused = True
    checks.append(("fingerprint mismatch is refused", refused))

    line = json.loads(result_line(base, spec, False))
    checks.append(("result line carries every end-to-end metric",
                   set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}))

    for name, ok in checks:
        print("%-50s %s" % (name, "ok" if ok else "FAILED"))
    return all(ok for _, ok in checks)


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", nargs="*", help="compare A.json B.json")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = load_spec()

    if args.self_test:
        return 0 if self_test(spec) else 1

    if args.command:
        if len(args.command) != 3 or args.command[0] != "compare":
            ap.error("usage: run.py compare A.json B.json")
        with open(args.command[1]) as f:
            a = json.load(f)
        with open(args.command[2]) as f:
            b = json.load(f)
        try:
            return 1 if compare_sets(a, b, spec) else 0
        except ValueError as e:
            log("run.py: " + str(e))
            return 2

    build()
    traced = args.trace == 1

    if args.workload:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            ap.error("unknown workload %r (one of %s)" % (args.workload, names))
        row = assemble(run_driver(args.workload, args.seed, args.seconds, traced),
                       golden_digests())
        if traced:
            print_layers([row], spec)
        else:
            print_e2e([row], spec)
        print(result_line(row, spec, traced))
        return 0

    sets = []
    for i in range(args.sets):
        result, rows = run_set(spec, args.seed, args.seconds, traced)
        print("== set %d of %d (seed %d, %s)" % (i + 1, args.sets, args.seed,
                                                 result["fingerprint"]["git_describe"]))
        print_e2e(rows, spec)
        if traced:
            print_layers(rows, spec)
            print_where(rows)
        sets.append(result)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets[-1], f, indent=1)
    failed = any(r["failed"] for s in sets for r in s["workloads"].values())
    if args.sets >= 2:
        print("== agreement of set 1 and set %d within each metric's bound" % args.sets)
        failed |= agreement(sets[0], sets[-1], spec) > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
