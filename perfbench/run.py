#!/usr/bin/env python3
"""Benchmark of lfsmr::kv::store (Hyaline-S) under four client workloads.

Run one workload (builds kvbench first; the last stdout line is the result):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--out FILE]
The benchmark's own tests (short run of every workload, negative checks):
  python3 perfbench/run.py selftest
Compare two result files written with --out:
  python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import copy
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["serve-read", "ingest-write", "ingest-stalled", "txn-async"]

# End-to-end metrics of the timed run (--trace 0), every workload.
E2E = {
    "ops_per_s": "ops/s",
    "read_p50_us": "us",
    "read_p98_us": "us",
    "write_p50_us": "us",
    "write_p98_us": "us",
    "rss_peak_mb": "MiB",
    "setup_s": "s",
}

# Per-operation rows each workload's timed run prints by call name.
_SYNC = ["get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us"]
_COMMON = ["ops_per_s", "rss_peak_mb", "setup_s"]
REPORT = {
    "serve-read": _COMMON + _SYNC + ["snap_p50_us", "snap_p99_us"],
    "ingest-write": _COMMON + _SYNC,
    "ingest-stalled": _COMMON + _SYNC,
    "txn-async": _COMMON + ["commit_p50_us", "commit_p99_us", "async_p50_us",
                            "async_p99_us", "txn_get_p50_us", "txn_get_p99_us",
                            "abort_frac"],
}

# Per-layer metrics of the traced run (--trace 1), every workload.
LAYERS = {
    "smr.enter_leave_ns": "ns",
    "smr.create_retire_ns": "ns",
    "smr.unreclaimed_peak": "nodes",
    "smr.freed_per_retired": "ratio",
    "kv.codec.hash_ns": "ns",
    "kv.index.find_miss_ns": "ns",
    "kv.index.resizes": "count",
    "kv.store.get_ns": "ns",
    "kv.store.chain_read_ns": "ns",
    "kv.store.put_ns": "ns",
    "kv.store.put_residual_ns": "ns",
    "kv.store.trim_walk_len": "nodes",
    "kv.registry.tick_ns": "ns",
    "kv.registry.minlive_ns": "ns",
    "kv.registry.open_close_ns": "ns",
    "kv.registry.slow_acquire_frac": "ratio",
    "kv.txn.commit_ns": "ns",
    "kv.txn.abort_frac": "ratio",
    "kv.submit.enqueue_ns": "ns",
    "kv.submit.wait_ns": "ns",
    "kv.submit.batch_len": "requests",
    "kv.submit.sync_fallback_frac": "ratio",
    "kv.submit.takeovers_per_kop": "1/kop",
    "kv.scan.ns_per_binding": "ns",
    "trace.overhead_frac": "ratio",
}

RUN_LIMIT_S = 175  # a run must finish within 180 s


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# -- Build ------------------------------------------------------------------

def build():
    """Configures and builds kvbench; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "kv", "store.h"))):
        fail("lfsmr sources not found next to perfbench/ (%s)" % ROOT)
    if not shutil.which("cmake"):
        fail("cmake not found")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                          os.path.join(ROOT, ".bench_build"))
    bdir = os.path.join(out, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            _step(cfg)
        _step(["cmake", "--build", bdir, "--target", "kvbench",
               "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(bdir, "kvbench")


def _step(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=850)
    if r.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


# -- Run and check ----------------------------------------------------------

def run_kvbench(binary, workload, seed, seconds, trace, extra=(), limit=None):
    """Runs one workload; returns kvbench's JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))] + list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=limit or RUN_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("kvbench timed out: " + " ".join(cmd), 1)
    if r.returncode != 0 or not r.stdout.strip():
        fail("kvbench failed (exit %d): %s" % (r.returncode, " ".join(cmd)), 1)
    return json.loads(r.stdout)


def check(raw):
    """Returns the failed output checks of one kvbench record, each as
    (number of failures, message)."""
    c = raw["checks"]
    fails = []
    if c["bad_reads"]:
        fails.append((c["bad_reads"], "%d bad reads (value not one a writer "
                      "stored for the key)" % c["bad_reads"]))
    if c["errors"]:
        fails.append((c["errors"], "%d client errors: %s"
                      % (c["errors"], c["error"])))
    a = c["async"]
    if not a["submitted"] == a["completed"] == a["store_submits"]:
        n = max(a["submitted"], a["completed"], a["store_submits"]) - \
            min(a["submitted"], a["completed"], a["store_submits"])
        fails.append((n, "async ops not completed exactly once: submitted "
                      "%d, completed %d, store counted %d"
                      % (a["submitted"], a["completed"], a["store_submits"])))
    if raw["workload"] == "txn-async" and c["audits"] < 1:
        fails.append((1, "no audit ran"))
    if c["audit_failures"]:
        fails.append((c["audit_failures"], "%d of %d audits found the "
                      "account total changed or a binding without its key"
                      % (c["audit_failures"], c["audits"])))
    if c["chains"]["bad"]:
        fails.append((c["chains"]["bad"], "%d of %d sampled keys lack a "
                      "one-version chain after quiescence"
                      % (c["chains"]["bad"], c["chains"]["sampled"])))
    led = c["ledger"]
    # At quiescence every retired node is freed, except for the partial
    # batch each thread id may still be filling.
    held = led["retired"] - led["freed"]
    bound = 2 * led["batch"] * led["thread_ids"]
    if held > bound:
        fails.append((held - bound, "ledger: %d retired nodes not freed at "
                      "quiescence, more than 2 batches of %d for each of %d "
                      "thread ids" % (held, led["batch"], led["thread_ids"])))
    # Every allocated node not yet retired is reachable: a key node plus
    # its one version per binding, or a bucket sentinel.
    live = led["allocated"] - led["retired"]
    want = 2 * led["bindings"] + led["dummies"]
    if live != want:
        fails.append((abs(live - want), "ledger: allocated - retired = %d, "
                      "but the store holds 2 x %d bindings + %d sentinels"
                      % (live, led["bindings"], led["dummies"])))
    names = LAYERS if raw["trace"] else E2E
    for name in names:
        m = raw["metrics"].get(name)
        if m is None or not isinstance(m["value"], (int, float)):
            fails.append((1, "metric %s missing" % name))
        elif not raw["trace"] and not m["value"] > 0:
            fails.append((1, "metric %s is %r" % (name, m["value"])))
    return fails


def print_record(raw, fails):
    print("# workload %s  seed %d  seconds %g  trace %d  setups %d" %
          (raw["workload"], raw["seed"], raw["seconds"], raw["trace"],
           len(raw["setup_secs"])))
    if raw["trace"]:
        for name, m in raw["metrics"].items():
            print("  %-32s %14.6g %s" % (name, _num(m["value"]), m["unit"]))
    else:
        for row in raw["report"]:
            n = "  (n=%d)" % row["samples"] if row["samples"] else ""
            print("  %-32s %14.6g %s%s" % (row["name"], _num(row["value"]),
                                           row["unit"], n))
    w = raw["windows"]
    print("  windows: " + ", ".join("%d ops/%.2fs%s" % (
        x["ops"], x["secs"], "*" if x["traced"] else "") for x in w))
    print("  checks: " + ("all passed" if not fails else
                          "; ".join(msg for _, msg in fails)))


def _num(v):
    return float("nan") if v is None else v


def run_main(argv):
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", help="append the full record to this JSONL file")
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    binary = build()
    limit = max(30, RUN_LIMIT_S - (time.monotonic() - start))
    raw = run_kvbench(binary, args.workload, args.seed, args.seconds,
                      args.trace, limit=limit)
    fails = check(raw)
    print_record(raw, fails)
    if args.out:
        rec = dict(raw, correct=not fails,
                   failures=[msg for _, msg in fails])
        with open(args.out, "a") as f:
            f.write(json.dumps(rec) + "\n")
    print(json.dumps({"correct": not fails, "attempted": raw["attempted"],
                      "failed": sum(n for n, _ in fails),
                      "metrics": raw["metrics"]}))
    return 0 if not fails else 1


# -- Compare ----------------------------------------------------------------

def load_bench():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """within-bound / better / worse / unresolved for one metric."""
    q1, med, q3 = quartiles(base)
    nmed = statistics.median(new)
    sign = 1 if better == "higher" else -1
    gain = sign * (nmed - med) / med
    if gain < -bound:
        return "worse"
    spread = (q3 - q1) / med
    wins = sum(1 for a in base for b in new if sign * (b - a) > 0)
    if gain > spread and wins >= 0.9 * len(base) * len(new):
        return "better"
    if spread > bound:
        return "unresolved"
    return "within-bound"


def compare(base_path, new_path):
    bench = load_bench() or {}
    spec = {m["name"]: m for m in bench.get("end_to_end", [])}

    def load(path):
        groups = {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec["trace"]:
                    continue
                for name, m in rec["metrics"].items():
                    if m["value"] is not None:
                        groups.setdefault((rec["workload"], name),
                                          []).append(m["value"])
        return groups

    base, new = load(base_path), load(new_path)
    print("%-15s %-14s %30s %30s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "delta", "verdict"))
    for key in sorted(set(base) & set(new)):
        name = key[1]
        better = spec.get(name, {}).get(
            "better", "higher" if name == "ops_per_s" else "lower")
        bound = spec.get(name, {}).get("bound", 0.1)
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        print("%-15s %-14s %30s %30s %+7.1f%%  %s" % (
            key[0], name, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
            "%.4g [%.4g, %.4g]" % (nq[1], nq[0], nq[2]),
            100 * (nq[1] - bq[1]) / bq[1], verdict(b, n, better, bound)))


# -- Self-test --------------------------------------------------------------

def selftest():
    bench = load_bench()
    if bench:
        got = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        assert got == E2E, "BENCHMARK.json end_to_end differs from run.py"
        got = {m["name"]: m["unit"] for m in bench["per_layer"]}
        assert got == LAYERS, "BENCHMARK.json per_layer differs from run.py"
        assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    binary = build()
    good = None
    for w in WORKLOADS:
        for trace in (0, 1):
            raw = run_kvbench(binary, w, 1, 1, trace)
            fails = check(raw)
            assert not fails, "%s trace %d: %s" % (w, trace, fails)
            want = LAYERS if trace else E2E
            got = {k: m["unit"] for k, m in raw["metrics"].items()}
            assert got == want, "%s trace %d metrics: %s" % (w, trace, got)
            if not trace:
                rows = {r["name"]: r for r in raw["report"]}
                for name in REPORT[w]:
                    assert name in rows and rows[name]["unit"], (w, name)
                    assert rows[name]["value"] is not None, (w, name)
            print("selftest: %s trace %d: every metric present, checks pass"
                  % (w, trace))
            if w == "txn-async" and not trace:
                good = raw

    # A corrupted read inside a real run must fail the checks.
    raw = run_kvbench(binary, "ingest-write", 2, 1, 0,
                      ["--inject-corrupt-read"])
    assert any("bad reads" in msg for _, msg in check(raw)), check(raw)
    # So must retired nodes that are never freed (a leak, or a stall that
    # outlives its peer), and nodes that are never retired.
    unfreed = 2 * good["checks"]["ledger"]["batch"] * \
        good["checks"]["ledger"]["thread_ids"] + 1
    for field, delta in (("freed", -unfreed), ("allocated", 1),
                         ("retired", -1)):
        bad = copy.deepcopy(good)
        bad["checks"]["ledger"][field] += delta
        assert any("ledger" in msg for _, msg in check(bad)), field
    # And an async op completed twice.
    bad = copy.deepcopy(good)
    bad["checks"]["async"]["completed"] += 1
    assert any("exactly once" in msg for _, msg in check(bad))
    print("selftest: corrupted read, unfreed and unretired nodes and a "
          "double completion are rejected")

    # Compare verdicts on synthetic result sets.
    assert verdict([100, 101, 99, 100], [60, 61, 59, 60], "higher", 0.1) == \
        "worse"
    assert verdict([100, 101, 99, 100], [130, 131, 129, 130], "higher",
                   0.1) == "better"
    assert verdict([100, 101, 99, 100], [99, 100, 101, 98], "higher",
                   0.1) == "within-bound"
    assert verdict([1.0, 1.01, 0.99], [1.5, 1.4, 1.6], "lower", 0.25) == \
        "worse"
    print("selftest: ok")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        return selftest()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE.jsonl NEW.jsonl")
        compare(sys.argv[2], sys.argv[3])
        return 0
    return run_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
