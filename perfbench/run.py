#!/usr/bin/env python3
"""Repository benchmark: builds the engine and its binary from source, runs
one workload (or all of them), checks every answer and prints the metrics.

    python3 perfbench/run.py --workload olap-ram --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all   # BENCHMARK.json, then every workload

--all writes BENCHMARK.json from SPEC below, then runs every workload
untraced and traced and exits 1 unless every answer was correct.

The last stdout line of a single-workload run is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Everything the run
produced (metrics beyond the spec, absent-metric reasons, parameters) goes
to .bench_out/result-<workload>-seed<n>-trace<t>.json, and the traced run's
spans to .bench_out/spans-<workload>-seed<n>.json. perfbench/WORKLOADS.md
explains the workloads and what each metric should move.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "x100_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Ten primitives with the most total cycles in a traced olap-ram run, frozen
# so every commit reports the same names (the binary also records the
# current top ten as info.prim_top10_by_cycles).
TOP_PRIMITIVES = [
    "select_like_str_col_str_val",
    "select_notlike_str_col_str_val",
    "aggr_sum_f64_col",
    "select_eq_u8_col_u8_val",
    "map_hash_i32_col",
    "map_rehash_i32_col",
    "select_gt_i32_col_i32_col",
    "select_lt_i32_col_i32_col",
    "map_fetch_i32_col_i64_col",
    "map_fetch_i64_col_i64_col",
]

# Queries olap-ram leaves out (kRamExcluded in src/olap.cc): Q7 returns a
# wrong answer at SF 0.5, see "Known defect" in WORKLOADS.md.
RAM_EXCLUDED = (7,)

# EXPLAIN ANALYZE labels the plan factories (src/exec/plan.h) give operators.
OP_LABELS = ["Scan", "BmScan", "Select", "Project", "HashAggr", "DirectAggr",
             "OrdAggr", "HashJoin", "SemiJoin", "AntiJoin", "Fetch1Join",
             "CartProd", "TopN", "Order", "Exchange"]


def per_layer():
    m = []
    for q in range(1, 23):
        if q not in RAM_EXCLUDED:
            m.append(("olap.q%d_ms" % q, "ms", "lower"))
    for q in (1, 3, 6, 14):
        m.append(("disk.q%d_ms" % q, "ms", "lower"))
    for label in OP_LABELS:
        m.append(("exec.%s.self_share" % label, "share", "lower"))
    m += [("ht.slot_scans_per_probe", "slots/probe", "lower"),
          ("ht.key_rejects_per_probe", "rejects/probe", "lower"),
          ("ht.grows", "count/query", "lower"),
          ("aggr.rehashes", "count/query", "lower")]
    for p in TOP_PRIMITIVES:
        m.append(("prim.%s.cycles_per_tuple" % p, "cycles/tuple", "lower"))
    m += [("bm.pool.hit_ratio", "ratio", "higher"),
          ("bm.pool.evictions", "count/pass", "lower"),
          ("bm.read_mb", "MB/pass", "lower"),
          ("prefetch.hit_ratio", "ratio", "higher"),
          ("prefetch.late", "count/pass", "lower"),
          ("bm.store_s", "s", "lower"),
          ("bm.compression_ratio", "ratio", "higher"),
          ("wal.records_per_fsync", "records/fsync", "higher"),
          ("wal.commit_wait_us.p50", "us", "lower"),
          ("wal.bytes_per_user_byte", "B/B", "lower"),
          ("wal.merges", "count/run", "lower"),
          ("server.queue_ms.p50", "ms", "lower"),
          ("server.queue_ms.p99", "ms", "lower"),
          ("server.exec_ms.p50", "ms", "lower"),
          ("server.exec_ms.p99", "ms", "lower"),
          ("server.other_ms.p50", "ms", "lower"),
          ("client.first_batch_ms.p50", "ms", "lower"),
          ("wire.bytes_per_query", "B", "lower"),
          ("writes_per_s", "1/s", "higher"),
          ("write_p50_ms", "ms", "lower"),
          ("write_p99_ms", "ms", "lower"),
          ("trace_overhead_ratio", "ratio", "lower")]
    return [{"name": n, "unit": u, "better": b} for n, u, b in m]


SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 10,
    "workloads": [
        {"name": "olap-ram",
         "why": "21 TPC-H queries (Q7 left out: wrong answer) serially on "
                "the RAM engine at SF 0.5 (Table 4 path): exec and "
                "primitives do the work, storage and server are bypassed"},
        {"name": "olap-disk",
         "why": "Q1/Q3/Q6/Q14 from ColumnBM blocks, exchange width 4, pool "
                "a quarter of the compressed working set: storage read path "
                "and exchange dominate"},
        {"name": "serve-mixed",
         "why": "3 wire connections x 2 queries in flight plus durable "
                "appends on a WAL engine at SF 0.01: server and storage "
                "write path dominate"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.25},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "query_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "query_tail_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "query_geomean_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
    ],
    "per_layer": per_layer(),
}

# The end-to-end view printed by every run: name -> (source
# metric, workloads it applies to). Printed for reading; the gated set is
# SPEC["end_to_end"].
SUMMARY = [
    ("setup_s", "setup_s", None),
    ("peak_rss_mb", "peak_rss_mb", None),
    ("failed_ratio", None, None),
    ("suite_s", "suite_s", ("olap-ram", "olap-disk")),
    ("query_geomean_ms", "query_geomean_ms", None),
    ("serve_qps", "queries_per_s", ("serve-mixed",)),
    ("serve_p50_ms", "query_p50_ms", ("serve-mixed",)),
    ("serve_p99_ms", "query_tail_ms", ("serve-mixed",)),
    ("writes_per_s", "writes_per_s", ("serve-mixed",)),
    ("write_p50_ms", "write_p50_ms", ("serve-mixed",)),
    ("write_p99_ms", "write_p99_ms", ("serve-mixed",)),
]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def run_proc(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under make included) and waits for it. Returns
    (returncode, stdout) or raises subprocess.TimeoutExpired."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/")
        return None
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", BINARY])
    with open(logpath, "a") as out:
        for cmd in steps:
            try:
                rc, _ = run_proc(cmd, BUILD_TIMEOUT_S, stdout=out,
                                 stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                log("build step %s failed: %s" % (cmd[:2], e))
                return None
            if rc != 0:
                log("build failed (rc=%d); see %s" % (rc, logpath))
                return None
    return os.path.join(bdir, BINARY)


def out_dir():
    d = os.path.join(ROOT, ".bench_out")
    os.makedirs(d, exist_ok=True)
    return d


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's report dict or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir()]
    try:
        rc, stdout = run_proc(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = stdout.strip().splitlines()
    if not lines:
        log("%s printed no report (rc=%d)" % (workload, rc))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("%s printed an unreadable report" % workload)
        return None


def absent_reason(report, name):
    absent = report.get("absent", {})
    if name in absent:
        return absent[name]
    for key, why in absent.items():
        if key.endswith("*") and name.startswith(key[:-1]):
            return why
    return "not exercised on this workload"


def result_line(report, trace):
    """The benchmark result: every spec metric of the run's kind. A per-
    layer metric the workload does not exercise reads 0 (its reason is in
    the result file); a missing end-to-end metric is an error. A latency
    made infinite by failed operations (the binary writes null) reads as
    the largest float: it misses every limit."""
    metrics, absent = {}, {}
    got = report.get("metrics", {})
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        v = got.get(m["name"])
        if v is not None:
            value = v.get("value")
            if value is None:
                value = sys.float_info.max if m["better"] == "lower" else 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        elif trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            absent[m["name"]] = absent_reason(report, m["name"])
        else:
            return None, None
    line = {"correct": bool(report.get("correct")),
            "attempted": int(report.get("attempted", 0)),
            "failed": int(report.get("failed", 0)),
            "metrics": metrics}
    return line, absent


def summary_lines(workload, report):
    got = report.get("metrics", {})
    info = report.get("info", {})
    out = ["workload %s: seed %s, nproc %s, SF %s%s" % (
        workload, info.get("seed"), info.get("nproc"),
        info.get("scale_factor"),
        "".join(", %s %.4g" % (k, info[k])
                for k in ("pool_budget_mb", "working_set_mb") if k in info))]
    attempted = max(1, int(report.get("attempted", 0)))
    for label, src, applies in SUMMARY:
        if applies is not None and workload not in applies:
            continue
        if src is None:
            out.append("  %-18s %12.6f ratio" % (
                label, int(report.get("failed", 0)) / attempted))
        elif src in got:
            out.append("  %-18s %12.6g %s" % (label, got[src]["value"],
                                              got[src]["unit"]))
    if "query_tail_percentile" in info:
        out.append("  (tail = p%g over %s: at least %d samples beyond it; "
                   "%d queries in the run)" % (
                       info["query_tail_percentile"], info["query_tail_scope"],
                       info["query_tail_samples_beyond"],
                       info["query_samples"]))
    if "host_probe_ms_before" in info:
        out.append("  host probe (fixed loop; higher = slower host): "
                   "%.1f ms before, %.1f ms after" % (
                       info["host_probe_ms_before"],
                       info.get("host_probe_ms_after", float("nan"))))
    for k in sorted(info):
        if k.startswith("excluded_"):
            out.append("  %s: %s" % (k, info[k]))
    if "io_note" in info:
        out.append("  note: " + info["io_note"])
    for f in report.get("failures", []):
        out.append("  FAILED " + f)
    return out


def run_one(binary, workload, seed, seconds, trace):
    report = run_binary(binary, workload, seed, seconds, trace)
    if report is None:
        return None, None
    line, absent = result_line(report, trace)
    if line is None:
        log("%s did not report every end-to-end metric" % workload)
        return None, None
    record = dict(report)
    record["result"] = line
    record["absent_per_layer"] = absent
    path = os.path.join(out_dir(), "result-%s-seed%d-trace%d.json" % (
        workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return line, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="write BENCHMARK.json, then run every workload "
                         "untraced and traced; exit 1 unless all correct")
    args = ap.parse_args()

    if args.all:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f, indent=2)
            f.write("\n")
    elif args.workload is None:
        ap.error("--workload or --all is required")

    binary = build()
    if binary is None:
        return 1

    if not args.all:
        line, report = run_one(binary, args.workload, args.seed,
                               args.seconds, args.trace)
        if line is None:
            return 1
        for s in summary_lines(args.workload, report):
            print(s)
        print(json.dumps(line, sort_keys=True), flush=True)
        return 0

    ok = True
    for w in names:
        for trace in (0, 1):
            line, report = run_one(binary, w, args.seed, args.seconds, trace)
            if line is None:
                ok = False
                continue
            ok = ok and line["correct"]
            if trace == 0:
                for s in summary_lines(w, report):
                    print(s)
            else:
                print("  traced: trace_overhead_ratio %.4g" % line["metrics"]
                      ["trace_overhead_ratio"]["value"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
