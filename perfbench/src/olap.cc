// olap-ram and olap-disk: one closed-loop client running TPC-H queries
// serially through the engine's query entry points (RunX100Query,
// RunX100QueryDisk), each pass in a seed-shuffled order. See
// perfbench/WORKLOADS.md for why these two workloads exist and which layers
// they load.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/profiling.h"
#include "exec/operator.h"
#include "exec/trace.h"
#include "mil/mil_db.h"
#include "mil/mil_ops.h"
#include "storage/columnbm.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kSf = 0.5;
constexpr int kSetupReps = 3;
/// Relative float tolerance of the differential tests (X100 vs MIL,
/// parallel vs serial).
constexpr double kFloatEps = 1e-9;
/// The queries that have disk-resident plans; fixed so a parent and a
/// change always run the same set.
const std::vector<int> kDiskQueries = {1, 3, 6, 14};
constexpr int kDiskThreads = 4;
/// Buffer-pool budget as a share of the disk queries' compressed working
/// set: the pool cannot hold the working set, so every pass evicts.
constexpr double kPoolShare = 0.25;
/// Tail percentiles, fixed per workload so the metric keeps its meaning
/// when the sample count moves: the highest with >= 10 samples beyond it
/// at this commit's pass rates in a 10-second run (4-6 passes, 84-126
/// queries, 10-15 beyond p87.5 on olap-ram; ~55 passes, ~220 queries on
/// olap-disk).
constexpr double kRamTailP = 0.875;
constexpr double kDiskTailP = 0.95;

/// Queries olap-ram leaves out, with the reason every run records. Q7's
/// X100 answer at SF 0.5 differs from MIL's (see "Known defect" in
/// perfbench/WORKLOADS.md); a run must finish with every answer right, so
/// Q7 joins the suite once the engine returns its right answer.
const std::map<int, std::string> kRamExcluded = {
    {7,
     "X100 Q7 at SF 0.5 returns a wrong GERMANY/FRANCE 1995 revenue "
     "(PredicateEvaluator kOr overwrites the in-place selection vector); "
     "left out of olap-ram until the engine is fixed"},
};

std::vector<int> RamQueries() {
  std::vector<int> qs;
  for (int q = 1; q <= x100::kNumTpchQueries; q++) {
    if (!kRamExcluded.count(q)) qs.push_back(q);
  }
  return qs;
}

std::unique_ptr<x100::Catalog> Generate() {
  x100::DbgenOptions opts;
  opts.scale_factor = kSf;
  return x100::GenerateTpch(opts);
}

/// Metric-name-safe form of a profiler row name.
std::string SafeName(const std::string& s) {
  std::string out;
  for (char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == '-')
               ? c
               : '_';
  }
  return out;
}

/// Per-layer read-outs of the traced phase: EXPLAIN ANALYZE self cycles per
/// operator label and profiler cycles/tuples per primitive, summed over
/// every traced query.
struct TraceTotals {
  std::map<std::string, double> label_self_cycles;
  double total_self_cycles = 0;
  x100::Profiler profiler;

  void AddTree(const x100::TraceNode* n) {
    double self = static_cast<double>(n->SelfCycles());
    label_self_cycles[n->label] += self;
    total_self_cycles += self;
    for (const x100::TraceNode* c : n->children) AddTree(c);
  }
  void Add(const x100::QueryTrace& t) {
    for (const x100::TraceNode* r : t.roots()) AddTree(r);
  }

  void Emit(Report* report, bool profiler_used) {
    for (const auto& [label, cycles] : label_self_cycles) {
      report->Metric("exec." + SafeName(label) + ".self_share",
                     total_self_cycles > 0 ? cycles / total_self_cycles : 0,
                     "share");
    }
    if (!profiler_used) return;
    std::vector<std::pair<double, std::string>> by_cycles;
    for (const auto& [name, st] : profiler.Rows()) {
      // Operators register coarser rows under their (capitalized) labels;
      // primitives are the lower-case rows.
      if (st->tuples == 0 ||
          !std::islower(static_cast<unsigned char>(name[0]))) {
        continue;
      }
      report->Metric("prim." + SafeName(name) + ".cycles_per_tuple",
                     st->CyclesPerTuple(), "cycles/tuple");
      by_cycles.emplace_back(static_cast<double>(st->cycles), SafeName(name));
    }
    std::sort(by_cycles.rbegin(), by_cycles.rend());
    std::string top;
    for (size_t i = 0; i < by_cycles.size() && i < 10; i++) {
      top += (i ? "," : "") + by_cycles[i].second;
    }
    report->Info("prim_top10_by_cycles", top);
  }
};

/// Latency samples of a run phase.
struct Samples {
  std::map<int, std::vector<double>> per_query_ms;
  std::vector<double> all_ms;
  /// Summed query time of each pass; +inf for a pass with a failed query.
  std::vector<double> pass_s;
  size_t pass_queries = 0;
  int64_t queries = 0;

  void Add(int q, double ms) {
    per_query_ms[q].push_back(ms);
    all_ms.push_back(ms);
    queries++;
  }
};

/// Runs seed-ordered passes over `queries` until `seconds` of wall time
/// have passed (whole passes, at least one). `run(q, traced)` executes one
/// query and returns its result; `check(q, table)` validates it. Checking
/// happens outside each query's timed window. `per_pass` runs after each
/// pass (registry deltas).
Samples RunPasses(const std::vector<int>& queries, double seconds,
                  x100::Rng* rng, const char* span_name, SpanLog* spans,
                  Report* report,
                  const std::function<std::unique_ptr<x100::Table>(int)>& run,
                  const std::function<bool(int, const x100::Table&,
                                           std::string*)>& check,
                  const std::function<void()>& per_pass = nullptr) {
  Samples s;
  s.pass_queries = queries.size();
  uint64_t deadline = Now() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t pass_no = 0;
  do {
    pass_no++;
    uint64_t pass_start = Now();
    double pass_busy = 0;
    int64_t pass_span = 0;
    std::vector<std::pair<int, std::pair<uint64_t, uint64_t>>> qspans;
    for (int q : Shuffled(queries, rng)) {
      report->Attempt("query");
      uint64_t t0 = Now();
      std::unique_ptr<x100::Table> result;
      std::string why;
      try {
        result = run(q);
      } catch (const std::exception& e) {
        why = e.what();
      }
      uint64_t t1 = Now();
      if (result == nullptr) {
        report->Fail("query", "q" + std::to_string(q) + " threw: " + why);
        s.Add(q, std::numeric_limits<double>::infinity());
        pass_busy = std::numeric_limits<double>::infinity();
        continue;
      }
      if (!check(q, *result, &why)) {
        report->Fail("query", "q" + std::to_string(q) + " wrong: " + why);
        s.Add(q, std::numeric_limits<double>::infinity());
        pass_busy = std::numeric_limits<double>::infinity();
        continue;
      }
      double ms = static_cast<double>(t1 - t0) / 1e6;
      s.Add(q, ms);
      pass_busy += ms / 1e3;
      qspans.push_back({q, {t0, t1}});
    }
    if (spans->enabled()) {
      pass_span = spans->Add(span_name, pass_start, Now(), 0, pass_no);
      for (const auto& [q, t] : qspans) {
        spans->Add("query.q" + std::to_string(q), t.first, t.second,
                   pass_span, pass_no);
      }
    }
    s.pass_s.push_back(pass_busy);
    if (per_pass) per_pass();
  } while (Now() < deadline);
  return s;
}

void EmitEndToEnd(const Samples& s, double tail_p, Report* report) {
  // Queries per second of the median pass: a slow spell of the shared host
  // moves a pass or two, not the run's figure. A failed query makes its
  // pass infinitely long.
  double suite = Median(s.pass_s);
  report->Metric("queries_per_s",
                 suite > 0 ? static_cast<double>(s.pass_queries) / suite : 0,
                 "1/s");
  report->Metric("query_p50_ms", Median(s.all_ms), "ms");
  report->Metric("query_tail_ms", Quantile(s.all_ms, tail_p), "ms");
  report->Metric("query_geomean_ms", GeomeanOfMedians(s.per_query_ms), "ms");
  report->Metric("suite_s", suite, "s");
  report->Info("query_tail_percentile", tail_p * 100);
  report->Info("query_tail_samples_beyond",
               static_cast<double>(SamplesBeyond(s.all_ms, tail_p)));
  report->Info("query_tail_scope", "the whole run");
  report->Info("query_samples", static_cast<double>(s.queries));
  report->Info("passes", static_cast<double>(s.pass_s.size()));
}

void EmitPerQuery(const Samples& s, const std::string& prefix,
                  Report* report) {
  for (const auto& [q, v] : s.per_query_ms) {
    report->Metric(prefix + ".q" + std::to_string(q) + "_ms", Median(v), "ms");
  }
}

/// Registry deltas of each pass; per-layer counts are medians over passes.
struct PassCounters {
  std::map<std::string, std::vector<double>> per_pass;
  x100::MetricsSnapshot last = x100::MetricsRegistry::Get().Snapshot();

  void Take(const std::function<void(const x100::MetricsSnapshot&,
                                     const x100::MetricsSnapshot&,
                                     std::map<std::string, double>*)>& f) {
    x100::MetricsSnapshot now = x100::MetricsRegistry::Get().Snapshot();
    std::map<std::string, double> vals;
    f(last, now, &vals);
    for (const auto& [k, v] : vals) per_pass[k].push_back(v);
    last = std::move(now);
  }
  std::map<std::string, double> Medians() const {
    std::map<std::string, double> m;
    for (const auto& [k, v] : per_pass) m[k] = Median(v);
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------------------

void RunOlapRam(const Args& args, SpanLog* spans, Report* report) {
  report->Info("scale_factor", kSf);
  for (const auto& [q, why] : kRamExcluded) {
    std::string key = "excluded_q" + std::to_string(q);
    report->Info(key, why);
    std::fprintf(stderr, "[perfbench] olap-ram: %s: %s\n", key.c_str(),
                 why.c_str());
  }
  std::unique_ptr<x100::Catalog> db;
  TimedSetups(
      args.trace ? 1 : kSetupReps, 1, [&] { db.reset(); },
      [&] { db = Generate(); }, spans, report);

  // Pass one: fixed order, untimed; every later pass must hash the same.
  std::map<int, std::unique_ptr<x100::Table>> first;
  std::map<int, uint64_t> first_hash;
  for (int q : RamQueries()) {
    report->Attempt("query");
    try {
      x100::ExecContext ctx;
      first[q] = x100::RunX100Query(q, &ctx, *db);
      first_hash[q] = TableHash(*first[q]);
    } catch (const std::exception& e) {
      report->Fail("query", "q" + std::to_string(q) + " threw: " + e.what());
    }
  }
  auto check = [&](int q, const x100::Table& t, std::string* why) {
    auto it = first_hash.find(q);
    if (it == first_hash.end()) {
      *why = "pass one failed";
      return false;
    }
    if (TableHash(t) != it->second) {
      *why = "result differs from pass one";
      return false;
    }
    return true;
  };

  auto untraced = [&](int q) {
    x100::ExecContext ctx;
    return x100::RunX100Query(q, &ctx, *db);
  };
  x100::Rng rng(args.seed);
  SpanLog off(false);
  if (!args.trace) {
    Samples s = RunPasses(RamQueries(), args.seconds, &rng, "pass", &off,
                          report, untraced, check);
    EmitEndToEnd(s, kRamTailP, report);
  } else {
    Samples base = RunPasses(RamQueries(), args.seconds / 2, &rng, "pass",
                             &off, report, untraced, check);
    TraceTotals totals;
    PassCounters pc;
    Samples traced = RunPasses(
        RamQueries(), args.seconds / 2, &rng, "pass", spans, report,
        [&](int q) {
          x100::QueryTrace trace;
          x100::ExecContext ctx;
          ctx.trace = &trace;
          ctx.profiler = &totals.profiler;
          std::unique_ptr<x100::Table> t = x100::RunX100Query(q, &ctx, *db);
          totals.Add(trace);
          return t;
        },
        check, [&] { pc.Take(AddHashTableDeltas); });
    EmitPerQuery(traced, "olap", report);
    totals.Emit(report, /*profiler_used=*/true);
    EmitHashTable(pc.Medians(), static_cast<double>(RamQueries().size()),
                  report);
    report->Metric("trace_overhead_ratio",
                   Median(traced.pass_s) / Median(base.pass_s), "ratio");
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  // Differential check of pass one against the MIL engine, after every
  // timed phase and after peak RSS was read.
  x100::MilDatabase mil(*db);
  for (int q : RamQueries()) {
    report->Attempt("mil_check");
    auto it = first.find(q);
    if (it == first.end()) {
      report->Fail("mil_check", "q" + std::to_string(q) + ": no X100 answer");
      continue;
    }
    std::string why;
    try {
      x100::MilSession session;
      std::unique_ptr<x100::Table> want = x100::RunMilQuery(q, &session, &mil);
      if (!TablesMatch(*it->second, *want, kFloatEps, &why)) {
        report->Fail("mil_check", "q" + std::to_string(q) + ": " + why);
      }
    } catch (const std::exception& e) {
      report->Fail("mil_check", "q" + std::to_string(q) + " threw: " +
                                    e.what());
    }
  }
}

// ---------------------------------------------------------------------------

namespace {

/// Stored bytes and decoded (raw) bytes of every column file the disk plans
/// wrote, found by probing the catalog's columns under BmScan's file names.
struct StoreSize {
  double stored = 0;
  double raw = 0;
};

StoreSize MeasureStore(x100::ColumnBm* bm, const x100::Catalog& db) {
  StoreSize s;
  for (const std::string& tname : db.TableNames()) {
    const x100::Table& t = db.Get(tname);
    for (int c = 0; c < t.num_columns(); c++) {
      const x100::Column& col = t.column(c);
      for (const char* suffix : {".cmp", ".plain"}) {
        std::string file = tname + "." + t.schema().field(c).name + suffix;
        if (!bm->Contains(file)) continue;
        s.stored += static_cast<double>(bm->FileBytes(file));
        s.raw += static_cast<double>(t.num_rows()) *
                 static_cast<double>(x100::TypeWidth(col.storage_type()));
      }
    }
  }
  return s;
}

void StorageDeltas(const x100::MetricsSnapshot& a,
                   const x100::MetricsSnapshot& b,
                   std::map<std::string, double>* out) {
  for (const char* name :
       {"bm.pool.hits", "bm.pool.misses", "bm.pool.evictions",
        "bm.pool.read_bytes", "prefetch.scheduled", "prefetch.hits",
        "prefetch.late"}) {
    (*out)[name] = static_cast<double>(CounterDelta(a, b, name));
  }
  AddHashTableDeltas(a, b, out);
}

}  // namespace

void RunOlapDisk(const Args& args, SpanLog* spans, Report* report) {
  report->Info("scale_factor", kSf);
  report->Info("exchange_width", static_cast<double>(kDiskThreads));
  report->Info("io_note",
               "block reads are served from the OS page cache, not from a "
               "device");
  std::string dir = args.out_dir + "/disk-" + args.workload + "-" +
                    std::to_string(args.seed);
  std::unique_ptr<x100::Catalog> db;
  std::vector<double> store_s;
  StoreSize size;
  TimedSetups(
      args.trace ? 1 : kSetupReps, 1,
      [&] {
        db.reset();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
      },
      [&] {
        db = Generate();
        // First pass: each disk plan stores its columns (auto codec per
        // block) the first time it scans them.
        uint64_t t0 = Now();
        x100::ColumnBm writer(x100::ColumnBm::Options{.disk_dir = dir});
        for (int q : kDiskQueries) {
          x100::ExecContext ctx;
          ctx.num_threads = kDiskThreads;
          x100::RunX100QueryDisk(q, &ctx, *db, &writer, /*compress=*/true);
        }
        uint64_t t1 = Now();
        spans->Add("store", t0, t1, 0, store_s.size());
        store_s.push_back(static_cast<double>(t1 - t0) / 1e9);
        size = MeasureStore(&writer, *db);
      },
      spans, report);
  if (size.stored <= 0) throw std::runtime_error("disk store wrote nothing");
  int64_t budget = static_cast<int64_t>(size.stored * kPoolShare);
  report->Info("working_set_mb", size.stored / 1e6);
  report->Info("pool_budget_mb", static_cast<double>(budget) / 1e6);

  // Reference: the serial RAM answer, computed once outside every timing.
  std::map<int, std::unique_ptr<x100::Table>> want;
  for (int q : kDiskQueries) {
    x100::ExecContext ctx;
    want[q] = x100::RunX100Query(q, &ctx, *db);
  }
  auto check = [&](int q, const x100::Table& t, std::string* why) {
    return TablesMatch(*want[q], t, kFloatEps, why);
  };

  auto bm = std::make_unique<x100::ColumnBm>(
      x100::ColumnBm::Options{.disk_dir = dir, .pool_bytes = budget});
  auto run = [&](int q, x100::QueryTrace* trace, x100::Profiler* prof) {
    x100::ExecContext ctx;
    ctx.num_threads = kDiskThreads;
    ctx.trace = trace;
    ctx.profiler = prof;
    return x100::RunX100QueryDisk(q, &ctx, *db, bm.get(), /*compress=*/true);
  };
  auto untraced = [&](int q) { return run(q, nullptr, nullptr); };
  // Warm-up pass (untimed, checked): lazy metadata loads finish here.
  x100::Rng rng(args.seed);
  SpanLog off(false);
  RunPasses(kDiskQueries, 0, &rng, "pass", &off, report, untraced, check);

  if (!args.trace) {
    Samples s = RunPasses(kDiskQueries, args.seconds, &rng, "pass", &off,
                          report, untraced, check);
    EmitEndToEnd(s, kDiskTailP, report);
  } else {
    Samples base = RunPasses(kDiskQueries, args.seconds / 2, &rng, "pass",
                             &off, report, untraced, check);
    TraceTotals totals;
    PassCounters pc;
    Samples traced = RunPasses(
        kDiskQueries, args.seconds / 2, &rng, "pass", spans, report,
        [&](int q) {
          x100::QueryTrace trace;
          std::unique_ptr<x100::Table> t = run(q, &trace, &totals.profiler);
          totals.Add(trace);
          return t;
        },
        check, [&] { pc.Take(StorageDeltas); });
    EmitPerQuery(traced, "disk", report);
    totals.Emit(report, /*profiler_used=*/false);
    report->Absent("prim.*",
                   "exchange workers run without the profiler (it is not "
                   "thread-safe); primitive costs come from olap-ram");
    std::map<std::string, double> m = pc.Medians();
    EmitHashTable(m, static_cast<double>(kDiskQueries.size()), report);
    double lookups = m["bm.pool.hits"] + m["bm.pool.misses"];
    double scheduled = m["prefetch.scheduled"];
    report->Metric("bm.pool.hit_ratio",
                   lookups > 0 ? m["bm.pool.hits"] / lookups : 0, "ratio");
    report->Metric("bm.pool.evictions", m["bm.pool.evictions"], "count/pass");
    report->Metric("bm.read_mb", m["bm.pool.read_bytes"] / 1e6, "MB/pass");
    report->Metric("prefetch.hit_ratio",
                   scheduled > 0 ? m["prefetch.hits"] / scheduled : 0,
                   "ratio");
    report->Metric("prefetch.late", m["prefetch.late"], "count/pass");
    report->Metric("bm.store_s", Median(store_s), "s");
    report->Metric("bm.compression_ratio", size.raw / size.stored, "ratio");
    report->Metric("trace_overhead_ratio",
                   Median(traced.pass_s) / Median(base.pass_s), "ratio");
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  bm.reset();  // closes the chunk files before the directory goes
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
