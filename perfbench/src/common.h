#ifndef X100_PERFBENCH_COMMON_H_
#define X100_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark binary: run arguments, the run report
// (operation accounting + named metrics), in-memory spans, order statistics
// and result hashing. Everything here observes the engine from outside,
// through its public headers; nothing is compiled into the engine itself.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "server/wire.h"
#include "storage/table.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // spans and scratch data
};

/// What one run measured: operation counts (every answer is checked, a
/// wrong or failed one counts as failed), metrics by name with unit, per-
/// layer metrics the workload cannot produce (with the reason), and the
/// run's parameters. Rendered as the binary's last stdout line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Absent(const std::string& name, const std::string& reason);
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);

  /// Counts one attempted operation of `kind` ("query", "write", ...).
  /// Attempt and Fail may be called from any thread.
  void Attempt(const std::string& kind);
  /// Counts one failed operation of `kind` and logs why to stderr.
  void Fail(const std::string& kind, const std::string& why);

  int64_t attempted() const;
  int64_t failed() const;
  bool correct() const { return failed() == 0 && attempted() > 0; }

  std::string ToJson() const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> absent_;
  std::map<std::string, std::string> info_;  // pre-rendered JSON values
  mutable std::mutex ops_mu_;  // guards the operation counts below
  std::map<std::string, int64_t> attempted_, failed_;
  std::vector<std::string> failures_;  // first few, for the record
};

/// In-memory span log (name, start, end, parent, request id), written out
/// once at exit. Disabled logs record nothing, so untraced runs pay one
/// branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled). Ids start
  /// at 1, so parent 0 means "root".
  int64_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t request);

  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t start_ns, end_ns;
    int64_t parent;
    uint64_t request;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id = index + 1
};

// -- order statistics --------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank quantile, p in (0, 1]: the smallest sample with at least
/// p of the samples at or below it.
double Quantile(std::vector<double> v, double p);
/// Samples strictly above the p-quantile.
int64_t SamplesBeyond(const std::vector<double>& v, double p);
double Geomean(const std::vector<double>& v);
/// Geometric mean over queries of each query's median latency.
double GeomeanOfMedians(const std::map<int, std::vector<double>>& per_query);
/// Wall-clock nanoseconds (the engine's steady clock).
uint64_t Now();
/// Peak resident set size of this process so far, in MB (VmHWM).
double PeakRssMb();

/// Fisher-Yates permutation of `items`, driven by `rng`.
std::vector<int> Shuffled(std::vector<int> items, x100::Rng* rng);

// -- registry deltas ----------------------------------------------------------

/// Counter `name` in `after` minus `before` (0 when absent in either).
uint64_t CounterDelta(const x100::MetricsSnapshot& before,
                      const x100::MetricsSnapshot& after,
                      const std::string& name);
/// Sum of the deltas of every counter whose name starts with `prefix` and
/// ends with `suffix` (e.g. "ht." / ".probes" across hash layouts).
uint64_t CounterDeltaSum(const x100::MetricsSnapshot& before,
                         const x100::MetricsSnapshot& after,
                         const std::string& prefix, const std::string& suffix);

/// Adds the hash-table counters between two snapshots to *out: "probes",
/// "slot_scans", "key_rejects", "grows" (all hash layouts) and "rehashes"
/// (hash aggregation).
void AddHashTableDeltas(const x100::MetricsSnapshot& before,
                        const x100::MetricsSnapshot& after,
                        std::map<std::string, double>* out);
/// Emits ht.slot_scans_per_probe, ht.key_rejects_per_probe, ht.grows and
/// aggr.rehashes from counts AddHashTableDeltas took over `queries` queries.
void EmitHashTable(const std::map<std::string, double>& counts,
                   double queries, Report* report);

/// Takes `reps` set-up samples and reports their median as setup_s. A
/// sample is the mean time of `batch` runs of `teardown` (untimed) then
/// `setup` (timed); each run records a "setup" span. The last set-up's
/// state is what the workload then measures.
void TimedSetups(int reps, int batch, const std::function<void()>& teardown,
                 const std::function<void()>& setup, SpanLog* spans,
                 Report* report);

// -- result checking ----------------------------------------------------------

/// FNV-1a over every value of a result table, in row order, type-aware
/// (exact: float bits, string bytes).
uint64_t TableHash(const x100::Table& t);

/// Same shape and order; integers and strings exact, floats within a
/// relative `eps` of max(1, |a|, |b|) — the tolerance the parallel and
/// differential tests use. On mismatch, *why says where.
bool TablesMatch(const x100::Table& a, const x100::Table& b, double eps,
                 std::string* why);

/// FNV-1a over a result stream's decoded BATCH columns, in arrival order.
struct StreamHash {
  uint64_t h = 1469598103934665603ull;
  int64_t rows = 0;
  int64_t bytes = 0;  // decoded column bytes (strings: 4-byte length + data)

  void Mix(const void* data, size_t n);
  void Add(const x100::BatchMsg& b);
};

/// StreamHash of `t` as the server would stream it in `vector_size`-row
/// batches (encoded and decoded through the wire codec).
uint64_t WireReferenceHash(const x100::Table& t, int vector_size);

}  // namespace perfbench

#endif  // X100_PERFBENCH_COMMON_H_
