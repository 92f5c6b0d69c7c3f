// serve-mixed: an in-process TcpServer on loopback in front of a WAL-backed
// engine, driven through the wire client (Client::Submit / SubmitUpdate /
// Next) by three closed-loop query connections and one writer connection.
// See perfbench/WORKLOADS.md for why this workload exists and which layers
// it loads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/date.h"
#include "common/types.h"
#include "server/client.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kSf = 0.01;
/// A set-up takes ~0.1 s at this SF, less than the periods (1-3 s) in
/// which a vCPU of the shared host keeps one of its two speeds (~1.5x
/// apart), so single set-ups are bimodal and so would be their median.
/// Each set-up sample is therefore the mean of a batch of set-ups spaced
/// over ~2 s; setup_s is the median of the samples.
constexpr int kSetupReps = 5;
constexpr int kSetupBatch = 6;
constexpr auto kSetupPause = std::chrono::milliseconds(250);
constexpr int kQueryConns = 3;
constexpr int kQueriesInFlight = 2;  // per query connection
constexpr int kWritesInFlight = 4;
constexpr int kVectorSize = 1024;  // result-batch granularity, both sides
/// Admission slots of the standalone server (examples/x100_server).
constexpr int kMaxConcurrent = 8;
/// Highest percentile with >= 10 samples beyond it at this commit's rates
/// (thousands of queries and writes per run).
constexpr double kTailP = 0.99;
const std::vector<int> kMix = {1, 3, 6, 14};
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The server under test plus the state it needs, torn down in order.
struct Server {
  std::unique_ptr<x100::QueryService> svc;
  std::unique_ptr<x100::TcpServer> tcp;

  ~Server() {
    if (tcp != nullptr) tcp->Stop();
    if (svc != nullptr) svc->Drain();
    tcp.reset();
    svc.reset();
  }
};

std::unique_ptr<Server> StartServer(const std::string& wal_dir) {
  auto s = std::make_unique<Server>();
  x100::QueryService::Options opts;  // default durability options
  opts.max_concurrent = kMaxConcurrent;
  opts.wal_dir = wal_dir;
  s->svc = std::make_unique<x100::QueryService>(opts);
  s->svc->engines()->Get(kSf, /*want_disk=*/false);
  x100::TcpServer::Options topts;
  topts.port = 0;
  s->tcp = std::make_unique<x100::TcpServer>(s->svc.get(), topts);
  std::string error;
  if (!s->tcp->Start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  return s;
}

x100::QueryRequest MixQuery(int q) {
  x100::QueryRequest req;
  req.query = "q" + std::to_string(q);
  req.scale_factor = kSf;
  req.num_threads = 1;  // exact hashes need the serial summation order
  req.vector_size = kVectorSize;
  req.label = "perfbench:q" + std::to_string(q);
  return req;
}

/// One query's submit -> DONE latency, keyed by when it completed.
struct QuerySample {
  uint64_t done = 0;
  int q = 0;
  double ms = 0;
};

/// What one load phase observed. Failed operations enter every latency
/// list as +inf: they miss any latency limit.
struct Load {
  std::mutex mu;
  std::vector<QuerySample> queries;
  std::vector<double> queue_ms, exec_ms, other_ms, first_batch_ms;
  std::vector<double> write_ms;
  int64_t queries_done = 0, writes_done = 0;
  int64_t result_bytes = 0;
  double user_bytes = 0;  // bytes of the appended rows' values
  uint64_t start = 0;
  double seconds = 0;
};

std::vector<double> LatenciesMs(const std::vector<QuerySample>& v) {
  std::vector<double> ms;
  for (const QuerySample& s : v) ms.push_back(s.ms);
  return ms;
}

std::map<int, std::vector<double>> PerQueryMs(
    const std::vector<QuerySample>& v) {
  std::map<int, std::vector<double>> m;
  for (const QuerySample& s : v) m[s.q].push_back(s.ms);
  return m;
}

struct Shared {
  const Args* args;
  int port;
  std::map<int, uint64_t> want_hash;
  const std::vector<std::vector<x100::Value>>* rows;  // append candidates
  std::vector<double> row_bytes;
  std::atomic<int64_t> acked_appends{0};
  SpanLog* spans;
  Report* report;
};

std::unique_ptr<x100::Client> Connect(Shared* sh, const char* kind) {
  std::string error;
  std::unique_ptr<x100::Client> c =
      x100::Client::Connect("127.0.0.1", sh->port, &error);
  if (c == nullptr) {
    sh->report->Attempt(kind);
    sh->report->Fail(kind, "connection refused: " + error);
  }
  return c;
}

/// One query connection: keeps kQueriesInFlight SUBMITs in flight, each
/// round a seed-shuffled permutation of the mix, until `deadline`.
void QueryConn(Shared* sh, int conn, uint64_t deadline, uint64_t phase,
               Load* load) {
  std::unique_ptr<x100::Client> c = Connect(sh, "query");
  if (c == nullptr) {
    std::lock_guard<std::mutex> lock(load->mu);
    load->queries.push_back({Now(), 0, kInf});
    return;
  }
  x100::Rng rng = x100::Rng::Keyed(sh->args->seed, phase, conn);
  std::vector<int> round;
  struct Req {
    int q = 0;
    uint64_t submit = 0, first_batch = 0;
    StreamHash hash;
  };
  std::map<uint64_t, Req> inflight;
  std::vector<QuerySample> samples;
  std::vector<double> queue, exec, other, first;
  int64_t bytes = 0;
  // Request ids are unique across connections, so spans can key on them.
  uint64_t next_id = (static_cast<uint64_t>(conn) + 1) << 32;
  std::string error;
  auto fail = [&](uint64_t id, const std::string& why) {
    Req& r = inflight[id];
    sh->report->Fail("query", "conn " + std::to_string(conn) + " q" +
                                  std::to_string(r.q) + ": " + why);
    samples.push_back({Now(), r.q, kInf});
    inflight.erase(id);
  };
  for (;;) {
    while (inflight.size() < kQueriesInFlight && Now() < deadline) {
      if (round.empty()) round = Shuffled(kMix, &rng);
      int q = round.back();
      round.pop_back();
      uint64_t id = next_id++;
      sh->report->Attempt("query");
      inflight[id] = Req{q, Now(), 0, {}};
      if (!c->Submit(id, MixQuery(q), &error)) {
        fail(id, "submit failed: " + error);
        break;
      }
    }
    if (inflight.empty()) break;
    x100::Client::Event ev;
    if (!c->Next(&ev, &error)) {
      while (!inflight.empty()) {
        fail(inflight.begin()->first, "stream died: " + error);
      }
      break;
    }
    using Kind = x100::Client::Event::Kind;
    if (ev.kind == Kind::kBatch) {
      auto it = inflight.find(ev.batch.id);
      if (it == inflight.end()) continue;
      if (it->second.first_batch == 0) it->second.first_batch = Now();
      it->second.hash.Add(ev.batch);
    } else if (ev.kind == Kind::kDone) {
      uint64_t done = Now();
      auto it = inflight.find(ev.done.id);
      if (it == inflight.end()) continue;
      const x100::QueryOutcome& o = ev.done.outcome;
      Req& r = it->second;
      if (o.status != x100::QueryStatus::kDone) {
        fail(ev.done.id, "DONE status " +
                             std::to_string(static_cast<int>(o.status)) +
                             ": " + o.error);
        continue;
      }
      if (r.hash.h != sh->want_hash.at(r.q) || r.hash.rows != o.rows) {
        fail(ev.done.id, "result stream differs from the serial reference");
        continue;
      }
      double ms = static_cast<double>(done - r.submit) / 1e6;
      double queue_ms = static_cast<double>(o.queue_nanos) / 1e6;
      double exec_ms = static_cast<double>(o.exec_nanos) / 1e6;
      samples.push_back({done, r.q, ms});
      queue.push_back(queue_ms);
      exec.push_back(exec_ms);
      other.push_back(ms - queue_ms - exec_ms);
      uint64_t fb = r.first_batch != 0 ? r.first_batch : done;
      first.push_back(static_cast<double>(fb - r.submit) / 1e6);
      bytes += r.hash.bytes;
      if (sh->spans->enabled()) {
        int64_t p = sh->spans->Add("query.q" + std::to_string(r.q), r.submit,
                                   done, 0, ev.done.id);
        sh->spans->Add("first_batch", r.submit, fb, p, ev.done.id);
        sh->spans->Add("stream_to_done", fb, done, p, ev.done.id);
      }
      inflight.erase(it);
    } else if (ev.kind == Kind::kError) {
      if (ev.error.id != 0 && inflight.count(ev.error.id) != 0) {
        fail(ev.error.id, "ERROR frame: " + ev.error.message);
      } else {
        while (!inflight.empty()) {
          fail(inflight.begin()->first,
               "connection ERROR: " + ev.error.message);
        }
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(load->mu);
  load->queries.insert(load->queries.end(), samples.begin(), samples.end());
  load->queue_ms.insert(load->queue_ms.end(), queue.begin(), queue.end());
  load->exec_ms.insert(load->exec_ms.end(), exec.begin(), exec.end());
  load->other_ms.insert(load->other_ms.end(), other.begin(), other.end());
  load->first_batch_ms.insert(load->first_batch_ms.end(), first.begin(),
                              first.end());
  load->queries_done += static_cast<int64_t>(queue.size());
  load->result_bytes += bytes;
}

/// The writer connection: keeps kWritesInFlight durable lineitem appends
/// in flight; each appends a seed-chosen base row with l_shipdate past
/// every query's date range.
void WriterConn(Shared* sh, uint64_t deadline, uint64_t phase, Load* load) {
  std::unique_ptr<x100::Client> c = Connect(sh, "write");
  if (c == nullptr) {
    std::lock_guard<std::mutex> lock(load->mu);
    load->write_ms.push_back(kInf);
    return;
  }
  x100::Rng rng = x100::Rng::Keyed(sh->args->seed, phase, 1000);
  std::map<uint64_t, std::pair<uint64_t, size_t>> inflight;  // submit, row
  std::vector<double> lat;
  int64_t acked = 0;
  double user_bytes = 0;
  uint64_t next_id = 1;
  std::string error;
  auto fail = [&](uint64_t id, const std::string& why) {
    sh->report->Fail("write", why);
    lat.push_back(kInf);
    inflight.erase(id);
  };
  for (;;) {
    while (inflight.size() < kWritesInFlight && Now() < deadline) {
      size_t row = rng.Next() % sh->rows->size();
      x100::UpdateRequest req;
      req.op = x100::UpdateOp::kAppend;
      req.table = "lineitem";
      req.scale_factor = kSf;
      req.row = (*sh->rows)[row];
      req.durable = true;
      uint64_t id = next_id++;
      sh->report->Attempt("write");
      inflight[id] = {Now(), row};
      if (!c->SubmitUpdate(id, req, &error)) {
        fail(id, "submit failed: " + error);
        break;
      }
    }
    if (inflight.empty()) break;
    x100::Client::Event ev;
    if (!c->Next(&ev, &error)) {
      while (!inflight.empty()) {
        fail(inflight.begin()->first, "stream died: " + error);
      }
      break;
    }
    if (ev.kind == x100::Client::Event::Kind::kUpdateDone) {
      uint64_t done = Now();
      auto it = inflight.find(ev.update_done.id);
      if (it == inflight.end()) continue;
      if (!ev.update_done.outcome.ok) {
        fail(ev.update_done.id, "rejected: " + ev.update_done.outcome.error);
        continue;
      }
      lat.push_back(static_cast<double>(done - it->second.first) / 1e6);
      user_bytes += sh->row_bytes[it->second.second];
      acked++;
      sh->acked_appends++;
      sh->spans->Add("update", it->second.first, done, 0,
                     ev.update_done.id);
      inflight.erase(it);
    } else if (ev.kind == x100::Client::Event::Kind::kError) {
      while (!inflight.empty()) {
        fail(inflight.begin()->first, "ERROR frame: " + ev.error.message);
      }
      break;
    }
  }
  std::lock_guard<std::mutex> lock(load->mu);
  load->write_ms.insert(load->write_ms.end(), lat.begin(), lat.end());
  load->writes_done += acked;
  load->user_bytes += user_bytes;
}

/// Runs the full connection mix for `seconds`; returns when every
/// connection has drained its in-flight requests.
void RunLoad(Shared* sh, double seconds, uint64_t phase, Load* load) {
  uint64_t start = Now();
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  load->start = start;
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueryConns; i++) {
    threads.emplace_back(QueryConn, sh, i, deadline, phase, load);
  }
  threads.emplace_back(WriterConn, sh, deadline, phase, load);
  for (std::thread& t : threads) t.join();
  load->seconds = static_cast<double>(Now() - start) / 1e9;
}

/// The end-to-end query metrics, each the median over the load's
/// one-second windows (queries binned by completion time), so a stall of
/// the shared host moves one window rather than the run's figure. Queries
/// completing after the last whole window (the drain) count in none.
void EmitWindowed(const Load& l, double seconds, Report* report) {
  int windows = std::max(1, static_cast<int>(seconds));
  uint64_t len = static_cast<uint64_t>(seconds / windows * 1e9);
  std::vector<std::vector<QuerySample>> bins(static_cast<size_t>(windows));
  for (const QuerySample& s : l.queries) {
    if (s.done < l.start) continue;
    uint64_t w = (s.done - l.start) / len;
    if (w < bins.size()) bins[w].push_back(s);
  }
  std::vector<double> qps, p50, tail, geomean;
  double min_beyond = kInf;
  for (const std::vector<QuerySample>& b : bins) {
    qps.push_back(static_cast<double>(b.size()) / (len / 1e9));
    if (b.empty()) {  // nothing completed: every latency limit missed
      p50.push_back(kInf);
      tail.push_back(kInf);
      geomean.push_back(kInf);
      min_beyond = 0;
      continue;
    }
    std::vector<double> ms = LatenciesMs(b);
    p50.push_back(Median(ms));
    tail.push_back(Quantile(ms, kTailP));
    geomean.push_back(GeomeanOfMedians(PerQueryMs(b)));
    min_beyond = std::min(min_beyond,
                          static_cast<double>(SamplesBeyond(ms, kTailP)));
  }
  report->Metric("queries_per_s", Median(qps), "1/s");
  report->Metric("query_p50_ms", Median(p50), "ms");
  report->Metric("query_tail_ms", Median(tail), "ms");
  report->Metric("query_geomean_ms", Median(geomean), "ms");
  report->Info("windows", static_cast<double>(windows));
  report->Info("query_tail_percentile", kTailP * 100);
  report->Info("query_tail_samples_beyond", min_beyond);
  report->Info("query_tail_scope", "each 1 s window");
  report->Info("query_samples", static_cast<double>(l.queries.size()));
}

/// Counts lineitem rows server-side through the algebra front-end.
int64_t CountLineitemRows(x100::Client* c, std::string* error) {
  x100::QueryRequest req;
  req.query = "Aggr(Table(lineitem, l_orderkey), [], [ n = count() ])";
  req.scale_factor = kSf;
  req.num_threads = 1;
  req.label = "perfbench:count";
  const uint64_t id = 1;
  if (!c->Submit(id, req, error)) return -1;
  int64_t n = -1;
  for (;;) {
    x100::Client::Event ev;
    if (!c->Next(&ev, error)) return -1;
    if (ev.kind == x100::Client::Event::Kind::kBatch && ev.batch.id == id) {
      if (ev.batch.num_rows == 1 && ev.batch.cols.size() == 1 &&
          ev.batch.cols[0].fixed.size() == 8) {
        std::memcpy(&n, ev.batch.cols[0].fixed.data(), 8);
      }
    } else if (ev.kind == x100::Client::Event::Kind::kDone &&
               ev.done.id == id) {
      if (ev.done.outcome.status != x100::QueryStatus::kDone) {
        *error = ev.done.outcome.error;
        return -1;
      }
      break;
    } else if (ev.kind == x100::Client::Event::Kind::kError) {
      *error = ev.error.message;
      return -1;
    }
  }
  if (n < 0) *error = "count query returned no usable batch";
  return n;
}

/// Approximate p-th percentile of the observations a log2 histogram took
/// between two bucket snapshots (bucket upper bound, ~2x resolution).
double HistogramDeltaPercentile(const std::vector<uint64_t>& before,
                                const std::vector<uint64_t>& after,
                                double p) {
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); i++) total += after[i] - before[i];
  if (total == 0) return 0;
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < after.size(); i++) {
    seen += after[i] - before[i];
    if (seen >= rank) {
      return static_cast<double>(
          x100::Histogram::BucketUpperBound(static_cast<int>(i)));
    }
  }
  return 0;
}

std::vector<uint64_t> Buckets(const char* name) {
  x100::Histogram* h = x100::MetricsRegistry::Get().GetHistogram(name);
  std::vector<uint64_t> b;
  for (int i = 0; i < x100::Histogram::kNumBuckets; i++) {
    b.push_back(h->BucketCount(i));
  }
  return b;
}

}  // namespace

void RunServeMixed(const Args& args, SpanLog* spans, Report* report) {
  report->Info("scale_factor", kSf);
  report->Info("query_connections", static_cast<double>(kQueryConns));
  report->Info("queries_in_flight_per_connection",
               static_cast<double>(kQueriesInFlight));
  report->Info("writes_in_flight", static_cast<double>(kWritesInFlight));
  report->Info("client_threads", static_cast<double>(kQueryConns + 1));
  report->Info("merge_threshold_rows",
               static_cast<double>(x100::kDefaultMergeRows));
  report->Info("wal_group_us", static_cast<double>(x100::kDefaultWalGroupUs));

  // Client-side reference data: the same deterministic dbgen the server
  // loads, queried serially in process.
  x100::DbgenOptions dopts;
  dopts.scale_factor = kSf;
  std::unique_ptr<x100::Catalog> local = x100::GenerateTpch(dopts);
  Shared sh;
  sh.args = &args;
  sh.spans = spans;
  sh.report = report;
  for (int q : kMix) {
    x100::ExecContext ctx;
    ctx.vector_size = kVectorSize;
    std::unique_ptr<x100::Table> t = x100::RunX100Query(q, &ctx, *local);
    sh.want_hash[q] = WireReferenceHash(*t, kVectorSize);
  }
  // Append candidates: base rows shipped after 1998-09-02, which no query
  // in the mix admits (Q1 stops there; Q3/Q6/Q14 end earlier), so every
  // answer stays exactly checkable while scans still read them.
  const x100::Table& li = local->Get("lineitem");
  const int64_t base_rows = li.total_rows();
  const int declared = static_cast<int>(li.specs().size());
  const int ship = li.ColumnIndex("l_shipdate");
  const int64_t cutoff = x100::ParseDate("1998-09-02");
  std::vector<std::vector<x100::Value>> rows;
  for (int64_t r = 0; r < base_rows; r++) {
    if (li.GetValue(r, ship).AsI64() <= cutoff) continue;
    std::vector<x100::Value> row;
    double bytes = 0;
    for (int c = 0; c < declared; c++) {
      row.push_back(li.GetValue(r, c));
      bytes += row.back().type() == x100::TypeId::kStr
                   ? static_cast<double>(row.back().AsStr().size())
                   : static_cast<double>(x100::TypeWidth(li.specs()[c].type));
    }
    rows.push_back(std::move(row));
    sh.row_bytes.push_back(bytes);
  }
  if (rows.empty()) throw std::runtime_error("no append candidates");
  sh.rows = &rows;
  report->Info("append_candidates", static_cast<double>(rows.size()));

  // Set-up: an empty WAL directory, dbgen + durable store open, server
  // start. Repeated; the last server stays up for the load.
  std::string wal_dir = args.out_dir + "/wal-" + args.workload + "-" +
                        std::to_string(args.seed);
  std::unique_ptr<Server> server;
  TimedSetups(
      args.trace ? 1 : kSetupReps, args.trace ? 1 : kSetupBatch,
      [&] {
        server.reset();
        std::filesystem::remove_all(wal_dir);
        std::this_thread::sleep_for(kSetupPause);
      },
      [&] { server = StartServer(wal_dir); }, spans, report);
  sh.port = server->tcp->port();

  auto emit_writes = [&](const Load& l) {
    report->Metric("writes_per_s",
                   l.seconds > 0
                       ? static_cast<double>(l.writes_done) / l.seconds
                       : 0,
                   "1/s");
    report->Metric("write_p50_ms", Median(l.write_ms), "ms");
    report->Metric("write_p99_ms", Quantile(l.write_ms, kTailP), "ms");
  };

  if (!args.trace) {
    Load load;
    RunLoad(&sh, args.seconds, 0, &load);
    EmitWindowed(load, args.seconds, report);
    report->Info("write_samples", static_cast<double>(load.write_ms.size()));
    emit_writes(load);
  } else {
    SpanLog off(false);
    sh.spans = &off;
    Load untraced;
    RunLoad(&sh, args.seconds / 2, 0, &untraced);
    sh.spans = spans;
    x100::MetricsSnapshot before = x100::MetricsRegistry::Get().Snapshot();
    std::vector<uint64_t> wait_before = Buckets("server.wal.commit_wait_us");
    Load traced;
    RunLoad(&sh, args.seconds / 2, 1, &traced);
    x100::MetricsSnapshot after = x100::MetricsRegistry::Get().Snapshot();
    std::vector<uint64_t> wait_after = Buckets("server.wal.commit_wait_us");

    for (const auto& [q, v] : PerQueryMs(traced.queries)) {
      report->Metric("serve.q" + std::to_string(q) + "_ms", Median(v), "ms");
    }
    report->Metric("server.queue_ms.p50", Median(traced.queue_ms), "ms");
    report->Metric("server.queue_ms.p99", Quantile(traced.queue_ms, kTailP),
                   "ms");
    report->Metric("server.exec_ms.p50", Median(traced.exec_ms), "ms");
    report->Metric("server.exec_ms.p99", Quantile(traced.exec_ms, kTailP),
                   "ms");
    report->Metric("server.other_ms.p50", Median(traced.other_ms), "ms");
    report->Metric("client.first_batch_ms.p50", Median(traced.first_batch_ms),
                   "ms");
    report->Metric("wire.bytes_per_query",
                   traced.queries_done > 0
                       ? static_cast<double>(traced.result_bytes) /
                             static_cast<double>(traced.queries_done)
                       : 0,
                   "B");
    emit_writes(traced);
    double fsyncs =
        static_cast<double>(CounterDelta(before, after, "server.wal.fsyncs"));
    double appends =
        static_cast<double>(CounterDelta(before, after, "server.wal.appends"));
    double wal_bytes =
        static_cast<double>(CounterDelta(before, after, "server.wal.bytes"));
    report->Metric("wal.records_per_fsync", fsyncs > 0 ? appends / fsyncs : 0,
                   "records/fsync");
    report->Metric("wal.commit_wait_us.p50",
                   HistogramDeltaPercentile(wait_before, wait_after, 0.5),
                   "us");
    report->Metric("wal.bytes_per_user_byte",
                   traced.user_bytes > 0 ? wal_bytes / traced.user_bytes : 0,
                   "B/B");
    report->Metric("wal.merges",
                   static_cast<double>(
                       CounterDelta(before, after, "server.wal.merges")),
                   "count/run");
    std::map<std::string, double> ht;
    AddHashTableDeltas(before, after, &ht);
    EmitHashTable(ht, static_cast<double>(traced.queries_done), report);
    report->Metric("trace_overhead_ratio",
                   Median(LatenciesMs(traced.queries)) /
                       Median(LatenciesMs(untraced.queries)),
                   "ratio");
    report->Absent("exec.*",
                   "EXPLAIN ANALYZE trees of served queries stay inside the "
                   "server; the wire protocol does not return them");
    report->Absent("prim.*", "the profiler is not attached to served queries");
  }

  // Every acknowledged append must be visible, and nothing else.
  report->Attempt("count");
  std::string error;
  std::unique_ptr<x100::Client> c =
      x100::Client::Connect("127.0.0.1", sh.port, &error);
  int64_t count = c == nullptr ? -1 : CountLineitemRows(c.get(), &error);
  int64_t want = base_rows + sh.acked_appends.load();
  if (count != want) {
    report->Fail("count", "lineitem has " + std::to_string(count) +
                              " rows, want " + std::to_string(want) + " " +
                              error);
  }
  c.reset();
  report->Info("acked_appends", static_cast<double>(sh.acked_appends.load()));
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  server.reset();
  std::filesystem::remove_all(wal_dir);
}

}  // namespace perfbench
