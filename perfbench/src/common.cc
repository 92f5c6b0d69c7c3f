#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "common/json.h"
#include "common/profiling.h"

namespace perfbench {

using x100::JsonWriter;

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Absent(const std::string& name, const std::string& reason) {
  absent_[name] = reason;
}

void Report::Info(const std::string& key, double value) {
  JsonWriter w;
  w.Value(value);
  info_[key] = w.str();
}

void Report::Info(const std::string& key, const std::string& value) {
  JsonWriter w;
  w.Value(value);
  info_[key] = w.str();
}

void Report::Attempt(const std::string& kind) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  attempted_[kind]++;
}

void Report::Fail(const std::string& kind, const std::string& why) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  failed_[kind]++;
  std::cerr << "[perfbench] FAILED " << kind << ": " << why << "\n";
  if (failures_.size() < 20) failures_.push_back(kind + ": " + why);
}

int64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(ops_mu_);
  int64_t n = 0;
  for (const auto& [kind, c] : attempted_) n += c;
  return n;
}

int64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(ops_mu_);
  int64_t n = 0;
  for (const auto& [kind, c] : failed_) n += c;
  return n;
}

std::string Report::ToJson() const {
  int64_t total_attempted = attempted(), total_failed = failed();
  std::lock_guard<std::mutex> lock(ops_mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Value(total_failed == 0 && total_attempted > 0);
  w.Key("attempted");
  w.Value(total_attempted);
  w.Key("failed");
  w.Value(total_failed);
  w.Key("by_kind");
  w.BeginObject();
  for (const auto& [kind, n] : attempted_) {
    auto it = failed_.find(kind);
    w.Key(kind);
    w.BeginObject();
    w.Key("attempted");
    w.Value(n);
    w.Key("failed");
    w.Value(it == failed_.end() ? int64_t{0} : it->second);
    w.EndObject();
  }
  w.EndObject();
  w.Key("failures");
  w.BeginArray();
  for (const std::string& f : failures_) w.Value(f);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, m] : metrics_) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Value(m.value);
    w.Key("unit");
    w.Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.Key("absent");
  w.BeginObject();
  for (const auto& [name, why] : absent_) {
    w.Key(name);
    w.Value(why);
  }
  w.EndObject();
  w.Key("info");
  w.BeginObject();
  for (const auto& [key, json] : info_) {
    w.Key(key);
    w.Raw(json);
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

int64_t SpanLog::Add(const std::string& name, uint64_t start_ns,
                     uint64_t end_ns, int64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size());
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("id");
    w.Value(static_cast<int64_t>(i + 1));
    w.Key("name");
    w.Value(s.name);
    w.Key("start_ns");
    w.Value(s.start_ns);
    w.Key("end_ns");
    w.Value(s.end_ns);
    w.Key("parent");
    w.Value(s.parent);
    w.Key("request");
    w.Value(s.request);
    w.EndObject();
  }
  w.EndArray();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(w.str().data(), 1, w.str().size(), f) ==
            w.str().size();
  return std::fclose(f) == 0 && ok;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

int64_t SamplesBeyond(const std::vector<double>& v, double p) {
  double q = Quantile(v, p);
  return std::count_if(v.begin(), v.end(), [q](double x) { return x > q; });
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double GeomeanOfMedians(const std::map<int, std::vector<double>>& per_query) {
  std::vector<double> medians;
  for (const auto& [q, v] : per_query) medians.push_back(Median(v));
  return Geomean(medians);
}

uint64_t Now() { return x100::NowNanos(); }

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::vector<int> Shuffled(std::vector<int> items, x100::Rng* rng) {
  for (size_t i = items.size(); i > 1; i--) {
    size_t j = rng->Next() % i;
    std::swap(items[i - 1], items[j]);
  }
  return items;
}

uint64_t CounterDelta(const x100::MetricsSnapshot& before,
                      const x100::MetricsSnapshot& after,
                      const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

uint64_t CounterDeltaSum(const x100::MetricsSnapshot& before,
                         const x100::MetricsSnapshot& after,
                         const std::string& prefix,
                         const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [name, v] : after.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += CounterDelta(before, after, name);
    }
  }
  return sum;
}

void AddHashTableDeltas(const x100::MetricsSnapshot& before,
                        const x100::MetricsSnapshot& after,
                        std::map<std::string, double>* out) {
  for (const char* c : {"probes", "slot_scans", "key_rejects", "grows"}) {
    (*out)[c] = static_cast<double>(
        CounterDeltaSum(before, after, "ht.", std::string(".") + c));
  }
  (*out)["rehashes"] =
      static_cast<double>(CounterDelta(before, after, "aggr.hash.rehashes"));
}

void EmitHashTable(const std::map<std::string, double>& counts,
                   double queries, Report* report) {
  auto get = [&](const char* k) {
    auto it = counts.find(k);
    return it == counts.end() ? 0.0 : it->second;
  };
  double probes = get("probes");
  report->Metric("ht.slot_scans_per_probe",
                 probes > 0 ? get("slot_scans") / probes : 0, "slots/probe");
  report->Metric("ht.key_rejects_per_probe",
                 probes > 0 ? get("key_rejects") / probes : 0,
                 "rejects/probe");
  report->Metric("ht.grows", queries > 0 ? get("grows") / queries : 0,
                 "count/query");
  report->Metric("aggr.rehashes", queries > 0 ? get("rehashes") / queries : 0,
                 "count/query");
}

void TimedSetups(int reps, int batch, const std::function<void()>& teardown,
                 const std::function<void()>& setup, SpanLog* spans,
                 Report* report) {
  std::vector<double> secs;
  for (int i = 0; i < reps; i++) {
    uint64_t total = 0;
    for (int j = 0; j < batch; j++) {
      teardown();
      uint64_t t0 = Now();
      setup();
      uint64_t t1 = Now();
      spans->Add("setup", t0, t1, 0, static_cast<uint64_t>(i * batch + j));
      total += t1 - t0;
    }
    secs.push_back(static_cast<double>(total) / batch / 1e9);
  }
  report->Metric("setup_s", Median(secs), "s");
  report->Info("setup_reps", static_cast<double>(reps));
  report->Info("setup_batch", static_cast<double>(batch));
}

namespace {

void Fnv(uint64_t* h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

}  // namespace

uint64_t TableHash(const x100::Table& t) {
  uint64_t h = 1469598103934665603ull;
  int64_t shape[2] = {t.num_rows(), t.num_columns()};
  Fnv(&h, shape, sizeof(shape));
  for (int64_t r = 0; r < t.num_rows(); r++) {
    for (int c = 0; c < t.num_columns(); c++) {
      x100::Value v = t.GetValue(r, c);
      if (v.type() == x100::TypeId::kStr) {
        const std::string& s = v.AsStr();
        uint32_t len = static_cast<uint32_t>(s.size());
        Fnv(&h, &len, sizeof(len));
        Fnv(&h, s.data(), s.size());
      } else if (v.type() == x100::TypeId::kF64) {
        double d = v.AsF64();
        Fnv(&h, &d, sizeof(d));
      } else {
        int64_t i = v.AsI64();
        Fnv(&h, &i, sizeof(i));
      }
    }
  }
  return h;
}

bool TablesMatch(const x100::Table& a, const x100::Table& b, double eps,
                 std::string* why) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    *why = "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" + std::to_string(b.num_columns());
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); r++) {
    for (int c = 0; c < a.num_columns(); c++) {
      x100::Value va = a.GetValue(r, c);
      x100::Value vb = b.GetValue(r, c);
      bool same;
      if (va.type() == x100::TypeId::kStr || vb.type() == x100::TypeId::kStr) {
        same = va.type() == vb.type() && va.AsStr() == vb.AsStr();
      } else if (va.type() == x100::TypeId::kF64 ||
                 vb.type() == x100::TypeId::kF64) {
        double x = va.AsF64(), y = vb.AsF64();
        same = std::fabs(x - y) <=
               eps * std::max({1.0, std::fabs(x), std::fabs(y)});
      } else {
        same = va.AsI64() == vb.AsI64();
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + va.ToString() + " vs " + vb.ToString();
        return false;
      }
    }
  }
  return true;
}

void StreamHash::Mix(const void* data, size_t n) { Fnv(&h, data, n); }

void StreamHash::Add(const x100::BatchMsg& b) {
  rows += b.num_rows;
  for (const x100::BatchMsg::Col& c : b.cols) {
    Mix(c.fixed.data(), c.fixed.size());
    bytes += static_cast<int64_t>(c.fixed.size());
    for (const std::string& s : c.strs) {
      uint32_t len = static_cast<uint32_t>(s.size());
      Mix(&len, sizeof(len));
      Mix(s.data(), s.size());
      bytes += static_cast<int64_t>(sizeof(len) + s.size());
    }
  }
}

uint64_t WireReferenceHash(const x100::Table& t, int vector_size) {
  StreamHash sh;
  for (int64_t begin = 0; begin < t.num_rows(); begin += vector_size) {
    int64_t end = std::min<int64_t>(begin + vector_size, t.num_rows());
    std::vector<uint8_t> payload = x100::EncodeBatch(1, t, begin, end);
    x100::BatchMsg b;
    std::string err;
    if (!x100::DecodeBatch(payload, &b, &err)) {
      throw std::runtime_error("reference batch re-decode failed: " + err);
    }
    sh.Add(b);
  }
  return sh.h;
}

}  // namespace perfbench
