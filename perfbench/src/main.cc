// Benchmark binary: runs one workload and prints the run's report
// as one JSON line on stdout (progress goes to stderr). perfbench/run.py
// builds this binary, calls it, and turns the report into the benchmark
// result.
//
//   x100_perfbench --workload olap-ram|olap-disk|serve-mixed --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Milliseconds a fixed integer loop takes: recorded before and after the
/// workload so a run's figures can be read against the speed the shared
/// host gave it. Not a metric of the engine.
double HostProbeMs() {
  uint64_t t0 = Now();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000'000; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(Now() - t0) / 1e6;
}

int Usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload olap-ram|olap-disk|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0, why, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0], "missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return Usage(argv[0], "bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(args.seconds > 0)) {
        return Usage(argv[0], "bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage(argv[0], "--trace takes 0 or 1");
      }
      args.trace = v[0] == '1';
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      return Usage(argv[0], "unknown flag");
    }
  }
  void (*run)(const Args&, SpanLog*, Report*) = nullptr;
  if (args.workload == "olap-ram") {
    run = RunOlapRam;
  } else if (args.workload == "olap-disk") {
    run = RunOlapDisk;
  } else if (args.workload == "serve-mixed") {
    run = RunServeMixed;
  } else {
    return Usage(argv[0], "unknown --workload");
  }
  std::filesystem::create_directories(args.out_dir);

  Report report;
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? 1.0 : 0.0);
  SpanLog spans(args.trace);
  report.Info("host_probe_ms_before", HostProbeMs());
  try {
    run(args, &spans, &report);
  } catch (const std::exception& e) {
    report.Attempt("run");
    report.Fail("run", e.what());
  }
  report.Info("host_probe_ms_after", HostProbeMs());
  if (spans.enabled()) {
    std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
      return 1;
    }
    report.Info("spans_file", path);
  }
  std::cout << report.ToJson() << std::endl;
  return report.correct() ? 0 : 1;
}
