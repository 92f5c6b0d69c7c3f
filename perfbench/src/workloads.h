#ifndef X100_PERFBENCH_WORKLOADS_H_
#define X100_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each sets itself up, runs for args.seconds,
// checks every answer into `report`, and records spans when traced.

#include "common.h"

namespace perfbench {

void RunOlapRam(const Args& args, SpanLog* spans, Report* report);
void RunOlapDisk(const Args& args, SpanLog* spans, Report* report);
void RunServeMixed(const Args& args, SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // X100_PERFBENCH_WORKLOADS_H_
