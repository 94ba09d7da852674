#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The traced run: replays a workload in one process and times each call
// into a layer's public functions from outside the layer. Spans are kept in
// memory and written out when the run ends; run.py turns them into the
// per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "driver.h"

namespace perfbench {

struct TraceOptions {
  std::string dir;  // holds the gen output
  std::string out;  // JSON: spans and layer counters
  uint64_t seed = 0;
  /// Schedule of each served replay (the replay runs twice: spans off,
  /// then spans on). The traced replay's records go to `dir`/traced.tsv.
  std::vector<Phase> phases;
};

light::Status Trace(const TraceOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
