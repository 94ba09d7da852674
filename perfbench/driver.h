#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

// The benchmark's load generator: one thread and four sockets (nproc of
// the 4-core host it targets), speaking net/wire.h to a light_server.
// Every request is timed from its due time, and every response is checked
// against the query's reference count.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace perfbench {

/// One stretch of the schedule. warm: each distinct query once, one at a
/// time, in order. Otherwise window == 0: open loop, requests due every
/// 1/rate seconds whether or not earlier ones were answered; window > 0:
/// closed loop, `window` requests outstanding, each next one due when an
/// earlier one is answered.
struct Phase {
  bool warm = false;
  double rate = 0;
  int window = 0;
  double seconds = 0;
};

/// A timed interval kept in memory by the benchmark (never by the program
/// under test). `parent` is the id of the span that caused it, 0 for none.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

struct DriveOptions {
  int port = 0;  // on 127.0.0.1
  std::vector<Phase> phases;
  /// Seeds the request order of random-order workloads.
  uint64_t seed = 0;
  /// When set, every answered request appends a "net.request" span (send
  /// to receive, server lifecycle fields as attributes) as it arrives.
  std::vector<Span>* spans = nullptr;
};

enum class Outcome : int { kOk = 0, kWrongCount = 1, kError = 2, kLost = 3 };

/// One request. Times are nanoseconds since the schedule's start.
struct Record {
  uint32_t query = 0;
  uint32_t phase = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  Outcome outcome = Outcome::kLost;
  uint64_t matches = 0;
  // Server-side lifecycle from the response (light.response.v1).
  uint64_t plan_ns = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t execute_ns = 0;
  uint64_t total_ns = 0;
  bool plan_cache_hit = false;
};

/// Parses "warm", "RATE:SECONDS" (open) and "cWINDOW:SECONDS" (closed)
/// items, comma separated.
light::Status ParsePhases(const std::string& text, std::vector<Phase>* out);

/// Runs the schedule against the server and returns one record per request
/// sent. Fails only when the connection cannot be made or breaks.
light::Status Drive(const Workload& workload, const DriveOptions& options,
                    std::vector<Record>* records);

/// Set-up time of `server_argv` (a light_server command line with
/// --port 0): from spawning it to the first correct answer to a triangle
/// count (the workload's first query's thread cap), sent as a one-request
/// warm phase. The server is
/// stopped and waited for before this returns; *ok is false when the
/// answer was missing or wrong.
light::Status TimeSetUp(const Workload& workload,
                        const std::vector<std::string>& server_argv,
                        double* seconds, bool* ok);

/// Tab-separated, one record per line, fields in Record order.
light::Status WriteRecords(const std::string& path,
                           const std::vector<Record>& records);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
