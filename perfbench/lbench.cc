// lbench: the benchmark's generator, load client and traced replay. Driven
// by perfbench/run.py; each subcommand also runs on its own:
//
//   lbench gen   --workload NAME --seed N --dir DIR
//       writes DIR/graph.lcsr2, DIR/workload.txt and DIR/queries.tsv with
//       the reference count of every distinct query
//   lbench setup --dir DIR --repeats K --out FILE -- SERVER-COMMAND...
//       K times: spawns the light_server command line (which must listen on
//       --port 0), times it to its first correct answer and stops it;
//       writes "seconds<TAB>ok" per set-up to FILE
//   lbench drive --dir DIR --port P --phases PHASE[,PHASE...] --seed N
//                --out FILE
//       replays the workload against a light_server and writes one record
//       per request to FILE. PHASE is RATE:SEC (open loop at RATE/s),
//       cW:SEC (closed loop, W requests outstanding) or warm (each
//       distinct query once, one at a time)
//   lbench trace --dir DIR --phases ... --seed N --out FILE
//       the traced in-process replay; writes spans and layer counters as
//       JSON to FILE and the replays' records to DIR

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver.h"
#include "graph/graph_io.h"
#include "trace.h"
#include "workload.h"

namespace {

using light::Status;

// The value of flag `name` among argv[2..], up to a "--" if there is one.
const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 2; i + 1 < argc && std::strcmp(argv[i], "--") != 0; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  std::fprintf(stderr, "lbench %s: missing %s\n", argv[1], name);
  std::exit(2);
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

int Fail(const Status& s) {
  std::fprintf(stderr, "lbench: %s\n", s.ToString().c_str());
  return 1;
}

int Gen(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const std::string dir = Flag(argc, argv, "--dir");
  perfbench::Workload w;
  if (Status s = perfbench::MakeWorkload(
          Flag(argc, argv, "--workload"),
          std::strtoull(Flag(argc, argv, "--seed"), nullptr, 10), &w);
      !s.ok()) {
    return Fail(s);
  }
  const light::Graph graph = perfbench::MakeGraph(w);
  if (Status s = light::SaveStoreFile(graph, dir + "/graph.lcsr2"); !s.ok()) {
    return Fail(s);
  }
  w.triangles = perfbench::FloorTriangles(graph);
  if (Status s = perfbench::ComputeReference(graph, &w.queries); !s.ok()) {
    return Fail(s);
  }
  if (Status s = perfbench::WriteManifest(dir, w); !s.ok()) return Fail(s);
  std::fprintf(stderr,
               "gen: %s seed=%llu %u vertices %llu edges %zu queries %.2fs\n",
               w.name.c_str(), static_cast<unsigned long long>(w.seed),
               graph.NumVertices(),
               static_cast<unsigned long long>(graph.NumEdges()),
               w.queries.size(), Seconds(start));
  return 0;
}

int Drive(int argc, char** argv) {
  perfbench::Workload w;
  if (Status s = perfbench::ReadManifest(Flag(argc, argv, "--dir"), &w);
      !s.ok()) {
    return Fail(s);
  }
  perfbench::DriveOptions options;
  options.port = std::atoi(Flag(argc, argv, "--port"));
  options.seed = std::strtoull(Flag(argc, argv, "--seed"), nullptr, 10);
  if (Status s = perfbench::ParsePhases(Flag(argc, argv, "--phases"),
                                        &options.phases);
      !s.ok()) {
    return Fail(s);
  }
  std::vector<perfbench::Record> records;
  if (Status s = perfbench::Drive(w, options, &records); !s.ok()) {
    return Fail(s);
  }
  if (Status s = perfbench::WriteRecords(Flag(argc, argv, "--out"), records);
      !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int SetUp(int argc, char** argv) {
  perfbench::Workload w;
  if (Status s = perfbench::ReadManifest(Flag(argc, argv, "--dir"), &w);
      !s.ok()) {
    return Fail(s);
  }
  std::vector<std::string> server;
  for (int i = 2; i < argc && server.empty(); ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      server.assign(argv + i + 1, argv + argc);
    }
  }
  if (server.empty()) {
    std::fprintf(stderr, "lbench setup: missing -- SERVER-COMMAND\n");
    return 2;
  }
  const int repeats = std::atoi(Flag(argc, argv, "--repeats"));
  const std::string out = Flag(argc, argv, "--out");
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) return Fail(Status::IOError("cannot write " + out));
  for (int i = 0; i < repeats; ++i) {
    double seconds = 0;
    bool ok = false;
    if (Status s = perfbench::TimeSetUp(w, server, &seconds, &ok); !s.ok()) {
      std::fclose(f);
      return Fail(s);
    }
    std::fprintf(f, "%.9f\t%d\n", seconds, ok ? 1 : 0);
  }
  return std::fclose(f) == 0 ? 0
                             : Fail(Status::IOError("cannot write " + out));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") return Gen(argc, argv);
  if (cmd == "setup") return SetUp(argc, argv);
  if (cmd == "drive") return Drive(argc, argv);
  if (cmd == "trace") {
    perfbench::TraceOptions options;
    options.dir = Flag(argc, argv, "--dir");
    options.out = Flag(argc, argv, "--out");
    options.seed = std::strtoull(Flag(argc, argv, "--seed"), nullptr, 10);
    if (Status s = perfbench::ParsePhases(Flag(argc, argv, "--phases"),
                                          &options.phases);
        !s.ok()) {
      return Fail(s);
    }
    const Status s = perfbench::Trace(options);
    return s.ok() ? 0 : Fail(s);
  }
  std::fprintf(stderr,
               "usage: lbench gen|setup|drive|trace ... (see lbench.cc)\n");
  return 2;
}
