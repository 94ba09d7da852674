#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Benchmark workloads: the data graph and the distinct queries of each
// workload, both derived from the workload seed, plus the reference counts
// every served response is checked against.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "pattern/pattern.h"

namespace perfbench {

struct Query {
  std::string name;  // catalog name, or "s<i>" / "s<i>i" for drawn shapes
  light::Pattern pattern;
  bool induced = false;
  int threads = 0;  // per-query worker cap sent on the wire; 0 = whole pool
  uint64_t expected = 0;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  // Graph shape: BarabasiAlbertClustered(vertices, edges_per_vertex, 0.4).
  light::VertexID vertices = 0;
  uint32_t edges_per_vertex = 0;
  // The server maps the snapshot (mmap mode). The traced run also counts
  // triangle and P2 through a paged store: a pool of pool_mb MiB, below the
  // adjacency section's size, when set; else the default pool.
  double pool_mb = 0;
  // Request order: false cycles through `queries` in order; true draws
  // each request uniformly from `queries` with the seed.
  bool random_order = false;
  std::vector<Query> queries;
  uint64_t triangles = 0;  // the graph's triangle count (set-up probe)
};

/// Fills the workload's parameters and its distinct queries (expected
/// counts left 0). The graph seed depends on `seed` only, so workloads that
/// share a graph shape share the graph for one seed.
light::Status MakeWorkload(const std::string& name, uint64_t seed,
                           Workload* out);

/// The workload graph: the public generator plus RelabelByDegree.
light::Graph MakeGraph(const Workload& workload);

/// Hand-written oriented-merge triangle count over a degree-ordered graph:
/// the engine's floor and the triangle reference.
uint64_t FloorTriangles(const light::Graph& graph);

/// Fills Query::expected for every query: FloorTriangles for the triangle,
/// serial light::Run with the scalar Merge kernel and no bitmap index for
/// the rest. This reference shares the engine with the server, so it
/// catches wire, parallel and storage faults, not engine logic faults.
light::Status ComputeReference(const light::Graph& graph,
                               std::vector<Query>* queries);

/// Writes / reads `dir`/workload.txt (key=value) and `dir`/queries.tsv.
light::Status WriteManifest(const std::string& dir, const Workload& workload);
light::Status ReadManifest(const std::string& dir, Workload* out);

/// Flattened pattern edge list (u0 v0 u1 v1 ...) as sent on the wire.
std::vector<uint32_t> WireEdges(const light::Pattern& pattern);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
