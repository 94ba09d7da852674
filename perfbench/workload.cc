#include "workload.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/reorder.h"
#include "light.h"
#include "pattern/canonical.h"
#include "pattern/catalog.h"

namespace perfbench {
namespace {

using light::Status;

// plan-cold asks every connected 6-vertex shape with at least 9 of the 15
// possible edges and every 7-vertex shape with at least 16 of 21, each
// plain and induced: ~188 plan-cache keys against a 64-entry cache.
constexpr int kColdMinEdges6 = 9;
constexpr int kColdMinEdges7 = 16;

light::Pattern Catalog(const std::string& name) {
  light::Pattern p;
  LIGHT_CHECK(light::FindPattern(name, &p).ok());
  return p;
}

// The distinct (by canonical key) connected n-vertex shapes with at least
// `min_m` edges, each numbered as first drawn. Drawing stops once 1000 draws
// in a row found nothing new, which at these sizes leaves out a few of the
// rarest shapes. The draw does not depend on the workload seed, so every
// seed plans the same shapes under the same numbering (plan cost depends on
// it); the seed only orders the requests.
std::vector<light::Pattern> DenseShapes(int n, int min_m) {
  light::Rng rng(0x5eed'c01dULL + static_cast<uint64_t>(n));
  std::vector<std::pair<int, int>> all;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) all.emplace_back(u, v);
  }
  const int max_m = static_cast<int>(all.size());
  std::unordered_set<std::string> seen;
  std::vector<light::Pattern> shapes;
  for (int misses = 0; misses < 1000; ++misses) {
    std::vector<std::pair<int, int>> pairs = all;
    const int m = min_m + static_cast<int>(rng.NextBounded(max_m - min_m + 1));
    for (int i = 0; i < m; ++i) {  // partial Fisher-Yates
      const auto j = i + static_cast<int>(rng.NextBounded(max_m - i));
      std::swap(pairs[i], pairs[j]);
    }
    pairs.resize(m);
    light::Pattern p = light::Pattern::FromEdges(n, pairs);
    if (!p.IsConnected()) continue;
    if (!seen.insert(light::CanonicalPatternKey(p)).second) continue;
    shapes.push_back(std::move(p));
    misses = -1;
  }
  return shapes;
}

std::string EdgeString(const light::Pattern& p) {
  std::string out;
  for (const auto& [u, v] : p.Edges()) {
    if (!out.empty()) out += ',';
    out += std::to_string(u) + "-" + std::to_string(v);
  }
  return out;
}

}  // namespace

Status MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  const auto fixed = [&](std::vector<std::string> names, int threads) {
    for (const std::string& n : names) {
      Query q;
      q.name = n;
      q.pattern = Catalog(n);
      q.threads = threads;
      w.queries.push_back(std::move(q));
    }
  };
  if (name == "analytic") {
    // The lj_s shape: 50k vertices, average degree ~14. P4 and P5 are left
    // out: their cost swings with the seed (see METRICS.md), and P4's plan
    // quality is probed in the traced run.
    w.vertices = 50000;
    w.edges_per_vertex = 7;
    fixed({"triangle", "P2", "P3", "P7"}, 0);
    // Paged replay budget, below the ~3.1 MB adjacency section.
    w.pool_mb = 2;
  } else if (name == "serve-hot" || name == "plan-cold") {
    // yt_s x 0.02: 800 vertices, average degree ~6.
    w.vertices = 800;
    w.edges_per_vertex = 3;
    if (name == "serve-hot") {
      // P1 is left out for the same reason as P4 above (see METRICS.md).
      fixed({"triangle", "P2", "P3", "k4", "P7"}, 1);
    } else {
      w.random_order = true;
      std::vector<light::Pattern> shapes = DenseShapes(6, kColdMinEdges6);
      for (light::Pattern& p : DenseShapes(7, kColdMinEdges7)) {
        shapes.push_back(std::move(p));
      }
      for (size_t i = 0; i < shapes.size(); ++i) {
        for (bool induced : {false, true}) {
          Query q;
          q.name = "s" + std::to_string(i) + (induced ? "i" : "");
          q.pattern = shapes[i];
          q.induced = induced;
          q.threads = 1;
          w.queries.push_back(std::move(q));
        }
      }
    }
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  *out = std::move(w);
  return Status::OK();
}

light::Graph MakeGraph(const Workload& workload) {
  return light::RelabelByDegree(light::BarabasiAlbertClustered(
      workload.vertices, workload.edges_per_vertex, 0.4,
      workload.seed * 0x9e3779b97f4a7c15ULL + 1));
}

uint64_t FloorTriangles(const light::Graph& graph) {
  uint64_t count = 0;
  for (light::VertexID v = 0; v < graph.NumVertices(); ++v) {
    const auto nv = graph.Neighbors(v);
    for (auto it = std::upper_bound(nv.begin(), nv.end(), v); it != nv.end();
         ++it) {
      const light::VertexID u = *it;
      const auto nu = graph.Neighbors(u);
      // Count w > u in N(v) and N(u).
      auto a = std::upper_bound(it, nv.end(), u);
      auto b = std::upper_bound(nu.begin(), nu.end(), u);
      while (a != nv.end() && b != nu.end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          ++count;
          ++a;
          ++b;
        }
      }
    }
  }
  return count;
}

Status ComputeReference(const light::Graph& graph, std::vector<Query>* queries) {
  std::atomic<size_t> next{0};
  std::vector<std::string> errors(queries->size());
  const auto worker = [&] {
    for (size_t i = next++; i < queries->size(); i = next++) {
      Query& q = (*queries)[i];
      if (q.name == "triangle") {
        q.expected = FloorTriangles(graph);
        continue;
      }
      light::RunOptions opts;
      opts.threads = 1;
      opts.plan_options.kernel = light::IntersectKernel::kMerge;
      opts.plan_options.auto_kernel = false;
      opts.plan_options.bitmap_min_degree = light::kBitmapDegreeNever;
      opts.plan_options.induced = q.induced;
      const light::RunResult r = light::Run(graph, q.pattern, opts);
      if (!r.ok() || r.timed_out) {
        errors[i] = q.name + ": " + (r.ok() ? "timed out" : r.error);
      }
      q.expected = r.num_matches;
    }
  };
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) return Status::Internal("reference count failed: " + e);
  }
  return Status::OK();
}

Status WriteManifest(const std::string& dir, const Workload& w) {
  std::ofstream meta(dir + "/workload.txt");
  meta << "name=" << w.name << "\nseed=" << w.seed
       << "\nvertices=" << w.vertices
       << "\nedges_per_vertex=" << w.edges_per_vertex
       << "\npool_mb=" << w.pool_mb
       << "\nrandom_order=" << (w.random_order ? 1 : 0)
       << "\ntriangles=" << w.triangles << "\n";
  std::ofstream tsv(dir + "/queries.tsv");
  for (const Query& q : w.queries) {
    tsv << q.name << '\t' << q.pattern.NumVertices() << '\t'
        << EdgeString(q.pattern) << '\t' << (q.induced ? 1 : 0) << '\t'
        << q.threads << '\t' << q.expected << '\n';
  }
  meta.close();
  tsv.close();
  if (!meta || !tsv) return Status::IOError("cannot write manifest in " + dir);
  return Status::OK();
}

Status ReadManifest(const std::string& dir, Workload* out) {
  Workload w;
  std::ifstream meta(dir + "/workload.txt");
  std::ifstream tsv(dir + "/queries.tsv");
  if (!meta || !tsv) return Status::IOError("no manifest in " + dir);
  std::string line;
  while (std::getline(meta, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "name") w.name = value;
    if (key == "seed") w.seed = std::stoull(value);
    if (key == "vertices") w.vertices = std::stoul(value);
    if (key == "edges_per_vertex") w.edges_per_vertex = std::stoul(value);
    if (key == "pool_mb") w.pool_mb = std::stod(value);
    if (key == "random_order") w.random_order = value == "1";
    if (key == "triangles") w.triangles = std::stoull(value);
  }
  while (std::getline(tsv, line)) {
    std::istringstream fields(line);
    Query q;
    int n = 0;
    int induced = 0;
    std::string edges;
    fields >> q.name >> n >> edges >> induced >> q.threads >> q.expected;
    if (!fields) return Status::InvalidArgument("bad query line: " + line);
    std::vector<std::pair<int, int>> pairs;
    std::istringstream edge_stream(edges);
    std::string edge;
    while (std::getline(edge_stream, edge, ',')) {
      const size_t dash = edge.find('-');
      pairs.emplace_back(std::stoi(edge.substr(0, dash)),
                         std::stoi(edge.substr(dash + 1)));
    }
    q.pattern = light::Pattern::FromEdges(n, pairs);
    q.induced = induced != 0;
    w.queries.push_back(std::move(q));
  }
  if (w.queries.empty()) return Status::InvalidArgument("no queries in " + dir);
  *out = std::move(w);
  return Status::OK();
}

std::vector<uint32_t> WireEdges(const light::Pattern& pattern) {
  std::vector<uint32_t> edges;
  for (const auto& [u, v] : pattern.Edges()) {
    edges.push_back(static_cast<uint32_t>(u));
    edges.push_back(static_cast<uint32_t>(v));
  }
  return edges;
}

}  // namespace perfbench
