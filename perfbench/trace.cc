#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "analysis/plan_linter.h"
#include "common/rng.h"
#include "light.h"
#include "net/server.h"

namespace perfbench {
namespace {

using light::GraphStore;
using light::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Probe spans live above the request-span id range (request index + 1).
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans) : spans_(spans) {}

  /// Opens a span; returns its index for End().
  size_t Begin(std::string name, uint64_t parent) {
    Span s;
    s.name = std::move(name);
    s.id = next_id_++;
    s.parent = parent;
    s.start_ns = NowNs();
    spans_->push_back(std::move(s));
    return spans_->size() - 1;
  }

  /// Closes the span and returns it for attributes.
  Span& End(size_t index) {
    Span& s = (*spans_)[index];
    s.end_ns = NowNs();
    return s;
  }

  uint64_t Id(size_t index) const { return (*spans_)[index].id; }

 private:
  std::vector<Span>* spans_;
  uint64_t next_id_ = uint64_t{1} << 40;
};

// At most `cap` query indices, evenly spread over the workload's queries.
std::vector<size_t> ProbeSet(const Workload& w, size_t cap) {
  std::vector<size_t> out;
  const size_t n = w.queries.size();
  const size_t take = std::min(n, cap);
  for (size_t i = 0; i < take; ++i) out.push_back(i * n / take);
  return out;
}

light::RunOptions ServedOptions(const Query& q, int threads) {
  // What net::Server builds from a request with these fields.
  light::RunOptions opts;
  opts.threads = threads;
  opts.plan_options.induced = q.induced;
  return opts;
}

void WriteJson(std::FILE* f, const std::vector<Span>& spans,
               const std::vector<std::pair<std::string, double>>& counters,
               const Workload& w) {
  std::fprintf(f, "{\"workload\": \"%s\", \"counters\": {", w.name.c_str());
  for (size_t i = 0; i < counters.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "", counters[i].first.c_str(),
                 counters[i].second);
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"attrs\": {",
                 i ? ",\n" : "", s.name.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (size_t a = 0; a < s.attrs.size(); ++a) {
      std::fprintf(f, "%s\"%s\": %.17g", a ? ", " : "",
                   s.attrs[a].first.c_str(), s.attrs[a].second);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
}

}  // namespace

Status Trace(const TraceOptions& o) {
  Workload w;
  LIGHT_RETURN_IF_ERROR(ReadManifest(o.dir, &w));
  const std::string path = o.dir + "/graph.lcsr2";
  std::vector<Span> spans;
  Tracer t(&spans);
  const size_t root = t.Begin("bench.trace", 0);
  const uint64_t root_id = t.Id(root);
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  const auto check = [&](const Query& q, uint64_t count) {
    ++probes;
    if (count != q.expected) {
      ++probe_failures;
      std::fprintf(stderr, "trace: %s counted %llu, expected %llu\n",
                   q.name.c_str(), static_cast<unsigned long long>(count),
                   static_cast<unsigned long long>(q.expected));
    }
  };

  // storage: GraphStore::Open in every mode, then the served (mmap) store.
  GraphStore::OpenOptions mode_options;
  mode_options.pool_bytes =
      static_cast<size_t>((w.pool_mb > 0 ? w.pool_mb : 2) * 1048576.0);
  for (const GraphStore::Mode mode :
       {GraphStore::Mode::kHeap, GraphStore::Mode::kMmap,
        GraphStore::Mode::kPaged}) {
    mode_options.mode = mode;
    for (int rep = 0; rep < 5; ++rep) {
      std::shared_ptr<const GraphStore> probe;
      const size_t s = t.Begin("storage.open", root_id);
      LIGHT_RETURN_IF_ERROR(GraphStore::Open(path, mode_options, &probe));
      t.End(s).attrs = {{"mode", static_cast<double>(mode)},
                        {"served",
                         mode == GraphStore::Mode::kMmap ? 1.0 : 0.0}};
    }
  }
  mode_options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  LIGHT_RETURN_IF_ERROR(GraphStore::Open(path, mode_options, &store));
  // Plan, floor and intersection probes need resident adjacency.
  std::shared_ptr<const GraphStore> resident = store;
  if (store->graph() == nullptr) {
    GraphStore::OpenOptions heap;
    heap.mode = GraphStore::Mode::kHeap;
    LIGHT_RETURN_IF_ERROR(GraphStore::Open(path, heap, &resident));
  }
  const light::Graph& graph = *resident->graph();

  // graph: the set-up a Session does before its first query.
  size_t s = t.Begin("graph.stats", root_id);
  const light::GraphStats stats =
      light::ComputeGraphStats(store->view(), /*count_triangles=*/true);
  t.End(s);
  const light::PlanOptions defaults;
  light::BitmapIndexOptions bitmap_options;
  bitmap_options.min_degree =
      light::EffectiveBitmapThreshold(defaults, store->NumVertices());
  bitmap_options.max_bytes = defaults.bitmap_max_bytes;
  s = t.Begin("graph.bitmap_build", root_id);
  const std::shared_ptr<const light::BitmapIndex> bitmap =
      store->SharedBitmap(bitmap_options);
  t.End(s).attrs = {{"bytes", static_cast<double>(bitmap->MemoryBytes())}};

  // plan + analysis: BuildRunPlan and LintPlan per distinct query.
  const std::vector<size_t> plan_probes = ProbeSet(w, 64);
  std::vector<light::ExecutionPlan> plans;
  for (size_t qi : plan_probes) {
    const Query& q = w.queries[qi];
    s = t.Begin("plan.build", root_id);
    plans.push_back(light::BuildRunPlan(graph, stats, q.pattern,
                                        ServedOptions(q, q.threads)));
    t.End(s).attrs = {{"query", static_cast<double>(qi)}};
    light::analysis::LintOptions lint_options;
    lint_options.cardinality = light::analysis::AnalyticCardinalityFn(stats);
    s = t.Begin("analysis.lint", root_id);
    const light::analysis::LintReport report =
        light::analysis::LintPlan(q.pattern, plans.back(), lint_options);
    t.End(s).attrs = {{"query", static_cast<double>(qi)},
                      {"ok", report.ok() ? 1.0 : 0.0}};
    if (!report.ok()) return Status::Internal("lint failed for " + q.name);
  }

  // engine: serial Enumerator on the workload's store, best kernel.
  const size_t engine_probes = std::min<size_t>(plan_probes.size(), 16);
  for (size_t i = 0; i < engine_probes; ++i) {
    const Query& q = w.queries[plan_probes[i]];
    light::Enumerator e(store->view(), plans[i]);
    e.SetBitmapIndex(bitmap.get());
    s = t.Begin("engine.serial", root_id);
    const uint64_t count = e.Count();
    Span& span = t.End(s);
    const light::EngineStats& es = e.stats();
    const light::IntersectStats& is = es.intersections;
    span.attrs = {
        {"query", static_cast<double>(plan_probes[i])},
        {"partial_results", static_cast<double>(es.num_partial_results)},
        {"intersections", static_cast<double>(is.num_intersections)},
        {"galloping", static_cast<double>(is.num_galloping)},
        {"bitmap", static_cast<double>(is.num_bitmap_and + is.num_bitmap_probe)},
        {"candidate_bytes", static_cast<double>(es.candidate_memory_bytes)}};
    check(q, count);
  }

  // engine vs floor: triangle through the engine and through the
  // hand-written loop, alternating, on resident adjacency.
  Query triangle;
  triangle.name = "triangle";
  LIGHT_CHECK(light::FindPattern("triangle", &triangle.pattern).ok());
  triangle.expected = FloorTriangles(graph);
  const light::ExecutionPlan triangle_plan = light::BuildRunPlan(
      graph, stats, triangle.pattern, ServedOptions(triangle, 1));
  const int64_t floor_until = NowNs() + 300'000'000;
  for (int rep = 0; rep < 3 || (rep < 200 && NowNs() < floor_until); ++rep) {
    light::Enumerator e(graph, triangle_plan);
    e.SetBitmapIndex(bitmap.get());
    s = t.Begin("engine.triangle", root_id);
    const uint64_t engine_count = e.Count();
    t.End(s);
    s = t.Begin("engine.floor", root_id);
    const uint64_t floor_count = FloorTriangles(graph);
    t.End(s);
    check(triangle, engine_count);
    check(triangle, floor_count);
  }

  // plan quality: work the optimizer's P4 plan does per match. The order
  // it picks varies with the graph, and with it the cost, by up to 12x.
  {
    light::Pattern p4;
    LIGHT_CHECK(light::FindPattern("P4", &p4).ok());
    const light::ExecutionPlan plan =
        light::BuildRunPlan(graph, stats, p4, light::RunOptions());
    light::ParallelOptions parallel;
    parallel.num_threads = 4;
    s = t.Begin("plan.p4_probe", root_id);
    const light::ParallelResult r =
        light::ParallelCount(graph, plan, parallel, nullptr, bitmap.get());
    t.End(s).attrs = {
        {"matches", static_cast<double>(r.num_matches)},
        {"intersections",
         static_cast<double>(r.stats.intersections.num_intersections)}};
  }

  // intersect: sampled adjacency pairs through IntersectSorted.
  {
    light::Rng rng(o.seed ^ 0x1e7e'25ecULL);
    std::vector<std::pair<light::VertexID, light::VertexID>> pairs;
    while (pairs.size() < 4096 && graph.NumEdges() > 0) {
      const auto u = static_cast<light::VertexID>(
          rng.NextBounded(graph.NumVertices()));
      const auto nu = graph.Neighbors(u);
      if (nu.empty()) continue;
      pairs.emplace_back(u, nu[rng.NextBounded(nu.size())]);
    }
    std::vector<light::VertexID> out(graph.MaxDegree() + 1);
    const light::IntersectKernel kernel = light::BestAvailableKernel();
    uint64_t calls = 0;
    uint64_t sink = 0;
    s = t.Begin("intersect.replay", root_id);
    const int64_t until = NowNs() + 100'000'000;
    do {
      for (const auto& [u, v] : pairs) {
        sink += light::IntersectSorted(graph.Neighbors(u), graph.Neighbors(v),
                                       out.data(), kernel);
      }
      calls += pairs.size();
    } while (NowNs() < until);
    t.End(s).attrs = {{"calls", static_cast<double>(calls)},
                      {"kernel", static_cast<double>(kernel)},
                      {"result_elements", static_cast<double>(sink)}};
  }

  // Served path: an in-process light::Session behind net::Server, driven by
  // the benchmark client over loopback TCP.
  light::Session session(store, light::SessionOptions());
  light::net::Server server(&session, light::net::ServerOptions());
  LIGHT_RETURN_IF_ERROR(server.Start());
  if (w.random_order) {
    session.RunSync(triangle.pattern, ServedOptions(triangle, 1));
  } else {
    for (const Query& q : w.queries) {
      session.RunSync(q.pattern, ServedOptions(q, q.threads));
    }
  }
  DriveOptions drive;
  drive.port = server.port();
  drive.phases = o.phases;
  drive.seed = o.seed;
  std::vector<Record> untraced;
  LIGHT_RETURN_IF_ERROR(Drive(w, drive, &untraced));
  LIGHT_RETURN_IF_ERROR(WriteRecords(o.dir + "/untraced.tsv", untraced));
  drive.spans = &spans;
  std::vector<Record> traced;
  const size_t replay = t.Begin("net.replay", root_id);
  const size_t first_request = spans.size();
  LIGHT_RETURN_IF_ERROR(Drive(w, drive, &traced));
  t.End(replay);
  for (size_t i = first_request; i < spans.size(); ++i) {
    spans[i].parent = t.Id(replay);
  }
  LIGHT_RETURN_IF_ERROR(WriteRecords(o.dir + "/traced.tsv", traced));

  // parallel: Session::Submit lifecycle records, in the served
  // configuration and with the whole 4-worker pool.
  const int pool_threads = session.stats().pool_threads;
  for (size_t i = 0; i < engine_probes; ++i) {
    const Query& q = w.queries[plan_probes[i]];
    for (const int threads : {q.threads, 0}) {
      s = t.Begin("parallel.submit", root_id);
      const light::RunResult r =
          session.Submit(q.pattern, ServedOptions(q, threads)).Wait();
      const light::obs::QueryStats& qs = r.query_stats;
      const int workers = threads == 0 ? pool_threads : threads;
      t.End(s).attrs = {{"query", static_cast<double>(plan_probes[i])},
                        {"workers", static_cast<double>(workers)},
                        {"served_config", threads == q.threads ? 1.0 : 0.0},
                        {"execute_ns", static_cast<double>(qs.execute_ns)},
                        {"busy_ns", static_cast<double>(qs.busy_ns)},
                        {"park_ns", static_cast<double>(qs.park_ns)},
                        {"steals", static_cast<double>(qs.steals)},
                        {"ranges", static_cast<double>(qs.ranges_executed)}};
      check(q, r.ok() ? r.num_matches : ~uint64_t{0});
      if (q.threads == 0) break;  // the served run already used the pool
    }
  }

  // storage: triangle and P2 through a paged store (pool_mb if set, below
  // the adjacency section's size; else the default pool) with the whole
  // pool and with one worker, and through the served mmap store with the
  // whole pool.
  std::vector<Query> paged_probes(2);
  paged_probes[0] = triangle;
  paged_probes[1].name = "P2";
  LIGHT_CHECK(light::FindPattern("P2", &paged_probes[1].pattern).ok());
  LIGHT_RETURN_IF_ERROR(ComputeReference(graph, &paged_probes));
  GraphStore::OpenOptions paged_options;
  paged_options.mode = GraphStore::Mode::kPaged;
  if (w.pool_mb > 0) {
    paged_options.pool_bytes = static_cast<size_t>(w.pool_mb * 1048576.0);
  }
  std::shared_ptr<const GraphStore> paged;
  LIGHT_RETURN_IF_ERROR(GraphStore::Open(path, paged_options, &paged));
  light::Session paged_session(paged, light::SessionOptions());
  const light::BufferPoolStats pool_before = paged->pool_stats();
  for (const Query& q : paged_probes) {
    for (const auto& [on_paged, threads] :
         {std::pair{false, 0}, std::pair{true, 0}, std::pair{true, 1}}) {
      light::Session& target = on_paged ? paged_session : session;
      s = t.Begin("storage.paged", root_id);
      const light::RunResult r =
          target.Submit(q.pattern, ServedOptions(q, threads)).Wait();
      t.End(s).attrs = {
          {"paged", on_paged ? 1.0 : 0.0},
          {"workers", static_cast<double>(threads == 0 ? pool_threads : 1)},
          {"execute_ns", static_cast<double>(r.query_stats.execute_ns)}};
      check(q, r.ok() ? r.num_matches : ~uint64_t{0});
    }
  }
  const light::BufferPoolStats pool = paged->pool_stats();
  server.Shutdown();

  const light::net::ServerStats ss = server.stats();
  const std::vector<std::pair<std::string, double>> counters = {
      {"net.protocol_errors", static_cast<double>(ss.protocol_errors)},
      {"storage.bytes_mapped", static_cast<double>(store->bytes_mapped())},
      {"storage.pool_lookups",
       static_cast<double>(pool.lookups - pool_before.lookups)},
      {"storage.pool_hits", static_cast<double>(pool.hits - pool_before.hits)},
      {"storage.pool_evictions",
       static_cast<double>(pool.evictions - pool_before.evictions)},
      {"storage.pool_bytes_read",
       static_cast<double>(pool.bytes_read - pool_before.bytes_read)},
      {"pool_threads", static_cast<double>(pool_threads)},
      {"probes", static_cast<double>(probes)},
      {"probe_failures", static_cast<double>(probe_failures)}};
  t.End(root);
  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + o.out);
  WriteJson(f, spans, counters, w);
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + o.out);
  return Status::OK();
}

}  // namespace perfbench
