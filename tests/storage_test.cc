// GraphStore: the one storage engine. Heap/mmap/paged opens over one
// .lcsr2 snapshot must be observationally identical (bit-identical counts),
// format sniffing must reject garbage with structured errors, and the
// sharing contracts (one mapping, one bitmap cache across Sessions) must
// hold. The Graph explicit-move regression test pins the fix for the
// defaulted-move bug class the old DiskGraph had.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "light.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"
#include "storage/buffer_pool.h"
#include "storage/graph_store.h"

namespace light {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A store is shared immutable state: copying or moving it would re-open the
// door to the dangling-resource bugs the old movable DiskGraph had.
static_assert(!std::is_copy_constructible_v<GraphStore>);
static_assert(!std::is_copy_assignable_v<GraphStore>);
static_assert(!std::is_move_constructible_v<GraphStore>);
static_assert(!std::is_move_assignable_v<GraphStore>);

Graph TestGraph() {
  return RelabelByDegree(BarabasiAlbertClustered(400, 5, 0.4, 11));
}

uint64_t CountOn(GraphView view, const Graph& plan_graph,
                 const std::string& pattern_name) {
  Pattern pattern;
  EXPECT_TRUE(FindPattern(pattern_name, &pattern).ok());
  const GraphStats stats = ComputeGraphStats(plan_graph, true);
  const ExecutionPlan plan =
      BuildPlan(pattern, plan_graph, stats, PlanOptions::Light());
  Enumerator enumerator(view, plan);
  return enumerator.Count();
}

TEST(GraphStoreTest, ThreeModesCountIdentically) {
  const Graph g = TestGraph();
  const std::string path = TempPath("modes.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  const uint64_t expected = CountOn(GraphView(g), g, "P1");
  ASSERT_GT(expected, 0u);

  for (const GraphStore::Mode mode :
       {GraphStore::Mode::kHeap, GraphStore::Mode::kMmap,
        GraphStore::Mode::kPaged}) {
    // Three pool sizes for paged mode: thrashing, small, and larger than
    // the file (pure cache-hit regime). All must agree bit-for-bit.
    const std::vector<std::pair<size_t, size_t>> pool_configs =
        mode == GraphStore::Mode::kPaged
            ? std::vector<std::pair<size_t, size_t>>{{4 * 1024, 1024},
                                                     {64 * 1024, 4 * 1024},
                                                     {8 << 20, 64 * 1024}}
            : std::vector<std::pair<size_t, size_t>>{{0, 0}};
    for (const auto& [pool_bytes, page_bytes] : pool_configs) {
      GraphStore::OpenOptions options;
      options.mode = mode;
      if (pool_bytes > 0) {
        options.pool_bytes = pool_bytes;
        options.page_bytes = page_bytes;
      }
      std::shared_ptr<const GraphStore> store;
      ASSERT_TRUE(GraphStore::Open(path, options, &store).ok())
          << GraphStore::ModeName(mode);
      EXPECT_EQ(store->NumVertices(), g.NumVertices());
      EXPECT_EQ(store->NumEdges(), g.NumEdges());
      EXPECT_EQ(store->MaxDegree(), g.MaxDegree());
      EXPECT_EQ(CountOn(store->view(), g, "P1"), expected)
          << GraphStore::ModeName(mode) << " pool=" << pool_bytes;
    }
  }
  std::remove(path.c_str());
}

TEST(GraphStoreTest, BytesMappedAndModeMetadata) {
  const Graph g = TestGraph();
  const std::string path = TempPath("meta.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
  EXPECT_EQ(store->mode(), GraphStore::Mode::kMmap);
  EXPECT_GT(store->bytes_mapped(), 0u);
  EXPECT_EQ(store->pool_stats().misses, 0u);
  EXPECT_NE(store->graph(), nullptr);  // mmap has a resident (borrowed) Graph
  EXPECT_STREQ(GraphStore::ModeName(store->mode()), "mmap");

  options.mode = GraphStore::Mode::kPaged;
  options.pool_bytes = 16 * 1024;
  options.page_bytes = 4 * 1024;
  std::shared_ptr<const GraphStore> paged;
  ASSERT_TRUE(GraphStore::Open(path, options, &paged).ok());
  EXPECT_EQ(paged->bytes_mapped(), 0u);
  EXPECT_EQ(paged->graph(), nullptr);  // no resident adjacency
  const uint64_t count = CountOn(paged->view(), g, "triangle");
  EXPECT_GT(count, 0u);
  // The tiny pool forces faults: misses is the page_faults_estimated signal.
  EXPECT_GT(paged->pool_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(GraphStoreTest, ParseModeRoundTrips) {
  GraphStore::Mode mode;
  EXPECT_TRUE(GraphStore::ParseMode("heap", &mode));
  EXPECT_EQ(mode, GraphStore::Mode::kHeap);
  EXPECT_TRUE(GraphStore::ParseMode("mmap", &mode));
  EXPECT_EQ(mode, GraphStore::Mode::kMmap);
  EXPECT_TRUE(GraphStore::ParseMode("paged", &mode));
  EXPECT_EQ(mode, GraphStore::Mode::kPaged);
  EXPECT_FALSE(GraphStore::ParseMode("disk", &mode));
  EXPECT_FALSE(GraphStore::ParseMode("", &mode));
}

TEST(GraphStoreTest, MmapRequiresLcsr2) {
  const Graph g = TestGraph();
  const std::string path = TempPath("legacy.lcsr");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  EXPECT_FALSE(GraphStore::Open(path, options, &store).ok());
  // Heap mode sniffs and accepts the legacy format.
  options.mode = GraphStore::Mode::kHeap;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
  EXPECT_EQ(store->NumVertices(), g.NumVertices());
  std::remove(path.c_str());
}

TEST(GraphStoreTest, LabelsRoundTripThroughEveryMode) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 0);
  const Graph g = builder.Build();
  const std::vector<uint32_t> labels = {7, 1, 7, 1, 7, 1};
  const std::string path = TempPath("labeled.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path, &labels).ok());

  for (const GraphStore::Mode mode :
       {GraphStore::Mode::kHeap, GraphStore::Mode::kMmap,
        GraphStore::Mode::kPaged}) {
    GraphStore::OpenOptions options;
    options.mode = mode;
    std::shared_ptr<const GraphStore> store;
    ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
    ASSERT_EQ(store->labels().size(), labels.size())
        << GraphStore::ModeName(mode);
    for (size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(store->labels()[i], labels[i]) << GraphStore::ModeName(mode);
    }
  }
  std::remove(path.c_str());
}

// Page-boundary-straddling neighbor lists and zero-degree vertices: a
// skewed graph with one hub whose adjacency spans many small pages, plus
// isolated tail vertices that the CSR must keep (degree 0).
TEST(GraphStoreTest, PagedHandlesStraddlingAndZeroDegreeVertices) {
  GraphBuilder builder(600);
  for (VertexID v = 1; v < 500; ++v) builder.AddEdge(0, v);  // hub
  for (VertexID v = 1; v < 499; ++v) builder.AddEdge(v, v + 1);
  // Vertices 500..599 stay isolated.
  const Graph g = builder.Build();
  ASSERT_EQ(g.Degree(599), 0u);

  const std::string path = TempPath("straddle.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kPaged;
  options.pool_bytes = 2048;  // hub adjacency (499*4B) spans ~8 pages
  options.page_bytes = 256;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  const GraphView view = store->view();
  EXPECT_EQ(view.Degree(0), 499u);
  EXPECT_EQ(view.Degree(599), 0u);
  std::vector<VertexID> staged(view.MaxDegree());
  ASSERT_EQ(view.CopyNeighbors(0, staged.data()), 499u);
  for (uint32_t i = 0; i < 499; ++i) ASSERT_EQ(staged[i], i + 1);
  EXPECT_EQ(view.CopyNeighbors(599, staged.data()), 0u);

  EXPECT_EQ(CountOn(view, g, "triangle"), CountOn(GraphView(g), g, "triangle"));
  std::remove(path.c_str());
}

TEST(GraphStoreTest, MultiThreadedParallelCountOverTinyPagedPool) {
  const Graph g = TestGraph();
  const std::string path = TempPath("mt.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kPaged;
  options.pool_bytes = 8 * 1024;  // tiny: concurrent faults + evictions
  options.page_bytes = 1024;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const GraphStats stats = ComputeGraphStats(g, true);
  const ExecutionPlan plan = BuildPlan(p1, g, stats, PlanOptions::Light());
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();

  ParallelOptions popts;
  popts.num_threads = 4;
  const ParallelResult result = ParallelCount(store->view(), plan, popts);
  EXPECT_EQ(result.num_matches, expected);
  EXPECT_GT(store->pool_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(GraphStoreTest, TwoSessionsShareOneStoreAndBitmap) {
  const Graph g = TestGraph();
  const std::string path = TempPath("shared.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());
  const uint64_t mapped = store->bytes_mapped();
  ASSERT_GT(mapped, 0u);

  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());

  SessionOptions session_options;
  session_options.threads = 2;
  session_options.plan_options.bitmap_min_degree = 0;  // index everything
  Session a(store, session_options);
  Session b(store, session_options);

  RunOptions query;
  const RunResult ra = a.RunSync(p1, query);
  const RunResult rb = b.RunSync(p1, query);
  ASSERT_TRUE(ra.ok()) << ra.error;
  ASSERT_TRUE(rb.ok()) << rb.error;
  EXPECT_EQ(ra.num_matches, rb.num_matches);

  // One mapping (the store is shared, not duplicated) and one bitmap build
  // (both sessions hit the store's cache with identical options).
  EXPECT_EQ(store->bytes_mapped(), mapped);
  EXPECT_EQ(store->bitmap_cache_size(), 1u);

  const SessionStats sa = a.stats();
  EXPECT_EQ(sa.store_mode, "mmap");
  EXPECT_EQ(sa.store_bytes_mapped, mapped);

  obs::SessionReport report;
  a.FillSessionReport(&report);
  EXPECT_EQ(report.store_mode, "mmap");
  EXPECT_EQ(report.store_bytes_mapped, mapped);
  obs::SessionReport parsed;
  ASSERT_TRUE(obs::SessionReport::FromJson(report.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.store_mode, "mmap");
  EXPECT_EQ(parsed.store_bytes_mapped, mapped);
  std::remove(path.c_str());
}

TEST(GraphStoreTest, PagedSessionCountsMatchHeapSession) {
  const Graph g = TestGraph();
  const std::string path = TempPath("paged_session.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());

  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kPaged;
  options.pool_bytes = 16 * 1024;
  options.page_bytes = 2 * 1024;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  SessionOptions session_options;
  session_options.threads = 2;
  Session paged(store, session_options);
  Session heap(g, session_options);

  for (const char* name : {"triangle", "P1", "square"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const RunResult rp = paged.RunSync(p, {});
    const RunResult rh = heap.RunSync(p, {});
    ASSERT_TRUE(rp.ok()) << name << ": " << rp.error;
    ASSERT_TRUE(rh.ok()) << name << ": " << rh.error;
    EXPECT_EQ(rp.num_matches, rh.num_matches) << name;
  }
  const SessionStats stats = paged.stats();
  EXPECT_EQ(stats.store_mode, "paged");
  EXPECT_GT(stats.store_page_faults_estimated, 0u);
  std::remove(path.c_str());
}

TEST(GraphStoreTest, TimeLimitAbortsOnPagedView) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(3000, 12, 0.6, 5));
  const std::string path = TempPath("deadline.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kPaged;
  options.pool_bytes = 8 * 1024;
  options.page_bytes = 1024;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, options, &store).ok());

  Pattern p6;
  ASSERT_TRUE(FindPattern("P6", &p6).ok());
  SessionOptions session_options;
  session_options.threads = 2;
  Session session(store, session_options);
  RunOptions query;
  query.time_limit_seconds = 1e-4;
  const RunResult result = session.RunSync(p6, query);
  // Either the deadline fired (partial count, structured outcome) or the
  // machine was fast enough: both are legal, but the call must return.
  if (result.outcome == QueryOutcome::kDeadlineExceeded) {
    EXPECT_TRUE(result.timed_out);
  }
  std::remove(path.c_str());
}

TEST(GraphStoreTest, FromGraphWrapsHeapStore) {
  const std::shared_ptr<const GraphStore> store =
      GraphStore::FromGraph(TestGraph());
  EXPECT_EQ(store->mode(), GraphStore::Mode::kHeap);
  EXPECT_NE(store->graph(), nullptr);
  Session session(store, SessionOptions{});
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const RunResult r = session.RunSync(tri, {});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.num_matches, 0u);
}

// ---------------------------------------------------------------------------
// graph_io: sniffing + structured rejection.
// ---------------------------------------------------------------------------

TEST(GraphIoTest, SniffsAllThreeFormats) {
  const Graph g = TestGraph();
  const std::string edge_path = TempPath("sniff.txt");
  const std::string v1_path = TempPath("sniff.lcsr");
  const std::string v2_path = TempPath("sniff.lcsr2");
  ASSERT_TRUE(SaveEdgeList(g, edge_path).ok());
  ASSERT_TRUE(SaveBinary(g, v1_path).ok());
  ASSERT_TRUE(SaveStoreFile(g, v2_path).ok());

  GraphFileFormat format;
  ASSERT_TRUE(SniffGraphFormat(edge_path, &format).ok());
  EXPECT_EQ(format, GraphFileFormat::kEdgeList);
  ASSERT_TRUE(SniffGraphFormat(v1_path, &format).ok());
  EXPECT_EQ(format, GraphFileFormat::kLcsr1);
  ASSERT_TRUE(SniffGraphFormat(v2_path, &format).ok());
  EXPECT_EQ(format, GraphFileFormat::kLcsr2);

  // LoadAuto round-trips each one to the same graph.
  for (const std::string& path : {edge_path, v1_path, v2_path}) {
    Graph loaded;
    ASSERT_TRUE(LoadAuto(path, &loaded).ok()) << path;
    EXPECT_EQ(loaded.NumVertices(), g.NumVertices()) << path;
    EXPECT_EQ(loaded.NumEdges(), g.NumEdges()) << path;
  }
  std::remove(edge_path.c_str());
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(GraphIoTest, RejectsGarbageAndTruncation) {
  GraphFileFormat format;
  Graph out;

  // Missing file: structured error, not a crash.
  EXPECT_FALSE(SniffGraphFormat(TempPath("does_not_exist"), &format).ok());

  // Empty file is ambiguous — rejected.
  const std::string empty_path = TempPath("empty.bin");
  { std::ofstream f(empty_path, std::ios::binary); }
  EXPECT_FALSE(SniffGraphFormat(empty_path, &format).ok());
  EXPECT_FALSE(LoadAuto(empty_path, &out).ok());

  // Binary garbage must not silently parse as an edge list.
  const std::string garbage_path = TempPath("garbage.bin");
  {
    std::ofstream f(garbage_path, std::ios::binary);
    const char bytes[] = {'\x00', '\x7f', '\x03', '\x1a', '\x7e', '\x01'};
    f.write(bytes, sizeof bytes);
  }
  EXPECT_FALSE(LoadAuto(garbage_path, &out).ok());

  // Truncated LCSR magic ("LC") rejects with a structured error.
  const std::string trunc_path = TempPath("trunc.bin");
  {
    std::ofstream f(trunc_path, std::ios::binary);
    f.write("LC", 2);
  }
  EXPECT_FALSE(LoadAuto(trunc_path, &out).ok());

  // A v2 snapshot chopped mid-neighbors-section rejects in every opener.
  const Graph g = TestGraph();
  const std::string cut_path = TempPath("cut.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, cut_path).ok());
  {
    std::ifstream in(cut_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream outf(cut_path, std::ios::binary | std::ios::trunc);
    outf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(LoadStoreFile(cut_path, &out).ok());
  std::shared_ptr<const GraphStore> store;
  GraphStore::OpenOptions mmap_options;
  mmap_options.mode = GraphStore::Mode::kMmap;
  EXPECT_FALSE(GraphStore::Open(cut_path, mmap_options, &store).ok());

  std::remove(empty_path.c_str());
  std::remove(garbage_path.c_str());
  std::remove(trunc_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(GraphIoTest, HeapLoadsRejectSelfLoopsAndUnsortedRows) {
  // A snapshot whose adjacency holds a self-loop (vertex 0's first
  // neighbor rewritten to 0) or an unsorted row is rejected by every loader
  // that reads adjacency: engine kernels merge sorted rows, and the
  // counting suffix never looks for v in N(v).
  const Graph g = TestGraph();
  ASSERT_GT(g.Degree(0), 1u);
  const std::string v1_path = TempPath("selfloop.lcsr");
  const std::string v2_path = TempPath("selfloop.lcsr2");
  ASSERT_TRUE(SaveBinary(g, v1_path).ok());
  ASSERT_TRUE(SaveStoreFile(g, v2_path).ok());
  Lcsr2Header header;
  ASSERT_TRUE(ReadLcsr2Header(v2_path, &header).ok());
  // LCSR v1: magic, u32 version, u64 N, u64 slots, offsets, neighbors.
  const uint64_t v1_neighbors =
      4 + 4 + 8 + 8 + (uint64_t{g.NumVertices()} + 1) * sizeof(EdgeID);
  const auto overwrite = [](const std::string& path, uint64_t offset,
                            VertexID value) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const VertexID first = g.Neighbors(0)[0];
  const VertexID second = g.Neighbors(0)[1];
  for (const auto& [value, what] :
       {std::pair<VertexID, const char*>{0, "self-loop"},
        std::pair<VertexID, const char*>{second, "unsorted"}}) {
    overwrite(v1_path, v1_neighbors, value);
    overwrite(v2_path, header.neighbors_off, value);
    Graph out;
    const Status v1 = LoadBinary(v1_path, &out);
    const Status v2 = LoadStoreFile(v2_path, &out);
    EXPECT_FALSE(v1.ok()) << what;
    EXPECT_FALSE(v2.ok()) << what;
    EXPECT_NE(v2.ToString().find(what), std::string::npos) << v2.ToString();
    std::shared_ptr<const GraphStore> store;
    GraphStore::OpenOptions heap;
    heap.mode = GraphStore::Mode::kHeap;
    EXPECT_FALSE(GraphStore::Open(v2_path, heap, &store).ok()) << what;
  }
  // Restored, both load again.
  overwrite(v1_path, v1_neighbors, first);
  overwrite(v2_path, header.neighbors_off, first);
  Graph out;
  EXPECT_TRUE(LoadBinary(v1_path, &out).ok());
  EXPECT_TRUE(LoadStoreFile(v2_path, &out).ok());
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(GraphIoTest, SaveReplacesSnapshotWithoutDisturbingItsReaders) {
  // Re-saving a path a store is serving from must not truncate the mapped
  // file under it (SIGBUS on the next query): the save writes a new file
  // and renames it over the old one.
  const Graph a = TestGraph();
  const Graph b = RelabelByDegree(BarabasiAlbertClustered(150, 3, 0.2, 7));
  const uint64_t a_triangles = CountOn(GraphView(a), a, "triangle");
  const uint64_t b_triangles = CountOn(GraphView(b), b, "triangle");
  ASSERT_NE(a_triangles, b_triangles);

  const std::string path = TempPath("replaced.lcsr2");
  ASSERT_TRUE(SaveStoreFile(a, path).ok());
  GraphStore::OpenOptions options;
  options.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> old_store;
  ASSERT_TRUE(GraphStore::Open(path, options, &old_store).ok());
  ASSERT_TRUE(SaveStoreFile(b, path).ok());

  EXPECT_EQ(CountOn(old_store->view(), a, "triangle"), a_triangles);
  std::shared_ptr<const GraphStore> new_store;
  ASSERT_TRUE(GraphStore::Open(path, options, &new_store).ok());
  EXPECT_EQ(CountOn(new_store->view(), b, "triangle"), b_triangles);
  std::remove(path.c_str());
}

TEST(GraphIoTest, StoreFileRoundTripsExactly) {
  const Graph g = TestGraph();
  const std::string path = TempPath("roundtrip.lcsr2");
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  Graph loaded;
  ASSERT_TRUE(LoadStoreFile(path, &loaded).ok());
  ASSERT_EQ(loaded.NumVertices(), g.NumVertices());
  ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.MaxDegree(), g.MaxDegree());
  const auto ga = g.NeighborsSpan();
  const auto la = loaded.NeighborsSpan();
  ASSERT_EQ(ga.size(), la.size());
  for (size_t i = 0; i < ga.size(); ++i) ASSERT_EQ(ga[i], la[i]) << i;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Graph explicit-move regression (the DiskGraph bug class): moving a Graph
// must re-anchor the borrowed-span pointers at the destination, and the
// moved-from object must be empty-but-valid, not dangling.
// ---------------------------------------------------------------------------

TEST(GraphMoveTest, MoveReanchorsPointersAndEmptiesSource) {
  Graph g = TestGraph();
  const VertexID n = g.NumVertices();
  const EdgeID m = g.NumEdges();
  const uint32_t d0 = g.Degree(0);

  Graph moved = std::move(g);
  EXPECT_EQ(moved.NumVertices(), n);
  EXPECT_EQ(moved.NumEdges(), m);
  EXPECT_EQ(moved.Degree(0), d0);
  // The span accessors must point into `moved`'s own storage.
  EXPECT_EQ(moved.OffsetsSpan().data(), moved.offsets().data());
  EXPECT_EQ(moved.NeighborsSpan().data(), moved.neighbors().data());
  // Moved-from: empty but safe to query (the old bug dereferenced null).
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);

  Graph assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.NumVertices(), n);
  EXPECT_EQ(assigned.OffsetsSpan().data(), assigned.offsets().data());
  EXPECT_EQ(moved.NumVertices(), 0u);

  // An Enumerator over the final destination still counts correctly.
  EXPECT_GT(CountOn(GraphView(assigned), assigned, "triangle"), 0u);
}

// ---------------------------------------------------------------------------
// BufferPool: concurrent copy-out correctness under eviction pressure.
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, ConcurrentReadersSeeConsistentBytes) {
  const std::string path = TempPath("pool.bin");
  std::vector<uint8_t> bytes(64 * 1024);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131) ^ (i >> 8));
  }
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  std::unique_ptr<BufferPool> pool;
  ASSERT_TRUE(BufferPool::Open(path, 0, bytes.size(), 512, 4, &pool).ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> out(4096);
      for (int iter = 0; iter < 200; ++iter) {
        const uint64_t offset =
            static_cast<uint64_t>((t * 977 + iter * 131) % 60000);
        const uint64_t length = 1 + (iter * 37 + t) % 4000;
        if (!pool->CopyRange(offset, length, out.data())) {
          ++failures;
          continue;
        }
        for (uint64_t i = 0; i < length; ++i) {
          if (out[i] != bytes[offset + i]) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferPoolStats stats = pool->stats();
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.evictions, 0u);  // 4 frames over 128 pages must evict
  std::remove(path.c_str());
}

}  // namespace
}  // namespace light
