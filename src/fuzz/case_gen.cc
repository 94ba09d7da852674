#include "fuzz/fuzz.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "pattern/parse.h"

namespace light::fuzz {
namespace {

// Golden-ratio stride keeps per-case seeds well separated for SplitMix64.
uint64_t CaseSeed(uint64_t run_seed, uint64_t index) {
  return run_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
}

Graph SampleGraph(Rng* rng, const CaseLimits& limits) {
  const VertexID span = limits.max_graph_vertices - limits.min_graph_vertices;
  const VertexID n =
      limits.min_graph_vertices +
      static_cast<VertexID>(rng->NextBounded(static_cast<uint64_t>(span) + 1));
  const uint64_t family_seed = rng->Next();
  // Attachment counts respect each generator's LIGHT_CHECK preconditions
  // (BA needs n > k; BA-clustered additionally needs n above its seed
  // clique; WS needs even k < n; RandomRegular needs even degree < n).
  const uint32_t ba_k = 1 + static_cast<uint32_t>(rng->NextBounded(
                                std::min<uint64_t>(4, n - 1)));
  switch (rng->NextBounded(9)) {
    case 0: {
      // Up to ~25% density keeps dense patterns findable but cases fast.
      const uint64_t max_m = static_cast<uint64_t>(n) * (n - 1) / 4 + 1;
      return ErdosRenyi(n, rng->NextBounded(max_m) + 1, family_seed);
    }
    case 1:
      return BarabasiAlbert(n, ba_k, family_seed);
    case 2:
      return n >= 8 ? BarabasiAlbertClustered(n, ba_k, rng->NextDouble(),
                                              family_seed)
                    : BarabasiAlbert(n, ba_k, family_seed);
    case 3:
      return WattsStrogatz(
          n, n > 4 && rng->NextBounded(2) == 0 ? 4 : 2, rng->NextDouble(),
          family_seed);
    case 4:
      return RandomRegular(n, n > 4 && rng->NextBounded(2) == 0 ? 4 : 2,
                           family_seed);
    case 5:
      // Complete graphs are the AGM worst case; keep them small.
      return Complete(std::min<VertexID>(n, 10));
    case 6:
      return Cycle(n);
    case 7:
      return Star(n);
    default:
      return Path(n);
  }
}

Pattern SamplePattern(Rng* rng, const CaseLimits& limits) {
  const int span = limits.max_pattern_vertices - limits.min_pattern_vertices;
  const int k = limits.min_pattern_vertices +
                static_cast<int>(rng->NextBounded(
                    static_cast<uint64_t>(span) + 1));
  Pattern pattern(k);
  // Random spanning tree guarantees connectivity; extra edges sampled with a
  // case-specific density so sparse trees and near-cliques both appear.
  for (int u = 1; u < k; ++u) {
    pattern.AddEdge(u, static_cast<int>(rng->NextBounded(
                           static_cast<uint64_t>(u))));
  }
  const double extra_prob = 0.15 + 0.6 * rng->NextDouble();
  for (int u = 0; u < k; ++u) {
    for (int v = u + 1; v < k; ++v) {
      if (!pattern.HasEdge(u, v) && rng->NextDouble() < extra_prob) {
        pattern.AddEdge(u, v);
      }
    }
  }
  return pattern;
}

IntersectKernel SampleKernel(Rng* rng) {
  const std::vector<IntersectKernel> available = AvailableKernels();
  return available[rng->NextBounded(available.size())];
}

ParallelOptions SampleParallelOptions(Rng* rng, const CaseLimits& limits) {
  ParallelOptions opts;
  const int hw = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  opts.num_threads = 1 + static_cast<int>(rng->NextBounded(
                             static_cast<uint64_t>(2 * hw)));
  opts.min_split_size =
      static_cast<VertexID>(1 + rng->NextBounded(16));
  opts.donation_check_interval =
      static_cast<uint32_t>(1 + rng->NextBounded(32));
  opts.initial_chunks_per_worker =
      1 + static_cast<int>(rng->NextBounded(8));
  if (rng->NextDouble() < limits.hostile_config_probability) {
    // Out-of-domain values on purpose: ParallelOptions::Normalized() must
    // turn every one of these into a defined run.
    switch (rng->NextBounded(5)) {
      case 0: opts.donation_check_interval = 0; break;
      case 1: opts.min_split_size = 0; break;
      case 2: opts.initial_chunks_per_worker =
                  -static_cast<int>(rng->NextBounded(4)); break;
      case 3: opts.num_threads = -1; break;
      default: opts.time_limit_seconds = -2.5; break;
    }
  }
  return opts;
}

}  // namespace

std::vector<IntersectKernel> AvailableKernels() {
  static const IntersectKernel kAll[] = {
      IntersectKernel::kMerge,        IntersectKernel::kMergeAvx2,
      IntersectKernel::kGalloping,    IntersectKernel::kBinarySearch,
      IntersectKernel::kHybrid,       IntersectKernel::kHybridAvx2,
      IntersectKernel::kMergeAvx512,  IntersectKernel::kHybridAvx512,
  };
  std::vector<IntersectKernel> available;
  for (IntersectKernel k : kAll) {
    if (KernelAvailable(k)) available.push_back(k);
  }
  return available;
}

Graph FuzzCase::BuildGraph() const {
  return GraphBuilder::FromEdges(edges, num_vertices);
}

std::string FuzzCase::Describe() const {
  std::string s = "seed=" + std::to_string(seed);
  s += " n=" + std::to_string(num_vertices);
  s += " m=" + std::to_string(edges.size());
  s += " pattern=" + FormatPattern(pattern);
  s += " kernel=" + KernelName(kernel);
  s += " threads=" + std::to_string(parallel.num_threads);
  s += " sym=" + std::to_string(symmetry_breaking ? 1 : 0);
  s += " bitmap=";
  s += bitmap_min_degree == kBitmapDegreeNever
           ? "never"
           : std::to_string(bitmap_min_degree);
  s += Labeled() ? " labeled" : " unlabeled";
  return s;
}

FuzzCase GenerateCase(uint64_t run_seed, uint64_t index,
                      const CaseLimits& limits) {
  LIGHT_CHECK(limits.min_graph_vertices >= 2);
  LIGHT_CHECK(limits.min_graph_vertices <= limits.max_graph_vertices);
  LIGHT_CHECK(limits.min_pattern_vertices >= 2);
  LIGHT_CHECK(limits.max_pattern_vertices <= kMaxPatternVertices);
  LIGHT_CHECK(limits.min_pattern_vertices <= limits.max_pattern_vertices);

  FuzzCase c;
  c.seed = CaseSeed(run_seed, index);
  Rng rng(c.seed);

  // Degree relabeling mirrors production ingestion (README quickstart); the
  // engines stay correct under any ID order, so shrinking may break it.
  const Graph graph = RelabelByDegree(SampleGraph(&rng, limits));
  c.num_vertices = graph.NumVertices();
  for (VertexID v = 0; v < c.num_vertices; ++v) {
    for (VertexID w : graph.Neighbors(v)) {
      if (v < w) c.edges.emplace_back(v, w);
    }
  }

  c.pattern = SamplePattern(&rng, limits);
  c.kernel = SampleKernel(&rng);
  c.symmetry_breaking = rng.NextDouble() < 0.75;
  c.parallel = SampleParallelOptions(&rng, limits);

  if (rng.NextDouble() < limits.labeled_probability) {
    const uint32_t num_labels = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    c.labels.resize(c.num_vertices);
    for (VertexID v = 0; v < c.num_vertices; ++v) {
      c.labels[v] = 1 + static_cast<uint32_t>(rng.NextBounded(num_labels));
    }
    for (int u = 0; u < c.pattern.NumVertices(); ++u) {
      if (rng.NextDouble() < 0.5) {  // 0 stays = wildcard
        c.pattern.SetLabel(
            u, 1 + static_cast<uint32_t>(rng.NextBounded(num_labels)));
      }
    }
  }

  // Bitmap-index threshold for the hybrid oracles: ~25% always (0), ~25%
  // never, the rest inside the sampled degree range so cases straddle the
  // threshold — some operands bitmap-resident, some array-only. Sampled
  // last so pre-bitmap case content is byte-identical for a given seed.
  switch (rng.NextBounded(4)) {
    case 0:
      c.bitmap_min_degree = 0;
      break;
    case 1:
      c.bitmap_min_degree = kBitmapDegreeNever;
      break;
    default:
      c.bitmap_min_degree = 1 + static_cast<uint32_t>(rng.NextBounded(12));
      break;
  }
  return c;
}

}  // namespace light::fuzz
