#include "engine/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "filter/candidate_space.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "pattern/symmetry_breaking.h"
#include "plan/plan.h"
#include "storage/graph_store.h"
#include "reference.h"

namespace light {
namespace {

using ::light::testing::BruteForceCountMatches;

Graph SmallTestGraph() {
  // Two overlapping triangles plus a pendant path: (0,1,2) triangle,
  // (1,2,3) triangle, 3-4, 4-5.
  return GraphBuilder::FromEdges(
      {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
}

ExecutionPlan PlanFor(const Pattern& pattern, const Graph& graph,
                      PlanOptions options) {
  return BuildPlan(pattern, ComputeGraphStats(graph, true), options);
}

TEST(EnumeratorTest, TriangleCountOnSmallGraph) {
  const Graph g = SmallTestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan = PlanFor(triangle, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  // Two triangles: {0,1,2} and {1,2,3}.
  EXPECT_EQ(enumerator.Count(), 2u);
}

TEST(EnumeratorTest, CountsWithoutSymmetryBreakingEqualAllInjectiveMaps) {
  const Graph g = SmallTestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const ExecutionPlan plan = PlanFor(triangle, g, options);
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), BruteForceCountMatches(triangle, g));
  EXPECT_EQ(enumerator.Count(), 12u);  // 2 triangles x 3! automorphisms
}

// All four variants (SE, LM, MSC, LIGHT) must agree with brute force on
// every catalog pattern over a fixed random graph, with and without symmetry
// breaking.
class VariantAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(VariantAgreementTest, MatchesBruteForce) {
  const auto& [pattern_name, use_sb] = GetParam();
  Pattern pattern;
  ASSERT_TRUE(FindPattern(pattern_name, &pattern).ok());
  const Graph g = RelabelByDegree(ErdosRenyi(40, 180, /*seed=*/7));
  const PartialOrder order =
      use_sb ? ComputeSymmetryBreaking(pattern) : PartialOrder{};
  const uint64_t expected = BruteForceCountMatches(pattern, g, order);

  for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Lm(),
                              PlanOptions::Msc(), PlanOptions::Light()}) {
    options.symmetry_breaking = use_sb;
    const ExecutionPlan plan = PlanFor(pattern, g, options);
    Enumerator enumerator(g, plan);
    EXPECT_EQ(enumerator.Count(), expected)
        << "pattern=" << pattern_name << " lazy="
        << options.lazy_materialization
        << " cover=" << options.minimum_set_cover << " sb=" << use_sb
        << "\nplan:\n"
        << plan.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, VariantAgreementTest,
    ::testing::Combine(
        ::testing::Values("P1", "P2", "P3", "P4", "P5", "P6", "P7", "triangle",
                          "path2", "path3", "star3", "c5", "c6"),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_sb" : "_nosb");
    });

TEST(EnumeratorTest, SymmetryBreakingDividesByAutomorphismCount) {
  const Graph g = RelabelByDegree(BarabasiAlbert(60, 3, /*seed=*/11));
  for (const char* name : {"P1", "P2", "P3", "P5", "P7", "square"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    PlanOptions with_sb = PlanOptions::Light();
    PlanOptions without_sb = PlanOptions::Light();
    without_sb.symmetry_breaking = false;
    const ExecutionPlan plan_sb = PlanFor(pattern, g, with_sb);
    const ExecutionPlan plan_all = PlanFor(pattern, g, without_sb);
    Enumerator e_sb(g, plan_sb);
    Enumerator e_all(g, plan_all);
    const uint64_t subgraphs = e_sb.Count();
    const uint64_t all_matches = e_all.Count();
    EXPECT_EQ(all_matches, subgraphs * AutomorphismCount(pattern))
        << "pattern=" << name;
  }
}

TEST(EnumeratorTest, SeCompCountsMatchPropositionIII1) {
  // Proposition III.1: in SE, |Phi_u| for u = pi[i+1] equals |R(P_i^pi)|,
  // the number of matches of the partial pattern on the first i vertices.
  const Graph g = RelabelByDegree(ErdosRenyi(30, 120, /*seed=*/3));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  PlanOptions options = PlanOptions::Se();
  options.symmetry_breaking = false;  // the proposition is stated without SB
  const ExecutionPlan plan = PlanFor(p2, g, options);
  Enumerator enumerator(g, plan);
  enumerator.Count();
  const auto& comp = enumerator.stats().comp_counts;

  // For each prefix P_i (i >= 1), count matches of the induced subpattern
  // by brute force and compare with |Phi_{pi[i+1]}|.
  for (size_t i = 1; i + 1 <= plan.pi.size(); ++i) {
    // Build the induced pattern on pi[1..i] with remapped vertex ids.
    std::vector<int> verts(plan.pi.begin(),
                           plan.pi.begin() + static_cast<ptrdiff_t>(i));
    Pattern prefix(static_cast<int>(i));
    for (size_t a = 0; a < verts.size(); ++a) {
      for (size_t b = a + 1; b < verts.size(); ++b) {
        if (p2.HasEdge(verts[a], verts[b])) {
          prefix.AddEdge(static_cast<int>(a), static_cast<int>(b));
        }
      }
    }
    const uint64_t r_prefix = BruteForceCountMatches(prefix, g);
    const int next = plan.pi[i];  // u = pi[i+1] in 1-based paper notation
    EXPECT_EQ(comp[static_cast<size_t>(next)], r_prefix)
        << "prefix length " << i;
  }
}

TEST(EnumeratorTest, TimeLimitAborts) {
  const Graph g = RelabelByDegree(BarabasiAlbert(4000, 8, /*seed=*/21));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  const ExecutionPlan plan = PlanFor(p5, g, PlanOptions::Se());
  Enumerator enumerator(g, plan);
  enumerator.SetTimeLimit(1e-4);
  enumerator.Count();
  EXPECT_TRUE(enumerator.stats().timed_out);
}

TEST(EnumeratorTest, VisitorReceivesValidMatches) {
  const Graph g = SmallTestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan = PlanFor(triangle, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  CollectingVisitor visitor;
  const uint64_t count = enumerator.Enumerate(&visitor);
  ASSERT_EQ(count, visitor.matches().size());
  for (const auto& match : visitor.matches()) {
    ASSERT_EQ(match.size(), 3u);
    for (const auto& [a, b] : triangle.Edges()) {
      EXPECT_TRUE(g.HasEdge(match[static_cast<size_t>(a)],
                            match[static_cast<size_t>(b)]));
    }
  }
}

TEST(EnumeratorTest, EarlyStopViaVisitor) {
  const Graph g = RelabelByDegree(ErdosRenyi(50, 300, /*seed=*/5));
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan = PlanFor(triangle, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  CollectingVisitor visitor(/*limit=*/5);
  enumerator.Enumerate(&visitor);
  EXPECT_EQ(visitor.matches().size(), 5u);
}

TEST(EnumeratorTest, CompleteGraphMatchesClosedForm) {
  // On K_n every ordered k-tuple of distinct vertices matches K_k.
  const Graph g = Complete(9);
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const ExecutionPlan plan = PlanFor(k4, g, options);
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), 9u * 8 * 7 * 6);
}

TEST(EnumeratorTest, EmptyishGraphYieldsZero) {
  const Graph g = Path(6);
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  const ExecutionPlan plan = PlanFor(k4, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), 0u);
}

// Accepts every match: a visitor keeps the last MAT on its per-element
// loop, the reference for the bulk counting leaf.
class AcceptAllVisitor : public MatchVisitor {
 public:
  bool OnMatch(std::span<const VertexID>) override { return true; }
};

void ExpectSameCounters(const EngineStats& bulk, const EngineStats& each,
                        const std::string& what) {
  EXPECT_EQ(bulk.num_matches, each.num_matches) << what;
  EXPECT_EQ(bulk.num_partial_results, each.num_partial_results) << what;
  EXPECT_EQ(bulk.mat_counts, each.mat_counts) << what;
  EXPECT_EQ(bulk.comp_counts, each.comp_counts) << what;
  EXPECT_EQ(bulk.intersections.num_intersections,
            each.intersections.num_intersections)
      << what;
}

// Counts once through Count() (bulk leaf where it applies) and once through
// Enumerate() with an accept-all visitor (per-element leaf); every counter
// must agree. Returns the count.
uint64_t CountBothWays(GraphView g, const ExecutionPlan& plan,
                       const std::string& what,
                       const std::vector<uint32_t>* labels = nullptr,
                       const std::vector<std::vector<VertexID>>* allowed =
                           nullptr) {
  Enumerator bulk(g, plan, labels);
  bulk.SetAllowedCandidates(allowed);
  const uint64_t count = bulk.Count();
  Enumerator each(g, plan, labels);
  each.SetAllowedCandidates(allowed);
  AcceptAllVisitor visitor;
  EXPECT_EQ(each.Enumerate(&visitor), count) << what;
  ExpectSameCounters(bulk.stats(), each.stats(), what);
  return count;
}

bool NarrowsAnIntersection(const ExecutionPlan& plan) {
  for (int u : plan.pi) {
    const Operands& ops = plan.operands[static_cast<size_t>(u)];
    const uint32_t trim = plan.comp_lower[static_cast<size_t>(u)] |
                          plan.comp_upper[static_cast<size_t>(u)];
    if (trim != 0 && ops.k1.size() + ops.k2.size() >= 2) return true;
  }
  return false;
}

TEST(EnumeratorTest, TrimSetsNarrowCliquesButNotP2) {
  // The analytic workload's shape: a degree-ordered BA graph.
  const Graph g = RelabelByDegree(BarabasiAlbert(2000, 7, /*seed=*/1));
  const GraphStats stats = ComputeGraphStats(g, true);
  for (const char* name : {"triangle", "P3", "P7"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    const ExecutionPlan plan =
        BuildPlan(pattern, g, stats, PlanOptions::Light());
    EXPECT_TRUE(NarrowsAnIntersection(plan)) << name << "\n"
                                             << plan.ToString();
    EXPECT_NE(plan.ToString().find("trim(u"), std::string::npos) << name;
    PlanOptions unbroken = PlanOptions::Light();
    unbroken.symmetry_breaking = false;
    const ExecutionPlan plain = BuildPlan(pattern, g, stats, unbroken);
    for (int u = 0; u < pattern.NumVertices(); ++u) {
      EXPECT_EQ(plain.comp_lower[static_cast<size_t>(u)], 0u) << name;
      EXPECT_EQ(plain.comp_upper[static_cast<size_t>(u)], 0u) << name;
    }
  }
  // P2's restrictions (u0 < u2, u1 < u3) order no COMP's operands against
  // every reader of its candidate set.
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan = BuildPlan(p2, g, stats, PlanOptions::Light());
  for (int u = 0; u < p2.NumVertices(); ++u) {
    EXPECT_EQ(plan.comp_lower[static_cast<size_t>(u)], 0u) << plan.ToString();
    EXPECT_EQ(plan.comp_upper[static_cast<size_t>(u)], 0u) << plan.ToString();
  }
}

TEST(EnumeratorTest, TrimThroughK2ReaderFollowsTheClosure) {
  // K4 under the chain 0 < 1 < 2 < 3 and pi = (0, 1, 2, 3): C(u3) is read
  // from C(u2) through K2, so trimming C(u2) by phi(u1) needs
  // phi(u1) < phi(u3), which only the closure gives.
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  const PartialOrder chain = {{0, 1}, {1, 2}, {2, 3}};
  const ExecutionPlan plan = BuildPlanWithConstraints(
      k4, {0, 1, 2, 3}, PlanOptions::Light(), chain);
  const std::vector<int>& k2 = plan.operands[3].k2;
  ASSERT_NE(std::find(k2.begin(), k2.end(), 2), k2.end()) << plan.ToString();
  EXPECT_EQ(plan.comp_lower[2], (1u << 0) | (1u << 1)) << plan.ToString();

  PlanOptions unbroken = PlanOptions::Light();
  unbroken.symmetry_breaking = false;
  const ExecutionPlan plain = BuildPlanWithOrder(k4, {0, 1, 2, 3}, unbroken);
  for (const Graph& g : {RelabelByDegree(BarabasiAlbert(400, 6, 3)),
                         Complete(9), RelabelByDegree(ErdosRenyi(60, 500, 4))}) {
    Enumerator broken(g, plan);
    Enumerator all(g, plain);
    const uint64_t subgraphs = broken.Count();
    EXPECT_EQ(subgraphs * AutomorphismCount(k4), all.Count());
    EXPECT_EQ(CountBothWays(g, plan, "k4 chain"), subgraphs);
  }
}

TEST(EnumeratorTest, CountingSuffixKeepsEveryCounterExact) {
  // Count() closes the plan's counting suffix with a count-only
  // intersection; the accept-all visitor forces the stored path. Counts and
  // every engine counter must agree, ordered (C(m,2)) and unordered
  // (m(m-1), symmetry breaking off) alike.
  const Graph g = RelabelByDegree(BarabasiAlbert(400, 6, /*seed=*/5));
  const GraphStats stats = ComputeGraphStats(g, true);
  // Runs the suffix must not change: labels (every data vertex and pattern
  // vertex labeled 1, so the count is the unlabeled one) and induced
  // non-edges take no suffix; an allowed list keeps the stored path; a
  // paged view stages the suffix operands through the buffer pool.
  const std::vector<uint32_t> labels(g.NumVertices(), 1);
  const std::string path = ::testing::TempDir() + "/counting_suffix.lcsr2";
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  GraphStore::OpenOptions paged_options;
  paged_options.mode = GraphStore::Mode::kPaged;
  paged_options.page_bytes = 4096;
  std::shared_ptr<const GraphStore> paged;
  ASSERT_TRUE(GraphStore::Open(path, paged_options, &paged).ok());
  for (const char* name : {"triangle", "P2", "P3", "P7", "path3"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    const int n = pattern.NumVertices();
    const bool clique = pattern.NumEdges() == n * (n - 1) / 2;
    const CandidateSpace space = BuildCandidateSpace(g, pattern, nullptr, {});
    for (bool sb : {true, false}) {
      PlanOptions options = PlanOptions::Light();
      options.symmetry_breaking = sb;
      const ExecutionPlan plan = BuildPlan(pattern, g, stats, options);
      const std::string what = std::string(name) + (sb ? "" : " unordered");
      EXPECT_FALSE(plan.suffix.empty()) << what << "\n" << plan.ToString();
      const uint64_t count = CountBothWays(g, plan, what);
      EXPECT_GT(count, 0u) << what;

      EXPECT_EQ(CountBothWays(paged->view(), plan, what + " paged"), count);

      EXPECT_EQ(CountBothWays(g, plan, what + " allowed", nullptr,
                              &space.candidates),
                count);

      Pattern labeled = pattern;
      for (int u = 0; u < n; ++u) labeled.SetLabel(u, 1);
      const ExecutionPlan labeled_plan = BuildPlan(labeled, g, stats, options);
      EXPECT_TRUE(labeled_plan.suffix.empty()) << what;
      EXPECT_EQ(CountBothWays(g, labeled_plan, what + " labeled", &labels),
                count);

      PlanOptions induced = options;
      induced.induced = true;
      const ExecutionPlan induced_plan = BuildPlan(pattern, g, stats, induced);
      // A clique has no non-edges, so its induced plan keeps the suffix.
      EXPECT_EQ(induced_plan.suffix.empty(), !clique) << what;
      const uint64_t induced_count =
          CountBothWays(g, induced_plan, what + " induced");
      if (clique) {
        EXPECT_EQ(induced_count, count) << what;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(EnumeratorTest, BulkLeafKeepsEveryCounterExact) {
  const Graph g = RelabelByDegree(BarabasiAlbert(300, 5, /*seed=*/9));
  const GraphStats stats = ComputeGraphStats(g, true);
  for (const char* name :
       {"triangle", "P1", "P2", "P3", "P5", "P7", "square", "house"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    for (bool sb : {true, false}) {
      for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Light()}) {
        options.symmetry_breaking = sb;
        const ExecutionPlan plan = BuildPlan(pattern, g, stats, options);
        CountBothWays(g, plan, std::string(name) + " sb=" +
                                   std::to_string(sb) + "\n" +
                                   plan.ToString());
      }
    }
  }
  // A disconnected pattern ends on a vertex with no operands: the leaf
  // ranges over [lo, hi) of V(G) itself.
  Pattern edge_plus_isolated(3);
  edge_plus_isolated.AddEdge(0, 1);
  const ExecutionPlan plan = BuildPlanWithOrder(edge_plus_isolated, {0, 1, 2},
                                                PlanOptions::Se());
  EXPECT_EQ(CountBothWays(g, plan, "edge + isolated vertex"),
            BruteForceCountMatches(edge_plus_isolated, g,
                                   plan.partial_order));
}

TEST(EnumeratorTest, LabeledAllowedAndInducedRunsStayExact) {
  const Graph g = RelabelByDegree(ErdosRenyi(40, 200, /*seed=*/13));
  const GraphStats stats = ComputeGraphStats(g, true);
  std::vector<uint32_t> labels(g.NumVertices());
  for (VertexID v = 0; v < g.NumVertices(); ++v) labels[v] = 1 + v % 2;
  for (const char* name : {"triangle", "P2", "P3", "square"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    const PartialOrder order = ComputeSymmetryBreaking(pattern);

    // Labeled: the last vertex in pi carries a label. Without symmetry
    // breaking the count is the unlabeled matches whose last vertex lands
    // on that label.
    PlanOptions unbroken = PlanOptions::Light();
    unbroken.symmetry_breaking = false;
    const ExecutionPlan probe = BuildPlan(pattern, g, stats, unbroken);
    const int last = probe.pi.back();
    uint64_t expected_labeled = 0;
    {
      CollectingVisitor all;
      Enumerator e(g, probe);
      e.Enumerate(&all);
      for (const auto& match : all.matches()) {
        expected_labeled += labels[match[static_cast<size_t>(last)]] == 2;
      }
    }
    Pattern labeled = pattern;
    labeled.SetLabel(last, 2);
    for (bool sb : {false, true}) {
      PlanOptions options = PlanOptions::Light();
      options.symmetry_breaking = sb;
      const ExecutionPlan labeled_plan =
          BuildPlan(labeled, g, stats, options);
      const uint64_t count = CountBothWays(
          g, labeled_plan, std::string(name) + " labeled", &labels);
      if (!sb) {
        EXPECT_EQ(count, expected_labeled) << name;
      }
    }

    // Allowed candidates: the candidate space prunes, counts do not move.
    const ExecutionPlan plan = BuildPlan(pattern, g, stats,
                                         PlanOptions::Light());
    const CandidateSpace space = BuildCandidateSpace(g, pattern, nullptr, {});
    EXPECT_EQ(CountBothWays(g, plan, std::string(name) + " allowed", nullptr,
                            &space.candidates),
              BruteForceCountMatches(pattern, g, order))
        << name;

    // Induced: pattern non-edges checked per candidate.
    PlanOptions induced = PlanOptions::Light();
    induced.induced = true;
    const ExecutionPlan induced_plan = BuildPlan(pattern, g, stats, induced);
    EXPECT_EQ(CountBothWays(g, induced_plan, std::string(name) + " induced"),
              BruteForceCountMatches(pattern, g, order, /*induced=*/true))
        << name;
  }
}

}  // namespace
}  // namespace light
