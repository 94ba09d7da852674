#include "plan/plan.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "plan/cardinality.h"
#include "plan/order_optimizer.h"
#include "plan/restriction.h"

namespace light {

const char* RestrictionModeName(RestrictionMode mode) {
  switch (mode) {
    case RestrictionMode::kGrochowKellis:
      return "gk";
    case RestrictionMode::kCoOptimized:
      return "co-optimized";
    case RestrictionMode::kAuto:
      return "auto";
  }
  return "unknown";
}

const char* CountStrategyName(CountStrategy strategy) {
  switch (strategy) {
    case CountStrategy::kEnumerate:
      return "enumerate";
    case CountStrategy::kIep:
      return "iep";
    case CountStrategy::kAuto:
      return "auto";
  }
  return "unknown";
}

Status PlanOptions::Validate() const {
  if (std::isnan(bitmap_density) || bitmap_density < 0.0 ||
      bitmap_density > 1.0) {
    return Status::InvalidArgument("bitmap_density must be within [0, 1]");
  }
  if (!auto_kernel && !KernelAvailable(kernel)) {
    return Status::InvalidArgument(
        std::string("intersection kernel not available on this build: ") +
        KernelName(kernel));
  }
  if (!order_override.empty()) {
    // Pattern-independent part of the check: values must form a permutation
    // of 0..size-1 (the size is matched against the pattern at build time).
    uint32_t seen = 0;
    for (int u : order_override) {
      if (u < 0 || u >= static_cast<int>(order_override.size()) ||
          ((seen >> u) & 1u) != 0) {
        return Status::InvalidArgument(
            "order_override must be a permutation of the pattern vertices");
      }
      seen |= uint32_t{1} << u;
    }
  }
  return Status::OK();
}

PlanOptions PlanOptions::Normalized() const {
  PlanOptions out = *this;
  if (out.auto_kernel || !KernelAvailable(out.kernel)) {
    out.kernel = BestAvailableKernel();
    out.auto_kernel = false;
  }
  if (std::isnan(out.bitmap_density) || out.bitmap_density < 0.0 ||
      out.bitmap_density > 1.0) {
    out.bitmap_density = kDefaultBitmapDensity;
  }
  return out;
}

std::string PlanOptions::CacheKey() const {
  // Bitmap knobs are deliberately absent: the compiled plan is
  // bitmap-agnostic (the index is attached at execution time).
  std::string key;
  key.push_back(static_cast<char>((lazy_materialization ? 1 : 0) |
                                  (minimum_set_cover ? 2 : 0) |
                                  (symmetry_breaking ? 4 : 0) |
                                  (induced ? 8 : 0) |
                                  (auto_kernel ? 16 : 0)));
  key.push_back(static_cast<char>(kernel));
  key.push_back(static_cast<char>(restriction_mode));
  key.push_back(static_cast<char>(count_strategy));
  key.push_back(static_cast<char>(order_override.size()));
  for (int u : order_override) key.push_back(static_cast<char>(u));
  return key;
}
namespace {

void WireConstraints(ExecutionPlan* plan) {
  const int n = plan->pattern.NumVertices();
  plan->lower_bounds.assign(static_cast<size_t>(n), {});
  plan->upper_bounds.assign(static_cast<size_t>(n), {});
  plan->comp_lower.assign(static_cast<size_t>(n), 0);
  plan->comp_upper.assign(static_cast<size_t>(n), 0);
  if (!plan->options.symmetry_breaking) return;
  std::vector<int> mat_pos(static_cast<size_t>(n), -1);
  std::vector<int> comp_pos(static_cast<size_t>(n), -1);
  for (int i = 0; i < static_cast<int>(plan->sigma.size()); ++i) {
    const Operation& op = plan->sigma[static_cast<size_t>(i)];
    auto& pos = op.type == OpType::kMaterialize ? mat_pos : comp_pos;
    pos[static_cast<size_t>(op.vertex)] = i;
  }
  // A constraint phi(a) < phi(b) is checked when the later-materialized of
  // the two is bound; by then the other endpoint's mapping is available.
  for (const auto& [a, b] : plan->partial_order) {
    if (mat_pos[static_cast<size_t>(a)] < mat_pos[static_cast<size_t>(b)]) {
      plan->lower_bounds[static_cast<size_t>(b)].push_back(a);
    } else {
      plan->upper_bounds[static_cast<size_t>(a)].push_back(b);
    }
  }

  // COMP trims. above[a] holds every b with phi(a) < phi(b) in the
  // transitive closure, below[b] every such a (Warshall over bitmasks).
  std::vector<uint32_t> above(static_cast<size_t>(n), 0);
  std::vector<uint32_t> below(static_cast<size_t>(n), 0);
  for (const auto& [a, b] : plan->partial_order) {
    above[static_cast<size_t>(a)] |= uint32_t{1} << b;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if ((above[static_cast<size_t>(i)] >> k) & 1u) {
        above[static_cast<size_t>(i)] |= above[static_cast<size_t>(k)];
      }
    }
  }
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if ((above[static_cast<size_t>(a)] >> b) & 1u) {
        below[static_cast<size_t>(b)] |= uint32_t{1} << a;
      }
    }
  }
  // readers[u]: u plus every vertex whose candidate set is computed from
  // C(u) through a chain of K2 operands. A trimmed element of C(u) is
  // missing from all of them, so the bound must hold for each. K2 operands
  // precede their reader in pi, so one reverse-pi pass closes the chains.
  std::vector<uint32_t> readers(static_cast<size_t>(n), 0);
  for (auto it = plan->pi.rbegin(); it != plan->pi.rend(); ++it) {
    const int w = *it;
    readers[static_cast<size_t>(w)] |= uint32_t{1} << w;
    for (int y : plan->operands[static_cast<size_t>(w)].k2) {
      readers[static_cast<size_t>(y)] |= readers[static_cast<size_t>(w)];
    }
  }
  for (int u = 0; u < n; ++u) {
    const int comp = comp_pos[static_cast<size_t>(u)];
    if (comp < 0) continue;
    uint32_t bound_before = 0;
    for (int x = 0; x < n; ++x) {
      const int mat = mat_pos[static_cast<size_t>(x)];
      if (mat >= 0 && mat < comp) bound_before |= uint32_t{1} << x;
    }
    uint32_t lower = bound_before;
    uint32_t upper = bound_before;
    for (int w = 0; w < n; ++w) {
      if ((readers[static_cast<size_t>(u)] >> w) & 1u) {
        lower &= below[static_cast<size_t>(w)];
        upper &= above[static_cast<size_t>(w)];
      }
    }
    // A single-operand COMP that only MAT(u) reads aliases its operand,
    // and MAT(u) applies its own window to it anyway: keep only the bounds
    // that window lacks.
    const Operands& ops = plan->operands[static_cast<size_t>(u)];
    if (ops.k1.size() + ops.k2.size() == 1 &&
        readers[static_cast<size_t>(u)] == uint32_t{1} << u) {
      for (int x : plan->lower_bounds[static_cast<size_t>(u)]) {
        lower &= ~(uint32_t{1} << x);
      }
      for (int y : plan->upper_bounds[static_cast<size_t>(u)]) {
        upper &= ~(uint32_t{1} << y);
      }
    }
    plan->comp_lower[static_cast<size_t>(u)] = lower;
    plan->comp_upper[static_cast<size_t>(u)] = upper;
  }
}

void WireInducedChecks(ExecutionPlan* plan) {
  const int n = plan->pattern.NumVertices();
  plan->non_adjacent.assign(static_cast<size_t>(n), {});
  if (!plan->options.induced) return;
  std::vector<int> mat_pos(static_cast<size_t>(n), -1);
  for (int i = 0; i < static_cast<int>(plan->sigma.size()); ++i) {
    const Operation& op = plan->sigma[static_cast<size_t>(i)];
    if (op.type == OpType::kMaterialize) {
      mat_pos[static_cast<size_t>(op.vertex)] = i;
    }
  }
  // Each non-edge pair is checked exactly once: when its later-materialized
  // endpoint is bound.
  for (int u = 0; u < n; ++u) {
    for (int w = 0; w < u; ++w) {
      if (plan->pattern.HasEdge(u, w)) continue;
      const int later =
          mat_pos[static_cast<size_t>(u)] > mat_pos[static_cast<size_t>(w)]
              ? u
              : w;
      const int earlier = later == u ? w : u;
      plan->non_adjacent[static_cast<size_t>(later)].push_back(earlier);
    }
  }
}

uint32_t Mask(const std::vector<int>& vertices) {
  uint32_t mask = 0;
  for (int x : vertices) mask |= uint32_t{1} << x;
  return mask;
}

/// K1 operands of COMP(u) and, through K2, of every set C(u) is computed
/// from: vertices whose neighborhood contains all of C(u), so none of them
/// lies in it (N(v) never holds v).
uint32_t NeighborhoodOperands(const ExecutionPlan& plan, int u) {
  const Operands& ops = plan.operands[static_cast<size_t>(u)];
  uint32_t mask = Mask(ops.k1);
  for (int y : ops.k2) mask |= NeighborhoodOperands(plan, y);
  return mask;
}

void WireCountingSuffix(ExecutionPlan* plan) {
  plan->suffix = CountingSuffix();
  const ExecutionOrder& sigma = plan->sigma;
  const size_t num_ops = sigma.size();
  // The trailing MATs, then the COMPs right before them; a MAT precedes
  // those (the COMP run ends there), and it binds the parent vertex.
  size_t mats = 0;
  while (mats < num_ops &&
         sigma[num_ops - 1 - mats].type == OpType::kMaterialize) {
    ++mats;
  }
  size_t comps = 0;
  while (mats + comps < num_ops &&
         sigma[num_ops - 1 - mats - comps].type == OpType::kCompute) {
    ++comps;
  }
  if (mats == 0 || mats > 2 || comps != mats || mats + comps == num_ops) {
    return;
  }
  const size_t begin = num_ops - 2 * mats;
  const int a = sigma[begin].vertex;
  const Operands& set_ops = plan->operands[static_cast<size_t>(a)];
  const size_t num_operands = set_ops.k1.size() + set_ops.k2.size();
  if (num_operands == 0) return;  // C(a) = V(G): the dense MAT handles it
  uint32_t comp_mask = 0;
  uint32_t mat_mask = 0;
  for (size_t i = begin; i < begin + mats; ++i) {
    comp_mask |= uint32_t{1} << sigma[i].vertex;
    mat_mask |= uint32_t{1} << sigma[i + mats].vertex;
  }
  if (comp_mask != mat_mask) return;
  for (size_t i = begin + 1; i < begin + mats; ++i) {
    const int b = sigma[i].vertex;
    const Operands& ops = plan->operands[static_cast<size_t>(b)];
    if (!ops.k1.empty() || ops.k2 != std::vector<int>{a} ||
        plan->comp_lower[static_cast<size_t>(b)] != 0 ||
        plan->comp_upper[static_cast<size_t>(b)] != 0) {
      return;
    }
  }
  std::vector<int> vertices;
  for (size_t i = begin + mats; i < num_ops; ++i) {
    const int u = sigma[i].vertex;
    if (plan->pattern.Label(u) != 0 ||
        !plan->non_adjacent[static_cast<size_t>(u)].empty()) {
      return;
    }
    vertices.push_back(u);
  }
  // MAT(s1)'s bounds are all on bound vertices; MAT(s2) must have the same
  // ones, plus at most the constraint between s1 and s2.
  const int s1 = vertices[0];
  const uint32_t window_lower = Mask(plan->lower_bounds[static_cast<size_t>(s1)]);
  const uint32_t window_upper = Mask(plan->upper_bounds[static_cast<size_t>(s1)]);
  bool ordered = false;
  if (mats == 2) {
    const int s2 = vertices[1];
    const uint32_t s1_bit = uint32_t{1} << s1;
    const uint32_t lower = Mask(plan->lower_bounds[static_cast<size_t>(s2)]);
    const uint32_t upper = Mask(plan->upper_bounds[static_cast<size_t>(s2)]);
    if ((lower & ~s1_bit) != window_lower || (upper & ~s1_bit) != window_upper) {
      return;
    }
    ordered = ((lower | upper) & s1_bit) != 0;
  }
  const uint32_t trim_lower = plan->comp_lower[static_cast<size_t>(a)];
  const uint32_t trim_upper = plan->comp_upper[static_cast<size_t>(a)];
  if ((num_operands > 1 || mats > 1) &&
      ((window_lower & ~trim_lower) != 0 || (window_upper & ~trim_upper) != 0)) {
    return;
  }

  // Exclusion. above[x]: bound vertices y with phi(x) < phi(y) implied by
  // constraints between bound vertices alone (each already checked).
  const int n = plan->pattern.NumVertices();
  const uint32_t bound = ((n == 32 ? 0 : uint32_t{1} << n) - 1) & ~mat_mask;
  std::vector<uint32_t> above(static_cast<size_t>(n), 0);
  for (const auto& [x, y] : plan->partial_order) {
    if (((bound >> x) & (bound >> y) & 1u) != 0) {
      above[static_cast<size_t>(x)] |= uint32_t{1} << y;
    }
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if ((above[static_cast<size_t>(i)] >> k) & 1u) {
        above[static_cast<size_t>(i)] |= above[static_cast<size_t>(k)];
      }
    }
  }
  // The engine's window is [lo, hi) with lo past every lower bound and hi
  // at the smallest upper bound: a vertex at or below a lower bound, or at
  // or above an upper one, is outside it.
  const uint32_t lower = window_lower | trim_lower;
  const uint32_t upper = window_upper | trim_upper;
  uint32_t past_upper = upper;
  for (int y = 0; y < n; ++y) {
    if ((upper >> y) & 1u) past_upper |= above[static_cast<size_t>(y)];
  }
  uint32_t excluded = (NeighborhoodOperands(*plan, a) | past_upper) & bound;
  for (int x = 0; x < n; ++x) {
    const uint32_t bit = uint32_t{1} << x;
    if ((bound & bit) != 0 &&
        ((bit | above[static_cast<size_t>(x)]) & lower) != 0) {
      excluded |= bit;
    }
  }
  plan->suffix.set_vertex = a;
  plan->suffix.vertices = std::move(vertices);
  plan->suffix.ordered = ordered;
  plan->suffix.excluded = excluded;
}

ExecutionPlan Assemble(const Pattern& pattern, const std::vector<int>& pi,
                       const PlanOptions& options,
                       PartialOrder partial_order) {
  ExecutionPlan plan;
  plan.pattern = pattern;
  plan.options = options;
  plan.pi = pi;
  // Lazy sigma (Algorithm 2) assumes a connected order — otherwise the first
  // operation would not be MAT(pi[1]). Disconnected orders (EH-like plans)
  // must use the eager schedule.
  LIGHT_CHECK(!options.lazy_materialization || IsConnectedOrder(pattern, pi));
  plan.sigma = options.lazy_materialization
                   ? GenerateLazyExecutionOrder(pattern, pi)
                   : GenerateEagerExecutionOrder(pattern, pi);
  plan.operands = GenerateOperands(pattern, pi, options.minimum_set_cover);
  plan.partial_order = std::move(partial_order);
  WireConstraints(&plan);
  WireInducedChecks(&plan);
  WireCountingSuffix(&plan);
  return plan;
}

}  // namespace

namespace {

ExecutionPlan BuildPlanWithEstimator(const Pattern& pattern,
                                     const CardinalityEstimator& estimator,
                                     const PlanOptions& options) {
  LIGHT_CHECK(pattern.IsConnected());
  if (!options.order_override.empty()) {
    LIGHT_CHECK(static_cast<int>(options.order_override.size()) ==
                pattern.NumVertices());
    PartialOrder partial_order;
    if (options.symmetry_breaking) {
      partial_order = options.restriction_mode == RestrictionMode::kGrochowKellis
                          ? ComputeSymmetryBreaking(pattern)
                          : ComputeRestrictionsForOrder(pattern,
                                                        options.order_override);
    }
    return Assemble(pattern, options.order_override, options,
                    std::move(partial_order));
  }
  // Classic path: restrictions first (fixed GK pivots), then the order.
  PartialOrder gk_order =
      options.symmetry_breaking ? ComputeSymmetryBreaking(pattern)
                                : PartialOrder{};
  if (!options.symmetry_breaking ||
      options.restriction_mode == RestrictionMode::kGrochowKellis) {
    const std::vector<int> pi = OptimizeEnumerationOrder(
        pattern, estimator, gk_order, options.lazy_materialization,
        options.minimum_set_cover);
    return Assemble(pattern, pi, options, std::move(gk_order));
  }
  // GraphPi path: restriction sets generated per candidate order, the pair
  // scored jointly.
  RestrictedPlanChoice choice = CoOptimizeOrderAndRestrictions(
      pattern, estimator, options.lazy_materialization,
      options.minimum_set_cover);
  if (options.restriction_mode == RestrictionMode::kAuto) {
    const std::vector<int> gk_pi = OptimizeEnumerationOrder(
        pattern, estimator, gk_order, options.lazy_materialization,
        options.minimum_set_cover);
    const double gk_cost = RestrictionAdjustedCost(
        pattern, gk_pi, gk_order, estimator, options.lazy_materialization,
        options.minimum_set_cover);
    // Ties keep the classic plan: it is the better-tested default.
    if (gk_cost <= choice.adjusted_cost * (1.0 + 1e-12)) {
      return Assemble(pattern, gk_pi, options, std::move(gk_order));
    }
  }
  return Assemble(pattern, choice.pi, options, std::move(choice.restrictions));
}

}  // namespace

ExecutionPlan BuildPlan(const Pattern& pattern, const GraphStats& stats,
                        const PlanOptions& options) {
  const CardinalityEstimator estimator(stats);
  return BuildPlanWithEstimator(pattern, estimator, options);
}

ExecutionPlan BuildPlan(const Pattern& pattern, const Graph& graph,
                        const GraphStats& stats, const PlanOptions& options) {
  const CardinalityEstimator estimator(graph, stats);
  return BuildPlanWithEstimator(pattern, estimator, options);
}

ExecutionPlan BuildPlanWithOrder(const Pattern& pattern,
                                 const std::vector<int>& pi,
                                 const PlanOptions& options) {
  PartialOrder partial_order;
  if (options.symmetry_breaking) {
    partial_order = options.restriction_mode == RestrictionMode::kGrochowKellis
                        ? ComputeSymmetryBreaking(pattern)
                        : ComputeRestrictionsForOrder(pattern, pi);
  }
  return Assemble(pattern, pi, options, std::move(partial_order));
}

ExecutionPlan BuildPlanWithConstraints(const Pattern& pattern,
                                       const std::vector<int>& pi,
                                       const PlanOptions& options,
                                       PartialOrder constraints) {
  PlanOptions opts = options;
  opts.symmetry_breaking = true;  // wire the provided constraints
  return Assemble(pattern, pi, opts, std::move(constraints));
}

std::string ExecutionPlan::ToString() const {
  std::string out = "pattern: " + pattern.ToString() + "\n";
  out += "pi: (";
  for (size_t i = 0; i < pi.size(); ++i) {
    if (i > 0) out += ", ";
    out += "u" + std::to_string(pi[i]);
  }
  out += ")\nsigma: " + ExecutionOrderToString(sigma) + "\n";
  for (size_t i = 1; i < pi.size(); ++i) {
    const int u = pi[i];
    const Operands& ops = operands[static_cast<size_t>(u)];
    out += "operands(u" + std::to_string(u) + "): K1={";
    for (size_t j = 0; j < ops.k1.size(); ++j) {
      if (j > 0) out += ",";
      out += "u" + std::to_string(ops.k1[j]);
    }
    out += "} K2={";
    for (size_t j = 0; j < ops.k2.size(); ++j) {
      if (j > 0) out += ",";
      out += "u" + std::to_string(ops.k2[j]);
    }
    out += "}\n";
  }
  if (!partial_order.empty()) {
    out += "partial order:";
    for (const auto& [a, b] : partial_order) {
      out += " u" + std::to_string(a) + "<u" + std::to_string(b);
    }
    out += "\n";
  }
  for (int u : pi) {
    const uint32_t lower = comp_lower[static_cast<size_t>(u)];
    const uint32_t upper = comp_upper[static_cast<size_t>(u)];
    if (lower == 0 && upper == 0) continue;
    out += "trim(u" + std::to_string(u) + "):";
    for (int x = 0; x < pattern.NumVertices(); ++x) {
      if ((lower >> x) & 1u) out += " >u" + std::to_string(x);
    }
    for (int y = 0; y < pattern.NumVertices(); ++y) {
      if ((upper >> y) & 1u) out += " <u" + std::to_string(y);
    }
    out += "\n";
  }
  if (!suffix.empty()) {
    const size_t j = suffix.vertices.size();
    out += "suffix:";
    for (int u : suffix.vertices) out += " u" + std::to_string(u);
    out += " over C(u" + std::to_string(suffix.set_vertex) + "), count ";
    out += j == 1 ? "m" : suffix.ordered ? "C(m,2)" : "m(m-1)";
    out += ", excluded {";
    bool first = true;
    for (int x = 0; x < pattern.NumVertices(); ++x) {
      if (((suffix.excluded >> x) & 1u) == 0) continue;
      out += (first ? "u" : ",u") + std::to_string(x);
      first = false;
    }
    out += "}\n";
  }
  if (!counted_tail.empty()) {
    out += "counted tail:";
    for (int t : counted_tail) out += " u" + std::to_string(t);
    out += "\n";
  }
  return out;
}

}  // namespace light
