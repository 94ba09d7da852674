#ifndef LIGHT_INTERSECT_MULTIWAY_H_
#define LIGHT_INTERSECT_MULTIWAY_H_

#include <span>
#include <vector>

#include "intersect/bitmap.h"
#include "intersect/set_intersection.h"

namespace light {

/// Intersects a constant-cardinality collection of sorted sets, the primitive
/// behind candidate-set computation (Equation 6). Operands are processed in
/// ascending size order so the running time is proportional to the smallest
/// operand — the "min property" of Definition II.6 — and intermediate results
/// only shrink.
///
/// `out` receives the result (capacity >= size of the smallest operand);
/// `scratch` must provide the same capacity. Returns the result size. With a
/// single operand the set is copied and no intersection is counted, matching
/// Equation 7's w_u = |K1| + |K2| - 1 accounting.
size_t IntersectMultiway(std::span<const std::span<const VertexID>> sets,
                         VertexID* out, VertexID* scratch,
                         IntersectKernel kernel,
                         IntersectStats* stats = nullptr);

/// Hybrid-representation variant of IntersectMultiway: operands may carry
/// bitmaps (SetView::bits) in addition to their sorted arrays, and each
/// pairwise step routes per ChooseIntersectRoute. When every operand is
/// bitmap-resident and the AND wins the cost model, the whole chain collapses
/// to a single multi-row word-AND followed by one decode. `word_scratch`
/// needs `words` = BitmapWords(|V|) words; pass nullptr/0 to degrade to the
/// pure-array path (identical results). Same out/scratch capacity and k == 1
/// copy semantics as IntersectMultiway.
size_t IntersectMultiwayHybrid(std::span<const SetView> sets, VertexID* out,
                               VertexID* scratch, uint64_t* word_scratch,
                               size_t words, IntersectKernel kernel,
                               IntersectStats* stats = nullptr);

/// Result-size-only variant over the operands' sorted arrays (bitmap rows
/// are not consulted): the same operand order, pairwise routes and stats as
/// IntersectMultiwayHybrid over array-only operands. With k >= 3 operands
/// the intermediate results still go through `out` and `scratch` (same
/// capacity as IntersectMultiway); the last step counts instead of storing,
/// so k <= 2 writes nothing and may pass nullptr for both. k == 1 returns
/// the operand's size.
size_t IntersectMultiwayCount(std::span<const SetView> sets, VertexID* out,
                              VertexID* scratch, IntersectKernel kernel,
                              IntersectStats* stats = nullptr);

}  // namespace light

#endif  // LIGHT_INTERSECT_MULTIWAY_H_
