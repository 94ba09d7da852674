#include "intersect/set_intersection.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace light {
namespace internal {
namespace {

// Each kernel is written once: kCount = true walks the same way but counts
// its matches instead of storing them (out is then unused).
template <bool kCount>
size_t Merge(const VertexID* a, size_t na, const VertexID* b, size_t nb,
             VertexID* out) {
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  if constexpr (kCount) {
    // Branch-free: nothing is stored, so the match test need not branch.
    while (i < na && j < nb) {
      const VertexID x = a[i];
      const VertexID y = b[j];
      n += x == y;
      i += x <= y;
      j += y <= x;
    }
    return n;
  }
  while (i < na && j < nb) {
    const VertexID x = a[i];
    const VertexID y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[n++] = x;
      ++i;
      ++j;
    }
  }
  return n;
}

template <bool kCount>
size_t Galloping(const VertexID* small, size_t nsmall, const VertexID* large,
                 size_t nlarge, VertexID* out) {
  size_t n = 0;
  size_t pos = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    const VertexID x = small[i];
    pos = GallopLowerBound(large, nlarge, pos, x);
    if (pos == nlarge) break;
    if (large[pos] == x) {
      if constexpr (!kCount) out[n] = x;
      ++n;
      ++pos;
    }
  }
  return n;
}

template <bool kCount>
size_t BinarySearch(const VertexID* small, size_t nsmall,
                    const VertexID* large, size_t nlarge, VertexID* out) {
  size_t n = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    if (std::binary_search(large, large + nlarge, small[i])) {
      if constexpr (!kCount) out[n] = small[i];
      ++n;
    }
  }
  return n;
}

}  // namespace

size_t MergeIntersect(const VertexID* a, size_t na, const VertexID* b,
                      size_t nb, VertexID* out) {
  return Merge<false>(a, na, b, nb, out);
}

size_t MergeCount(const VertexID* a, size_t na, const VertexID* b,
                  size_t nb) {
  return Merge<true>(a, na, b, nb, nullptr);
}

// First index in arr[start, n) whose value is >= key, found by exponential
// probing followed by binary search. The probe makes repeated lookups with
// ascending keys resume near the previous position (the "galloping" part).
size_t GallopLowerBound(const VertexID* arr, size_t n, size_t start,
                        VertexID key) {
  if (start >= n || arr[start] >= key) return start;
  size_t step = 1;
  size_t lo = start;
  while (lo + step < n && arr[lo + step] < key) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step + 1);
  return static_cast<size_t>(
      std::lower_bound(arr + lo, arr + hi, key) - arr);
}

size_t GallopingIntersect(const VertexID* small, size_t nsmall,
                          const VertexID* large, size_t nlarge, VertexID* out) {
  return Galloping<false>(small, nsmall, large, nlarge, out);
}

size_t GallopingCount(const VertexID* small, size_t nsmall,
                      const VertexID* large, size_t nlarge) {
  return Galloping<true>(small, nsmall, large, nlarge, nullptr);
}

size_t BinarySearchIntersect(const VertexID* small, size_t nsmall,
                             const VertexID* large, size_t nlarge,
                             VertexID* out) {
  return BinarySearch<false>(small, nsmall, large, nlarge, out);
}

size_t BinarySearchCount(const VertexID* small, size_t nsmall,
                         const VertexID* large, size_t nlarge) {
  return BinarySearch<true>(small, nsmall, large, nlarge, nullptr);
}

}  // namespace internal

namespace {

enum class Method : uint8_t { kMerge, kGalloping, kBinarySearch };
enum class Width : uint8_t { kScalar, kAvx2, kAvx512 };

bool RouteToGalloping(size_t na, size_t nb) {
  // Algorithm 4: Merge when |S1|/|S2| < delta and |S2|/|S1| < delta,
  // otherwise Galloping.
  const size_t lo = std::min(na, nb);
  const size_t hi = std::max(na, nb);
  if (lo == 0) return true;  // empty operand: constant-time either way
  return static_cast<double>(hi) >=
         kHybridSkewThreshold * static_cast<double>(lo);
}

// The method `kernel` runs on operands of sizes na and nb (Algorithm 4 for
// the hybrids), with its IntersectStats accounting.
Method Route(IntersectKernel kernel, size_t na, size_t nb,
             IntersectStats* stats) {
  Method method = Method::kMerge;
  switch (kernel) {
    case IntersectKernel::kMerge:
    case IntersectKernel::kMergeAvx2:
    case IntersectKernel::kMergeAvx512:
      break;
    case IntersectKernel::kGalloping:
      method = Method::kGalloping;
      break;
    case IntersectKernel::kBinarySearch:
      method = Method::kBinarySearch;
      break;
    case IntersectKernel::kHybrid:
    case IntersectKernel::kHybridAvx2:
    case IntersectKernel::kHybridAvx512:
      if (RouteToGalloping(na, nb)) method = Method::kGalloping;
      break;
  }
  if (stats != nullptr) {
    ++stats->num_intersections;
    switch (method) {
      case Method::kMerge:
        ++stats->num_merge;
        break;
      case Method::kGalloping:
        ++stats->num_galloping;
        break;
      case Method::kBinarySearch:
        ++stats->num_binary_search;
        break;
    }
  }
  return method;
}

// SIMD width of the merge and galloping kernels behind `kernel`; scalar when
// the build lacks it (binary search is always scalar).
Width KernelWidth(IntersectKernel kernel) {
  switch (kernel) {
#if defined(LIGHT_HAVE_AVX2)
    case IntersectKernel::kMergeAvx2:
    case IntersectKernel::kHybridAvx2:
      return Width::kAvx2;
#endif
#if defined(LIGHT_HAVE_AVX512)
    case IntersectKernel::kMergeAvx512:
    case IntersectKernel::kHybridAvx512:
      return Width::kAvx512;
#endif
    default:
      return Width::kScalar;
  }
}

// Runs the routed kernel; out == nullptr selects its count-only twin.
size_t Dispatch(const VertexID* a, size_t na, const VertexID* b, size_t nb,
                VertexID* out, IntersectKernel kernel, IntersectStats* stats) {
  const Method method = Route(kernel, na, nb, stats);
  if (method != Method::kMerge && na > nb) {
    // Galloping and binary search walk the smaller operand.
    std::swap(a, b);
    std::swap(na, nb);
  }
  const bool count = out == nullptr;
  switch (method) {
    case Method::kBinarySearch:
      return count ? internal::BinarySearchCount(a, na, b, nb)
                   : internal::BinarySearchIntersect(a, na, b, nb, out);
    case Method::kMerge:
      switch (KernelWidth(kernel)) {
#if defined(LIGHT_HAVE_AVX2)
        case Width::kAvx2:
          return count ? internal::MergeCountAvx2(a, na, b, nb)
                       : internal::MergeIntersectAvx2(a, na, b, nb, out);
#endif
#if defined(LIGHT_HAVE_AVX512)
        case Width::kAvx512:
          return count ? internal::MergeCountAvx512(a, na, b, nb)
                       : internal::MergeIntersectAvx512(a, na, b, nb, out);
#endif
        default:
          return count ? internal::MergeCount(a, na, b, nb)
                       : internal::MergeIntersect(a, na, b, nb, out);
      }
    case Method::kGalloping:
      switch (KernelWidth(kernel)) {
#if defined(LIGHT_HAVE_AVX2)
        case Width::kAvx2:
          return count ? internal::GallopingCountAvx2(a, na, b, nb)
                       : internal::GallopingIntersectAvx2(a, na, b, nb, out);
#endif
#if defined(LIGHT_HAVE_AVX512)
        case Width::kAvx512:
          return count
                     ? internal::GallopingCountAvx512(a, na, b, nb)
                     : internal::GallopingIntersectAvx512(a, na, b, nb, out);
#endif
        default:
          return count ? internal::GallopingCount(a, na, b, nb)
                       : internal::GallopingIntersect(a, na, b, nb, out);
      }
  }
  LIGHT_CHECK(false);
  return 0;
}

}  // namespace

size_t IntersectSorted(std::span<const VertexID> a, std::span<const VertexID> b,
                       VertexID* out, IntersectKernel kernel,
                       IntersectStats* stats) {
  // A null `out` is legal only for an empty operand (capacity 0), where the
  // count-only route it selects returns the same 0.
  return Dispatch(a.data(), a.size(), b.data(), b.size(), out, kernel, stats);
}

size_t IntersectSortedCount(std::span<const VertexID> a,
                            std::span<const VertexID> b, IntersectKernel kernel,
                            IntersectStats* stats) {
  return Dispatch(a.data(), a.size(), b.data(), b.size(), nullptr, kernel,
                  stats);
}

bool KernelAvailable(IntersectKernel kernel) {
  // Both compile-time presence and runtime CPU support are required; callers
  // must consult this before selecting a SIMD kernel on unknown hardware.
  switch (kernel) {
    case IntersectKernel::kMergeAvx2:
    case IntersectKernel::kHybridAvx2:
#if defined(LIGHT_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case IntersectKernel::kMergeAvx512:
    case IntersectKernel::kHybridAvx512:
#if defined(LIGHT_HAVE_AVX512)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    default:
      return true;
  }
}

IntersectKernel BestAvailableKernel() {
  if (KernelAvailable(IntersectKernel::kHybridAvx512)) {
    return IntersectKernel::kHybridAvx512;
  }
  if (KernelAvailable(IntersectKernel::kHybridAvx2)) {
    return IntersectKernel::kHybridAvx2;
  }
  return IntersectKernel::kHybrid;
}

std::string KernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kMerge:
      return "Merge";
    case IntersectKernel::kMergeAvx2:
      return "MergeAVX2";
    case IntersectKernel::kGalloping:
      return "Galloping";
    case IntersectKernel::kBinarySearch:
      return "BinarySearch";
    case IntersectKernel::kHybrid:
      return "Hybrid";
    case IntersectKernel::kHybridAvx2:
      return "HybridAVX2";
    case IntersectKernel::kMergeAvx512:
      return "MergeAVX512";
    case IntersectKernel::kHybridAvx512:
      return "HybridAVX512";
  }
  return "Unknown";
}

}  // namespace light
