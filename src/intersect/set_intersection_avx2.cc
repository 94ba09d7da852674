// AVX2 implementations of the Merge and Galloping intersection kernels
// (Section VII-A). Compiled with -mavx2; the dispatcher in
// set_intersection.cc only calls these when LIGHT_HAVE_AVX2 is defined.

#include <immintrin.h>

#include <algorithm>
#include <array>

#include "intersect/set_intersection.h"

namespace light::internal {
namespace {

// shuffle_table[mask] moves the lanes selected by `mask` (8-bit, one bit per
// 32-bit lane) to the front, for compress-stores after an all-pairs compare.
struct ShuffleTable {
  alignas(32) int32_t idx[256][8];
};

const ShuffleTable* BuildShuffleTable() {
  static ShuffleTable table;
  for (int mask = 0; mask < 256; ++mask) {
    int n = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) table.idx[mask][n++] = lane;
    }
    for (; n < 8; ++n) table.idx[mask][n] = 0;
  }
  return &table;
}

const ShuffleTable& GetShuffleTable() {
  static const ShuffleTable* table = BuildShuffleTable();
  return *table;
}

// OR of the equality comparisons of a_vec against all 8 rotations of b_vec:
// lane i of the result is all-ones iff a_vec[i] occurs anywhere in b_vec.
inline __m256i AllPairsEq(__m256i a_vec, __m256i b_vec) {
  __m256i match = _mm256_cmpeq_epi32(a_vec, b_vec);
  __m256i rotated = b_vec;
  for (int r = 1; r < 8; ++r) {
    // Rotate lanes left by one.
    rotated = _mm256_permutevar8x32_epi32(
        rotated, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0));
    match = _mm256_or_si256(match, _mm256_cmpeq_epi32(a_vec, rotated));
  }
  return match;
}

// Lanes [0, count) set: the store mask for the first `count` packed lanes.
inline __m256i PrefixMask(int count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(count),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// kCount = true counts the matches and stores nothing (out is unused).
template <bool kCount>
size_t MergeAvx2(const VertexID* a, size_t na, const VertexID* b, size_t nb,
                 VertexID* out) {
  // The caller guarantees room for min(na, nb) results and no more.
  const size_t capacity = std::min(na, nb);
  const ShuffleTable* table = kCount ? nullptr : &GetShuffleTable();
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i a_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i b_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i match = AllPairsEq(a_vec, b_vec);
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(match));
    if (mask != 0) {
      const int found = __builtin_popcount(static_cast<unsigned>(mask));
      if constexpr (!kCount) {
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(table->idx[mask]));
        const __m256i packed = _mm256_permutevar8x32_epi32(a_vec, perm);
        if (n + 8 <= capacity) {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n), packed);
        } else {
          // Near the end of `out`: a full 8-lane store would run past it.
          _mm256_maskstore_epi32(reinterpret_cast<int*>(out + n),
                                 PrefixMask(found), packed);
        }
      }
      n += static_cast<size_t>(found);
    }
    const VertexID a_max = a[i + 7];
    const VertexID b_max = b[j + 7];
    if (a_max <= b_max) i += 8;
    if (b_max <= a_max) j += 8;
  }
  // Scalar tail.
  if constexpr (kCount) return n + MergeCount(a + i, na - i, b + j, nb - j);
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
size_t GallopingAvx2(const VertexID* small, size_t nsmall,
                     const VertexID* large, size_t nlarge, VertexID* out) {
  size_t n = 0;
  size_t pos = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    const VertexID x = small[i];
    // Gallop over 8-lane blocks: advance while the block-window maximum
    // is < x.
    size_t step = 8;
    size_t lo = pos;
    while (lo + step < nlarge && large[lo + step - 1] < x) {
      lo += step;
      step <<= 1;
    }
    const size_t hi = std::min(nlarge, lo + step);
    // Binary search over the 8-lane blocks of [lo, hi) for the first block
    // whose maximum is >= x.
    const size_t nblocks = (hi - lo + 7) / 8;
    size_t a = 0;
    size_t b = nblocks;
    while (a < b) {
      const size_t m = (a + b) / 2;
      const size_t block_last = std::min(lo + m * 8 + 8, hi) - 1;
      if (large[block_last] < x) {
        a = m + 1;
      } else {
        b = m;
      }
    }
    if (a == nblocks) {
      // x exceeds every element of the window; if the window reached the end
      // of `large`, every later key does too.
      pos = hi;
      if (hi == nlarge) break;
      continue;
    }
    const size_t blk_lo = lo + a * 8;
    pos = blk_lo;
    bool found = false;
    if (blk_lo + 8 <= nlarge) {
      const __m256i key = _mm256_set1_epi32(static_cast<int>(x));
      const __m256i block =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(large + blk_lo));
      found = _mm256_movemask_ps(_mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(key, block))) != 0;
    } else {
      for (size_t p = blk_lo; p < nlarge && large[p] <= x; ++p) {
        if (large[p] == x) {
          found = true;
          break;
        }
      }
    }
    if (found) {
      if constexpr (!kCount) out[n] = x;
      ++n;
    }
  }
  return n;
}

}  // namespace

size_t MergeIntersectAvx2(const VertexID* a, size_t na, const VertexID* b,
                          size_t nb, VertexID* out) {
  return MergeAvx2<false>(a, na, b, nb, out);
}

size_t MergeCountAvx2(const VertexID* a, size_t na, const VertexID* b,
                      size_t nb) {
  return MergeAvx2<true>(a, na, b, nb, nullptr);
}

size_t GallopingIntersectAvx2(const VertexID* small, size_t nsmall,
                              const VertexID* large, size_t nlarge,
                              VertexID* out) {
  return GallopingAvx2<false>(small, nsmall, large, nlarge, out);
}

size_t GallopingCountAvx2(const VertexID* small, size_t nsmall,
                          const VertexID* large, size_t nlarge) {
  return GallopingAvx2<true>(small, nsmall, large, nlarge, nullptr);
}

}  // namespace light::internal
