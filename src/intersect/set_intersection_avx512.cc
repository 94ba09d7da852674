// AVX-512 implementations of the Merge and Galloping kernels — an extension
// beyond the paper's AVX2 implementation (Section VII-A notes LIGHT should
// exploit the SIMD width the CPU offers). The 16-lane merge uses
// VPCONFLICT-free all-pairs comparison via lane rotations and mask
// compress-stores, which AVX-512 provides natively
// (_mm512_mask_compressstoreu_epi32), removing AVX2's shuffle-table lookup.

#include <immintrin.h>

#include <algorithm>

// GCC's -Wmaybe-uninitialized fires inside avx512fintrin.h on the
// _mm512_undefined_epi32() backing unmasked permutes (GCC bug 105593); the
// uninitialized read is the intrinsic's documented contract, not a bug here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "intersect/set_intersection.h"

namespace light::internal {
namespace {

// Lane-rotation index vectors for rotating a 16-lane vector left by r.
inline __m512i Rotate1(__m512i v) {
  const __m512i idx = _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                        13, 14, 15, 0);
  return _mm512_permutexvar_epi32(idx, v);
}

// 16-bit mask with bit i set iff a_vec[i] occurs anywhere in b_vec.
inline __mmask16 AllPairsEq(__m512i a_vec, __m512i b_vec) {
  __mmask16 match = _mm512_cmpeq_epi32_mask(a_vec, b_vec);
  __m512i rotated = b_vec;
  for (int r = 1; r < 16; ++r) {
    rotated = Rotate1(rotated);
    match |= _mm512_cmpeq_epi32_mask(a_vec, rotated);
  }
  return match;
}

// kCount = true counts the matches and stores nothing (out is unused). The
// compress-store writes only the matched lanes, so `out` needs no slack.
template <bool kCount>
size_t MergeAvx512(const VertexID* a, size_t na, const VertexID* b, size_t nb,
                   VertexID* out) {
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i + 16 <= na && j + 16 <= nb) {
    const __m512i a_vec =
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + i));
    const __m512i b_vec =
        _mm512_loadu_si512(reinterpret_cast<const void*>(b + j));
    const __mmask16 match = AllPairsEq(a_vec, b_vec);
    if constexpr (kCount) {
      n += static_cast<size_t>(__builtin_popcount(match));
    } else if (match != 0) {
      _mm512_mask_compressstoreu_epi32(out + n, match, a_vec);
      n += static_cast<size_t>(__builtin_popcount(match));
    }
    const VertexID a_max = a[i + 15];
    const VertexID b_max = b[j + 15];
    if (a_max <= b_max) i += 16;
    if (b_max <= a_max) j += 16;
  }
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
size_t GallopingAvx512(const VertexID* small, size_t nsmall,
                       const VertexID* large, size_t nlarge, VertexID* out) {
  size_t n = 0;
  size_t pos = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    const VertexID x = small[i];
    size_t step = 16;
    size_t lo = pos;
    while (lo + step < nlarge && large[lo + step - 1] < x) {
      lo += step;
      step <<= 1;
    }
    const size_t hi = std::min(nlarge, lo + step);
    // Binary search over the 16-lane blocks of [lo, hi) for the first block
    // whose maximum is >= x.
    const size_t nblocks = (hi - lo + 15) / 16;
    size_t a = 0;
    size_t b = nblocks;
    while (a < b) {
      const size_t m = (a + b) / 2;
      const size_t block_last = std::min(lo + m * 16 + 16, hi) - 1;
      if (large[block_last] < x) {
        a = m + 1;
      } else {
        b = m;
      }
    }
    if (a == nblocks) {
      pos = hi;
      if (hi == nlarge) break;
      continue;
    }
    const size_t blk_lo = lo + a * 16;
    pos = blk_lo;
    bool found = false;
    if (blk_lo + 16 <= nlarge) {
      const __m512i key = _mm512_set1_epi32(static_cast<int>(x));
      const __m512i block =
          _mm512_loadu_si512(reinterpret_cast<const void*>(large + blk_lo));
      found = _mm512_cmpeq_epi32_mask(key, block) != 0;
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

size_t MergeIntersectAvx512(const VertexID* a, size_t na, const VertexID* b,
                            size_t nb, VertexID* out) {
  return MergeAvx512<false>(a, na, b, nb, out);
}

size_t MergeCountAvx512(const VertexID* a, size_t na, const VertexID* b,
                        size_t nb) {
  return MergeAvx512<true>(a, na, b, nb, nullptr);
}

size_t GallopingIntersectAvx512(const VertexID* small, size_t nsmall,
                                const VertexID* large, size_t nlarge,
                                VertexID* out) {
  return GallopingAvx512<false>(small, nsmall, large, nlarge, out);
}

size_t GallopingCountAvx512(const VertexID* small, size_t nsmall,
                            const VertexID* large, size_t nlarge) {
  return GallopingAvx512<true>(small, nsmall, large, nlarge, nullptr);
}

}  // namespace light::internal
