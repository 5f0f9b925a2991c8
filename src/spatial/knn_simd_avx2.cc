// AVX2 kernels: 8 squared distances per iteration, fed either to a
// NeighborHeap (leaf_scan_avx2) or to the register-resident top-8 of the
// own-cell self-query (top8_scan_avx2). This TU is the only one compiled
// with -mavx2 (see VOLUT_SIMD in CMakeLists.txt), so AVX2 instructions
// cannot leak into code that runs before the cpuid dispatch.
#include "src/spatial/knn_simd.h"

#if defined(VOLUT_SIMD_X86)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "src/spatial/knn.h"

namespace volut {

namespace {

void leaf_scan_avx2(const float* x, const float* y, const float* z,
                    const std::uint32_t* idx, std::size_t count,
                    const Vec3f& query, std::uint32_t index_offset,
                    std::uint32_t exclude, NeighborHeap& heap) {
  const __m256 qx = _mm256_set1_ps(query.x);
  const __m256 qy = _mm256_set1_ps(query.y);
  const __m256 qz = _mm256_set1_ps(query.z);
  alignas(32) float d2s[8];
  for (std::size_t base = 0; base < count; base += 8) {
    const __m256 dx = _mm256_sub_ps(qx, _mm256_loadu_ps(x + base));
    const __m256 dy = _mm256_sub_ps(qy, _mm256_loadu_ps(y + base));
    const __m256 dz = _mm256_sub_ps(qz, _mm256_loadu_ps(z + base));
    // Explicit mul/add (never FMA) in the same association as
    // Vec3f::distance2: (dx*dx + dy*dy) + dz*dz.
    const __m256 d2 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
    // Prefilter with <=: a candidate at exactly the worst distance stays
    // live because the heap may accept it on the index tie-break. Padding
    // lanes measure +inf and fail once the heap is full; before that the
    // `limit` bound below keeps them out.
    const int keep = _mm256_movemask_ps(_mm256_cmp_ps(
        d2, _mm256_set1_ps(heap.worst_dist2()), _CMP_LE_OQ));
    if (keep == 0) continue;
    _mm256_store_ps(d2s, d2);
    const std::size_t limit = std::min<std::size_t>(8, count - base);
    for (std::size_t lane = 0; lane < limit; ++lane) {
      if (((keep >> lane) & 1) == 0) continue;
      const std::uint32_t reported = idx[base + lane] + index_offset;
      if (reported == exclude) continue;
      heap.push(reported, d2s[lane]);
    }
  }
}

/// Branch-free top-8: the k best (dist2, index) pairs live sorted in one
/// __m256 / __m256i pair for the whole leaf. Indices are biased by 2^31 so
/// the signed 32-bit compare orders them as unsigned; the sentinel
/// (+inf, UINT32_MAX) biases to INT32_MAX and sorts after every candidate.
std::uint32_t top8_scan_avx2(const float* x, const float* y, const float* z,
                             const std::uint32_t* idx, std::size_t count,
                             const Vec3f& query, std::uint32_t exclude,
                             std::size_t k, Top8& best) {
  const __m256i bias = _mm256_set1_epi32(std::numeric_limits<int>::min());
  const __m256i shift_up = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
  const __m256i worst_lane = _mm256_set1_epi32(static_cast<int>(k - 1));
  const __m256i excluded = _mm256_set1_epi32(static_cast<int>(exclude));
  const __m256 qx = _mm256_set1_ps(query.x);
  const __m256 qy = _mm256_set1_ps(query.y);
  const __m256 qz = _mm256_set1_ps(query.z);
  __m256 cd = _mm256_load_ps(best.dist2);
  __m256i ci = _mm256_xor_si256(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(best.index)), bias);
  __m256 worst = _mm256_permutevar8x32_ps(cd, worst_lane);
  std::uint32_t accepted = 0;
  for (std::size_t base = 0; base < count; base += 8) {
    const __m256 dx = _mm256_sub_ps(qx, _mm256_loadu_ps(x + base));
    const __m256 dy = _mm256_sub_ps(qy, _mm256_loadu_ps(y + base));
    const __m256 dz = _mm256_sub_ps(qz, _mm256_loadu_ps(z + base));
    const __m256 d2 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
    const __m256i ids = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + base));
    // Same <= prefilter as leaf_scan_avx2, minus padding lanes and the
    // excluded index.
    const std::size_t valid = std::min<std::size_t>(8, count - base);
    unsigned keep =
        static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_cmp_ps(d2, worst, _CMP_LE_OQ))) &
        ~static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(ids, excluded)))) &
        ((1u << valid) - 1u);
    const __m256i biased = _mm256_xor_si256(ids, bias);
    while (keep != 0) {
      const __m256i lane = _mm256_set1_epi32(__builtin_ctz(keep));
      keep &= keep - 1;
      const __m256 d = _mm256_permutevar8x32_ps(d2, lane);
      const __m256i i = _mm256_permutevar8x32_epi32(biased, lane);
      // Slots that sort after the candidate under (dist2, index) form a
      // suffix, since the slots are sorted. Each takes the larger of its
      // left neighbor and the candidate: the first takes the candidate,
      // the rest shift up one lane. An empty suffix (the candidate is no
      // better than slot 7) leaves the slots unchanged.
      const __m256 after = _mm256_or_ps(
          _mm256_cmp_ps(cd, d, _CMP_GT_OQ),
          _mm256_and_ps(_mm256_cmp_ps(cd, d, _CMP_EQ_OQ),
                        _mm256_castsi256_ps(_mm256_cmpgt_epi32(ci, i))));
      const __m256 shift = _mm256_blend_ps(
          _mm256_permutevar8x32_ps(after, shift_up), _mm256_setzero_ps(), 1);
      cd = _mm256_blendv_ps(_mm256_blendv_ps(cd, d, after),
                            _mm256_permutevar8x32_ps(cd, shift_up), shift);
      ci = _mm256_castps_si256(_mm256_blendv_ps(
          _mm256_blendv_ps(_mm256_castsi256_ps(ci), _mm256_castsi256_ps(i),
                           after),
          _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(ci, shift_up)),
          shift));
      // Accepted into the top k: slot k-1 sorted after the candidate.
      accepted += (static_cast<unsigned>(_mm256_movemask_ps(after)) >>
                   (k - 1)) & 1u;
      worst = _mm256_permutevar8x32_ps(cd, worst_lane);
    }
  }
  _mm256_store_ps(best.dist2, cd);
  _mm256_store_si256(reinterpret_cast<__m256i*>(best.index),
                     _mm256_xor_si256(ci, bias));
  return accepted;
}

}  // namespace

LeafScanFn avx2_leaf_scan_kernel() { return &leaf_scan_avx2; }
Top8ScanFn avx2_top8_scan_kernel() { return &top8_scan_avx2; }

}  // namespace volut

#else  // !VOLUT_SIMD_X86

namespace volut {
LeafScanFn avx2_leaf_scan_kernel() { return nullptr; }
Top8ScanFn avx2_top8_scan_kernel() { return nullptr; }
}  // namespace volut

#endif
