// Runtime-dispatched SIMD leaf-scan kernels for the batch-kNN hot path.
//
// Stage-1 kNN dominates the SR frame budget (ROADMAP: knn_ms ~ 50x
// interp_ms), and nearly all of that time is spent measuring candidate
// distances inside kd-tree leaves / octree cells. The paper's GPU client
// (§4.1) brute-force-scans an octree cell with thousands of threads; the CPU
// substrate equivalent is a vectorized leaf scan: every kd-tree leaf keeps an
// SoA mirror of its points (x[]/y[]/z[] contiguous, padded to kSoaLeafPad),
// and the scan computes 8 squared distances per iteration with AVX2 (1
// scalar) before feeding survivors to the shared NeighborHeap.
//
// Dispatch is resolved once per process: the CPU is cpuid-probed for the
// highest level this binary carries kernels for, and the VOLUT_SIMD
// environment variable (avx2|scalar) clamps it down for A/B runs.
// Tests and benches switch levels in-process via simd_force_level().
//
// Every level is bit-identical to every other: kernels use the exact
// (q - p) -> dx*dx + dy*dy + dz*dz arithmetic of Vec3f::distance2 (no FMA
// contraction — explicit mul/add intrinsics), the prefilter keeps candidates
// at exactly the worst distance (the heap may still accept them on the index
// tie-break), and the heap's (distance, index) total order makes the kept
// set independent of scan order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/core/vec3.h"

namespace volut {

class NeighborHeap;

/// Vector-dispatch level, ordered by width. kAvx2 > kScalar.
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

/// SoA leaves are padded to a multiple of this many points (the AVX2 lane
/// count) with +inf coordinates, so every kernel reads whole vectors without
/// a scalar tail loop.
inline constexpr std::size_t kSoaLeafPad = 8;

/// One leaf scan: measures `count` candidates laid out in SoA arrays (padded
/// to kSoaLeafPad; padding lanes hold +inf coordinates and are never
/// reported) against `query` and pushes `idx[i] + index_offset` into `heap`,
/// skipping the candidate whose offset index equals `exclude`.
using LeafScanFn = void (*)(const float* x, const float* y, const float* z,
                            const std::uint32_t* idx, std::size_t count,
                            const Vec3f& query, std::uint32_t index_offset,
                            std::uint32_t exclude, NeighborHeap& heap);

/// The best (up to) 8 candidates of one query, sorted ascending under
/// Neighbor's (dist2, index) order. Unused slots hold the sentinel
/// (+inf, UINT32_MAX), which sorts after every real candidate. The top-8
/// kernel keeps this in one __m256 / __m256i pair while it scans a leaf.
struct alignas(32) Top8 {
  static constexpr std::size_t kSlots = 8;
  float dist2[kSlots];
  std::uint32_t index[kSlots];

  /// Fills every slot with the sentinel.
  void reset() {
    for (std::size_t s = 0; s < kSlots; ++s) {
      dist2[s] = std::numeric_limits<float>::infinity();
      index[s] = std::numeric_limits<std::uint32_t>::max();
    }
  }
};

/// One leaf scan into a Top8 holding the k (<= 8) best so far: same inputs
/// and arithmetic as LeafScanFn (no index offset), but candidates are
/// inserted branch-free into registers instead of a NeighborHeap. A
/// candidate is accepted only when it sorts before slot k-1, so slots
/// [0, k) always hold the k smallest (dist2, index) pairs seen, exactly as
/// a k-slot NeighborHeap would. Returns the number of accepted candidates.
using Top8ScanFn = std::uint32_t (*)(const float* x, const float* y,
                                     const float* z, const std::uint32_t* idx,
                                     std::size_t count, const Vec3f& query,
                                     std::uint32_t exclude, std::size_t k,
                                     Top8& best);

const char* simd_level_name(SimdLevel level);

/// True when this binary has a kernel for `level` AND the host CPU can run
/// it. kScalar is always available.
bool simd_available(SimdLevel level);

/// Highest available level on this host (the cpuid probe, resolved once).
SimdLevel simd_detected_level();

/// The level the next search will dispatch to: a forced level if set,
/// otherwise simd_detected_level() clamped by VOLUT_SIMD (read once).
SimdLevel simd_active_level();

/// Forces dispatch to `level` for this process (tests/benches comparing
/// levels in-process). Returns false — and changes nothing — when the level
/// is unavailable. Not synchronized with concurrent searches; switch only
/// between batches.
bool simd_force_level(SimdLevel level);

/// Drops the forced level, returning dispatch to the env/cpuid default.
void simd_clear_forced_level();

/// The kernel for `level` (scalar fallback when that level was not compiled
/// in), and the one simd_active_level() currently selects.
LeafScanFn leaf_scan_kernel(SimdLevel level);
LeafScanFn active_leaf_scan();

/// The top-8 kernel when the active level is AVX2, else nullptr: scalar
/// searches keep the NeighborHeap leaf scan.
Top8ScanFn active_top8_scan();

/// Per-arch kernel getters, defined in knn_simd_avx2.cc (the only TU built
/// with -mavx2). Return nullptr when the backend was compiled out (non-x86
/// target or -DVOLUT_SIMD=OFF).
LeafScanFn avx2_leaf_scan_kernel();
Top8ScanFn avx2_top8_scan_kernel();

}  // namespace volut
