#include "src/spatial/knn_simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/spatial/knn.h"

namespace volut {

namespace {

/// Scalar reference kernel: the oracle every vector level must match bit for
/// bit. The (query - point) -> dx*dx + dy*dy + dz*dz expression is exactly
/// Vec3f::distance2 (left-to-right float sums), which is what the recursive
/// search used before the SoA rewrite.
void leaf_scan_scalar(const float* x, const float* y, const float* z,
                      const std::uint32_t* idx, std::size_t count,
                      const Vec3f& query, std::uint32_t index_offset,
                      std::uint32_t exclude, NeighborHeap& heap) {
  for (std::size_t i = 0; i < count; ++i) {
    const float dx = query.x - x[i];
    const float dy = query.y - y[i];
    const float dz = query.z - z[i];
    const std::uint32_t reported = idx[i] + index_offset;
    if (reported == exclude) continue;
    heap.push(reported, dx * dx + dy * dy + dz * dz);
  }
}

bool cpu_supports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

/// VOLUT_SIMD env clamp: an explicit lower level is honored, an unavailable
/// or unrecognized request degrades to `detected` with a one-time warning
/// (never an error — the binary must run everywhere it builds).
SimdLevel env_clamped(SimdLevel detected) {
  // Probed once (static-init of the dispatch level), never re-read while
  // threads run.
  const char* env = std::getenv("VOLUT_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || *env == '\0') return detected;
  SimdLevel requested = detected;
  if (std::strcmp(env, "scalar") == 0) {
    requested = SimdLevel::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = SimdLevel::kAvx2;
  } else {
    std::fprintf(stderr,
                 "VOLUT_SIMD=%s not recognized (want avx2|scalar); "
                 "using %s\n",
                 env, simd_level_name(detected));
    return detected;
  }
  if (!simd_available(requested)) {
    std::fprintf(stderr, "VOLUT_SIMD=%s unavailable on this host; using %s\n",
                 env, simd_level_name(detected));
    return detected;
  }
  return requested;
}

/// -1 = no forced level; otherwise the int value of the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool simd_available(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return cpu_supports(level) && avx2_leaf_scan_kernel() != nullptr;
  }
  return false;
}

SimdLevel simd_detected_level() {
  static const SimdLevel detected = [] {
    if (simd_available(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    return SimdLevel::kScalar;
  }();
  return detected;
}

SimdLevel simd_active_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  static const SimdLevel resolved = env_clamped(simd_detected_level());
  return resolved;
}

bool simd_force_level(SimdLevel level) {
  if (!simd_available(level)) return false;
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

void simd_clear_forced_level() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

LeafScanFn leaf_scan_kernel(SimdLevel level) {
  LeafScanFn fn = nullptr;
  switch (level) {
    case SimdLevel::kAvx2:
      fn = avx2_leaf_scan_kernel();
      break;
    case SimdLevel::kScalar:
      break;
  }
  return fn != nullptr ? fn : &leaf_scan_scalar;
}

LeafScanFn active_leaf_scan() { return leaf_scan_kernel(simd_active_level()); }

Top8ScanFn active_top8_scan() {
  return simd_active_level() == SimdLevel::kAvx2 ? avx2_top8_scan_kernel()
                                                 : nullptr;
}

}  // namespace volut
