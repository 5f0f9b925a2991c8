// Determinism suite for the SR hot path: interpolate() must be a pure
// function of (input, config) — bit-identical output for any ThreadPool
// worker count (the counter-based stage-2 schedule), for reused vs fresh
// scratch buffers, and stable in the documented ways across ratios.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/obs/trace.h"
#include "src/platform/thread_pool.h"
#include "src/spatial/knn_simd.h"
#include "src/sr/interpolation.h"

namespace volut {
namespace {

PointCloud test_cloud(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PointCloud pc;
  for (std::size_t i = 0; i < n; ++i) {
    pc.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)},
                 Color{std::uint8_t(rng.next(256)), std::uint8_t(rng.next(256)),
                       std::uint8_t(rng.next(256))});
  }
  return pc;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Everything deterministic about an interpolation result: positions,
/// colors, parents and the neighbor lists of every new point.
std::uint64_t fingerprint(const InterpolationResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(r.cloud.positions().data(), r.cloud.size() * sizeof(Vec3f), h);
  h = fnv1a(r.cloud.colors().data(), r.cloud.size() * sizeof(Color), h);
  h = fnv1a(r.parents.data(),
            r.parents.size() * sizeof(std::array<std::uint32_t, 2>), h);
  for (std::size_t j = 0; j < r.new_neighbors.size(); ++j) {
    // Field by field: Neighbor has tail padding after dist2, and those
    // bytes are whatever the writer's stack or register held, not output.
    for (const Neighbor& nb : r.new_neighbors[j]) {
      h = fnv1a(&nb.index, sizeof(nb.index), h);
      h = fnv1a(&nb.dist2, sizeof(nb.dist2), h);
    }
  }
  return h;
}

struct PathCase {
  bool octree;
  bool reuse;
};

class InterpolateThreadDeterminismTest
    : public ::testing::TestWithParam<PathCase> {};

TEST_P(InterpolateThreadDeterminismTest, BitIdenticalAcrossWorkerCounts) {
  const PathCase param = GetParam();
  const PointCloud pc = test_cloud(3000, 21);
  InterpolationConfig cfg;
  cfg.k = 4;
  cfg.dilation = 2;
  cfg.use_octree = param.octree;
  cfg.reuse_neighbors = param.reuse;
  const std::uint64_t serial = fingerprint(interpolate(pc, 2.7, cfg));
  // Watch-list instrumentation: this case (octree_fresh in particular) has
  // flaked before, and a bare EXPECT_EQ of two hashes is undebuggable from
  // a CI log. Each pooled run is traced; on mismatch the per-worker
  // fingerprints and the mismatching run's spans (octree build, counting
  // sort, kNN stages) go to stderr so the schedule that diverged is visible.
  std::vector<std::pair<std::size_t, std::uint64_t>> seen{{0u, serial}};
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    TraceCollector& collector = TraceCollector::global();
    collector.start();
    ThreadPool pool(workers);
    const std::uint64_t fp = fingerprint(interpolate(pc, 2.7, cfg, &pool));
    collector.stop();
    seen.emplace_back(workers, fp);
    EXPECT_EQ(fp, serial) << workers << " workers";
    if (fp != serial) {
      std::fprintf(stderr,
                   "=== determinism mismatch: %s_%s @ %zu workers ===\n",
                   param.octree ? "octree" : "kdtree",
                   param.reuse ? "reuse" : "fresh", workers);
      for (const auto& [w, hash] : seen) {
        std::fprintf(stderr, "  fingerprint[%zu workers]: %016llx%s\n", w,
                     (unsigned long long)hash,
                     hash == serial ? "" : "  <-- diverged");
      }
      std::fprintf(stderr,
                   "--- trace spans of the mismatching run ---\n%s\n",
                   collector.to_json().c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, InterpolateThreadDeterminismTest,
    ::testing::Values(PathCase{true, true}, PathCase{true, false},
                      PathCase{false, true}, PathCase{false, false}),
    [](const auto& info) {
      return std::string(info.param.octree ? "octree" : "kdtree") +
             (info.param.reuse ? "_reuse" : "_fresh");
    });

TEST(SimdDeterminismTest, InterpolateBitIdenticalAcrossSimdLevelsAndWorkers) {
  // The full SR stage-1..3 pipeline must fingerprint identically whichever
  // leaf-scan kernel the kNN dispatch picks, at every worker count — the
  // end-to-end form of the SIMD exactness contract (spatial_test checks the
  // buffers directly).
  struct Guard {
    ~Guard() { simd_clear_forced_level(); }
  } guard;
  const PointCloud pc = test_cloud(3000, 27);
  InterpolationConfig cfg;
  cfg.k = 4;
  cfg.dilation = 2;
  for (const bool use_octree : {false, true}) {
    cfg.use_octree = use_octree;
    ASSERT_TRUE(simd_force_level(SimdLevel::kScalar));
    const std::uint64_t reference = fingerprint(interpolate(pc, 2.7, cfg));
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      if (!simd_available(level)) continue;
      ASSERT_TRUE(simd_force_level(level));
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(workers);
        const std::uint64_t fp = fingerprint(
            interpolate(pc, 2.7, cfg, workers > 1 ? &pool : nullptr));
        EXPECT_EQ(fp, reference)
            << simd_level_name(level) << " x " << workers << " workers, "
            << (use_octree ? "octree" : "kdtree");
      }
    }
    simd_clear_forced_level();
  }
}

/// A cloud drawn from CounterRng only: unlike Rng's std:: distributions, its
/// draws are the same on every standard library, so fingerprints of results
/// built from it can be pinned as constants.
PointCloud counter_rng_cloud(std::size_t n, std::uint64_t seed) {
  CounterRng rng(seed);
  PointCloud pc;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3f p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    pc.push_back(p, Color{std::uint8_t(rng.next(256)),
                          std::uint8_t(rng.next(256)),
                          std::uint8_t(rng.next(256))});
  }
  return pc;
}

TEST(SrGoldenTest, OctreeReuseFingerprintsArePinned) {
  // The production SR configuration (own-cell octree kNN + neighbor reuse,
  // k = 4, d = 2 — an 8-wide dilated neighborhood) at ratios 2 and 4. The
  // constants were captured before the own-cell kNN moved to the leaf-order
  // self-query with its top-8 kernel, so they pin SR output to the earlier
  // per-query search byte for byte, not merely to itself.
  const PointCloud pc = counter_rng_cloud(4000, 2024);
  InterpolationConfig cfg;
  cfg.k = 4;
  cfg.dilation = 2;
  cfg.use_octree = true;
  cfg.reuse_neighbors = true;
  struct Golden {
    double ratio;
    std::uint64_t fingerprint;
  };
  for (const Golden& g : {Golden{2.0, 0xc74d4ba5ed213081ull},
                        Golden{4.0, 0x72a4dc500e4ab292ull}}) {
    const InterpolationResult r = interpolate(pc, g.ratio, cfg);
    EXPECT_EQ(fingerprint(r), g.fingerprint)
        << "ratio " << g.ratio << ": got 0x" << std::hex << fingerprint(r);
    ThreadPool pool(4);
    EXPECT_EQ(fingerprint(interpolate(pc, g.ratio, cfg, &pool)),
              g.fingerprint)
        << "ratio " << g.ratio << " on 4 workers";
  }
}

TEST(InterpolateScratchTest, ReusedScratchMatchesFreshScratch) {
  const PointCloud pc = test_cloud(2000, 22);
  InterpolationConfig cfg;
  const std::uint64_t fresh = fingerprint(interpolate(pc, 2.0, cfg));
  InterpolationScratch scratch;
  InterpolationResult reused;
  for (int frame = 0; frame < 3; ++frame) {
    interpolate_into(pc, 2.0, cfg, reused, nullptr, &scratch);
    EXPECT_EQ(fingerprint(reused), fresh) << "frame " << frame;
  }
}

TEST(InterpolateScratchTest, ScratchSurvivesShapeChanges) {
  // Shrinking and regrowing the workload through one scratch must not leak
  // state (stale counts, old schedule tables) between frames.
  InterpolationScratch scratch;
  InterpolationResult r;
  InterpolationConfig cfg;
  const PointCloud big = test_cloud(4000, 23);
  const PointCloud small = test_cloud(150, 24);
  interpolate_into(big, 3.0, cfg, r, nullptr, &scratch);
  const std::uint64_t big_fp = fingerprint(r);
  interpolate_into(small, 1.5, cfg, r, nullptr, &scratch);
  EXPECT_EQ(fingerprint(r), fingerprint(interpolate(small, 1.5, cfg)));
  interpolate_into(big, 3.0, cfg, r, nullptr, &scratch);
  EXPECT_EQ(fingerprint(r), big_fp);
}

TEST(InterpolateScratchTest, PoolPlusScratchMatchesSerialFresh) {
  const PointCloud pc = test_cloud(2500, 25);
  InterpolationConfig cfg;
  const std::uint64_t reference = fingerprint(interpolate(pc, 2.3, cfg));
  ThreadPool pool(4);
  InterpolationScratch scratch;
  InterpolationResult r;
  interpolate_into(pc, 2.3, cfg, r, &pool, &scratch);
  EXPECT_EQ(fingerprint(r), reference);
}

TEST(InterpolateRatioTest, PartnerStreamsExtendAcrossRatios) {
  // The (seed, source) partner streams are counter-based, so raising the
  // ratio extends each source's partner sequence instead of reshuffling it:
  // the first full pass of a low-ratio run reappears verbatim in a
  // high-ratio run.
  const PointCloud pc = test_cloud(800, 26);
  InterpolationConfig cfg;
  const auto lo = interpolate(pc, 1.5, cfg);
  const auto hi = interpolate(pc, 4.0, cfg);
  ASSERT_LE(lo.new_count(), hi.new_count());
  // Ratio 1.5 on 800 sources is a partial first pass: 400 midpoints, all
  // from pass 0 — the same (source, partner) pairs lead both schedules.
  for (std::size_t j = 0; j < lo.new_count(); ++j) {
    EXPECT_EQ(lo.parents[j], hi.parents[j]) << "slot " << j;
  }
}

TEST(CounterRngTest, PureFunctionOfSeedStreamCounter) {
  CounterRng a(42, 7);
  CounterRng b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Random access: starting at counter 50 reproduces the tail.
  CounterRng tail(42, 7, 50);
  CounterRng full(42, 7);
  for (int i = 0; i < 50; ++i) full.next_u64();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(tail.next_u64(), full.next_u64());
}

TEST(CounterRngTest, StreamsAreIndependent) {
  CounterRng a(42, 0);
  CounterRng b(42, 1);
  CounterRng c(43, 0);
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next_u64();
    if (va == b.next_u64()) ++collisions;
    if (va == c.next_u64()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(CounterRngTest, BoundedDrawsInRange) {
  CounterRng rng(1, 2);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next(n), n);
  }
  CounterRng u(3);
  for (int i = 0; i < 200; ++i) {
    const float f = u.uniform();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

}  // namespace
}  // namespace volut
