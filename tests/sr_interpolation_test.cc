// Tests for stage 1 of the SR pipeline: dilated interpolation, neighbor
// reuse, colorization.
#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "src/data/synthetic_video.h"
#include "src/metrics/chamfer.h"
#include "src/sr/interpolation.h"

namespace volut {
namespace {

PointCloud test_cloud(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  PointCloud pc;
  for (std::size_t i = 0; i < n; ++i) {
    pc.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)},
                 Color{std::uint8_t(rng.next(256)), 0, 0});
  }
  return pc;
}

TEST(InterpolationTest, RatioOneIsIdentity) {
  const PointCloud pc = test_cloud(100);
  const auto result = interpolate(pc, 1.0, InterpolationConfig{});
  EXPECT_EQ(result.cloud.size(), 100u);
  EXPECT_EQ(result.new_count(), 0u);
}

TEST(InterpolationTest, TinyCloudsPassThrough) {
  PointCloud one;
  one.push_back({0, 0, 0});
  const auto result = interpolate(one, 4.0, InterpolationConfig{});
  EXPECT_EQ(result.cloud.size(), 1u);
  const auto empty = interpolate(PointCloud{}, 2.0, InterpolationConfig{});
  EXPECT_TRUE(empty.cloud.empty());
}

class InterpolationRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(InterpolationRatioTest, ProducesRequestedPointCount) {
  const double ratio = GetParam();
  const PointCloud pc = test_cloud(500, 7);
  const auto result = interpolate(pc, ratio, InterpolationConfig{});
  const auto expected = std::size_t(std::llround(500.0 * ratio));
  EXPECT_NEAR(double(result.cloud.size()), double(expected), 1.0);
  EXPECT_EQ(result.original_count, 500u);
  EXPECT_EQ(result.parents.size(), result.new_count());
  EXPECT_EQ(result.new_neighbors.size(), result.new_count());
}

INSTANTIATE_TEST_SUITE_P(RatioSweep, InterpolationRatioTest,
                         ::testing::Values(1.25, 1.5, 2.0, 2.7, 4.0, 6.0,
                                           8.0),
                         [](const auto& info) {
                           return "r" + std::to_string(int(
                                            info.param * 100));
                         });

TEST(InterpolationTest, NewPointsAreMidpointsOfParents) {
  const PointCloud pc = test_cloud(200, 8);
  const auto result = interpolate(pc, 2.0, InterpolationConfig{});
  for (std::size_t j = 0; j < result.new_count(); ++j) {
    const auto [pi, qi] = result.parents[j];
    const Vec3f expect = midpoint(pc.position(pi), pc.position(qi));
    EXPECT_LT(distance(result.cloud.position(result.original_count + j),
                       expect),
              1e-6f);
  }
}

TEST(InterpolationTest, DeterministicForFixedSeed) {
  const PointCloud pc = test_cloud(300, 9);
  InterpolationConfig cfg;
  cfg.seed = 77;
  const auto a = interpolate(pc, 3.0, cfg);
  const auto b = interpolate(pc, 3.0, cfg);
  ASSERT_EQ(a.cloud.size(), b.cloud.size());
  for (std::size_t i = 0; i < a.cloud.size(); i += 11) {
    EXPECT_EQ(a.cloud.position(i), b.cloud.position(i));
  }
}

TEST(InterpolationTest, OctreeAndKdtreePathsBothValid) {
  const PointCloud pc = test_cloud(400, 10);
  InterpolationConfig oct;
  oct.use_octree = true;
  InterpolationConfig kdt;
  kdt.use_octree = false;
  const auto a = interpolate(pc, 2.0, oct);
  const auto b = interpolate(pc, 2.0, kdt);
  // Both produce the requested density; the random partner choice may
  // differ, but both must be valid midpoint sets of the source.
  EXPECT_EQ(a.cloud.size(), b.cloud.size());
}

TEST(InterpolationTest, ParallelMatchesSerialPointCount) {
  const PointCloud pc = test_cloud(3000, 11);
  InterpolationConfig cfg;
  ThreadPool pool(4);
  const auto serial = interpolate(pc, 2.0, cfg, nullptr);
  const auto parallel = interpolate(pc, 2.0, cfg, &pool);
  ASSERT_EQ(serial.cloud.size(), parallel.cloud.size());
  // Midpoint generation is deterministic; positions must match exactly.
  for (std::size_t i = 0; i < serial.cloud.size(); i += 101) {
    EXPECT_EQ(serial.cloud.position(i), parallel.cloud.position(i));
  }
}

TEST(InterpolationTest, DilationImprovesUniformity) {
  // Build a cloud with a dense blob and a sparse region; dilated
  // interpolation should spread new points more evenly (lower Chamfer to a
  // dense ground truth of the same surface).
  const SyntheticVideo video(VideoSpec::dress(0.05));
  const PointCloud gt = video.frame(0);
  Rng rng(12);
  const PointCloud low = gt.random_downsample(0.25f, rng);

  InterpolationConfig d1;
  d1.k = 4;
  d1.dilation = 1;
  InterpolationConfig d2 = d1;
  d2.dilation = 2;
  const auto up1 = interpolate(low, 4.0, d1);
  const auto up2 = interpolate(low, 4.0, d2);
  const double cd1 = chamfer_distance(up1.cloud, gt);
  const double cd2 = chamfer_distance(up2.cloud, gt);
  // Paper Figures 8/10: dilation reduces geometric discrepancy.
  EXPECT_LT(cd2, cd1 * 1.02);
}

TEST(InterpolationTest, ReusedNeighborsCloseToExact) {
  const PointCloud pc = test_cloud(600, 13);
  InterpolationConfig reuse;
  reuse.reuse_neighbors = true;
  InterpolationConfig fresh;
  fresh.reuse_neighbors = false;
  const auto a = interpolate(pc, 2.0, reuse);
  const auto b = interpolate(pc, 2.0, fresh);
  ASSERT_EQ(a.new_count(), b.new_count());
  // Compare reused neighbor distances against exact: mean inflation small.
  double reuse_sum = 0.0, exact_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t j = 0; j < a.new_count(); ++j) {
    for (std::size_t s = 0; s < std::min(a.new_neighbors[j].size(),
                                         b.new_neighbors[j].size());
         ++s) {
      reuse_sum += std::sqrt(double(a.new_neighbors[j][s].dist2));
      exact_sum += std::sqrt(double(b.new_neighbors[j][s].dist2));
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(reuse_sum / double(n), exact_sum / double(n) * 1.15);
}

TEST(InterpolationTest, ColorizationUsesNearestOriginal) {
  PointCloud pc;
  pc.push_back({0, 0, 0}, Color{10, 0, 0});
  pc.push_back({1, 0, 0}, Color{200, 0, 0});
  pc.push_back({0.1f, 0, 0}, Color{20, 0, 0});
  pc.push_back({0.9f, 0, 0}, Color{190, 0, 0});
  InterpolationConfig cfg;
  cfg.k = 2;
  const auto result = interpolate(pc, 1.5, cfg);
  for (std::size_t j = 0; j < result.new_count(); ++j) {
    const Vec3f& p = result.cloud.position(result.original_count + j);
    // Nearest original color: one of the four inputs, matching the side the
    // midpoint lies on.
    const Color c = result.cloud.color(result.original_count + j);
    float best = 1e9f;
    Color want{};
    for (std::size_t i = 0; i < 4; ++i) {
      const float d = distance(p, pc.position(i));
      if (d < best) {
        best = d;
        want = pc.color(i);
      }
    }
    EXPECT_EQ(c, want);
  }
}

TEST(InterpolationTest, TimingBreakdownPopulated) {
  const PointCloud pc = test_cloud(2000, 14);
  const auto result = interpolate(pc, 2.0, InterpolationConfig{});
  EXPECT_GT(result.timing.knn_ms, 0.0);
  EXPECT_GT(result.timing.interpolate_ms, 0.0);
  EXPECT_GE(result.timing.colorize_ms, 0.0);
  EXPECT_GT(result.timing.total_ms(), 0.0);
}

TEST(InterpolationTest, HighRatioExhaustsPartnersGracefully) {
  // 20 points, ratio 30: more new points than distinct (source, partner)
  // pairs with k*d = 8; the loop must terminate and produce what it can.
  const PointCloud pc = test_cloud(20, 15);
  InterpolationConfig cfg;
  cfg.k = 4;
  cfg.dilation = 2;
  const auto result = interpolate(pc, 30.0, cfg);
  EXPECT_GT(result.new_count(), 100u);       // made real progress
  EXPECT_LE(result.cloud.size(), 20u * 30u); // but never overshoots
}

}  // namespace
}  // namespace volut
