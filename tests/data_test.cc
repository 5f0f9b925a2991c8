// Tests for synthetic videos, motion traces and viewport utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "src/data/motion_trace.h"
#include "src/data/synthetic_video.h"
#include "src/data/viewport.h"

namespace volut {
namespace {

TEST(VideoSpecTest, PaperScaleDefaults) {
  const auto dress = VideoSpec::dress();
  EXPECT_EQ(dress.frame_count, 300u);
  EXPECT_EQ(dress.points_per_frame, 100'000u);
  EXPECT_EQ(dress.loops, 10);
  EXPECT_EQ(dress.total_frames(), 3000u);
  EXPECT_NEAR(dress.duration_seconds(), 100.0, 1e-9);

  EXPECT_EQ(VideoSpec::haggle().frame_count, 7800u);
  EXPECT_EQ(VideoSpec::lab().frame_count, 3622u);
  EXPECT_EQ(VideoSpec::all().size(), 4u);
}

TEST(VideoSpecTest, ScaleShrinksButKeepsMinimums) {
  const auto tiny = VideoSpec::dress(0.001);
  EXPECT_GE(tiny.frame_count, 10u);
  EXPECT_GE(tiny.points_per_frame, 500u);
  EXPECT_LT(tiny.points_per_frame, 100'000u);
}

TEST(VideoIdTest, NameRoundTrip) {
  for (auto id : {VideoId::kDress, VideoId::kLoot, VideoId::kHaggle,
                  VideoId::kLab}) {
    EXPECT_EQ(video_id_from_name(video_name(id)), id);
  }
  EXPECT_THROW(video_id_from_name("nope"), std::invalid_argument);
}

class SyntheticVideoTest : public ::testing::TestWithParam<VideoId> {};

TEST_P(SyntheticVideoTest, FramesAreDeterministic) {
  const SyntheticVideo video(VideoSpec::by_id(GetParam(), 0.01));
  const PointCloud a = video.frame(3);
  const PointCloud b = video.frame(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 37) {
    EXPECT_EQ(a.position(i), b.position(i));
    EXPECT_EQ(a.color(i), b.color(i));
  }
}

TEST_P(SyntheticVideoTest, FrameHasRequestedDensity) {
  const auto spec = VideoSpec::by_id(GetParam(), 0.01);
  const SyntheticVideo video(spec);
  const PointCloud frame = video.frame(0);
  // Part splits round down; allow a small shortfall.
  EXPECT_GE(frame.size(), spec.points_per_frame * 9 / 10);
  EXPECT_LE(frame.size(), spec.points_per_frame);
  const PointCloud coarse = video.frame_at_density(0, 200);
  EXPECT_LE(coarse.size(), 200u);
  EXPECT_GE(coarse.size(), 150u);
}

TEST_P(SyntheticVideoTest, ContentIsHumanScaleAndMoves) {
  const SyntheticVideo video(VideoSpec::by_id(GetParam(), 0.01));
  const PointCloud f0 = video.frame(0);
  const AABB box = f0.bounds();
  EXPECT_GT(box.diagonal(), 0.5f);
  EXPECT_LT(box.diagonal(), 10.0f);
  // Some temporal deformation: centroid or spread changes across the loop.
  const auto spec = video.spec();
  const PointCloud mid = video.frame(spec.frame_count / 2);
  EXPECT_GT(distance(f0.centroid(), mid.centroid()) +
                std::abs(f0.bounds().diagonal() - mid.bounds().diagonal()),
            1e-4f);
}

TEST_P(SyntheticVideoTest, LoopingWrapsFrameIndex) {
  const auto spec = VideoSpec::by_id(GetParam(), 0.01);
  const SyntheticVideo video(spec);
  const PointCloud a = video.frame(1);
  const PointCloud b = video.frame(1 + spec.frame_count);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.position(0), b.position(0));
}

INSTANTIATE_TEST_SUITE_P(AllVideos, SyntheticVideoTest,
                         ::testing::Values(VideoId::kDress, VideoId::kLoot,
                                           VideoId::kHaggle, VideoId::kLab),
                         [](const auto& info) {
                           return video_name(info.param);
                         });

TEST(MotionTraceTest, GeneratesRequestedLength) {
  MotionTraceSpec spec;
  spec.frames = 120;
  const MotionTrace trace = MotionTrace::generate(spec, 0);
  EXPECT_EQ(trace.size(), 120u);
  EXPECT_DOUBLE_EQ(trace.fps(), 30.0);
}

TEST(MotionTraceTest, DifferentUsersDiffer) {
  MotionTraceSpec spec;
  spec.frames = 60;
  const MotionTrace a = MotionTrace::generate(spec, 0);
  const MotionTrace b = MotionTrace::generate(spec, 1);
  EXPECT_GT(distance(a.pose(0).position, b.pose(0).position), 1e-3f);
}

TEST(MotionTraceTest, ViewerLooksAtContent) {
  MotionTraceSpec spec;
  spec.frames = 90;
  const MotionTrace trace = MotionTrace::generate(spec, 2);
  for (std::size_t f = 0; f < trace.size(); f += 10) {
    const Pose& pose = trace.pose(f);
    const Vec3f to_target = (Vec3f{0, 1, 0} - pose.position).normalized();
    // Forward direction roughly toward the content center.
    EXPECT_GT(pose.forward().dot(to_target), 0.9f) << "frame " << f;
  }
}

TEST(MotionTraceTest, MotionIsSmooth) {
  MotionTraceSpec spec;
  spec.frames = 200;
  const MotionTrace trace = MotionTrace::generate(spec, 3);
  for (std::size_t f = 1; f < trace.size(); ++f) {
    // Per-frame displacement below 10 cm at 30 fps (= < 3 m/s).
    EXPECT_LT(distance(trace.pose(f).position, trace.pose(f - 1).position),
              0.1f);
  }
}

TEST(MotionTraceTest, PoseWrapsAroundTrace) {
  MotionTraceSpec spec;
  spec.frames = 10;
  const MotionTrace trace = MotionTrace::generate(spec, 0);
  EXPECT_EQ(trace.pose(3).position, trace.pose(13).position);
}

TEST(FrustumTest, ContainsPointsAhead) {
  Frustum f;  // identity pose looks down -Z
  EXPECT_TRUE(f.contains({0, 0, -2}));
  EXPECT_FALSE(f.contains({0, 0, 2}));    // behind
  EXPECT_FALSE(f.contains({0, 0, -200})); // past far plane
  EXPECT_FALSE(f.contains({50, 0, -2}));  // far off-axis
}

TEST(FrustumTest, FovBoundsRespected) {
  Frustum f;
  f.vertical_fov_rad = 1.0f;
  const float half = std::tan(0.5f);
  EXPECT_TRUE(f.contains({0, half * 2.0f * 0.99f, -2}));
  EXPECT_FALSE(f.contains({0, half * 2.0f * 1.01f, -2}));
}

TEST(FrustumTest, VisibleFractionAndCulling) {
  PointCloud pc;
  for (int i = 0; i < 50; ++i) pc.push_back({0, 0, -2});  // visible
  for (int i = 0; i < 50; ++i) pc.push_back({0, 0, 2});   // behind
  Frustum f;
  EXPECT_DOUBLE_EQ(visible_fraction(pc, f), 0.5);
  EXPECT_DOUBLE_EQ(visible_fraction(PointCloud{}, f), 0.0);
}

TEST(PoseTest, ForwardDirections) {
  Pose p;
  EXPECT_NEAR(p.forward().z, -1.0f, 1e-6f);  // default looks down -Z
  p.yaw = float(M_PI) / 2.0f;
  EXPECT_NEAR(p.forward().x, 1.0f, 1e-6f);  // yaw 90 faces +X
  Pose down;
  down.pitch = float(M_PI) / 2.0f;
  EXPECT_NEAR(down.forward().y, -1.0f, 1e-6f);
}

TEST(PoseTest, WorldToCameraRoundTripDirection) {
  Pose p;
  p.position = {1, 2, 3};
  p.yaw = 0.3f;
  p.pitch = -0.2f;
  // A point one meter along the forward axis maps to camera (0,0,1).
  const Vec3f world = p.position + p.forward();
  const Vec3f cam = p.world_to_camera(world);
  EXPECT_NEAR(cam.x, 0.0f, 1e-5f);
  EXPECT_NEAR(cam.y, 0.0f, 1e-5f);
  EXPECT_NEAR(cam.z, 1.0f, 1e-5f);
}

}  // namespace
}  // namespace volut
