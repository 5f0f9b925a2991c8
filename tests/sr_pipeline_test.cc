// Integration tests of the full SR stack: training-set construction, network
// training, LUT distillation, refinement quality, GradPU baseline, and the
// end-to-end SrPipeline invariants the streaming system relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/core/rng.h"
#include "src/data/synthetic_video.h"
#include "src/metrics/chamfer.h"
#include "src/sr/gradpu.h"
#include "src/sr/lut_builder.h"
#include "src/sr/pipeline.h"
#include "src/sr/refine_net.h"

namespace volut {
namespace {

// Shared fixture: trains a small refinement net on the dress video once.
class TrainedSrTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const SyntheticVideo video(VideoSpec::dress(0.03));
    Rng rng(100);
    RefineNetConfig cfg;
    cfg.receptive_field = 4;
    cfg.hidden = {24, 24};
    cfg.epochs = 15;

    InterpolationConfig interp;
    interp.dilation = 2;
    TrainingSet data =
        build_training_set(video.frame(0), 0.5, interp, cfg, rng, 8000);
    for (std::size_t f = 1; f < 3; ++f) {
      TrainingSet more =
          build_training_set(video.frame(f * 7), 0.5, interp, cfg, rng, 8000);
      merge_training_sets(data, more);
    }
    net_ = new RefineNet(cfg);
    final_loss_ = net_->train(data);
    lut_ = new RefinementLut(distill_lut(*net_, LutSpec{4, 32}));
    sample_count_ = data.sample_count();
    // MSE of the trivial zero predictor (refinement disabled), for a
    // data-relative convergence check.
    double sq = 0.0;
    std::size_t n = 0;
    for (const auto& axis : data.axes) {
      for (float t : axis.targets) {
        sq += double(t) * t;
        ++n;
      }
    }
    zero_loss_ = n ? float(sq / double(n)) : 0.0f;
  }
  static void TearDownTestSuite() {
    delete net_;
    delete lut_;
    net_ = nullptr;
    lut_ = nullptr;
  }

  static RefineNet* net_;
  static RefinementLut* lut_;
  static float final_loss_;
  static float zero_loss_;
  static std::size_t sample_count_;
};

RefineNet* TrainedSrTest::net_ = nullptr;
RefinementLut* TrainedSrTest::lut_ = nullptr;
float TrainedSrTest::final_loss_ = 0.0f;
float TrainedSrTest::zero_loss_ = 0.0f;
std::size_t TrainedSrTest::sample_count_ = 0;

TEST_F(TrainedSrTest, TrainingSetIsPopulated) {
  EXPECT_GT(sample_count_, 1000u);
}

TEST_F(TrainedSrTest, TrainingConverges) {
  // The trained net must beat the trivial zero predictor (no refinement)
  // by a clear margin on its own training distribution.
  ASSERT_GT(zero_loss_, 0.0f);
  EXPECT_LT(final_loss_, zero_loss_ * 0.8f)
      << "zero-predictor MSE " << zero_loss_;
}

TEST_F(TrainedSrTest, LutRefinementImprovesChamfer) {
  const SyntheticVideo video(VideoSpec::dress(0.03));
  const PointCloud gt = video.frame(11);
  Rng rng(7);
  const PointCloud low = gt.random_downsample(0.5f, rng);

  InterpolationConfig interp;
  interp.dilation = 2;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  const double ratio = double(gt.size()) / double(low.size());
  const SrResult plain = pipeline.upsample(low, ratio, /*refine=*/false);
  const SrResult refined = pipeline.upsample(low, ratio, /*refine=*/true);

  const double cd_plain = chamfer_distance(plain.cloud, gt);
  const double cd_refined = chamfer_distance(refined.cloud, gt);
  // Figure 8/10: LUT refinement reduces Chamfer distance vs interpolation
  // alone.
  EXPECT_LT(cd_refined, cd_plain);
}

TEST_F(TrainedSrTest, LutQualityTracksDirectNetwork) {
  // The LUT is a quantized distillation of the network: its quality should
  // be close to (within a modest factor of) GradPU-style direct inference.
  const SyntheticVideo video(VideoSpec::dress(0.03));
  const PointCloud gt = video.frame(17);
  Rng rng(8);
  const PointCloud low = gt.random_downsample(0.5f, rng);
  const double ratio = double(gt.size()) / double(low.size());

  InterpolationConfig interp;
  interp.dilation = 2;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  const SrResult lut_result = pipeline.upsample(low, ratio);

  GradPuConfig gcfg;
  gcfg.iterations = 3;
  const GradPuResult grad = gradpu_upsample(low, ratio, *net_, gcfg);

  const double cd_lut = chamfer_distance(lut_result.cloud, gt);
  const double cd_grad = chamfer_distance(grad.cloud, gt);
  EXPECT_LT(cd_lut, cd_grad * 1.5);
}

TEST_F(TrainedSrTest, LutLookupFasterThanDirectInference) {
  // The headline property: refinement via table lookup is orders of
  // magnitude faster than network inference over the same points.
  const SyntheticVideo video(VideoSpec::dress(0.03));
  const PointCloud gt = video.frame(23);
  Rng rng(9);
  const PointCloud low = gt.random_downsample(0.5f, rng);
  const double ratio = 2.0;

  InterpolationConfig interp;
  interp.dilation = 2;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  const SrResult lut_result = pipeline.upsample(low, ratio);

  GradPuConfig gcfg;
  gcfg.iterations = 10;
  const GradPuResult grad = gradpu_upsample(low, ratio, *net_, gcfg);

  ASSERT_GT(lut_result.timing.refine_ms, 0.0);
  EXPECT_GT(grad.refine_ms / lut_result.timing.refine_ms, 5.0);
}

TEST_F(TrainedSrTest, PipelineKeepsOriginalPoints) {
  const SyntheticVideo video(VideoSpec::dress(0.03));
  const PointCloud gt = video.frame(2);
  Rng rng(10);
  const PointCloud low = gt.random_downsample(0.4f, rng);
  InterpolationConfig interp;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  const SrResult result = pipeline.upsample(low, 2.0);
  ASSERT_GE(result.cloud.size(), low.size());
  for (std::size_t i = 0; i < low.size(); i += 17) {
    EXPECT_EQ(result.cloud.position(i), low.position(i));
    EXPECT_EQ(result.cloud.color(i), low.color(i));
  }
}

TEST_F(TrainedSrTest, FractionalRatiosSupported) {
  // Continuous ABR depends on arbitrary ratios (§5): 1.37x must work.
  const SyntheticVideo video(VideoSpec::dress(0.03));
  Rng rng(11);
  const PointCloud low = video.frame(5).random_downsample(0.6f, rng);
  InterpolationConfig interp;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  for (double ratio : {1.17, 1.37, 2.61, 3.49}) {
    const SrResult r = pipeline.upsample(low, ratio);
    EXPECT_NEAR(double(r.cloud.size()), double(low.size()) * ratio,
                double(low.size()) * 0.02)
        << "ratio " << ratio;
  }
}

TEST_F(TrainedSrTest, UpsampleIntoAReusedCloudMatchesUpsample) {
  // One output cloud, grown and shrunk across ratios, must hold exactly what
  // a fresh upsample() returns.
  const SyntheticVideo video(VideoSpec::dress(0.03));
  Rng rng(13);
  const PointCloud low = video.frame(8).random_downsample(0.5f, rng);
  InterpolationConfig interp;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  PointCloud out;
  for (double ratio : {2.0, 4.0, 1.0, 2.5}) {
    pipeline.upsample_into(low, ratio, out);
    const SrResult fresh = pipeline.upsample(low, ratio);
    ASSERT_EQ(out.size(), fresh.cloud.size()) << "ratio " << ratio;
    EXPECT_TRUE(std::equal(out.positions().begin(), out.positions().end(),
                           fresh.cloud.positions().begin()))
        << "ratio " << ratio;
    EXPECT_TRUE(std::equal(out.colors().begin(), out.colors().end(),
                           fresh.cloud.colors().begin()))
        << "ratio " << ratio;
  }
  EXPECT_THROW(pipeline.upsample_into(out, 2.0, out), std::invalid_argument);
}

TEST_F(TrainedSrTest, RefinementOffsetsAreBounded) {
  // Refined points must stay within the neighborhood scale — the LUT stores
  // normalized offsets in [-1, 1], denormalized by the local radius.
  const SyntheticVideo video(VideoSpec::dress(0.03));
  const PointCloud gt = video.frame(29);
  Rng rng(12);
  const PointCloud low = gt.random_downsample(0.5f, rng);
  InterpolationConfig interp;
  SrPipeline pipeline(std::shared_ptr<const RefinementLut>(
                          lut_, [](const RefinementLut*) {}),
                      interp);
  const SrResult plain = pipeline.upsample(low, 2.0, false);
  const SrResult refined = pipeline.upsample(low, 2.0, true);
  ASSERT_EQ(plain.cloud.size(), refined.cloud.size());
  const float scale = gt.bounds().diagonal();
  for (std::size_t i = low.size(); i < plain.cloud.size(); i += 13) {
    EXPECT_LT(distance(plain.cloud.position(i), refined.cloud.position(i)),
              scale * 0.2f);
  }
}

TEST(SrPipelineTest, NullLutRejected) {
  EXPECT_THROW(SrPipeline(nullptr, InterpolationConfig{}),
               std::invalid_argument);
}

TEST(SrPipelineTest, PipelineSyncsKToLutReceptiveField) {
  auto lut = std::make_shared<RefinementLut>(LutSpec{5, 8});
  InterpolationConfig interp;
  interp.k = 3;
  SrPipeline pipeline(lut, interp);
  EXPECT_EQ(pipeline.interpolation_config().k, 5u);
}

TEST(SrPipelineTest, EmptyLutSkipsRefinement) {
  auto lut = std::make_shared<RefinementLut>(LutSpec{4, 8});  // all zeros
  SrPipeline pipeline(lut, InterpolationConfig{});
  Rng rng(13);
  PointCloud pc;
  for (int i = 0; i < 200; ++i) {
    pc.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const SrResult a = pipeline.upsample(pc, 2.0, true);
  const SrResult b = pipeline.upsample(pc, 2.0, false);
  // Zero LUT: refinement is the identity.
  ASSERT_EQ(a.cloud.size(), b.cloud.size());
  for (std::size_t i = 0; i < a.cloud.size(); i += 7) {
    EXPECT_EQ(a.cloud.position(i), b.cloud.position(i));
  }
}

TEST(GradPuTest, ProducesRequestedDensity) {
  RefineNetConfig cfg;
  cfg.receptive_field = 4;
  cfg.hidden = {8};
  const RefineNet net(cfg);
  Rng rng(14);
  PointCloud pc;
  for (int i = 0; i < 150; ++i) {
    pc.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  GradPuConfig gcfg;
  gcfg.iterations = 2;
  const GradPuResult r = gradpu_upsample(pc, 2.0, net, gcfg);
  EXPECT_NEAR(double(r.cloud.size()), 300.0, 2.0);
  EXPECT_GT(r.refine_ms, 0.0);
}

}  // namespace
}  // namespace volut
