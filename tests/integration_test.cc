// Whole-system integration test: trains a refinement net, distills the LUT,
// streams chunks through the real protocol endpoints with the MPC ABR in the
// loop (download durations taken from the trace-driven link), runs the SR
// pipeline on every received frame and checks end-to-end quality and
// bookkeeping. This is the closest in-tree analog of deploying the full
// system.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "src/abr/mpc.h"
#include "src/abr/throughput.h"
#include "src/metrics/chamfer.h"
#include "src/net/shared_link.h"
#include "src/sr/lut_builder.h"
#include "src/stream/endpoint.h"

namespace volut {
namespace {

class FullSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new VideoSpec(VideoSpec::dress(0.02));
    spec_->frame_count = 900;
    spec_->loops = 1;

    // Offline phase: train on the content, distill the LUT.
    Rng rng(11);
    RefineNetConfig cfg;
    cfg.receptive_field = 4;
    cfg.hidden = {24, 24};
    cfg.epochs = 10;
    InterpolationConfig interp;
    interp.dilation = 2;
    RefineNet net(cfg);
    const SyntheticVideo content(*spec_);
    TrainingSet data =
        build_training_set(content.frame(0), 0.5, interp, cfg, rng, 10'000);
    net.train(data);
    lut_ = new std::shared_ptr<RefinementLut>(
        std::make_shared<RefinementLut>(distill_lut(net, LutSpec{4, 32})));
  }
  static void TearDownTestSuite() {
    delete spec_;
    delete lut_;
    spec_ = nullptr;
    lut_ = nullptr;
  }

  static VideoSpec* spec_;
  static std::shared_ptr<RefinementLut>* lut_;
};

VideoSpec* FullSystemTest::spec_ = nullptr;
std::shared_ptr<RefinementLut>* FullSystemTest::lut_ = nullptr;

TEST_F(FullSystemTest, AbrDrivenProtocolSession) {
  auto [client_end, server_end] = InMemoryTransport::make_pair();
  ServerEndpoint server(*spec_, server_end.get());
  InterpolationConfig interp;
  interp.dilation = 2;
  VolutClient client(client_end.get(), *lut_, interp);

  const Manifest manifest = client.fetch_manifest(0);
  ASSERT_GT(manifest.total_chunks, 10u);

  // A link that supports roughly a quarter of full density.
  const double full_mbps = double(manifest.full_chunk_bytes) * 8.0 / 1e6;
  SharedLink link(
      BandwidthTrace::lte(full_mbps * 0.25, full_mbps * 0.08, 300.0, 3));
  const double rtt = 0.020;

  ContinuousMpcAbr abr;
  ThroughputEstimator estimator(5);
  double clock = 0.0;
  double buffer = 2.0;
  double prev_ratio = 0.5;
  double total_bytes = 0.0;
  double min_density = 1.0, max_density = 0.0;

  const SyntheticVideo reference(*spec_);
  double sr_coverage_sum = 0.0;
  std::size_t sr_coverage_count = 0;

  const std::size_t chunks = 12;
  for (std::size_t i = 0; i < chunks; ++i) {
    AbrContext ctx;
    ctx.throughput_mbps = estimator.estimate_mbps(full_mbps * 0.2);
    ctx.buffer_seconds = buffer;
    ctx.prev_density_ratio = prev_ratio;
    ctx.chunk_seconds = manifest.chunk_seconds;
    ctx.full_chunk_bytes = double(manifest.full_chunk_bytes);
    const AbrDecision decision = abr.decide(ctx);
    ASSERT_GT(decision.density_ratio, 0.0);
    ASSERT_LE(decision.density_ratio, 1.0);

    // Real protocol fetch + client-side SR.
    const ClientChunk chunk = client.fetch_chunk(
        0, std::uint32_t(i), float(decision.density_ratio));
    total_bytes += double(chunk.wire_bytes);

    // Simulated download timing drives the estimator and buffer.
    link.start_flow(double(chunk.wire_bytes));
    const double done = link.next_completion_time(clock + rtt);
    link.advance(clock + rtt, done);
    const double dl = done - clock;
    if (dl > 0) {
      estimator.add_sample(double(chunk.wire_bytes) * 8.0 / dl / 1e6);
    }
    buffer = std::min(10.0, std::max(0.0, buffer - dl) +
                                double(manifest.chunk_seconds));
    clock = done;
    prev_ratio = decision.density_ratio;
    min_density = std::min(min_density, decision.density_ratio);
    max_density = std::max(max_density, decision.density_ratio);

    // SR frames must recover full-density coverage of the true content.
    const PointCloud gt = reference.frame(i * manifest.frames_per_chunk +
                                          manifest.frames_per_chunk / 2);
    ASSERT_FALSE(chunk.sr_frames.empty());
    sr_coverage_sum +=
        directed_chamfer(gt, chunk.sr_frames[0]) /
        std::max(1e-12, directed_chamfer(gt, chunk.frames[0]));
    ++sr_coverage_count;
    EXPECT_NEAR(double(chunk.sr_frames[0].size()),
                double(manifest.full_points_per_frame),
                double(manifest.full_points_per_frame) * 0.25);
  }

  // The ABR reacted to the constrained link: it downsampled below full
  // density at least some of the time, and never collapsed to zero.
  EXPECT_LT(min_density, 0.9);
  EXPECT_GT(min_density, 0.01);
  EXPECT_LE(max_density, 1.0);
  // SR improved coverage over the received low-density frames on average.
  EXPECT_LT(sr_coverage_sum / double(sr_coverage_count), 1.0);
  // Bytes consistent with decisions (within header overhead).
  EXPECT_GT(total_bytes, 0.0);
  EXPECT_EQ(server.chunks_served(), chunks);
}

TEST_F(FullSystemTest, LutSurvivesDiskRoundTripInsideClient) {
  const auto path = std::filesystem::temp_directory_path() / "fs_lut.npy";
  (*lut_)->save_npy(path.string());
  auto reloaded = std::make_shared<RefinementLut>(
      RefinementLut::load_npy(path.string()));

  auto [client_end, server_end] = InMemoryTransport::make_pair();
  ServerEndpoint server(*spec_, server_end.get());
  InterpolationConfig interp;
  interp.dilation = 2;
  VolutClient client(client_end.get(), reloaded, interp);
  const ClientChunk chunk = client.fetch_chunk(0, 0, 0.5f);
  ASSERT_FALSE(chunk.sr_frames.empty());
  EXPECT_GT(chunk.sr_frames[0].size(), chunk.frames[0].size());
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".meta");
}

}  // namespace
}  // namespace volut
