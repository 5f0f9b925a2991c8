// Reproduces Figure 16: end-to-end SR runtime breakdown (kNN search,
// interpolation, colorization, LUT refinement) on the desktop and
// Orange-Pi-class profiles.
//
// Paper shape: kNN search dominates, interpolation second, LUT refinement
// smallest — on both platforms.
//
// "total" is the wall clock of each upsample() call; the four stages are
// the pipeline's own SrTiming, and "unattributed" is what the stages leave
// uncovered (glue, allocation, pool dispatch).
#include <cstdio>

#include "bench/common.h"
#include "src/platform/device_profile.h"
#include "src/platform/timer.h"

int main(int argc, char** argv) {
  auto obs = volut::bench::ObsDump::from_args(argc, argv);
  using namespace volut;
  const double scale = bench::bench_scale();
  auto assets = bench::train_assets(scale);

  const SyntheticVideo video(VideoSpec::dress(scale));
  Rng rng(5);
  const PointCloud low = video.frame(0).random_downsample(0.5f, rng);

  InterpolationConfig interp;
  interp.dilation = 2;

  struct Platform {
    const char* name;
    DeviceProfile profile;
  };
  const Platform platforms[] = {
      {"Desktop (all threads)", DeviceProfile::desktop()},
      {"Orange Pi (4 threads, 3x factor)", DeviceProfile::orange_pi()},
  };

  bench::print_header("Figure 16: SR runtime breakdown per frame (input " +
                      std::to_string(low.size()) + " pts, x2)");
  for (const Platform& platform : platforms) {
    ThreadPool pool(platform.profile.threads);
    SrPipeline pipeline(assets.lut, interp, &pool);
    // Warm-up + averaged runs.
    pipeline.upsample(low, 2.0);
    SrTiming total{};
    double wall_ms = 0.0;
    const int reps = 5;
    for (int r = 0; r < reps; ++r) {
      const Timer timer;
      const SrResult result = pipeline.upsample(low, 2.0);
      wall_ms += timer.elapsed_ms();
      total.knn_ms += result.timing.knn_ms;
      total.interpolate_ms += result.timing.interpolate_ms;
      total.colorize_ms += result.timing.colorize_ms;
      total.refine_ms += result.timing.refine_ms;
    }
    const double s = platform.profile.latency_scale / double(reps);
    const double knn = total.knn_ms * s;
    const double inter = total.interpolate_ms * s;
    const double col = total.colorize_ms * s;
    const double refine = total.refine_ms * s;
    const double wall = wall_ms * s;
    const double unattributed = wall - (knn + inter + col + refine);
    std::printf("\n%s  (total %.2f ms/frame, %.1f FPS)\n", platform.name, wall,
                1000.0 / wall);
    const struct {
      const char* name;
      double ms;
    } rows[] = {{"kNN search", knn},
                {"interpolation", inter},
                {"colorization", col},
                {"LUT refinement", refine},
                {"unattributed", unattributed}};
    for (const auto& row : rows) {
      std::printf("  %-22s %10.3f ms  %5.1f%%\n", row.name, row.ms,
                  100.0 * row.ms / wall);
    }
  }
  std::printf(
      "\nExpected shape (paper): kNN search takes the largest share,\n"
      "interpolation next, LUT refinement the least, on both platforms.\n");
  return 0;
}
