// The end-to-end VoLUT SR pipeline (Figure 3): dilated interpolation ->
// colorization -> LUT refinement.
//
// This is the client-side hot path: it runs per received frame and must hit
// 30+ FPS on mobile-class devices. The timing breakdown it reports feeds
// Figure 16 (kNN / interpolation / colorization / LUT refinement).
//
// A pipeline keeps a pool of scratch slots (spatial index + neighbor arenas
// + interpolation result), one per concurrent upsample() caller: frame N+1
// reuses the buffers frame N grew, so the steady-state neighbor path
// performs no heap allocation (see bench_micro_kernels' allocation counter).
// upsample_into() writes the output into a caller-held cloud, so a caller
// that keeps its clouds across frames allocates nothing at all.
#pragma once

#include <memory>
#include <vector>

#include "src/core/mutex.h"
#include "src/core/point_cloud.h"
#include "src/core/thread_annotations.h"
#include "src/platform/thread_pool.h"
#include "src/sr/interpolation.h"
#include "src/sr/lut.h"

namespace volut {

struct SrTiming {
  double knn_ms = 0.0;
  double interpolate_ms = 0.0;
  double colorize_ms = 0.0;
  double refine_ms = 0.0;
  double total_ms() const {
    return knn_ms + interpolate_ms + colorize_ms + refine_ms;
  }
};

struct SrResult {
  PointCloud cloud;
  SrTiming timing;
  std::size_t input_points = 0;
  std::size_t output_points = 0;
};

class SrPipeline {
 public:
  /// `lut` is shared so multiple pipelines (e.g. per-video sessions) reuse
  /// one table; `pool` may be nullptr for serial execution.
  SrPipeline(std::shared_ptr<const RefinementLut> lut,
             InterpolationConfig interp, ThreadPool* pool = nullptr);

  /// Upsamples `input` by `ratio` (>= 1, fractional supported). With
  /// `refine` false only stage 1 runs (the K4dX-without-LUT ablation).
  /// Thread-safe: concurrent callers check distinct scratch slots out of the
  /// pipeline's slot pool, and ThreadPool's per-call latches keep callers
  /// sharing one `pool` from convoying on (or deadlocking against) each
  /// other's barriers.
  SrResult upsample(const PointCloud& input, double ratio,
                    bool refine = true) const;

  /// upsample() into `out` (which must not be `input`), reusing its
  /// capacity: the stages run in `out`'s own buffers, so no point is copied
  /// out and a warm `out` allocates nothing. Returns the stage timings.
  SrTiming upsample_into(const PointCloud& input, double ratio,
                         PointCloud& out, bool refine = true) const;

  const RefinementLut& lut() const { return *lut_; }
  const InterpolationConfig& interpolation_config() const { return interp_; }

 private:
  /// One concurrent caller's working set: interpolation scratch plus the
  /// result whose buffers (parents, neighbor arena) persist across frames.
  /// Its cloud is the caller's output, swapped in for the call and back
  /// out at the end.
  struct ScratchSlot {
    InterpolationScratch scratch;
    InterpolationResult ir;
  };

  /// Compile-fail probe access (tests/static/thread_safety_probe.cc).
  friend struct TsaProbe;

  std::unique_ptr<ScratchSlot> acquire_slot() const VOLUT_EXCLUDES(slots_mu_);
  void release_slot(std::unique_ptr<ScratchSlot> slot) const
      VOLUT_EXCLUDES(slots_mu_);

  std::shared_ptr<const RefinementLut> lut_;
  InterpolationConfig interp_;
  ThreadPool* pool_;
  mutable Mutex slots_mu_;
  mutable std::vector<std::unique_ptr<ScratchSlot>> free_slots_
      VOLUT_GUARDED_BY(slots_mu_);
};

}  // namespace volut
