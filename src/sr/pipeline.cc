#include "src/sr/pipeline.h"

#include <stdexcept>
#include <utility>

#include "src/obs/trace.h"
#include "src/sr/position_encoding.h"

namespace volut {

SrPipeline::SrPipeline(std::shared_ptr<const RefinementLut> lut,
                       InterpolationConfig interp, ThreadPool* pool)
    : lut_(std::move(lut)), interp_(interp), pool_(pool) {
  if (lut_ == nullptr) {
    throw std::invalid_argument("SrPipeline: lut must not be null");
  }
  // The LUT's receptive field defines the neighborhood size consumed by the
  // refinement stage; keep interpolation's k in sync.
  interp_.k = lut_->spec().receptive_field;
}

std::unique_ptr<SrPipeline::ScratchSlot> SrPipeline::acquire_slot() const {
  {
    MutexLock lk(slots_mu_);
    if (!free_slots_.empty()) {
      auto slot = std::move(free_slots_.back());
      free_slots_.pop_back();
      return slot;
    }
  }
  return std::make_unique<ScratchSlot>();
}

void SrPipeline::release_slot(std::unique_ptr<ScratchSlot> slot) const {
  MutexLock lk(slots_mu_);
  free_slots_.push_back(std::move(slot));
}

SrResult SrPipeline::upsample(const PointCloud& input, double ratio,
                              bool refine) const {
  SrResult result;
  result.input_points = input.size();
  result.timing = upsample_into(input, ratio, result.cloud, refine);
  result.output_points = result.cloud.size();
  return result;
}

SrTiming SrPipeline::upsample_into(const PointCloud& input, double ratio,
                                   PointCloud& out, bool refine) const {
  if (&input == &out) {
    throw std::invalid_argument("SrPipeline: output aliases the input");
  }
  SrTiming timing;
  TraceSpan upsample_span("sr/upsample");
  std::unique_ptr<ScratchSlot> slot = acquire_slot();
  InterpolationResult& ir = slot->ir;
  // Lend the caller's cloud to the stages and hand it back holding the
  // result: its capacity is reused and nothing is copied out.
  std::swap(ir.cloud, out);
  interpolate_into(input, ratio, interp_, ir, pool_, &slot->scratch);
  timing.knn_ms = ir.timing.knn_ms;
  timing.interpolate_ms = ir.timing.interpolate_ms;
  timing.colorize_ms = ir.timing.colorize_ms;

  if (refine && !lut_->empty()) {
    TraceSpan refine_span("sr/refine");
    const std::size_t n = lut_->spec().receptive_field;
    const int bins = lut_->spec().bins;
    const std::size_t new_begin = ir.original_count;
    auto refine_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        Vec3f& p = ir.cloud.position(new_begin + j);
        const EncodedNeighborhood enc = encode_neighborhood(
            p, ir.new_neighbors[j], input.positions(), n, bins);
        p += lut_->lookup(enc);
      }
    };
    run_parallel(pool_, ir.new_count(), refine_range, /*min_grain=*/1024);
    timing.refine_ms = refine_span.stop_ms();
  }

  std::swap(ir.cloud, out);
  release_slot(std::move(slot));
  return timing;
}

}  // namespace volut
