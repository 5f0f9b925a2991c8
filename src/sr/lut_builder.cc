#include "src/sr/lut_builder.h"

#include <stdexcept>
#include <vector>

#include "src/platform/thread_pool.h"
#include "src/sr/position_encoding.h"

namespace volut {

namespace {

/// Iterates all b^(n-1) neighbor-bin combinations (odometer order).
/// `bins_seq` holds n entries with slot 0 pinned to the center bin.
bool advance(std::vector<std::uint16_t>& bins_seq, int bins) {
  for (std::size_t i = bins_seq.size(); i-- > 1;) {
    if (++bins_seq[i] < bins) return true;
    bins_seq[i] = 0;
  }
  return false;
}

}  // namespace

RefinementLut distill_lut(const RefineNet& net, const LutSpec& spec,
                          ThreadPool* pool) {
  if (net.config().receptive_field != spec.receptive_field) {
    throw std::invalid_argument(
        "distill_lut: net/LUT receptive field mismatch");
  }
  RefinementLut lut(spec);
  const std::size_t n = spec.receptive_field;
  const int b = spec.bins;
  const std::uint16_t center_bin = quantize_coord(0.0f, b);

  // The reachable entries per axis form a flat space of b^(n-1) neighbor-bin
  // combinations. Chunks of that space distill independently: each entry's
  // prediction depends only on its own configuration and writes its own LUT
  // slot, so pool execution is bit-identical to the serial sweep.
  std::uint64_t total = 1;
  for (std::size_t i = 1; i < n; ++i) total *= std::uint64_t(b);

  constexpr std::size_t kBatch = 4096;
  for (int axis = 0; axis < 3; ++axis) {
    auto distill_range = [&](std::size_t begin, std::size_t end) {
      // Reconstruct the odometer state at `begin`: the neighbor slots are
      // the base-b digits of the flat index, last slot fastest (matching
      // advance()).
      std::vector<std::uint16_t> seq(n, 0);
      seq[0] = center_bin;
      std::uint64_t flat = begin;
      for (std::size_t i = n; i-- > 1;) {
        seq[i] = static_cast<std::uint16_t>(flat % std::uint64_t(b));
        flat /= std::uint64_t(b);
      }
      std::vector<float> coords;
      std::vector<std::uint64_t> indices;
      std::size_t done = begin;
      while (done < end) {
        const std::size_t count = std::min(kBatch, end - done);
        coords.clear();
        coords.reserve(count * n);
        indices.clear();
        indices.reserve(count);
        for (std::size_t c = 0; c < count; ++c) {
          indices.push_back(axis_index(seq, b));
          for (std::size_t s = 0; s < n; ++s) {
            coords.push_back(dequantize_coord(seq[s], b));
          }
          advance(seq, b);
        }
        const std::vector<float> preds =
            net.predict_batch(axis, coords, count);
        for (std::size_t i = 0; i < count; ++i) {
          lut.set(axis, indices[i], preds[i]);
        }
        done += count;
      }
    };
    run_parallel(pool, total, distill_range, /*min_grain=*/kBatch);
  }
  return lut;
}

}  // namespace volut
