// Refinement network (§4.2.2) and its training-data pipeline.
//
// Following GradPU's design, the network maps a normalized neighborhood
// (center point first, Eq. 3) to a refinement offset that moves the
// interpolated point toward its ground-truth counterpart. Because the LUT is
// axis-separable (DESIGN.md §1), we train one small MLP per output axis; the
// axis-a network sees the n points' a-coordinates and predicts the a-offset
// in normalized units.
//
// Robust-LUT training tricks from the paper:
//   * Gaussian noise (sigma = 0.02) is injected into the normalized inputs so
//     the learned function tolerates quantization error;
//   * inputs are normalized coordinates, matching the LUT's discrete indexing
//     scheme exactly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/point_cloud.h"
#include "src/core/rng.h"
#include "src/nn/mlp.h"
#include "src/sr/interpolation.h"
#include "src/sr/position_encoding.h"

namespace volut {

struct RefineNetConfig {
  std::size_t receptive_field = 4;            // n
  std::vector<std::size_t> hidden = {32, 32}; // hidden layer widths
  float noise_sigma = 0.02f;                  // §4.2.2 noise injection
  std::size_t epochs = 30;
  std::size_t batch_size = 256;
  float learning_rate = 1e-3f;
  std::uint64_t seed = 7;
};

/// Per-axis training samples: inputs (N x n) of normalized coordinates along
/// the axis, targets (N x 1) of normalized offsets.
struct AxisSamples {
  std::vector<std::array<float, kMaxReceptiveField>> inputs;
  std::vector<float> targets;
  std::size_t n = 4;  // receptive field actually used
};

struct TrainingSet {
  std::array<AxisSamples, 3> axes;
  std::size_t sample_count() const { return axes[0].inputs.size(); }
};

/// Builds supervision from a ground-truth cloud: downsample by
/// `downsample_ratio`, interpolate back with `interp`, and for every new
/// point record (normalized neighborhood, normalized offset to the nearest
/// ground-truth point). Caps at `max_samples` neighborhoods.
TrainingSet build_training_set(const PointCloud& ground_truth,
                               double downsample_ratio,
                               const InterpolationConfig& interp,
                               const RefineNetConfig& config, Rng& rng,
                               std::size_t max_samples = 50'000);

/// Merges b's samples into a (multi-frame training).
void merge_training_sets(TrainingSet& a, const TrainingSet& b);

/// Three per-axis MLPs predicting normalized refinement offsets.
class RefineNet {
 public:
  explicit RefineNet(const RefineNetConfig& config);

  const RefineNetConfig& config() const { return config_; }

  /// Predicted normalized offset along `axis` for one neighborhood (inputs
  /// are the n normalized coordinates, center first).
  float predict(int axis, std::span<const float> coords) const;

  /// Batched prediction: `coords` is row-major (count x n).
  std::vector<float> predict_batch(int axis,
                                   const std::vector<float>& coords,
                                   std::size_t count) const;

  /// Trains all three axis networks; returns the final epoch's mean MSE
  /// across axes.
  float train(const TrainingSet& data);

  std::size_t parameter_count() const;

  const nn::Mlp& axis_net(int axis) const { return nets_[axis]; }

 private:
  RefineNetConfig config_;
  std::vector<nn::Mlp> nets_;  // one per axis
};

}  // namespace volut
