#include "src/sr/refine_net.h"

#include <algorithm>
#include <numeric>

#include "src/spatial/kdtree.h"
#include "src/sr/position_encoding.h"

namespace volut {

TrainingSet build_training_set(const PointCloud& ground_truth,
                               double downsample_ratio,
                               const InterpolationConfig& interp,
                               const RefineNetConfig& config, Rng& rng,
                               std::size_t max_samples) {
  TrainingSet set;
  const std::size_t n = config.receptive_field;
  for (auto& axis : set.axes) axis.n = n;
  if (ground_truth.size() < 8) return set;

  const PointCloud low =
      ground_truth.random_downsample(float(downsample_ratio), rng);
  if (low.size() < n) return set;

  InterpolationConfig icfg = interp;
  icfg.k = n;  // neighborhood size must match the LUT receptive field
  const double up_ratio = double(ground_truth.size()) / double(low.size());
  const InterpolationResult ir = interpolate(low, up_ratio, icfg);

  KdTree gt_tree(ground_truth.positions());
  const std::size_t new_begin = ir.original_count;
  const std::size_t count = std::min(ir.new_count(), max_samples);
  for (auto& axis : set.axes) {
    axis.inputs.reserve(count);
    axis.targets.reserve(count);
  }

  for (std::size_t j = 0; j < count; ++j) {
    const Vec3f& center = ir.cloud.position(new_begin + j);
    const EncodedNeighborhood enc = encode_neighborhood(
        center, ir.new_neighbors[j], low.positions(), n, /*bins=*/2);
    if (enc.radius <= 0.0f) continue;
    // Supervision: displacement to the nearest ground-truth point,
    // normalized by the neighborhood radius (Eq. 9's per-point term).
    const Neighbor nearest_gt = gt_tree.nearest(center);
    if (nearest_gt.index == KdTree::kNoNeighbor) continue;  // empty GT cloud
    const Vec3f delta =
        (ground_truth.position(nearest_gt.index) - center) / enc.radius;
    for (int a = 0; a < 3; ++a) {
      std::array<float, kMaxReceptiveField> row{};
      for (std::size_t s = 0; s < n; ++s) {
        row[s] = enc.normalized[a][s] + rng.gaussian(config.noise_sigma);
      }
      set.axes[a].inputs.push_back(row);
      // Clamp targets to the normalized cube; outliers (sparse regions where
      // the nearest GT point is far) otherwise dominate the loss.
      set.axes[a].targets.push_back(std::clamp(delta[a], -1.0f, 1.0f));
    }
  }
  return set;
}

void merge_training_sets(TrainingSet& a, const TrainingSet& b) {
  for (int axis = 0; axis < 3; ++axis) {
    a.axes[axis].inputs.insert(a.axes[axis].inputs.end(),
                               b.axes[axis].inputs.begin(),
                               b.axes[axis].inputs.end());
    a.axes[axis].targets.insert(a.axes[axis].targets.end(),
                                b.axes[axis].targets.begin(),
                                b.axes[axis].targets.end());
    a.axes[axis].n = b.axes[axis].n;
  }
}

RefineNet::RefineNet(const RefineNetConfig& config) : config_(config) {
  std::vector<std::size_t> dims;
  dims.push_back(config.receptive_field);
  dims.insert(dims.end(), config.hidden.begin(), config.hidden.end());
  dims.push_back(1);
  nets_.reserve(3);
  for (int a = 0; a < 3; ++a) {
    // Counter-based init, one stream per axis net: an axis's initial
    // weights depend only on (seed, axis), not on how many nets were
    // built before it.
    CounterRng rng(config.seed, /*stream=*/0xA0 + std::uint64_t(a));
    nets_.emplace_back(dims, rng);
  }
}

float RefineNet::predict(int axis, std::span<const float> coords) const {
  nn::Matrix x(1, config_.receptive_field);
  for (std::size_t i = 0; i < config_.receptive_field; ++i) {
    x(0, i) = coords[i];
  }
  return nets_[axis].forward(x)(0, 0);
}

std::vector<float> RefineNet::predict_batch(int axis,
                                            const std::vector<float>& coords,
                                            std::size_t count) const {
  const std::size_t n = config_.receptive_field;
  nn::Matrix x(count, n);
  std::copy(coords.begin(), coords.begin() + std::int64_t(count * n),
            x.raw().begin());
  const nn::Matrix y = nets_[axis].forward(x);
  std::vector<float> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = y(i, 0);
  return out;
}

float RefineNet::train(const TrainingSet& data) {
  float final_loss = 0.0f;
  const std::size_t n = config_.receptive_field;
  Rng shuffle_rng(config_.seed ^ 0xABCDEF);
  for (int axis = 0; axis < 3; ++axis) {
    const AxisSamples& samples = data.axes[axis];
    if (samples.inputs.empty()) continue;
    nn::AdamOptimizer opt(nets_[axis], config_.learning_rate);
    std::vector<std::size_t> order(samples.inputs.size());
    std::iota(order.begin(), order.end(), 0);

    float epoch_loss = 0.0f;
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      std::shuffle(order.begin(), order.end(), shuffle_rng.engine());
      epoch_loss = 0.0f;
      std::size_t batches = 0;
      for (std::size_t begin = 0; begin < order.size();
           begin += config_.batch_size) {
        const std::size_t end =
            std::min(begin + config_.batch_size, order.size());
        const std::size_t bs = end - begin;
        nn::Matrix x(bs, n), t(bs, 1);
        for (std::size_t r = 0; r < bs; ++r) {
          const std::size_t s = order[begin + r];
          for (std::size_t c = 0; c < n; ++c) x(r, c) = samples.inputs[s][c];
          t(r, 0) = samples.targets[s];
        }
        nets_[axis].zero_grad();
        const nn::Matrix pred = nets_[axis].forward_train(x);
        nn::Matrix grad;
        epoch_loss += nn::mse_loss(pred, t, grad);
        nets_[axis].backward(grad);
        opt.step();
        ++batches;
      }
      if (batches > 0) epoch_loss /= float(batches);
    }
    final_loss += epoch_loss;
  }
  return final_loss / 3.0f;
}

std::size_t RefineNet::parameter_count() const {
  std::size_t total = 0;
  for (const nn::Mlp& net : nets_) total += net.parameter_count();
  return total;
}

}  // namespace volut
