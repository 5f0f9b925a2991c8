// Multilayer perceptron with ReLU hidden activations and linear output, plus
// an Adam trainer. This is the refinement network of §4.2.2 (and, with a wider
// configuration, the stand-in for YuZu's heavier neural SR model).
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/rng.h"
#include "src/nn/matrix.h"

namespace volut::nn {

/// One fully connected layer (weights out x in, bias out) with cached
/// activations for backprop.
struct LinearLayer {
  Matrix w;                 // (out x in)
  std::vector<float> b;     // (out)
  Matrix grad_w;            // same shape as w
  std::vector<float> grad_b;
  bool relu = true;         // apply ReLU after the affine map

  LinearLayer(std::size_t in, std::size_t out, bool relu_, Rng& rng);
  /// Counter-based init: the weight draws come from `rng`'s stream, so two
  /// layers initialized from distinct streams are order-independent.
  LinearLayer(std::size_t in, std::size_t out, bool relu_, CounterRng& rng);

  std::size_t in_features() const { return w.cols(); }
  std::size_t out_features() const { return w.rows(); }
};

/// MLP: input -> [hidden, ReLU]* -> linear output.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}; must have >= 2 entries.
  Mlp(const std::vector<std::size_t>& dims, Rng& rng);
  /// Same, drawing initial weights from a counter-based stream.
  Mlp(const std::vector<std::size_t>& dims, CounterRng& rng);

  std::size_t input_dim() const { return layers_.front().in_features(); }
  std::size_t output_dim() const { return layers_.back().out_features(); }

  /// Forward pass on a batch X (batch x in) -> (batch x out).
  Matrix forward(const Matrix& x) const;

  /// Forward pass caching per-layer activations for a subsequent backward().
  Matrix forward_train(const Matrix& x);

  /// Backprop of dLoss/dY (batch x out); accumulates layer gradients and
  /// returns dLoss/dX. Must follow a forward_train with the same batch.
  Matrix backward(const Matrix& grad_out);

  void zero_grad();

  /// Total number of scalar parameters (for the memory-footprint benches).
  std::size_t parameter_count() const;

  std::vector<LinearLayer>& layers() { return layers_; }
  const std::vector<LinearLayer>& layers() const { return layers_; }

 private:
  std::vector<LinearLayer> layers_;
  std::vector<Matrix> inputs_;       // cached layer inputs (training)
  std::vector<Matrix> pre_act_;      // cached pre-activation outputs
};

/// Adam optimizer over an Mlp's parameters.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(Mlp& mlp, float lr = 1e-3f, float beta1 = 0.9f,
                         float beta2 = 0.999f, float eps = 1e-8f);

  void step();
  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

 private:
  struct Moments {
    Matrix m_w, v_w;
    std::vector<float> m_b, v_b;
  };

  Mlp& mlp_;
  float lr_, beta1_, beta2_, eps_;
  long step_count_ = 0;
  std::vector<Moments> moments_;
};

/// Mean-squared-error loss; returns loss value and writes dLoss/dPred.
float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad_out);

}  // namespace volut::nn
