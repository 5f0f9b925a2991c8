#include "src/nn/mlp.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace volut::nn {

LinearLayer::LinearLayer(std::size_t in, std::size_t out, bool relu_, Rng& rng)
    : w(out, in),
      b(out, 0.0f),
      grad_w(out, in),
      grad_b(out, 0.0f),
      relu(relu_) {
  // He initialization: suited to ReLU hidden layers.
  const float scale = std::sqrt(2.0f / static_cast<float>(in));
  for (float& v : w.raw()) v = rng.gaussian(scale);
}

LinearLayer::LinearLayer(std::size_t in, std::size_t out, bool relu_,
                         CounterRng& rng)
    : w(out, in),
      b(out, 0.0f),
      grad_w(out, in),
      grad_b(out, 0.0f),
      relu(relu_) {
  const float scale = std::sqrt(2.0f / static_cast<float>(in));
  for (float& v : w.raw()) v = rng.gaussian(scale);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Rng& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp needs >= 2 dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = i + 2 < dims.size();  // linear final layer
    layers_.emplace_back(dims[i], dims[i + 1], relu, rng);
  }
}

Mlp::Mlp(const std::vector<std::size_t>& dims, CounterRng& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp needs >= 2 dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = i + 2 < dims.size();  // linear final layer
    layers_.emplace_back(dims[i], dims[i + 1], relu, rng);
  }
}

Matrix Mlp::forward(const Matrix& x) const {
  Matrix h = x;
  for (const LinearLayer& layer : layers_) {
    Matrix out = matmul_a_bt(h, layer.w);  // (batch x out)
    add_row_broadcast(out, layer.b);
    if (layer.relu) {
      for (float& v : out.raw()) v = v > 0.0f ? v : 0.0f;
    }
    h = std::move(out);
  }
  return h;
}

Matrix Mlp::forward_train(const Matrix& x) {
  inputs_.clear();
  pre_act_.clear();
  inputs_.reserve(layers_.size());
  pre_act_.reserve(layers_.size());
  Matrix h = x;
  for (const LinearLayer& layer : layers_) {
    inputs_.push_back(h);
    Matrix out = matmul_a_bt(h, layer.w);
    add_row_broadcast(out, layer.b);
    pre_act_.push_back(out);
    if (layer.relu) {
      for (float& v : out.raw()) v = v > 0.0f ? v : 0.0f;
    }
    h = std::move(out);
  }
  return h;
}

Matrix Mlp::backward(const Matrix& grad_out) {
  assert(inputs_.size() == layers_.size());
  Matrix grad = grad_out;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    LinearLayer& layer = layers_[li];
    if (layer.relu) {
      const Matrix& pre = pre_act_[li];
      for (std::size_t i = 0; i < grad.size(); ++i) {
        if (pre.raw()[i] <= 0.0f) grad.raw()[i] = 0.0f;
      }
    }
    // grad w.r.t. weights: dY^T * X  -> (out x in)
    const Matrix gw = matmul_at_b(grad, inputs_[li]);
    for (std::size_t i = 0; i < gw.size(); ++i) {
      layer.grad_w.raw()[i] += gw.raw()[i];
    }
    const std::vector<float> gb = column_sum(grad);
    for (std::size_t i = 0; i < gb.size(); ++i) layer.grad_b[i] += gb[i];
    if (li > 0) grad = matmul(grad, layer.w);  // dX = dY * W
  }
  return grad;
}

void Mlp::zero_grad() {
  for (LinearLayer& layer : layers_) {
    layer.grad_w.fill(0.0f);
    std::fill(layer.grad_b.begin(), layer.grad_b.end(), 0.0f);
  }
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const LinearLayer& layer : layers_) {
    n += layer.w.size() + layer.b.size();
  }
  return n;
}

AdamOptimizer::AdamOptimizer(Mlp& mlp, float lr, float beta1, float beta2,
                             float eps)
    : mlp_(mlp), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const LinearLayer& layer : mlp_.layers()) {
    Moments m;
    m.m_w = Matrix(layer.w.rows(), layer.w.cols());
    m.v_w = Matrix(layer.w.rows(), layer.w.cols());
    m.m_b.assign(layer.b.size(), 0.0f);
    m.v_b.assign(layer.b.size(), 0.0f);
    moments_.push_back(std::move(m));
  }
}

void AdamOptimizer::step() {
  ++step_count_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (std::size_t li = 0; li < mlp_.layers().size(); ++li) {
    LinearLayer& layer = mlp_.layers()[li];
    Moments& mom = moments_[li];
    for (std::size_t i = 0; i < layer.w.size(); ++i) {
      const float g = layer.grad_w.raw()[i];
      float& m = mom.m_w.raw()[i];
      float& v = mom.v_w.raw()[i];
      m = beta1_ * m + (1.0f - beta1_) * g;
      v = beta2_ * v + (1.0f - beta2_) * g * g;
      layer.w.raw()[i] -=
          lr_ * (m / bc1) / (std::sqrt(v / bc2) + eps_);
    }
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      const float g = layer.grad_b[i];
      float& m = mom.m_b[i];
      float& v = mom.v_b[i];
      m = beta1_ * m + (1.0f - beta1_) * g;
      v = beta2_ * v + (1.0f - beta2_) * g * g;
      layer.b[i] -= lr_ * (m / bc1) / (std::sqrt(v / bc2) + eps_);
    }
  }
}

float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad_out) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  grad_out = Matrix(pred.rows(), pred.cols());
  float loss = 0.0f;
  const float inv_n = 1.0f / static_cast<float>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.raw()[i] - target.raw()[i];
    loss += d * d;
    grad_out.raw()[i] = 2.0f * d * inv_n;
  }
  return loss * inv_n;
}

}  // namespace volut::nn
