// Tests for the mini-NN library: matrix kernels, backprop against numerical
// gradients, Adam convergence on analytic functions, serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/rng.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"

namespace volut::nn {
namespace {

TEST(MatrixTest, MatmulSmall) {
  Matrix a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.raw().begin());
  std::copy(bv, bv + 6, b.raw().begin());
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(MatrixTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(1);
  Matrix a(4, 3), b(4, 5);
  for (float& v : a.raw()) v = rng.gaussian(1.0f);
  for (float& v : b.raw()) v = rng.gaussian(1.0f);
  // matmul_at_b(a, b) == a^T b
  Matrix at(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  const Matrix want = matmul(at, b);
  const Matrix got = matmul_at_b(a, b);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.raw()[i], want.raw()[i], 1e-5f);
  }
}

TEST(MatrixTest, ABTransposedAgrees) {
  Rng rng(2);
  Matrix a(3, 4), b(5, 4);
  for (float& v : a.raw()) v = rng.gaussian(1.0f);
  for (float& v : b.raw()) v = rng.gaussian(1.0f);
  Matrix bt(4, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) bt(j, i) = b(i, j);
  }
  const Matrix want = matmul(a, bt);
  const Matrix got = matmul_a_bt(a, b);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.raw()[i], want.raw()[i], 1e-5f);
  }
}

TEST(MatrixTest, RowBroadcastAndColumnSum) {
  Matrix m(2, 3, 1.0f);
  add_row_broadcast(m, {1, 2, 3});
  EXPECT_FLOAT_EQ(m(0, 0), 2);
  EXPECT_FLOAT_EQ(m(1, 2), 4);
  const auto sums = column_sum(m);
  EXPECT_FLOAT_EQ(sums[0], 4);
  EXPECT_FLOAT_EQ(sums[1], 6);
  EXPECT_FLOAT_EQ(sums[2], 8);
}

TEST(MlpTest, ForwardShapes) {
  Rng rng(3);
  Mlp mlp({4, 8, 2}, rng);
  EXPECT_EQ(mlp.input_dim(), 4u);
  EXPECT_EQ(mlp.output_dim(), 2u);
  Matrix x(5, 4, 0.5f);
  const Matrix y = mlp.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(MlpTest, ParameterCount) {
  Rng rng(4);
  Mlp mlp({3, 10, 1}, rng);
  // (10*3 + 10) + (1*10 + 1) = 51
  EXPECT_EQ(mlp.parameter_count(), 51u);
}

TEST(MlpTest, BackwardMatchesNumericalGradient) {
  Rng rng(5);
  Mlp mlp({3, 6, 2}, rng);
  Matrix x(4, 3);
  Matrix target(4, 2);
  for (float& v : x.raw()) v = rng.gaussian(1.0f);
  for (float& v : target.raw()) v = rng.gaussian(1.0f);

  mlp.zero_grad();
  Matrix grad_out;
  const Matrix pred = mlp.forward_train(x);
  mse_loss(pred, target, grad_out);
  mlp.backward(grad_out);

  // Check a handful of weight gradients against central differences.
  const float eps = 1e-3f;
  for (std::size_t li = 0; li < mlp.layers().size(); ++li) {
    auto& layer = mlp.layers()[li];
    for (std::size_t wi = 0; wi < layer.w.size(); wi += 7) {
      const float orig = layer.w.raw()[wi];
      Matrix g;
      layer.w.raw()[wi] = orig + eps;
      const float lp = mse_loss(mlp.forward(x), target, g);
      layer.w.raw()[wi] = orig - eps;
      const float lm = mse_loss(mlp.forward(x), target, g);
      layer.w.raw()[wi] = orig;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(layer.grad_w.raw()[wi], numeric,
                  2e-2f * std::max(1.0f, std::abs(numeric)))
          << "layer " << li << " weight " << wi;
    }
  }
}

TEST(MlpTest, AdamFitsLinearFunction) {
  Rng rng(6);
  Mlp mlp({2, 16, 1}, rng);
  AdamOptimizer opt(mlp, 5e-3f);
  // y = 2a - 3b + 0.5
  float loss = 0.0f;
  for (int step = 0; step < 800; ++step) {
    Matrix x(32, 2), t(32, 1);
    for (std::size_t r = 0; r < 32; ++r) {
      const float a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
      x(r, 0) = a;
      x(r, 1) = b;
      t(r, 0) = 2 * a - 3 * b + 0.5f;
    }
    mlp.zero_grad();
    Matrix grad;
    loss = mse_loss(mlp.forward_train(x), t, grad);
    mlp.backward(grad);
    opt.step();
  }
  EXPECT_LT(loss, 5e-3f);
}

TEST(MlpTest, AdamFitsNonlinearFunction) {
  Rng rng(7);
  Mlp mlp({1, 32, 32, 1}, rng);
  AdamOptimizer opt(mlp, 3e-3f);
  float loss = 0.0f;
  for (int step = 0; step < 1500; ++step) {
    Matrix x(64, 1), t(64, 1);
    for (std::size_t r = 0; r < 64; ++r) {
      const float a = rng.uniform(-1, 1);
      x(r, 0) = a;
      t(r, 0) = std::sin(3.0f * a);
    }
    mlp.zero_grad();
    Matrix grad;
    loss = mse_loss(mlp.forward_train(x), t, grad);
    mlp.backward(grad);
    opt.step();
  }
  EXPECT_LT(loss, 2e-2f);
}

TEST(MlpTest, InvalidDimsThrow) {
  Rng rng(9);
  EXPECT_THROW(Mlp({5}, rng), std::invalid_argument);
}

TEST(MseLossTest, ZeroForIdenticalInputs) {
  Matrix a(2, 2, 3.0f), b(2, 2, 3.0f), grad;
  EXPECT_FLOAT_EQ(mse_loss(a, b, grad), 0.0f);
  for (float g : grad.raw()) EXPECT_FLOAT_EQ(g, 0.0f);
}

}  // namespace
}  // namespace volut::nn
