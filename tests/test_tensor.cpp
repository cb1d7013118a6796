#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace mfa {
namespace {

using namespace mfa::ops;

TEST(Tensor, FactoriesProduceExpectedValues) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (const float v : z.to_vector()) EXPECT_EQ(v, 0.0f);

  Tensor o = Tensor::ones({4});
  for (const float v : o.to_vector()) EXPECT_EQ(v, 1.0f);

  Tensor f = Tensor::full({2, 2}, 3.5f);
  for (const float v : f.to_vector()) EXPECT_EQ(v, 3.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_THROW(t.size(3), mfa::check::CheckError);
}

TEST(Tensor, AtAndSetRoundTrip) {
  Tensor t = Tensor::zeros({2, 3});
  t.set({1, 2}, 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_THROW(t.at({2, 0}), mfa::check::CheckError);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_EQ(Tensor::scalar(2.5f).item(), 2.5f);
  EXPECT_THROW(Tensor::zeros({2}).item(), std::logic_error);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Rng r1(3), r2(3);
  Tensor a = Tensor::randn({10}, r1);
  Tensor b = Tensor::randn({10}, r2);
  EXPECT_EQ(a.to_vector(), b.to_vector());
}

TEST(Tensor, DetachSharesNothing) {
  Tensor a = Tensor::ones({3}, /*requires_grad=*/true);
  Tensor d = a.detach();
  EXPECT_FALSE(d.requires_grad());
  d.data()[0] = 9.0f;
  EXPECT_EQ(a.at({0}), 1.0f);
}

TEST(TensorOps, AddSameShape) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2}, {10, 20, 30, 40});
  Tensor c = a + b;
  EXPECT_EQ(c.to_vector(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(TensorOps, BroadcastAddRowVector) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_EQ(c.to_vector(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(TensorOps, BroadcastMulColumn) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({2, 1}, {2, 3});
  Tensor c = a * b;
  EXPECT_EQ(c.to_vector(), (std::vector<float>{2, 4, 6, 12, 15, 18}));
}

TEST(TensorOps, BroadcastShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(TensorOps, Matmul2D) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.to_vector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(TensorOps, MatmulBatched) {
  Tensor a = Tensor::from_data({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2, 1}, {1, 1, 2, 2});
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{3, 14}));
}

TEST(TensorOps, MatmulBatchedSharedRhs) {
  Tensor a = Tensor::from_data({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 1}, {1, 1});
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{3, 7}));
}

TEST(TensorOps, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Tensor::zeros({2, 3}), Tensor::zeros({4, 2})),
               std::invalid_argument);
}

// ---- transposed-operand matmul forms ------------------------------------
//
// matmul_nt / matmul_tn read the transposed operand in place; the
// materialised transpose2d + matmul composition is the reference.

/// Largest |x - y| relative to max(1, |y|) over two same-size buffers.
float max_rel_diff(const std::vector<float>& x, const std::vector<float>& y) {
  EXPECT_EQ(x.size(), y.size());
  float worst = 0.0f;
  for (size_t i = 0; i < x.size() && i < y.size(); ++i)
    worst = std::max(worst, std::fabs(x[i] - y[i]) /
                                std::max(1.0f, std::fabs(y[i])));
  return worst;
}

void expect_forward_matches(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_LT(max_rel_diff(got.to_vector(), want.to_vector()), 1e-5f);
}

TEST(TensorOps, MatmulNtMatchesTransposeReference) {
  Rng rng(41);
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{5, 7}, {6, 7}},        // 2-D
      {{3, 5, 7}, {3, 6, 7}},  // batched
      {{3, 5, 7}, {6, 7}},     // 2-D rhs broadcast over the batch
      {{2, 40, 33}, {2, 37, 33}},
  };
  for (const auto& [as, bs] : cases) {
    Tensor a = Tensor::randn(as, rng);
    Tensor b = Tensor::randn(bs, rng);
    expect_forward_matches(matmul_nt(a, b), matmul(a, transpose2d(b)));
    expect_forward_matches(matmul(a, b, false, true),
                           matmul(a, transpose2d(b)));
  }
}

TEST(TensorOps, MatmulTnMatchesTransposeReference) {
  Rng rng(42);
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{7, 5}, {7, 6}},
      {{3, 7, 5}, {3, 7, 6}},
      {{3, 7, 5}, {7, 6}},
      {{2, 33, 40}, {2, 33, 37}},
  };
  for (const auto& [as, bs] : cases) {
    Tensor a = Tensor::randn(as, rng);
    Tensor b = Tensor::randn(bs, rng);
    expect_forward_matches(matmul_tn(a, b), matmul(transpose2d(a), b));
    expect_forward_matches(matmul(a, b, true, false),
                           matmul(transpose2d(a), b));
  }
}

TEST(TensorOps, MatmulNtTnValues) {
  // [[1,2,3],[4,5,6]] . [[1,0,1],[2,1,0]]^T
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({2, 3}, {1, 0, 1, 2, 1, 0});
  EXPECT_EQ(matmul_nt(a, b).to_vector(), (std::vector<float>{4, 4, 10, 13}));
  EXPECT_EQ(matmul_tn(a, a).to_vector(),
            (std::vector<float>{17, 22, 27, 22, 29, 36, 27, 36, 45}));
}

TEST(TensorOps, MatmulLayoutMisuseThrowsCheckError) {
  const Tensor m23 = Tensor::zeros({2, 3});
  const Tensor m24 = Tensor::zeros({2, 4});
  const Tensor b233 = Tensor::zeros({2, 3, 3});
  // Both operands transposed has no kernel.
  EXPECT_THROW(matmul(m23, m23, true, true), mfa::check::CheckError);
  // Shape: the contracted dims disagree.
  EXPECT_THROW(matmul_nt(m23, m24), mfa::check::CheckError);       // 3 vs 4
  EXPECT_THROW(matmul_tn(m23, Tensor::zeros({3, 2})), mfa::check::CheckError);  // 2 vs 3
  EXPECT_THROW(matmul_nt(b233, Tensor::zeros({3, 3, 3})), mfa::check::CheckError);  // batch
  // Rank: 1-D, 4-D, or a 3-D rhs under a 2-D lhs.
  EXPECT_THROW(matmul_nt(Tensor::zeros({3}), m23), mfa::check::CheckError);
  EXPECT_THROW(matmul_tn(Tensor::zeros({1, 2, 3, 3}), m23), mfa::check::CheckError);
  EXPECT_THROW(matmul_nt(Tensor::zeros({3, 3}), b233), mfa::check::CheckError);
  EXPECT_THROW(matmul_tn(Tensor::zeros({3, 3}), b233), mfa::check::CheckError);
}

TEST(TensorOps, ReshapeWithInference) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = reshape(a, {3, -1});
  ASSERT_EQ(b.shape(), (Shape{3, 2}));
  EXPECT_EQ(b.to_vector(), a.to_vector());
  EXPECT_THROW(reshape(a, {4, 2}), std::invalid_argument);
}

TEST(TensorOps, PermuteTransposes) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = permute(a, {1, 0});
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.to_vector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(TensorOps, PermuteNCHWToTokens) {
  // [1, 2, 2, 2] -> [1, 2*2, 2] tokens-by-channel as the ViT embedding does.
  Tensor a = Tensor::from_data({1, 2, 2, 2}, {0, 1, 2, 3, 10, 11, 12, 13});
  Tensor t = permute(reshape(a, {1, 2, 4}), {0, 2, 1});
  ASSERT_EQ(t.shape(), (Shape{1, 4, 2}));
  EXPECT_EQ(t.to_vector(),
            (std::vector<float>{0, 10, 1, 11, 2, 12, 3, 13}));
}

TEST(TensorOps, ConcatDim1) {
  Tensor a = Tensor::from_data({2, 1}, {1, 2});
  Tensor b = Tensor::from_data({2, 2}, {3, 4, 5, 6});
  Tensor c = concat({a, b}, 1);
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
}

TEST(TensorOps, NarrowSelectsSlice) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = narrow(a, 1, 1, 2);
  ASSERT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.to_vector(), (std::vector<float>{2, 3, 5, 6}));
  EXPECT_THROW(narrow(a, 1, 2, 2), mfa::check::CheckError);
}

TEST(TensorOps, Reductions) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(mean(a).item(), 3.5f);
  Tensor s0 = sum_dim(a, 0);
  EXPECT_EQ(s0.to_vector(), (std::vector<float>{5, 7, 9}));
  Tensor s1 = sum_dim(a, 1, /*keepdim=*/true);
  ASSERT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_EQ(s1.to_vector(), (std::vector<float>{6, 15}));
  Tensor m = max_dim(a, 1);
  EXPECT_EQ(m.to_vector(), (std::vector<float>{3, 6}));
  EXPECT_EQ(argmax_dim(a, 1), (std::vector<std::int64_t>{2, 2}));
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor a = Tensor::randn({4, 7}, rng, 3.0f);
  Tensor s = softmax(a, 1);
  for (std::int64_t r = 0; r < 4; ++r) {
    float acc = 0.0f;
    for (std::int64_t c = 0; c < 7; ++c) acc += s.at({r, c});
    EXPECT_NEAR(acc, 1.0f, 1e-5f);
  }
}

TEST(TensorOps, SoftmaxStableForLargeLogits) {
  Tensor a = Tensor::from_data({1, 2}, {1000.0f, 1001.0f});
  Tensor s = softmax(a, 1);
  EXPECT_NEAR(s.at({0, 0}) + s.at({0, 1}), 1.0f, 1e-5f);
  EXPECT_GT(s.at({0, 1}), s.at({0, 0}));
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(9);
  Tensor a = Tensor::randn({3, 5}, rng);
  Tensor ls = log_softmax(a, 1);
  Tensor s = softmax(a, 1);
  for (std::int64_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-5f);
}

// ---- softmax family: row-parallel, bit-identical for any pool size -------

/// Pins the pool size for a scope and restores it on exit.
class PoolThreads {
 public:
  explicit PoolThreads(int threads)
      : prev_(common::ThreadPool::instance().size()) {
    common::ThreadPool::instance().resize_for_testing(threads);
  }
  ~PoolThreads() { common::ThreadPool::instance().resize_for_testing(prev_); }

 private:
  int prev_;
};

/// Output and input gradient of sum(w * f(a, dim)), flattened, at the given
/// pool size.
std::vector<float> softmax_out_and_grad(Tensor (*f)(const Tensor&,
                                                    std::int64_t),
                                        const Shape& shape, std::int64_t dim,
                                        int threads) {
  const PoolThreads pool(threads);
  Rng rng(77);
  Tensor a = Tensor::randn(shape, rng, 3.0f, /*requires_grad=*/true);
  Tensor w = Tensor::randn(shape, rng);
  Tensor y = f(a, dim);
  sum(mul(y, w)).backward();
  std::vector<float> flat = y.to_vector();
  const auto g = a.grad().to_vector();
  flat.insert(flat.end(), g.begin(), g.end());
  return flat;
}

TEST(TensorOps, SoftmaxFamilyBitwiseIdenticalAcrossThreadCounts) {
  // Both shapes hold several parallel chunks, so the 4-thread run really
  // splits the rows: [256, 1024] along dim 1 is contiguous rows (inner 1);
  // [64, 48, 40] along dim 1 is rows at stride 40 (inner > 1).
  const std::vector<std::pair<Shape, std::int64_t>> cases = {
      {{256, 1024}, 1}, {{64, 48, 40}, 1}};
  for (auto* f : {&softmax, &log_softmax}) {
    for (const auto& [shape, dim] : cases) {
      const auto t1 = softmax_out_and_grad(f, shape, dim, 1);
      const auto t4 = softmax_out_and_grad(f, shape, dim, 4);
      ASSERT_EQ(t1.size(), t4.size());
      EXPECT_EQ(std::memcmp(t1.data(), t4.data(), t1.size() * sizeof(float)),
                0)
          << (f == &softmax ? "softmax" : "log_softmax") << " on "
          << shape_str(shape) << " differs between 1 and 4 pool threads";
    }
  }
}

TEST(TensorOps, SoftmaxStridedRowsSumToOne) {
  // Normalise along a middle dim (inner > 1) at a size that goes parallel.
  Rng rng(6);
  Tensor a = Tensor::randn({32, 24, 50}, rng, 3.0f);
  Tensor s = softmax(a, 1);
  for (std::int64_t r = 0; r < 32; ++r)
    for (std::int64_t k = 0; k < 50; ++k) {
      double acc = 0.0;
      for (std::int64_t j = 0; j < 24; ++j) acc += s.at({r, j, k});
      EXPECT_NEAR(acc, 1.0, 1e-5);
    }
}

TEST(TensorOps, Conv2dIdentityKernel) {
  Tensor x = Tensor::from_data({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::zeros({1, 1, 3, 3});
  w.set({0, 0, 1, 1}, 1.0f);  // centre tap
  Tensor y = conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/1);
  ASSERT_EQ(y.shape(), x.shape());
  EXPECT_EQ(y.to_vector(), x.to_vector());
}

TEST(TensorOps, Conv2dStrideHalvesSpatialDims) {
  Tensor x = Tensor::ones({2, 3, 8, 8});
  Rng rng(1);
  Tensor w = Tensor::randn({5, 3, 3, 3}, rng);
  Tensor y = conv2d(x, w, Tensor(), /*stride=*/2, /*padding=*/1);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 4, 4}));
}

TEST(TensorOps, Conv2dBiasAdds) {
  Tensor x = Tensor::zeros({1, 1, 2, 2});
  Tensor w = Tensor::zeros({2, 1, 1, 1});
  Tensor b = Tensor::from_data({2}, {1.5f, -2.0f});
  Tensor y = conv2d(x, w, b);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(y.data()[i], 1.5f);
    EXPECT_EQ(y.data()[4 + i], -2.0f);
  }
}

TEST(TensorOps, MaxPoolPicksMaxima) {
  Tensor x = Tensor::from_data({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 7});
  Tensor y = max_pool2d(x, 2, 2);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_EQ(y.to_vector(), (std::vector<float>{5, 8}));
}

TEST(TensorOps, AvgPoolAverages) {
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 6});
  Tensor y = avg_pool2d(x, 2, 2);
  EXPECT_FLOAT_EQ(y.item(), 3.0f);
}

TEST(TensorOps, UpsampleNearestDoubles) {
  Tensor x = Tensor::from_data({1, 1, 1, 2}, {1, 2});
  Tensor y = upsample_nearest2x(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 4}));
  EXPECT_EQ(y.to_vector(), (std::vector<float>{1, 1, 2, 2, 1, 1, 2, 2}));
}

TEST(TensorOps, CrossEntropyPerfectPredictionNearZero) {
  Tensor logits = Tensor::from_data({2, 3}, {20, 0, 0, 0, 20, 0});
  Tensor targets = Tensor::from_data({2}, {0, 1});
  EXPECT_NEAR(cross_entropy(logits, targets).item(), 0.0f, 1e-4f);
}

TEST(TensorOps, CrossEntropyUniformIsLogC) {
  Tensor logits = Tensor::zeros({1, 8});
  Tensor targets = Tensor::from_data({1}, {3});
  EXPECT_NEAR(cross_entropy(logits, targets).item(), std::log(8.0f), 1e-5f);
}

TEST(TensorOps, CrossEntropyRejectsBadTarget) {
  Tensor logits = Tensor::zeros({1, 4});
  Tensor targets = Tensor::from_data({1}, {4});
  EXPECT_THROW(cross_entropy(logits, targets), mfa::check::CheckError);
}

TEST(TensorOps, MseLossZeroWhenEqual) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  EXPECT_FLOAT_EQ(mse_loss(a, a).item(), 0.0f);
  Tensor b = Tensor::from_data({3}, {2, 3, 4});
  EXPECT_FLOAT_EQ(mse_loss(a, b).item(), 1.0f);
}

TEST(TensorOps, BatchNormEvalUsesRunningStats) {
  Tensor x = Tensor::from_data({1, 1, 1, 2}, {2.0f, 4.0f});
  Tensor gamma = Tensor::ones({1});
  Tensor beta = Tensor::zeros({1});
  Tensor rm = Tensor::from_data({1}, {3.0f});
  Tensor rv = Tensor::from_data({1}, {1.0f});
  Tensor y = ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/false);
  EXPECT_NEAR(y.data()[0], -1.0f, 1e-3f);
  EXPECT_NEAR(y.data()[1], 1.0f, 1e-3f);
}

TEST(TensorOps, BatchNormTrainingNormalises) {
  Rng rng(17);
  Tensor x = Tensor::randn({4, 2, 8, 8}, rng, 5.0f);
  Tensor gamma = Tensor::ones({2});
  Tensor beta = Tensor::zeros({2});
  Tensor rm = Tensor::zeros({2});
  Tensor rv = Tensor::ones({2});
  Tensor y = ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/true);
  // Per-channel mean ~0, var ~1.
  for (std::int64_t c = 0; c < 2; ++c) {
    double acc = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t i = 0; i < 64; ++i) {
        const float v = y.data()[(n * 2 + c) * 64 + i];
        acc += v;
        sq += v * v;
        ++count;
      }
    EXPECT_NEAR(acc / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(TensorOps, LayerNormNormalisesRows) {
  Rng rng(23);
  Tensor x = Tensor::randn({3, 16}, rng, 4.0f);
  Tensor gamma = Tensor::ones({16});
  Tensor beta = Tensor::zeros({16});
  Tensor y = ops::layer_norm(x, gamma, beta);
  for (std::int64_t r = 0; r < 3; ++r) {
    double acc = 0.0, sq = 0.0;
    for (std::int64_t i = 0; i < 16; ++i) {
      const float v = y.at({r, i});
      acc += v;
      sq += v * v;
    }
    EXPECT_NEAR(acc / 16, 0.0, 1e-4);
    EXPECT_NEAR(sq / 16, 1.0, 1e-2);
  }
}

TEST(TensorOps, GlobalAvgPool) {
  Tensor x = Tensor::from_data({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = ops::global_avg_pool(x);
  ASSERT_EQ(y.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(y.data()[0], 2.5f);
  EXPECT_FLOAT_EQ(y.data()[1], 10.0f);
}

TEST(TensorInPlace, AddScaledAccumulates) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  a.add_(b, 0.5f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{6, 12, 18}));
  EXPECT_THROW(a.add_(Tensor::zeros({2})), std::invalid_argument);
}

TEST(TensorInPlace, MulAndFill) {
  Tensor a = Tensor::from_data({2}, {2, 4});
  a.mul_(1.5f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{3, 6}));
  a.fill_(7.0f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{7, 7}));
}

TEST(TensorInPlace, CopyFromChecksSize) {
  Tensor a = Tensor::zeros({4});
  Tensor b = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  a.copy_from(b);  // same element count, different shape is fine
  EXPECT_EQ(a.to_vector(), b.to_vector());
  EXPECT_THROW(a.copy_from(Tensor::zeros({3})), std::invalid_argument);
}

TEST(TensorOps, ClampMinThresholds) {
  Tensor a = Tensor::from_data({4}, {-2, -0.5f, 0.5f, 2});
  Tensor y = clamp_min(a, 0.0f);
  EXPECT_EQ(y.to_vector(), (std::vector<float>{0, 0, 0.5f, 2}));
}

TEST(TensorOps, PowScalarMatchesRepeatedMul) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor y = pow_scalar(a, 2.0f);
  EXPECT_EQ(y.to_vector(), (std::vector<float>{1, 4, 9}));
}

}  // namespace
}  // namespace mfa
