// Gradient verification for every differentiable op: analytic vs central
// finite differences via mfa::gradcheck.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace mfa {
namespace {

using namespace mfa::ops;

void expect_gradcheck(const std::function<Tensor()>& fn,
                      const std::vector<Tensor>& inputs, float tol = 5e-2f) {
  const GradCheckResult r = gradcheck(fn, inputs, 1e-2f, tol);
  EXPECT_TRUE(r.ok) << r.detail << " (max_abs=" << r.max_abs_err
                    << " max_rel=" << r.max_rel_err << ")";
}

Tensor make_input(Shape shape, std::uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, stddev, /*requires_grad=*/true);
}

TEST(Autograd, Add) {
  Tensor a = make_input({2, 3}, 1);
  Tensor b = make_input({2, 3}, 2);
  expect_gradcheck([&] { return sum(mul(add(a, b), add(a, b))); }, {a, b});
}

TEST(Autograd, BroadcastAdd) {
  Tensor a = make_input({2, 3}, 3);
  Tensor b = make_input({3}, 4);
  expect_gradcheck([&] { return sum(mul(add(a, b), add(a, b))); }, {a, b});
}

TEST(Autograd, BroadcastMulColumn) {
  Tensor a = make_input({3, 2}, 5);
  Tensor b = make_input({3, 1}, 6);
  expect_gradcheck([&] { return sum(mul(a, b)); }, {a, b});
}

TEST(Autograd, Div) {
  Tensor a = make_input({2, 2}, 7);
  Tensor b = make_input({2, 2}, 8);
  // Keep denominators away from zero.
  for (std::int64_t i = 0; i < b.numel(); ++i)
    b.data()[i] = 2.0f + std::fabs(b.data()[i]);
  expect_gradcheck([&] { return sum(div(a, b)); }, {a, b});
}

TEST(Autograd, ExpLogSqrt) {
  Tensor a = make_input({6}, 9);
  for (std::int64_t i = 0; i < a.numel(); ++i)
    a.data()[i] = 0.5f + std::fabs(a.data()[i]);
  expect_gradcheck([&] { return sum(ops::log(ops::exp(ops::sqrt(a)))); }, {a});
}

TEST(Autograd, PowScalar) {
  Tensor a = make_input({5}, 10);
  for (std::int64_t i = 0; i < a.numel(); ++i)
    a.data()[i] = 0.5f + std::fabs(a.data()[i]);
  expect_gradcheck([&] { return sum(pow_scalar(a, 2.5f)); }, {a});
}

TEST(Autograd, ActivationFunctions) {
  Tensor a = make_input({8}, 11);
  // Keep values away from the ReLU kink where FD is ill-defined.
  for (std::int64_t i = 0; i < a.numel(); ++i)
    if (std::fabs(a.data()[i]) < 0.15f) a.data()[i] = 0.3f;
  expect_gradcheck([&] { return sum(relu(a)); }, {a});
  expect_gradcheck([&] { return sum(leaky_relu(a)); }, {a});
  expect_gradcheck([&] { return sum(sigmoid(a)); }, {a});
  expect_gradcheck([&] { return sum(ops::tanh(a)); }, {a});
  expect_gradcheck([&] { return sum(gelu(a)); }, {a});
}

TEST(Autograd, Matmul2D) {
  Tensor a = make_input({3, 4}, 12);
  Tensor b = make_input({4, 2}, 13);
  expect_gradcheck([&] { return sum(mul(matmul(a, b), matmul(a, b))); },
                   {a, b});
}

TEST(Autograd, MatmulBatched) {
  Tensor a = make_input({2, 2, 3}, 14);
  Tensor b = make_input({2, 3, 2}, 15);
  expect_gradcheck([&] { return sum(matmul(a, b)); }, {a, b});
}

TEST(Autograd, MatmulBatchedSharedRhs) {
  Tensor a = make_input({2, 2, 3}, 16);
  Tensor b = make_input({3, 2}, 17);
  expect_gradcheck([&] { return sum(mul(matmul(a, b), matmul(a, b))); },
                   {a, b});
}

TEST(Autograd, MatmulNtBatched) {
  Tensor a = make_input({2, 3, 4}, 60);
  Tensor b = make_input({2, 5, 4}, 61);
  expect_gradcheck(
      [&] { return sum(mul(matmul_nt(a, b), matmul_nt(a, b))); }, {a, b});
}

TEST(Autograd, MatmulTnBatched) {
  Tensor a = make_input({2, 4, 3}, 62);
  Tensor b = make_input({2, 4, 5}, 63);
  expect_gradcheck(
      [&] { return sum(mul(matmul_tn(a, b), matmul_tn(a, b))); }, {a, b});
}

TEST(Autograd, MatmulNtTnBatchedSharedRhs) {
  // A 2-D rhs broadcasts over the batch: its gradient sums every batch.
  Tensor a = make_input({2, 3, 4}, 64);
  Tensor bn = make_input({5, 4}, 65);
  Tensor at = make_input({2, 4, 3}, 66);
  Tensor bt = make_input({4, 5}, 67);
  expect_gradcheck(
      [&] { return sum(mul(matmul_nt(a, bn), matmul_nt(a, bn))); }, {a, bn});
  expect_gradcheck(
      [&] { return sum(mul(matmul_tn(at, bt), matmul_tn(at, bt))); },
      {at, bt});
}

/// Gradients of `inputs` after backward of fn(), flattened in input order.
std::vector<float> grads_of(const std::function<Tensor()>& fn,
                            std::vector<Tensor> inputs) {
  for (auto& t : inputs) t.zero_grad();
  fn().backward();
  std::vector<float> flat;
  for (auto& t : inputs) {
    const auto g = t.grad().to_vector();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

void expect_grads_match(const std::vector<float>& got,
                        const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], 1e-4f * std::max(1.0f, std::fabs(want[i])))
        << "gradient element " << i;
}

TEST(Autograd, MatmulNtTnGradientsMatchTransposeReference) {
  // Shapes large enough that every GEMM goes through its blocked path.
  Tensor a = make_input({2, 40, 33}, 68, 0.5f);
  Tensor b = make_input({2, 37, 33}, 69, 0.5f);
  Tensor w = make_input({2, 40, 37}, 70);
  expect_grads_match(
      grads_of([&] { return sum(mul(matmul_nt(a, b), w)); }, {a, b}),
      grads_of([&] { return sum(mul(matmul(a, transpose2d(b)), w)); },
               {a, b}));
  Tensor c = make_input({2, 33, 40}, 71, 0.5f);
  Tensor d = make_input({2, 33, 37}, 72, 0.5f);
  expect_grads_match(
      grads_of([&] { return sum(mul(matmul_tn(c, d), w)); }, {c, d}),
      grads_of([&] { return sum(mul(matmul(transpose2d(c), d), w)); },
               {c, d}));
  // Few-row products (fewer rows than one GEMM row chunk), the shape of
  // the one-channel attention branch's m = 1 products.
  Tensor e = make_input({4, 3, 50}, 73, 0.5f);
  Tensor f = make_input({4, 5, 50}, 74, 0.5f);
  Tensor v = make_input({4, 3, 5}, 75);
  expect_grads_match(
      grads_of([&] { return sum(mul(matmul_nt(e, f), v)); }, {e, f}),
      grads_of([&] { return sum(mul(matmul(e, transpose2d(f)), v)); },
               {e, f}));
  Tensor g = make_input({4, 50, 3}, 76, 0.5f);
  Tensor h = make_input({4, 50, 5}, 77, 0.5f);
  expect_grads_match(
      grads_of([&] { return sum(mul(matmul_tn(g, h), v)); }, {g, h}),
      grads_of([&] { return sum(mul(matmul(transpose2d(g), h), v)); },
               {g, h}));
}

TEST(Autograd, ReshapePermute) {
  Tensor a = make_input({2, 3, 2}, 18);
  expect_gradcheck(
      [&] {
        Tensor r = reshape(a, {2, 6});
        Tensor p = permute(a, {2, 0, 1});
        return add(sum(mul(r, r)), sum(mul(p, p)));
      },
      {a});
}

TEST(Autograd, ConcatNarrow) {
  Tensor a = make_input({2, 2}, 19);
  Tensor b = make_input({2, 3}, 20);
  expect_gradcheck(
      [&] {
        Tensor c = concat({a, b}, 1);
        Tensor n = narrow(c, 1, 1, 3);
        return sum(mul(n, n));
      },
      {a, b});
}

TEST(Autograd, SumMeanDims) {
  Tensor a = make_input({3, 4}, 21);
  expect_gradcheck(
      [&] {
        return add(sum(mul(sum_dim(a, 0), sum_dim(a, 0))),
                   sum(mul(mean_dim(a, 1), mean_dim(a, 1))));
      },
      {a});
}

TEST(Autograd, MaxDim) {
  Tensor a = make_input({3, 5}, 22, 3.0f);
  expect_gradcheck([&] { return sum(mul(max_dim(a, 1), max_dim(a, 1))); }, {a});
}

TEST(Autograd, Softmax) {
  Tensor a = make_input({2, 6}, 23);
  Tensor w = make_input({2, 6}, 24);
  expect_gradcheck([&] { return sum(mul(softmax(a, 1), w)); }, {a, w});
}

TEST(Autograd, LogSoftmax) {
  Tensor a = make_input({2, 6}, 25);
  Tensor w = make_input({2, 6}, 26);
  expect_gradcheck([&] { return sum(mul(log_softmax(a, 1), w)); }, {a, w});
}

TEST(Autograd, CrossEntropy2D) {
  Tensor logits = make_input({4, 5}, 27);
  Tensor targets = Tensor::from_data({4}, {0, 2, 4, 1});
  expect_gradcheck([&] { return cross_entropy(logits, targets); }, {logits});
}

TEST(Autograd, CrossEntropy4D) {
  Tensor logits = make_input({1, 3, 2, 2}, 28);
  Tensor targets = Tensor::from_data({1, 2, 2}, {0, 1, 2, 1});
  expect_gradcheck([&] { return cross_entropy(logits, targets); }, {logits});
}

TEST(Autograd, MseLoss) {
  Tensor p = make_input({6}, 29);
  Tensor t = make_input({6}, 30);
  expect_gradcheck([&] { return mse_loss(p, t); }, {p, t});
}

TEST(Autograd, Conv2d) {
  Tensor x = make_input({2, 2, 4, 4}, 31);
  Tensor w = make_input({3, 2, 3, 3}, 32, 0.5f);
  Tensor b = make_input({3}, 33);
  expect_gradcheck(
      [&] {
        Tensor y = conv2d(x, w, b, 1, 1);
        return sum(mul(y, y));
      },
      {x, w, b});
}

TEST(Autograd, Conv2dStride2) {
  Tensor x = make_input({1, 2, 6, 6}, 34);
  Tensor w = make_input({2, 2, 3, 3}, 35, 0.5f);
  expect_gradcheck([&] { return sum(conv2d(x, w, Tensor(), 2, 1)); }, {x, w});
}

TEST(Autograd, MaxPool) {
  Tensor x = make_input({1, 2, 4, 4}, 36, 3.0f);
  expect_gradcheck(
      [&] {
        Tensor y = max_pool2d(x, 2, 2);
        return sum(mul(y, y));
      },
      {x});
}

TEST(Autograd, AvgPool) {
  Tensor x = make_input({1, 2, 4, 4}, 37);
  expect_gradcheck(
      [&] {
        Tensor y = avg_pool2d(x, 2, 2);
        return sum(mul(y, y));
      },
      {x});
}

TEST(Autograd, UpsampleNearest) {
  Tensor x = make_input({1, 2, 3, 3}, 38);
  expect_gradcheck(
      [&] {
        Tensor y = upsample_nearest2x(x);
        return sum(mul(y, y));
      },
      {x});
}

TEST(Autograd, GlobalAvgPool) {
  Tensor x = make_input({2, 3, 4, 4}, 39);
  expect_gradcheck(
      [&] {
        Tensor y = global_avg_pool(x);
        return sum(mul(y, y));
      },
      {x});
}

TEST(Autograd, BatchNormTraining) {
  Tensor x = make_input({2, 2, 3, 3}, 40);
  Tensor gamma = make_input({2}, 41);
  Tensor beta = make_input({2}, 42);
  expect_gradcheck(
      [&] {
        Tensor rm = Tensor::zeros({2});
        Tensor rv = Tensor::ones({2});
        Tensor y = ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/true);
        return sum(mul(y, y));
      },
      {x, gamma, beta}, /*tol=*/8e-2f);
}

TEST(Autograd, BatchNormEval) {
  Tensor x = make_input({2, 2, 3, 3}, 43);
  Tensor gamma = make_input({2}, 44);
  Tensor beta = make_input({2}, 45);
  Tensor rm = Tensor::from_data({2}, {0.5f, -0.5f});
  Tensor rv = Tensor::from_data({2}, {2.0f, 3.0f});
  expect_gradcheck(
      [&] {
        Tensor y =
            ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/false);
        return sum(mul(y, y));
      },
      {x, gamma, beta});
}

TEST(Autograd, LayerNorm) {
  Tensor x = make_input({3, 8}, 46, 2.0f);
  Tensor gamma = make_input({8}, 47);
  Tensor beta = make_input({8}, 48);
  expect_gradcheck(
      [&] {
        Tensor y = ops::layer_norm(x, gamma, beta);
        return sum(mul(y, y));
      },
      {x, gamma, beta}, /*tol=*/8e-2f);
}

// The batch_norm2d / layer_norm backward closures capture the pooled mean /
// inv_std Storage blocks by value; those blocks come from the StoragePool
// and must stay pinned (refcounted) until backward runs. Churn the pool
// between forward and backward: if the closures' blocks were wrongly
// recycled, the churn tensors would overwrite them and the analytic
// gradients would diverge from the numeric ones.
TEST(Autograd, BatchNormPooledStatsSurvivePoolChurn) {
  Tensor x = make_input({2, 2, 3, 3}, 60);
  Tensor gamma = make_input({2}, 61);
  Tensor beta = make_input({2}, 62);
  expect_gradcheck(
      [&] {
        Tensor rm = Tensor::zeros({2});
        Tensor rv = Tensor::ones({2});
        Tensor y = ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/true);
        // Same size class as the captured per-channel mean/inv_std blocks.
        for (int i = 0; i < 16; ++i) {
          Tensor churn = Tensor::zeros({2});
          churn.data()[0] = 123.0f;
        }
        return sum(mul(y, y));
      },
      {x, gamma, beta}, /*tol=*/8e-2f);
}

TEST(Autograd, LayerNormPooledStatsSurvivePoolChurn) {
  Tensor x = make_input({3, 8}, 63, 2.0f);
  Tensor gamma = make_input({8}, 64);
  Tensor beta = make_input({8}, 65);
  expect_gradcheck(
      [&] {
        Tensor y = ops::layer_norm(x, gamma, beta);
        // Same size class as the captured per-row mean/inv_std blocks.
        for (int i = 0; i < 16; ++i) {
          Tensor churn = Tensor::zeros({3});
          churn.data()[0] = 123.0f;
        }
        return sum(mul(y, y));
      },
      {x, gamma, beta}, /*tol=*/8e-2f);
}

TEST(Autograd, ClampMin) {
  Tensor a = make_input({8}, 49);
  for (std::int64_t i = 0; i < a.numel(); ++i)
    if (std::fabs(a.data()[i] - 0.2f) < 0.15f) a.data()[i] = 1.0f;
  expect_gradcheck([&] { return sum(mul(clamp_min(a, 0.2f), clamp_min(a, 0.2f))); },
                   {a});
}

TEST(Autograd, DiamondGraphAccumulates) {
  // y = a*a + a*a via two distinct paths; grad must be 4a.
  Tensor a = make_input({3}, 50);
  Tensor l = add(mul(a, a), mul(a, a));
  sum(l).backward();
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(a.grad().data()[i], 4.0f * a.data()[i], 1e-4f);
}

TEST(Autograd, NoGradGuardSkipsTape) {
  Tensor a = make_input({3}, 51);
  {
    NoGradGuard guard;
    Tensor y = mul(a, a);
    EXPECT_FALSE(y.requires_grad());
  }
  Tensor y = mul(a, a);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor a = make_input({3}, 52);
  Tensor y = mul(a, a);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(Autograd, ZeroGradClearsAccumulation) {
  Tensor a = make_input({2}, 53);
  sum(mul(a, a)).backward();
  const float g0 = a.grad().data()[0];
  a.zero_grad();
  sum(mul(a, a)).backward();
  EXPECT_NEAR(a.grad().data()[0], g0, 1e-6f);
}

// Transformer-style attention block assembled from primitives must be
// differentiable end to end, and the transpose-free score path must match
// the materialised-transpose reference.
TEST(Autograd, ScaledDotProductAttentionComposite) {
  Tensor q = make_input({1, 3, 4}, 54, 0.5f);
  Tensor k = make_input({1, 3, 4}, 55, 0.5f);
  Tensor v = make_input({1, 3, 4}, 56, 0.5f);
  const auto attention = [&](bool reference) {
    Tensor scores =
        (reference ? matmul(q, transpose2d(k)) : matmul_nt(q, k)) *
        (1.0f / 2.0f);
    Tensor attn = softmax(scores, 2);
    Tensor out = matmul(attn, v);
    return sum(mul(out, out));
  };
  expect_gradcheck([&] { return attention(false); }, {q, k, v});
  EXPECT_NEAR(attention(false).item(), attention(true).item(), 1e-5f);
  expect_grads_match(grads_of([&] { return attention(false); }, {q, k, v}),
                     grads_of([&] { return attention(true); }, {q, k, v}));
}

}  // namespace
}  // namespace mfa
