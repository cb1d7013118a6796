// Test battery for the sparse op family (tensor/ops_sparse.cpp) and the
// LHNN lattice-hypergraph predictor built on it.
//
// The contract under test mirrors the dense kernels': every op gradchecks,
// and every scatter-style reduction is BIT-identical across MFA_THREADS in
// {1, 4} x MFA_POOL in {on, off}, because the accumulation runs through a
// fixed slot partition of the index dimension (never a thread-count-dependent
// one). Index hardening: out-of-range ids throw check::CheckError in every
// build type (validated during the decode pass); non-integral ids are a
// Debug-only MFA_DCHECK.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "models/congestion_model.h"
#include "models/lhnn.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace mfa {
namespace {

using ops::gather_rows;
using ops::index_select;
using ops::mul;
using ops::scatter_add_rows;
using ops::segment_mean;
using ops::segment_sum;
using ops::sum;
using tensor::StoragePool;

/// Pins the pool-thread count; restores it on exit.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(int threads)
      : threads_prev_(common::ThreadPool::instance().size()) {
    common::ThreadPool::instance().resize_for_testing(threads);
  }
  ~ThreadsEnv() {
    common::ThreadPool::instance().resize_for_testing(threads_prev_);
  }

 private:
  int threads_prev_;
};

Tensor index_of(std::vector<float> ids) {
  const auto n = static_cast<std::int64_t>(ids.size());
  return Tensor::from_data({n}, std::move(ids));
}

Tensor make_input(Shape shape, int seed, float scale = 1.0f) {
  Rng rng(static_cast<std::uint64_t>(seed));
  return Tensor::randn(std::move(shape), rng, scale, /*requires_grad=*/true);
}

// ---- forward semantics ---------------------------------------------------

TEST(SparseForward, GatherRowsCopiesSelectedRows) {
  Tensor x = Tensor::from_data({4, 2}, {0, 1, 10, 11, 20, 21, 30, 31});
  Tensor out = gather_rows(x, index_of({2, 0, 2, 3}));
  ASSERT_EQ(out.shape(), (Shape{4, 2}));
  EXPECT_EQ(out.to_vector(),
            (std::vector<float>{20, 21, 0, 1, 20, 21, 30, 31}));
}

TEST(SparseForward, ScatterAddAccumulatesDuplicatesAndZerosUntouchedRows) {
  Tensor src = Tensor::from_data({3, 2}, {1, 2, 10, 20, 100, 200});
  Tensor out = scatter_add_rows(src, index_of({1, 1, 0}), 3);
  ASSERT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_EQ(out.to_vector(), (std::vector<float>{100, 200, 11, 22, 0, 0}));
}

TEST(SparseForward, SegmentSumAndMeanHandleEmptySegments) {
  Tensor src = Tensor::from_data({4, 1}, {1, 3, 5, 7});
  Tensor s = segment_sum(src, index_of({0, 2, 0, 2}), 4);
  EXPECT_EQ(s.to_vector(), (std::vector<float>{6, 0, 10, 0}));
  Tensor m = segment_mean(src, index_of({0, 2, 0, 2}), 4);
  // Empty segments (1 and 3) stay exactly zero under the mean too.
  EXPECT_EQ(m.to_vector(), (std::vector<float>{3, 0, 5, 0}));
}

TEST(SparseForward, IndexSelectGathersAlongInnerDim) {
  // x [2, 3, 2]: value = 100*r + 10*j + k.
  std::vector<float> vals;
  for (std::int64_t r = 0; r < 2; ++r)
    for (std::int64_t j = 0; j < 3; ++j)
      for (std::int64_t k = 0; k < 2; ++k)
        vals.push_back(static_cast<float>(100 * r + 10 * j + k));
  Tensor x = Tensor::from_data({2, 3, 2}, vals);
  Tensor out = index_select(x, 1, index_of({2, 0}));
  ASSERT_EQ(out.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(out.to_vector(),
            (std::vector<float>{20, 21, 0, 1, 120, 121, 100, 101}));
  // Negative dim resolves like the reductions do.
  Tensor last = index_select(x, -1, index_of({1}));
  ASSERT_EQ(last.shape(), (Shape{2, 3, 1}));
  EXPECT_EQ(last.to_vector(), (std::vector<float>{1, 11, 21, 101, 111, 121}));
}

TEST(SparseForward, EmptyIndexProducesEmptyGatherAndZeroScatter) {
  Tensor x = make_input({3, 2}, 5);
  Tensor g = gather_rows(x, Tensor::zeros({0}));
  EXPECT_EQ(g.shape(), (Shape{0, 2}));
  Tensor s = scatter_add_rows(Tensor::zeros({0, 2}), Tensor::zeros({0}), 3);
  EXPECT_EQ(s.to_vector(), (std::vector<float>{0, 0, 0, 0, 0, 0}));
  // Backward through an empty gather is a no-op, not a crash.
  x.zero_grad();
  sum(g).backward();
  EXPECT_EQ(x.grad().to_vector(), (std::vector<float>{0, 0, 0, 0, 0, 0}));
}

// ---- gradcheck battery ---------------------------------------------------

// Index patterns the battery sweeps: duplicates, a permutation, out-of-order
// repeats, and a pattern leaving rows/segments unreferenced. Ids stay valid
// for a row extent of 5 and an index length of 6 (scatter/segment sources).
const std::vector<std::vector<float>> kPatterns = {
    {0, 0, 0, 1, 1, 2},  // heavy duplication
    {4, 2, 0, 1, 3, 2},  // out-of-order with a repeat
    {3, 4, 1, 0, 2, 3},  // near-permutation
    {0, 2, 0, 2, 0, 2},  // rows 1, 3, 4 never referenced
};

class SparseGradcheck : public ::testing::TestWithParam<int> {
 protected:
  int threads() const { return GetParam(); }
};

TEST_P(SparseGradcheck, GatherRows) {
  const ThreadsEnv env(threads());
  for (const auto& pattern : kPatterns) {
    Tensor x = make_input({5, 3}, 11, 0.5f);
    const auto result = gradcheck(
        [&] {
          Tensor g = gather_rows(x, index_of(pattern));
          return sum(mul(g, g));
        },
        {x});
    EXPECT_TRUE(result.ok) << result.detail;
  }
}

TEST_P(SparseGradcheck, ScatterAddRows) {
  const ThreadsEnv env(threads());
  for (const auto& pattern : kPatterns) {
    Tensor src = make_input({6, 2}, 13, 0.5f);
    const auto result = gradcheck(
        [&] {
          Tensor s = scatter_add_rows(src, index_of(pattern), 5);
          return sum(mul(s, s));
        },
        {src});
    EXPECT_TRUE(result.ok) << result.detail;
  }
}

TEST_P(SparseGradcheck, SegmentSumAndMean) {
  const ThreadsEnv env(threads());
  for (const auto& pattern : kPatterns) {
    Tensor src = make_input({6, 2}, 17, 0.5f);
    const auto sum_result = gradcheck(
        [&] {
          Tensor s = segment_sum(src, index_of(pattern), 5);
          return sum(mul(s, s));
        },
        {src});
    EXPECT_TRUE(sum_result.ok) << sum_result.detail;
    const auto mean_result = gradcheck(
        [&] {
          Tensor m = segment_mean(src, index_of(pattern), 5);
          return sum(mul(m, m));
        },
        {src});
    EXPECT_TRUE(mean_result.ok) << mean_result.detail;
  }
}

TEST_P(SparseGradcheck, IndexSelectInnerDim) {
  const ThreadsEnv env(threads());
  for (const auto& pattern : kPatterns) {
    Tensor x = make_input({2, 5, 3}, 19, 0.5f);
    const auto result = gradcheck(
        [&] {
          Tensor g = index_select(x, 1, index_of(pattern));
          return sum(mul(g, g));
        },
        {x});
    EXPECT_TRUE(result.ok) << result.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, SparseGradcheck, ::testing::Values(1, 4),
    [](const auto& info) { return "t" + std::to_string(info.param); });

// ---- bitwise determinism across the config matrix ------------------------

struct SparseConfig {
  int threads;
  bool pool;
};

/// Forward + backward of a composite graph using all four reduction-bearing
/// ops; returns output data and input gradients as one flat float vector
/// for bitwise comparison.
std::vector<float> sparse_pipeline_bits(int seed) {
  Tensor x = make_input({8, 4}, seed, 0.5f);
  const Tensor idx = index_of({7, 3, 3, 0, 5, 3, 7, 1, 1, 2, 6, 4});
  const Tensor seg = index_of({0, 4, 2, 2, 0, 1, 4, 4, 3, 1, 0, 2});
  x.zero_grad();
  Tensor pin = gather_rows(x, idx);                  // [12, 4]
  Tensor net = segment_mean(pin, seg, 5);            // [5, 4]
  Tensor back = gather_rows(net, seg);               // [12, 4]
  Tensor cells = scatter_add_rows(back, idx, 8);     // [8, 4]
  Tensor out = segment_sum(mul(cells, cells), index_of({0, 1, 0, 1, 0, 1, 0, 1}), 2);
  sum(out).backward();
  std::vector<float> bits = cells.to_vector();
  const auto g = x.grad().to_vector();
  bits.insert(bits.end(), g.begin(), g.end());
  return bits;
}

TEST(SparseDeterminism, BitwiseIdenticalAcrossThreadsAndPool) {
  auto& thread_pool = common::ThreadPool::instance();
  auto& storage_pool = StoragePool::instance();
  const bool pool_prev = storage_pool.enabled();
  const int threads_prev = thread_pool.size();

  const SparseConfig configs[] = {
      {1, true}, {4, true}, {1, false}, {4, false},
  };
  for (const int seed : {3, 29, 71}) {
    std::vector<std::vector<float>> runs;
    for (const auto& cfg : configs) {
      thread_pool.resize_for_testing(cfg.threads);
      storage_pool.set_enabled(cfg.pool);
      runs.push_back(sparse_pipeline_bits(seed));
    }
    thread_pool.resize_for_testing(threads_prev);
    storage_pool.set_enabled(pool_prev);
    for (size_t i = 1; i < runs.size(); ++i) {
      ASSERT_EQ(runs[0].size(), runs[i].size());
      EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[i].data(),
                               runs[0].size() * sizeof(float)))
          << "seed " << seed << ": config " << i << " (threads="
          << configs[i].threads << ", pool=" << (configs[i].pool ? "on" : "off")
          << ") diverged from config 0";
    }
  }
}

// ---- index hardening -----------------------------------------------------

TEST(SparseHardening, OutOfRangeIdsThrowCheckErrorInEveryBuild) {
  Tensor x = make_input({4, 2}, 31);
  // Too-high id, negative id: both are caught by the always-on decode-pass
  // MFA_CHECK, including in NDEBUG builds (the inner kernels stay
  // unchecked — that is the documented Release fast path).
  EXPECT_THROW((void)gather_rows(x, index_of({0, 4})), check::CheckError);
  EXPECT_THROW((void)gather_rows(x, index_of({-1})), check::CheckError);
  Tensor src = make_input({3, 2}, 37);
  EXPECT_THROW((void)scatter_add_rows(src, index_of({0, 1, 3}), 3),
               check::CheckError);
  EXPECT_THROW((void)segment_sum(src, index_of({0, -2, 1}), 3),
               check::CheckError);
  EXPECT_THROW((void)segment_mean(src, index_of({5, 0, 1}), 3),
               check::CheckError);
  EXPECT_THROW((void)index_select(x, 1, index_of({2})), check::CheckError);
}

TEST(SparseHardening, MalformedArgumentsThrowCheckError) {
  Tensor x = make_input({4, 2}, 41);
  Tensor src = make_input({3, 2}, 43);
  // Index must be 1-D.
  EXPECT_THROW((void)gather_rows(x, Tensor::zeros({2, 2})),
               check::CheckError);
  // Index length must match the source rows for scatter/segment ops.
  EXPECT_THROW((void)scatter_add_rows(src, index_of({0, 1}), 3),
               check::CheckError);
  // num_rows must be positive.
  EXPECT_THROW((void)scatter_add_rows(src, index_of({0, 1, 2}), 0),
               check::CheckError);
  // index_select dim must be in range.
  EXPECT_THROW((void)index_select(x, 2, index_of({0})), check::CheckError);
}

TEST(SparseHardening, NonIntegralIdsAreADebugCheck) {
  if (!MFA_DCHECK_IS_ON)
    GTEST_SKIP() << "MFA_DCHECK compiled out (NDEBUG build)";
  Tensor x = make_input({4, 2}, 47);
  EXPECT_THROW((void)gather_rows(x, index_of({1.5f})), check::CheckError);
}

// ---- LHNN predictor ------------------------------------------------------

models::ModelConfig lhnn_config() {
  models::ModelConfig config;
  config.grid = 16;
  config.base_channels = 4;
  config.seed = 9;
  return config;
}

TEST(Lhnn, ForwardShapesAndHypergraphSize) {
  auto model = models::make_model("lhnn", lhnn_config());
  auto* lhnn = dynamic_cast<models::LhnnModel*>(model.get());
  ASSERT_NE(lhnn, nullptr);
  // Windows of 4 at stride 2 on a 16-grid: 7x7 nets, 16 pins each.
  EXPECT_EQ(lhnn->num_nets(), 49);
  EXPECT_EQ(lhnn->num_pins(), 49 * 16);
  Rng rng(2);
  Tensor feats = Tensor::randn({2, 6, 16, 16}, rng, 1.0f);
  Tensor logits = model->forward(feats);
  EXPECT_EQ(logits.shape(), (Shape{2, 8, 16, 16}));
  Tensor levels = model->predict_levels(feats);
  EXPECT_EQ(levels.shape(), (Shape{2, 16, 16}));
}

TEST(Lhnn, AuxiliaryLossOnlyInTrainingModeWithMoveOutSemantics) {
  auto model = models::make_model("lhnn", lhnn_config());
  Rng rng(3);
  Tensor feats = Tensor::randn({1, 6, 16, 16}, rng, 1.0f);
  model->network().train(true);
  (void)model->forward(feats);
  Tensor aux = model->take_auxiliary_loss();
  ASSERT_TRUE(aux.defined());
  EXPECT_EQ(aux.numel(), 1);
  // Move-out: a second take returns nothing.
  EXPECT_FALSE(model->take_auxiliary_loss().defined());
  // Inference path (predict_levels runs under NoGrad + eval): no aux loss.
  (void)model->predict_levels(feats);
  EXPECT_FALSE(model->take_auxiliary_loss().defined());
}

/// One full LHNN training step (CE + auxiliary head, multi-root backward);
/// returns every parameter gradient as flat floats.
std::vector<float> lhnn_step_grads() {
  auto model = models::make_model("lhnn", lhnn_config());
  Rng rng(5);
  Tensor feats = Tensor::randn({2, 6, 16, 16}, rng, 1.0f);
  std::vector<float> label_vals(2 * 16 * 16);
  for (auto& v : label_vals)
    v = static_cast<float>(rng.next_u64() % 8);
  Tensor labels = Tensor::from_data({2, 16, 16}, label_vals);
  model->network().train(true);
  model->network().zero_grad();
  Tensor logits = model->forward(feats);
  Tensor loss = ops::cross_entropy(logits, labels);
  Tensor aux = model->take_auxiliary_loss();
  EXPECT_TRUE(aux.defined());
  Tensor::backward_multi({loss, aux});
  std::vector<float> flat;
  for (auto& p : model->network().parameters()) {
    const auto g = p.grad().to_vector();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

TEST(Lhnn, TrainStepBitwiseAcrossThreads) {
  const ThreadsEnv base(1);
  const auto reference = lhnn_step_grads();
  ASSERT_FALSE(reference.empty());
  bool any_nonzero = false;
  for (float g : reference) any_nonzero = any_nonzero || g != 0.0f;
  EXPECT_TRUE(any_nonzero);
  for (const int threads : {1, 4}) {
    const ThreadsEnv env(threads);
    const auto grads = lhnn_step_grads();
    ASSERT_EQ(reference.size(), grads.size());
    EXPECT_EQ(0, std::memcmp(reference.data(), grads.data(),
                             reference.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace mfa
