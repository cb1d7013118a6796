// Tests for the autograd tape (tensor/tape.h).
//
// The contract under test: backward() runs every closure on the calling
// thread in one reverse-topological order, so gradient accumulation into a
// shared tensor keeps one consumer order and results are BIT-identical for
// any pool thread count (the closures' own kernels parallelise internally).
// Steady-state planning allocates nothing. The tape arena must recycle
// intermediate buffers across steps without perturbing numerics, keep
// escaped tensors alive, and give memory back when the workload shrinks.
// Retire and multi-root semantics are pinned at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "common/thread_pool.h"
#include "nn/optim.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace mfa {
namespace {

using ops::add;
using ops::mul;
using ops::relu;
using ops::sum;
using tensor::Tape;
using tensor::TapeArena;

/// Pins the arena switch and the pool-thread count for a test body; restores
/// both on exit. The arena switch is thread-local, so this configures
/// exactly the thread the graphs are built and run on.
class TapeEnv {
 public:
  explicit TapeEnv(int threads, bool arena = true)
      : arena_prev_(Tape::current().arena_enabled()),
        threads_prev_(common::ThreadPool::instance().size()) {
    Tape::current().set_arena_for_testing(arena);
    common::ThreadPool::instance().resize_for_testing(threads);
  }
  ~TapeEnv() {
    common::ThreadPool::instance().resize_for_testing(threads_prev_);
    Tape::current().set_arena_for_testing(arena_prev_);
  }

 private:
  bool arena_prev_;
  int threads_prev_;
};

Tensor make_input(Shape shape, int seed, float scale = 1.0f) {
  Rng rng(static_cast<std::uint64_t>(seed));
  return Tensor::randn(std::move(shape), rng, scale, /*requires_grad=*/true);
}

/// Identity op whose backward closure stores the id of the thread it ran on
/// in `*ran_on`, then passes the gradient through unchanged.
Tensor record_backward_thread(const Tensor& x, std::thread::id* ran_on) {
  Tensor out = Tensor::make_result(
      x.shape(), {x}, [x, ran_on](detail::TensorImpl& o) {
        *ran_on = std::this_thread::get_id();
        auto xi = x.impl();
        xi->ensure_grad();
        for (size_t i = 0; i < o.grad.size(); ++i)
          xi->grad.data()[i] += o.grad.data()[i];
      });
  std::copy(x.data(), x.data() + x.numel(), out.data());
  return out;
}

/// A wide graph: independent relu(w_i * x_i) arms joined by a balanced add
/// tree. The arms share no grad-requiring tensor, so nothing orders their
/// backward closures but the walk itself. With `ran_on` (one slot per arm),
/// each arm's backward records the thread it ran on.
Tensor wide_branch_loss(const std::vector<Tensor>& ws,
                        const std::vector<Tensor>& xs,
                        std::vector<std::thread::id>* ran_on = nullptr) {
  std::vector<Tensor> arms;
  arms.reserve(ws.size());
  for (size_t i = 0; i < ws.size(); ++i) {
    Tensor arm = relu(mul(ws[i], xs[i]));
    if (ran_on) arm = record_backward_thread(arm, &(*ran_on)[i]);
    arms.push_back(sum(arm));
  }
  while (arms.size() > 1) {
    std::vector<Tensor> next;
    for (size_t i = 0; i + 1 < arms.size(); i += 2)
      next.push_back(add(arms[i], arms[i + 1]));
    if (arms.size() % 2 == 1) next.push_back(arms.back());
    arms.swap(next);
  }
  return arms.front();
}

/// Gradients of `params` after backward of fn(), as flat bytes for bitwise
/// comparison.
std::vector<float> grads_after_backward(const std::function<Tensor()>& fn,
                                        std::vector<Tensor>& params) {
  for (auto& p : params) p.zero_grad();
  fn().backward();
  std::vector<float> flat;
  for (auto& p : params) {
    const auto g = p.grad().to_vector();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

// ---- correctness: gradcheck of a re-joined graph ------------------------

TEST(TapeGraph, DiamondGraphGradchecksAtFourPoolThreads) {
  const TapeEnv env(4);
  Tensor a = make_input({64}, 11, 0.5f);
  const auto result = gradcheck(
      [&] {
        // Two distinct paths from one tensor, re-joined: the walk must run
        // both consumers of `a` and accumulate both writers into its grad.
        // Smooth ops only — a relu kink near zero would dominate the
        // finite-difference error.
        Tensor left = mul(a, a);
        Tensor right = ops::tanh(a);
        return sum(add(mul(left, right), left));
      },
      {a}, /*eps=*/1e-2f, /*tol=*/5e-2f);
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---- execution: one sequential walk on the calling thread ---------------

TEST(TapeGraph, BackwardRunsEveryClosureOnTheCallingThread) {
  // Independent heavy arms at 4 pool threads: the walk must still run every
  // backward closure on the thread that called backward(), dispatching no
  // closure to a pool worker (kernels inside a closure may still fan out).
  const TapeEnv env(4);
  std::vector<Tensor> ws, xs;
  for (int i = 0; i < 4; ++i) {
    ws.push_back(make_input({4096}, 20 + i, 0.5f));
    Rng rng(static_cast<std::uint64_t>(40 + i));
    xs.push_back(Tensor::randn({4096}, rng, 0.5f));
  }
  std::vector<std::thread::id> ran_on(ws.size());
  wide_branch_loss(ws, xs, &ran_on).backward();
  for (size_t i = 0; i < ran_on.size(); ++i)
    EXPECT_EQ(ran_on[i], std::this_thread::get_id())
        << "arm " << i << "'s backward closure ran off the calling thread";
  EXPECT_EQ(Tape::current().last_plan().parallel_tasks, 0);
}

TEST(TapeGraph, SharedSubexpressionAccumulatesIdenticallyAcrossThreadCounts) {
  // s = a*a feeds three consumers; every scatter into s.grad (and then into
  // a.grad) must accumulate in one fixed order, bit for bit, whatever the
  // pool width.
  Tensor a = make_input({4096}, 12, 0.5f);
  Tensor b = make_input({4096}, 13, 0.5f);
  std::vector<Tensor> params = {a, b};
  const auto build = [&] {
    Tensor s = mul(a, a);
    return sum(add(add(mul(s, b), relu(s)), mul(s, s)));
  };
  std::vector<float> grads_t1, grads_t4;
  {
    const TapeEnv env(1);
    grads_t1 = grads_after_backward(build, params);
  }
  {
    const TapeEnv env(4);
    grads_t4 = grads_after_backward(build, params);
  }
  ASSERT_EQ(grads_t1.size(), grads_t4.size());
  for (size_t i = 0; i < grads_t1.size(); ++i)
    ASSERT_EQ(grads_t1[i], grads_t4[i]) << "grad diverged at " << i;
}

// ---- bookkeeping: zero-alloc steady state -------------------------------

TEST(TapeGraph, PlanBookkeepingStopsAllocatingAfterWarmup) {
  const TapeEnv env(4);
  std::vector<Tensor> ws, xs;
  for (int i = 0; i < 4; ++i) {
    ws.push_back(make_input({1024}, 60 + i, 0.5f));
    Rng rng(static_cast<std::uint64_t>(80 + i));
    xs.push_back(Tensor::randn({1024}, rng, 0.5f));
  }
  wide_branch_loss(ws, xs).backward();  // warm-up sizes every plan vector
  const std::int64_t after_warmup = Tape::current().plan_grow_events();
  for (int step = 0; step < 5; ++step) {
    for (auto& w : ws) w.zero_grad();
    wide_branch_loss(ws, xs).backward();
  }
  EXPECT_EQ(Tape::current().plan_grow_events(), after_warmup)
      << "backward() bookkeeping grew a plan vector in the steady state";
}

// ---- arena: recycling, pinning, trimming --------------------------------

TEST(TapeArenaTest, BucketIndexCoversExactlyTheRingRange) {
  // Every request up to the smallest bucket shares ring 0; each power of two
  // up to the largest bucket maps to its own ring; anything larger belongs
  // to the pool. The rings array is sized from the same constants.
  const std::int64_t smallest = std::int64_t{1} << TapeArena::kMinBucket;
  const std::int64_t largest = std::int64_t{1} << TapeArena::kMaxBucket;
  EXPECT_EQ(TapeArena::bucket_index_for(1), 0);
  EXPECT_EQ(TapeArena::bucket_index_for(smallest), 0);
  EXPECT_EQ(TapeArena::bucket_index_for(smallest + 1), 1);
  EXPECT_EQ(TapeArena::bucket_index_for(largest), TapeArena::kNumBuckets - 1);
  EXPECT_EQ(TapeArena::bucket_index_for(largest + 1), -1);
}

TEST(TapeArenaTest, SteadyStateReusesEntriesAndTrimsAfterShrink) {
  const TapeEnv env(1);
  auto& arena = Tape::current().arena();
  arena.clear();
  std::vector<Tensor> ws, xs;
  for (int i = 0; i < 2; ++i) {
    ws.push_back(make_input({2048}, 90 + i, 0.5f));
    Rng rng(static_cast<std::uint64_t>(95 + i));
    xs.push_back(Tensor::randn({2048}, rng, 0.5f));
  }
  wide_branch_loss(ws, xs).backward();
  const std::int64_t entries_after_one = arena.entries();
  const std::int64_t floats_after_one = arena.held_floats();
  EXPECT_GT(entries_after_one, 0);
  // Steady state: identical steps must not grow the arena at all.
  for (int step = 0; step < 6; ++step) {
    for (auto& w : ws) w.zero_grad();
    wide_branch_loss(ws, xs).backward();
  }
  EXPECT_EQ(arena.entries(), entries_after_one);
  EXPECT_EQ(arena.held_floats(), floats_after_one);
  // Shrink the workload: after two small steps (high-water window), the big
  // entries must have been given back.
  Tensor small_w = make_input({64}, 97);
  Rng rng(98);
  Tensor small_x = Tensor::randn({64}, rng, 0.5f);
  for (int step = 0; step < 3; ++step) {
    small_w.zero_grad();
    sum(relu(mul(small_w, small_x))).backward();
  }
  EXPECT_LT(arena.held_floats(), floats_after_one);
  arena.clear();
}

TEST(TapeArenaTest, EscapedIntermediatePinsItsBufferAcrossRetire) {
  const TapeEnv env(1);
  Tensor a = make_input({512}, 30, 0.5f);
  Tensor y = mul(a, a);  // intermediate drawn from the arena
  sum(y).backward();     // retires the tape; y's handle must pin its entry
  const std::vector<float> snapshot = y.to_vector();
  // Run more steps over the same bucket size: the pinned entry must never be
  // handed out while y lives.
  for (int step = 0; step < 4; ++step) {
    a.zero_grad();
    sum(relu(mul(a, a))).backward();
  }
  EXPECT_EQ(y.to_vector(), snapshot);
  // Once y drops, its entry is reusable (or trimmable) again.
  y = Tensor();
  for (int step = 0; step < 3; ++step) {
    a.zero_grad();
    sum(relu(mul(a, a))).backward();
  }
}

TEST(TapeArenaTest, TrainStepBitIdenticalArenaOnVsOff) {
  const auto run = [](bool arena) -> std::vector<float> {
    const TapeEnv env(4, arena);
    Rng rng(77);
    Tensor w = Tensor::randn({2048}, rng, 0.5f, true);
    Tensor x = Tensor::randn({2048}, rng, 0.5f);
    std::vector<Tensor> params = {w};
    nn::Sgd opt(params, 0.1f);
    for (int step = 0; step < 4; ++step) {
      opt.zero_grad();
      sum(relu(mul(w, x))).backward();
      opt.step();
    }
    return w.to_vector();
  };
  EXPECT_EQ(run(true), run(false));
}

// ---- ASan sees the arena ---------------------------------------------------
//
// Under -fsanitize=address a ring entry is poisoned by the drop that leaves
// the ring as its only owner, and the bucket slack past a handout stays
// poisoned, like the pool does for its parked blocks (see the
// StoragePoolAsan death tests). Skipped in builds without ASan.

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

class TapeArenaAsan : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kAsan) GTEST_SKIP() << "needs an ASan build (-DMFA_SANITIZE=address)";
    // The thread pool's workers are live: fork-only death tests are unsafe.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

// volatile: the access must happen even though its result is unused.
void poke(float* p) { *static_cast<volatile float*>(p) = 1.0f; }

TEST_F(TapeArenaAsan, WriteThroughOpOutputDroppedAfterBackwardDies) {
  EXPECT_DEATH(
      {
        const TapeEnv env(1);
        Tensor a = make_input({256}, 90, 0.5f);
        Tensor y = mul(a, a);  // op output: an arena entry
        float* stale = y.data();
        sum(y).backward();  // the step ends while y still pins its entry
        y = Tensor();       // the ring is left as sole owner: poisoned
        poke(stale);
      },
      "use-after-poison");
}

TEST_F(TapeArenaAsan, WriteThroughOutputDroppedBeforeBackwardDies) {
  EXPECT_DEATH(
      {
        const TapeEnv env(1);
        Tensor a = make_input({256}, 91, 0.5f);
        Tensor y = mul(a, a);
        float* stale = y.data();
        Tensor loss = sum(y);
        y = Tensor();     // only the tape still references the output
        loss.backward();  // retire drops the tape: the ring is sole owner
        poke(stale);
      },
      "use-after-poison");
}

TEST_F(TapeArenaAsan, ReadPastHandoutIntoBucketSlackDies) {
  EXPECT_DEATH(
      {
        const TapeEnv env(1);
        Tensor a = make_input({700}, 92, 0.5f);
        Tensor y = mul(a, a);  // a 1024-float ring entry, 700 handed out
        poke(y.data() + 700);
      },
      "use-after-poison");
}

TEST_F(TapeArenaAsan, EntryOutlivingItsRingIsNotPoisonedByAnEarlierDrop) {
  // The op runs on a thread whose tape, arena included, dies with it; the
  // entry then has two outside handles and no ring. Dropping one of them
  // must leave the other's buffer readable.
  Tensor y;
  std::thread([&y] {
    Tensor a = make_input({256}, 93, 0.5f);
    y = mul(a, a);
  }).join();
  const float first = y.data()[0];
  tensor::Storage other = y.impl()->data;
  y = Tensor();
  EXPECT_EQ(*static_cast<volatile const float*>(other.data()), first);
}

// ---- diagnostics -----------------------------------------------------------

TEST(TapeSanitize, RaceReportIsByteIdenticalAcrossThreadCounts) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // A backward closure with the classic forgotten-offset bug: every chunk
  // declares [0, end). With race tracking armed, parallel_for partitions
  // into a fixed chunk count and the walk runs one canonical order, so the
  // report (op name, tape node, chunk ids) is byte-identical for any pool
  // width — never a worker schedule accident.
  const bool san_prev = sanitize::enabled();
  sanitize::set_enabled(true);
  sanitize::set_throw_on_violation(true);
  sanitize::reset_counts();
  // One tensor shared by both runs: the report names the faulting buffer by
  // address, and `a`'s grad storage persists across backward calls, so the
  // two reports can only match if the schedule is canonical.
  Tensor a = make_input({1 << 20}, 55);
  const auto buggy_loss = [](const Tensor& in) {
    Tensor y = Tensor::make_result(
        in.shape(), {in}, [in](detail::TensorImpl& o) {
          auto ai = in.impl();
          ai->ensure_grad();
          float* ga = ai->grad.data();
          const auto n = static_cast<std::int64_t>(o.data.size());
          parallel_for(n, [&](std::int64_t, std::int64_t i1) {
            sanitize::note_parallel_write(ga, 0, i1);  // forgotten offset
          });
        });
    return sum(y);
  };
  std::string reports[2];
  const int widths[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const TapeEnv env(widths[i]);
    a.zero_grad();
    try {
      buggy_loss(a).backward();
      ADD_FAILURE() << "expected a race violation, none was thrown";
    } catch (const check::CheckError& e) {
      reports[i] = e.what();
    }
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_NE(reports[0].find("sanitize[race]"), std::string::npos)
      << reports[0];
  sanitize::reset_counts();
  sanitize::set_enabled(san_prev);
}

// ---- retire semantics ---------------------------------------------------

TEST(TapeRetire, RetiredGraphSurvivorActsAsLeaf) {
  const TapeEnv env(4);
  Tensor a = make_input({8}, 88);
  Tensor y = mul(a, a);
  sum(y).backward();
  EXPECT_EQ(Tape::current().recorded_nodes(), 0) << "tape not retired";
  // A survivor of the retired graph acts as a leaf in the next graph:
  // gradient flow stops at it instead of re-running retired closures.
  a.zero_grad();
  Tensor z = sum(mul(y, y));
  z.backward();
  const auto ga = a.grad().to_vector();
  for (const float g : ga) EXPECT_EQ(g, 0.0f);
  const auto gy = y.grad().to_vector();
  EXPECT_EQ(gy.size(), static_cast<size_t>(y.numel()));
}

TEST(TapeRetire, BackwardFromLeafLeavesRecordedGraphLive) {
  const TapeEnv env(1);
  Tensor a = make_input({16}, 89);
  Tensor loss = sum(mul(a, a));
  // A detached scalar backward must not retire the recorded graph.
  Tensor detached = Tensor::scalar(3.0f, true);
  detached.backward();
  EXPECT_GT(Tape::current().recorded_nodes(), 0);
  a.zero_grad();
  loss.backward();  // the real graph still executes fully
  const auto ga = a.grad().to_vector();
  const auto av = a.to_vector();
  for (size_t i = 0; i < ga.size(); ++i)
    EXPECT_NEAR(ga[i], 2.0f * av[i], 1e-4f);
}

// ---- multi-root backward (Tensor::backward_multi) ------------------------

/// Two scalar heads over a shared trunk: head1 = sum(relu(w*x)),
/// head2 = sum((w*x)^2) — both consume the same intermediate, so the union
/// graph scatters into one shared parent from both heads' closures.
void two_head_graph(Tensor& w, Tensor& x, Tensor& head1, Tensor& head2) {
  Tensor trunk = mul(w, x);
  head1 = sum(relu(trunk));
  head2 = sum(mul(trunk, trunk));
}

TEST(TapeMultiRoot, TwoHeadGradsBitwiseIdenticalAcrossThreadCounts) {
  std::vector<std::vector<float>> runs;
  for (const int threads : {1, 4}) {
    const TapeEnv env(threads);
    Tensor w = make_input({256}, 101, 0.5f);
    Tensor x = make_input({256}, 102, 0.5f);
    Tensor head1, head2;
    two_head_graph(w, x, head1, head2);
    Tensor::backward_multi({head1, head2});
    std::vector<float> flat = w.grad().to_vector();
    const auto gx = x.grad().to_vector();
    flat.insert(flat.end(), gx.begin(), gx.end());
    runs.push_back(std::move(flat));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[1].data(),
                           runs[0].size() * sizeof(float)))
      << "4 pool threads diverged from 1";
}

TEST(TapeMultiRoot, MatchesBackwardOfExplicitSum) {
  // d(h1 + h2)/dθ computed by one multi-root pass must equal the gradient
  // of the literal sum node: the add's backward scatters the same seed the
  // multi-root path plants directly.
  const TapeEnv env(4);
  Tensor w1 = make_input({64}, 103, 0.5f);
  Tensor x1 = make_input({64}, 104, 0.5f);
  Tensor h1a, h2a;
  two_head_graph(w1, x1, h1a, h2a);
  Tensor::backward_multi({h1a, h2a});
  const auto gw_multi = w1.grad().to_vector();

  Tensor w2 = make_input({64}, 103, 0.5f);
  Tensor x2 = make_input({64}, 104, 0.5f);
  Tensor h1b, h2b;
  two_head_graph(w2, x2, h1b, h2b);
  add(h1b, h2b).backward();
  const auto gw_sum = w2.grad().to_vector();
  ASSERT_EQ(gw_multi.size(), gw_sum.size());
  EXPECT_EQ(0, std::memcmp(gw_multi.data(), gw_sum.data(),
                           gw_multi.size() * sizeof(float)));
}

TEST(TapeMultiRoot, DuplicateRootAccumulatesItsSeed) {
  const TapeEnv env(1);
  Tensor a = make_input({32}, 105, 0.5f);
  Tensor loss = sum(mul(a, a));
  Tensor::backward_multi({loss, loss});
  const auto g = a.grad().to_vector();
  const auto av = a.to_vector();
  // Seed 2.0 -> gradient 2 * 2a, exactly (power-of-two scaling).
  for (size_t i = 0; i < g.size(); ++i)
    EXPECT_EQ(g[i], 4.0f * av[i]);
}

TEST(TapeMultiRoot, LeafRootIsSeededWhileTapedRootPropagates) {
  const TapeEnv env(1);
  Tensor a = make_input({16}, 107, 0.5f);
  Tensor leaf = Tensor::scalar(2.0f, /*requires_grad=*/true);
  Tensor loss = sum(mul(a, a));
  Tensor::backward_multi({loss, leaf});
  EXPECT_EQ(leaf.grad().item(), 1.0f);
  const auto g = a.grad().to_vector();
  const auto av = a.to_vector();
  for (size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i], 2.0f * av[i]);
}

TEST(TapeMultiRoot, InteriorRootReceivesSeedOnTopOfScatteredGradient) {
  // head2 depends on head1's subgraph THROUGH trunk, and head1 itself is a
  // root: an interior-ish mix. Use y = sum(x^2), roots {y, z} with
  // z = sum(relu(x)): gradient = 2x + relu'(x).
  const TapeEnv env(1);
  Tensor x = make_input({64}, 109, 0.5f);
  Tensor y = sum(mul(x, x));
  Tensor z = sum(relu(x));
  Tensor::backward_multi({y, z});
  const auto g = x.grad().to_vector();
  const auto xv = x.to_vector();
  for (size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(g[i], 2.0f * xv[i] + (xv[i] > 0.0f ? 1.0f : 0.0f), 1e-5f);
}

TEST(TapeMultiRoot, UnionPlanCountsSharedSubgraphOnce) {
  const TapeEnv env(1);
  Tensor w = make_input({64}, 111, 0.5f);
  Tensor x = make_input({64}, 112, 0.5f);
  Tensor head1, head2;
  two_head_graph(w, x, head1, head2);
  // Nodes: mul(trunk), relu, sum(h1), mul(sq), sum(h2) = 5 — the shared
  // trunk appears once in the union plan, not per root.
  Tensor::backward_multi({head1, head2});
  EXPECT_EQ(Tape::current().last_plan().nodes, 5);
}

TEST(TapeMultiRoot, PlanBookkeepingStaysZeroAllocAfterWarmup) {
  const TapeEnv env(4);
  auto run = [&] {
    Tensor w = make_input({128}, 113, 0.5f);
    Tensor x = make_input({128}, 114, 0.5f);
    Tensor head1, head2;
    two_head_graph(w, x, head1, head2);
    Tensor::backward_multi({head1, head2});
  };
  run();
  run();
  const std::int64_t after_warmup = Tape::current().plan_grow_events();
  for (int i = 0; i < 3; ++i) run();
  EXPECT_EQ(Tape::current().plan_grow_events(), after_warmup)
      << "multi-root planning must reuse the plan scratch vectors";
}

}  // namespace
}  // namespace mfa
