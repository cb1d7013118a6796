// Tests for the declared-write race checker (common/sanitize.h + the hooks
// in common/thread_pool.cpp).
//
// An overlapping parallel-write declaration is manufactured deliberately
// and must be caught DETERMINISTICALLY: the same defect, the same report,
// under MFA_THREADS 1 and 4 (the suite runs every detection test at both
// pool sizes). A clean 2-epoch training run must report zero violations
// while the checker demonstrably looked (regions_checked > 0). Memory
// errors on pooled buffers are ASan's job; see the StoragePoolAsan death
// tests in test_storage_pool.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "common/thread_pool.h"
#include "models/congestion_model.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace mfa {
namespace {

using tensor::Storage;

/// Forces the checker on (throwing mode), pins the thread-pool size, and
/// restores the ambient configuration on scope exit. Counters are reset so
/// each test asserts on its own violations only.
class SanitizeEnv {
 public:
  explicit SanitizeEnv(int threads)
      : san_prev_(sanitize::enabled()),
        throw_prev_(sanitize::throw_on_violation()),
        threads_prev_(common::ThreadPool::instance().size()) {
    sanitize::set_enabled(true);
    sanitize::set_throw_on_violation(true);
    sanitize::reset_counts();
    common::ThreadPool::instance().resize_for_testing(threads);
  }
  ~SanitizeEnv() {
    common::ThreadPool::instance().resize_for_testing(threads_prev_);
    sanitize::set_throw_on_violation(throw_prev_);
    sanitize::set_enabled(san_prev_);
  }

 private:
  bool san_prev_;
  bool throw_prev_;
  int threads_prev_;
};

/// Runs `fn`, which must throw check::CheckError, and returns the message.
template <typename Fn>
std::string capture_violation(Fn&& fn) {
  try {
    fn();
  } catch (const check::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a sanitizer CheckError, none was thrown";
  return {};
}

class SanitizeDetect : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!sanitize::compiled_in())
      GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  }
};

// ---- overlapping parallel writes ----------------------------------------

/// Buggy kernel: every chunk declares (and would write) [0, end) of `p`
/// instead of its own [begin, end) — the classic forgotten-offset bug. The
/// overlap is declared, so it is reported even though no two chunks ever
/// actually interleaved on this schedule.
void overlapping_writes(float* p, std::int64_t n) {
  parallel_for(n, [&](std::int64_t, std::int64_t i1) {
    sanitize::note_parallel_write(p, 0, i1);
  });
}

TEST_P(SanitizeDetect, OverlappingParallelWritesAreCaught) {
  const SanitizeEnv env(GetParam());
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  const std::string msg =
      capture_violation([&] { overlapping_writes(out.data(), kN); });
  EXPECT_NE(msg.find("sanitize[race]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("overlapping parallel writes"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().race, 1);
}

TEST_P(SanitizeDetect, RaceReportNamesTheCurrentOp) {
  const SanitizeEnv env(GetParam());
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  std::string msg;
  {
    const sanitize::OpScope op_scope("conv2d", 7);
    msg = capture_violation([&] { overlapping_writes(out.data(), kN); });
  }
  EXPECT_NE(msg.find("op conv2d"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tape node #7"), std::string::npos) << msg;
}

TEST_P(SanitizeDetect, DisjointParallelWritesAreClean) {
  const SanitizeEnv env(GetParam());
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  float* p = out.data();
  EXPECT_NO_THROW(parallel_for(kN, [&](std::int64_t i0, std::int64_t i1) {
    sanitize::note_parallel_write(p, i0, i1);
    for (std::int64_t i = i0; i < i1; ++i) p[i] = 1.0f;
  }));
  EXPECT_EQ(sanitize::counts().race, 0);
}

TEST(SanitizeSchedule, RaceReportIsIdenticalForEveryPoolSize) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // The same buggy kernel on the same buffer must produce byte-identical
  // reports with 1 worker and 4 workers: chunk identity is the chunk's begin
  // index under a fixed virtual partition, never a thread id or a schedule
  // accident.
  constexpr std::int64_t kN = 1 << 20;
  std::string reports[2];
  const int sizes[2] = {1, 4};
  const SanitizeEnv outer(1);
  Storage out = Storage::full(kN, 0.0f);  // keep one buffer: same address
  for (int i = 0; i < 2; ++i) {
    common::ThreadPool::instance().resize_for_testing(sizes[i]);
    reports[i] =
        capture_violation([&] { overlapping_writes(out.data(), kN); });
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(SanitizeSchedule, OverlappingScatterRaceReportIsByteIdentical) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // A buggy variant of the slot-partitioned scatter accumulation
  // (tensor/ops_sparse.cpp): each slot declares the WHOLE accumulator
  // instead of its own [slot*rd, (slot+1)*rd) stripe — the forgotten-offset
  // bug the real kernel's note_parallel_write guards against. The report
  // must be byte-identical across pool sizes, because slot identity comes
  // from the fixed virtual partition, not the worker schedule.
  constexpr std::int64_t kSlots = 16;
  constexpr std::int64_t kRd = 8 * 4;  // rows x row width
  std::string reports[2];
  const int sizes[2] = {1, 4};
  const SanitizeEnv outer(1);
  Storage acc = Storage::full(kSlots * kRd, 0.0f);  // one buffer: same address
  float* av = acc.data();
  for (int i = 0; i < 2; ++i) {
    common::ThreadPool::instance().resize_for_testing(sizes[i]);
    reports[i] = capture_violation([&] {
      parallel_for(
          kSlots,
          [&](std::int64_t, std::int64_t s1) {
            sanitize::note_parallel_write(av, 0, s1 * kRd);
          },
          /*grain=*/1);
    });
  }
  EXPECT_NE(reports[0].find("sanitize[race]"), std::string::npos)
      << reports[0];
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(SanitizeSchedule, RealScatterOpsReportZeroRacesUnderParallelPool) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // The shipping sparse ops must pass their own declared-write audit: a
  // forward+backward pass over every reduction-bearing op with 4 workers
  // reports zero violations while the race checker demonstrably ran.
  const SanitizeEnv env(4);
  Rng rng(23);
  Tensor x = Tensor::randn({64, 8}, rng, 1.0f, /*requires_grad=*/true);
  std::vector<float> ids(256);
  for (auto& id : ids) id = static_cast<float>(rng.uniform_int(0, 63));
  const Tensor index = Tensor::from_data({256}, std::move(ids));
  Tensor pin = ops::gather_rows(x, index);
  Tensor net = ops::segment_mean(pin, index, 64);
  Tensor cells = ops::scatter_add_rows(ops::gather_rows(net, index), index, 64);
  ops::sum(ops::mul(cells, cells)).backward();
  const auto c = sanitize::counts();
  EXPECT_EQ(c.race, 0) << "declared parallel writes overlap in a sparse op";
  EXPECT_GT(c.regions_checked, 0);
}

// ---- count-only mode ----------------------------------------------------

TEST_P(SanitizeDetect, CountOnlyModeRecordsWithoutThrowing) {
  const SanitizeEnv env(GetParam());
  sanitize::set_throw_on_violation(false);
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  EXPECT_NO_THROW(overlapping_writes(out.data(), kN));
  EXPECT_NO_THROW(overlapping_writes(out.data(), kN));
  EXPECT_EQ(sanitize::counts().race, 2);
}

// ---- clean pipeline: zero violations ------------------------------------

TEST_P(SanitizeDetect, CleanTwoEpochTrainReportsZeroViolations) {
  const SanitizeEnv env(GetParam());
  Rng rng(17);
  std::vector<train::Sample> samples;
  for (int i = 0; i < 4; ++i) {
    train::Sample s;
    s.features = Tensor::uniform({6, 32, 32}, rng, 0.0f, 1.0f);
    s.label = Tensor::zeros({32, 32});
    const float* src = s.features.data() + 3 * 32 * 32;
    for (std::int64_t j = 0; j < 32 * 32; ++j)
      s.label.data()[j] = src[j] > 0.5f ? 2.0f : 0.0f;
    samples.push_back(std::move(s));
  }
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = 11;
  auto model = models::make_model("ours", config);
  train::TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 2;
  topt.seed = 1;
  topt.resume = false;
  sanitize::reset_counts();
  train::Trainer::fit(*model, samples, topt);
  const auto c = sanitize::counts();
  EXPECT_EQ(c.race, 0);
  EXPECT_GT(c.regions_checked, 0)
      << "the checker must have actually swept declared writes during "
         "training";
}

INSTANTIATE_TEST_SUITE_P(Threads, SanitizeDetect, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads_" + std::to_string(info.param);
                         });

// ---- compile gate -------------------------------------------------------

TEST(Sanitize, CompileGateMatchesBuildMode) {
#if !defined(NDEBUG)
  EXPECT_TRUE(sanitize::compiled_in());
#else
  EXPECT_FALSE(sanitize::compiled_in());
  // Everything must be inert no-ops: enabling is refused, regions are not
  // tracked, nothing is counted.
  sanitize::set_enabled(true);
  EXPECT_FALSE(sanitize::enabled());
  EXPECT_EQ(sanitize::begin_region(), 0u);
  EXPECT_EQ(sanitize::counts().race, 0);
  EXPECT_EQ(sanitize::counts().regions_checked, 0);
#endif
}

TEST(Sanitize, ObsRegistryExportsViolationCounters) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  const SanitizeEnv env(1);
  sanitize::set_throw_on_violation(false);
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  overlapping_writes(out.data(), kN);
  const std::string json = obs::Registry::instance().metrics_json();
  EXPECT_NE(json.find("\"sanitize.violations_race\":1"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace mfa
