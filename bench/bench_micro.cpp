// Micro-benchmarks of the substrates (google-benchmark): NN kernels, MFA /
// transformer blocks, feature extraction, router and placer throughput.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/metrics.h"
#include "common/sanitize.h"
#include "common/trace.h"
#include "features/features.h"
#include "models/blocks.h"
#include "models/congestion_model.h"
#include "netlist/generator.h"
#include "nn/attention.h"
#include "place/legalizer.h"
#include "place/placer.h"
#include "route/router.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tape.h"

using namespace mfa;

namespace {

/// Attaches per-iteration StoragePool counters to a benchmark: pool hits and
/// heap allocations (misses) per iteration, measured over the timed loop
/// only. scripts/bench.sh compares heap_allocs_per_iter against an
/// MFA_POOL=off run to assert the steady-state allocation reduction.
struct PoolCounterScope {
  explicit PoolCounterScope(benchmark::State& state) : state_(state) {
    tensor::StoragePool::instance().reset_stats();
  }
  ~PoolCounterScope() {
    const auto st = tensor::StoragePool::instance().stats();
    const auto iters = static_cast<double>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(state_.iterations())));
    state_.counters["pool_hits_per_iter"] =
        static_cast<double>(st.hits) / iters;
    state_.counters["heap_allocs_per_iter"] =
        static_cast<double>(st.misses) / iters;
    // scripts/bench.sh --check asserts this is 0: the mfa::sanitize storage
    // checker (redzones, generation stamps, write-set logging) must be fully
    // compiled out of optimized builds, not merely disabled at runtime.
    state_.counters["sanitize_compiled_in"] =
        sanitize::compiled_in() ? 1.0 : 0.0;
  }
  benchmark::State& state_;
};

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = state.range(0);
  Rng rng(1);
  Tensor x = Tensor::randn({1, channels, 64, 64}, rng);
  Tensor w = Tensor::randn({channels, channels, 3, 3}, rng, 0.1f);
  NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_Conv2dTrainStep(benchmark::State& state) {
  Rng rng(2);
  Tensor x = Tensor::randn({4, 8, 64, 64}, rng);
  Tensor w = Tensor::randn({8, 8, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
  const auto step = [&] {
    w.zero_grad();
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
    ops::sum(ops::mul(y, y)).backward();
    benchmark::DoNotOptimize(w.grad().data());
  };
  step();  // warm-up: populate the free lists before counting
  PoolCounterScope counters(state);
  for (auto _ : state) step();
}
BENCHMARK(BM_Conv2dTrainStep);

/// Observability overhead pair: the same train step as BM_Conv2dTrainStep,
/// but instrumented the way the trainer is (one trace span + a counter bump
/// + a gauge set per step), run once with obs recording enabled and once
/// with it disabled. scripts/bench.sh --check compares the pair and fails
/// if the enabled run is more than 2% slower. obs_spans_per_iter documents
/// which mode each run was in (1 when recording, 0 when disabled).
void RunConv2dTrainStepObs(benchmark::State& state, bool obs_on) {
  const bool prev = obs::enabled();
  obs::set_enabled(obs_on);
  Rng rng(2);
  Tensor x = Tensor::randn({4, 8, 64, 64}, rng);
  Tensor w = Tensor::randn({8, 8, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
  static obs::Counter steps = obs::counter("bench.conv2d_train_steps");
  static obs::Gauge loss = obs::gauge("bench.conv2d_train_loss");
  const auto step = [&] {
    MFA_TRACE_SCOPE("bench.conv2d_train_step");
    w.zero_grad();
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
    Tensor l = ops::sum(ops::mul(y, y));
    l.backward();
    steps.add();
    loss.set(static_cast<double>(l.data()[0]));
    benchmark::DoNotOptimize(w.grad().data());
  };
  step();  // warm-up: free lists and metric cells exist before the timed loop
  const std::int64_t spans0 = obs::trace_total_recorded();
  for (auto _ : state) step();
  const auto iters = static_cast<double>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(state.iterations())));
  state.counters["obs_spans_per_iter"] =
      static_cast<double>(obs::trace_total_recorded() - spans0) / iters;
  obs::set_enabled(prev);
}

void BM_Conv2dTrainStepObsOn(benchmark::State& state) {
  RunConv2dTrainStepObs(state, true);
}
BENCHMARK(BM_Conv2dTrainStepObsOn);

void BM_Conv2dTrainStepObsOff(benchmark::State& state) {
  RunConv2dTrainStepObs(state, false);
}
BENCHMARK(BM_Conv2dTrainStepObsOff);

/// Backward pass in isolation: the forward re-records the tape outside the
/// timed region each iteration (backward retires the whole tape), so the
/// measurement is the planner + closure cost alone.
/// tape_plan_allocs_per_iter exports Tape::plan_grow_events() growth over the
/// timed loop; scripts/bench.sh --check asserts it is 0 — backward()
/// bookkeeping (visit stamps, DFS stack, order vector) must allocate nothing
/// in the steady state.
void BM_BackwardOnly(benchmark::State& state) {
  Rng rng(8);
  Tensor x = Tensor::randn({4, 8, 64, 64}, rng);
  Tensor w1 = Tensor::randn({8, 8, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
  Tensor w2 = Tensor::randn({8, 8, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
  const auto forward = [&] {
    Tensor h = ops::relu(ops::conv2d(x, w1, Tensor(), 1, 1));
    Tensor y = ops::conv2d(h, w2, Tensor(), 1, 1);
    return ops::sum(ops::mul(y, y));
  };
  {
    Tensor l = forward();
    l.backward();  // warm-up: free lists, arena rings, plan vectors
  }
  auto& tape = tensor::Tape::current();
  const std::int64_t grow0 = tape.plan_grow_events();
  PoolCounterScope counters(state);
  for (auto _ : state) {
    state.PauseTiming();
    w1.zero_grad();
    w2.zero_grad();
    Tensor l = forward();
    state.ResumeTiming();
    l.backward();
    benchmark::DoNotOptimize(w1.grad().data());
  }
  const auto iters = static_cast<double>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(state.iterations())));
  state.counters["tape_plan_allocs_per_iter"] =
      static_cast<double>(tape.plan_grow_events() - grow0) / iters;
}
BENCHMARK(BM_BackwardOnly);

void BM_PredictLevels(benchmark::State& state) {
  Rng rng(7);
  models::ModelConfig config;
  config.grid = 32;
  config.transformer_layers = 1;
  auto model = models::make_model("ours", config);
  Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
  const auto predict = [&] {
    Tensor levels = model->predict_levels(x);
    benchmark::DoNotOptimize(levels.data());
  };
  predict();  // warm-up: populate the free lists before counting
  PoolCounterScope counters(state);
  for (auto _ : state) predict();
}
BENCHMARK(BM_PredictLevels);

/// Sparse scatter throughput: duplicate-heavy index over range(0) source
/// rows into range(0)/4 output rows, 16 floats per row — the LHNN
/// net->lattice message shape. Covers the fixed slot-partitioned
/// accumulation (forward) and the gather backward.
void BM_ScatterAdd(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t rows = std::max<std::int64_t>(1, m / 4);
  Rng rng(11);
  Tensor src = Tensor::randn({m, 16}, rng, 0.5f, /*requires_grad=*/true);
  std::vector<float> ids(static_cast<std::size_t>(m));
  for (auto& id : ids)
    id = static_cast<float>(rng.uniform_int(0, rows - 1));
  const Tensor index = Tensor::from_data({m}, std::move(ids));
  const auto step = [&] {
    src.zero_grad();
    Tensor out = ops::scatter_add_rows(src, index, rows);
    ops::sum(ops::mul(out, out)).backward();
    benchmark::DoNotOptimize(src.grad().data());
  };
  step();  // warm-up: free lists, plan vectors, slot accumulators
  PoolCounterScope counters(state);
  for (auto _ : state) step();
}
BENCHMARK(BM_ScatterAdd)->Arg(1 << 12)->Arg(1 << 16);

/// Segment-sum throughput on the same index distribution (forward-only, the
/// inference-side shape of the net aggregation).
void BM_SegmentSum(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t segments = std::max<std::int64_t>(1, m / 4);
  Rng rng(12);
  Tensor src = Tensor::randn({m, 16}, rng, 0.5f);
  std::vector<float> ids(static_cast<std::size_t>(m));
  for (auto& id : ids)
    id = static_cast<float>(rng.uniform_int(0, segments - 1));
  const Tensor index = Tensor::from_data({m}, std::move(ids));
  NoGradGuard guard;
  const auto step = [&] {
    Tensor out = ops::segment_sum(src, index, segments);
    benchmark::DoNotOptimize(out.data());
  };
  step();  // warm-up
  PoolCounterScope counters(state);
  for (auto _ : state) step();
}
BENCHMARK(BM_SegmentSum)->Arg(1 << 12)->Arg(1 << 16);

/// LHNN inference: the hypergraph message-passing path (gather/segment/
/// scatter) fused with the conv lattice path, same serving shape as
/// BM_PredictLevels for a direct model-zoo comparison.
void BM_LhnnPredict(benchmark::State& state) {
  Rng rng(13);
  models::ModelConfig config;
  config.grid = 32;
  config.transformer_layers = 1;
  auto model = models::make_model("lhnn", config);
  Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
  const auto predict = [&] {
    Tensor levels = model->predict_levels(x);
    benchmark::DoNotOptimize(levels.data());
  };
  predict();  // warm-up
  PoolCounterScope counters(state);
  for (auto _ : state) predict();
}
BENCHMARK(BM_LhnnPredict);

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  NoGradGuard guard;
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);

void BM_MfaBlock(benchmark::State& state) {
  Rng rng(4);
  models::MfaBlock block(64, rng);
  block.train(false);
  Tensor x = Tensor::randn({1, 64, 16, 16}, rng);
  NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = block.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MfaBlock);

void BM_TransformerLayer(benchmark::State& state) {
  Rng rng(5);
  nn::TransformerEncoderLayer layer(64, 4, 256, rng);
  layer.train(false);
  Tensor x = Tensor::randn({1, 16, 64}, rng);
  NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = layer.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_TransformerLayer);

struct FlowFixture {
  fpga::DeviceGrid device = fpga::DeviceGrid::make_xcvu3p_like(60, 40);
  netlist::Design design = netlist::DesignGenerator::generate(
      netlist::mlcad2023_spec("Design_116"), device);
};

FlowFixture& fixture() {
  static FlowFixture f;
  return f;
}

void BM_FeatureExtraction(benchmark::State& state) {
  auto& f = fixture();
  Rng rng(6);
  std::vector<double> cx(static_cast<size_t>(f.design.num_cells()));
  std::vector<double> cy(cx.size());
  for (auto& v : cx) v = rng.uniform(0.0, 60.0);
  for (auto& v : cy) v = rng.uniform(0.0, 40.0);
  for (auto _ : state) {
    Tensor feats = features::extract_features(f.design, f.device, cx, cy);
    benchmark::DoNotOptimize(feats.data());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_PlacerIteration(benchmark::State& state) {
  auto& f = fixture();
  place::PlacementProblem problem(f.design, f.device);
  place::GlobalPlacer placer(problem, {});
  placer.init_random();
  for (auto _ : state) {
    placer.iterate(1);
    benchmark::DoNotOptimize(placer.placement().x.data());
  }
}
BENCHMARK(BM_PlacerIteration);

void BM_InitialRoute(benchmark::State& state) {
  auto& f = fixture();
  place::PlacementProblem problem(f.design, f.device);
  place::GlobalPlacer placer(problem, {});
  placer.init_random();
  placer.iterate(40);
  std::vector<double> cx, cy;
  placer.placement().expand(problem, cx, cy);
  route::GlobalRouter router(f.design, f.device);
  for (auto _ : state) {
    router.initial_route(cx, cy);
    benchmark::DoNotOptimize(router.routed_wirelength());
  }
}
BENCHMARK(BM_InitialRoute);

void BM_MacroLegalization(benchmark::State& state) {
  auto& f = fixture();
  place::PlacementProblem problem(f.design, f.device);
  place::GlobalPlacer placer(problem, {});
  placer.init_random();
  placer.iterate(20);
  for (auto _ : state) {
    place::Placement placement = placer.placement();
    const auto result = place::Legalizer::legalize_macros(problem, placement);
    benchmark::DoNotOptimize(result.macros_placed);
  }
}
BENCHMARK(BM_MacroLegalization);

}  // namespace

BENCHMARK_MAIN();
