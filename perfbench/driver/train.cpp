// train workload: one pass = one epoch of `ours` (64 x 64, batch 4) plus one
// epoch of each baseline (unet, pgnn, pros2, lhnn) on the same samples,
// every model freshly built from the same seed, so each pass repeats the
// same arithmetic and its losses must repeat bit for bit.
//
// The plain run trains every model, `ours` included, through
// Trainer::fit_resumable. The traced run needs the per-layer split of an
// `ours` step, so every one of its passes trains `ours` through the calls
// fit_resumable makes (stack_batch, forward, cross_entropy, backward, Adam)
// one at a time, traced or not; either run makes one epoch the other way
// after its timed phase, and the two must reach the same loss bit for bit.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "inputs.h"
#include "models/congestion_model.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tape.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace models = mfa::models;
namespace train = mfa::train;
using mfa::Tensor;

constexpr std::int64_t kBatch = 4;

struct Zoo {
  const char* model;
  const char* span;
};
constexpr Zoo kZoo[] = {{"unet", "zoo.unet"},
                        {"pgnn", "zoo.pgnn"},
                        {"pros2", "zoo.pros2"},
                        {"lhnn", "zoo.lhnn"}};

train::TrainOptions train_options(std::uint64_t seed) {
  train::TrainOptions opt;
  opt.epochs = 1;
  opt.batch_size = kBatch;
  opt.seed = seed;
  opt.resume = false;
  return opt;
}

struct StepCounters {
  double heap_allocs = 0.0;
  double parallel_tasks = 0.0;
  double pool_jobs = 0.0;
  double pool_inline = 0.0;
};

struct OursEpoch {
  double loss = 0.0;
  std::vector<StepCounters> counters;  // one per step
};

// One epoch of `ours`, step by step, replaying Trainer::fit_resumable's
// epoch 0: same shuffle, same call order, same loss accumulation.
OursEpoch ours_epoch(models::CongestionModel& model,
                     const std::vector<train::Sample>& samples,
                     const train::TrainOptions& opt) {
  auto& net = model.network();
  net.train(true);
  mfa::nn::Adam optimizer(net.parameters(), opt.learning_rate);
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), size_t{0});
  mfa::Rng rng = mfa::Rng(opt.seed).fork(1);  // epoch 0
  for (auto i = static_cast<std::int64_t>(order.size()) - 1; i > 0; --i)
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.uniform_int(0, i))]);

  auto& pool = mfa::common::ThreadPool::instance();
  auto& storage = mfa::tensor::StoragePool::instance();
  OursEpoch out;
  double epoch_loss = 0.0;
  std::int64_t batches = 0;
  for (size_t i0 = 0; i0 < order.size(); i0 += kBatch) {
    const size_t i1 = std::min(order.size(), i0 + kBatch);
    const auto misses0 = storage.stats().misses;
    const auto jobs0 = pool.jobs_run();
    const auto inline0 = pool.inline_runs();
    Tensor features, labels;
    {
      Span span("train.stack_batch");
      train::stack_batch(samples, order, i0, i1, features, labels);
    }
    {
      Span span("nn.optim");
      optimizer.zero_grad();
    }
    Tensor logits;
    {
      Span span("models.forward");
      logits = model.forward(features);
    }
    Tensor loss;
    double batch_loss = 0.0;
    {
      Span span("tensor.loss");
      loss = mfa::ops::cross_entropy(logits, labels);
      batch_loss = loss.item();
    }
    {
      Span span("tensor.backward");
      loss.backward();
    }
    {
      Span span("nn.optim");
      optimizer.step();
    }
    StepCounters c;
    c.heap_allocs = static_cast<double>(storage.stats().misses - misses0);
    c.parallel_tasks = static_cast<double>(
        mfa::tensor::Tape::current().last_plan().parallel_tasks);
    c.pool_jobs = static_cast<double>(pool.jobs_run() - jobs0);
    c.pool_inline = static_cast<double>(pool.inline_runs() - inline0);
    out.counters.push_back(c);
    epoch_loss += batch_loss;
    ++batches;
  }
  out.loss =
      epoch_loss / static_cast<double>(std::max<std::int64_t>(1, batches));
  return out;
}

bool clean_fit(const train::FitReport& r) {
  return r.rollbacks == 0 && !r.diverged && !r.budget_exhausted &&
         r.epochs_run == 1 && std::isfinite(r.final_loss);
}

}  // namespace

Result run_train(const Options& options) {
  Result result;
  auto& tracer = Tracer::instance();
  const std::uint64_t seed = options.seed;
  const auto config = model_config(derive_seed(seed, 2));
  const auto topt = train_options(derive_seed(seed, 3));

  // ---- set-up: placement sweep + warm-up of every model ----
  std::vector<train::Sample> samples;
  tracer.set_enabled(options.trace);
  const Setups setups = timed_setups(options, result, [&](int) {
    auto built = build_dataset(kSampleDesigns, seed);
    // Warm-up: thread pool, storage pool and tape arenas, GEMM dispatch and
    // the first forward/backward of every model, on one batch.
    const std::vector<train::Sample> first(built.begin(),
                                           built.begin() + kBatch);
    for (const char* name : {"ours", "unet", "pgnn", "pros2", "lhnn"}) {
      auto model = models::make_model(name, config);
      train::Trainer::fit_resumable(*model, first, topt);
    }
    const std::uint64_t digest = dataset_hash(built);
    samples = std::move(built);
    return digest;
  });

  // ---- timed passes ----
  const auto n = static_cast<double>(samples.size());
  const double n_zoo = n * static_cast<double>(std::size(kZoo));
  const double steps = std::ceil(n / static_cast<double>(kBatch));
  std::vector<double> plain_pass_s, traced_pass_s, step_ms, zoo_rate;
  std::vector<double> fit_losses, replay_losses;
  std::vector<double> zoo_losses(std::size(kZoo), 0.0);
  std::vector<StepCounters> counters;
  std::vector<std::int64_t> traced_runs;
  // Returns the wall time of the fit_resumable call.
  const auto fit_ours = [&] {
    auto ours = models::make_model("ours", config);
    const auto start = Clock::now();
    const auto report = train::Trainer::fit_resumable(*ours, samples, topt);
    const double seconds = seconds_since(start);
    result.attempt(clean_fit(report),
                   "ours: rollback, divergence or budget cut");
    fit_losses.push_back(report.final_loss);
    return seconds;
  };
  const auto replay_ours = [&](bool traced) {
    auto ours = models::make_model("ours", config);
    const OursEpoch epoch = ours_epoch(*ours, samples, topt);
    result.attempt(std::isfinite(epoch.loss), "ours loss not finite");
    replay_losses.push_back(epoch.loss);
    if (traced)
      counters.insert(counters.end(), epoch.counters.begin(),
                      epoch.counters.end());
  };
  const auto run_start = Clock::now();
  const std::int64_t min_passes = options.trace ? 4 : 2;
  for (std::int64_t pass = 0;
       pass < min_passes || seconds_since(run_start) < options.seconds;
       ++pass) {
    const bool traced = traced_pass(options, pass);
    tracer.set_enabled(traced);
    Tracer::set_run(pass);
    if (traced) traced_runs.push_back(pass);
    const auto pass_start = Clock::now();

    if (options.trace) {
      replay_ours(traced);
    } else {
      step_ms.push_back(1e3 * fit_ours() / steps);
    }

    const auto zoo_start = Clock::now();
    for (size_t z = 0; z < std::size(kZoo); ++z) {
      auto model = models::make_model(kZoo[z].model, config);
      train::FitReport report;
      {
        Span span(kZoo[z].span);
        report = train::Trainer::fit_resumable(*model, samples, topt);
      }
      result.attempt(clean_fit(report),
                     std::string(kZoo[z].model) +
                         ": rollback, divergence or budget cut");
      if (pass == 0) zoo_losses[z] = report.final_loss;
      result.attempt(same_bits(report.final_loss, zoo_losses[z]),
                     std::string(kZoo[z].model) +
                         ": final loss differs between passes");
    }
    zoo_rate.push_back(n_zoo / seconds_since(zoo_start));
    (traced ? traced_pass_s : plain_pass_s)
        .push_back(seconds_since(pass_start));
  }
  tracer.set_enabled(false);

  // ---- correctness: repeatability, and the replay against fit_resumable ----
  if (options.trace) {
    fit_ours();
  } else {
    replay_ours(false);
  }
  for (const double l : fit_losses)
    result.attempt(same_bits(l, fit_losses.front()),
                   "ours loss differs between passes");
  for (const double l : replay_losses)
    result.attempt(same_bits(l, fit_losses.front()),
                   "step replay loss differs from Trainer::fit_resumable");

  // ---- metrics ----
  std::vector<double> pass_rate;
  for (const double s : plain_pass_s) pass_rate.push_back((n + n_zoo) / s);
  log_values("set-up s", setups.seconds);
  log_values("plain pass s", plain_pass_s);
  log_values("ours step ms", step_ms);
  if (!options.trace) {
    result.metric("setup_s", median(setups.seconds), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("throughput_per_s", median(pass_rate), "1/s");
    result.metric("latency_p50_ms", median(step_ms), "ms");
    return result;
  }
  const auto by_run = tracer.self_times_by_run();
  emit_setup_layers(result, options, setups, by_run);
  for (const char* layer : {"models.forward", "tensor.loss", "tensor.backward",
                            "nn.optim", "train.stack_batch"})
    emit_layer(result, options, layer, by_run, traced_runs);
  for (const Zoo& z : kZoo)
    emit_layer(result, options, z.span, by_run, traced_runs);
  std::vector<double> allocs, tasks, jobs, inl;
  for (const StepCounters& c : counters) {
    allocs.push_back(c.heap_allocs);
    tasks.push_back(c.parallel_tasks);
    jobs.push_back(c.pool_jobs);
    inl.push_back(c.pool_inline);
  }
  result.metric("tensor.heap_allocs_per_step", median(allocs), "count");
  result.metric("tensor.backward_parallel_tasks", median(tasks), "count");
  result.metric("common.pool_jobs_per_step", median(jobs), "count");
  result.metric("common.pool_inline_per_step", median(inl), "count");
  result.metric("train.final_loss", fit_losses.front(), "nats");
  result.metric("zoo.samples_per_s", median(zoo_rate), "1/s");
  result.metric("trace.overhead_pct", overhead_pct(plain_pass_s, traced_pass_s),
                "%");
  return result;
}

}  // namespace perfbench
