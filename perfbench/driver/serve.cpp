// serve workload: kClients closed-loop clients against one serve::Server
// (seeded `ours` weights, max_batch = kClients). Each client sends the next
// request only after its previous response arrived, cycling through its own
// slice of distinct feature stacks. One pass is a segment of
// kRequestsPerClient requests per client. Every response must be kOk and
// bit-identical to a direct predict_levels of the same stack.
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "inputs.h"
#include "models/congestion_model.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace models = mfa::models;
namespace serve = mfa::serve;
using mfa::Tensor;

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 25;
constexpr int kWarmupPerClient = 2;
// p99 needs at least 10 requests beyond it: the timed phase runs until both
// --seconds have passed and this many requests have completed, or until
// kMaxSecondsFactor x --seconds have passed on a host too slow for that.
constexpr std::size_t kMinRequests = 1000;
constexpr double kMaxSecondsFactor = 3.0;
constexpr int kDirectRepeats = 3;  // direct predict_levels timing, traced run

struct Reply {
  double latency_s = 0.0;
  double queue_s = 0.0;
  double compute_s = 0.0;
  bool ok = false;
};

struct Setup {
  std::vector<Tensor> features;  // [6, H, W] each, as clients send them
  std::vector<Tensor> stacks;    // the same as [1, 6, H, W]
  std::vector<Tensor> expected;  // direct predict_levels, [1, H, W]
  std::unique_ptr<models::CongestionModel> reference;
  std::unique_ptr<serve::Server> server;
};

bool same_levels(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Requests of client `c` in one segment: `per_client` back to back, each
// sent once the previous response arrived.
std::vector<Reply> client_requests(const Setup& s, int c, int per_client) {
  std::vector<Reply> out;
  const auto stacks = static_cast<int>(s.stacks.size());
  for (int j = 0; j < per_client; ++j) {
    const auto k = static_cast<size_t>((c + kClients * j) % stacks);
    serve::Request request;
    request.features = s.features[k];
    Reply reply;
    const auto start = Clock::now();
    serve::Response response;
    {
      Span span("serve.request");
      response = s.server->predict(std::move(request));
    }
    reply.latency_s = seconds_since(start);
    reply.queue_s = response.queue_seconds;
    reply.compute_s = response.total_seconds - response.queue_seconds;
    reply.ok = response.status == serve::Status::kOk &&
               same_levels(response.levels, s.expected[k]);
    out.push_back(reply);
  }
  return out;
}

// kClients client threads that live for the whole run (so thread start-up
// and per-thread allocator state stay out of the timed segments). run()
// hands every client one segment and returns when all have finished it.
class Clients {
 public:
  Clients() {
    for (int c = 0; c < kClients; ++c)
      threads_.emplace_back([this, c] { loop(c); });
  }
  ~Clients() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  std::vector<Reply> run(const Setup& s, int per_client, std::int64_t run) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      setup_ = &s;
      per_client_ = per_client;
      run_ = run;
      pending_ = kClients;
      ++generation_;
    }
    start_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    std::vector<Reply> all;
    for (auto& p : replies_) all.insert(all.end(), p.begin(), p.end());
    return all;
  }

 private:
  void loop(int c) {
    std::uint64_t seen = 0;
    for (;;) {
      const Setup* s = nullptr;
      int per_client = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        s = setup_;
        per_client = per_client_;
        Tracer::set_run(run_);
      }
      std::vector<Reply> out;
      try {
        out = client_requests(*s, c, per_client);
      } catch (const std::exception&) {
        out.assign(static_cast<size_t>(per_client), Reply{});  // all failed
      }
      std::lock_guard<std::mutex> lock(mutex_);
      replies_[static_cast<size_t>(c)] = std::move(out);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const Setup* setup_ = nullptr;  // guarded by mutex_, as are the next five
  int per_client_ = 0;
  std::int64_t run_ = 0;
  int pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::vector<Reply>> replies_ =
      std::vector<std::vector<Reply>>(kClients);
  std::vector<std::thread> threads_;  // last: the threads use the above
};

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  auto& tracer = Tracer::instance();
  const std::uint64_t seed = options.seed;
  const auto config = model_config(derive_seed(seed, 2));

  // ---- set-up: feature stacks, reference predictions, server, warm-up ----
  Clients clients;
  Setup s;
  tracer.set_enabled(options.trace);
  const Setups setups = timed_setups(options, result, [&](int k) {
    Setup fresh;
    const auto samples = build_dataset(kSampleDesigns, seed);
    fresh.reference = models::make_model("ours", config);
    std::uint64_t h = dataset_hash(samples);
    for (const auto& sample : samples) {
      const Tensor& f = sample.features;
      fresh.features.push_back(f);
      fresh.stacks.push_back(
          mfa::ops::reshape(f, {1, f.size(0), f.size(1), f.size(2)}));
      fresh.expected.push_back(
          fresh.reference->predict_levels(fresh.stacks.back()));
      h = fnv1a(fresh.expected.back().data(),
                static_cast<size_t>(fresh.expected.back().numel()) *
                    sizeof(float),
                h);
    }
    serve::ServerOptions sopt;
    sopt.max_batch = kClients;
    fresh.server = std::make_unique<serve::Server>(
        models::make_model("ours", config), sopt);
    // Warm-up: one batch of every size the server can form, submitted back
    // to back so the batch former takes them together. Which sizes the
    // clients' timing produces later varies from run to run; this way the
    // worker's inference arena has grown to every batch shape during
    // set-up. Then the clients themselves.
    for (size_t b = 1; b <= static_cast<size_t>(kClients); ++b) {
      std::vector<std::future<serve::Response>> pending;
      for (size_t i = 0; i < b; ++i) {
        serve::Request request;
        request.features = fresh.features[i];
        pending.push_back(fresh.server->submit(std::move(request)));
      }
      for (size_t i = 0; i < b; ++i) {
        const serve::Response response = pending[i].get();
        result.attempt(response.status == serve::Status::kOk &&
                           same_levels(response.levels, fresh.expected[i]),
                       "warm-up response not kOk or differs from direct "
                       "predict_levels");
      }
    }
    for (const Reply& r : clients.run(fresh, kWarmupPerClient, setup_run_id(k)))
      result.attempt(r.ok, "warm-up response not kOk or differs from direct "
                           "predict_levels");
    s = std::move(fresh);
    return h;
  });

  // ---- timed segments ----
  auto& pool = mfa::common::ThreadPool::instance();
  auto& storage = mfa::tensor::StoragePool::instance();
  std::vector<double> plain_seg_s, traced_seg_s, seg_rate, latency, all_latency;
  std::vector<double> queue, compute;
  double traced_batches = 0.0, traced_requests = 0.0, traced_time = 0.0;
  double traced_allocs = 0.0, traced_jobs = 0.0, traced_inline = 0.0;
  const auto run_start = Clock::now();
  const std::int64_t min_segments = options.trace ? 4 : 2;
  const auto more = [&](std::int64_t seg) {
    const double elapsed = seconds_since(run_start);
    return seg < min_segments || elapsed < options.seconds ||
           (all_latency.size() < kMinRequests &&
            elapsed < kMaxSecondsFactor * options.seconds);
  };
  for (std::int64_t seg = 0; more(seg); ++seg) {
    const bool traced = traced_pass(options, seg);
    tracer.set_enabled(traced);
    const auto batches0 = s.server->stats().batches;
    const auto misses0 = storage.stats().misses;
    const auto jobs0 = pool.jobs_run();
    const auto inline0 = pool.inline_runs();
    const auto start = Clock::now();
    const auto replies = clients.run(s, kRequestsPerClient, seg);
    const double seg_s = seconds_since(start);
    for (const Reply& r : replies) {
      result.attempt(r.ok, "response not kOk or differs from direct "
                           "predict_levels");
      all_latency.push_back(r.latency_s);
      if (traced) {
        queue.push_back(r.queue_s);
        compute.push_back(r.compute_s);
      } else {
        latency.push_back(r.latency_s);
      }
    }
    if (traced) {
      const auto batches =
          static_cast<double>(s.server->stats().batches - batches0);
      traced_batches += batches;
      traced_requests += static_cast<double>(replies.size());
      traced_time += seg_s;
      traced_allocs += static_cast<double>(storage.stats().misses - misses0);
      traced_jobs += static_cast<double>(pool.jobs_run() - jobs0);
      traced_inline += static_cast<double>(pool.inline_runs() - inline0);
      traced_seg_s.push_back(seg_s);
    } else {
      plain_seg_s.push_back(seg_s);
      seg_rate.push_back(static_cast<double>(replies.size()) / seg_s);
    }
  }
  tracer.set_enabled(false);

  // ---- direct predict_levels, batch 1 and batch kClients (traced run) ----
  std::vector<double> b1_ms, batch_ms;
  if (options.trace) {
    tracer.set_enabled(true);
    const std::int64_t direct_run = 1 << 20;
    Tracer::set_run(direct_run);
    const auto n = static_cast<int>(s.stacks.size());
    for (int rep = 0; rep < kDirectRepeats; ++rep) {
      for (int k = 0; k < n; ++k) {
        const auto start = Clock::now();
        Tensor levels;
        {
          Span span("models.predict_b1");
          levels =
              s.reference->predict_levels(s.stacks[static_cast<size_t>(k)]);
        }
        b1_ms.push_back(1e3 * seconds_since(start));
        result.attempt(same_levels(levels, s.expected[static_cast<size_t>(k)]),
                       "direct predict_levels not repeatable");
      }
      for (int k0 = 0; k0 + kClients <= n; k0 += kClients) {
        std::vector<Tensor> parts(s.stacks.begin() + k0,
                                  s.stacks.begin() + k0 + kClients);
        const Tensor batch = mfa::ops::concat(parts, 0);
        const auto start = Clock::now();
        Tensor levels;
        {
          Span span("models.predict_batch");
          levels = s.reference->predict_levels(batch);
        }
        batch_ms.push_back(1e3 * seconds_since(start));
        const auto plane = static_cast<size_t>(kGrid * kGrid);
        for (int i = 0; i < kClients; ++i)
          result.attempt(
              std::memcmp(levels.data() + i * plane,
                          s.expected[static_cast<size_t>(k0 + i)].data(),
                          plane * sizeof(float)) == 0,
              "batched predict_levels differs from batch-1 predict_levels");
      }
    }
    tracer.set_enabled(false);
  }

  // ---- correctness: the server's accounting identity ----
  s.server->shutdown();
  const serve::ServerStats st = s.server->stats();
  result.attempt(st.submitted == st.ok + st.fallbacks + st.shed +
                                     st.shutdown_rejected,
                 "ServerStats identity violated");
  result.attempt(st.fallbacks == 0 && st.shed == 0 && st.worker_restarts == 0,
                 "server degraded: fallbacks, sheds or worker restarts");

  // ---- metrics ----
  log_values("set-up s", setups.seconds);
  log_values("plain pass s", plain_seg_s);
  if (!options.trace) {
    result.metric("setup_s", median(setups.seconds), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("throughput_per_s", median(seg_rate), "1/s");
    result.metric("latency_p50_ms", 1e3 * median(latency), "ms");
    return result;
  }
  const auto by_run = tracer.self_times_by_run();
  emit_setup_layers(result, options, setups, by_run);
  result.metric("serve.queue_ms", 1e3 * median(queue), "ms");
  result.metric("serve.compute_ms", 1e3 * median(compute), "ms");
  result.metric("serve.batch_occupancy",
                traced_batches > 0 ? traced_requests / traced_batches : 0.0,
                "count");
  result.metric("serve.batches_per_s",
                traced_time > 0 ? traced_batches / traced_time : 0.0, "1/s");
  result.metric("serve.p99_ms", 1e3 * quantile(all_latency, 0.99), "ms");
  result.metric("serve.requests", static_cast<double>(all_latency.size()),
                "count");
  result.metric("models.predict_b1_ms", median(b1_ms), "ms");
  result.metric("models.predict_batch_ms", median(batch_ms), "ms");
  const double per_batch = traced_batches > 0 ? 1.0 / traced_batches : 0.0;
  result.metric("tensor.heap_allocs_per_step", traced_allocs * per_batch,
                "count");
  result.metric("common.pool_jobs_per_step", traced_jobs * per_batch, "count");
  result.metric("common.pool_inline_per_step", traced_inline * per_batch,
                "count");
  result.metric("trace.overhead_pct", overhead_pct(plain_seg_s, traced_seg_s),
                "%");
  return result;
}

}  // namespace perfbench
