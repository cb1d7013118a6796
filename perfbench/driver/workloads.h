// The three workloads. Each runs only its own stage in its own process:
//
//   train — Trainer-style optimisation of `ours` plus one epoch of each
//           baseline of the model zoo (tensor/nn/models forward+backward);
//   serve — 4 closed-loop clients against one serve::Server (forward only,
//           batching);
//   flow  — the full Fig. 6 flow over a fixed MLCAD design list.
//
// Every workload sets up kSetups times from a cold start (the median is
// setup_s), then repeats fixed passes of work until the time budget is
// spent. In the traced run, passes alternate untraced/traced over the same
// code: traced passes give the per-layer breakdown, untraced ones the
// baseline for the tracing overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"

namespace perfbench {

Result run_train(const Options& options);
Result run_serve(const Options& options);
Result run_flow(const Options& options);

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;

/// Run ids of spans opened during set-up number k (k = 0..kSetups-1).
inline std::int64_t setup_run_id(int k) { return -1 - k; }

using LayersByRun = std::map<std::int64_t, std::map<std::string, Tracer::Layer>>;

/// What the kSetups set-ups of a run measured.
struct Setups {
  std::vector<double> seconds;  // wall time of each set-up
  /// Set-up layer self times of the set-ups that ran in child processes, by
  /// set-up run id (the in-process set-up's spans are in the Tracer).
  LayersByRun layers;
};

/// Runs `once` kSetups times, each from a cold start: set-ups
/// 0..kSetups-2 each in a fresh process (this binary re-executed with
/// --setup-only k), the last one in this process, which keeps its inputs.
/// So every set-up pays the lazy start-up costs: thread-pool creation, GEMM
/// dispatch and tuned-cache load, storage-pool and arena growth, the first
/// forward. `once(k)` rebuilds every input from scratch and returns a digest
/// of them; a digest that differs between set-ups, a child that fails, and
/// every violation a child reports count as failed operations in `result`.
///
/// With --setup-only k this process is such a child: it runs set-up k,
/// prints its time, digest, layer times and violations and exits.
Setups timed_setups(const Options& options, Result& result,
                    const std::function<std::uint64_t(int)>& once);

/// Whether pass `pass` of a run is traced: in the traced run odd passes are,
/// in the plain run none.
inline bool traced_pass(const Options& options, std::int64_t pass) {
  return options.trace && (pass % 2 == 1);
}

/// Emits <layer>_s, <layer>_cpu_s and <layer>_par_eff: the median over the
/// given runs of the layer's self time (wall, CPU), and CPU / (wall x
/// threads) over their sums. Layers absent from a run count as 0 there.
void emit_layer(Result& result, const Options& options,
                const std::string& layer, const LayersByRun& by_run,
                const std::vector<std::int64_t>& runs);

/// The set-up layers every workload reports (netlist.generate,
/// train.dataset), over the kSetups set-ups: those of the child processes
/// from `setups`, the in-process one from `by_run`.
void emit_setup_layers(Result& result, const Options& options,
                       const Setups& setups, const LayersByRun& by_run);

/// Prints "mfa_perfbench: <what>: v1 v2 ..." to stderr, one line, so a
/// run's per-pass numbers can be inspected when a median looks off.
void log_values(const char* what, const std::vector<double>& values);

/// (median traced / median plain - 1) x 100 — the tracing overhead, in
/// percent, of a per-pass time.
double overhead_pct(const std::vector<double>& plain,
                    const std::vector<double>& traced);

}  // namespace perfbench
