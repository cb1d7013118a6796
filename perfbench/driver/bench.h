// Shared plumbing of the end-to-end benchmark driver: clocks, process CPU
// time and peak RSS, order statistics, and the result record every workload
// fills in (metrics with units, attempted/failed operation counts and the
// correctness violations behind the failures).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU time of the whole process (all threads), seconds.
double process_cpu_seconds();

/// Peak resident set size of this process (getrusage ru_maxrss), MiB.
double peak_rss_mb();

/// Quantile q in [0, 1] by linear interpolation between order statistics.
/// Returns 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Run-level knobs parsed from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace_event JSON ("" = skip).
  std::string trace_file;
  /// MFA_THREADS of the run: recorded, and the thread count in *_par_eff.
  int threads = 1;
  /// >= 0: run only set-up number `setup_only` and report it (a child
  /// process of timed_setups).
  int setup_only = -1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Counts one operation; a false `ok` marks it failed and records `what`.
  void attempt(bool ok, const std::string& what = "") {
    if (!ok) return fail(what);
    ++attempted_;
  }
  /// A correctness violation that is not tied to one counted operation
  /// (e.g. a setup or replay mismatch); counted as an attempted, failed op.
  void fail(const std::string& what);

  const std::vector<std::string>& violations() const { return violations_; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// FNV-1a over raw bytes, for bit-identity checks of float buffers.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// Bitwise equality of two doubles (distinguishes -0.0/0.0, NaN payloads).
bool same_bits(double a, double b);

}  // namespace perfbench
