// Span recorder for the traced run. The benchmark wraps each public call it
// makes into the repository's modules (netlist, place, route, features,
// models, nn, tensor, train, serve, flow) in a Span named "<module>.<what>".
// Spans are kept in memory — name, start, end, parent span, run id, process
// CPU time at both ends — and written out at the end as Chrome trace_event
// JSON, the format of obs::write_chrome_trace. A layer's self time is its
// span's duration minus the part its child spans cover.
//
// With the recorder disabled (the plain, untraced run) a Span is two loads
// and no clock read, so the plain run measures the program alone.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double cpu_start = 0.0;  // process CPU seconds at open
    double cpu_end = 0.0;
    std::int32_t parent = -1;  // index into records(), -1 for a root
    std::int64_t run = 0;      // pass / request id the span belongs to
    std::uint32_t tid = 0;
  };

  /// Self time of one layer summed over its spans.
  struct Layer {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::int64_t spans = 0;
  };

  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Run id stamped on spans opened by the calling thread from now on.
  static void set_run(std::int64_t run);

  std::int32_t open(const char* name);
  void close(std::int32_t index);

  /// Self times per span name, grouped by run id. Call after every thread
  /// that recorded spans has finished.
  std::map<std::int64_t, std::map<std::string, Layer>> self_times_by_run()
      const;

  std::size_t size() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  Tracer() = default;

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

}  // namespace perfbench
