#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct ThreadState {
  std::vector<std::int32_t> open;  // stack of open span indices
  std::int64_t run = 0;
  std::uint32_t tid = 0;
};

ThreadState& thread_state() {
  static std::uint32_t next_tid = 0;
  static std::mutex tid_mutex;
  thread_local ThreadState state = [] {
    ThreadState s;
    std::lock_guard<std::mutex> lock(tid_mutex);
    s.tid = next_tid++;
    return s;
  }();
  return state;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_run(std::int64_t run) { thread_state().run = run; }

std::int32_t Tracer::open(const char* name) {
  ThreadState& ts = thread_state();
  Record r;
  r.name = name;
  r.parent = ts.open.empty() ? -1 : ts.open.back();
  r.run = ts.run;
  r.tid = ts.tid;
  r.cpu_start = process_cpu_seconds();
  r.start_ns = now_ns();
  std::int32_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int32_t>(records_.size());
    records_.push_back(r);
  }
  ts.open.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  const double cpu = process_cpu_seconds();
  thread_state().open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  Record& r = records_[static_cast<std::size_t>(index)];
  r.end_ns = end;
  r.cpu_end = cpu;
}

std::map<std::int64_t, std::map<std::string, Tracer::Layer>>
Tracer::self_times_by_run() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_wall(records_.size(), 0.0);
  std::vector<double> child_cpu(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent < 0) continue;
    child_wall[static_cast<std::size_t>(r.parent)] +=
        1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    child_cpu[static_cast<std::size_t>(r.parent)] += r.cpu_end - r.cpu_start;
  }
  std::map<std::int64_t, std::map<std::string, Layer>> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Layer& l = out[r.run][r.name];
    l.wall_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns) -
                child_wall[i];
    l.cpu_s += (r.cpu_end - r.cpu_start) - child_cpu[i];
    ++l.spans;
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%lld,"
                  "\"parent\":%d,\"cpu_ms\":%.3f}}",
                  i ? "," : "", r.name, r.tid,
                  static_cast<double>(r.start_ns - t0) / 1000.0,
                  static_cast<double>(r.end_ns - r.start_ns) / 1000.0,
                  static_cast<long long>(r.run), r.parent,
                  1e3 * (r.cpu_end - r.cpu_start));
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  out.flush();
  return static_cast<bool>(out);
}

Span::Span(const char* name) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) index_ = t.open(name);
}

Span::~Span() {
  if (index_ >= 0) Tracer::instance().close(index_);
}

}  // namespace perfbench
