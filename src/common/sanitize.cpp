#include "common/sanitize.h"

#if MFA_SANITIZE_STORAGE_ON

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"

namespace mfa::sanitize {

namespace {

bool env_enabled() {
  const char* v = std::getenv("MFA_SANITIZE_STORAGE");
  if (!v) return false;
  const std::string s(v);
  return s == "on" || s == "1" || s == "true";
}

// One declared write range. `region` scopes the entry to the parallel_for
// invocation that produced it (two top-level regions can run concurrently
// when a submit-race loser goes inline); `chunk` identifies the declaring
// chunk so a single chunk may legally revisit its own range.
struct WriteEntry {
  const void* base;
  std::int64_t begin;
  std::int64_t end;
  std::int64_t chunk;
  std::uint64_t region;
};

// Leaky singleton (same rationale as StoragePool / obs::Registry: the
// checker is consulted from thread-exit paths of the worker pool).
struct State {
  std::atomic<bool> enabled{env_enabled()};
  std::atomic<bool> throw_on_violation{true};
  std::atomic<std::int64_t> counts[kNumDefects] = {};
  std::atomic<std::int64_t> redzone_checks{0};
  std::atomic<std::uint64_t> region_seq{0};

  // Declared-write log. A mutex-protected vector is fine here: entries are
  // per-chunk (not per-element), and the checker is a Debug diagnostic mode.
  std::mutex race_mutex;
  std::vector<WriteEntry> race_log;

  State() {
    obs::Registry::instance().register_source("sanitize", [this] {
      return std::vector<std::pair<std::string, double>>{
          {"violations_redzone", static_cast<double>(counts[0].load())},
          {"violations_lifetime", static_cast<double>(counts[1].load())},
          {"violations_race", static_cast<double>(counts[2].load())},
          {"violations_refcount", static_cast<double>(counts[3].load())},
          {"violations_leak", static_cast<double>(counts[4].load())},
          {"redzone_checks", static_cast<double>(redzone_checks.load())},
      };
    });
  }
};

State& state() {
  static State* s = new State;
  return *s;
}

thread_local const char* t_op = nullptr;
thread_local std::int64_t t_tape_node = -1;

}  // namespace

namespace detail {

thread_local std::uint64_t t_region = 0;
thread_local std::int64_t t_chunk = -1;

void note_write_slow(const void* base, std::int64_t begin, std::int64_t end) {
  auto& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(s.race_mutex);
  s.race_log.push_back({base, begin, end, t_chunk, t_region});
}

void report(Defect d, const std::string& message, bool allow_throw) {
  auto& s = state();
  s.counts[static_cast<int>(d)].fetch_add(1, std::memory_order_relaxed);
  const std::string full = message + context_suffix();
  if (allow_throw && s.throw_on_violation.load(std::memory_order_relaxed))
    throw check::CheckError(full);
  log::error("%s", full.c_str());
}

}  // namespace detail

const char* defect_name(Defect d) {
  switch (d) {
    case Defect::kRedzone:
      return "redzone";
    case Defect::kLifetime:
      return "lifetime";
    case Defect::kRace:
      return "race";
    case Defect::kRefcount:
      return "refcount";
    case Defect::kLeak:
      return "leak";
  }
  return "unknown";
}

bool enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

bool throw_on_violation() {
  return state().throw_on_violation.load(std::memory_order_relaxed);
}

void set_throw_on_violation(bool on) {
  state().throw_on_violation.store(on, std::memory_order_relaxed);
}

Counts counts() {
  auto& s = state();
  Counts c;
  c.redzone = s.counts[0].load(std::memory_order_relaxed);
  c.lifetime = s.counts[1].load(std::memory_order_relaxed);
  c.race = s.counts[2].load(std::memory_order_relaxed);
  c.refcount = s.counts[3].load(std::memory_order_relaxed);
  c.leak = s.counts[4].load(std::memory_order_relaxed);
  c.redzone_checks = s.redzone_checks.load(std::memory_order_relaxed);
  return c;
}

void reset_counts() {
  auto& s = state();
  for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
  s.redzone_checks.store(0, std::memory_order_relaxed);
}

namespace detail {
void add_redzone_checks(std::int64_t n) {
  state().redzone_checks.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace detail

OpScope::OpScope(const char* op, std::int64_t tape_node)
    : prev_op_(t_op), prev_node_(t_tape_node) {
  t_op = op;
  t_tape_node = tape_node;
}

OpScope::~OpScope() {
  t_op = prev_op_;
  t_tape_node = prev_node_;
}

const char* current_op() { return t_op; }
std::int64_t current_tape_node() { return t_tape_node; }

std::string context_suffix() {
  if (!t_op && t_tape_node < 0) return {};
  std::ostringstream oss;
  oss << " during op " << (t_op ? t_op : "?");
  if (t_tape_node >= 0) oss << " (tape node #" << t_tape_node << ")";
  return oss.str();
}

std::uint64_t begin_region() {
  auto& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return 0;
  // 0 is reserved for "inactive", so the first region gets token 1.
  return s.region_seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {

/// Removes and returns the entries of one region from the shared log.
std::vector<WriteEntry> take_region_entries(std::uint64_t token) {
  auto& s = state();
  std::vector<WriteEntry> mine;
  const std::lock_guard<std::mutex> lock(s.race_mutex);
  auto keep = s.race_log.begin();
  for (auto& e : s.race_log) {
    if (e.region == token)
      mine.push_back(e);
    else
      *keep++ = e;
  }
  s.race_log.erase(keep, s.race_log.end());
  return mine;
}

}  // namespace

void end_region(std::uint64_t token) {
  if (token == 0) return;
  std::vector<WriteEntry> entries = take_region_entries(token);
  if (entries.size() < 2) return;
  // Sweep per buffer: sort by (base, begin) and compare neighbours. Two
  // ranges from different chunks that overlap are a deterministic write
  // race — the claim is about the declared partition, not about whether
  // this particular schedule interleaved the stores.
  std::sort(entries.begin(), entries.end(),
            [](const WriteEntry& a, const WriteEntry& b) {
              if (a.base != b.base) return a.base < b.base;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end > b.end;
            });
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    const WriteEntry& a = entries[i];
    // `a` must be checked against every later overlapping range, not just
    // its immediate neighbour: [0,100) vs [10,20) vs [50,60).
    for (size_t j = i + 1; j < entries.size(); ++j) {
      const WriteEntry& b = entries[j];
      if (b.base != a.base || b.begin >= a.end) break;
      if (b.chunk == a.chunk) continue;
      std::ostringstream oss;
      oss << "sanitize[race]: overlapping parallel writes to buffer " << a.base
          << ": chunk " << a.chunk << " declared floats [" << a.begin << ", "
          << a.end << ") and chunk " << b.chunk << " declared [" << b.begin
          << ", " << b.end << ")";
      detail::report(Defect::kRace, oss.str(), /*allow_throw=*/true);
      return;  // count-only mode: one report per region is enough signal
    }
  }
}

void abandon_region(std::uint64_t token) {
  if (token == 0) return;
  take_region_entries(token);
}

}  // namespace mfa::sanitize

#else  // !MFA_SANITIZE_STORAGE_ON

// Everything is an inline stub in the header; this translation unit is
// intentionally empty in Release builds.

#endif  // MFA_SANITIZE_STORAGE_ON
