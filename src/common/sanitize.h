// mfa::sanitize — deterministic lifetime/race/redzone checker for the pooled
// tensor hot path (storage.h, parallel.h, thread_pool.h).
//
// Generic sanitizers (ASan/TSan) only catch what a given schedule happens to
// trip, and the StoragePool's recycling hides use-after-release from ASan
// entirely: a stale pointer into a recycled block reads perfectly valid
// memory. This module adds project-aware checks that fire deterministically,
// independent of thread schedule, for four defect classes:
//
//  * redzone  — guard bytes before/after every pooled payload, verified when
//    a block is released, when it is reacquired from a free list, and on
//    demand (Storage::verify_guards, StoragePool::verify_cached_guards). A
//    kernel overrun is caught at the faulting op, not as pool corruption N
//    iterations later.
//  * lifetime — per-block generation counters. Every Storage handle stamps
//    the block generation it acquired; any access after the block was
//    released/recycled (the eager-grad-release hazard in backward()) reports
//    the mismatch plus backtrace-lite context (current op name + tape node).
//  * race     — declared-write overlap detection for parallel_for regions.
//    Chunk kernels declare the float ranges they write
//    (note_parallel_write); at region end, two overlapping declarations from
//    different chunks are reported even if the schedule never actually
//    interleaved them (unlike TSan). Chunk partitioning is virtualised to a
//    fixed task count while the checker is on, so MFA_THREADS=1 detects the
//    same overlaps as MFA_THREADS=16.
//  * refcount — double-release / negative-refcount detection in the pool's
//    release path, plus leak-at-drain audits (StoragePool::audit_leaks).
//
// Gating mirrors common/fault.h: compiled in when NDEBUG is not defined (or
// MFA_FORCE_SANITIZE_STORAGE is), compiled to inline no-ops in Release —
// MFA_SANITIZE_STORAGE_ON reports the active mode. When compiled in, the
// runtime switch is the MFA_SANITIZE_STORAGE environment variable (default
// off; "on"/"1"/"true" enable) or set_enabled(). Generation stamping is
// always maintained while compiled in (one counter bump per recycle), so
// toggling at runtime never yields false positives.
//
// Violations format through MFA_CHECK-style streaming (MFA_SANITIZE_VIOLATION
// in sanitize.cpp / storage.cpp) and throw check::CheckError; paths that may
// run inside destructors report without throwing. Every violation bumps a
// per-class counter exported to mfa::obs as "sanitize.violations_<class>".
#pragma once

#include <cstdint>
#include <string>

#if !defined(NDEBUG) || defined(MFA_FORCE_SANITIZE_STORAGE)
#define MFA_SANITIZE_STORAGE_ON 1
#else
#define MFA_SANITIZE_STORAGE_ON 0
#endif

namespace mfa::sanitize {

/// The four defect classes plus the pool-drain leak audit.
enum class Defect : int {
  kRedzone = 0,
  kLifetime = 1,
  kRace = 2,
  kRefcount = 3,
  kLeak = 4,
};
inline constexpr int kNumDefects = 5;

/// "redzone", "lifetime", "race", "refcount", "leak".
const char* defect_name(Defect d);

/// Cumulative violation counters since process start (or reset_counts()).
struct Counts {
  std::int64_t redzone = 0;
  std::int64_t lifetime = 0;
  std::int64_t race = 0;
  std::int64_t refcount = 0;
  std::int64_t leak = 0;
  /// Redzone verifications performed (lets a clean run prove the checker
  /// actually executed, not just that nothing fired).
  std::int64_t redzone_checks = 0;
  std::int64_t total() const {
    return redzone + lifetime + race + refcount + leak;
  }
};

/// True in builds where the checker exists at all (Debug, or Release with
/// MFA_FORCE_SANITIZE_STORAGE).
constexpr bool compiled_in() { return MFA_SANITIZE_STORAGE_ON == 1; }

#if MFA_SANITIZE_STORAGE_ON

/// Runtime switch: compiled_in() && (MFA_SANITIZE_STORAGE env or
/// set_enabled). One relaxed atomic load when consulted on a hot path.
bool enabled();
void set_enabled(bool on);

/// Violation disposition. Default true: report() throws check::CheckError at
/// the faulting call site. Tests flip it off to observe several violations
/// in one scenario; counters are bumped either way.
bool throw_on_violation();
void set_throw_on_violation(bool on);

Counts counts();
void reset_counts();

namespace detail {

// Thread-local region/chunk identity, written by ChunkScope (thread_pool.cpp)
// and read by note_parallel_write's inline fast path. region 0 = not inside
// a tracked parallel region.
extern thread_local std::uint64_t t_region;
extern thread_local std::int64_t t_chunk;

void note_write_slow(const void* base, std::int64_t begin, std::int64_t end);

/// Bumps the Counts::redzone_checks statistic (called by storage.cpp once
/// per verified guard pair).
void add_redzone_checks(std::int64_t n);

/// Bumps the class counter, then throws CheckError with the streamed message
/// (plus op/tape-node context) unless throw_on_violation() is off or
/// allow_throw is false (destructor paths), in which case it logs instead.
void report(Defect d, const std::string& message, bool allow_throw);

}  // namespace detail

/// Records `message` (already formatted) as a violation of class d.
inline void report_violation(Defect d, const std::string& message,
                             bool allow_throw = true) {
  detail::report(d, message, allow_throw);
}

// ---- backtrace-lite op context -----------------------------------------
//
// Ops bracket their forward body with OpScope("conv2d"); backward() brackets
// each tape closure with OpScope(op_name, tape_node). Violation messages
// append " during op <name> (tape node #k)" so a redzone hit names the
// faulting kernel, not just the allocator call that noticed it.

class OpScope {
 public:
  explicit OpScope(const char* op, std::int64_t tape_node = -1);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  const char* prev_op_;
  std::int64_t prev_node_;
};

/// Innermost op scope on this thread; nullptr / -1 outside any scope.
const char* current_op();
std::int64_t current_tape_node();
/// " during op conv2d (tape node #7)" — empty outside any scope.
std::string context_suffix();

// ---- deterministic write-race detection --------------------------------

/// True when declared-write tracking should run: compiled in and enabled.
/// parallel_for consults this to virtualise its chunk partition.
inline bool race_check_active() { return enabled(); }

/// Opens a tracked region; returns its non-zero token, or 0 when the checker
/// is off (every later call with token 0 is a no-op). Called by
/// ThreadPool::run.
std::uint64_t begin_region();
/// Sweeps the region's declared writes for overlaps between different
/// chunks; reports Defect::kRace (throwing, unless disabled) and clears the
/// region's entries.
void end_region(std::uint64_t token);
/// Clears the region's entries without the overlap sweep (exception paths:
/// the kernel error supersedes the race report).
void abandon_region(std::uint64_t token);

/// RAII marker: "this thread is executing chunk [chunk_id] of region
/// [region]". Placed by ThreadPool around every chunk invocation.
class ChunkScope {
 public:
  ChunkScope(std::uint64_t region, std::int64_t chunk_id)
      : prev_region_(detail::t_region), prev_chunk_(detail::t_chunk) {
    detail::t_region = region;
    detail::t_chunk = chunk_id;
  }
  ~ChunkScope() {
    detail::t_region = prev_region_;
    detail::t_chunk = prev_chunk_;
  }
  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  std::uint64_t prev_region_;
  std::int64_t prev_chunk_;
};

/// Declares that the current chunk writes float range [begin, end) of the
/// buffer starting at `base`. Call once per chunk per output buffer, from
/// inside the parallel_for body. No-op outside a tracked region.
inline void note_parallel_write(const void* base, std::int64_t begin,
                                std::int64_t end) {
  if (detail::t_region == 0) return;
  detail::note_write_slow(base, begin, end);
}

#else  // !MFA_SANITIZE_STORAGE_ON — inline no-op stubs, zero Release cost.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline bool throw_on_violation() { return true; }
inline void set_throw_on_violation(bool) {}
inline Counts counts() { return {}; }
inline void reset_counts() {}
inline void report_violation(Defect, const std::string&, bool = true) {}

class OpScope {
 public:
  explicit OpScope(const char*, std::int64_t = -1) {}
};
inline const char* current_op() { return nullptr; }
inline std::int64_t current_tape_node() { return -1; }
inline std::string context_suffix() { return {}; }

inline bool race_check_active() { return false; }
inline std::uint64_t begin_region() { return 0; }
inline void end_region(std::uint64_t) {}
inline void abandon_region(std::uint64_t) {}

class ChunkScope {
 public:
  ChunkScope(std::uint64_t, std::int64_t) {}
};
inline void note_parallel_write(const void*, std::int64_t, std::int64_t) {}

#endif  // MFA_SANITIZE_STORAGE_ON

}  // namespace mfa::sanitize
