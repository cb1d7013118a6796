// mfa::sanitize — deterministic declared-write race checker for
// parallel_for regions (parallel.h, thread_pool.h).
//
// TSan only catches the races a given schedule happens to interleave. This
// checker instead audits the declared partition: chunk kernels declare the
// float ranges they write (note_parallel_write), and at region end two
// overlapping declarations from different chunks are reported even if the
// schedule never interleaved them. Chunk partitioning is virtualised to a
// fixed task count while the checker is on, so MFA_THREADS=1 detects the
// same overlaps as MFA_THREADS=16, with a byte-identical report.
//
// Memory errors on the pooled tensor buffers are ASan's job: the storage
// pool poisons parked blocks and bucket slack (tensor/storage.h), so a
// Debug+ASan build stops a stale-pointer write or an overrun at the
// faulting instruction.
//
// Gating mirrors common/fault.h: compiled in when NDEBUG is not defined,
// compiled to inline no-ops in Release — MFA_SANITIZE_STORAGE_ON reports
// the active mode. When compiled in, the runtime switch is the
// MFA_SANITIZE_STORAGE environment variable (default off; "on"/"1"/"true"
// enable) or set_enabled().
//
// A race report throws check::CheckError (or only counts and logs in
// count-only mode) and names the op that opened the region. Every report
// bumps the counter exported to mfa::obs as "sanitize.violations_race".
#pragma once

#include <cstdint>
#include <string>

#if !defined(NDEBUG)
#define MFA_SANITIZE_STORAGE_ON 1
#else
#define MFA_SANITIZE_STORAGE_ON 0
#endif

namespace mfa::sanitize {

/// Cumulative counters since process start (or reset_counts()).
struct Counts {
  std::int64_t race = 0;  // overlap reports
  /// Regions whose declared writes were swept (lets a clean run prove the
  /// checker actually looked, not just that nothing fired).
  std::int64_t regions_checked = 0;
};

/// True in builds where the checker exists at all (Debug).
constexpr bool compiled_in() { return MFA_SANITIZE_STORAGE_ON == 1; }

#if MFA_SANITIZE_STORAGE_ON

/// Runtime switch: compiled_in() && (MFA_SANITIZE_STORAGE env or
/// set_enabled). One relaxed atomic load when consulted on a hot path.
bool enabled();
void set_enabled(bool on);

/// Violation disposition. Default true: a report throws check::CheckError
/// from the region's end. Tests flip it off (count-only mode) to observe
/// several violations in one scenario; counters are bumped either way.
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

}  // namespace detail

// ---- backtrace-lite op context -----------------------------------------
//
// Ops bracket their forward body with OpScope("conv2d"); backward() brackets
// each tape closure with OpScope(op_name, tape_node). A race report appends
// " during op <name> (tape node #k)" so it names the faulting kernel.

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
/// chunks; reports a race (throwing, unless in count-only mode) and clears
/// the region's entries.
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
