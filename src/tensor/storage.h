// Pooled, refcounted float storage for tensors.
//
// Storage is the buffer behind every TensorImpl's data and grad (and the
// per-op float workspaces that are not thread-local scratch). Buffers come
// from StoragePool, a process-wide caching allocator that recycles
// same-bucket blocks across iterations: after one warm-up step, a training
// epoch or a predict_levels call acquires every tensor buffer from a free
// list instead of the heap. See DESIGN.md "Threading and memory model".
//
//  * Refcounted handle. Copying a Storage shares the underlying block
//    (atomic refcount); the block returns to the pool when the last handle
//    drops. Tensor code deep-copies (copy_from) wherever value semantics are
//    required — sharing is reserved for read-only captures such as the
//    saved mean/inv_std of a normalisation op.
//  * Size-bucketed. Requests round up to the next power of two (min 32
//    floats), so buffers recycle across ops whose shapes differ slightly.
//    Requests past the largest bucket fall through to exact heap blocks.
//  * Thread-aware. Each thread front-ends the pool with a small lock-free
//    (thread-local) cache, so parallel_for bodies allocate without touching
//    the shared mutex in the steady state; overflow spills to a global,
//    mutex-protected free list. Blocks may be freed on a different thread
//    than they were acquired on.
//  * Observable. hits/misses/releases plus live and cached high-water marks
//    let tests pin the no-leak bound and let scripts/bench.sh assert the
//    steady-state allocation count (see "heap_allocs_per_iter").
//  * Visible to ASan. Under -fsanitize=address the pool poisons what no
//    handle may touch: a parked block's whole payload, the bucket slack past
//    the requested size, and the unused tail of the block header. A write
//    through a stale float* into a recycled block, an overrun into the
//    slack, or a small underrun faults as use-after-poison at the faulting
//    instruction. A block a tape-arena ring holds (set_ring_owned) is
//    poisoned by the drop that leaves the ring's handle as its only one.
//    Without ASan the poisoning compiles to nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfa::tensor {

namespace detail {
struct Block;  // defined in storage.cpp; handles cache the payload pointer
}  // namespace detail

/// Counter snapshot from StoragePool::stats(). Counts are cumulative since
/// process start (or reset_stats()); gauges reflect the instant of the call.
struct PoolStats {
  std::uint64_t hits = 0;      // acquisitions served from a free list
  std::uint64_t misses = 0;    // acquisitions that went to the heap
  std::uint64_t releases = 0;  // blocks parked on a free list for reuse
  std::uint64_t heap_frees = 0;  // blocks returned to the heap (oversize/trim)
  std::int64_t live_floats = 0;  // floats in blocks currently referenced
  std::int64_t live_floats_high_water = 0;
  std::int64_t cached_floats = 0;  // floats parked on free lists
  std::int64_t cached_floats_high_water = 0;
};

/// Refcounted handle to a pooled float buffer. Vector-like surface so tensor
/// kernels can use it exactly as they used std::vector<float>.
class Storage {
 public:
  Storage() = default;
  Storage(const Storage& other);
  Storage(Storage&& other) noexcept;
  Storage& operator=(const Storage& other);
  Storage& operator=(Storage&& other) noexcept;
  ~Storage();

  /// Pool-backed buffer of n floats, every element set to `value`.
  static Storage full(std::int64_t n, float value);

  /// std::vector::assign semantics: afterwards size() == n and every element
  /// equals `value`. Reuses the current block when it is exclusively owned
  /// and already the right size; otherwise swaps in a fresh pooled block.
  void assign(std::int64_t n, float value);
  /// Deep copy (resizes to match src).
  void copy_from(const Storage& src);
  void copy_from(const float* src, std::int64_t n);
  void fill(float value);
  std::vector<float> to_vector() const;
  /// Drops this handle's reference; the block returns to the pool once the
  /// last handle lets go. Afterwards empty().
  void reset();

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::size_t size() const { return static_cast<std::size_t>(size_); }
  bool empty() const { return size_ == 0; }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }
  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }

  /// True when other handles reference the same block.
  bool shared() const;

  /// Handle sharing this handle's block (refcount bump, no copy) but exposing
  /// only the first n floats (n <= size()). The tape arena hands out
  /// bucket-capacity blocks through prefix handles so one parked entry serves
  /// any op whose output fits the bucket.
  Storage share_prefix(std::int64_t n) const;

  /// Marks this handle as a tape-arena ring's hold on its block (on), or
  /// lifts the mark before the ring lets go while other handles remain
  /// (off). While marked, the drop that leaves this handle as the block's
  /// only one ASan-poisons the whole payload, so a stale pointer into a
  /// dropped op output faults; the ring unpoisons what it hands out again.
  void set_ring_owned(bool on);

 private:
  /// Replaces the current block with a fresh (uninitialised) one of n floats.
  void acquire_new(std::int64_t n);

  detail::Block* block_ = nullptr;
  float* data_ = nullptr;
  std::int64_t size_ = 0;
};

/// Process-wide caching allocator behind Storage (leaky singleton: safe to
/// use from thread-exit destructors of the worker pool).
class StoragePool {
 public:
  static StoragePool& instance();

  PoolStats stats() const;
  /// Zeroes the cumulative counters and re-bases the high-water marks on the
  /// current gauges.
  void reset_stats();
  /// Frees every block cached globally and in the calling thread's cache
  /// (other threads' caches drain on their exit). Live blocks are untouched.
  void trim();

 private:
  friend class Storage;
  StoragePool();
  detail::Block* acquire(std::int64_t n);
  void release(detail::Block* block);
  void recycle(detail::Block* block);  // refcount already zero

  struct Impl;
  Impl* impl_;
};

}  // namespace mfa::tensor
