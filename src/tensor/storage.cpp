#include "tensor/storage.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>
#include <string>

#include "common/check.h"
#include "common/metrics.h"

namespace mfa::tensor {

namespace detail {

// Header placed immediately before the float payload. alignas(64) pads the
// header to one cache line, so the payload is 64-byte aligned and the hot
// refcount never false-shares with payload data. Under ASan the unused tail
// of the line stays poisoned for the block's whole life, so a small
// underrun of the payload faults.
struct alignas(64) Block {
  std::atomic<std::uint32_t> refs;
  std::int32_t bucket;     // free-list index, or -1 for exact heap blocks
  std::int64_t capacity;   // floats in the payload
  Block* next;             // free-list link while cached
  std::atomic<bool> ring_owned;  // Storage::set_ring_owned
};
static_assert(sizeof(Block) == 64, "payload must stay 64-byte aligned");

inline float* payload(Block* b) { return reinterpret_cast<float*>(b + 1); }

}  // namespace detail

namespace {

using detail::Block;

// Buckets are powers of two: bucket b holds blocks of exactly 2^b floats,
// b in [kMinBucket, kMaxBucket]. Anything larger is an exact heap block.
constexpr int kMinBucket = 5;   // 32 floats
constexpr int kMaxBucket = 30;  // 2^30 floats (4 GiB)
constexpr int kNumBuckets = kMaxBucket + 1;

// Per-thread cache caps: a few blocks per bucket and a total byte budget,
// so one thread cannot strand an unbounded amount of memory.
constexpr int kThreadCacheBlocksPerBucket = 4;
constexpr std::int64_t kThreadCacheMaxFloats = std::int64_t{8} << 20;  // 32 MiB

int bucket_for(std::int64_t n) {
  if (n > (std::int64_t{1} << kMaxBucket)) return -1;
  int b = kMinBucket;
  while ((std::int64_t{1} << b) < n) ++b;
  return b;
}

// ASan manual poisoning; both macros compile to nothing without
// -fsanitize=address. A block's payload is poisoned while it is parked on a
// free list and, while live, past the n floats its owner asked for.
void poison_payload(Block* b) {
  ASAN_POISON_MEMORY_REGION(detail::payload(b),
                            static_cast<std::size_t>(b->capacity) *
                                sizeof(float));
}

void unpoison_prefix(Block* b, std::int64_t n) {
  ASAN_UNPOISON_MEMORY_REGION(detail::payload(b),
                              static_cast<std::size_t>(n) * sizeof(float));
}

// Header bytes in use; the rest of the header line stays poisoned.
constexpr std::size_t kHeaderUsed =
    offsetof(Block, ring_owned) + sizeof(std::atomic<bool>);

/// Fresh block with its whole payload poisoned; acquire() unpoisons the
/// requested prefix.
Block* heap_block(std::int64_t capacity, int bucket) {
  const std::size_t bytes =
      sizeof(Block) + static_cast<std::size_t>(capacity) * sizeof(float);
  void* mem = ::operator new(bytes, std::align_val_t{alignof(Block)});
  auto* b = new (mem) Block;
  b->refs.store(1, std::memory_order_relaxed);
  b->bucket = bucket;
  b->capacity = capacity;
  b->next = nullptr;
  b->ring_owned.store(false, std::memory_order_relaxed);
  ASAN_POISON_MEMORY_REGION(reinterpret_cast<char*>(b) + kHeaderUsed,
                            sizeof(Block) - kHeaderUsed);
  poison_payload(b);
  return b;
}

void heap_free(Block* b) {
  ASAN_UNPOISON_MEMORY_REGION(
      b, sizeof(Block) + static_cast<std::size_t>(b->capacity) * sizeof(float));
  b->~Block();
  ::operator delete(b, std::align_val_t{alignof(Block)});
}

}  // namespace

struct StoragePool::Impl {
  // Cumulative counters (relaxed: they are statistics, not synchronisation).
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> heap_frees{0};
  std::atomic<std::int64_t> live_floats{0};
  std::atomic<std::int64_t> live_high_water{0};
  std::atomic<std::int64_t> cached_floats{0};
  std::atomic<std::int64_t> cached_high_water{0};

  // Global free lists; overflow target of the thread caches.
  std::mutex mutex;
  Block* free_list[kNumBuckets] = {};

  // Thread-local front-end cache. The destructor drains into the global
  // lists, so worker threads that exit hand their blocks back.
  struct ThreadCache {
    Block* head[kNumBuckets] = {};
    int count[kNumBuckets] = {};
    std::int64_t floats = 0;
    ~ThreadCache() {
      auto& impl = *StoragePool::instance().impl_;
      std::lock_guard<std::mutex> lock(impl.mutex);
      for (int b = 0; b < kNumBuckets; ++b) {
        while (head[b]) {
          Block* blk = head[b];
          head[b] = blk->next;
          blk->next = impl.free_list[b];
          impl.free_list[b] = blk;
        }
      }
    }
  };

  static ThreadCache& cache() {
    thread_local ThreadCache tc;
    return tc;
  }

  static void raise_high_water(std::atomic<std::int64_t>& mark,
                               std::int64_t value) {
    std::int64_t seen = mark.load(std::memory_order_relaxed);
    while (value > seen &&
           !mark.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  void note_acquired(std::int64_t capacity) {
    const auto live =
        live_floats.fetch_add(capacity, std::memory_order_relaxed) + capacity;
    raise_high_water(live_high_water, live);
  }

  void note_cached(std::int64_t capacity) {
    const auto cached =
        cached_floats.fetch_add(capacity, std::memory_order_relaxed) +
        capacity;
    raise_high_water(cached_high_water, cached);
  }
};

StoragePool::StoragePool() : impl_(new Impl) {
  // Adopt the pool's existing counters into the metrics registry so
  // metrics_json() snapshots include allocator behaviour without adding a
  // second bump to the acquire/release hot path. `this` is the leaked
  // instance() singleton, so the callback never dangles.
  obs::Registry::instance().register_source("storage_pool", [this] {
    const PoolStats s = stats();
    return std::vector<std::pair<std::string, double>>{
        {"hits", static_cast<double>(s.hits)},
        {"misses", static_cast<double>(s.misses)},
        {"releases", static_cast<double>(s.releases)},
        {"heap_frees", static_cast<double>(s.heap_frees)},
        {"live_floats", static_cast<double>(s.live_floats)},
        {"live_floats_high_water",
         static_cast<double>(s.live_floats_high_water)},
        {"cached_floats", static_cast<double>(s.cached_floats)},
        {"cached_floats_high_water",
         static_cast<double>(s.cached_floats_high_water)},
    };
  });
}

StoragePool& StoragePool::instance() {
  // Leaky on purpose: thread caches drain into the pool from thread-exit
  // destructors, which may run after static destruction would have killed a
  // normal singleton.
  static StoragePool* pool = new StoragePool;
  return *pool;
}

PoolStats StoragePool::stats() const {
  PoolStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.releases = impl_->releases.load(std::memory_order_relaxed);
  s.heap_frees = impl_->heap_frees.load(std::memory_order_relaxed);
  s.live_floats = impl_->live_floats.load(std::memory_order_relaxed);
  s.live_floats_high_water =
      impl_->live_high_water.load(std::memory_order_relaxed);
  s.cached_floats = impl_->cached_floats.load(std::memory_order_relaxed);
  s.cached_floats_high_water =
      impl_->cached_high_water.load(std::memory_order_relaxed);
  return s;
}

void StoragePool::reset_stats() {
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
  impl_->releases.store(0, std::memory_order_relaxed);
  impl_->heap_frees.store(0, std::memory_order_relaxed);
  impl_->live_high_water.store(
      impl_->live_floats.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  impl_->cached_high_water.store(
      impl_->cached_floats.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void StoragePool::trim() {
  auto& tc = Impl::cache();
  for (int b = 0; b < kNumBuckets; ++b) {
    while (tc.head[b]) {
      Block* blk = tc.head[b];
      tc.head[b] = blk->next;
      tc.count[b] = 0;
      tc.floats -= blk->capacity;
      impl_->cached_floats.fetch_sub(blk->capacity,
                                     std::memory_order_relaxed);
      impl_->heap_frees.fetch_add(1, std::memory_order_relaxed);
      heap_free(blk);
    }
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (int b = 0; b < kNumBuckets; ++b) {
    while (impl_->free_list[b]) {
      Block* blk = impl_->free_list[b];
      impl_->free_list[b] = blk->next;
      impl_->cached_floats.fetch_sub(blk->capacity,
                                     std::memory_order_relaxed);
      impl_->heap_frees.fetch_add(1, std::memory_order_relaxed);
      heap_free(blk);
    }
  }
}

Block* StoragePool::acquire(std::int64_t n) {
  MFA_CHECK_GE(n, 0) << " Storage: negative size";
  if (n == 0) return nullptr;
  const int bucket = bucket_for(n);
  Block* blk = nullptr;
  if (bucket >= 0) {
    auto& tc = Impl::cache();
    blk = tc.head[bucket];
    if (blk) {
      tc.head[bucket] = blk->next;
      --tc.count[bucket];
      tc.floats -= blk->capacity;
    } else {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      blk = impl_->free_list[bucket];
      if (blk) impl_->free_list[bucket] = blk->next;
    }
  }
  if (blk) {
    impl_->cached_floats.fetch_sub(blk->capacity, std::memory_order_relaxed);
    impl_->hits.fetch_add(1, std::memory_order_relaxed);
    blk->refs.store(1, std::memory_order_relaxed);
    blk->next = nullptr;
    blk->ring_owned.store(false, std::memory_order_relaxed);
  } else {
    const std::int64_t capacity =
        bucket >= 0 ? (std::int64_t{1} << bucket) : n;
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    blk = heap_block(capacity, bucket);
  }
  impl_->note_acquired(blk->capacity);
  unpoison_prefix(blk, n);  // the bucket slack [n, capacity) stays poisoned
  return blk;
}

void StoragePool::recycle(Block* block) {
  impl_->live_floats.fetch_sub(block->capacity, std::memory_order_relaxed);
  if (block->bucket < 0) {
    impl_->heap_frees.fetch_add(1, std::memory_order_relaxed);
    heap_free(block);
    return;
  }
  poison_payload(block);  // parked: no handle may touch it until reacquired
  impl_->releases.fetch_add(1, std::memory_order_relaxed);
  impl_->note_cached(block->capacity);
  const int bucket = block->bucket;
  auto& tc = Impl::cache();
  if (tc.count[bucket] < kThreadCacheBlocksPerBucket &&
      tc.floats + block->capacity <= kThreadCacheMaxFloats) {
    block->next = tc.head[bucket];
    tc.head[bucket] = block;
    ++tc.count[bucket];
    tc.floats += block->capacity;
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  block->next = impl_->free_list[bucket];
  impl_->free_list[bucket] = block;
}

void StoragePool::release(Block* block) {
  // Two handles left, one of them a ring's: this drop leaves the ring as
  // sole owner. Poison before the decrement, so the ring cannot hand the
  // block out again first. Reading refs before the mark (acquire) pairs
  // with the ring lifting its mark before its own drop.
  if (block->refs.load(std::memory_order_acquire) == 2 &&
      block->ring_owned.load(std::memory_order_relaxed))
    poison_payload(block);
  if (block->refs.fetch_sub(1, std::memory_order_release) != 1) return;
  std::atomic_thread_fence(std::memory_order_acquire);
  recycle(block);
}

// ---- Storage handle ----

Storage::Storage(const Storage& other)
    : block_(other.block_), data_(other.data_), size_(other.size_) {
  if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
}

Storage::Storage(Storage&& other) noexcept
    : block_(other.block_), data_(other.data_), size_(other.size_) {
  other.block_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

Storage& Storage::operator=(const Storage& other) {
  if (this == &other) return *this;
  if (other.block_) other.block_->refs.fetch_add(1, std::memory_order_relaxed);
  reset();
  block_ = other.block_;
  data_ = other.data_;
  size_ = other.size_;
  return *this;
}

Storage& Storage::operator=(Storage&& other) noexcept {
  if (this == &other) return *this;
  reset();
  block_ = other.block_;
  data_ = other.data_;
  size_ = other.size_;
  other.block_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

Storage::~Storage() { reset(); }

void Storage::reset() {
  if (block_) StoragePool::instance().release(block_);
  block_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

bool Storage::shared() const {
  return block_ && block_->refs.load(std::memory_order_acquire) > 1;
}

Storage Storage::share_prefix(std::int64_t n) const {
  MFA_CHECK(n >= 0 && n <= size_)
      << " share_prefix(" << n << ") out of range on a " << size_
      << "-float storage";
  Storage s(*this);  // shares the block, bumps the refcount
  s.size_ = n;
  return s;
}

void Storage::set_ring_owned(bool on) {
  if (block_) block_->ring_owned.store(on, std::memory_order_relaxed);
}

void Storage::acquire_new(std::int64_t n) {
  Block* fresh = StoragePool::instance().acquire(n);
  reset();
  block_ = fresh;
  data_ = fresh ? detail::payload(fresh) : nullptr;
  size_ = fresh ? n : 0;
}

Storage Storage::full(std::int64_t n, float value) {
  Storage s;
  s.assign(n, value);
  return s;
}

void Storage::assign(std::int64_t n, float value) {
  if (n != size_ || shared()) acquire_new(n);
  if (size_ > 0) std::fill(data_, data_ + size_, value);
}

void Storage::fill(float value) {
  if (size_ > 0) std::fill(data_, data_ + size_, value);
}

void Storage::copy_from(const Storage& src) {
  copy_from(src.data_, src.size_);
}

void Storage::copy_from(const float* src, std::int64_t n) {
  if (n != size_ || shared()) acquire_new(n);
  if (size_ > 0)
    std::memcpy(data_, src, static_cast<std::size_t>(size_) * sizeof(float));
}

std::vector<float> Storage::to_vector() const {
  return std::vector<float>(data_, data_ + size_);
}

}  // namespace mfa::tensor
