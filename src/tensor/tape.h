// mfa::tensor::Tape — explicit autograd tape with a per-tape storage arena.
//
// Before this layer existed, every op that produced a grad-requiring output
// linked a std::shared_ptr<TensorImpl> web: each node owned its backward
// closure plus shared_ptr edges to its parents, and Tensor::backward() walked
// that web with a fresh unordered_set + frame stack per call. The tape makes
// both costs explicit and fixes them:
//
//  * Representation. make_result records into the calling thread's Tape: a
//    flat std::vector of plain nodes (op name, backward thunk, parent index
//    range into one shared parent array) instead of a pointer web. The
//    node's output tensor draws its buffer from the tape's arena (below);
//    leaves and parameters stay on StoragePool. backward() retires the WHOLE
//    tape when it completes (success or exception): closures are dropped,
//    node slots recycle, and the arena's buffers become reusable in one bulk
//    step instead of one refcount chain collapse per node.
//
//  * Execution. backward() plans one reverse-topological order over the
//    recorded graph (iterative DFS with epoch-stamped visit marks and reused
//    scratch vectors, so steady-state planning allocates nothing) and runs
//    the closures sequentially on the calling thread. Each closure
//    parallelises its own kernel through parallel_for; gradient
//    accumulation into a shared parent keeps one consumer order, so results
//    are bit-identical for any MFA_THREADS — pinned by the golden hash. A
//    node's gradient buffer is released as soon as its closure has
//    scattered into the parents.
//
// The arena (TapeArena) is a per-thread recycling ring per size bucket:
// acquire scans for an entry whose block the arena is the sole owner of
// (refcount 1), zero-fills the requested prefix and hands out a sharing
// handle; release is the tensor handle's ordinary refcount drop — no pool
// mutex, no thread-cache traffic, no stats atomics on the per-op hot path.
// At step end (backward() retire, or ArenaScope exit on inference paths) the
// cursors reset and the ring trims to the high-water mark of the last two
// steps, so a shrinking workload gives memory back. MFA_POOL=off disables
// the arena entirely: every acquisition is a raw heap allocation again and
// ASan sees full poisoning, exactly as before.
//
// Escape hatches and diagnostics:
//  * MFA_ARENA=off routes op outputs through the pool per-op.
//  * MFA_CHECK_FINITE_GRADS=1 scans every gradient for NaN/Inf as the walk
//    finalises it, attributing a bad value to the tape node that wrote it.
//
// Thread model: Tape::current() is thread_local. A graph must be recorded
// and executed on one thread (true for every current caller: trainer, flow,
// serve workers each build and backprop on their own thread).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace mfa::tensor {

/// Shape of the last planned backward, for tests and benchmarks.
struct TapePlanStats {
  std::int64_t nodes = 0;  // reachable nodes executed
  // Closures dispatched to pool workers. Always 0: backward runs every
  // closure on the calling thread. Kept because the perfbench train
  // workload reports it.
  std::int64_t parallel_tasks = 0;
};

/// Per-thread bucketed recycling ring for intermediate tensor buffers.
/// Entries are Storage handles the arena keeps referenced; an entry is free
/// exactly when the arena holds the only reference. See the file comment.
class TapeArena {
 public:
  /// Zero-fills and hands out a buffer of n floats sharing an arena block.
  /// Returns false (out untouched) when the arena cannot serve the request:
  /// pool disabled, n outside the bucket range, or the ring at its cap.
  bool try_acquire(std::int64_t n, Storage& out);

  /// Step boundary: resets the scan cursors and trims each ring to the
  /// high-water mark of the last two steps (unpinned tail entries only).
  void end_step();

  /// Drops every unpinned entry regardless of high-water (tests / teardown).
  void clear();

  /// Floats currently held across all rings (pinned or free).
  std::int64_t held_floats() const;
  /// Entries currently held across all rings.
  std::int64_t entries() const;

  /// mfa::sanitize sweep over every held entry (no-op when the checker is
  /// off). Arena blocks never pass through the pool's release/reacquire
  /// checks while held, so tests sweep them explicitly.
  void verify_guards() const;

  // Buckets mirror StoragePool's power-of-two sizing over the range the
  // model's intermediates actually occupy; larger requests fall through to
  // the pool. kMaxEntries bounds one ring so a pathological workload cannot
  // scan (or pin) an unbounded entry list.
  static constexpr int kMinBucket = 5;    // 32 floats
  static constexpr int kMaxBucket = 26;   // 64 Mi floats (256 MiB)
  static constexpr int kNumBuckets = kMaxBucket - kMinBucket + 1;
  static constexpr std::uint32_t kMaxEntries = 256;

  /// Ring index for a request of n floats: the smallest bucket holding n,
  /// or -1 when n is above the largest bucket (the pool serves it).
  static int bucket_index_for(std::int64_t n);

 private:
  struct Ring {
    std::vector<Storage> entries;
    std::vector<std::uint32_t> touched_stamp;  // last step an entry served
    std::uint32_t cursor = 0;        // next probe start (ring position)
    std::uint32_t used_this_step = 0;
    std::uint32_t used_prev_step = 0;
    std::uint32_t step_token = 1;
  };

  Ring rings_[kNumBuckets];
};

/// The per-thread autograd tape. Ops record through Tensor::make_result;
/// Tensor::backward() delegates to execute_backward().
class Tape {
 public:
  /// The calling thread's tape (constructed on first use).
  static Tape& current();

  Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- recording (called by Tensor::make_result) ----

  /// Appends a node; returns its id. `op_name` must have static storage
  /// duration (or be null). Parent refs are resolved against the current
  /// epoch: an input recorded before the last retire is treated as a leaf.
  std::int32_t record(const char* op_name,
                      std::shared_ptr<mfa::detail::TensorImpl> out,
                      const std::vector<Tensor>& inputs,
                      std::function<void(mfa::detail::TensorImpl&)> fn);

  /// Monotonic tape generation; bumped by every retire. A TensorImpl's
  /// (tape_id, tape_epoch) pair is valid only while the epochs match.
  std::uint64_t epoch() const { return epoch_; }

  /// Nodes currently recorded (live, pre-retire). Test/diagnostic hook.
  std::int64_t recorded_nodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }

  // ---- execution (called by Tensor::backward) ----

  /// Runs reverse-mode AD from `root` (already validated as a scalar), then
  /// retires the whole tape — also on exception, so a later graph starts
  /// clean after a throwing backward.
  void execute_backward(const std::shared_ptr<mfa::detail::TensorImpl>& root);

  /// Multi-root variant: computes the gradient of the SUM of the (scalar)
  /// roots in one reverse pass over the union of their subgraphs — the
  /// two-head training shape (main loss + auxiliary head, or a cGAN's
  /// generator/discriminator pair sharing a trunk). Each root is seeded with
  /// +1 (a root listed twice therefore contributes twice); roots that are
  /// leaves or ancestors of other roots are both fine — an interior root
  /// simply receives its seed on top of the gradient scattered by its
  /// consumers. The execution order is the reverse of the concatenated DFS
  /// post-orders (restarted per root over one shared visited set), a linear
  /// extension of the union DAG, so every consumer still scatters into a
  /// shared parent before that parent's own closure runs.
  void execute_backward(
      const std::vector<std::shared_ptr<mfa::detail::TensorImpl>>& roots);

  // ---- arena ----

  /// Buffer for an op output: zero-filled, from the arena when it may serve
  /// (recording, or inside an ArenaScope; pool enabled; arena enabled),
  /// otherwise a plain pooled/heap buffer — bit-identical either way.
  Storage intermediate_storage(std::int64_t n, bool recording);

  void begin_arena_scope();
  void end_arena_scope();

  TapeArena& arena() { return arena_; }

  // ---- knob (env-seeded; per-thread setter for tests/benchmarks) ----

  bool arena_enabled() const { return arena_on_; }
  void set_arena_for_testing(bool on) { arena_on_ = on; }

  // ---- diagnostics ----

  const TapePlanStats& last_plan() const { return last_plan_; }

  /// Cumulative count of plan-buffer capacity growths on this thread's tape.
  /// Zero growth over an iteration proves backward() bookkeeping allocates
  /// nothing in the steady state (the satellite claim bench.sh --check
  /// asserts via bench_micro's tape_plan_allocs_per_iter).
  std::int64_t plan_grow_events() const { return plan_grow_events_; }

 private:
  struct ParentRef {
    std::shared_ptr<mfa::detail::TensorImpl> impl;  // autograd edge
    std::int32_t node;  // producing node id, or -1 for a leaf
  };

  struct Node {
    const char* op_name;
    std::shared_ptr<mfa::detail::TensorImpl> out;
    std::function<void(mfa::detail::TensorImpl&)> fn;
    std::uint32_t parent_begin;
    std::uint32_t parent_end;
  };

  struct DfsFrame {
    std::int32_t node;
    std::uint32_t next;  // next parent slot to visit
  };

  void plan_order(const std::int32_t* roots, std::size_t num_roots);
  void run_planned();  // plan + execute + retire from root_ids_
  void run_seq(bool scan_grads);
  void scan_grad_finite(mfa::detail::TensorImpl* impl) const;
  void retire();

  /// Reserves n slots in a reused plan vector, counting capacity growth.
  template <typename T>
  void plan_grow(std::vector<T>& v, std::size_t n) {
    if (v.capacity() < n) {
      ++plan_grow_events_;
      v.reserve(n);
    }
    v.resize(n);
  }

  // ---- recorded graph ----
  std::vector<Node> nodes_;
  std::vector<ParentRef> parents_;
  std::uint64_t epoch_ = 1;
  bool executing_ = false;

  // ---- plan scratch, reused across backward() calls (epoch-stamped visit
  // marks instead of a per-call unordered_set) ----
  std::vector<std::uint32_t> visit_;  // per node id, stamped with visit token
  std::uint32_t visit_token_ = 0;
  std::uint64_t plan_token_ = 0;  // stamps TensorImpl::plan_stamp
  std::vector<DfsFrame> stack_;
  std::vector<std::int32_t> order_;  // execution order (root first)
  std::vector<std::int32_t> root_ids_;  // taped roots of the current backward
  std::vector<mfa::detail::TensorImpl*> leaves_;  // scan-mode leaf list
  std::int64_t plan_grow_events_ = 0;

  TapeArena arena_;
  int arena_scope_depth_ = 0;

  bool arena_on_;

  TapePlanStats last_plan_;
};

/// RAII inference-step scope: while active, make_result outputs on this
/// thread draw from the tape arena even when nothing records (NoGrad
/// forward); on exit of the outermost scope the arena ends its step.
/// predict_levels() brackets each call so flow and serve recycle per-request
/// intermediates through the arena exactly like a training step does.
class ArenaScope {
 public:
  ArenaScope() : tape_(Tape::current()) { tape_.begin_arena_scope(); }
  ~ArenaScope() { tape_.end_arena_scope(); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Tape& tape_;
};

}  // namespace mfa::tensor
