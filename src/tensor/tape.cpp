#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/sanitize.h"

namespace mfa::tensor {

namespace {

bool env_flag_off(const char* name) {
  const char* v = std::getenv(name);
  if (!v) return false;
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
         std::strcmp(v, "false") == 0;
}

// Process-wide counters exported to mfa::obs (leaky singleton, same rationale
// as the pool/sanitizer registries: tapes are thread_local and may die on
// worker-thread exit, so the obs source must outlive them all).
struct GlobalStats {
  std::atomic<std::int64_t> nodes_recorded{0};
  std::atomic<std::int64_t> backwards{0};
  std::atomic<std::int64_t> arena_hits{0};
  std::atomic<std::int64_t> arena_misses{0};

  GlobalStats() {
    obs::Registry::instance().register_source("tape", [this] {
      return std::vector<std::pair<std::string, double>>{
          {"nodes_recorded", static_cast<double>(nodes_recorded.load())},
          {"backwards", static_cast<double>(backwards.load())},
          {"arena_hits", static_cast<double>(arena_hits.load())},
          {"arena_misses", static_cast<double>(arena_misses.load())},
      };
    });
  }
};

GlobalStats& gstats() {
  static GlobalStats* s = new GlobalStats;
  return *s;
}

}  // namespace

// ---------------------------------------------------------------------------
// TapeArena

int TapeArena::bucket_index_for(std::int64_t n) {
  int p = kMinBucket;
  while ((std::int64_t{1} << p) < n) {
    ++p;
    if (p > kMaxBucket) return -1;
  }
  return p - kMinBucket;
}

bool TapeArena::try_acquire(std::int64_t n, Storage& out) {
  const int b = bucket_index_for(n);
  if (b < 0) return false;
  Ring& r = rings_[b];
  const std::size_t sz = r.entries.size();
  for (std::size_t k = 0; k < sz; ++k) {
    std::size_t j = r.cursor + k;
    if (j >= sz) j -= sz;
    Storage& e = r.entries[j];
    // The arena holds exactly one reference to a parked entry; any extra
    // reference is an outstanding tensor handle (possibly escaped from a
    // previous step), which pins the entry until it drops. The refcount is
    // atomic, so a handle released concurrently on another thread is at
    // worst missed this probe — never handed out twice.
    if (e.shared()) continue;
    r.cursor = static_cast<std::uint32_t>(j + 1 == sz ? 0 : j + 1);
    if (r.touched_stamp[j] != r.step_token) {
      r.touched_stamp[j] = r.step_token;
      ++r.used_this_step;
    }
    out = e.share_prefix(n);
    std::fill(out.begin(), out.end(), 0.0f);
    gstats().arena_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (sz >= kMaxEntries) return false;
  // Grow the ring: one pooled bucket-capacity block, zero-filled (so the
  // prefix handout below needs no extra fill). This is the warm-up path; a
  // steady-state step reuses parked entries and never reaches here.
  const std::int64_t cap = std::int64_t{1} << (kMinBucket + b);
  r.entries.push_back(Storage::full(cap, 0.0f));
  r.touched_stamp.push_back(r.step_token);
  ++r.used_this_step;
  out = r.entries.back().share_prefix(n);
  gstats().arena_misses.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TapeArena::end_step() {
  for (Ring& r : rings_) {
    if (r.entries.empty() && r.used_prev_step == 0) continue;
    // Keep the high-water mark of the last two steps; give back the rest
    // (pinned tail entries stay until their escaped handles drop).
    const std::uint32_t keep = std::max(r.used_this_step, r.used_prev_step);
    while (r.entries.size() > keep && !r.entries.back().shared()) {
      r.entries.pop_back();
      r.touched_stamp.pop_back();
    }
    r.used_prev_step = r.used_this_step;
    r.used_this_step = 0;
    r.cursor = 0;
    if (++r.step_token == 0) {
      std::fill(r.touched_stamp.begin(), r.touched_stamp.end(), 0u);
      r.step_token = 1;
    }
  }
}

void TapeArena::clear() {
  for (Ring& r : rings_) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      if (!r.entries[i].shared()) continue;  // pinned: must stay referenced
      if (w != i) {
        r.entries[w] = std::move(r.entries[i]);
        r.touched_stamp[w] = r.touched_stamp[i];
      }
      ++w;
    }
    r.entries.resize(w);
    r.touched_stamp.resize(w);
    r.cursor = 0;
    r.used_this_step = 0;
    r.used_prev_step = 0;
  }
}

std::int64_t TapeArena::held_floats() const {
  std::int64_t total = 0;
  for (const Ring& r : rings_)
    for (const Storage& e : r.entries)
      total += static_cast<std::int64_t>(e.size());
  return total;
}

std::int64_t TapeArena::entries() const {
  std::int64_t total = 0;
  for (const Ring& r : rings_)
    total += static_cast<std::int64_t>(r.entries.size());
  return total;
}

void TapeArena::verify_guards() const {
  for (const Ring& r : rings_)
    for (const Storage& e : r.entries) e.verify_guards();
}

// ---------------------------------------------------------------------------
// Tape — recording

Tape& Tape::current() {
  thread_local Tape tape;
  return tape;
}

Tape::Tape() : arena_on_(!env_flag_off("MFA_ARENA")) {}

std::int32_t Tape::record(const char* op_name,
                          std::shared_ptr<mfa::detail::TensorImpl> out,
                          const std::vector<Tensor>& inputs,
                          std::function<void(mfa::detail::TensorImpl&)> fn) {
  MFA_CHECK(!executing_)
      << " make_result while backward() is executing: taped ops inside a "
         "backward closure are not supported";
  const auto id = static_cast<std::int32_t>(nodes_.size());
  const auto parent_begin = static_cast<std::uint32_t>(parents_.size());
  for (const auto& in : inputs) {
    if (!in.defined()) continue;
    auto impl = in.impl();
    // An input recorded before the last retire is a leaf of this graph: its
    // producing closure is gone, so gradient flow stops there (it keeps the
    // gradient scattered into it, like any parameter).
    const std::int32_t parent_node =
        (impl->tape_epoch == epoch_ && impl->tape_id >= 0) ? impl->tape_id
                                                           : -1;
    parents_.push_back({std::move(impl), parent_node});
  }
  nodes_.push_back(Node{op_name, std::move(out), std::move(fn), parent_begin,
                        static_cast<std::uint32_t>(parents_.size())});
  gstats().nodes_recorded.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Storage Tape::intermediate_storage(std::int64_t n, bool recording) {
  if (n > 0 && arena_on_ && (recording || arena_scope_depth_ > 0) &&
      StoragePool::instance().enabled()) {
    Storage s;
    if (arena_.try_acquire(n, s)) return s;
  }
  Storage s;
  s.assign(n, 0.0f);
  return s;
}

void Tape::begin_arena_scope() { ++arena_scope_depth_; }

void Tape::end_arena_scope() {
  MFA_CHECK_GT(arena_scope_depth_, 0) << " unbalanced ArenaScope";
  if (--arena_scope_depth_ == 0 && !executing_) arena_.end_step();
}

// ---------------------------------------------------------------------------
// Tape — planning

void Tape::plan_order(const std::int32_t* roots, std::size_t num_roots) {
  const std::size_t node_count = nodes_.size();
  plan_grow(visit_, node_count);
  if (++visit_token_ == 0) {
    std::fill(visit_.begin(), visit_.end(), 0u);
    visit_token_ = 1;
  }
  plan_grow(order_, node_count);
  plan_grow(stack_, node_count);
  // Iterative post-order DFS over node ids, parents in op-input order — the
  // exact traversal the closure-web walker used, so the reversed result
  // preserves its gradient accumulation order bit for bit. Leaves carry no
  // closure and are skipped; their relative position never influenced the
  // order of real nodes (each was a size-1 subtree).
  //
  // Multi-root backward restarts the DFS per root over the same visited set
  // and reverses the concatenated post-orders. That is a topological order
  // of the union DAG: for any consumer->parent edge the parent finishes
  // first (a parent still on the stack would imply a cycle), so it lands
  // earlier in post-order and later in execution order, exactly as needed.
  std::size_t sp = 0;
  std::size_t produced = 0;
  for (std::size_t r = 0; r < num_roots; ++r) {
    const std::int32_t root_id = roots[r];
    if (visit_[static_cast<std::size_t>(root_id)] == visit_token_) continue;
    visit_[static_cast<std::size_t>(root_id)] = visit_token_;
    stack_[sp++] = DfsFrame{root_id, 0};
    while (sp > 0) {
      DfsFrame& f = stack_[sp - 1];
      const Node& n = nodes_[static_cast<std::size_t>(f.node)];
      const std::uint32_t parent_count = n.parent_end - n.parent_begin;
      bool descended = false;
      while (f.next < parent_count) {
        const ParentRef& pr = parents_[n.parent_begin + f.next];
        ++f.next;
        const std::int32_t pn = pr.node;
        if (pn < 0 || visit_[static_cast<std::size_t>(pn)] == visit_token_)
          continue;
        visit_[static_cast<std::size_t>(pn)] = visit_token_;
        stack_[sp++] = DfsFrame{pn, 0};
        descended = true;
        break;
      }
      if (descended) continue;
      order_[produced++] = f.node;
      --sp;
    }
  }
  // Reverse post-order = execution order (roots first).
  order_.resize(produced);
  std::reverse(order_.begin(), order_.end());
}

// ---------------------------------------------------------------------------
// Tape — execution

void Tape::scan_grad_finite(mfa::detail::TensorImpl* impl) const {
  bool ok = true;
  for (const float v : impl->grad)
    if (!std::isfinite(v)) {
      ok = false;
      break;
    }
  if (ok) return;
  const std::string what = log::format(
      "backward() gradient of tensor shape %s (written by tape node #%lld)",
      shape_str(impl->shape).c_str(),
      static_cast<long long>(impl->last_grad_writer));
  check::check_all_finite(impl->grad.data(),
                          static_cast<std::int64_t>(impl->grad.size()),
                          what.c_str());
}

void Tape::run_seq(bool scan_grads) {
  if (scan_grads) {
    // Reset the writer attribution stamped by a previous walk, and collect
    // the reachable leaves (deduplicated via plan stamps) so their final
    // gradients are scanned after the walk — a leaf keeps its gradient for
    // the optimizer, so a NaN scattered into it must still be caught.
    ++plan_token_;
    leaves_.clear();
    for (const std::int32_t id : order_) {
      const Node& n = nodes_[static_cast<std::size_t>(id)];
      n.out->last_grad_writer = -1;
      for (std::uint32_t p = n.parent_begin; p < n.parent_end; ++p) {
        if (parents_[p].node >= 0) continue;
        mfa::detail::TensorImpl* leaf = parents_[p].impl.get();
        if (leaf->plan_stamp == plan_token_) continue;
        leaf->plan_stamp = plan_token_;
        leaf->last_grad_writer = -1;
        leaves_.push_back(leaf);
      }
    }
  }
  const std::size_t m = order_.size();
  for (std::size_t pos = 0; pos < m; ++pos) {
    Node& n = nodes_[static_cast<std::size_t>(order_[pos])];
    // Dirty-set NaN/Inf guard: a node's gradient is final when the walk
    // reaches it (all consumers already ran), so it is scanned exactly once.
    if (scan_grads && !n.out->grad.empty()) scan_grad_finite(n.out.get());
    {
      // Backtrace-lite for mfa::sanitize: violations raised inside this
      // closure report the op that recorded it plus its position in the
      // execution order.
      const sanitize::OpScope op_scope(n.op_name ? n.op_name : "backward",
                                       static_cast<std::int64_t>(pos));
      n.fn(*n.out);
    }
    if (MFA_FAULT_POINT("tensor.nan_grad") && n.parent_end > n.parent_begin) {
      auto& pg = parents_[n.parent_begin].impl->grad;
      if (!pg.empty()) pg[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (scan_grads)
      for (std::uint32_t p = n.parent_begin; p < n.parent_end; ++p)
        parents_[p].impl->last_grad_writer = static_cast<std::int32_t>(pos);
    // The node is retired: its gradient was fully scattered into the
    // parents, and no later node reads it (reverse topo order), so the
    // buffer goes back to the pool now instead of when the tape retires.
    // Leaves keep their gradient for the optimizer.
    n.out->grad.reset();
  }
  if (scan_grads)
    for (mfa::detail::TensorImpl* leaf : leaves_)
      if (!leaf->grad.empty()) scan_grad_finite(leaf);
}

void Tape::retire() {
  nodes_.clear();
  parents_.clear();
  ++epoch_;
  arena_.end_step();
}

void Tape::execute_backward(
    const std::shared_ptr<mfa::detail::TensorImpl>& root) {
  root->ensure_grad();
  root->grad[0] = 1.0f;
  const bool on_tape =
      root->tape_id >= 0 && root->tape_epoch == epoch_ &&
      static_cast<std::size_t>(root->tape_id) < nodes_.size();
  if (!on_tape) {
    gstats().backwards.fetch_add(1, std::memory_order_relaxed);
    // Leaf root (parameter, detached tensor, or survivor of a retired
    // graph): d(root)/d(root) = 1 and nothing propagates. The recorded
    // graph, if any, stays live for a later backward from a taped root.
    return;
  }
  root_ids_.clear();
  root_ids_.push_back(root->tape_id);
  run_planned();
}

void Tape::execute_backward(
    const std::vector<std::shared_ptr<mfa::detail::TensorImpl>>& roots) {
  root_ids_.clear();
  for (const auto& root : roots) {
    // Seed with += (not =): the pass computes d(sum of roots)/dθ, and a
    // root listed twice contributes twice, matching the sum semantics.
    root->ensure_grad();
    root->grad[0] += 1.0f;
    const bool on_tape =
        root->tape_id >= 0 && root->tape_epoch == epoch_ &&
        static_cast<std::size_t>(root->tape_id) < nodes_.size();
    if (on_tape) root_ids_.push_back(root->tape_id);
  }
  if (root_ids_.empty()) {
    // Every root is a leaf: each got its seed, nothing propagates, and the
    // recorded graph (if any) stays live — same contract as the single-root
    // leaf case.
    gstats().backwards.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  run_planned();
}

void Tape::run_planned() {
  gstats().backwards.fetch_add(1, std::memory_order_relaxed);
  MFA_CHECK(!executing_) << " re-entrant backward()";
  executing_ = true;
  const bool scan_grads = check::finite_grad_checks_enabled();
  try {
    plan_order(root_ids_.data(), root_ids_.size());
    last_plan_ = TapePlanStats{};
    last_plan_.nodes = static_cast<std::int64_t>(order_.size());
    run_seq(scan_grads);
  } catch (...) {
    // Retire even on failure: closures up to the fault already scattered
    // partial gradients, the rest never will — the graph is unusable, and a
    // later forward must start from a clean tape (the FiniteGradGuard
    // recovery path in tests/test_check.cpp depends on this).
    executing_ = false;
    retire();
    throw;
  }
  executing_ = false;
  retire();
}

}  // namespace mfa::tensor
