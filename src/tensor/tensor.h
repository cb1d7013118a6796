// Dense float32 tensor with define-by-run reverse-mode automatic
// differentiation.
//
// Design notes:
//  * Every Tensor owns contiguous row-major storage; shape-changing ops copy.
//    This keeps the aliasing story trivial (no views, no stride arithmetic in
//    kernels) at the cost of some copies that are negligible at the scales
//    this library targets.
//  * Autograd is a dynamic tape: each op that produces a grad-requiring
//    output records a node (backward closure + parent references) on the
//    calling thread's mfa::tensor::Tape (see tensor/tape.h).
//    Tensor::backward() hands execution to the tape: it runs the closures
//    in reverse-topological order on the calling thread, then retires the
//    whole tape in one bulk step. As each non-leaf node retires, its
//    gradient buffer is released back to the storage pool (leaves keep
//    theirs for the optimizer).
//  * All buffers are tensor::Storage handles drawn from the recycling
//    StoragePool (see tensor/storage.h); op intermediates additionally
//    recycle through the tape's arena. Steady-state training and inference
//    loops stop allocating after a warm-up iteration.
//  * GradMode (thread-local) disables tape construction for inference.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/storage.h"

namespace mfa {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape.
std::int64_t shape_numel(const Shape& shape);
/// Human-readable "[2, 3, 4]".
std::string shape_str(const Shape& shape);

namespace detail {

struct TensorImpl {
  Shape shape;
  tensor::Storage data;
  tensor::Storage grad;  // lazily acquired from the pool, same length as data
  bool requires_grad = false;
  // Tape linkage: the node id this impl's producing op recorded on the
  // calling thread's Tape, valid only while tape_epoch matches the tape's
  // current epoch (backward() retires the whole tape and bumps the epoch).
  // -1 / stale epoch means leaf: parameters, inputs, detached tensors, and
  // survivors of an already-retired graph.
  std::int32_t tape_id = -1;
  std::uint64_t tape_epoch = 0;
  // Finite-grad scan scratch owned by the tape (see tensor/tape.h): a stamp
  // that deduplicates leaves without a per-call set, and the tape node that
  // last scattered into this gradient.
  std::uint64_t plan_stamp = 0;
  std::int32_t last_grad_writer = -1;
  void ensure_grad() {
    if (grad.size() != data.size())
      grad.assign(static_cast<std::int64_t>(data.size()), 0.0f);
  }
};

}  // namespace detail

/// RAII guard and query point for autograd recording.
struct GradMode {
  static bool enabled();
  static void set_enabled(bool on);
};

/// Disables autograd recording within a scope (inference / label generation).
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(false); }
  ~NoGradGuard() { GradMode::set_enabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

class Tensor {
 public:
  /// Default-constructed tensors are empty (defined() == false).
  Tensor() = default;

  // ---- factories ----
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor ones(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_data(Shape shape, std::vector<float> data,
                          bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// i.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// i.i.d. U[lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi,
                        bool requires_grad = false);

  // ---- structure ----
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  std::int64_t dim() const;
  std::int64_t size(std::int64_t d) const;  // supports negative d
  std::int64_t numel() const;

  // ---- data access ----
  float* data();
  const float* data() const;
  /// Value of a 0-d / 1-element tensor.
  float item() const;
  /// Multi-dimensional element access (bounds-checked); for tests and glue
  /// code, not kernels.
  float at(std::initializer_list<std::int64_t> idx) const;
  void set(std::initializer_list<std::int64_t> idx, float v);
  /// Copies the contents into a std::vector.
  std::vector<float> to_vector() const;

  // ---- autograd ----
  bool requires_grad() const;
  Tensor& set_requires_grad(bool on);
  /// Gradient accumulated by the last backward(); zeros if never touched.
  Tensor grad() const;
  void zero_grad();
  /// Runs reverse-mode AD from this (scalar) tensor.
  void backward();
  /// Runs reverse-mode AD from several scalar roots in one pass, computing
  /// the gradient of their SUM over the union of their subgraphs (two-head
  /// training: main loss + auxiliary head). All roots must live on the
  /// calling thread's tape; the whole tape retires afterwards, exactly like
  /// backward(). Duplicate roots accumulate; leaf roots just receive their
  /// seed gradient.
  static void backward_multi(const std::vector<Tensor>& roots);
  /// Same data, detached from the tape.
  Tensor detach() const;
  /// Deep copy (data only, leaf).
  Tensor clone() const;

  // ---- in-place (leaf-only helpers for optimizers; never taped) ----
  void add_(const Tensor& other, float alpha = 1.0f);
  void mul_(float s);
  void fill_(float v);
  void copy_from(const Tensor& src);

  // ---- internals shared by the op kernels ----
  std::shared_ptr<detail::TensorImpl> impl() const { return impl_; }
  static Tensor wrap(std::shared_ptr<detail::TensorImpl> impl);
  /// Creates the result tensor of an op, recording a tape node when autograd
  /// is active. `backward` may be null for non-differentiable ops.
  static Tensor make_result(Shape shape, std::vector<Tensor> inputs,
                            std::function<void(detail::TensorImpl&)> backward);

 private:
  explicit Tensor(std::shared_ptr<detail::TensorImpl> impl)
      : impl_(std::move(impl)) {}
  std::shared_ptr<detail::TensorImpl> impl_;
};

}  // namespace mfa
