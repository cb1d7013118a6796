#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "tensor/ops.h"

namespace mfa::ops {
namespace {

// Decomposes a shape around `dim` into [outer, d, inner] so reductions can be
// expressed as three nested loops over contiguous memory.
struct Split {
  std::int64_t outer = 1;
  std::int64_t d = 1;
  std::int64_t inner = 1;
};

Split split_at(const Tensor& a, std::int64_t& dim) {
  const auto nd = a.dim();
  if (dim < 0) dim += nd;
  MFA_CHECK_BOUNDS(dim, nd) << " reduce dim on " << shape_str(a.shape());
  Split s;
  for (std::int64_t d = 0; d < dim; ++d) s.outer *= a.size(d);
  s.d = a.size(dim);
  for (std::int64_t d = dim + 1; d < nd; ++d) s.inner *= a.size(d);
  return s;
}

Shape reduced_shape(const Tensor& a, std::int64_t dim, bool keepdim) {
  Shape out = a.shape();
  if (keepdim) {
    out[static_cast<size_t>(dim)] = 1;
  } else {
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(dim));
    if (out.empty()) out = {1};
  }
  return out;
}

}  // namespace

Tensor sum(const Tensor& a) {
  Tensor out = Tensor::make_result({1}, {a}, [a](detail::TensorImpl& o) {
    auto ai = a.impl();
    if (!ai->requires_grad) return;
    ai->ensure_grad();
    const float g = o.grad[0];
    for (auto& v : ai->grad) v += g;
  });
  double acc = 0.0;
  const float* av = a.data();
  const auto n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += av[i];
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor mean(const Tensor& a) {
  return mul_scalar(sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const Split sp = split_at(a, dim);
  Tensor out = Tensor::make_result(
      reduced_shape(a, dim, keepdim), {a}, [a, sp](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t r = 0; r < sp.outer; ++r)
          for (std::int64_t j = 0; j < sp.d; ++j)
            for (std::int64_t k = 0; k < sp.inner; ++k)
              ga[(r * sp.d + j) * sp.inner + k] += go[r * sp.inner + k];
      });
  const float* av = a.data();
  float* ov = out.data();
  std::fill(ov, ov + out.numel(), 0.0f);
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t j = 0; j < sp.d; ++j)
      for (std::int64_t k = 0; k < sp.inner; ++k)
        ov[r * sp.inner + k] += av[(r * sp.d + j) * sp.inner + k];
  return out;
}

Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const auto nd = a.dim();
  const std::int64_t d = dim < 0 ? dim + nd : dim;
  return mul_scalar(sum_dim(a, dim, keepdim),
                    1.0f / static_cast<float>(a.size(d)));
}

Tensor max_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const Split sp = split_at(a, dim);
  // Record argmax positions for the backward scatter.
  auto arg = std::make_shared<std::vector<std::int64_t>>(
      static_cast<size_t>(sp.outer * sp.inner));
  Tensor out = Tensor::make_result(
      reduced_shape(a, dim, keepdim), {a}, [a, sp, arg](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t r = 0; r < sp.outer; ++r)
          for (std::int64_t k = 0; k < sp.inner; ++k) {
            const std::int64_t j = (*arg)[static_cast<size_t>(r * sp.inner + k)];
            ga[(r * sp.d + j) * sp.inner + k] += go[r * sp.inner + k];
          }
      });
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t k = 0; k < sp.inner; ++k) {
      float best = -std::numeric_limits<float>::infinity();
      std::int64_t bj = 0;
      for (std::int64_t j = 0; j < sp.d; ++j) {
        const float v = av[(r * sp.d + j) * sp.inner + k];
        if (v > best) {
          best = v;
          bj = j;
        }
      }
      ov[r * sp.inner + k] = best;
      (*arg)[static_cast<size_t>(r * sp.inner + k)] = bj;
    }
  return out;
}

std::vector<std::int64_t> argmax_dim(const Tensor& a, std::int64_t dim) {
  const Split sp = split_at(a, dim);
  std::vector<std::int64_t> out(static_cast<size_t>(sp.outer * sp.inner));
  const float* av = a.data();
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t k = 0; k < sp.inner; ++k) {
      float best = -std::numeric_limits<float>::infinity();
      std::int64_t bj = 0;
      for (std::int64_t j = 0; j < sp.d; ++j) {
        const float v = av[(r * sp.d + j) * sp.inner + k];
        if (v > best) {
          best = v;
          bj = j;
        }
      }
      out[static_cast<size_t>(r * sp.inner + k)] = bj;
    }
  return out;
}

// ---- softmax family ------------------------------------------------------
//
// A row is the d entries along the normalised dim, at stride `inner`. Rows
// run in parallel, one outer slice (d * inner floats: `inner` interleaved
// rows, or one contiguous row when inner == 1) per work unit, so a chunk
// writes one contiguous range. Each row keeps a fixed j-ascending reduction
// order, so results are bit-identical for any MFA_THREADS.
namespace {

// Floats per parallel chunk: enough exp/log work to amortise a pool hand-off.
constexpr std::int64_t kSoftmaxChunkFloats = std::int64_t{1} << 14;

using Contiguous = std::integral_constant<std::int64_t, 1>;

/// Calls row(base, stride) for every row of `sp`; element j of the row sits
/// at base + j * stride. `written` is the buffer the rows write (declared to
/// the race checker per chunk). inner == 1 passes a compile-time unit stride.
template <typename Row>
void for_each_row(const Split& sp, const float* written, Row&& row) {
  const std::int64_t slice = sp.d * sp.inner;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kSoftmaxChunkFloats / std::max<std::int64_t>(1, slice));
  parallel_for(
      sp.outer,
      [&](std::int64_t r0, std::int64_t r1) {
        sanitize::note_parallel_write(written, r0 * slice, r1 * slice);
        for (std::int64_t r = r0; r < r1; ++r) {
          if (sp.inner == 1) {
            row(r * slice, Contiguous{});
          } else {
            for (std::int64_t k = 0; k < sp.inner; ++k)
              row(r * slice + k, sp.inner);
          }
        }
      },
      grain);
}

template <typename Stride>
float row_max(const float* v, std::int64_t base, Stride st, std::int64_t d) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t j = 0; j < d; ++j) mx = std::max(mx, v[base + j * st]);
  return mx;
}

}  // namespace

Tensor softmax(const Tensor& a, std::int64_t dim) {
  const Split sp = split_at(a, dim);
  // Fused kernel: softmax backward is y * (g - sum(g*y)).
  Tensor out = Tensor::make_result(
      a.shape(), {a}, [a, sp](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* y = o.data.data();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        const std::int64_t d = sp.d;
        for_each_row(sp, ga, [&](std::int64_t base, auto st) {
          double dot = 0.0;
          for (std::int64_t j = 0; j < d; ++j) {
            const auto ix = base + j * st;
            dot += static_cast<double>(go[ix]) * y[ix];
          }
          for (std::int64_t j = 0; j < d; ++j) {
            const auto ix = base + j * st;
            ga[ix] += y[ix] * (go[ix] - static_cast<float>(dot));
          }
        });
      });
  const float* av = a.data();
  float* ov = out.data();
  const std::int64_t d = sp.d;
  for_each_row(sp, ov, [&](std::int64_t base, auto st) {
    const float mx = row_max(av, base, st, d);
    double z = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      const auto ix = base + j * st;
      ov[ix] = std::exp(av[ix] - mx);
      z += ov[ix];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (std::int64_t j = 0; j < d; ++j) ov[base + j * st] *= inv;
  });
  return out;
}

Tensor log_softmax(const Tensor& a, std::int64_t dim) {
  const Split sp = split_at(a, dim);
  // Backward: ga += g - exp(y) * sum(g).
  Tensor out = Tensor::make_result(
      a.shape(), {a}, [a, sp](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* y = o.data.data();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        const std::int64_t d = sp.d;
        for_each_row(sp, ga, [&](std::int64_t base, auto st) {
          double gs = 0.0;
          for (std::int64_t j = 0; j < d; ++j) gs += go[base + j * st];
          for (std::int64_t j = 0; j < d; ++j) {
            const auto ix = base + j * st;
            ga[ix] += go[ix] - std::exp(y[ix]) * static_cast<float>(gs);
          }
        });
      });
  const float* av = a.data();
  float* ov = out.data();
  const std::int64_t d = sp.d;
  for_each_row(sp, ov, [&](std::int64_t base, auto st) {
    const float mx = row_max(av, base, st, d);
    double z = 0.0;
    for (std::int64_t j = 0; j < d; ++j) z += std::exp(av[base + j * st] - mx);
    const float lz = mx + static_cast<float>(std::log(z));
    for (std::int64_t j = 0; j < d; ++j) {
      const auto ix = base + j * st;
      ov[ix] = av[ix] - lz;
    }
  });
  return out;
}

}  // namespace mfa::ops
