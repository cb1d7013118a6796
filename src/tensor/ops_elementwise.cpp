#include <cmath>
#include <stdexcept>

#include "common/check.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "tensor/ops.h"

namespace mfa::ops {
namespace {

// Same-shape elementwise loops go parallel only past this many elements:
// below it the loop is cheaper than a pool hand-off. Broadcast paths stay
// sequential — their gradient scatter writes overlap across output indices.
constexpr std::int64_t kElemwiseGrain = 1 << 15;

// Broadcast plan: output shape plus per-input element strides aligned to the
// output rank (stride 0 on broadcast dimensions). Walking the output with an
// odometer then yields the matching input offsets without div/mod.
struct Bcast {
  Shape out;
  std::vector<std::int64_t> astride;
  std::vector<std::int64_t> bstride;
  std::int64_t numel = 0;
  bool same_shape = false;
};

std::vector<std::int64_t> contiguous_strides(const Shape& s) {
  std::vector<std::int64_t> st(s.size(), 1);
  for (auto d = static_cast<std::int64_t>(s.size()) - 2; d >= 0; --d)
    st[static_cast<size_t>(d)] =
        st[static_cast<size_t>(d) + 1] * s[static_cast<size_t>(d) + 1];
  return st;
}

Bcast make_bcast(const Shape& a, const Shape& b) {
  Bcast bc;
  bc.same_shape = (a == b);
  const size_t nd = std::max(a.size(), b.size());
  bc.out.resize(nd);
  bc.astride.assign(nd, 0);
  bc.bstride.assign(nd, 0);
  const auto ast = contiguous_strides(a);
  const auto bst = contiguous_strides(b);
  for (size_t d = 0; d < nd; ++d) {
    // Align trailing dims.
    const std::int64_t ad =
        d >= nd - a.size() ? a[d - (nd - a.size())] : 1;
    const std::int64_t bd =
        d >= nd - b.size() ? b[d - (nd - b.size())] : 1;
    MFA_CHECK(ad == bd || ad == 1 || bd == 1)
        << " broadcast mismatch: " << shape_str(a) << " vs " << shape_str(b);
    bc.out[d] = std::max(ad, bd);
    if (ad != 1 && d >= nd - a.size()) bc.astride[d] = ast[d - (nd - a.size())];
    if (bd != 1 && d >= nd - b.size()) bc.bstride[d] = bst[d - (nd - b.size())];
  }
  bc.numel = shape_numel(bc.out);
  return bc;
}

/// Calls f(out_flat, a_off, b_off) for every output element.
template <typename F>
void bcast_walk(const Bcast& bc, F&& f) {
  const auto nd = static_cast<std::int64_t>(bc.out.size());
  if (nd == 0) {
    f(0, 0, 0);
    return;
  }
  std::vector<std::int64_t> idx(static_cast<size_t>(nd), 0);
  std::int64_t aoff = 0, boff = 0;
  for (std::int64_t i = 0; i < bc.numel; ++i) {
    f(i, aoff, boff);
    for (std::int64_t d = nd - 1; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      ++idx[du];
      aoff += bc.astride[du];
      boff += bc.bstride[du];
      if (idx[du] < bc.out[du]) break;
      aoff -= bc.astride[du] * bc.out[du];
      boff -= bc.bstride[du] * bc.out[du];
      idx[du] = 0;
    }
  }
}

/// Generic broadcasting binary op. FwdFn: (a,b)->out. The gradient callbacks
/// give d(out)/d(a) and d(out)/d(b) as functions of the input values. `name`
/// must have static storage duration (string literal): it is stamped into
/// the result's tape node for mfa::sanitize violation reports.
template <typename FwdFn, typename DaFn, typename DbFn>
Tensor binary_op(const char* name, const Tensor& a, const Tensor& b, FwdFn fwd,
                 DaFn dfa, DbFn dfb) {
  const sanitize::OpScope op_scope(name);
  MFA_CHECK(a.defined() && b.defined())
      << " binary op on an undefined tensor";
  const Bcast bc = make_bcast(a.shape(), b.shape());
  Tensor out = Tensor::make_result(
      bc.out, {a, b}, [a, b, bc, dfa, dfb](detail::TensorImpl& o) {
        auto ai = a.impl();
        auto bi = b.impl();
        const bool need_a = ai->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_a) ai->ensure_grad();
        if (need_b) bi->ensure_grad();
        const float* av = ai->data.data();
        const float* bv = bi->data.data();
        const float* go = o.grad.data();
        float* ga = need_a ? ai->grad.data() : nullptr;
        float* gb = need_b ? bi->grad.data() : nullptr;
        if (bc.same_shape) {
          parallel_for(
              bc.numel,
              [&](std::int64_t i0, std::int64_t i1) {
                if (need_a) sanitize::note_parallel_write(ga, i0, i1);
                if (need_b) sanitize::note_parallel_write(gb, i0, i1);
                for (std::int64_t i = i0; i < i1; ++i) {
                  if (need_a) ga[i] += go[i] * dfa(av[i], bv[i]);
                  if (need_b) gb[i] += go[i] * dfb(av[i], bv[i]);
                }
              },
              kElemwiseGrain);
        } else {
          bcast_walk(bc, [&](std::int64_t i, std::int64_t ao, std::int64_t bo) {
            if (need_a) ga[ao] += go[i] * dfa(av[ao], bv[bo]);
            if (need_b) gb[bo] += go[i] * dfb(av[ao], bv[bo]);
          });
        }
      });
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  if (bc.same_shape) {
    parallel_for(
        bc.numel,
        [&](std::int64_t i0, std::int64_t i1) {
          sanitize::note_parallel_write(ov, i0, i1);
          for (std::int64_t i = i0; i < i1; ++i) ov[i] = fwd(av[i], bv[i]);
        },
        kElemwiseGrain);
  } else {
    bcast_walk(bc, [&](std::int64_t i, std::int64_t ao, std::int64_t bo) {
      ov[i] = fwd(av[ao], bv[bo]);
    });
  }
  return out;
}

/// Generic unary op. DFn gives d(out)/d(in) as a function of (in, out).
template <typename FwdFn, typename DFn>
Tensor unary_op(const char* name, const Tensor& a, FwdFn fwd, DFn dfn) {
  const sanitize::OpScope op_scope(name);
  MFA_CHECK(a.defined()) << " unary op on an undefined tensor";
  Tensor out = Tensor::make_result(
      a.shape(), {a}, [a, dfn](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* av = ai->data.data();
        const float* ov = o.data.data();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        parallel_for(
            static_cast<std::int64_t>(o.data.size()),
            [&](std::int64_t i0, std::int64_t i1) {
              sanitize::note_parallel_write(ga, i0, i1);
              for (std::int64_t i = i0; i < i1; ++i)
                ga[i] += go[i] * dfn(av[i], ov[i]);
            },
            kElemwiseGrain);
      });
  const float* av = a.data();
  float* ov = out.data();
  parallel_for(
      a.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        sanitize::note_parallel_write(ov, i0, i1);
        for (std::int64_t i = i0; i < i1; ++i) ov[i] = fwd(av[i]);
      },
      kElemwiseGrain);
  return out;
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      "div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      "add_scalar", a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(
      "mul_scalar", a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor pow_scalar(const Tensor& a, float p) {
  return unary_op(
      "pow_scalar", a, [p](float x) { return std::pow(x, p); },
      [p](float x, float) { return p * std::pow(x, p - 1.0f); });
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }

Tensor exp(const Tensor& a) {
  return unary_op(
      "exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor log(const Tensor& a) {
  return unary_op(
      "log", a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor sqrt(const Tensor& a) {
  return unary_op(
      "sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor relu(const Tensor& a) {
  return unary_op(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor leaky_relu(const Tensor& a, float slope) {
  return unary_op(
      "leaky_relu", a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      "sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor tanh(const Tensor& a) {
  return unary_op(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor gelu(const Tensor& a) {
  return unary_op(
      "gelu", a,
      [](float x) {
        return 0.5f * x * (1.0f + std::tanh(kGeluC * (x + 0.044715f * x * x * x)));
      },
      [](float x, float) {
        const float u = kGeluC * (x + 0.044715f * x * x * x);
        const float t = std::tanh(u);
        const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
      });
}

Tensor clamp_min(const Tensor& a, float lo) {
  return unary_op(
      "clamp_min", a, [lo](float x) { return x > lo ? x : lo; },
      [lo](float x, float) { return x > lo ? 1.0f : 0.0f; });
}

}  // namespace mfa::ops
