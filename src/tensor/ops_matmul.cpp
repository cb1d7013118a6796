#include <stdexcept>

#include "common/check.h"
#include "common/log.h"
#include "common/sanitize.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mfa::ops {
namespace {

// C[m,n] += op(A)·op(B) for one operand layout, where op(X) is X or Xᵀ as
// stored row-major: A is [m,k] (or [k,m] when ta), B is [k,n] (or [n,k] when
// tb). The layout picks the kernel; no operand is ever copied to transpose
// it. Both transposed (TT) has no kernel and is rejected by the caller.
void gemm_layout(bool ta, bool tb, const float* A, const float* B, float* C,
                 std::int64_t m, std::int64_t k, std::int64_t n) {
  if (ta)
    kernels::gemm_tn(A, B, C, m, k, n);
  else if (tb)
    kernels::gemm_nt(A, B, C, m, k, n);
  else
    kernels::gemm_nn(A, B, C, m, k, n);
}

}  // namespace

// The one body behind every matmul form: out = op(a)·op(b).
//
// Backward with G = dOut [m,n]:
//   dA = G·op(B)ᵀ, stored [m,k]; or op(B)·Gᵀ, stored [k,m], when ta
//   dB = op(A)ᵀ·G, stored [k,n]; or Gᵀ·op(A), stored [n,k], when tb
// which per layout gives  NN: dA nt, dB tn;  NT: dA nn, dB tn;
// TN: dA nt, dB nn.
Tensor matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const char* name = ta ? "matmul_tn" : tb ? "matmul_nt" : "matmul";
  const sanitize::OpScope op_scope(name);
  MFA_CHECK(!(ta && tb)) << " " << name
                         << ": both operands transposed is not supported";
  const auto ad = a.dim();
  const auto bd = b.dim();
  MFA_CHECK((ad == 2 || ad == 3) && (bd == 2 || bd == 3) && bd <= ad)
      << " " << name << ": unsupported ranks " << shape_str(a.shape())
      << " x " << shape_str(b.shape());
  const std::int64_t batch = ad == 3 ? a.size(0) : 1;
  const std::int64_t m = a.size(ta ? ad - 1 : ad - 2);
  const std::int64_t k = a.size(ta ? ad - 2 : ad - 1);
  const std::int64_t n = b.size(tb ? bd - 2 : bd - 1);
  MFA_CHECK(b.size(tb ? bd - 1 : bd - 2) == k &&
            (bd != 3 || b.size(0) == batch))
      << " " << name << ": shape mismatch " << shape_str(a.shape()) << " x "
      << shape_str(b.shape());
  Shape out_shape = ad == 3 ? Shape{batch, m, n} : Shape{m, n};
  // A 2-D rhs broadcasts over the batch (stride 0).
  const std::int64_t b_stride = bd == 3 ? k * n : 0;

  Tensor out = Tensor::make_result(
      out_shape, {a, b},
      [a, b, ta, tb, batch, m, k, n, b_stride](detail::TensorImpl& o) {
        auto ai = a.impl();
        auto bi = b.impl();
        const float* go = o.grad.data();
        if (ai->requires_grad) {
          ai->ensure_grad();
          float* ga = ai->grad.data();
          const float* bv = bi->data.data();
          for (std::int64_t bt = 0; bt < batch; ++bt) {
            const float* gb = go + bt * m * n;
            const float* bb = bv + bt * b_stride;
            if (ta)
              gemm_layout(tb, true, bb, gb, ga + bt * m * k, k, n, m);
            else
              gemm_layout(false, !tb, gb, bb, ga + bt * m * k, m, n, k);
          }
        }
        if (bi->requires_grad) {
          bi->ensure_grad();
          float* gbv = bi->grad.data();
          const float* av = ai->data.data();
          for (std::int64_t bt = 0; bt < batch; ++bt) {
            const float* gb = go + bt * m * n;
            const float* ab = av + bt * m * k;
            if (tb)
              gemm_layout(true, ta, gb, ab, gbv + bt * b_stride, n, m, k);
            else
              gemm_layout(!ta, false, ab, gb, gbv + bt * b_stride, k, m, n);
          }
        }
      });
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  for (std::int64_t bt = 0; bt < batch; ++bt)
    gemm_layout(ta, tb, av + bt * m * k, bv + bt * b_stride, ov + bt * m * n,
                m, k, n);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul(a, b, false, false);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return matmul(a, b, false, true);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return matmul(a, b, true, false);
}

}  // namespace mfa::ops
