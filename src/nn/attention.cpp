#include "nn/attention.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace mfa::nn {

using namespace mfa::ops;

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t dim,
                                               std::int64_t heads, Rng& rng)
    : dim_(dim), heads_(heads), head_dim_(dim / heads) {
  if (dim % heads != 0)
    throw std::invalid_argument("MSA: dim must be divisible by heads");
  qkv_ = register_module("qkv", std::make_shared<Linear>(dim, 3 * dim, rng));
  proj_ = register_module("proj", std::make_shared<Linear>(dim, dim, rng));
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  MFA_CHECK(x.defined() && x.dim() == 3)
      << " MSA expects a defined [N, L, D] input";
  MFA_CHECK_EQ(x.size(2), dim_)
      << " MSA: embedding dim of " << shape_str(x.shape())
      << " does not match the layer";
  const std::int64_t N = x.size(0);
  const std::int64_t L = x.size(1);
  Tensor qkv = qkv_->forward(x);  // [N, L, 3D]
  // Split into q/k/v and reorganise to [N*H, L, Dh].
  auto split_heads = [&](std::int64_t part) {
    Tensor t = narrow(qkv, 2, part * dim_, dim_);            // [N, L, D]
    t = reshape(t, {N, L, heads_, head_dim_});               // [N, L, H, Dh]
    t = permute(t, {0, 2, 1, 3});                            // [N, H, L, Dh]
    return reshape(t, {N * heads_, L, head_dim_});           // [N*H, L, Dh]
  };
  Tensor q = split_heads(0);
  Tensor k = split_heads(1);
  Tensor v = split_heads(2);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Tensor scores = matmul_nt(q, k) * scale;             // [N*H, L, L]
  Tensor attn = softmax(scores, 2);
  Tensor out = matmul(attn, v);                        // [N*H, L, Dh]
  out = reshape(out, {N, heads_, L, head_dim_});
  out = permute(out, {0, 2, 1, 3});  // [N, L, H, Dh]
  out = reshape(out, {N, L, dim_});
  return proj_->forward(out);
}

TransformerEncoderLayer::TransformerEncoderLayer(std::int64_t dim,
                                                 std::int64_t heads,
                                                 std::int64_t mlp_hidden,
                                                 Rng& rng) {
  ln1_ = register_module("ln1", std::make_shared<LayerNorm>(dim));
  msa_ = register_module("msa",
                         std::make_shared<MultiHeadSelfAttention>(dim, heads, rng));
  ln2_ = register_module("ln2", std::make_shared<LayerNorm>(dim));
  fc1_ = register_module("fc1", std::make_shared<Linear>(dim, mlp_hidden, rng));
  fc2_ = register_module("fc2", std::make_shared<Linear>(mlp_hidden, dim, rng));
}

Tensor TransformerEncoderLayer::forward(const Tensor& x) {
  Tensor a = add(msa_->forward(ln1_->forward(x)), x);          // Eq. 8
  Tensor m = fc2_->forward(gelu(fc1_->forward(ln2_->forward(a))));
  return add(m, a);                                            // Eq. 10
}

}  // namespace mfa::nn
