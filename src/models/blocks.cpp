#include "models/blocks.h"

#include <algorithm>
#include <cmath>

namespace mfa::models {

using namespace mfa::ops;
using nn::BatchNorm2d;
using nn::Conv2d;

ConvBnRelu::ConvBnRelu(std::int64_t in, std::int64_t out, Rng& rng,
                       std::int64_t stride) {
  conv_ = register_module(
      "conv", std::make_shared<Conv2d>(in, out, 3, rng, stride, 1, false));
  bn_ = register_module("bn", std::make_shared<BatchNorm2d>(out));
}

Tensor ConvBnRelu::forward(const Tensor& x) {
  return relu(bn_->forward(conv_->forward(x)));
}

ResBlockDown::ResBlockDown(std::int64_t in, std::int64_t out, Rng& rng) {
  conv1_ = register_module(
      "conv1", std::make_shared<Conv2d>(in, out, 3, rng, 2, 1, false));
  bn1_ = register_module("bn1", std::make_shared<BatchNorm2d>(out));
  conv2_ = register_module(
      "conv2", std::make_shared<Conv2d>(out, out, 3, rng, 1, 1, false));
  bn2_ = register_module("bn2", std::make_shared<BatchNorm2d>(out));
  skip_ = register_module(
      "skip", std::make_shared<Conv2d>(in, out, 1, rng, 2, 0, false));
  bn_skip_ = register_module("bn_skip", std::make_shared<BatchNorm2d>(out));
}

Tensor ResBlockDown::forward(const Tensor& x) {
  Tensor main = bn2_->forward(
      conv2_->forward(relu(bn1_->forward(conv1_->forward(x)))));
  Tensor shortcut = bn_skip_->forward(skip_->forward(x));
  return relu(add(main, shortcut));
}

MfaBlock::MfaBlock(std::int64_t channels, Rng& rng,
                   std::int64_t reduction_floor) {
  // Paper: reduce channels by 1/16 for the attention branches; the floor
  // keeps a minimum width at library-scale channel counts.
  reduced_ = std::max<std::int64_t>(reduction_floor, channels / 16);
  reduce_pam_ = register_module(
      "reduce_pam",
      std::make_shared<Conv2d>(channels, reduced_, 1, rng, 1, 0, false));
  bn_pam_ = register_module("bn_pam", std::make_shared<BatchNorm2d>(reduced_));
  reduce_cam_ = register_module(
      "reduce_cam",
      std::make_shared<Conv2d>(channels, reduced_, 1, rng, 1, 0, false));
  bn_cam_ = register_module("bn_cam", std::make_shared<BatchNorm2d>(reduced_));
  pam_b_ = register_module(
      "pam_b", std::make_shared<Conv2d>(reduced_, reduced_, 1, rng, 1, 0));
  pam_c_ = register_module(
      "pam_c", std::make_shared<Conv2d>(reduced_, reduced_, 1, rng, 1, 0));
  pam_d_ = register_module(
      "pam_d", std::make_shared<Conv2d>(reduced_, reduced_, 1, rng, 1, 0));
  restore_ = register_module(
      "restore", std::make_shared<Conv2d>(reduced_, channels, 1, rng, 1, 0));
  // Attention gains start at zero so the block begins as a plain bottleneck
  // (as in DANet [14]); training learns how much attention to mix in.
  alpha_ = register_parameter("alpha", Tensor::zeros({1}));
  beta_ = register_parameter("beta", Tensor::zeros({1}));
}

float MfaBlock::alpha() const { return alpha_.data()[0]; }
float MfaBlock::beta() const { return beta_.data()[0]; }

Tensor MfaBlock::forward(const Tensor& x) {
  const std::int64_t N = x.size(0);
  const std::int64_t H = x.size(2);
  const std::int64_t W = x.size(3);
  const std::int64_t L = H * W;

  // ---- position attention branch (Eqs. 4-5) ----
  Tensor tp = relu(bn_pam_->forward(reduce_pam_->forward(x)));
  Tensor b = reshape(pam_b_->forward(tp), {N, reduced_, L});
  Tensor c = reshape(pam_c_->forward(tp), {N, reduced_, L});
  Tensor d = reshape(pam_d_->forward(tp), {N, reduced_, L});
  // P_ji = softmax_i(B_i^T . C_j): scores [N, L, L] with rows softmaxed.
  Tensor scores = matmul_tn(b, c);                  // [N, L, L]
  Tensor p = softmax(scores, 2);
  Tensor pam_attn = matmul_nt(d, p);                // [N, r, L]
  Tensor pam = add(mul(pam_attn, alpha_), reshape(tp, {N, reduced_, L}));

  // ---- channel attention branch (Eqs. 6-7) ----
  Tensor tc = relu(bn_cam_->forward(reduce_cam_->forward(x)));
  Tensor m = reshape(tc, {N, reduced_, L});
  Tensor chan_scores = matmul_nt(m, m);             // [N, r, r]
  Tensor cx = softmax(chan_scores, 2);
  Tensor cam_attn = matmul(cx, m);                  // [N, r, L]
  Tensor cam = add(mul(cam_attn, beta_), m);

  // ---- fuse and restore channels (Fig. 3) ----
  Tensor fused = reshape(add(pam, cam), {N, reduced_, H, W});
  return restore_->forward(fused);
}

PatchTransformer::PatchTransformer(std::int64_t channels,
                                   std::int64_t tokens_h,
                                   std::int64_t tokens_w, std::int64_t dim,
                                   std::int64_t depth, std::int64_t heads,
                                   Rng& rng)
    : dim_(dim), th_(tokens_h), tw_(tokens_w) {
  embed_ = register_module(
      "embed", std::make_shared<Conv2d>(channels, dim, 1, rng, 1, 0));
  unembed_ = register_module(
      "unembed", std::make_shared<Conv2d>(dim, channels, 1, rng, 1, 0));
  pos_ = register_parameter(
      "pos", Tensor::randn({1, tokens_h * tokens_w, dim}, rng, 0.02f));
  for (std::int64_t l = 0; l < depth; ++l) {
    layers_.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<nn::TransformerEncoderLayer>(dim, heads, 4 * dim,
                                                      rng)));
  }
}

Tensor PatchTransformer::forward(const Tensor& x) {
  const std::int64_t N = x.size(0);
  Tensor z = embed_->forward(x);                     // [N, D, th, tw]
  z = reshape(z, {N, dim_, th_ * tw_});
  z = permute(z, {0, 2, 1});                         // [N, L, D] tokens
  z = add(z, pos_);
  for (auto& layer : layers_) z = layer->forward(z);
  z = permute(z, {0, 2, 1});
  z = reshape(z, {N, dim_, th_, tw_});
  return unembed_->forward(z);
}

}  // namespace mfa::models
