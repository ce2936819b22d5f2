#include "nn/layers.hpp"

#include <cmath>

#include "nn/kernels.hpp"

// Like kernels.cpp, this file is compiled with -ffp-contract=off (see
// CMakeLists.txt): every multiply and add in the loops below rounds on its
// own, so whether the compiler vectorizes a loop (and how it splits it into
// a vector body and a scalar tail) cannot change a layer's output bits.

namespace mp::nn {

// ---------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, util::Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}) {
  weight_.value.init_he(rng, in_channels * kernel * kernel);
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  const int h = input.dim(1);
  const int w = input.dim(2);
  last_h_ = h;
  last_w_ = w;
  const int patch = in_c_ * k_ * k_;
  const std::size_t hw = static_cast<std::size_t>(h) * w;

  // im2col: col[patch, h*w].  Only training forwards park the buffer in
  // col_cache_ (backward consumes it); inference forwards use a local that
  // dies on return, so idle layers don't pin the im2col of their last input.
  Tensor col_local;
  Tensor& col = train ? col_cache_ : col_local;
  col = Tensor({patch, h * w});
  if (!train) col_cache_ = Tensor();
  im2col(input.data(), in_c_, h, w, k_, col.data());

  Tensor output({out_c_, h, w});
  // output[outC, h*w] = weight[outC, patch] * col[patch, h*w]
  gemm_acc(weight_.value.data(), col.data(), output.data(), out_c_, patch,
           h * w);
  for (int oc = 0; oc < out_c_; ++oc) {
    const float b = bias_.value[static_cast<std::size_t>(oc)];
    float* plane = output.data() + static_cast<std::size_t>(oc) * hw;
    for (int i = 0; i < h * w; ++i) plane[i] += b;
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const int h = last_h_;
  const int w = last_w_;
  const int pad = k_ / 2;
  const int patch = in_c_ * k_ * k_;

  // grad_weight += grad_out[outC, h*w] * col^T[h*w, patch]
  gemm_bt_acc(grad_output.data(), col_cache_.data(), weight_.grad.data(),
              out_c_, h * w, patch);
  // grad_bias
  for (int oc = 0; oc < out_c_; ++oc) {
    const float* plane = grad_output.data() + static_cast<std::size_t>(oc) * h * w;
    float sum = 0.0f;
    for (int i = 0; i < h * w; ++i) sum += plane[i];
    bias_.grad[static_cast<std::size_t>(oc)] += sum;
  }
  // grad_col[patch, h*w] = weight^T[patch, outC] * grad_out[outC, h*w]
  Tensor grad_col({patch, h * w});
  gemm_at_acc(weight_.value.data(), grad_output.data(), grad_col.data(),
              patch, out_c_, h * w);
  // col2im.
  Tensor grad_input({in_c_, h, w});
  const float* gc = grad_col.data();
  for (int c = 0; c < in_c_; ++c) {
    for (int ky = 0; ky < k_; ++ky) {
      for (int kx = 0; kx < k_; ++kx) {
        const int row = (c * k_ + ky) * k_ + kx;
        const float* src = gc + static_cast<std::size_t>(row) * h * w;
        for (int y = 0; y < h; ++y) {
          const int sy = y + ky - pad;
          if (sy < 0 || sy >= h) continue;
          for (int x = 0; x < w; ++x) {
            const int sx = x + kx - pad;
            if (sx < 0 || sx >= w) continue;
            grad_input.at(c, sy, sx) += src[static_cast<std::size_t>(y) * w + x];
          }
        }
      }
    }
  }
  return grad_input;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ------------------------------------------------------------ BatchNorm2d ---

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}),
      beta_({channels}),
      running_mean_({channels}),
      running_var_({channels}) {
  gamma_.value.fill(1.0f);
  beta_.value.zero();
  running_mean_.value.zero();
  running_var_.value.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& input, bool train) {
  const int h = input.dim(1);
  const int w = input.dim(2);
  spatial_ = h * w;
  Tensor output({channels_, h, w});
  if (train) {
    x_hat_ = Tensor({channels_, h, w});
    inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
  } else {
    // Inference never runs backward, so don't hold the normalized copy of
    // the last input alive.
    x_hat_ = Tensor();
    inv_std_.clear();
  }

  for (int c = 0; c < channels_; ++c) {
    const float* in = input.data() + static_cast<std::size_t>(c) * spatial_;
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float b = beta_.value[static_cast<std::size_t>(c)];
    float* out = output.data() + static_cast<std::size_t>(c) * spatial_;
    if (train) {
      float sum = 0.0f;
      for (int i = 0; i < spatial_; ++i) sum += in[i];
      const float mean = sum / static_cast<float>(spatial_);
      float sq = 0.0f;
      for (int i = 0; i < spatial_; ++i) {
        const float d = in[i] - mean;
        sq += d * d;
      }
      const float var = sq / static_cast<float>(spatial_);
      running_mean_.value[static_cast<std::size_t>(c)] =
          (1.0f - momentum_) * running_mean_.value[static_cast<std::size_t>(c)] +
          momentum_ * mean;
      running_var_.value[static_cast<std::size_t>(c)] =
          (1.0f - momentum_) * running_var_.value[static_cast<std::size_t>(c)] +
          momentum_ * var;
      const float inv = 1.0f / std::sqrt(var + eps_);
      inv_std_[static_cast<std::size_t>(c)] = inv;
      float* xh = x_hat_.data() + static_cast<std::size_t>(c) * spatial_;
      for (int i = 0; i < spatial_; ++i) {
        xh[i] = (in[i] - mean) * inv;
        out[i] = g * xh[i] + b;
      }
    } else {
      const float mean = running_mean_.value[static_cast<std::size_t>(c)];
      const float var = running_var_.value[static_cast<std::size_t>(c)];
      const float inv = 1.0f / std::sqrt(var + eps_);
      for (int i = 0; i < spatial_; ++i) {
        const float xh = (in[i] - mean) * inv;
        out[i] = g * xh + b;
      }
    }
  }
  return output;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  Tensor grad_input({channels_, grad_output.dim(1), grad_output.dim(2)});
  const float n = static_cast<float>(spatial_);
  for (int c = 0; c < channels_; ++c) {
    const float* go = grad_output.data() + static_cast<std::size_t>(c) * spatial_;
    const float* xh = x_hat_.data() + static_cast<std::size_t>(c) * spatial_;
    float* gi = grad_input.data() + static_cast<std::size_t>(c) * spatial_;
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float inv = inv_std_[static_cast<std::size_t>(c)];

    float sum_go = 0.0f, sum_go_xh = 0.0f;
    for (int i = 0; i < spatial_; ++i) {
      sum_go += go[i];
      sum_go_xh += go[i] * xh[i];
    }
    gamma_.grad[static_cast<std::size_t>(c)] += sum_go_xh;
    beta_.grad[static_cast<std::size_t>(c)] += sum_go;

    // Standard BN backward over the normalization axis.
    const float k1 = g * inv / n;
    for (int i = 0; i < spatial_; ++i) {
      gi[i] = k1 * (n * go[i] - sum_go - xh[i] * sum_go_xh);
    }
  }
  return grad_input;
}

void BatchNorm2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

// ------------------------------------------------------------------ ReLU ---

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor output = input;
  if (train) {
    mask_.assign(input.size(), false);
    for (std::size_t i = 0; i < output.size(); ++i) {
      if (output[i] > 0.0f) {
        mask_[i] = true;
      } else {
        output[i] = 0.0f;
      }
    }
  } else {
    mask_.clear();
    for (std::size_t i = 0; i < output.size(); ++i) {
      if (!(output[i] > 0.0f)) output[i] = 0.0f;
    }
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    if (!mask_[i]) grad_input[i] = 0.0f;
  }
  return grad_input;
}

// ---------------------------------------------------------------- Linear ---

Linear::Linear(int in_features, int out_features, util::Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  weight_.value.init_he(rng, in_features);
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& input, bool train) {
  if (train) {
    input_cache_ = input;
  } else {
    input_cache_ = Tensor();
  }
  Tensor output({out_f_});
  const float* w = weight_.value.data();
  const float* x = input.data();
  for (int o = 0; o < out_f_; ++o) {
    const float* row = w + static_cast<std::size_t>(o) * in_f_;
    float sum = bias_.value[static_cast<std::size_t>(o)];
    for (int i = 0; i < in_f_; ++i) sum += row[i] * x[i];
    output[static_cast<std::size_t>(o)] = sum;
  }
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  const float* go = grad_output.data();
  const float* x = input_cache_.data();
  float* gw = weight_.grad.data();
  for (int o = 0; o < out_f_; ++o) {
    const float g = go[o];
    bias_.grad[static_cast<std::size_t>(o)] += g;
    if (g == 0.0f) continue;
    float* row = gw + static_cast<std::size_t>(o) * in_f_;
    for (int i = 0; i < in_f_; ++i) row[i] += g * x[i];
  }
  Tensor grad_input({in_f_});
  const float* w = weight_.value.data();
  for (int o = 0; o < out_f_; ++o) {
    const float g = go[o];
    if (g == 0.0f) continue;
    const float* row = w + static_cast<std::size_t>(o) * in_f_;
    for (int i = 0; i < in_f_; ++i) grad_input[static_cast<std::size_t>(i)] += g * row[i];
  }
  return grad_input;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// -------------------------------------------------------------- ResBlock ---

ResBlock::ResBlock(int channels, util::Rng& rng)
    : conv1_(channels, channels, 3, rng),
      conv2_(channels, channels, 3, rng),
      bn1_(channels),
      bn2_(channels) {}

Tensor ResBlock::forward(const Tensor& input, bool train) {
  Tensor h = conv1_.forward(input, train);
  h = bn1_.forward(h, train);
  h = relu1_.forward(h, train);
  h = conv2_.forward(h, train);
  h = bn2_.forward(h, train);
  h.add(input);  // skip connection
  return relu_out_.forward(h, train);
}

Tensor ResBlock::backward(const Tensor& grad_output) {
  Tensor g = relu_out_.backward(grad_output);
  const Tensor skip_grad = g;  // gradient flowing through the identity path
  g = bn2_.backward(g);
  g = conv2_.backward(g);
  g = relu1_.backward(g);
  g = bn1_.backward(g);
  g = conv1_.backward(g);
  g.add(skip_grad);
  return g;
}

void ResBlock::collect_parameters(std::vector<Parameter*>& out) {
  conv1_.collect_parameters(out);
  bn1_.collect_parameters(out);
  conv2_.collect_parameters(out);
  bn2_.collect_parameters(out);
}

// ------------------------------------------------------------ Sequential ---

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& layer : layers_) layer->collect_parameters(out);
}

}  // namespace mp::nn
