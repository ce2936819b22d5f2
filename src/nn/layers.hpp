#pragma once
// Layers for the Actor-Critic agent networks (Fig. 2 / Table I of the paper):
// Conv2D (+ bias), BatchNorm2d, ReLU, Linear, and the composite ResBlock
// (Conv-BN-ReLU-Conv-BN + skip + ReLU).  Each layer implements an explicit
// forward/backward pair; parameter gradients accumulate in Parameter::grad
// until an Optimizer consumes them, which matches the paper's "update θ
// every 30 episodes" training scheme.
//
// Activations are single samples: [C, H, W] for the 2-D layers, flat vectors
// for Linear.  With batch size 1, BatchNorm normalizes over the spatial
// extent per channel (and keeps running statistics for inference mode).

#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace mp::nn {

struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(std::vector<int> shape)
      : value(shape), grad(std::move(shape)) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; `train` selects batch statistics (BN) and caches the
  /// intermediates backward needs.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backward pass for the most recent forward; returns grad wrt input and
  /// accumulates parameter gradients.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends the layer's parameters (for the optimizer).
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }
};

/// 2-D convolution with square kernel, stride 1 and "same" zero padding.
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }

  /// True while the im2col buffer of the last training forward is retained
  /// (backward needs it; inference forwards must not hold onto it).
  bool holds_col_cache() const { return !col_cache_.empty(); }

 private:
  int in_c_, out_c_, k_;
  Parameter weight_;  ///< [outC, inC * k * k]
  Parameter bias_;    ///< [outC]
  Tensor col_cache_;  ///< im2col of the last input, train forwards only
  int last_h_ = 0, last_w_ = 0;
};

/// Per-channel batch normalization over the spatial extent (sample size 1).
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  int channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  /// Running statistics are Parameters with always-zero gradients so that
  /// snapshot/save/load round-trips capture them (optimizers never move
  /// zero-gradient parameters); forward(train=true) updates them directly.
  Parameter running_mean_, running_var_;
  // Caches for backward.
  Tensor x_hat_;
  std::vector<float> inv_std_;
  int spatial_ = 0;
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::vector<bool> mask_;
};

/// Fully connected layer on flat vectors.
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  int in_features() const { return in_f_; }
  int out_features() const { return out_f_; }

 private:
  int in_f_, out_f_;
  Parameter weight_;  ///< [out, in]
  Parameter bias_;    ///< [out]
  Tensor input_cache_;
};

/// Residual block: Conv3x3-BN-ReLU-Conv3x3-BN, + skip, ReLU (Table I "Main").
class ResBlock : public Layer {
 public:
  ResBlock(int channels, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  Conv2d conv1_, conv2_;
  BatchNorm2d bn1_, bn2_;
  ReLU relu1_, relu_out_;
};

/// Runs layers in order.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  std::size_t size() const { return layers_.size(); }

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace mp::nn
