#pragma once
// The Actor-Critic agent (Sec. III-C, Fig. 2, Table I): a shared
// convolutional trunk (Conv+BN+ReLU then a residual tower) feeding
//   * a policy head — 1×1 Conv(→2ch)+BN+ReLU, FC to ζ² logits, softmax
//     masked by the availability map s_a (implemented as a multiplicative
//     mask on the softmax, which equals the paper's "multiply by s_a"), and
//   * a value head — the sequence number t enters as a positional-embedding
//     plane concatenated with s_p and the trunk features, then 1×1
//     Conv(→1ch)+BN+ReLU and a 3-layer MLP producing the scalar v.
//
// The paper's configuration is channels=128, blocks=10 on a 16×16 grid; both
// are configurable (CPU benches use a smaller tower — see EXPERIMENTS.md).

#include <memory>
#include <vector>

#include "nn/functional.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"

namespace mp::rl {

struct AgentConfig {
  int grid_dim = 16;   ///< ζ
  int channels = 128;  ///< residual tower width
  int res_blocks = 10; ///< residual tower depth
  std::uint64_t seed = 1;
};

struct AgentOutput {
  nn::Tensor probs;  ///< ζ² action probabilities (masked, normalized)
  float value = 0.0f;
};

class AgentNetwork {
 public:
  explicit AgentNetwork(const AgentConfig& config);

  const AgentConfig& config() const { return config_; }

  /// Forward pass.  `sp` is the flat ζ² utilization map (s_p), `availability`
  /// the ζ² mask (s_a), `t` the 0-based step and `total_steps` the episode
  /// length (for embedding normalization).  With train=true, BN uses batch
  /// statistics and the intermediates for backward() are cached.
  AgentOutput forward(const std::vector<double>& sp,
                      const std::vector<double>& availability, int t,
                      int total_steps, bool train);

  /// Backward for the most recent forward(train=true): `policy_logit_grad`
  /// is dL/d(policy logits) (ζ², e.g. from nn::policy_gradient) and
  /// `value_grad` is dL/dv.  Parameter gradients accumulate.
  void backward(const nn::Tensor& policy_logit_grad, float value_grad);

  std::vector<nn::Parameter*> parameters();

  /// Deep copy: a fresh network with identical parameter values.  BN running
  /// statistics are Parameters too, so inference on the clone matches the
  /// original exactly.  Forward caches are not copied — the clone is ready
  /// for independent forward() calls (e.g. on a par:: worker).
  std::unique_ptr<AgentNetwork> clone();

  /// Overwrites this network's parameter values with `other`'s.  Both
  /// networks must have been built from the same AgentConfig shape.
  void copy_parameters_from(AgentNetwork& other);

  /// Number of scalar parameters (for reporting).
  std::size_t num_parameters();

 private:
  nn::Tensor make_input_plane(const std::vector<double>& sp) const;

  AgentConfig config_;
  util::Rng rng_;

  // Trunk.
  nn::Conv2d conv1_;
  nn::BatchNorm2d bn1_;
  nn::ReLU relu1_;
  std::vector<std::unique_ptr<nn::ResBlock>> tower_;
  // Policy head.
  nn::Conv2d conv_p_;
  nn::BatchNorm2d bn_p_;
  nn::ReLU relu_p_;
  nn::Linear fc_p_;
  // Value head.
  nn::Conv2d conv_v_;
  nn::BatchNorm2d bn_v_;
  nn::ReLU relu_v_;
  nn::Linear mlp1_, mlp2_, mlp3_;
  nn::ReLU relu_m1_, relu_m2_;

  // Forward caches for backward().
  nn::Tensor trunk_out_;
  int cached_dim_ = 0;
};

}  // namespace mp::rl
