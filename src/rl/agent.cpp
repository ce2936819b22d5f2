#include "rl/agent.hpp"

#include <cassert>

namespace mp::rl {

namespace {
// Value-head input channels: trunk features + s_p plane + t plane.
int value_in_channels(int channels) { return channels + 2; }
}  // namespace

AgentNetwork::AgentNetwork(const AgentConfig& config)
    : config_(config),
      rng_(config.seed),
      conv1_(1, config.channels, 3, rng_),
      bn1_(config.channels),
      conv_p_(config.channels, 2, 1, rng_),
      bn_p_(2),
      fc_p_(2 * config.grid_dim * config.grid_dim,
            config.grid_dim * config.grid_dim, rng_),
      conv_v_(value_in_channels(config.channels), 1, 1, rng_),
      bn_v_(1),
      mlp1_(config.grid_dim * config.grid_dim, 16, rng_),
      mlp2_(16, config.grid_dim * config.grid_dim, rng_),
      mlp3_(config.grid_dim * config.grid_dim, 1, rng_) {
  tower_.reserve(static_cast<std::size_t>(config.res_blocks));
  for (int i = 0; i < config.res_blocks; ++i) {
    tower_.push_back(std::make_unique<nn::ResBlock>(config.channels, rng_));
  }
}

nn::Tensor AgentNetwork::make_input_plane(const std::vector<double>& sp) const {
  const int d = config_.grid_dim;
  assert(static_cast<int>(sp.size()) == d * d);
  nn::Tensor input({1, d, d});
  for (std::size_t i = 0; i < sp.size(); ++i) {
    input[i] = static_cast<float>(sp[i]);
  }
  return input;
}

AgentOutput AgentNetwork::forward(const std::vector<double>& sp,
                                  const std::vector<double>& availability,
                                  int t, int total_steps, bool train) {
  const int d = config_.grid_dim;
  cached_dim_ = d;
  const nn::Tensor input = make_input_plane(sp);

  // Trunk.
  nn::Tensor h = conv1_.forward(input, train);
  h = bn1_.forward(h, train);
  h = relu1_.forward(h, train);
  for (auto& block : tower_) h = block->forward(h, train);
  trunk_out_ = h;

  // Policy head.
  nn::Tensor p = conv_p_.forward(h, train);
  p = bn_p_.forward(p, train);
  p = relu_p_.forward(p, train);
  p.reshape({2 * d * d});
  nn::Tensor logits = fc_p_.forward(p, train);

  // Value head: concat [trunk | s_p | t-plane].
  const int cv = value_in_channels(config_.channels);
  nn::Tensor v_in({cv, d, d});
  const std::size_t plane = static_cast<std::size_t>(d) * d;
  for (std::size_t i = 0; i < static_cast<std::size_t>(config_.channels) * plane; ++i) {
    v_in[i] = trunk_out_[i];
  }
  for (std::size_t i = 0; i < plane; ++i) {
    v_in[static_cast<std::size_t>(config_.channels) * plane + i] =
        static_cast<float>(sp[i]);
  }
  const float t_embed =
      total_steps > 0 ? static_cast<float>(t) / static_cast<float>(total_steps)
                      : 0.0f;
  for (std::size_t i = 0; i < plane; ++i) {
    v_in[static_cast<std::size_t>(config_.channels + 1) * plane + i] = t_embed;
  }
  nn::Tensor v = conv_v_.forward(v_in, train);
  v = bn_v_.forward(v, train);
  v = relu_v_.forward(v, train);
  v.reshape({d * d});
  v = mlp1_.forward(v, train);
  v = relu_m1_.forward(v, train);
  v = mlp2_.forward(v, train);
  v = relu_m2_.forward(v, train);
  v = mlp3_.forward(v, train);

  AgentOutput out;
  out.probs = nn::masked_softmax(logits, availability);
  out.value = v[0];
  return out;
}

void AgentNetwork::backward(const nn::Tensor& policy_logit_grad,
                            float value_grad) {
  const int d = cached_dim_;
  const std::size_t plane = static_cast<std::size_t>(d) * d;

  // Policy head backward -> gradient at trunk output.
  nn::Tensor gp = fc_p_.backward(policy_logit_grad);
  gp.reshape({2, d, d});
  gp = relu_p_.backward(gp);
  gp = bn_p_.backward(gp);
  nn::Tensor g_trunk = conv_p_.backward(gp);

  // Value head backward.
  nn::Tensor gv({1});
  gv[0] = value_grad;
  gv = mlp3_.backward(gv);
  gv = relu_m2_.backward(gv);
  gv = mlp2_.backward(gv);
  gv = relu_m1_.backward(gv);
  gv = mlp1_.backward(gv);
  gv.reshape({1, d, d});
  gv = relu_v_.backward(gv);
  gv = bn_v_.backward(gv);
  nn::Tensor g_vin = conv_v_.backward(gv);
  // Slice the trunk-feature channels; s_p/t-plane gradients are discarded.
  for (std::size_t i = 0; i < static_cast<std::size_t>(config_.channels) * plane; ++i) {
    g_trunk[i] += g_vin[i];
  }

  // Trunk backward.
  nn::Tensor g = g_trunk;
  for (auto it = tower_.rbegin(); it != tower_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  g = relu1_.backward(g);
  g = bn1_.backward(g);
  conv1_.backward(g);
}

std::vector<nn::Parameter*> AgentNetwork::parameters() {
  std::vector<nn::Parameter*> out;
  conv1_.collect_parameters(out);
  bn1_.collect_parameters(out);
  for (auto& block : tower_) block->collect_parameters(out);
  conv_p_.collect_parameters(out);
  bn_p_.collect_parameters(out);
  fc_p_.collect_parameters(out);
  conv_v_.collect_parameters(out);
  bn_v_.collect_parameters(out);
  mlp1_.collect_parameters(out);
  mlp2_.collect_parameters(out);
  mlp3_.collect_parameters(out);
  return out;
}

std::unique_ptr<AgentNetwork> AgentNetwork::clone() {
  auto copy = std::make_unique<AgentNetwork>(config_);
  copy->copy_parameters_from(*this);
  return copy;
}

void AgentNetwork::copy_parameters_from(AgentNetwork& other) {
  std::vector<nn::Parameter*> dst = parameters();
  std::vector<nn::Parameter*> src = other.parameters();
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    assert(dst[i]->value.size() == src[i]->value.size());
    dst[i]->value = src[i]->value;
  }
}

std::size_t AgentNetwork::num_parameters() {
  std::size_t total = 0;
  for (const nn::Parameter* p : parameters()) total += p->value.size();
  return total;
}

}  // namespace mp::rl
