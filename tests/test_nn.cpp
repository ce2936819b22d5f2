// Tests for the NN substrate: shapes, exact values where closed-form, and
// finite-difference gradient checks for every layer (the load-bearing
// correctness property for Actor-Critic training).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "nn/functional.hpp"
#include "nn/kernels.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace mp::nn {
namespace {

// Loss = sum(grad_pattern ⊙ layer(x)); checks dL/dx and dL/dθ against
// central finite differences.
void check_gradients(Layer& layer, Tensor input, double tolerance = 3e-2,
                     float fd_eps = 1e-2f) {
  util::Rng rng(99);
  Tensor out = layer.forward(input, /*train=*/true);
  Tensor grad_pattern = out;
  for (std::size_t i = 0; i < grad_pattern.size(); ++i) {
    grad_pattern[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto loss = [&](const Tensor& x) {
    Tensor y = layer.forward(x, /*train=*/true);
    double total = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      total += static_cast<double>(grad_pattern[i]) * y[i];
    }
    return total;
  };

  // Analytic gradients.
  std::vector<Parameter*> params;
  layer.collect_parameters(params);
  for (Parameter* p : params) p->grad.zero();
  layer.forward(input, true);
  const Tensor grad_input = layer.backward(grad_pattern);

  // Input gradient check (sample entries to bound runtime).
  const std::size_t input_stride = std::max<std::size_t>(1, input.size() / 24);
  for (std::size_t i = 0; i < input.size(); i += input_stride) {
    Tensor xp = input, xm = input;
    xp[i] += fd_eps;
    xm[i] -= fd_eps;
    const double numeric = (loss(xp) - loss(xm)) / (2.0 * fd_eps);
    const double analytic = grad_input[i];
    EXPECT_NEAR(analytic, numeric,
                tolerance * std::max(1.0, std::abs(numeric)))
        << "input grad mismatch at " << i;
  }
  // Parameter gradient check.
  for (std::size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    const std::size_t stride = std::max<std::size_t>(1, p->value.size() / 16);
    for (std::size_t i = 0; i < p->value.size(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + fd_eps;
      const double lp = loss(input);
      p->value[i] = orig - fd_eps;
      const double lm = loss(input);
      p->value[i] = orig;
      const double numeric = (lp - lm) / (2.0 * fd_eps);
      const double analytic = p->grad[i];
      EXPECT_NEAR(analytic, numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "param " << k << " grad mismatch at " << i;
    }
  }
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Tensor, ShapeAndFill) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3);
  t.fill(2.5f);
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 2.5f);
  t.reshape({24});
  EXPECT_EQ(t.rank(), 1);
}

TEST(Tensor, AddAndScale) {
  Tensor a({3}, 1.0f), b({3}, 2.0f);
  a.add(b);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  util::Rng rng(1);
  Conv2d conv(1, 1, 3, rng);
  std::vector<Parameter*> params;
  conv.collect_parameters(params);
  // weight layout [outC=1, inC*3*3]; identity = center tap.
  params[0]->value.zero();
  params[0]->value[4] = 1.0f;
  params[1]->value.zero();
  const Tensor x = random_tensor({1, 5, 5}, 2);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, OutputShape) {
  util::Rng rng(3);
  Conv2d conv(3, 8, 3, rng);
  const Tensor y = conv.forward(random_tensor({3, 6, 7}, 4), false);
  EXPECT_EQ(y.dim(0), 8);
  EXPECT_EQ(y.dim(1), 6);
  EXPECT_EQ(y.dim(2), 7);
}

TEST(Conv2d, GradientCheck3x3) {
  util::Rng rng(5);
  Conv2d conv(2, 3, 3, rng);
  check_gradients(conv, random_tensor({2, 4, 4}, 6));
}

TEST(Conv2d, GradientCheck1x1) {
  util::Rng rng(7);
  Conv2d conv(4, 2, 1, rng);
  check_gradients(conv, random_tensor({4, 3, 3}, 8));
}

TEST(Conv2d, ReleasesColCacheAfterInferenceForward) {
  util::Rng rng(4);
  Conv2d conv(2, 2, 3, rng);
  Tensor x({2, 4, 4}, 0.5f);

  conv.forward(x, /*train=*/true);
  EXPECT_TRUE(conv.holds_col_cache());  // backward needs it

  conv.forward(x, /*train=*/false);
  EXPECT_FALSE(conv.holds_col_cache());  // inference must not retain it
}

// Row-major [rows x cols] floats in [-1, 1] with every fifth entry an exact
// zero, so the kernels' zero-skip branches run too.
std::vector<float> random_matrix(int rows, int cols, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(rows) * cols);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 5 == 3 ? 0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0;
}

// Shapes that reach the blocked kernels' vector body (n a multiple of 16),
// their scalar column tail (n % 16 != 0) and every A-row tail (m not a
// multiple of the 6- or 4-row register block), with odd k.
constexpr int kGemmN[] = {1, 7, 8, 9, 33, 256};
constexpr int kGemmM[] = {1, 11, 13};
constexpr int kGemmK[] = {1, 27};

using GemmFn = void (*)(const float*, const float*, float*, int, int, int);

// Runs `kernel` on seeded operands (m*k floats of A, k*n of B, each in the
// layout `kernel` reads) and a seeded [m x n] output it accumulates into.
std::vector<float> run_gemm(GemmFn kernel, int m, int k, int n,
                            std::uint64_t seed) {
  const std::vector<float> a = random_matrix(m, k, seed);
  const std::vector<float> b = random_matrix(k, n, seed + 1);
  std::vector<float> out = random_matrix(m, n, seed + 2);
  kernel(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

// What gemm_acc must equal bit for bit (nn/kernels.hpp).  FMA builds fuse
// its multiply-adds, so their reference fuses each element's k-terms into
// the output in ascending k order, with no zero skip (nn/kernels.cpp);
// no-FMA builds match the mul-then-add naive kernel.
#if defined(__FMA__) && defined(__AVX2__)
void gemm_acc_reference(const float* a, const float* b, float* out, int m,
                        int k, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& acc = out[static_cast<std::size_t>(i) * n + j];
      for (int kk = 0; kk < k; ++kk) {
        acc = std::fma(a[static_cast<std::size_t>(i) * k + kk],
                       b[static_cast<std::size_t>(kk) * n + j], acc);
      }
    }
  }
}
#else
constexpr GemmFn gemm_acc_reference = gemm_acc_naive;
#endif

TEST(Kernels, BlockedGemmMatchesReference) {
  for (const int m : kGemmM) {
    for (const int k : kGemmK) {
      for (const int n : kGemmN) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(m * 1000 + k * 10 + n);
        EXPECT_TRUE(same_bits(run_gemm(gemm_at_acc, m, k, n, seed),
                              run_gemm(gemm_at_acc_naive, m, k, n, seed)))
            << "gemm_at_acc m=" << m << " k=" << k << " n=" << n;
        EXPECT_TRUE(same_bits(run_gemm(gemm_bt_acc, m, k, n, seed),
                              run_gemm(gemm_bt_acc_naive, m, k, n, seed)))
            << "gemm_bt_acc m=" << m << " k=" << k << " n=" << n;
        EXPECT_TRUE(same_bits(run_gemm(gemm_acc, m, k, n, seed),
                              run_gemm(gemm_acc_reference, m, k, n, seed)))
            << "gemm_acc m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(Kernels, GemmAccColumnSliceMatchesFullProduct) {
  // The full product (n = 265: a 256-column vector body plus a 9-column
  // scalar tail) against gemm_acc run on column slices of B and of the
  // initial output, each slice wide enough to land in a different mix of
  // body and tail.
  const int full_n = 265;
  for (const int m : kGemmM) {
    for (const int k : kGemmK) {
      const std::vector<float> a = random_matrix(m, k, 70u + m + k);
      const std::vector<float> b = random_matrix(k, full_n, 80u + m + k);
      const std::vector<float> out0 = random_matrix(m, full_n, 90u + m + k);
      std::vector<float> full = out0;
      gemm_acc(a.data(), b.data(), full.data(), m, k, full_n);
      for (const int n : kGemmN) {
        for (const int j0 : {0, 3, full_n - n}) {
          std::vector<float> b_slice(static_cast<std::size_t>(k) * n);
          std::vector<float> slice(static_cast<std::size_t>(m) * n);
          std::vector<float> expected(slice.size());
          for (int r = 0; r < k; ++r) {
            std::memcpy(&b_slice[static_cast<std::size_t>(r) * n],
                        &b[static_cast<std::size_t>(r) * full_n + j0],
                        sizeof(float) * n);
          }
          for (int r = 0; r < m; ++r) {
            std::memcpy(&slice[static_cast<std::size_t>(r) * n],
                        &out0[static_cast<std::size_t>(r) * full_n + j0],
                        sizeof(float) * n);
            std::memcpy(&expected[static_cast<std::size_t>(r) * n],
                        &full[static_cast<std::size_t>(r) * full_n + j0],
                        sizeof(float) * n);
          }
          gemm_acc(a.data(), b_slice.data(), slice.data(), m, k, n);
          EXPECT_TRUE(same_bits(slice, expected))
              << "m=" << m << " k=" << k << " n=" << n << " j0=" << j0;
        }
      }
    }
  }
}

TEST(BatchNorm2d, NormalizesInTrainMode) {
  BatchNorm2d bn(2);
  const Tensor x = random_tensor({2, 4, 4}, 9);
  const Tensor y = bn.forward(x, true);
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (int h = 0; h < 4; ++h) {
      for (int w = 0; w < 4; ++w) mean += y.at(c, h, w);
    }
    mean /= 16.0;
    for (int h = 0; h < 4; ++h) {
      for (int w = 0; w < 4; ++w) {
        var += (y.at(c, h, w) - mean) * (y.at(c, h, w) - mean);
      }
    }
    var /= 16.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, EvalModeUsesRunningStats) {
  BatchNorm2d bn(1);
  // Train several times on a shifted distribution.
  for (int i = 0; i < 50; ++i) {
    Tensor x = random_tensor({1, 4, 4}, 10 + static_cast<std::uint64_t>(i));
    for (std::size_t k = 0; k < x.size(); ++k) x[k] = x[k] * 2.0f + 5.0f;
    bn.forward(x, true);
  }
  // Eval on the same distribution should give ~zero mean output.
  Tensor x = random_tensor({1, 4, 4}, 999);
  for (std::size_t k = 0; k < x.size(); ++k) x[k] = x[k] * 2.0f + 5.0f;
  const Tensor y = bn.forward(x, false);
  double mean = 0.0;
  for (std::size_t k = 0; k < y.size(); ++k) mean += y[k];
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 0.0, 0.5);
}

TEST(BatchNorm2d, GradientCheck) {
  BatchNorm2d bn(3);
  check_gradients(bn, random_tensor({3, 4, 4}, 11), 5e-2);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({4});
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({3});
  x[0] = -1.0f; x[1] = 1.0f; x[2] = 3.0f;
  relu.forward(x, true);
  Tensor g({3}, 1.0f);
  const Tensor gi = relu.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 1.0f);
  EXPECT_FLOAT_EQ(gi[2], 1.0f);
}

TEST(Linear, ClosedFormForward) {
  util::Rng rng(12);
  Linear lin(2, 2, rng);
  std::vector<Parameter*> params;
  lin.collect_parameters(params);
  // W = [[1, 2], [3, 4]], b = [10, 20]
  params[0]->value[0] = 1; params[0]->value[1] = 2;
  params[0]->value[2] = 3; params[0]->value[3] = 4;
  params[1]->value[0] = 10; params[1]->value[1] = 20;
  Tensor x({2});
  x[0] = 1.0f; x[1] = -1.0f;
  const Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  EXPECT_FLOAT_EQ(y[1], 19.0f);
}

TEST(Linear, GradientCheck) {
  util::Rng rng(13);
  Linear lin(5, 3, rng);
  check_gradients(lin, random_tensor({5}, 14));
}

TEST(ResBlock, GradientCheck) {
  util::Rng rng(15);
  ResBlock block(2, rng);
  // Two stacked BatchNorms over a small spatial extent are numerically
  // touchy under finite differences (ReLU kinks + stat re-normalization);
  // use a larger extent, a smaller step and a looser bound.
  check_gradients(block, random_tensor({2, 6, 6}, 16), 1e-1, 3e-3f);
}

TEST(Sequential, ComposesAndBackprops) {
  util::Rng rng(17);
  Sequential seq;
  seq.add(std::make_unique<Conv2d>(1, 2, 3, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Conv2d>(2, 1, 1, rng));
  check_gradients(seq, random_tensor({1, 4, 4}, 18));
}

TEST(Softmax, SumsToOne) {
  Tensor logits({4});
  logits[0] = 1.0f; logits[1] = 2.0f; logits[2] = 0.5f; logits[3] = -3.0f;
  const Tensor p = softmax(logits);
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) sum += p[i];
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({2});
  logits[0] = 1000.0f;
  logits[1] = 999.0f;
  const Tensor p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[0], p[1]);
}

TEST(MaskedSoftmax, ZeroMaskExcludesEntries) {
  Tensor logits({3});
  logits[0] = 5.0f; logits[1] = 1.0f; logits[2] = 1.0f;
  const Tensor p = masked_softmax(logits, {0.0, 1.0, 1.0});
  EXPECT_FLOAT_EQ(p[0], 0.0f);
  EXPECT_NEAR(p[1] + p[2], 1.0, 1e-6);
}

TEST(MaskedSoftmax, MaskWeightsScaleProbabilities) {
  Tensor logits({2});
  logits[0] = 0.0f;
  logits[1] = 0.0f;
  const Tensor p = masked_softmax(logits, {3.0, 1.0});
  EXPECT_NEAR(p[0], 0.75, 1e-6);
}

TEST(MaskedSoftmax, AllZeroMaskFallsBack) {
  Tensor logits({2});
  logits[0] = 1.0f;
  logits[1] = 1.0f;
  const Tensor p = masked_softmax(logits, {0.0, 0.0});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-6);
}

TEST(PolicyGradient, MatchesFiniteDifference) {
  // loss = -log p[a] * A through softmax; check against numeric gradient.
  Tensor logits({4});
  logits[0] = 0.3f; logits[1] = -0.2f; logits[2] = 1.1f; logits[3] = 0.0f;
  const int action = 2;
  const float advantage = 0.7f;
  const Tensor p = softmax(logits);
  const Tensor g = policy_gradient(p, action, advantage);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double fp = -std::log(softmax(lp)[action]) * advantage;
    const double fm = -std::log(softmax(lm)[action]) * advantage;
    EXPECT_NEAR(g[i], (fp - fm) / (2 * eps), 1e-3);
  }
}

TEST(Sgd, MovesAgainstGradient) {
  Parameter p({2});
  p.value[0] = 1.0f;
  p.value[1] = -1.0f;
  Sgd opt({&p}, 0.1f, 0.0f);
  p.grad[0] = 1.0f;
  p.grad[1] = -2.0f;
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.9f);
  EXPECT_FLOAT_EQ(p.value[1], -0.8f);
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);  // zeroed after step
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (x - 3)^2 by gradient descent.
  Parameter p({1});
  p.value[0] = 0.0f;
  Adam opt({&p}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Optimizer, GradClipScalesDown) {
  Parameter p({2});
  Sgd opt({&p}, 0.1f);
  p.grad[0] = 3.0f;
  p.grad[1] = 4.0f;  // norm 5
  const double norm = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(p.grad[0], 0.6f, 1e-6);
  EXPECT_NEAR(p.grad[1], 0.8f, 1e-6);
}

TEST(Serialize, SnapshotRestoreRoundTrip) {
  util::Rng rng(19);
  Linear lin(4, 4, rng);
  std::vector<Parameter*> params;
  lin.collect_parameters(params);
  const auto snapshot = snapshot_parameters(params);
  const float orig = params[0]->value[0];
  params[0]->value[0] = 123.0f;
  restore_parameters(params, snapshot);
  EXPECT_FLOAT_EQ(params[0]->value[0], orig);
}

TEST(Serialize, FileRoundTrip) {
  util::Rng rng(20);
  Linear a(3, 2, rng), b(3, 2, rng);
  std::vector<Parameter*> pa, pb;
  a.collect_parameters(pa);
  b.collect_parameters(pb);
  const std::string path = "/tmp/mp_test_params.bin";
  save_parameters(pa, path);
  load_parameters(pb, path);
  for (std::size_t k = 0; k < pa.size(); ++k) {
    for (std::size_t i = 0; i < pa[k]->value.size(); ++i) {
      EXPECT_FLOAT_EQ(pa[k]->value[i], pb[k]->value[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsWrongShape) {
  util::Rng rng(21);
  Linear a(3, 2, rng), b(4, 2, rng);
  std::vector<Parameter*> pa, pb;
  a.collect_parameters(pa);
  b.collect_parameters(pb);
  const std::string path = "/tmp/mp_test_params2.bin";
  save_parameters(pa, path);
  try {
    load_parameters(pb, path);
    FAIL() << "expected shape mismatch";
  } catch (const std::runtime_error& e) {
    // The message must name both shapes so a weights/config mix-up is
    // diagnosable from the exception alone.
    EXPECT_NE(std::string(e.what()).find("shape mismatch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[2,4]"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[2,3]"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// Saves one small Linear's parameters to `path` and returns its raw bytes.
std::string save_reference_file(const std::string& path) {
  util::Rng rng(22);
  Linear lin(3, 2, rng);
  std::vector<Parameter*> params;
  lin.collect_parameters(params);
  save_parameters(params, path);
  std::ifstream f(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << f.rdbuf();
  return bytes.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, ReadParametersFileRoundTripsBitExactly) {
  util::Rng rng(23);
  Linear lin(5, 3, rng);
  std::vector<Parameter*> params;
  lin.collect_parameters(params);
  const std::string path = "/tmp/mp_test_params_read.bin";
  save_parameters(params, path);
  const std::vector<Tensor> loaded = read_parameters_file(path);
  ASSERT_EQ(loaded.size(), params.size());
  for (std::size_t k = 0; k < loaded.size(); ++k) {
    ASSERT_EQ(loaded[k].shape(), params[k]->value.shape());
    for (std::size_t i = 0; i < loaded[k].size(); ++i) {
      // Bit-exact, not approximately equal: these bytes seed the service
      // weights cache, whose determinism contract is bit-identity.
      const float got = loaded[k][i];
      const float want = params[k]->value[i];
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0);
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsTruncatedFile) {
  const std::string path = "/tmp/mp_test_params_trunc.bin";
  const std::string bytes = save_reference_file(path);
  // Cut in every region: header, shape table, tensor payload.
  for (const std::size_t keep :
       {std::size_t{2}, std::size_t{9}, bytes.size() - 3}) {
    write_bytes(path, bytes.substr(0, keep));
    try {
      read_parameters_file(path);
      FAIL() << "expected truncation error at " << keep << " bytes";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsBadMagic) {
  const std::string path = "/tmp/mp_test_params_magic.bin";
  std::string bytes = save_reference_file(path);
  bytes[0] = 'X';
  write_bytes(path, bytes);
  try {
    read_parameters_file(path);
    FAIL() << "expected bad-magic error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not an nn parameter file"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsTrailingBytes) {
  const std::string path = "/tmp/mp_test_params_trail.bin";
  const std::string bytes = save_reference_file(path);
  write_bytes(path, bytes + '\0');
  EXPECT_THROW(read_parameters_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsImplausibleHeader) {
  const std::string path = "/tmp/mp_test_params_huge.bin";
  std::string bytes = save_reference_file(path);
  // Corrupt the tensor count (bytes 4..7) to 2^31: must refuse before
  // attempting any allocation.
  bytes[4] = 0;
  bytes[5] = 0;
  bytes[6] = 0;
  bytes[7] = static_cast<char>(0x80);
  write_bytes(path, bytes);
  try {
    read_parameters_file(path);
    FAIL() << "expected implausible-count error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsCountMismatchNamingBothCounts) {
  const std::string path = "/tmp/mp_test_params_count.bin";
  save_reference_file(path);  // 2 tensors (weight + bias)
  util::Rng rng(24);
  Sequential net;
  net.add(std::make_unique<Linear>(3, 2, rng));
  net.add(std::make_unique<Linear>(2, 2, rng));
  std::vector<Parameter*> params;  // 4 tensors
  net.collect_parameters(params);
  try {
    load_parameters(params, path);
    FAIL() << "expected count mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("network has 4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("file has 2"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mp::nn
