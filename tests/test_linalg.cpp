// Tests for linalg: dense helpers, CSR assembly, conjugate gradient.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cg.hpp"
#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"
#include "util/rng.hpp"

namespace mp::linalg {
namespace {

TEST(Dense, DotAndNorm) {
  const Vec a{1.0, 2.0, 3.0};
  const Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm2(Vec{3.0, 4.0}), 5.0);
}

TEST(Dense, Axpy) {
  Vec y{1.0, 1.0};
  axpy(2.0, Vec{3.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Dense, MatrixMultiply) {
  DenseMatrix m(2, 3);
  m(0, 0) = 1.0; m(0, 1) = 2.0; m(0, 2) = 3.0;
  m(1, 0) = 4.0; m(1, 1) = 5.0; m(1, 2) = 6.0;
  const Vec y = m.multiply(Vec{1.0, 0.0, -1.0});
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Csr, TripletsCoalesce) {
  TripletBuilder b(3);
  b.add(0, 1, 2.0);
  b.add(0, 1, 3.0);   // duplicate, should sum
  b.add(2, 2, 1.0);
  const CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_EQ(m.dimension(), 3u);
  EXPECT_EQ(m.nonzeros(), 2u);
  const Vec y = m.multiply(Vec{0.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(Csr, ZeroSumEntriesDropped) {
  TripletBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);
  b.add(1, 1, 2.0);
  const CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_EQ(m.nonzeros(), 1u);
}

TEST(Csr, ConnectionStampIsLaplacian) {
  TripletBuilder b(2);
  b.add_connection(0, 1, 3.0);
  const CsrMatrix m = CsrMatrix::from_triplets(b);
  const Vec d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  // Laplacian times constant vector = 0.
  const Vec y = m.multiply(Vec{5.0, 5.0});
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 0.0, 1e-12);
}

// A kept sort order gives the same matrix as a fresh compile, bit for bit:
// for new values on the same keys (one key's duplicates now summing to zero,
// so its entry drops out), and after the key sequence changes, when the
// slot must sort again.
TEST(Csr, ReusedOrderEqualsFreshCompile) {
  // Duplicate-heavy keys on rows 1..5 with values of mixed magnitude, so the
  // summation order shows in the bits; then (0, 5) and (0, last_col).
  const auto build = [](std::uint64_t seed, double last,
                        std::size_t last_col = 5) {
    util::Rng rng(seed);
    util::Rng keys(3);
    TripletBuilder b(6);
    for (int t = 0; t < 60; ++t) {
      const auto r = static_cast<std::size_t>(keys.uniform_int(1, 5));
      const auto c = static_cast<std::size_t>(keys.uniform_int(0, 5));
      b.add(r, c, rng.uniform(0.5, 1.0) * std::pow(10.0, rng.uniform_int(-6, 6)));
    }
    b.add(0, 5, 0.25);
    b.add(0, last_col, last);
    return b;
  };
  const auto expect_same = [](const CsrMatrix& a, const CsrMatrix& b) {
    EXPECT_EQ(a.row_ptr(), b.row_ptr());
    EXPECT_EQ(a.col_idx(), b.col_idx());
    EXPECT_EQ(a.values(), b.values());
  };

  TripletOrder order;
  const TripletBuilder first = build(1, 0.5);
  expect_same(CsrMatrix::from_triplets(first, &order),
              CsrMatrix::from_triplets(first));
  EXPECT_EQ(order.sorts, 1);

  // Same keys, new values, and (0, 5) now sums to zero: no sort.
  const TripletBuilder refill = build(2, -0.25);
  const CsrMatrix reused = CsrMatrix::from_triplets(refill, &order);
  EXPECT_EQ(order.sorts, 1);
  expect_same(reused, CsrMatrix::from_triplets(refill));
  EXPECT_EQ(reused.row_ptr()[1], 0u);  // row 0 is empty

  // A changed key sequence of the same length sorts again, and so does the
  // old one after it.
  const TripletBuilder changed = build(2, -0.25, 4);
  expect_same(CsrMatrix::from_triplets(changed, &order),
              CsrMatrix::from_triplets(changed));
  EXPECT_EQ(order.sorts, 2);
  expect_same(CsrMatrix::from_triplets(refill, &order), reused);
  EXPECT_EQ(order.sorts, 3);
}

TEST(Csr, TruncateDropsTheTail) {
  TripletBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 3.0);
  b.truncate(2);
  EXPECT_EQ(b.size(), 2u);
  const Vec d = CsrMatrix::from_triplets(b).diagonal();
  EXPECT_EQ(d, (Vec{1.0, 2.0, 0.0}));
}

TEST(Cg, SolvesSmallSpdSystem) {
  // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11]
  TripletBuilder b(2);
  b.add(0, 0, 4.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 3.0);
  const CsrMatrix a = CsrMatrix::from_triplets(b);
  Vec x;
  const CgResult r = conjugate_gradient(a, Vec{1.0, 2.0}, x);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-8);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-8);
}

TEST(Cg, ZeroRhsGivesZero) {
  TripletBuilder b(2);
  b.add_diagonal(0, 1.0);
  b.add_diagonal(1, 1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(b);
  Vec x{5.0, -3.0};
  const CgResult r = conjugate_gradient(a, Vec{0.0, 0.0}, x);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(Cg, WarmStartAtSolutionConvergesImmediately) {
  TripletBuilder b(2);
  b.add_diagonal(0, 2.0);
  b.add_diagonal(1, 2.0);
  const CsrMatrix a = CsrMatrix::from_triplets(b);
  Vec x{1.5, -0.5};
  const CgResult r = conjugate_gradient(a, Vec{3.0, -1.0}, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1);
}

// Property: CG solves anchored-Laplacian systems (the quadratic placement
// shape) for random graphs; residual check against direct multiplication.
class CgLaplacianProperty : public ::testing::TestWithParam<int> {};

TEST_P(CgLaplacianProperty, SolvesAnchoredLaplacian) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 977);
  TripletBuilder b(static_cast<std::size_t>(n));
  // Random connected chain + extra edges.
  for (int i = 1; i < n; ++i) {
    b.add_connection(static_cast<std::size_t>(i - 1), static_cast<std::size_t>(i),
                     rng.uniform(0.5, 2.0));
  }
  for (int e = 0; e < n; ++e) {
    const int i = rng.uniform_int(0, n - 1);
    const int j = rng.uniform_int(0, n - 1);
    if (i != j) {
      b.add_connection(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       rng.uniform(0.1, 1.0));
    }
  }
  // Anchors make it SPD.
  b.add_diagonal(0, 1.0);
  b.add_diagonal(static_cast<std::size_t>(n - 1), 1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(b);

  Vec rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
  Vec x;
  CgOptions options;
  options.max_iterations = 5 * n + 100;
  const CgResult r = conjugate_gradient(a, rhs, x, options);
  EXPECT_TRUE(r.converged) << "n=" << n << " residual=" << r.residual;
  // Verify by direct multiplication.
  const Vec ax = a.multiply(x);
  double err = 0.0;
  for (int i = 0; i < n; ++i) err = std::max(err, std::abs(ax[static_cast<std::size_t>(i)] - rhs[static_cast<std::size_t>(i)]));
  EXPECT_LT(err, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgLaplacianProperty,
                         ::testing::Values(2, 5, 10, 50, 200, 1000));

}  // namespace
}  // namespace mp::linalg
