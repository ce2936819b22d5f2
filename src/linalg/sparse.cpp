#include "linalg/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "par/par.hpp"

namespace mp::linalg {

namespace {

// Rows per parallel chunk for SpMV.  Each y[row] is an independent serial
// dot product, so the parallel result is bit-identical to the serial loop
// at every thread count; the grain only bounds scheduling overhead.  Below
// ~4 chunks' worth of rows the dispatch isn't worth it.
constexpr std::size_t kSpmvGrain = 2048;

}  // namespace

void TripletBuilder::truncate(std::size_t count) {
  assert(count <= size());
  rows_.resize(count);
  cols_.resize(count);
  values_.resize(count);
}

void TripletBuilder::add(std::size_t r, std::size_t c, double value) {
  assert(r < n_ && c < n_);
  if (value == 0.0) return;
  rows_.push_back(r);
  cols_.push_back(c);
  values_.push_back(value);
}

void TripletBuilder::add_connection(std::size_t r, std::size_t c, double weight) {
  if (r == c || weight == 0.0) return;
  add(r, r, weight);
  add(c, c, weight);
  add(r, c, -weight);
  add(c, r, -weight);
}

void TripletBuilder::add_diagonal(std::size_t r, double weight) {
  add(r, r, weight);
}

CsrMatrix CsrMatrix::from_triplets(const TripletBuilder& builder,
                                   TripletOrder* reuse) {
  const std::size_t n = builder.dimension();
  const auto& tr = builder.rows();
  const auto& tc = builder.cols();
  const auto& tv = builder.values();
  const std::size_t nnz_in = tv.size();

  // Sort triplet indices by (row, col), unless `reuse` already holds the
  // order of this key sequence.
  std::vector<std::size_t> fresh;
  std::vector<std::size_t>& order = reuse != nullptr ? reuse->order : fresh;
  if (reuse == nullptr || reuse->rows != tr || reuse->cols != tc) {
    order.resize(nnz_in);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (tr[a] != tr[b]) return tr[a] < tr[b];
      return tc[a] < tc[b];
    });
    if (reuse != nullptr) {
      reuse->rows = tr;
      reuse->cols = tc;
      ++reuse->sorts;
    }
  }

  CsrMatrix m;
  m.row_ptr_.assign(n + 1, 0);
  m.col_idx_.reserve(nnz_in);
  m.values_.reserve(nnz_in);

  std::size_t i = 0;
  for (std::size_t row = 0; row < n; ++row) {
    while (i < nnz_in && tr[order[i]] == row) {
      const std::size_t col = tc[order[i]];
      double sum = 0.0;
      while (i < nnz_in && tr[order[i]] == row && tc[order[i]] == col) {
        sum += tv[order[i]];
        ++i;
      }
      if (sum != 0.0) {
        m.col_idx_.push_back(col);
        m.values_.push_back(sum);
      }
    }
    m.row_ptr_[row + 1] = m.col_idx_.size();
  }
  return m;
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  const std::size_t n = dimension();
  assert(x.size() == n);
  y.assign(n, 0.0);
  par::parallel_for(0, n, kSpmvGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t row = lo; row < hi; ++row) {
      double sum = 0.0;
      for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
        sum += values_[k] * x[col_idx_[k]];
      }
      y[row] = sum;
    }
  });
}

Vec CsrMatrix::multiply(const Vec& x) const {
  Vec y;
  multiply(x, y);
  return y;
}

Vec CsrMatrix::diagonal() const {
  const std::size_t n = dimension();
  Vec d(n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      if (col_idx_[k] == row) d[row] = values_[k];
    }
  }
  return d;
}

}  // namespace mp::linalg
