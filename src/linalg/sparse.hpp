#pragma once
// Symmetric sparse matrices in CSR form for the quadratic-placement systems.
// Built from (row, col, value) triplets with duplicate coalescing, which is
// the natural output of clique/star net models.

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace mp::linalg {

/// Accumulates triplets; duplicates are summed when compiled to CSR.
class TripletBuilder {
 public:
  explicit TripletBuilder(std::size_t n) : n_(n) {}

  std::size_t dimension() const { return n_; }

  /// Number of stored triplets (zero values are never stored).
  std::size_t size() const { return values_.size(); }

  /// Drops every triplet after the first `count`, keeping the capacity.
  void truncate(std::size_t count);

  /// Adds value at (r, c). Out-of-range indices are a programming error.
  void add(std::size_t r, std::size_t c, double value);

  /// Convenience for symmetric stamps: adds `value` to (r,r) and (c,c) and
  /// `-value` to (r,c) and (c,r) — the graph-Laplacian pattern of a two-pin
  /// quadratic connection.
  void add_connection(std::size_t r, std::size_t c, double weight);

  /// Adds `weight` to the diagonal entry (r, r) — fixed-pin anchoring.
  void add_diagonal(std::size_t r, double weight);

  const std::vector<std::size_t>& rows() const { return rows_; }
  const std::vector<std::size_t>& cols() const { return cols_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t n_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> cols_;
  std::vector<double> values_;
};

/// The (row, col) sort permutation of one triplet key sequence, kept
/// between compiles so that recompiling the same keys with new values skips
/// the sort.  std::sort's permutation depends only on the key sequence, so a
/// reused order sums duplicates in the same order as a fresh sort: the
/// compiled matrix is bit-identical.
struct TripletOrder {
  std::vector<std::size_t> rows;  ///< the key sequence `order` sorts
  std::vector<std::size_t> cols;
  std::vector<std::size_t> order;
  long long sorts = 0;  ///< sorts run through this slot
};

/// Compressed-sparse-row square matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compiles triplets (duplicates summed, zeros kept out).  With `reuse`,
  /// the sort is skipped when the builder's (row, col) arrays equal the ones
  /// `reuse` holds, element for element; otherwise the sort runs and its
  /// keys and order replace the slot's.
  static CsrMatrix from_triplets(const TripletBuilder& builder,
                                 TripletOrder* reuse = nullptr);

  std::size_t dimension() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t nonzeros() const { return values_.size(); }

  /// y = A x.
  void multiply(const Vec& x, Vec& y) const;
  Vec multiply(const Vec& x) const;

  /// Diagonal entries (0 where absent); used by the Jacobi preconditioner.
  Vec diagonal() const;

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace mp::linalg
