// Shared helpers for the luqr test suite.
#pragma once

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/dense.hpp"
#include "kernels/reference.hpp"

namespace luqr::testing {

/// Dense random matrix with i.i.d. standard Gaussian entries.
inline Matrix<double> random_matrix(int rows, int cols, std::uint64_t seed) {
  Matrix<double> m(rows, cols);
  Rng rng(seed);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) m(i, j) = rng.gaussian();
  return m;
}

/// Random upper-triangular matrix (nonzero diagonal).
inline Matrix<double> random_upper(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) m(i, j) = rng.gaussian();
    m(j, j) += (m(j, j) >= 0 ? 3.0 : -3.0);  // keep well-conditioned
  }
  return m;
}

/// Random unit-lower-triangular matrix.
inline Matrix<double> random_unit_lower(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    m(j, j) = 1.0;
    for (int i = j + 1; i < n; ++i) m(i, j) = 0.5 * rng.gaussian();
  }
  return m;
}

/// EXPECT that two dense matrices agree to `tol` elementwise.
inline void expect_near(const Matrix<double>& a, const Matrix<double>& b,
                        double tol, const char* what = "matrices") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(kern::max_abs_diff(a.cview(), b.cview()), tol) << what;
}

/// `m` rounded to the scalar type T (identity for double).
template <typename T>
Matrix<T> converted(const Matrix<double>& m) {
  Matrix<T> out(m.rows(), m.cols());
  for (int j = 0; j < m.cols(); ++j)
    for (int i = 0; i < m.rows(); ++i) out(i, j) = static_cast<T>(m(i, j));
  return out;
}

/// The columns of `c` followed by random filler columns up to a whole
/// number of nb-wide tiles — how the fused driver lays out a W-wide RHS.
template <typename T>
Matrix<T> padded_to_tiles(const Matrix<T>& c, int nb, std::uint64_t seed) {
  const int cols = (c.cols() + nb - 1) / nb * nb;
  Matrix<T> out = converted<T>(random_matrix(c.rows(), cols, seed));
  for (int j = 0; j < c.cols(); ++j)
    for (int i = 0; i < c.rows(); ++i) out(i, j) = c(i, j);
  return out;
}

/// ASSERT that every column of `got` equals the same column of `ref` bit
/// for bit (`ref` may carry extra trailing columns).
template <typename T>
void expect_leading_columns_bitwise(const Matrix<T>& got, const Matrix<T>& ref,
                                    const char* what) {
  ASSERT_EQ(got.rows(), ref.rows()) << what;
  ASSERT_LE(got.cols(), ref.cols()) << what;
  for (int j = 0; j < got.cols(); ++j)
    for (int i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got(i, j), ref(i, j)) << what << " @ " << i << "," << j;
}

}  // namespace luqr::testing
