// Tests for GEQRT/UNMQR: factorization reconstruction A = Q R, orthogonality
// of the accumulated Q, agreement between the compact-WY application (unmqr)
// and the explicitly accumulated reflectors, and T-factor structure.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "kernels/lapack.hpp"
#include "kernels/reference.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::kern {
namespace {

using luqr::testing::expect_near;
using luqr::testing::random_matrix;

class GeqrtShapes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeqrtShapes, ReconstructsAeqQR) {
  const auto [m, n] = GetParam();
  const auto a = random_matrix(m, n, 200 + 7 * m + n);
  Matrix<double> vr = a;  // V below diagonal, R above
  Matrix<double> t(n, n);
  geqrt(vr.view(), t.view());
  // Explicit Q from elementary reflectors (independent of the block T).
  Matrix<double> q = q_from_geqrt(vr.cview(), t.cview());
  EXPECT_LT(luqr::verify::orthogonality_error(q), 1e-13);
  // R = upper trapezoid of vr.
  Matrix<double> r(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= std::min(j, m - 1); ++i) r(i, j) = vr(i, j);
  Matrix<double> recon(m, n);
  ref_gemm(Trans::No, Trans::No, 1.0, q.cview(), r.cview(), 0.0, recon.view());
  expect_near(recon, a, 1e-12 * (m + n), "A = Q R");
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeqrtShapes,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(5, 5),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(24, 8),
                                           std::make_tuple(9, 9),
                                           std::make_tuple(32, 32)));

TEST(Geqrt, TFactorIsUpperTriangular) {
  const auto a = random_matrix(12, 12, 3);
  Matrix<double> vr = a;
  Matrix<double> t(12, 12);
  geqrt(vr.view(), t.view());
  for (int j = 0; j < 12; ++j)
    for (int i = j + 1; i < 12; ++i) EXPECT_DOUBLE_EQ(t(i, j), 0.0);
}

TEST(Geqrt, BlockTMatchesReflectorProduct) {
  // I - V T V^T must equal H_0 H_1 ... H_{k-1}: apply both to the identity.
  const int m = 14, n = 14;
  const auto a = random_matrix(m, n, 4);
  Matrix<double> vr = a;
  Matrix<double> t(n, n);
  geqrt(vr.view(), t.view());
  // Via unmqr (compact WY): Q^T I.
  Matrix<double> qt_wy = Matrix<double>::identity(m);
  unmqr(Trans::Yes, vr.cview(), t.cview(), qt_wy.view());
  // Via explicit reflectors: Q^T = (H0 H1 ...)^T.
  Matrix<double> q = q_from_geqrt(vr.cview(), t.cview());
  Matrix<double> qt_ref(m, m);
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i) qt_ref(i, j) = q(j, i);
  expect_near(qt_wy, qt_ref, 1e-13, "compact WY vs explicit reflectors");
}

TEST(Unmqr, TransThenNoTransIsIdentity) {
  const int m = 10;
  const auto a = random_matrix(m, m, 5);
  Matrix<double> vr = a;
  Matrix<double> t(m, m);
  geqrt(vr.view(), t.view());
  const auto c = random_matrix(m, 6, 6);
  Matrix<double> w = c;
  unmqr(Trans::Yes, vr.cview(), t.cview(), w.view());
  unmqr(Trans::No, vr.cview(), t.cview(), w.view());
  expect_near(w, c, 1e-12, "Q Q^T C = C");
}

TEST(Unmqr, QtAZeroesBelowDiagonal) {
  const int m = 12, n = 12;
  const auto a = random_matrix(m, n, 7);
  Matrix<double> vr = a;
  Matrix<double> t(n, n);
  geqrt(vr.view(), t.view());
  Matrix<double> qta = a;
  unmqr(Trans::Yes, vr.cview(), t.cview(), qta.view());
  // Q^T A = R: strictly-lower part vanishes, upper part matches stored R.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      if (i > j) {
        EXPECT_NEAR(qta(i, j), 0.0, 1e-12) << i << "," << j;
      } else {
        EXPECT_NEAR(qta(i, j), vr(i, j), 1e-12) << i << "," << j;
      }
    }
  }
}

TEST(Geqrt, PreservesColumnNorms) {
  // Orthogonal transformations preserve 2-norms: ||R e_j||_2 accumulated
  // over rows 0..j equals ||A e_j||_2.
  const int m = 20, n = 10;
  const auto a = random_matrix(m, n, 8);
  Matrix<double> vr = a;
  Matrix<double> t(n, n);
  geqrt(vr.view(), t.view());
  for (int j = 0; j < n; ++j) {
    double na = 0.0, nr = 0.0;
    for (int i = 0; i < m; ++i) na += a(i, j) * a(i, j);
    for (int i = 0; i <= j; ++i) nr += vr(i, j) * vr(i, j);
    EXPECT_NEAR(std::sqrt(na), std::sqrt(nr), 1e-10);
  }
}

TEST(Geqrt, RankDeficientColumnGivesZeroTau) {
  // A zero column below the diagonal needs no reflector (tau = 0) and must
  // not produce NaNs.
  Matrix<double> a(6, 3);
  for (int i = 0; i < 6; ++i) a(i, 0) = 1.0;
  a(0, 1) = 2.0;  // column 1 zero below row 0 after step 0? Use simple case:
  a(0, 2) = 1.0;
  a(1, 2) = 1.0;
  Matrix<double> t(3, 3);
  geqrt(a.view(), t.view());
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 6; ++i) EXPECT_TRUE(std::isfinite(a(i, j)));
}

TEST(Geqrt, RequiresTallShape) {
  Matrix<double> a(3, 5), t(5, 5);
  EXPECT_THROW(geqrt(a.view(), t.view()), Error);
}

TEST(GeqrtFloat, SinglePrecision) {
  const int m = 8, n = 8;
  Matrix<float> a(m, n);
  Rng rng(9);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a(i, j) = static_cast<float>(rng.gaussian());
  Matrix<float> vr = a;
  Matrix<float> t(n, n);
  geqrt(vr.view(), t.view());
  Matrix<float> c = a;
  unmqr(Trans::Yes, vr.cview(), t.cview(), c.view());
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < m; ++i) EXPECT_NEAR(c(i, j), 0.0f, 1e-4f);
}

// Exact-width apply: unmqr dispatched at width nb on a W-wide C must equal,
// bit for bit, nb-wide calls on the same columns — the invariance the
// exact-width solve replay rests on. nb spans both sides of the packed-GEMM
// dispatch threshold (nb^3 vs kGemmSmallMNK).
template <typename T>
class UnmqrDispatchWidth : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(UnmqrDispatchWidth, Scalars);

TYPED_TEST(UnmqrDispatchWidth, WideCallMatchesNbWideSlicesBitwise) {
  using T = TypeParam;
  using luqr::testing::converted;
  for (int nb : {8, 16, 32, 128}) {
    auto vr = converted<T>(random_matrix(nb, nb, 300 + nb));
    Matrix<T> t(nb, nb);
    geqrt(vr.view(), t.view());
    for (int w : {1, 3, nb + 5}) {
      SCOPED_TRACE(::testing::Message() << "nb=" << nb << " W=" << w);
      const auto c = converted<T>(random_matrix(nb, w, 400 + w));
      Matrix<T> wide = c;
      unmqr(Trans::Yes, vr.cview(), t.cview(), wide.view(), nullptr, nb);
      auto tiled = luqr::testing::padded_to_tiles(c, nb, 500 + w);
      for (int c0 = 0; c0 < tiled.cols(); c0 += nb)
        unmqr(Trans::Yes, vr.cview(), t.cview(),
              tiled.view().block(0, c0, nb, nb));
      luqr::testing::expect_leading_columns_bitwise(wide, tiled, "unmqr");
    }
  }
}

}  // namespace
}  // namespace luqr::kern
