// Tests for GEQRT/UNMQR: factorization reconstruction A = Q R, orthogonality
// of the accumulated Q, agreement between the compact-WY application (unmqr)
// and the explicitly accumulated reflectors, and T-factor structure.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

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

// The widths a prebuilt-reflector apply is checked at: one column, 2..nb and
// nb+1..nb+4, all dispatched at width nb on the per-call side.
std::vector<int> apply_widths(int nb) {
  return {1, 2, 3, nb / 2 + 1, nb - 1, nb, nb + 1, nb + 4};
}

// A reflector built once (the factor's gate task, the retained
// factorization) applies bit for bit as the per-call (V, T) apply, which
// packs one in its workspace: square V and trapezoidal V (m > k, as in the
// blocked GEQRT's inner update), for Q^T and Q.
TYPED_TEST(UnmqrDispatchWidth, PrebuiltReflectorMatchesPerCallApplyBitwise) {
  using T = TypeParam;
  using luqr::testing::converted;
  for (int nb : {32, 64, 128}) {
    for (int m : {nb, nb + 40}) {
      auto vr = converted<T>(random_matrix(m, nb, 800 + m + nb));
      Matrix<T> t(nb, nb);
      geqrt(vr.view(), t.view());
      for (Trans trans : {Trans::Yes, Trans::No}) {
        const PackedReflector<T> q(QrKind::Geqrt, trans, vr.cview(), t.cview());
        ASSERT_EQ(q.size(), PackedReflector<T>::size_for(QrKind::Geqrt, trans, m, nb));
        for (int w : apply_widths(nb)) {
          SCOPED_TRACE(::testing::Message() << "nb=" << nb << " m=" << m
                                            << " W=" << w);
          const auto c = converted<T>(random_matrix(m, w, 900 + w));
          Matrix<T> per_call = c, prebuilt = c;
          unmqr(trans, vr.cview(), t.cview(), per_call.view(), nullptr, nb);
          unmqr(q, prebuilt.view());
          luqr::testing::expect_leading_columns_bitwise(prebuilt, per_call,
                                                        "unmqr prebuilt");
        }
      }
      // Q (Q^T C) = C: both packed reflectors are the operator they claim,
      // which the per-call comparison alone (same code) cannot show.
      const PackedReflector<T> qt(QrKind::Geqrt, Trans::Yes, vr.cview(), t.cview());
      const PackedReflector<T> qn(QrKind::Geqrt, Trans::No, vr.cview(), t.cview());
      const auto c = converted<T>(random_matrix(m, 5, 990 + m));
      Matrix<T> round = c;
      unmqr(qt, round.view());
      unmqr(qn, round.view());
      const double tol = sizeof(T) == sizeof(double) ? 1e-12 : 1e-4;
      for (int j = 0; j < 5; ++j)
        for (int i = 0; i < m; ++i)
          ASSERT_NEAR(round(i, j), c(i, j), tol) << "Q Q^T C, nb=" << nb << " m=" << m;
    }
  }
}

// The packed operands skip only structural zeros: an Inf or NaN in C still
// reaches every output element that depends on it (the nonzeros of Q^T e_r,
// its finite response), and no other column.
TEST(Unmqr, NonFiniteInputReachesEveryDependentOutput) {
  const int nb = 32;
  auto vr = random_matrix(nb, nb, 950);
  Matrix<double> t(nb, nb);
  geqrt(vr.view(), t.view());
  const PackedReflector<double> q(QrKind::Geqrt, Trans::Yes, vr.cview(), t.cview());
  for (double bad : {INFINITY, NAN}) {
    for (int r : {0, nb / 2, nb - 1}) {
      SCOPED_TRACE(::testing::Message() << "bad=" << bad << " row=" << r);
      Matrix<double> e(nb, 1);
      e(r, 0) = 1.0;
      unmqr(q, e.view());
      auto c = random_matrix(nb, 3, 960 + r);
      c(r, 1) = bad;
      unmqr(q, c.view());
      for (int i = 0; i < nb; ++i) {
        if (e(i, 0) != 0.0) {
          EXPECT_FALSE(std::isfinite(c(i, 1))) << i;
        }
        EXPECT_TRUE(std::isfinite(c(i, 0)) && std::isfinite(c(i, 2))) << i;
      }
    }
  }
}

}  // namespace
}  // namespace luqr::kern
