// Tests for the stacked QR kernels TSQRT/TSMQR (triangle-on-square) and
// TTQRT/TTMQR (triangle-on-triangle): reconstruction of the stacked tile,
// orthogonality of the accumulated stacked Q, structural invariants
// (killed tile zeroed, V triangular for TT), and apply/accumulate agreement.
#include <gtest/gtest.h>

#include <cmath>

#include "kernels/lapack.hpp"
#include "kernels/reference.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::kern {
namespace {

using luqr::testing::expect_near;
using luqr::testing::random_matrix;
using luqr::testing::random_upper;

// Stack [top; bottom] into one dense matrix.
Matrix<double> stack(const Matrix<double>& top, const Matrix<double>& bottom) {
  Matrix<double> s(top.rows() + bottom.rows(), top.cols());
  for (int j = 0; j < top.cols(); ++j) {
    for (int i = 0; i < top.rows(); ++i) s(i, j) = top(i, j);
    for (int i = 0; i < bottom.rows(); ++i) s(top.rows() + i, j) = bottom(i, j);
  }
  return s;
}

class TsqrtSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TsqrtSizes, ReconstructsStackedQR) {
  const auto [nb, m] = GetParam();
  const auto r0 = random_upper(nb, 41);
  const auto a0 = random_matrix(m, nb, 42);
  const Matrix<double> original = stack(r0, a0);

  Matrix<double> r = r0, v = a0, t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());

  Matrix<double> q = q_from_tsqrt(v.cview(), t.cview(), nb);
  EXPECT_LT(luqr::verify::orthogonality_error(q), 1e-13);

  // [R'; 0] must equal Q^T [R; A].
  Matrix<double> rnew(nb + m, nb);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i <= j; ++i) rnew(i, j) = r(i, j);
  Matrix<double> recon(nb + m, nb);
  ref_gemm(Trans::No, Trans::No, 1.0, q.cview(), rnew.cview(), 0.0, recon.view());
  expect_near(recon, original, 1e-11, "[R;A] = Q [R';0]");
}

INSTANTIATE_TEST_SUITE_P(Sizes, TsqrtSizes,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(8, 16),
                                           std::make_tuple(16, 16)));

TEST(Tsqrt, TopStaysUpperTriangular) {
  const int nb = 8, m = 8;
  auto r = random_upper(nb, 43);
  auto v = random_matrix(m, nb, 44);
  Matrix<double> t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

TEST(Tsmqr, MatchesExplicitStackedApplication) {
  const int nb = 6, m = 10, ncols = 7;
  auto r = random_upper(nb, 45);
  auto v = random_matrix(m, nb, 46);
  Matrix<double> t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  Matrix<double> q = q_from_tsqrt(v.cview(), t.cview(), nb);

  auto c1 = random_matrix(nb, ncols, 47);
  auto c2 = random_matrix(m, ncols, 48);
  const Matrix<double> c_stack = stack(c1, c2);
  Matrix<double> expected(nb + m, ncols);
  ref_gemm(Trans::Yes, Trans::No, 1.0, q.cview(), c_stack.cview(), 0.0,
           expected.view());

  tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
  const Matrix<double> got = stack(c1, c2);
  expect_near(got, expected, 1e-11, "tsmqr vs explicit Q^T [C1;C2]");
}

TEST(Tsmqr, TransThenNoTransRestores) {
  const int nb = 5, m = 9, ncols = 4;
  auto r = random_upper(nb, 49);
  auto v = random_matrix(m, nb, 50);
  Matrix<double> t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  auto c1 = random_matrix(nb, ncols, 51);
  auto c2 = random_matrix(m, ncols, 52);
  const auto c1_orig = c1;
  const auto c2_orig = c2;
  tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
  tsmqr(Trans::No, v.cview(), t.cview(), c1.view(), c2.view());
  expect_near(c1, c1_orig, 1e-12, "C1 restored");
  expect_near(c2, c2_orig, 1e-12, "C2 restored");
}

class TtqrtSizes : public ::testing::TestWithParam<int> {};

TEST_P(TtqrtSizes, ReconstructsStackedQR) {
  const int nb = GetParam();
  const auto r1_0 = random_upper(nb, 61);
  const auto r2_0 = random_upper(nb, 62);
  const Matrix<double> original = stack(r1_0, r2_0);

  Matrix<double> r1 = r1_0, r2 = r2_0, t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());

  Matrix<double> q = q_from_ttqrt(r2.cview(), t.cview(), nb);
  EXPECT_LT(luqr::verify::orthogonality_error(q), 1e-13);

  Matrix<double> rnew(2 * nb, nb);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i <= j; ++i) rnew(i, j) = r1(i, j);
  Matrix<double> recon(2 * nb, nb);
  ref_gemm(Trans::No, Trans::No, 1.0, q.cview(), rnew.cview(), 0.0, recon.view());
  expect_near(recon, original, 1e-11, "[R1;R2] = Q [R1';0]");
}

INSTANTIATE_TEST_SUITE_P(Sizes, TtqrtSizes, ::testing::Values(1, 2, 4, 8, 16));

TEST(Ttqrt, VStaysUpperTriangular) {
  // The defining structural property of the TT kernel: the reflectors never
  // touch rows below the diagonal of the killed triangle.
  const int nb = 10;
  auto r1 = random_upper(nb, 63);
  auto r2 = random_upper(nb, 64);
  Matrix<double> t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) EXPECT_DOUBLE_EQ(r2(i, j), 0.0);
}

TEST(Ttmqr, MatchesExplicitStackedApplication) {
  const int nb = 7, ncols = 5;
  auto r1 = random_upper(nb, 65);
  auto r2 = random_upper(nb, 66);
  Matrix<double> t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());
  Matrix<double> q = q_from_ttqrt(r2.cview(), t.cview(), nb);

  auto c1 = random_matrix(nb, ncols, 67);
  auto c2 = random_matrix(nb, ncols, 68);
  const Matrix<double> c_stack = stack(c1, c2);
  Matrix<double> expected(2 * nb, ncols);
  ref_gemm(Trans::Yes, Trans::No, 1.0, q.cview(), c_stack.cview(), 0.0,
           expected.view());

  ttmqr(Trans::Yes, r2.cview(), t.cview(), c1.view(), c2.view());
  const Matrix<double> got = stack(c1, c2);
  expect_near(got, expected, 1e-11, "ttmqr vs explicit Q^T [C1;C2]");
}

TEST(Ttmqr, IgnoresGarbageBelowDiagonalOfV) {
  // The killed tile's strictly-lower part may hold older reflector data
  // (GEQRT leftovers); TT kernels must never read it.
  const int nb = 6, ncols = 3;
  auto r1 = random_upper(nb, 69);
  auto r2 = random_upper(nb, 70);
  Matrix<double> t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());
  auto v_dirty = r2;
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) v_dirty(i, j) = 1e30;
  auto c1a = random_matrix(nb, ncols, 71);
  auto c2a = random_matrix(nb, ncols, 72);
  auto c1b = c1a;
  auto c2b = c2a;
  ttmqr(Trans::Yes, r2.cview(), t.cview(), c1a.view(), c2a.view());
  ttmqr(Trans::Yes, v_dirty.cview(), t.cview(), c1b.view(), c2b.view());
  expect_near(c1a, c1b, 0.0, "ttmqr V isolation (C1)");
  expect_near(c2a, c2b, 0.0, "ttmqr V isolation (C2)");
}

TEST(Tsqrt, ZeroBottomBlockIsNoOp) {
  const int nb = 5, m = 5;
  auto r0 = random_upper(nb, 73);
  Matrix<double> r = r0, v(m, nb), t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  expect_near(r, r0, 0.0, "R untouched when A = 0");
  for (int j = 0; j < nb; ++j) EXPECT_DOUBLE_EQ(t(j, j), 0.0);  // all taus zero
}

TEST(TsqrtFloat, SinglePrecisionRoundtrip) {
  const int nb = 6, m = 6, ncols = 3;
  Matrix<float> r(nb, nb), v(m, nb), t(nb, nb);
  Rng rng(74);
  for (int j = 0; j < nb; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = static_cast<float>(rng.gaussian());
    r(j, j) += 3.0f;
    for (int i = 0; i < m; ++i) v(i, j) = static_cast<float>(rng.gaussian());
  }
  tsqrt(r.view(), v.view(), t.view());
  Matrix<float> c1(nb, ncols), c2(m, ncols);
  for (int j = 0; j < ncols; ++j)
    for (int i = 0; i < nb; ++i) c1(i, j) = static_cast<float>(rng.gaussian());
  const Matrix<float> c1o = c1, c2o = c2;
  tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
  tsmqr(Trans::No, v.cview(), t.cview(), c1.view(), c2.view());
  for (int j = 0; j < ncols; ++j)
    for (int i = 0; i < nb; ++i) EXPECT_NEAR(c1(i, j), c1o(i, j), 1e-4f);
}

// Exact-width applies: tsmqr/ttmqr dispatched at width nb on a W-wide
// [C1; C2] must equal, bit for bit, nb-wide calls on the same columns — the
// invariance the exact-width solve replay rests on. nb spans both sides of
// the packed-GEMM dispatch threshold (nb^3 vs LUQR_GEMM_SMALL_MNK).
template <typename T>
class StackedApplyDispatchWidth : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(StackedApplyDispatchWidth, Scalars);

TYPED_TEST(StackedApplyDispatchWidth, WideCallMatchesNbWideSlicesBitwise) {
  using T = TypeParam;
  using luqr::testing::converted;
  using luqr::testing::expect_leading_columns_bitwise;
  using luqr::testing::padded_to_tiles;
  for (int nb : {8, 16, 32, 128}) {
    // TS: triangle on square; TT: triangle on triangle.
    auto ts_r = converted<T>(random_upper(nb, 600 + nb));
    auto ts_v = converted<T>(random_matrix(nb, nb, 610 + nb));
    auto tt_r = converted<T>(random_upper(nb, 620 + nb));
    auto tt_v = converted<T>(random_upper(nb, 630 + nb));
    Matrix<T> ts_t(nb, nb), tt_t(nb, nb);
    tsqrt(ts_r.view(), ts_v.view(), ts_t.view());
    ttqrt(tt_r.view(), tt_v.view(), tt_t.view());
    for (int w : {1, 3, nb + 5}) {
      SCOPED_TRACE(::testing::Message() << "nb=" << nb << " W=" << w);
      const auto c1 = converted<T>(random_matrix(nb, w, 700 + w));
      const auto c2 = converted<T>(random_matrix(nb, w, 710 + w));
      for (bool tt : {false, true}) {
        const auto apply = [&](MatrixView<T> top, MatrixView<T> bottom,
                               int dispatch_n) {
          if (tt)
            ttmqr(Trans::Yes, tt_v.cview(), tt_t.cview(), top, bottom, nullptr,
                  dispatch_n);
          else
            tsmqr(Trans::Yes, ts_v.cview(), ts_t.cview(), top, bottom, nullptr,
                  dispatch_n);
        };
        Matrix<T> w1 = c1, w2 = c2;
        apply(w1.view(), w2.view(), nb);
        auto t1 = padded_to_tiles(c1, nb, 720 + w);
        auto t2 = padded_to_tiles(c2, nb, 730 + w);
        for (int c0 = 0; c0 < t1.cols(); c0 += nb)
          apply(t1.view().block(0, c0, nb, nb), t2.view().block(0, c0, nb, nb),
                0);
        const char* what = tt ? "ttmqr" : "tsmqr";
        expect_leading_columns_bitwise(w1, t1, what);
        expect_leading_columns_bitwise(w2, t2, what);
      }
    }
  }
}

}  // namespace
}  // namespace luqr::kern
