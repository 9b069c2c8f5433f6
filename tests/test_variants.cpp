// Tests for the LU step variants A2 / B1 / B2 (paper §II-C): all four
// variants compute the same Schur complement, so each must deliver an
// accurate solve; the B variants produce a block upper triangular result
// whose solve replays the stored diagonal factors; and all variants must
// interoperate with QR steps under a criterion.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "baselines/baselines.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::core {
namespace {

using luqr::testing::random_matrix;

class VariantSweep : public ::testing::TestWithParam<LuVariant> {};

TEST_P(VariantSweep, AllLuSolveIsAccurate) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 1);
  const auto b = random_matrix(96, 2, 2);
  AlwaysLU crit;
  HybridOptions opt;
  opt.variant = GetParam();
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  EXPECT_EQ(r.stats.lu_steps, 6);
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-10)
      << static_cast<int>(GetParam());
}

TEST_P(VariantSweep, MixedStepsUnderCriterion) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 3);
  const auto b = random_matrix(96, 1, 4);
  MaxCriterion crit(30.0);
  HybridOptions opt;
  opt.variant = GetParam();
  opt.exact_inv_norm = true;
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  EXPECT_GT(r.stats.qr_steps, 0);  // tight alpha forces some QR
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-12)
      << static_cast<int>(GetParam());
}

TEST_P(VariantSweep, DiagDominantMatrix) {
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 64, 5);
  const auto b = random_matrix(64, 1, 6);
  SumCriterion crit(1.0);
  HybridOptions opt;
  opt.variant = GetParam();
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-13);
}

TEST_P(VariantSweep, PaddedSizes) {
  const auto a = gen::generate(gen::MatrixKind::Random, 70, 7);
  const auto b = random_matrix(70, 1, 8);
  AlwaysLU crit;
  HybridOptions opt;
  opt.variant = GetParam();
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantSweep,
                         ::testing::Values(LuVariant::A1, LuVariant::A2,
                                           LuVariant::B1, LuVariant::B2));

TEST(Variants, AllAgreeWithEachOther) {
  // Different variant, same mathematics: the solutions must agree to
  // rounding on a well-conditioned system.
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 80, 9);
  const auto b = random_matrix(80, 1, 10);
  Matrix<double> reference;
  for (auto variant : {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2}) {
    AlwaysLU crit;
    HybridOptions opt;
    opt.variant = variant;
    const auto r = hybrid_solve(a, b, crit, 16, opt);
    if (variant == LuVariant::A1) {
      reference = r.x;
    } else {
      EXPECT_LT(verify::max_abs_error(r.x, reference), 1e-9)
          << static_cast<int>(variant);
    }
  }
}

TEST(Variants, B1RecordsDiagonalPivots) {
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 11);
  const auto b = random_matrix(48, 1, 12);
  AlwaysLU crit;
  HybridOptions opt;
  opt.variant = LuVariant::B1;
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  for (const auto& s : r.stats.steps) {
    EXPECT_EQ(s.variant, LuVariant::B1);
    EXPECT_EQ(s.diag_piv.size(), 16u);
  }
}

TEST(Variants, B2RecordsDiagonalReflectors) {
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 13);
  const auto b = random_matrix(48, 1, 14);
  AlwaysLU crit;
  HybridOptions opt;
  opt.variant = LuVariant::B2;
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  for (const auto& s : r.stats.steps) EXPECT_NE(s.diag_t, nullptr);
}

TEST(Variants, A2QrFallbackWorks) {
  // Force QR on every step with an A2 configuration: the GEQRT'd diagonal
  // tile must be restored before the HQR elimination.
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 15);
  const auto b = random_matrix(64, 1, 16);
  AlwaysQR crit;
  HybridOptions opt;
  opt.variant = LuVariant::A2;
  opt.grid_p = 2;
  const auto r = hybrid_solve(a, b, crit, 16, opt);
  EXPECT_EQ(r.stats.qr_steps, 4);
  const auto pure = baselines::hqr_solve(a, b, 16, 2, 1);
  for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(r.x(i, 0), pure.x(i, 0));
}

TEST(Variants, BVariantsHandleWilkinsonViaCriterion) {
  // Block-LU variants rely on the criterion exactly like A1; a tight Max
  // threshold must still protect them on the Wilkinson matrix.
  const auto a = gen::generate(gen::MatrixKind::Wilkinson, 64, 0);
  const auto b = random_matrix(64, 1, 17);
  for (auto variant : {LuVariant::B1, LuVariant::B2}) {
    MaxCriterion crit(0.5);
    HybridOptions opt;
    opt.variant = variant;
    opt.exact_inv_norm = true;
    const auto r = hybrid_solve(a, b, crit, 8, opt);
    EXPECT_LT(verify::hpl3(a, r.x, b), 1.0) << static_cast<int>(variant);
  }
}

// Engine sink vs inline sink for one variant at precision T: tiles, step
// trace (including the B1 pivots and B2 reflector factors), TransformLog and
// growth factor must all match bitwise.
template <typename T>
void expect_engine_matches_inline(LuVariant variant, int threads) {
  const auto dense = gen::generate(gen::MatrixKind::Random, 96, 19);
  Matrix<T> a(dense.rows(), dense.cols());
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) a(i, j) = static_cast<T>(dense(i, j));
  HybridOptions opt;
  opt.variant = variant;
  opt.grid_p = 2;
  opt.track_growth = true;
  const std::string label = "variant " + std::to_string(static_cast<int>(variant)) +
                            " threads " + std::to_string(threads) + " " +
                            (sizeof(T) == 8 ? "f64" : "f32");

  TileMatrix<T> inline_tiles = TileMatrix<T>::from_dense(a, 16);
  TransformLogT<T> inline_log;
  RandomCriterion c1(0.5);
  const auto want = hybrid_factor(inline_tiles, c1, opt, &inline_log);
  ASSERT_GT(want.lu_steps, 0) << label;
  ASSERT_GT(want.qr_steps, 0) << label;

  TileMatrix<T> tiles = TileMatrix<T>::from_dense(a, 16);
  TransformLogT<T> log;
  RandomCriterion c2(0.5);
  const auto got = rt::parallel_hybrid_factor(tiles, c2, opt, threads, &log);

  for (int j = 0; j < tiles.cols(); ++j)
    for (int i = 0; i < tiles.rows(); ++i)
      ASSERT_EQ(tiles.at(i, j), inline_tiles.at(i, j))
          << label << " element " << i << "," << j;
  EXPECT_EQ(got.growth_factor, want.growth_factor) << label;
  auto same_matrix = [](const std::shared_ptr<Matrix<T>>& x,
                        const std::shared_ptr<Matrix<T>>& y) {
    if (!x || !y) return !x && !y;
    for (int j = 0; j < x->cols(); ++j)
      for (int i = 0; i < x->rows(); ++i)
        if ((*x)(i, j) != (*y)(i, j)) return false;
    return x->rows() == y->rows() && x->cols() == y->cols();
  };
  ASSERT_EQ(got.steps.size(), want.steps.size()) << label;
  for (std::size_t k = 0; k < got.steps.size(); ++k) {
    EXPECT_EQ(got.steps[k].kind, want.steps[k].kind) << label << " step " << k;
    EXPECT_EQ(got.steps[k].diag_piv, want.steps[k].diag_piv) << label << " step " << k;
    EXPECT_TRUE(same_matrix(got.steps[k].diag_t, want.steps[k].diag_t))
        << label << " step " << k;
  }
  ASSERT_EQ(log.size(), inline_log.size()) << label;
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].lu, inline_log[k].lu) << label << " step " << k;
    EXPECT_EQ(log[k].piv, inline_log[k].piv) << label << " step " << k;
    EXPECT_EQ(log[k].domain_rows, inline_log[k].domain_rows) << label << " step " << k;
    EXPECT_TRUE(same_matrix(log[k].diag_t, inline_log[k].diag_t))
        << label << " step " << k;
    ASSERT_EQ(log[k].qr_ops.size(), inline_log[k].qr_ops.size()) << label;
    for (std::size_t o = 0; o < log[k].qr_ops.size(); ++o) {
      EXPECT_EQ(log[k].qr_ops[o].kind, inline_log[k].qr_ops[o].kind) << label;
      EXPECT_EQ(log[k].qr_ops[o].killer, inline_log[k].qr_ops[o].killer) << label;
      EXPECT_EQ(log[k].qr_ops[o].killed, inline_log[k].qr_ops[o].killed) << label;
      EXPECT_TRUE(same_matrix(log[k].qr_ops[o].t, inline_log[k].qr_ops[o].t))
          << label << " step " << k << " op " << o;
    }
  }
}

TEST_P(VariantSweep, EngineSinkMatchesInlineSinkBitwise) {
  for (int threads : {1, 4}) {
    expect_engine_matches_inline<double>(GetParam(), threads);
    expect_engine_matches_inline<float>(GetParam(), threads);
  }
}

}  // namespace
}  // namespace luqr::core
