// Tests for the LU step variants A2 / B1 / B2 (paper §II-C): all four
// variants compute the same Schur complement, so each must deliver an
// accurate solve; the B variants produce a block upper triangular result
// whose solve replays the stored diagonal factors; and all variants must
// interoperate with QR steps under a criterion.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::core {
namespace {

using luqr::testing::random_matrix;
using luqr::testing::solve_serial;

class VariantSweep : public ::testing::TestWithParam<LuVariant> {};

TEST_P(VariantSweep, MixedStepsUnderCriterion) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 3);
  const auto b = random_matrix(96, 1, 4);
  MaxCriterion crit(30.0);
  HybridOptions opt;
  opt.variant = GetParam();
  opt.exact_inv_norm = true;
  const auto r = solve_serial(a, b, crit, 16, opt);
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
  const auto r = solve_serial(a, b, crit, 16, opt);
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-13);
}

TEST_P(VariantSweep, PaddedSizes) {
  const auto a = gen::generate(gen::MatrixKind::Random, 70, 7);
  const auto b = random_matrix(70, 1, 8);
  AlwaysLU crit;
  HybridOptions opt;
  opt.variant = GetParam();
  const auto r = solve_serial(a, b, crit, 16, opt);
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
    const auto r = solve_serial(a, b, crit, 16, opt);
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
  const auto r = solve_serial(a, b, crit, 16, opt);
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
  const auto r = solve_serial(a, b, crit, 16, opt);
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
  const auto r = solve_serial(a, b, crit, 16, opt);
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
    const auto r = solve_serial(a, b, crit, 8, opt);
    EXPECT_LT(verify::hpl3(a, r.x, b), 1.0) << static_cast<int>(variant);
  }
}

}  // namespace
}  // namespace luqr::core
