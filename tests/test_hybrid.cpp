// Integration tests for the hybrid LU-QR factorization and solver:
// correctness of the solve across criteria / grids / pivot scopes / trees,
// endpoint equivalences (alpha = 0 vs HQR), step accounting, growth-factor
// bounds, padding, and multiple right-hand sides.
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

// Solve with a manufactured solution and return the max forward error scale
// (relative residual is the primary metric; forward error needs conditioning).
double solve_residual(const Matrix<double>& a, Criterion& crit, int nb,
                      const HybridOptions& opt = {}, int nrhs = 1) {
  const auto b = random_matrix(a.rows(), nrhs, 77);
  const auto result = solve_serial(a, b, crit, nb, opt);
  return verify::relative_residual(a, result.x, b);
}

TEST(HybridSolve, MaxCriterionOnRandomMatrix) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 1);
  MaxCriterion crit(100.0);
  EXPECT_LT(solve_residual(a, crit, 16), 1e-13);
}

TEST(HybridSolve, SumCriterionOnRandomMatrix) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 2);
  SumCriterion crit(100.0);
  EXPECT_LT(solve_residual(a, crit, 16), 1e-13);
}

TEST(HybridSolve, MumpsCriterionOnRandomMatrix) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 3);
  MumpsCriterion crit(2.1);
  EXPECT_LT(solve_residual(a, crit, 16), 1e-13);
}

TEST(HybridSolve, MixedStepsActuallyOccur) {
  // On a random matrix with a mid-range alpha, both LU and QR steps should
  // appear (this is the whole point of the hybrid).
  const auto a = gen::generate(gen::MatrixKind::Random, 128, 4);
  MaxCriterion crit(20.0);
  const auto b = random_matrix(128, 1, 5);
  HybridOptions opt;
  opt.grid_p = 2;
  opt.grid_q = 2;
  const auto result = solve_serial(a, b, crit, 16, opt);
  EXPECT_GT(result.stats.lu_steps, 0);
  EXPECT_GT(result.stats.qr_steps, 0);
  EXPECT_EQ(result.stats.lu_steps + result.stats.qr_steps, 8);
  EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-13);
}

TEST(HybridSolve, AlwaysQrMatchesPureHqr) {
  // alpha = 0: every step is QR; the solution must match the HQR baseline
  // bitwise (same kernels in the same order once the panel is restored).
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 6);
  const auto b = random_matrix(64, 1, 7);
  AlwaysQR crit;
  HybridOptions opt;
  opt.grid_p = 2;
  const auto hybrid = solve_serial(a, b, crit, 16, opt);
  const auto pure = baselines::hqr_solve(a, b, 16, 2, 1);
  EXPECT_EQ(hybrid.stats.qr_steps, 4);
  for (int i = 0; i < 64; ++i)
    EXPECT_DOUBLE_EQ(hybrid.x(i, 0), pure.x(i, 0)) << "row " << i;
}

TEST(HybridSolve, DiagDominantAcceptsEveryLuStep) {
  // Block diagonally dominant matrices satisfy the Sum criterion (alpha >= 1)
  // at every step (paper §III-B).
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 96, 8);
  SumCriterion crit(1.0);
  const auto b = random_matrix(96, 1, 9);
  const auto result = solve_serial(a, b, crit, 16, {});
  EXPECT_EQ(result.stats.lu_steps, 6);
  EXPECT_EQ(result.stats.qr_steps, 0);
  EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-14);
}

TEST(HybridSolve, PivotScopeTileVsDomainVsPanel) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 10);
  const auto b = random_matrix(96, 1, 11);
  for (PivotScope scope :
       {PivotScope::Tile, PivotScope::Domain, PivotScope::Panel}) {
    AlwaysLU crit;
    HybridOptions opt;
    opt.scope = scope;
    opt.grid_p = 2;
    const auto result = solve_serial(a, b, crit, 16, opt);
    EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-10)
        << "scope " << static_cast<int>(scope);
  }
}

TEST(HybridSolve, GridShapesGiveSameQualitySolutions) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 12);
  const auto b = random_matrix(96, 1, 13);
  for (int p : {1, 2, 3, 6}) {
    MaxCriterion crit(50.0);
    HybridOptions opt;
    opt.grid_p = p;
    opt.grid_q = 6 / p;
    const auto result = solve_serial(a, b, crit, 16, opt);
    EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-13) << "p=" << p;
  }
}

TEST(HybridSolve, AllReductionTreesAgree) {
  const auto a = gen::generate(gen::MatrixKind::Random, 80, 14);
  const auto b = random_matrix(80, 1, 15);
  for (hqr::LocalTree local :
       {hqr::LocalTree::FlatTS, hqr::LocalTree::FlatTT, hqr::LocalTree::Binary,
        hqr::LocalTree::Greedy, hqr::LocalTree::Fibonacci}) {
    for (hqr::DistTree dist : {hqr::DistTree::Flat, hqr::DistTree::Fibonacci}) {
      AlwaysQR crit;
      HybridOptions opt;
      opt.grid_p = 2;
      opt.tree = {local, dist};
      const auto result = solve_serial(a, b, crit, 16, opt);
      EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-13)
          << hqr::to_string(local) << "/" << hqr::to_string(dist);
    }
  }
}

TEST(HybridSolve, PaddingHandlesNonMultipleSizes) {
  for (int n : {10, 33, 47, 65}) {
    const auto a = gen::generate(gen::MatrixKind::Random, n, 16 + n);
    const auto b = random_matrix(n, 1, 17);
    MaxCriterion crit(50.0);
    const auto result = solve_serial(a, b, crit, 16, {});
    ASSERT_EQ(result.x.rows(), n);
    EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-12) << "n=" << n;
  }
}

TEST(HybridSolve, MultipleRightHandSides) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 18);
  const auto b = random_matrix(64, 5, 19);
  MaxCriterion crit(50.0);
  const auto result = solve_serial(a, b, crit, 16, {});
  ASSERT_EQ(result.x.cols(), 5);
  EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-13);
}

TEST(HybridSolve, ExactInvNormOptionAgrees) {
  // The estimator may flip borderline decisions but both settings must
  // produce accurate solves.
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 20);
  for (bool exact : {false, true}) {
    MaxCriterion crit(30.0);
    HybridOptions opt;
    opt.exact_inv_norm = exact;
    EXPECT_LT(solve_residual(a, crit, 16, opt), 1e-13) << "exact=" << exact;
  }
}

TEST(HybridFactor, StepRecordsAreComplete) {
  const auto a = gen::generate(gen::MatrixKind::Random, 80, 21);
  auto aug = make_augmented(a, random_matrix(80, 1, 22), 16);
  MaxCriterion crit(25.0);
  const auto stats = hybrid_factor(aug, crit, {});
  ASSERT_EQ(stats.steps.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(stats.steps[static_cast<std::size_t>(k)].k, k);
    EXPECT_GE(stats.steps[static_cast<std::size_t>(k)].inv_norm_akk, 0.0);
  }
  EXPECT_EQ(stats.lu_steps + stats.qr_steps, 5);
}

TEST(HybridFactor, GrowthTrackedAndBoundedByMaxCriterion) {
  // §III-A: with the Max criterion at threshold alpha, tile-norm growth is
  // bounded by (1 + alpha)^{n-1}.
  const double alpha = 2.0;
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 23);
  auto aug = make_augmented(a, random_matrix(96, 1, 24), 16);
  MaxCriterion crit(alpha);
  HybridOptions opt;
  opt.track_growth = true;
  opt.exact_inv_norm = true;
  const auto stats = hybrid_factor(aug, crit, opt);
  const int n = 6;
  EXPECT_GE(stats.growth_factor, 1.0);
  EXPECT_LE(stats.growth_factor, std::pow(1.0 + alpha, n - 1) * 1.01);
}

TEST(HybridFactor, GrowthExampleMatrixShowsLargeNoPivGrowth) {
  // The §III-A matrix attains ~2^{n-1} growth when every step is LU; the
  // Max criterion with alpha < 1 must suppress it via QR steps.
  const int nb = 8, ntiles = 8, n = nb * ntiles;
  const auto a = gen::generate(gen::MatrixKind::GrowthExample, n, 0, 1.0);
  const auto b = random_matrix(n, 1, 25);

  auto aug1 = make_augmented(a, b, nb);
  AlwaysLU always;
  HybridOptions opt;
  opt.track_growth = true;
  const auto g_lu = hybrid_factor(aug1, always, opt).growth_factor;

  auto aug2 = make_augmented(a, b, nb);
  MaxCriterion tight(0.9);
  opt.exact_inv_norm = true;
  const auto g_hybrid = hybrid_factor(aug2, tight, opt).growth_factor;

  EXPECT_GT(g_lu, 1e6);       // exponential growth under pure LU
  EXPECT_LT(g_hybrid, g_lu);  // the criterion intervenes
}

TEST(HybridSolve, LuFractionDecreasesWithAlpha) {
  // Tighter alpha => fewer LU steps (the Figure 2 monotonicity).
  const auto a = gen::generate(gen::MatrixKind::Random, 128, 26);
  const auto b = random_matrix(128, 1, 27);
  double prev_fraction = 1.1;
  for (double alpha : {1000.0, 20.0, 2.0, 0.0}) {
    MaxCriterion crit(alpha);
    HybridOptions opt;
    opt.exact_inv_norm = true;
    const auto result = solve_serial(a, b, crit, 16, opt);
    const double f = result.stats.lu_fraction();
    EXPECT_LE(f, prev_fraction + 1e-12) << "alpha=" << alpha;
    prev_fraction = f;
  }
}

TEST(HybridSolve, SingleTileProblem) {
  const auto a = gen::generate(gen::MatrixKind::Random, 8, 28);
  const auto b = random_matrix(8, 1, 29);
  MaxCriterion crit(50.0);
  const auto result = solve_serial(a, b, crit, 8, {});
  EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-13);
}

TEST(HybridSolve, RhsDimensionMismatchThrows) {
  const auto a = random_matrix(16, 16, 30);
  const auto b = random_matrix(8, 1, 31);
  MaxCriterion crit(1.0);
  EXPECT_THROW(solve_serial(a, b, crit, 8, {}), Error);
}

TEST(HybridSolve, NonSquareMatrixThrows) {
  const auto a = random_matrix(16, 12, 32);
  const auto b = random_matrix(16, 1, 33);
  MaxCriterion crit(1.0);
  EXPECT_THROW(solve_serial(a, b, crit, 8, {}), Error);
}

TEST(BackSubstitute, RequiresRhsColumns) {
  // The panel must have exactly mt*nb rows.
  TileMatrix<double> square(2, 2, 4);
  Matrix<double> short_panel(7, 1);
  EXPECT_THROW(back_substitute<double>(square, nullptr, short_panel.view()),
               Error);
  // A fused solve cannot ask for more columns than its RHS tile columns
  // hold: none on a square matrix, nb on one RHS tile column.
  EXPECT_THROW(solve_augmented<double>(square, nullptr, 8, 1), Error);
  TileMatrix<double> aug(2, 3, 4);
  EXPECT_THROW(solve_augmented<double>(aug, nullptr, 8, 5), Error);
}

}  // namespace
}  // namespace luqr::core
