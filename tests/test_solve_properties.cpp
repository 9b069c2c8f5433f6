// Property-based sweep over the solver configuration space: for every
// (matrix kind, tile size, grid, criterion) combination the hybrid solver
// must return a finite, accurate solution — with the accuracy threshold
// scaled for ill-conditioned inputs — and its invariants must hold
// (step counts, LU fraction bounds, stability ordering vs the endpoints).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/baselines.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::core {
namespace {

using luqr::testing::random_matrix;
using luqr::testing::solve_serial;

// Well-conditioned kinds where a stable solve must reach ~machine accuracy.
const std::vector<gen::MatrixKind>& nice_kinds() {
  static const std::vector<gen::MatrixKind> kinds = {
      gen::MatrixKind::Random,   gen::MatrixKind::DiagDominant,
      gen::MatrixKind::House,    gen::MatrixKind::Orthog,
      gen::MatrixKind::Circul,   gen::MatrixKind::Hankel,
      gen::MatrixKind::Parter,
  };
  return kinds;
}

using SweepParam = std::tuple<int /*kind idx*/, int /*nb*/, int /*grid p*/>;

class SolveSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SolveSweep, HybridSolveIsAccurate) {
  const auto [kind_idx, nb, p] = GetParam();
  const auto kind = nice_kinds()[static_cast<std::size_t>(kind_idx)];
  const int n = 64;
  const auto a = gen::generate(kind, n, 1000 + kind_idx);
  const auto b = random_matrix(n, 1, 2000);
  MaxCriterion crit(50.0);
  HybridOptions opt;
  opt.grid_p = p;
  const auto result = solve_serial(a, b, crit, nb, opt);
  EXPECT_LT(verify::relative_residual(a, result.x, b), 1e-12)
      << gen::kind_name(kind) << " nb=" << nb << " p=" << p;
  const int steps = result.stats.lu_steps + result.stats.qr_steps;
  EXPECT_EQ(steps, (n + nb - 1) / nb);
  EXPECT_GE(result.stats.lu_fraction(), 0.0);
  EXPECT_LE(result.stats.lu_fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolveSweep,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Values(8, 16, 32),
                       ::testing::Values(1, 2)));

// For every Table III special, the tight hybrid (small alpha, i.e. mostly
// QR) must produce an HPL3 no worse than a loose multiple of pure HQR's.
class SpecialStability : public ::testing::TestWithParam<int> {};

TEST_P(SpecialStability, TightHybridTracksHqr) {
  const auto kind = gen::special_set()[static_cast<std::size_t>(GetParam())];
  const int n = 48, nb = 8;
  const auto a = gen::generate(kind, n, 3000);
  const auto b = random_matrix(n, 1, 3001);

  const auto hqr = baselines::hqr_solve(a, b, nb);
  const double h_hqr = verify::hpl3(a, hqr.x, b);

  MaxCriterion tight(0.1);
  HybridOptions opt;
  opt.exact_inv_norm = true;
  const auto hybrid = solve_serial(a, b, tight, nb, opt);
  const double h_hybrid = verify::hpl3(a, hybrid.x, b);

  ASSERT_TRUE(std::isfinite(h_hybrid)) << gen::kind_name(kind);
  EXPECT_LT(h_hybrid, std::max(1.0, h_hqr * 1e3)) << gen::kind_name(kind);
}

INSTANTIATE_TEST_SUITE_P(AllSpecials, SpecialStability, ::testing::Range(0, 21));

TEST(SolveProperties, SolutionSatisfiesEachEquationRow) {
  // Componentwise check on a modest system: every row residual small
  // relative to the row scale.
  const int n = 40;
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, n, 7);
  const auto b = random_matrix(n, 1, 8);
  MaxCriterion crit(50.0);
  const auto result = solve_serial(a, b, crit, 8, {});
  for (int i = 0; i < n; ++i) {
    double ax = 0.0, scale = 0.0;
    for (int j = 0; j < n; ++j) {
      ax += a(i, j) * result.x(j, 0);
      scale += std::abs(a(i, j) * result.x(j, 0));
    }
    EXPECT_LT(std::abs(ax - b(i, 0)), 1e-11 * (scale + std::abs(b(i, 0))))
        << "row " << i;
  }
}

TEST(SolveProperties, ScalingEquivariance) {
  // Solving (c A) x = c b must give the same x (criteria are scale-aware:
  // both sides of every test scale identically).
  const int n = 48;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 9);
  const auto b = random_matrix(n, 1, 10);
  Matrix<double> a2 = a, b2 = b;
  const double c = 1024.0;  // power of two: exact scaling
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) a2(i, j) = c * a(i, j);
    b2(j, 0) = c * b(j, 0);
  }
  MaxCriterion c1(30.0), c2(30.0);
  HybridOptions opt;
  opt.exact_inv_norm = true;
  const auto r1 = solve_serial(a, b, c1, 16, opt);
  const auto r2 = solve_serial(a2, b2, c2, 16, opt);
  EXPECT_EQ(r1.stats.lu_steps, r2.stats.lu_steps);
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(r1.x(i, 0), r2.x(i, 0));
}

TEST(SolveProperties, IdentityMatrixSolvesTrivially) {
  const int n = 32;
  const auto a = Matrix<double>::identity(n);
  const auto b = random_matrix(n, 1, 11);
  MaxCriterion crit(10.0);
  const auto result = solve_serial(a, b, crit, 8, {});
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(result.x(i, 0), b(i, 0));
}

TEST(SolveProperties, ManufacturedSolutionRecovered) {
  const int n = 56;
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, n, 12);
  const auto x_true = random_matrix(n, 1, 13);
  Matrix<double> b(n, 1);
  kern::gemm(kern::Trans::No, kern::Trans::No, 1.0, a.cview(), x_true.cview(),
             0.0, b.view());
  MaxCriterion crit(50.0);
  const auto result = solve_serial(a, b, crit, 16, {});
  EXPECT_LT(verify::max_abs_error(result.x, x_true), 1e-10);
}

TEST(SolveProperties, RepeatedSolvesAreDeterministic) {
  const int n = 48;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 14);
  const auto b = random_matrix(n, 1, 15);
  MaxCriterion c1(20.0), c2(20.0);
  const auto r1 = solve_serial(a, b, c1, 16, {});
  const auto r2 = solve_serial(a, b, c2, 16, {});
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(r1.x(i, 0), r2.x(i, 0));
}

}  // namespace
}  // namespace luqr::core
