// Tests for the retained Factorization API (§II-D-1 second pass): replayed
// transformations must reproduce the fused-RHS solve exactly, across
// criteria, variants, grids and trees; iterative refinement must improve
// LU-heavy solves; repeated solves must be independent.
#include <gtest/gtest.h>

#include <cmath>

#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::core {
namespace {

using luqr::testing::random_matrix;

TEST(Factorization, SecondPassMatchesFusedSolveBitwise) {
  // The fused driver transforms b alongside A; the retained factorization
  // replays the same kernels in the same order on b afterwards. The
  // arithmetic is identical, so the solutions must agree bitwise.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 1);
  const auto b = random_matrix(96, 1, 2);
  HybridOptions opt;
  opt.grid_p = 2;
  opt.grid_q = 2;
  MaxCriterion c1(30.0), c2(30.0);
  const auto fused = hybrid_solve(a, b, c1, 16, opt);
  const auto fac = Factorization::compute(a, c2, 16, opt);
  const auto x = fac.solve(b);
  ASSERT_EQ(fac.stats().lu_steps, fused.stats.lu_steps);
  for (int i = 0; i < 96; ++i) EXPECT_DOUBLE_EQ(x(i, 0), fused.x(i, 0)) << i;
}

TEST(Factorization, AllQrStepsReplayCorrectly) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 3);
  const auto b = random_matrix(64, 1, 4);
  AlwaysQR c1, c2;
  HybridOptions opt;
  opt.grid_p = 2;
  const auto fused = hybrid_solve(a, b, c1, 16, opt);
  const auto fac = Factorization::compute(a, c2, 16, opt);
  const auto x = fac.solve(b);
  for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(x(i, 0), fused.x(i, 0));
}

TEST(Factorization, TreeVariationsReplay) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 5);
  const auto b = random_matrix(64, 1, 6);
  for (hqr::LocalTree local : {hqr::LocalTree::FlatTS, hqr::LocalTree::Greedy,
                               hqr::LocalTree::Fibonacci}) {
    AlwaysQR crit;
    HybridOptions opt;
    opt.grid_p = 2;
    opt.tree.local = local;
    const auto fac = Factorization::compute(a, crit, 16, opt);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-13)
        << hqr::to_string(local);
  }
}

TEST(Factorization, EveryLuVariantReplays) {
  const auto a = gen::generate(gen::MatrixKind::Random, 80, 7);
  const auto b = random_matrix(80, 2, 8);
  for (auto variant : {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2}) {
    AlwaysLU crit;
    HybridOptions opt;
    opt.variant = variant;
    const auto fac = Factorization::compute(a, crit, 16, opt);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-10)
        << static_cast<int>(variant);
  }
}

TEST(Factorization, ManySolvesFromOneFactorization) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 9);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  for (int s = 0; s < 5; ++s) {
    const auto b = random_matrix(64, 1, 100 + s);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-12) << "rhs " << s;
  }
}

TEST(Factorization, SolvesAreIndependent) {
  // Solving with one b must not perturb a later solve with another.
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 10);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  const auto b1 = random_matrix(48, 1, 11);
  const auto b2 = random_matrix(48, 1, 12);
  const auto x2_first = fac.solve(b2);
  (void)fac.solve(b1);
  const auto x2_second = fac.solve(b2);
  for (int i = 0; i < 48; ++i) EXPECT_DOUBLE_EQ(x2_first(i, 0), x2_second(i, 0));
}

TEST(Factorization, PaddedSizes) {
  const auto a = gen::generate(gen::MatrixKind::Random, 53, 13);
  const auto b = random_matrix(53, 1, 14);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  EXPECT_EQ(fac.order(), 53);
  const auto x = fac.solve(b);
  EXPECT_LT(verify::relative_residual(a, x, b), 1e-12);
}

TEST(Factorization, RefinementImprovesUnstableSolve) {
  // An all-LU factorization of the growth-example matrix loses digits;
  // iterative refinement with the retained original must win them back.
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::GrowthExample, n, 0, 1.0);
  const auto b = random_matrix(n, 1, 15);
  AlwaysLU crit;
  const auto fac = Factorization::compute(a, crit, 8, {});
  const auto x0 = fac.solve(b, /*refinement_sweeps=*/0);
  const auto x2 = fac.solve(b, /*refinement_sweeps=*/2);
  const double h0 = verify::hpl3(a, x0, b);
  const double h2 = verify::hpl3(a, x2, b);
  EXPECT_LT(h2, h0 * 0.1);  // at least an order of magnitude better
  EXPECT_LT(h2, 1.0);
}

TEST(Factorization, RefinementIsNoOpOnAccurateSolve) {
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 48, 16);
  const auto b = random_matrix(48, 1, 17);
  SumCriterion crit(1.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  const auto x0 = fac.solve(b, 0);
  const auto x1 = fac.solve(b, 1);
  EXPECT_LT(verify::max_abs_error(x0, x1), 1e-12);
}

TEST(Factorization, WideBlockedPathMatchesPerColumnBitwise) {
  // The wide multi-RHS path runs every replay/back-substitution GEMM once
  // at the full RHS width through the same kernel the per-tile-column
  // dispatch picks, so per-element arithmetic is bit-identical to the
  // per-tile-column layout at every width.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 21);
  MaxCriterion crit(30.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  for (int cols : {1, 2, 3, 8, 32, 37, 64}) {
    const auto b = random_matrix(96, cols, 400 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_wide = fac.solve(b, 0, RhsPath::WideBlocked);
    const auto x_auto = fac.solve(b);  // Auto must pick the wide path here
    ASSERT_EQ(x_wide.rows(), x_col.rows());
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i) {
        EXPECT_EQ(x_wide(i, j), x_col(i, j)) << i << "," << j;
        EXPECT_EQ(x_auto(i, j), x_col(i, j)) << i << "," << j;
      }
  }
}

TEST(Factorization, WideBlockedPathQrStepsAndVariants) {
  // QR steps replay their orthogonal applies once at the full panel width,
  // dispatched as for an nb-wide tile; A2 exercises the diagonal UNMQR
  // apply, B1/B2 the block-diagonal solves. All must match the per-column
  // path bitwise (same kernel branches, per-column arithmetic).
  for (auto variant :
       {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2}) {
    const auto a = gen::generate(gen::MatrixKind::Random, 64, 23);
    const auto b = random_matrix(64, 5, 24);
    HybridOptions opt;
    opt.variant = variant;
    MaxCriterion crit(variant == LuVariant::A1 ? 2.0 : 1e9);  // A1: mixed LU/QR
    const auto fac = Factorization::compute(a, crit, 32, opt);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_wide = fac.solve(b, 0, RhsPath::WideBlocked);
    for (int j = 0; j < 5; ++j)
      for (int i = 0; i < 64; ++i)
        EXPECT_EQ(x_wide(i, j), x_col(i, j))
            << static_cast<int>(variant) << " @ " << i << "," << j;
  }
}

TEST(Factorization, WidePathRefinementAndPadding) {
  // Refinement sweeps and non-tile-multiple orders go through the same
  // wide machinery.
  const auto a = gen::generate(gen::MatrixKind::Random, 75, 25);
  const auto b = random_matrix(75, 6, 26);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  const auto x_col = fac.solve(b, 2, RhsPath::PerTileColumn);
  const auto x_wide = fac.solve(b, 2, RhsPath::WideBlocked);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 75; ++i) EXPECT_EQ(x_wide(i, j), x_col(i, j));
  EXPECT_LT(verify::relative_residual(a, x_wide, b), 1e-12);
}

TEST(Factorization, ExactWidthPanelOnAllLuFactorizations) {
  // Diagonally dominant input + Max criterion: every step is LU/A1, and
  // the wide panel is the exact RHS width (no tile padding) — including the
  // serving-critical single-column case. Still bitwise vs per-column.
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 96, 33);
  MaxCriterion crit(100.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  ASSERT_EQ(fac.stats().qr_steps, 0);
  for (int cols : {1, 3, 17}) {
    const auto b = random_matrix(96, cols, 700 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_auto = fac.solve(b);  // Auto: exact-width wide panel
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i) EXPECT_EQ(x_auto(i, j), x_col(i, j));
  }
  // Padded order: the identity tail is factored as LU/A1 steps as well.
  const auto ap = gen::generate(gen::MatrixKind::DiagDominant, 75, 34);
  MaxCriterion crit2(100.0);
  const auto facp = Factorization::compute(ap, crit2, 32, {});
  ASSERT_EQ(facp.stats().qr_steps, 0);
  const auto bp = random_matrix(75, 1, 750);
  const auto xp_col = facp.solve(bp, 0, RhsPath::PerTileColumn);
  const auto xp_auto = facp.solve(bp);
  for (int i = 0; i < 75; ++i) EXPECT_EQ(xp_auto(i, 0), xp_col(i, 0));
}

// QR on even steps, LU on odd ones: every factorization mixes both.
class AlternatingCriterion : public Criterion {
 public:
  bool accept_lu(const PanelInfo& info) override {
    return info.k % 2 == 1 && !info.factor_failed;
  }
  std::string name() const override { return "alternating"; }
};

// One configuration of ExactWidthPanelOnQrFactorizations, in scalar T.
template <typename T>
void expect_exact_width_matches_per_column(int nb, const HybridOptions& opt,
                                           std::uint64_t seed) {
  using luqr::testing::converted;
  const int n = 3 * nb + nb / 2;  // four tile rows, the last one padded
  const auto a =
      converted<T>(gen::generate(gen::MatrixKind::Random, n, seed));
  AlternatingCriterion crit;
  const auto fac = FactorizationT<T>::compute(a, crit, nb, opt);
  ASSERT_GT(fac.stats().qr_steps, 0);
  ASSERT_GT(fac.stats().lu_steps, 0);
  for (int cols : {1, 3}) {
    const auto b = converted<T>(random_matrix(n, cols, seed + cols));
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_auto = fac.solve(b);  // Auto: exact-width wide panel
    luqr::testing::expect_leading_columns_bitwise(x_auto, x_col,
                                                  "Auto vs PerTileColumn");
  }
}

TEST(Factorization, ExactWidthPanelOnQrFactorizations) {
  // Mixed LU/QR factorizations replay their QR steps (Ts and Tt ops) and
  // the A2/B2 diagonal applies at the exact RHS width, each kernel
  // dispatched as for an nb-wide tile: still bitwise vs per-column. nb
  // spans both sides of the packed-GEMM threshold; grid_p = 2 adds the
  // distributed TT tree on top of the local FlatTS/Greedy one.
  std::uint64_t seed = 40;
  for (auto variant :
       {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2})
    for (int grid_p : {1, 2})
      for (auto local : {hqr::LocalTree::FlatTS, hqr::LocalTree::Greedy})
        for (int nb : {16, 32, 128}) {
          SCOPED_TRACE(::testing::Message()
                       << "variant=" << static_cast<int>(variant)
                       << " grid_p=" << grid_p
                       << " local=" << static_cast<int>(local) << " nb=" << nb);
          HybridOptions opt;
          opt.variant = variant;
          opt.grid_p = grid_p;
          opt.tree.local = local;
          ++seed;
          expect_exact_width_matches_per_column<double>(nb, opt, seed);
          expect_exact_width_matches_per_column<float>(nb, opt, seed);
        }
}

TEST(Factorization, WidePathSmallTilesUnblockedMirror) {
  // nb = 8 keeps the nb^3 product under the packed-GEMM threshold: the
  // per-column path runs the simple loops, and the wide path must mirror
  // that choice (not re-dispatch on its larger width) to stay bitwise.
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 29);
  MaxCriterion crit(30.0);
  const auto fac = Factorization::compute(a, crit, 8, {});
  for (int cols : {1, 5, 48}) {
    const auto b = random_matrix(48, cols, 500 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_wide = fac.solve(b, 0, RhsPath::WideBlocked);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 48; ++i) EXPECT_EQ(x_wide(i, j), x_col(i, j));
  }
}

TEST(Factorization, MemoryBytesAccountsForTilesAndLog) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 27);
  MaxCriterion crit(2.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  // At minimum the factored tiles and the retained original.
  EXPECT_GE(fac.memory_bytes(), 2u * 64u * 64u * sizeof(double));
  EXPECT_EQ(fac.matrix().rows(), 64);
  EXPECT_EQ(fac.matrix().cols(), 64);
}

TEST(Factorization, RejectsWrongShapes) {
  const auto a = random_matrix(32, 24, 18);
  MaxCriterion crit(1.0);
  EXPECT_THROW(Factorization::compute(a, crit, 8, {}), Error);
  const auto sq = random_matrix(32, 32, 19);
  const auto fac = Factorization::compute(sq, crit, 8, {});
  const auto bad_b = random_matrix(16, 1, 20);
  EXPECT_THROW(fac.solve(bad_b), Error);
}

}  // namespace
}  // namespace luqr::core
