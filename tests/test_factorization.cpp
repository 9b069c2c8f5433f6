// Tests for the retained Factorization API (§II-D-1 second pass): replayed
// transformations must reproduce the fused-RHS solve exactly, across
// criteria, variants, grids and trees; iterative refinement must improve
// LU-heavy solves; repeated solves must be independent.
#include <gtest/gtest.h>

#include <cmath>

#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "kernels/blas.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::core {
namespace {

using luqr::testing::random_matrix;
using luqr::testing::solve_serial;

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
  const auto fused = solve_serial(a, b, c1, 16, opt);
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
  const auto fused = solve_serial(a, b, c1, 16, opt);
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

// The independent bitwise reference for the retained solve: the fused-RHS
// driver, where the step graph itself transforms b as extra tile columns
// with tile-width kernels, finished by solve_augmented.
template <typename T>
Matrix<T> fused_solve(const Matrix<T>& a, const Matrix<T>& b,
                      Criterion& criterion, int nb,
                      const HybridOptions& opt = {}) {
  TileMatrix<T> aug = make_augmented(a, b, nb);
  const auto stats = hybrid_factor(aug, criterion, opt);
  return solve_augmented(aug, &stats, a.rows(), b.cols());
}

// Column j of `m` as a one-column matrix.
template <typename T>
Matrix<T> column(const Matrix<T>& m, int j) {
  Matrix<T> out(m.rows(), 1);
  for (int i = 0; i < m.rows(); ++i) out(i, 0) = m(i, j);
  return out;
}

// Column j of the W-wide solve x = fac.solve(b) must be the solve of column
// j alone, bit for bit. The fused reference shares the back-substitution,
// so this is the check that its kernels keep nb as the dispatch width.
template <typename Fac, typename T>
void expect_width_invariant(const Fac& fac, const Matrix<T>& b,
                            const Matrix<T>& x) {
  for (int j = 0; j < b.cols(); ++j)
    luqr::testing::expect_leading_columns_bitwise(
        fac.solve(column(b, j)), column(x, j), "single column vs W-wide");
}

TEST(Factorization, RetainedMatchesFusedBitwiseAtEveryWidth) {
  // The retained solve runs every replay/back-substitution kernel once at
  // the full RHS width, dispatched as for an nb-wide tile, so per-element
  // arithmetic is bit-identical to the fused driver's tile columns at every
  // width — and column j of a W-wide solve is the solve of column j alone.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 21);
  MaxCriterion crit(30.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  for (int cols : {1, 2, 3, 8, 32, 37, 64}) {
    const auto b = random_matrix(96, cols, 400 + cols);
    MaxCriterion fused_crit(30.0);
    const auto x_fused = fused_solve(a, b, fused_crit, 32);
    const auto x = fac.solve(b);
    ASSERT_EQ(x.rows(), x_fused.rows());
    ASSERT_EQ(x.cols(), cols);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i)
        EXPECT_EQ(x(i, j), x_fused(i, j)) << i << "," << j;
    SCOPED_TRACE(::testing::Message() << "width " << cols);
    expect_width_invariant(fac, b, x);
  }
}

TEST(Factorization, RetainedMatchesFusedQrStepsAndVariants) {
  // QR steps replay their orthogonal applies once at the full panel width,
  // dispatched as for an nb-wide tile; A2 exercises the diagonal UNMQR
  // apply, B1/B2 the block-diagonal solves. All must match the fused
  // driver bitwise (same kernel branches, per-column arithmetic), and each
  // column must match its own one-column solve: at nb = 32 a one-column
  // kernel re-dispatched on its own width takes the simple loops, a
  // 37-wide one the packed path.
  for (auto variant :
       {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2})
    for (int cols : {5, 37}) {
      const auto a = gen::generate(gen::MatrixKind::Random, 64, 23);
      const auto b = random_matrix(64, cols, 24);
      HybridOptions opt;
      opt.variant = variant;
      const double alpha = variant == LuVariant::A1 ? 2.0 : 1e9;  // A1: mixed
      MaxCriterion crit(alpha), fused_crit(alpha);
      const auto fac = Factorization::compute(a, crit, 32, opt);
      const auto x_fused = fused_solve(a, b, fused_crit, 32, opt);
      const auto x = fac.solve(b);
      for (int j = 0; j < cols; ++j)
        for (int i = 0; i < 64; ++i)
          EXPECT_EQ(x(i, j), x_fused(i, j))
              << static_cast<int>(variant) << " @ " << i << "," << j;
      SCOPED_TRACE(::testing::Message() << "variant "
                                        << static_cast<int>(variant)
                                        << " width " << cols);
      expect_width_invariant(fac, b, x);
    }
}

TEST(Factorization, RefinementAndPaddingBitwise) {
  // A non-tile-multiple order still matches the fused driver, and
  // solve(b, 2) is exactly two sweeps of x += solve(b - A x) written out
  // through plain solves.
  const auto a = gen::generate(gen::MatrixKind::Random, 75, 25);
  const auto b = random_matrix(75, 6, 26);
  MaxCriterion crit(40.0), fused_crit(40.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  const auto x_fused = fused_solve(a, b, fused_crit, 32);
  auto x = fac.solve(b, 0);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 75; ++i) EXPECT_EQ(x(i, j), x_fused(i, j));
  for (int sweep = 0; sweep < 2; ++sweep) {
    Matrix<double> r = b;
    kern::gemm(kern::Trans::No, kern::Trans::No, -1.0, a.cview(), x.cview(),
               1.0, r.view());
    const auto d = fac.solve(r, 0);
    for (int j = 0; j < 6; ++j)
      for (int i = 0; i < 75; ++i) x(i, j) += d(i, j);
  }
  const auto x_refined = fac.solve(b, 2);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 75; ++i) EXPECT_EQ(x_refined(i, j), x(i, j));
  EXPECT_LT(verify::relative_residual(a, x_refined, b), 1e-12);
}

TEST(Factorization, ExactWidthPanelOnAllLuFactorizations) {
  // Diagonally dominant input + Max criterion: every step is LU/A1, and
  // the panel is the exact RHS width (no tile padding) — including the
  // serving-critical single-column case. Still bitwise vs the fused driver.
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 96, 33);
  MaxCriterion crit(100.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  ASSERT_EQ(fac.stats().qr_steps, 0);
  for (int cols : {1, 3, 17}) {
    const auto b = random_matrix(96, cols, 700 + cols);
    MaxCriterion fused_crit(100.0);
    const auto x_fused = fused_solve(a, b, fused_crit, 32);
    const auto x = fac.solve(b);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i) EXPECT_EQ(x(i, j), x_fused(i, j));
  }
  // Padded order: the identity tail is factored as LU/A1 steps as well.
  const auto ap = gen::generate(gen::MatrixKind::DiagDominant, 75, 34);
  MaxCriterion crit2(100.0), fused_crit2(100.0);
  const auto facp = Factorization::compute(ap, crit2, 32, {});
  ASSERT_EQ(facp.stats().qr_steps, 0);
  const auto bp = random_matrix(75, 1, 750);
  const auto xp_fused = fused_solve(ap, bp, fused_crit2, 32);
  const auto xp = facp.solve(bp);
  for (int i = 0; i < 75; ++i) EXPECT_EQ(xp(i, 0), xp_fused(i, 0));
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
void expect_retained_matches_fused(int nb, const HybridOptions& opt,
                                   std::uint64_t seed) {
  using luqr::testing::converted;
  const int n = 3 * nb + nb / 2;  // four tile rows, the last one padded
  const auto a =
      converted<T>(gen::generate(gen::MatrixKind::Random, n, seed));
  AlternatingCriterion crit;
  const auto fac = FactorizationT<T>::compute(a, crit, nb, opt);
  ASSERT_GT(fac.stats().qr_steps, 0);
  ASSERT_GT(fac.stats().lu_steps, 0);
  // Nine columns: at nb = 32 a kernel re-dispatched on its own width would
  // leave the simple loops there, but not for a single column.
  for (int cols : {1, 3, 9}) {
    const auto b = converted<T>(random_matrix(n, cols, seed + cols));
    AlternatingCriterion fused_crit;
    const auto x_fused = fused_solve(a, b, fused_crit, nb, opt);
    const auto x = fac.solve(b);
    luqr::testing::expect_leading_columns_bitwise(x, x_fused,
                                                  "retained vs fused");
    if (cols > 1) expect_width_invariant(fac, b, x);
  }
}

TEST(Factorization, ExactWidthPanelOnQrFactorizations) {
  // Mixed LU/QR factorizations replay their QR steps (Ts and Tt ops) and
  // the A2/B2 diagonal applies at the exact RHS width, each kernel
  // dispatched as for an nb-wide tile: still bitwise vs the fused driver.
  // nb spans both sides of the packed-GEMM threshold; grid_p = 2 adds the
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
          expect_retained_matches_fused<double>(nb, opt, seed);
          expect_retained_matches_fused<float>(nb, opt, seed);
        }
}

TEST(Factorization, SmallTilesUnblockedMirror) {
  // nb = 8 keeps the nb^3 product under the packed-GEMM threshold: the
  // fused driver's tile columns run the simple loops, and the exact-width
  // panel must mirror that choice (not re-dispatch on its larger width) to
  // stay bitwise.
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 29);
  MaxCriterion crit(30.0);
  const auto fac = Factorization::compute(a, crit, 8, {});
  for (int cols : {1, 5, 48}) {
    const auto b = random_matrix(48, cols, 500 + cols);
    MaxCriterion fused_crit(30.0);
    const auto x_fused = fused_solve(a, b, fused_crit, 8);
    const auto x = fac.solve(b);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 48; ++i) EXPECT_EQ(x(i, j), x_fused(i, j));
    expect_width_invariant(fac, b, x);
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
