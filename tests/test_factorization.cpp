// Tests for the retained Factorization API (§II-D-1 second pass): replayed
// transformations must solve accurately across trees, and reproduce the
// fused-RHS driver exactly in f64 up to nb = 128; iterative refinement
// must improve LU-heavy solves. test_routes checks every solve route,
// variant, padded order and repeated solve against the retained solve, and
// float fused == float retained (its fused/core route).
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

using luqr::testing::factor_serial;
using luqr::testing::random_matrix;

TEST(Factorization, TreeVariationsReplay) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 5);
  const auto b = random_matrix(64, 1, 6);
  for (hqr::LocalTree local : {hqr::LocalTree::FlatTS, hqr::LocalTree::Greedy,
                               hqr::LocalTree::Fibonacci}) {
    AlwaysQR crit;
    HybridOptions opt;
    opt.grid_p = 2;
    opt.tree.local = local;
    const auto fac = factor_serial(a, crit, 16, opt);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-13)
        << hqr::to_string(local);
  }
}

TEST(Factorization, ManySolvesFromOneFactorization) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 9);
  MaxCriterion crit(40.0);
  const auto fac = factor_serial(a, crit, 16, {});
  for (int s = 0; s < 5; ++s) {
    const auto b = random_matrix(64, 1, 100 + s);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-12) << "rhs " << s;
  }
}

TEST(Factorization, RefinementImprovesUnstableSolve) {
  // An all-LU factorization of the growth-example matrix loses digits;
  // iterative refinement with the retained original must win them back.
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::GrowthExample, n, 0, 1.0);
  const auto b = random_matrix(n, 1, 15);
  AlwaysLU crit;
  const auto fac = factor_serial(a, crit, 8, {});
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
  const auto fac = factor_serial(a, crit, 16, {});
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

TEST(Factorization, RefinementSweepsAreExplicitSolves) {
  // solve(b, 2) is exactly two sweeps of x += solve(b - A x) written out
  // through plain solves, at a non-tile-multiple order.
  const auto a = gen::generate(gen::MatrixKind::Random, 75, 25);
  const auto b = random_matrix(75, 6, 26);
  MaxCriterion crit(40.0);
  const auto fac = factor_serial(a, crit, 32);
  auto x = fac.solve(b, 0);
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

// QR on even steps, LU on odd ones: every factorization mixes both.
class AlternatingCriterion : public Criterion {
 public:
  bool accept_lu(const PanelInfo& info) override {
    return info.k % 2 == 1 && !info.factor_failed;
  }
  std::string name() const override { return "alternating"; }
};

// One configuration of ExactWidthPanelOnQrFactorizations.
void expect_retained_matches_fused(int nb, const HybridOptions& opt,
                                   std::uint64_t seed) {
  const int n = 3 * nb + nb / 2;  // four tile rows, the last one padded
  const auto a = gen::generate(gen::MatrixKind::Random, n, seed);
  AlternatingCriterion crit;
  const auto fac = FactorizationT<double>::compute(a, crit, nb, opt);
  ASSERT_GT(fac.stats().qr_steps, 0);
  ASSERT_GT(fac.stats().lu_steps, 0);
  // Nine columns: at nb = 32 a kernel re-dispatched on its own width would
  // leave the simple loops there, but not for a single column.
  for (int cols : {1, 3, 9}) {
    const auto b = random_matrix(n, cols, seed + cols);
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
  // distributed TT tree on top of the local FlatTS/Greedy one. The float
  // half of this check is test_routes' fused/core route.
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
          expect_retained_matches_fused(nb, opt, seed);
        }
}

TEST(Factorization, MemoryBytesAccountsForTilesAndLog) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 27);
  MaxCriterion crit(2.0);
  const auto fac = factor_serial(a, crit, 16, {});
  // At minimum the factored tiles and the retained original.
  EXPECT_GE(fac.memory_bytes(), 2u * 64u * 64u * sizeof(double));
  EXPECT_EQ(fac.matrix().rows(), 64);
  EXPECT_EQ(fac.matrix().cols(), 64);
}

TEST(Factorization, MemoryBytesIsTheSumOfItsParts) {
  // QR-heavy A2 and B2 factorizations (QR steps plus diagonal GEQRT
  // reflectors on their LU steps) at a padded order. nb = 32 retains packed
  // reflectors and no T (B2's eliminate tasks read T from the step, which the
  // factorization does not keep); nb = 16 stays below the packed-apply
  // threshold and keeps V and T.
  for (LuVariant variant : {LuVariant::A2, LuVariant::B2}) {
    for (int nb : {16, 32}) {
      SCOPED_TRACE(::testing::Message()
                   << "variant=" << static_cast<int>(variant) << " nb=" << nb);
      const int n = 4 * nb - 5, mt = 4;
      const auto a = gen::generate(gen::MatrixKind::Random, n, 28);
      AlternatingCriterion crit;
      HybridOptions opt;
      opt.variant = variant;
      const auto fac = FactorizationT<double>::compute(a, crit, nb, opt);
      ASSERT_GT(fac.stats().qr_steps, 0);
      ASSERT_GT(fac.stats().lu_steps, 0);
      const bool packed = kern::apply_wants_packed(nb, nb, nb);
      EXPECT_EQ(packed, nb == 32);
      const auto reflector_bytes = [&](const Reflector& q) {
        EXPECT_EQ(q.packed.empty(), !packed);
        const std::size_t elems =
            packed ? kern::PackedReflector<double>::size_for(
                         q.kind, kern::Trans::Yes, nb, nb)
                   : 2u * nb * nb;  // V and T
        return sizeof(Reflector) + elems * sizeof(double);
      };
      std::size_t want =
          sizeof(fac) +
          static_cast<std::size_t>(mt * mt) * nb * nb * sizeof(double) +
          static_cast<std::size_t>(n) * n * sizeof(double);
      for (const StepLog& step : fac.log()) {
        want += sizeof(StepLog) +
                (step.domain_rows.size() + step.piv.size()) * sizeof(int);
        EXPECT_EQ(step.diag_t != nullptr, step.lu);
        if (step.diag_t) want += reflector_bytes(*step.diag_t);
        for (const QrOp& op : step.qr_ops)
          want += sizeof(QrOp) + reflector_bytes(*op.reflector);
      }
      for (const StepRecord& rec : fac.stats().steps)
        want += sizeof(StepRecord) + rec.diag_piv.size() * sizeof(int);
      EXPECT_EQ(fac.memory_bytes(), want);
    }
  }
}

TEST(Factorization, RejectsWrongShapes) {
  const auto a = random_matrix(32, 24, 18);
  MaxCriterion crit(1.0);
  EXPECT_THROW(factor_serial(a, crit, 8, {}), Error);
  const auto sq = random_matrix(32, 32, 19);
  const auto fac = factor_serial(sq, crit, 8, {});
  const auto bad_b = random_matrix(16, 1, 20);
  EXPECT_THROW(fac.solve(bad_b), Error);
}

}  // namespace
}  // namespace luqr::core
