// Tests for the mixed-precision factorization path (Precision::F32 /
// F32_IR): config plumbing and validation, f64-level accuracy recovery
// through iterative refinement, explicit (never silent) fallback on
// adversarial matrices from the paper's special set, and audit/chaos
// cleanliness of the templated f32 parallel driver. (test_routes checks
// every route at every precision against the serial retained solve.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "api/solver.hpp"
#include "core/factorization.hpp"
#include "core/hybrid.hpp"
#include "gen/generators.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr {
namespace {

using luqr::testing::random_matrix;

Matrix<float> narrow(const Matrix<double>& a) {
  Matrix<float> f(a.rows(), a.cols());
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) f(i, j) = static_cast<float>(a(i, j));
  return f;
}

// ---------------------------------------------------------------------------
// Config plumbing and validation
// ---------------------------------------------------------------------------

TEST(PrecisionConfig, RoundTripAndDefaults) {
  EXPECT_EQ(SolverConfig().precision(), Precision::F64);
  EXPECT_EQ(SolverConfig().precision(Precision::F32).precision(),
            Precision::F32);
  const SolverConfig cfg = SolverConfig()
                               .precision(Precision::F32_IR)
                               .refine_max_iterations(7)
                               .refine_tolerance(1e-12);
  EXPECT_EQ(cfg.precision(), Precision::F32_IR);
  EXPECT_EQ(cfg.refine().max_iterations, 7);
  EXPECT_EQ(cfg.refine().tolerance, 1e-12);
  EXPECT_EQ(SolverConfig().refine().max_iterations, 20);
  EXPECT_EQ(SolverConfig().refine().tolerance, 0.0);
}

TEST(PrecisionConfig, RejectsBadRefineValues) {
  EXPECT_THROW(SolverConfig().refine_max_iterations(0), Error);
  EXPECT_THROW(SolverConfig().refine_max_iterations(-3), Error);
  EXPECT_THROW(SolverConfig().refine_tolerance(-1e-8), Error);
}

TEST(PrecisionConfig, ExternalCriterionInstanceRejected) {
  // The F32_IR fallback refactors from the retained CriterionSpec; a live
  // external Criterion cannot be replayed, so reduced precision + external
  // instance must fail at construction, not mid-solve.
  AlwaysQR external;
  EXPECT_THROW(
      Solver(SolverConfig().criterion(external).precision(Precision::F32)),
      Error);
  EXPECT_THROW(
      Solver(SolverConfig().criterion(external).precision(Precision::F32_IR)),
      Error);
  EXPECT_NO_THROW(
      Solver(SolverConfig().criterion(external).precision(Precision::F64)));
}

// ---------------------------------------------------------------------------
// Accuracy: F32 gives f32-level residuals, F32_IR recovers f64-level
// ---------------------------------------------------------------------------

TEST(PrecisionF32, SolveGivesSinglePrecisionResidual) {
  const int n = 96;
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, n, 201);
  const auto b = random_matrix(n, 1, 202);
  const auto r = Solver(SolverConfig()
                            .precision(Precision::F32)
                            .tile_size(16)
                            .backend(Backend::Serial))
                     .solve(a, b);
  EXPECT_EQ(r.report.precision, Precision::F32);
  EXPECT_EQ(r.report.refine_iterations, 0);
  EXPECT_TRUE(r.report.converged);
  EXPECT_FALSE(r.report.fell_back);
  const double res = verify::relative_residual(a, r.x, b);
  EXPECT_LT(res, 1e-3);   // single-precision ballpark
  EXPECT_GT(res, 1e-12);  // ... and genuinely not double precision
}

TEST(PrecisionF32IR, RecoversF64LevelResidual) {
  const int n = 128;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 301);
  const auto b = random_matrix(n, 1, 302);
  const SolverConfig base = SolverConfig().tile_size(16).backend(Backend::Serial);

  const auto rf64 =
      Solver(SolverConfig(base).precision(Precision::F64)).solve(a, b);
  const auto rir =
      Solver(SolverConfig(base).precision(Precision::F32_IR)).solve(a, b);

  EXPECT_TRUE(rir.report.converged);
  EXPECT_FALSE(rir.report.fell_back);
  EXPECT_GE(rir.report.refine_iterations, 1);
  EXPECT_LE(rir.report.refine_iterations, 20);

  const double res64 = verify::relative_residual(a, rf64.x, b);
  const double res_ir = verify::relative_residual(a, rir.x, b);
  // The acceptance bar: refinement lands within ~4x of the pure-f64
  // residual on a well-conditioned system (with an absolute floor so two
  // residuals at rounding level never flake the ratio).
  EXPECT_LE(res_ir, std::max(4.0 * res64, 64 * n *
                                              std::numeric_limits<double>::epsilon()));
}

TEST(PrecisionF32IR, WideRhsRefinesEveryColumn) {
  const int n = 96, nrhs = 5;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 401);
  const auto b = random_matrix(n, nrhs, 402);
  const auto r = Solver(SolverConfig()
                            .precision(Precision::F32_IR)
                            .tile_size(16)
                            .backend(Backend::Serial))
                     .solve(a, b);
  EXPECT_TRUE(r.report.converged);
  for (int j = 0; j < nrhs; ++j) {
    Matrix<double> bj(n, 1), xj(n, 1);
    for (int i = 0; i < n; ++i) {
      bj(i, 0) = b(i, j);
      xj(i, 0) = r.x(i, j);
    }
    EXPECT_LT(verify::relative_residual(a, xj, bj), 1e-10) << "column " << j;
  }
}

// ---------------------------------------------------------------------------
// Robustness on the paper's adversarial specials: converge or report
// fallback, never silently return a bad solution
// ---------------------------------------------------------------------------

TEST(RefinementRobustness, AdversarialSpecialsNeverSilent) {
  const gen::MatrixKind adversarial[] = {
      gen::MatrixKind::Demmel,  gen::MatrixKind::Hilb,
      gen::MatrixKind::Prolate, gen::MatrixKind::Kahan,
      gen::MatrixKind::Dorr,    gen::MatrixKind::Wright,
      gen::MatrixKind::GrowthExample,
  };
  for (const auto kind : adversarial) {
    const int n = 64;
    const auto a = gen::generate(kind, n, 501);
    const auto b = random_matrix(n, 1, 502);
    const auto r = Solver(SolverConfig()
                              .precision(Precision::F32_IR)
                              .tile_size(16)
                              .backend(Backend::Serial))
                       .solve(a, b);
    const auto& rep = r.report;
    EXPECT_EQ(rep.precision, Precision::F32_IR) << gen::kind_name(kind);
    // The contract: either refinement converged to the f64 tolerance, or
    // the report says the solve was served by the f64 fallback. A solution
    // with neither flag is a silent accuracy loss — the bug class this
    // test exists to catch.
    EXPECT_TRUE(rep.converged || rep.fell_back) << gen::kind_name(kind);
    EXPECT_GE(rep.residual, 0.0) << gen::kind_name(kind);
    if (rep.fell_back) {
      // Fallback means full f64 factors served the solve: the residual must
      // be at plain-LU level, not f32 level.
      EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-8)
          << gen::kind_name(kind);
    }
  }
}

TEST(RefinementRobustness, IllConditionedFallsBackExplicitly) {
  // hilb at n = 64: kappa far beyond 1/eps_f32, so corrections through the
  // f32 factors stall above the f64 tolerance. The fallback must fire and
  // say so (converged may still end up true — via the f64 refactorization,
  // which the fell_back flag discloses).
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::Hilb, n, 601);
  const auto b = random_matrix(n, 1, 602);
  const auto r = Solver(SolverConfig()
                            .precision(Precision::F32_IR)
                            .tile_size(16)
                            .backend(Backend::Serial))
                     .solve(a, b);
  EXPECT_TRUE(r.report.fell_back);
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-8);
}

TEST(RefinementRobustness, UnreachableToleranceForcesFallback) {
  // A tolerance below what any finite-precision solve can reach makes the
  // fallback deterministic regardless of conditioning: refinement reports
  // non-convergence and the f64 refactorization serves the solve.
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 701);
  const auto b = random_matrix(n, 1, 702);
  const auto r = Solver(SolverConfig()
                            .precision(Precision::F32_IR)
                            .refine_tolerance(1e-300)
                            .refine_max_iterations(3)
                            .tile_size(16)
                            .backend(Backend::Serial))
                     .solve(a, b);
  EXPECT_TRUE(r.report.fell_back);
  EXPECT_FALSE(r.report.converged);  // 1e-300 is unreachable even in f64
  EXPECT_LE(r.report.refine_iterations, 3);
  EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-10);
}

TEST(RefinementRobustness, RetainedFactorizationFallbackIsSticky) {
  // Two solves through the same F32_IR factorization on an ill-conditioned
  // matrix: both must report the fallback (the lazily materialized f64
  // refactorization is cached, not rebuilt, but the report never lies).
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::Hilb, n, 801);
  const Solver solver(SolverConfig()
                          .precision(Precision::F32_IR)
                          .tile_size(16)
                          .backend(Backend::Serial));
  const core::Factorization fac = solver.factor(a);
  const std::size_t before = fac.memory_bytes();
  SolveReport r1, r2;
  const auto x1 = fac.solve(random_matrix(n, 1, 802), &r1);
  const std::size_t after_first = fac.memory_bytes();
  const auto x2 = fac.solve(random_matrix(n, 1, 803), &r2);
  EXPECT_TRUE(r1.fell_back);
  EXPECT_TRUE(r2.fell_back);
  // The fallback factorization materializes once and is accounted for.
  EXPECT_GT(after_first, before);
  EXPECT_EQ(fac.memory_bytes(), after_first);
}

// ---------------------------------------------------------------------------
// The templated f32 parallel driver: audit-clean, chaos-stable
// ---------------------------------------------------------------------------

TEST(PrecisionParallel, F32FactorizationPassesAudit) {
  const auto dense =
      narrow(gen::generate(gen::MatrixKind::Random, 96, 901));
  TileMatrix<float> tiles = TileMatrix<float>::from_dense(dense, 16);
  MaxCriterion criterion(20.0);
  core::HybridOptions opt;
  opt.grid_p = 2;
  opt.grid_q = 2;
  rt::SchedulerOptions sched;
  sched.audit = true;
  rt::SchedulerStats stats;
  rt::parallel_hybrid_factor(tiles, criterion, opt, 3, nullptr, sched, &stats);
  EXPECT_GT(stats.audited_tasks, 0u);
  EXPECT_EQ(stats.audit_access_violations, 0u);
  EXPECT_EQ(stats.audit_hb_violations, 0u);
}

TEST(PrecisionParallel, F32EightChaosSeedsMatchSerialBitwise) {
  const int n = 96, nb = 16;
  const auto dense = narrow(gen::generate(gen::MatrixKind::Random, n, 903));

  TileMatrix<float> serial = TileMatrix<float>::from_dense(dense, nb);
  MaxCriterion serial_crit(4.0);
  const auto serial_stats = core::hybrid_factor(serial, serial_crit, {});

  for (std::uint64_t seed : {1ull, 2ull, 3ull, 0x9e3779b9ull, 42ull,
                             0xdeadbeefull, 7ull, 1234567ull}) {
    TileMatrix<float> tiles = TileMatrix<float>::from_dense(dense, nb);
    MaxCriterion criterion(4.0);
    rt::SchedulerOptions sched;
    sched.chaos_seed = seed;
    const auto stats =
        rt::parallel_hybrid_factor(tiles, criterion, {}, 4, nullptr, sched);
    ASSERT_EQ(stats.qr_steps, serial_stats.qr_steps) << "seed " << seed;
    for (int j = 0; j < tiles.cols(); ++j)
      for (int i = 0; i < tiles.rows(); ++i)
        ASSERT_EQ(tiles.at(i, j), serial.at(i, j))
            << "seed " << seed << " element " << i << "," << j;
  }
}

}  // namespace
}  // namespace luqr
