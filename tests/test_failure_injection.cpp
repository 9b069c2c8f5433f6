// Failure-injection tests: the library must degrade gracefully — never
// crash, never corrupt memory, report failures through values (IEEE
// infinities/NaNs in the accuracy metric, getrf info codes, exceptions from
// the engine) — when fed singular, degenerate or poisoned inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/solver.hpp"
#include "baselines/baselines.hpp"
#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "kernels/norms.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr {
namespace {

using luqr::testing::random_matrix;

TEST(FailureInjection, ExactlySingularMatrixViaQrFallback) {
  // Rank-deficient A: the domain factorization fails, every criterion
  // routes to QR, the factorization completes, and the *solve* reports the
  // singularity through non-finite values — no crash, no exception.
  const int n = 48;
  auto a = gen::generate(gen::MatrixKind::Random, n, 1);
  for (int j = 0; j < n; ++j) a(n - 1, j) = a(0, j);  // duplicate row
  const auto b = random_matrix(n, 1, 2);
  MaxCriterion crit(10.0);
  const auto r = core::hybrid_solve(a, b, crit, 8, {});
  // The factorization completes; the singularity shows up as an exploding
  // (or non-finite) solution vector. (HPL3 itself deflates by ||x|| and can
  // look deceptively small on singular systems — which is why the HPL
  // benchmark only applies it to nonsingular inputs.)
  const double xnorm = kern::lange(kern::Norm::Max, r.x.cview());
  EXPECT_TRUE(!std::isfinite(xnorm) || xnorm > 1e8) << xnorm;
}

TEST(FailureInjection, ZeroMatrix) {
  const int n = 32;
  Matrix<double> a(n, n);  // all zeros
  const auto b = random_matrix(n, 1, 3);
  for (const char* kind : {"max", "sum", "mumps", "always-qr"}) {
    auto crit = make_criterion(kind, 10.0);
    EXPECT_NO_THROW({
      const auto r = core::hybrid_solve(a, b, *crit, 8, {});
      const double h = verify::hpl3(a, r.x, b);
      EXPECT_FALSE(std::isfinite(h) && h < 1.0) << kind;
    }) << kind;
  }
}

TEST(FailureInjection, NanPoisonedInputDoesNotCrash) {
  const int n = 32;
  auto a = gen::generate(gen::MatrixKind::Random, n, 4);
  a(7, 9) = std::numeric_limits<double>::quiet_NaN();
  const auto b = random_matrix(n, 1, 5);
  MaxCriterion crit(10.0);
  EXPECT_NO_THROW({
    const auto r = core::hybrid_solve(a, b, crit, 8, {});
    (void)r;
  });
}

TEST(FailureInjection, InfPoisonedInput) {
  const int n = 32;
  auto a = gen::generate(gen::MatrixKind::Random, n, 6);
  a(0, 0) = std::numeric_limits<double>::infinity();
  const auto b = random_matrix(n, 1, 7);
  AlwaysLU crit;
  EXPECT_NO_THROW({
    const auto r = core::hybrid_solve(a, b, crit, 8, {});
    (void)r;
  });
}

TEST(FailureInjection, SingularDiagonalTileNoPiv) {
  // A zero diagonal *tile* defeats tile-scope pivoting entirely; NoPiv must
  // produce a non-finite metric rather than crash.
  const int n = 32, nb = 8;
  auto a = gen::generate(gen::MatrixKind::Random, n, 8);
  for (int i = 0; i < nb; ++i)
    for (int j = 0; j < nb; ++j) a(i, j) = 0.0;
  const auto b = random_matrix(n, 1, 9);
  const auto r = baselines::lu_nopiv_solve(a, b, nb);
  const double h = verify::hpl3(a, r.x, b);
  EXPECT_FALSE(std::isfinite(h) && h < 1e2);
}

TEST(FailureInjection, CriterionRescuesSingularDiagonalTile) {
  // Same poisoned tile, but the hybrid's criterion sees the failed
  // factorization and switches to QR: the solve succeeds.
  const int n = 32, nb = 8;
  auto a = gen::generate(gen::MatrixKind::Random, n, 8);
  for (int i = 0; i < nb; ++i)
    for (int j = 0; j < nb; ++j) a(i, j) = 0.0;
  const auto b = random_matrix(n, 1, 9);
  MaxCriterion crit(1e6);
  core::HybridOptions opt;
  opt.scope = core::PivotScope::Tile;
  const auto r = core::hybrid_solve(a, b, crit, nb, opt);
  EXPECT_GT(r.stats.qr_steps, 0);
  EXPECT_LT(verify::hpl3(a, r.x, b), 1.0);
}

TEST(FailureInjection, EngineSurfacesTaskExceptions) {
  rt::Engine engine(2);
  engine.submit([] {}, {});
  engine.submit([] { throw Error("injected failure"); }, {});
  engine.submit([] {}, {});
  EXPECT_THROW(engine.wait_all(), Error);
  // The engine stays usable after the error is observed.
  int x = 0;
  engine.submit([&x] { x = 1; }, {{&x, rt::Access::Write}});
  EXPECT_NO_THROW(engine.wait_all());
  EXPECT_EQ(x, 1);
}

TEST(FailureInjection, EngineDestructorSwallowsUnobservedErrors) {
  EXPECT_NO_THROW({
    rt::Engine engine(2);
    engine.submit([] { throw Error("never observed"); }, {});
    // destructor drains without terminating
  });
}

TEST(FailureInjection, ParallelSolveOnSingularMatrix) {
  const int n = 32;
  auto a = gen::generate(gen::MatrixKind::Random, n, 10);
  for (int j = 0; j < n; ++j) a(3, j) = 2.0 * a(1, j);  // dependent rows
  const auto b = random_matrix(n, 1, 11);
  MaxCriterion crit(5.0);
  EXPECT_NO_THROW({
    const auto r = Solver(SolverConfig()
                              .tile_size(8)
                              .criterion(crit)
                              .backend(Backend::Parallel)
                              .threads(3))
                       .solve(a, b);
    (void)r;
  });
}

TEST(FailureInjection, TinyProblems) {
  // 1x1 scalar systems and nb larger than N must all work.
  Matrix<double> a(1, 1);
  a(0, 0) = 2.0;
  Matrix<double> b(1, 1);
  b(0, 0) = 4.0;
  MaxCriterion crit(10.0);
  const auto r = core::hybrid_solve(a, b, crit, 8, {});
  EXPECT_DOUBLE_EQ(r.x(0, 0), 2.0);
}

TEST(FailureInjection, HugeAlphaAndZeroAlphaAreTotalOrders) {
  // alpha sweeps must be monotone even at extreme values (no overflow UB).
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 12);
  const auto b = random_matrix(48, 1, 13);
  MaxCriterion huge(1e300), tiny(1e-300);
  const auto r1 = core::hybrid_solve(a, b, huge, 16, {});
  const auto r2 = core::hybrid_solve(a, b, tiny, 16, {});
  EXPECT_GE(r1.stats.lu_fraction(), r2.stats.lu_fraction());
}

namespace {
serve::ServiceConfig small_service_config() {
  serve::ServiceConfig cfg;
  cfg.solver =
      SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(8).grid(2, 2);
  cfg.threads = 2;
  return cfg;
}
}  // namespace

TEST(FailureInjection, ServeScreensNonFiniteInputsAtSubmission) {
  // Input screening is the serve tier's contract: garbage is rejected at
  // the door with an actionable message, not discovered as a mysterious
  // NaN solution after burning a factorization.
  serve::SolveService svc(small_service_config());
  auto a = gen::generate(gen::MatrixKind::Random, 24, 21);
  const auto b = random_matrix(24, 1, 22);

  auto nan_a = a;
  nan_a(3, 5) = std::numeric_limits<double>::quiet_NaN();
  try {
    svc.submit_solve(nan_a, b, serve::SubmitOptions{});
    FAIL() << "NaN input accepted";
  } catch (const Error& e) {
    // Pin the message: it must name the problem and the opt-out knob.
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("screen_inputs"), std::string::npos)
        << e.what();
  }

  auto inf_b = b;
  inf_b(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(svc.submit_solve(a, inf_b, serve::SubmitOptions{}), Error);
  EXPECT_THROW(svc.submit_factor(nan_a, serve::SubmitOptions{}), Error);

  // A clean system on the same service still works.
  const auto reply = svc.submit_solve(a, b, serve::SubmitOptions{}).get();
  EXPECT_EQ(reply.x.rows(), 24);
}

TEST(FailureInjection, ServeScreeningOptOut) {
  // screen_inputs=false restores the library semantics: poisoned inputs
  // are accepted and the job reaches a terminal state (non-finite solution
  // or a reported failure), never a hang or crash.
  auto cfg = small_service_config();
  cfg.screen_inputs = false;
  cfg.max_retries = 0;
  serve::SolveService svc(cfg);
  auto a = gen::generate(gen::MatrixKind::Random, 24, 23);
  a(7, 9) = std::numeric_limits<double>::quiet_NaN();
  const auto b = random_matrix(24, 1, 24);
  serve::JobHandle h;
  ASSERT_NO_THROW(h = svc.submit_solve(a, b, serve::SubmitOptions{}));
  h.wait();
  EXPECT_TRUE(h.status() == serve::JobStatus::Done ||
              h.status() == serve::JobStatus::Failed)
      << static_cast<int>(h.status());
}

TEST(FailureInjection, RefinementOnSingularSystemStaysFinite) {
  const int n = 24;
  Matrix<double> a(n, n);  // singular (zero)
  for (int i = 0; i < n - 1; ++i) a(i, i) = 1.0;  // rank n-1
  const auto b = random_matrix(n, 1, 14);
  AlwaysQR crit;
  const auto fac = core::Factorization::compute(a, crit, 8, {});
  EXPECT_NO_THROW({
    const auto x = fac.solve(b, 2);
    (void)x;
  });
}

}  // namespace
}  // namespace luqr
