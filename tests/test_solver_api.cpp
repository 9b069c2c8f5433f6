// Tests for the luqr::Solver facade: config validation, concurrent solves
// from one factorization and one shared engine, and the CriterionSpec
// plumbing shared with the auto-tuner. test_routes checks that every
// backend returns the serial retained solve bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "core/autotune.hpp"
#include "gen/generators.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr {
namespace {

using luqr::testing::random_matrix;
using luqr::testing::solve_serial;

// ---------------------------------------------------------------------------
// CriterionSpec
// ---------------------------------------------------------------------------

TEST(CriterionSpec, ParseMatchesDirectConstruction) {
  EXPECT_EQ(CriterionSpec::parse("max", 50.0).name(), MaxCriterion(50.0).name());
  EXPECT_EQ(CriterionSpec::parse("sum", 2.0).name(), SumCriterion(2.0).name());
  EXPECT_EQ(CriterionSpec::parse("mumps", 2.1).name(),
            MumpsCriterion(2.1).name());
  EXPECT_EQ(CriterionSpec::always_lu().name(), "always-lu");
  EXPECT_EQ(CriterionSpec::always_qr().name(), "always-qr");
  EXPECT_THROW(CriterionSpec::parse("bogus", 1.0), Error);
}

TEST(CriterionSpec, KindNamesRoundTrip) {
  for (auto kind : {CriterionKind::Max, CriterionKind::Sum, CriterionKind::Mumps,
                    CriterionKind::Random, CriterionKind::AlwaysLU,
                    CriterionKind::AlwaysQR}) {
    const CriterionSpec parsed = CriterionSpec::parse(to_string(kind), 1.0);
    EXPECT_EQ(parsed.kind, kind) << to_string(kind);
  }
}

TEST(CriterionSpec, TunableFamilies) {
  EXPECT_TRUE(CriterionSpec::max(1.0).tunable());
  EXPECT_TRUE(CriterionSpec::sum(1.0).tunable());
  EXPECT_TRUE(CriterionSpec::mumps(1.0).tunable());
  EXPECT_FALSE(CriterionSpec::random(0.5).tunable());
  EXPECT_FALSE(CriterionSpec::always_lu().tunable());
  EXPECT_FALSE(CriterionSpec::always_qr().tunable());
}

TEST(CriterionSpec, WithAlphaKeepsKindAndSeed) {
  const CriterionSpec s = CriterionSpec::random(0.25, 99).with_alpha(0.75);
  EXPECT_EQ(s.kind, CriterionKind::Random);
  EXPECT_EQ(s.alpha, 0.75);
  EXPECT_EQ(s.seed, 99u);
}

TEST(AutoTune, SpecOverloadMatchesStringOverload) {
  const auto sample = gen::generate(gen::MatrixKind::Random, 256, 4);
  core::HybridOptions opt;
  opt.grid_p = 4;
  const auto by_string = core::auto_tune_alpha(sample, "max", 0.5, 32, opt);
  const auto by_spec =
      core::auto_tune_alpha(sample, CriterionSpec::max(0.0), 0.5, 32, opt);
  EXPECT_EQ(by_string.alpha, by_spec.alpha);
  EXPECT_EQ(by_string.achieved_lu_fraction, by_spec.achieved_lu_fraction);
  EXPECT_EQ(by_spec.spec.kind, CriterionKind::Max);
  EXPECT_EQ(by_spec.spec.alpha, by_spec.alpha);
  EXPECT_THROW(
      core::auto_tune_alpha(sample, CriterionSpec::random(0.5), 0.5, 32, opt),
      Error);
}

// ---------------------------------------------------------------------------
// SolverConfig validation
// ---------------------------------------------------------------------------

TEST(SolverConfig, RejectsBadScalarValues) {
  EXPECT_THROW(SolverConfig().tile_size(0), Error);
  EXPECT_THROW(SolverConfig().tile_size(-8), Error);
  EXPECT_THROW(SolverConfig().grid(0, 4), Error);
  EXPECT_THROW(SolverConfig().grid(4, -1), Error);
  EXPECT_THROW(SolverConfig().threads(-1), Error);
  EXPECT_THROW(SolverConfig().refinement_sweeps(-1), Error);
  EXPECT_THROW(SolverConfig().autotune_target_lu_fraction(1.5), Error);
  EXPECT_THROW(SolverConfig().autotune_target_lu_fraction(-0.1), Error);
}

TEST(SolverConfig, CrossFieldValidationAtConstruction) {
  // Every LU variant runs on every backend.
  EXPECT_NO_THROW(Solver(SolverConfig()
                             .backend(Backend::Parallel)
                             .variant(core::LuVariant::B1)));
  // Growth tracking is supported on every backend since the per-step atomic
  // max reduction landed.
  EXPECT_NO_THROW(
      Solver(SolverConfig().backend(Backend::Parallel).track_growth(true)));
  // Auto-tuning needs a tunable (thresholded) criterion family.
  EXPECT_THROW(Solver(SolverConfig()
                          .criterion(CriterionSpec::random(0.5))
                          .autotune_target_lu_fraction(0.5)),
               Error);
}

TEST(SolverConfig, HybridOptionsRoundTrip) {
  core::HybridOptions o;
  o.grid_p = 3;
  o.grid_q = 2;
  o.scope = core::PivotScope::Panel;
  o.variant = core::LuVariant::B2;
  o.tree = {hqr::LocalTree::Binary, hqr::DistTree::Greedy};
  o.exact_inv_norm = true;
  o.track_growth = true;
  const core::HybridOptions r = SolverConfig().hybrid_options(o).hybrid_options();
  EXPECT_EQ(r.grid_p, o.grid_p);
  EXPECT_EQ(r.grid_q, o.grid_q);
  EXPECT_EQ(r.scope, o.scope);
  EXPECT_EQ(r.variant, o.variant);
  EXPECT_EQ(r.tree.local, o.tree.local);
  EXPECT_EQ(r.tree.dist, o.tree.dist);
  EXPECT_EQ(r.exact_inv_norm, o.exact_inv_norm);
  EXPECT_EQ(r.track_growth, o.track_growth);
}

TEST(SolverConfig, SchedulerKnobsRoundTrip) {
  rt::SchedulerOptions sched;
  sched.trace = true;
  sched.trace_path = "t.json";
  const SolverConfig cfg = SolverConfig().scheduler(sched);
  EXPECT_TRUE(cfg.scheduler().trace);
  EXPECT_EQ(cfg.scheduler().trace_path, "t.json");
  // Default: no trace.
  EXPECT_FALSE(SolverConfig().scheduler().trace);
}

TEST(Solver, BackendResolution) {
  const Solver serial(SolverConfig().backend(Backend::Serial).threads(8));
  EXPECT_EQ(serial.resolve_backend(100), Backend::Serial);

  const Solver parallel(SolverConfig().backend(Backend::Parallel).threads(4));
  EXPECT_EQ(parallel.resolve_backend(2), Backend::Parallel);
  EXPECT_EQ(parallel.resolve_threads(), 4);

  // Auto: tiny problems stay serial; the LU variant does not matter.
  const Solver auto_b1(SolverConfig()
                           .backend(Backend::Auto)
                           .variant(core::LuVariant::B1)
                           .threads(8));
  EXPECT_EQ(auto_b1.resolve_backend(100), Backend::Parallel);
  const Solver auto_a1(SolverConfig().backend(Backend::Auto).threads(8));
  EXPECT_EQ(auto_a1.resolve_backend(2), Backend::Serial);
  EXPECT_EQ(auto_a1.resolve_backend(16), Backend::Parallel);

  // Growth tracking no longer forces Auto onto the serial backend.
  const Solver auto_growth(
      SolverConfig().backend(Backend::Auto).track_growth(true).threads(8));
  EXPECT_EQ(auto_growth.resolve_backend(16), Backend::Parallel);
}

// ---------------------------------------------------------------------------
// Facade vs the historical entry points
// ---------------------------------------------------------------------------

TEST(Solver, ExternalCriterionInstanceIsUsed) {
  // A stateful external criterion must drive the decisions directly (the
  // compatibility path the delegating free functions rely on).
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 3);
  const auto b = random_matrix(64, 1, 4);
  AlwaysQR external;
  const Solver solver(
      SolverConfig().criterion(external).tile_size(16).backend(Backend::Serial));
  const auto r = solver.solve(a, b);
  EXPECT_EQ(r.stats.lu_steps, 0);
  EXPECT_EQ(r.stats.qr_steps, 4);
}

// ---------------------------------------------------------------------------
// Retained factorizations across backends
// ---------------------------------------------------------------------------

TEST(Solver, ConcurrentSolvesFromOneFactorization) {
  // One retained factorization serving many RHS batches from concurrent
  // threads: every solve must be correct and identical to its
  // single-threaded counterpart.
  const int n = 96;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 15);
  const Solver solver(SolverConfig()
                          .criterion(CriterionSpec::max(30.0))
                          .tile_size(16)
                          .grid(2, 2)
                          .backend(Backend::Parallel)
                          .threads(2));
  const core::Factorization fac = solver.factor(a);

  constexpr int kThreads = 8;
  std::vector<Matrix<double>> rhs;
  std::vector<Matrix<double>> expected;
  for (int t = 0; t < kThreads; ++t) {
    rhs.push_back(random_matrix(n, 1, 100 + static_cast<std::uint64_t>(t)));
    expected.push_back(fac.solve(rhs.back()));
  }

  std::vector<Matrix<double>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back(
        [&, t] { got[static_cast<std::size_t>(t)] = fac.solve(rhs[static_cast<std::size_t>(t)]); });
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LT(verify::relative_residual(a, got[static_cast<std::size_t>(t)],
                                        rhs[static_cast<std::size_t>(t)]),
              1e-11)
        << "thread " << t;
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(got[static_cast<std::size_t>(t)](i, 0),
                expected[static_cast<std::size_t>(t)](i, 0))
          << "thread " << t << " row " << i;
  }
}

TEST(Solver, SchedulerTraceFileWritten) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 35);
  rt::SchedulerOptions sched;
  sched.trace = true;
  sched.trace_path = "solver_trace_test.json";
  const Solver solver(SolverConfig()
                          .criterion(CriterionSpec::max(25.0))
                          .tile_size(16)
                          .backend(Backend::Parallel)
                          .threads(2)
                          .scheduler(sched));
  (void)solver.factor(a);
  std::FILE* f = std::fopen(sched.trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 2L);
  std::fclose(f);
  std::remove(sched.trace_path.c_str());
}

TEST(Solver, AdoptRejectsIncompleteLog) {
  // A factorization without a transform log cannot serve fresh RHS.
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 17);
  auto tiles = TileMatrix<double>::from_dense(a, 16);
  MaxCriterion crit(30.0);
  auto stats = rt::parallel_hybrid_factor(tiles, crit, {}, 2, nullptr);
  EXPECT_THROW(core::Factorization::adopt(a, std::move(tiles), std::move(stats),
                                          core::TransformLog{}),
               Error);
}

// ---------------------------------------------------------------------------
// Refinement and auto-tuning through the config
// ---------------------------------------------------------------------------

TEST(Solver, RefinementSweepsThroughConfig) {
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::GrowthExample, n, 0, 1.0);
  const auto b = random_matrix(n, 1, 18);
  const SolverConfig base = SolverConfig()
                                .criterion(CriterionSpec::always_lu())
                                .tile_size(8)
                                .backend(Backend::Serial);
  const auto plain = Solver(base).solve(a, b);
  const auto refined = Solver(SolverConfig(base).refinement_sweeps(2)).solve(a, b);
  const double h0 = verify::hpl3(a, plain.x, b);
  const double h2 = verify::hpl3(a, refined.x, b);
  EXPECT_LT(h2, h0 * 0.1);
  EXPECT_LT(h2, 1.0);
}

TEST(Solver, ZeroColumnRhsReturnsEmptyOnEveryRoute) {
  // An n x 0 right-hand side is a valid (empty) solve on the fused route,
  // the retained route and every precision, serial or parallel. n = 80,
  // nb = 16 gives 5 tile rows, enough for Parallel to run the engine.
  const int n = 80;
  const auto a = gen::generate(gen::MatrixKind::Random, n, 19);
  const Matrix<double> b(n, 0);
  for (Backend backend : {Backend::Serial, Backend::Parallel})
    for (Precision precision :
         {Precision::F64, Precision::F32, Precision::F32_IR})
      for (int sweeps : {0, 1}) {
        SCOPED_TRACE(::testing::Message()
                     << "backend=" << static_cast<int>(backend)
                     << " precision=" << static_cast<int>(precision)
                     << " sweeps=" << sweeps);
        const Solver solver(SolverConfig()
                                .tile_size(16)
                                .backend(backend)
                                .threads(2)
                                .precision(precision)
                                .refinement_sweeps(sweeps));
        const auto one_shot = solver.solve(a, b);
        EXPECT_EQ(one_shot.x.rows(), n);
        EXPECT_EQ(one_shot.x.cols(), 0);
        const auto retained = solver.factor(a).solve(b);
        EXPECT_EQ(retained.rows(), n);
        EXPECT_EQ(retained.cols(), 0);
      }
}

TEST(Solver, AutotuneTargetThroughConfig) {
  const auto a = gen::generate(gen::MatrixKind::Random, 256, 19);
  const auto b = random_matrix(256, 1, 20);
  const Solver solver(SolverConfig()
                          .criterion(CriterionSpec::max(0.0))
                          .tile_size(32)
                          .grid(4, 1)
                          .backend(Backend::Serial)
                          .autotune_target_lu_fraction(0.5));

  // The effective criterion is the configured family at the tuned alpha —
  // identical to calling the auto-tuner directly.
  const CriterionSpec spec = solver.effective_criterion(a);
  EXPECT_EQ(spec.kind, CriterionKind::Max);
  core::HybridOptions opt;
  opt.grid_p = 4;
  const auto tuned = core::auto_tune_alpha(a, CriterionSpec::max(0.0), 0.5, 32, opt);
  EXPECT_EQ(spec.alpha, tuned.alpha);

  const auto r = solver.solve(a, b);
  EXPECT_NEAR(r.stats.lu_fraction(), 0.5, 0.3);
  EXPECT_LT(verify::hpl3(a, r.x, b), 16.0);
}

TEST(Solver, ConcurrentFactorizationsShareOneEngine) {
  // Several threads drive independent factorizations onto one engine at
  // once (the serve subsystem's fine-grained mode). Each result must match
  // the serial reference bitwise.
  auto engine = std::make_shared<rt::Engine>(3);
  const SolverConfig base =
      SolverConfig().criterion(CriterionSpec::max(30.0)).tile_size(16).grid(2, 2);
  const Solver shared(SolverConfig(base).backend(Backend::Parallel).engine(engine));
  const Solver serial(SolverConfig(base).backend(Backend::Serial));

  constexpr int kJobs = 4;
  std::vector<Matrix<double>> as, bs, got(kJobs), want(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(gen::generate(gen::MatrixKind::Random, 64, 40 + i));
    bs.push_back(random_matrix(64, 1, 50 + i));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kJobs; ++i)
    threads.emplace_back([&, i] { got[i] = shared.factor(as[i]).solve(bs[i]); });
  for (auto& t : threads) t.join();
  for (int i = 0; i < kJobs; ++i) {
    want[i] = serial.factor(as[i]).solve(bs[i]);
    for (int r = 0; r < 64; ++r) ASSERT_EQ(got[i](r, 0), want[i](r, 0)) << i;
  }
  engine->wait_idle();
  EXPECT_TRUE(engine->idle());
}

TEST(SolverConfig, SharedEngineRejectsTracing) {
  auto engine = std::make_shared<rt::Engine>(2);
  rt::SchedulerOptions sched;
  sched.trace = true;
  EXPECT_THROW(Solver(SolverConfig()
                          .backend(Backend::Parallel)
                          .engine(engine)
                          .scheduler(sched)),
               Error);
}

}  // namespace
}  // namespace luqr
