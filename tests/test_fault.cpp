// Fault-injection framework + serve-tier resilience tests.
//
// Three layers under test here:
//   1. fault::FaultPlan itself — deterministic, seed-driven fire decisions,
//      fire budgets, skip windows, and the zero-cost-when-disabled contract.
//   2. The instrumented seams — allocation, kernels, engine, serve — each
//      fault class surfaces where its README entry says it does.
//   3. The serve tier's responses — retry with backoff, SLO shedding,
//      watchdog recovery of lost jobs, health degradation and recovery,
//      memory-pressure containment — all driven through injected faults and
//      verified down to the accounting invariant
//      (submitted == completed + failed + cancelled + rejected + shed).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "gen/generators.hpp"
#include "kernels/norms.hpp"
#include "luqr.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr {
namespace {

using luqr::testing::random_matrix;

serve::ServiceConfig service_config(int nb = 8, int threads = 2) {
  serve::ServiceConfig cfg;
  cfg.solver =
      SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb).grid(2, 2);
  cfg.threads = threads;
  return cfg;
}

bool accounting_balanced(const serve::ServiceStats& s) {
  return s.submitted ==
         s.completed + s.failed + s.cancelled + s.rejected + s.shed;
}

// ---------------------------------------------------------------------------
// FaultPlan semantics
// ---------------------------------------------------------------------------

TEST(FaultPlan, DisabledIsInert) {
  ASSERT_EQ(fault::plan(), nullptr);
  EXPECT_FALSE(fault::should_fire("some.site"));
  EXPECT_NO_THROW(fault::maybe_throw(fault::site::kServeTask));
  EXPECT_NO_THROW(fault::maybe_alloc_fail(fault::site::kWorkspaceAlloc));
}

TEST(FaultPlan, UnarmedSiteNeverFires) {
  fault::FaultPlan plan(1);
  plan.arm({fault::site::kServeTask, 1.0});
  EXPECT_FALSE(plan.should_fire("not.armed"));
  EXPECT_TRUE(plan.should_fire(fault::site::kServeTask));
}

TEST(FaultPlan, FirePatternIsAPureFunctionOfSeedSiteAndIndex) {
  // Two plans with the same seed produce the same occurrence-indexed fire
  // pattern; a different seed produces a different one (with overwhelming
  // probability over 256 draws).
  const int kDraws = 256;
  std::vector<bool> a_pat, b_pat, c_pat;
  for (auto* pat : {&a_pat, &b_pat}) {
    fault::FaultPlan plan(42);
    plan.arm({"t.site", 0.3});
    for (int i = 0; i < kDraws; ++i) pat->push_back(plan.should_fire("t.site"));
  }
  {
    fault::FaultPlan plan(43);
    plan.arm({"t.site", 0.3});
    for (int i = 0; i < kDraws; ++i) c_pat.push_back(plan.should_fire("t.site"));
  }
  EXPECT_EQ(a_pat, b_pat);
  EXPECT_NE(a_pat, c_pat);
}

TEST(FaultPlan, MaxFiresIsExactEvenUnderThreads) {
  fault::FaultPlan plan(7);
  plan.arm({"t.budget", 1.0, /*max_fires=*/5});
  std::atomic<int> fired{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 100; ++i)
        if (plan.should_fire("t.budget")) fired.fetch_add(1);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(fired.load(), 5);
  EXPECT_EQ(plan.fires("t.budget"), 5u);
  EXPECT_EQ(plan.occurrences("t.budget"), 400u);
}

TEST(FaultPlan, SkipWindowSuppressesEarlyOccurrences) {
  fault::FaultPlan plan(7);
  plan.arm({"t.skip", 1.0, ~std::uint64_t{0}, /*skip=*/10});
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(plan.should_fire("t.skip")) << i;
  EXPECT_TRUE(plan.should_fire("t.skip"));
}

// ---------------------------------------------------------------------------
// Instrumented seams
// ---------------------------------------------------------------------------

TEST(FaultSites, GetrfSingularTakesQrFallback) {
  // A forced singular panel report must route through the same QR fallback
  // a genuine zero pivot takes: the solve still succeeds.
  fault::FaultPlan plan(1);
  plan.arm({fault::site::kGetrfSingular, 1.0, /*max_fires=*/1});
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 31);
  const auto b = random_matrix(32, 1, 32);
  const Solver solver(
      SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(8));
  Matrix<double> x;
  {
    fault::ScopedPlan guard(plan);
    x = solver.solve(a, b).x;
  }
  EXPECT_EQ(plan.fires(fault::site::kGetrfSingular), 1u);
  EXPECT_LT(verify::hpl3(a, x, b), 1.0);
}

// ---------------------------------------------------------------------------
// Serve resilience
// ---------------------------------------------------------------------------

TEST(ServeResilience, TransientThrowIsRetriedToSuccess) {
  fault::FaultPlan plan(5);
  plan.arm({fault::site::kServeTask, 1.0, /*max_fires=*/1});
  auto cfg = service_config();
  cfg.retry_backoff_us = 100;
  cfg.watchdog_period_ms = 1;
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 24, 51);
  const auto b = random_matrix(24, 1, 52);
  const Solver reference(cfg.solver);
  Matrix<double> x;
  {
    fault::ScopedPlan guard(plan);
    x = svc.submit_solve(a, b, serve::SubmitOptions{}).get().x;
  }
  const auto want = reference.solve(a, b).x;
  for (int i = 0; i < 24; ++i) EXPECT_EQ(x(i, 0), want(i, 0)) << i;
  const auto s = svc.stats();
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(s.faults_injected, 1u);
  EXPECT_TRUE(accounting_balanced(s));
}

TEST(ServeResilience, AllocationFaultDegradesGracefully) {
  // An injected allocation failure is memory pressure: the job retries to
  // success, the pressure counter ticks, and the admission limit shrank
  // (then recovers via quiet watchdog scans — covered separately).
  fault::FaultPlan plan(6);
  plan.arm({fault::site::kTileAlloc, 1.0, /*max_fires=*/1});
  auto cfg = service_config();
  cfg.retry_backoff_us = 100;
  cfg.watchdog_period_ms = 1;
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 24, 61);
  const auto b = random_matrix(24, 1, 62);
  Matrix<double> x;
  {
    fault::ScopedPlan guard(plan);
    x = svc.submit_solve(a, b, serve::SubmitOptions{}).get().x;
  }
  EXPECT_TRUE(std::isfinite(kern::lange(kern::Norm::Fro, x.cview())));
  const auto s = svc.stats();
  EXPECT_GE(s.memory_pressure, 1u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_TRUE(accounting_balanced(s));
}

TEST(ServeResilience, InflightLimitRecoversAfterPressure) {
  fault::FaultPlan plan(6);
  plan.arm({fault::site::kTileAlloc, 1.0, /*max_fires=*/2});
  auto cfg = service_config();
  cfg.retry_backoff_us = 100;
  cfg.watchdog_period_ms = 1;
  cfg.degraded_recovery_periods = 3;
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 24, 63);
  const auto b = random_matrix(24, 1, 64);
  {
    fault::ScopedPlan guard(plan);
    auto h = svc.submit_solve(a, b, serve::SubmitOptions{});
    h.wait();
    EXPECT_EQ(h.status(), serve::JobStatus::Done);
  }
  ASSERT_GE(svc.stats().memory_pressure, 1u);
  // Quiet scans restore one admission slot per period and eventually the
  // Healthy state; bounded poll (sanitizer schedulers are slow).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto s = svc.stats();
    if (s.health == serve::Health::Healthy &&
        s.inflight_limit == static_cast<int>(2 * 2))  // 2*workers default
      break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "health=" << static_cast<int>(s.health)
        << " inflight_limit=" << s.inflight_limit;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(ServeResilience, ExpiredDeadlineIsShedNotExecuted) {
  auto cfg = service_config();
  cfg.threads = 1;
  cfg.dispatchers = 1;
  cfg.max_inflight = 1;
  // The watchdog's hard wall is a multiple of the deadline; at the default
  // multiple a 1us deadline gives an 8us wall, and a scan landing before the
  // dequeue force-fails the job instead of letting the dispatcher shed it.
  // A 1s wall keeps the watchdog on without racing the dequeue.
  cfg.watchdog_wall_multiple = 1000000;
  serve::SolveService svc(cfg);
  const auto big = gen::generate(gen::MatrixKind::Random, 96, 71);
  const auto small = gen::generate(gen::MatrixKind::Random, 24, 72);
  // Occupy the single slot so the tiny-deadline job waits in the queue past
  // its (1us) deadline.
  auto blocker = svc.submit_solve(big, random_matrix(96, 1, 73),
                                  serve::SubmitOptions{});
  serve::SubmitOptions opt;
  opt.deadline_us = 1;
  auto doomed = svc.submit_solve(small, random_matrix(24, 1, 74), opt);
  doomed.wait();
  EXPECT_EQ(doomed.status(), serve::JobStatus::Shed);
  try {
    doomed.get();
    FAIL() << "get() on a shed job must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shed"), std::string::npos) << e.what();
  }
  blocker.wait();
  const auto s = svc.stats();
  EXPECT_GE(s.shed, 1u);
  EXPECT_TRUE(accounting_balanced(s));
}

TEST(ServeResilience, WaitForTimesOutThenCompletes) {
  serve::SolveService svc(service_config());
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 81);
  auto h = svc.submit_solve(a, random_matrix(96, 1, 82), serve::SubmitOptions{});
  // 1us is never enough for a 96x96 factor+solve; the timeout indicator
  // must come back false and the handle must stay usable.
  const bool done_fast = h.wait_for(1);
  if (!done_fast) {
    EXPECT_NE(h.status(), serve::JobStatus::Done);
  }
  h.wait();
  EXPECT_EQ(h.status(), serve::JobStatus::Done);
  EXPECT_TRUE(h.wait_for(0));  // already terminal: immediate true
}

TEST(ServeResilience, WatchdogRecoversDroppedJobAndDegrades) {
  // A dispatcher "loses" the job (serve.job.drop). Nothing would ever
  // settle it — except the watchdog, which force-fails it at the hard wall
  // and marks the service Degraded.
  fault::FaultPlan plan(9);
  plan.arm({fault::site::kServeDrop, 1.0, /*max_fires=*/1});
  auto cfg = service_config();
  cfg.watchdog_period_ms = 2;
  cfg.watchdog_wall_multiple = 2;
  cfg.degraded_recovery_periods = 1000000;  // pin Degraded for the assert
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 24, 91);
  serve::SubmitOptions opt;
  opt.deadline_us = 10000;  // hard wall at 20ms
  serve::JobHandle h;
  {
    fault::ScopedPlan guard(plan);
    h = svc.submit_solve(a, random_matrix(24, 1, 92), opt);
    h.wait();
  }
  ASSERT_EQ(plan.fires(fault::site::kServeDrop), 1u);
  EXPECT_EQ(h.status(), serve::JobStatus::Failed);
  try {
    h.get();
    FAIL() << "get() on a watchdog-failed job must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
  }
  const auto s = svc.stats();
  EXPECT_GE(s.watchdog_trips, 1u);
  EXPECT_EQ(svc.health(), serve::Health::Degraded);
  EXPECT_TRUE(accounting_balanced(s));

  // Degraded admission: Batch is shed at the door, Interactive still runs.
  auto batch = svc.submit_solve(a, random_matrix(24, 1, 93),
                                serve::SubmitOptions{serve::Priority::Batch});
  batch.wait();
  EXPECT_EQ(batch.status(), serve::JobStatus::Shed);
  serve::SubmitOptions iopt;
  iopt.priority = serve::Priority::Interactive;
  auto inter = svc.submit_solve(a, random_matrix(24, 1, 94), iopt);
  inter.wait();
  EXPECT_EQ(inter.status(), serve::JobStatus::Done);
}

TEST(ServeResilience, PoisonedFactorizationIsContainedAndRetried) {
  // gemm NaN poisoning during the factorization: output screening catches
  // the non-finite solution, evicts the poisoned cache entry, and the retry
  // refactors cleanly — the client sees a bitwise-correct answer.
  fault::FaultPlan plan(11);
  plan.arm({fault::site::kGemmNan, 1.0, /*max_fires=*/1});
  auto cfg = service_config();
  cfg.retry_backoff_us = 100;
  cfg.watchdog_period_ms = 1;
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 101);
  const auto b = random_matrix(32, 1, 102);
  const Solver reference(cfg.solver);
  Matrix<double> x;
  {
    fault::ScopedPlan guard(plan);
    x = svc.submit_solve(a, b, serve::SubmitOptions{}).get().x;
  }
  EXPECT_EQ(plan.fires(fault::site::kGemmNan), 1u);
  const auto want = reference.solve(a, b).x;
  for (int i = 0; i < 32; ++i) EXPECT_EQ(x(i, 0), want(i, 0)) << i;
  EXPECT_GE(svc.stats().retries, 1u);
}

TEST(ServeResilience, RetryBudgetExhaustionFails) {
  // More injected throws than the retry budget: the job must fail with the
  // injected error, not spin forever.
  fault::FaultPlan plan(13);
  plan.arm({fault::site::kServeTask, 1.0});  // fires every attempt
  auto cfg = service_config();
  cfg.max_retries = 2;
  cfg.retry_backoff_us = 100;
  cfg.watchdog_period_ms = 1;
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 24, 111);
  serve::JobHandle h;
  {
    fault::ScopedPlan guard(plan);
    h = svc.submit_solve(a, random_matrix(24, 1, 112), serve::SubmitOptions{});
    h.wait();
  }
  EXPECT_EQ(h.status(), serve::JobStatus::Failed);
  EXPECT_THROW(h.get(), fault::InjectedFault);
  const auto s = svc.stats();
  EXPECT_EQ(s.retries, 2u);
  EXPECT_TRUE(accounting_balanced(s));
}

TEST(ServeResilience, CancelRacesUnderChaosKeepTheBooks) {
  // Cancellation racing retry, shed, and watchdog quarantine under the
  // chaos scheduler: whatever interleaving happens, every job settles
  // exactly once and the accounting identity holds.
  for (std::uint64_t chaos = 1; chaos <= 4; ++chaos) {
    fault::FaultPlan plan(100 + chaos);
    plan.arm({fault::site::kServeTask, 0.5});
    plan.arm({fault::site::kServeDrop, 0.2, /*max_fires=*/2});
    plan.arm({fault::site::kTaskDelay, 0.2, ~std::uint64_t{0}, 0, 200});
    auto cfg = service_config();
    cfg.chaos_seed = chaos;
    cfg.max_retries = 1;
    cfg.retry_backoff_us = 200;
    cfg.watchdog_period_ms = 1;
    cfg.watchdog_wall_multiple = 4;
    cfg.hard_wall_us = 100000;  // guard every job: drops must be recovered
    serve::SolveService svc(cfg);
    std::vector<serve::JobHandle> handles;
    {
      fault::ScopedPlan guard(plan);
      for (int i = 0; i < 16; ++i) {
        const auto a = gen::generate(gen::MatrixKind::Random, 24,
                                     chaos * 1000 + static_cast<std::uint64_t>(i));
        serve::SubmitOptions opt;
        opt.priority = static_cast<serve::Priority>(i % 3);
        if (i % 4 == 1) opt.deadline_us = 50;  // shed-prone
        handles.push_back(svc.submit_solve(
            a, random_matrix(24, 1, static_cast<std::uint64_t>(i)), opt));
        if (i % 2 == 0) handles.back().cancel();
      }
      svc.drain();
    }
    for (const auto& h : handles) {
      const auto st = h.status();
      EXPECT_TRUE(st != serve::JobStatus::Queued &&
                  st != serve::JobStatus::Running)
          << "chaos=" << chaos << " status=" << static_cast<int>(st);
    }
    EXPECT_TRUE(accounting_balanced(svc.stats())) << "chaos=" << chaos;
  }
}

}  // namespace
}  // namespace luqr
