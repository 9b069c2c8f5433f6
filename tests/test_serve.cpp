// Tests for the luqr::serve::SolveService (test_routes checks every serve
// route, its fusion and its counters against the serial retained solve):
// cancellation, backpressure (blocking and rejecting), priority overtaking,
// single-flight deduplication and hash collisions, telemetry sanity, engine
// idle hooks, and a mixed multi-client stress run (sized to stay
// TSan-friendly — the CI thread-sanitizer job runs this whole binary).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "runtime/engine.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::serve {
namespace {

using luqr::testing::expect_bitwise;
using luqr::testing::random_matrix;
using luqr::testing::settle_until;

SolverConfig base_solver() {
  return SolverConfig()
      .criterion(CriterionSpec::max(50.0))
      .tile_size(16)
      .grid(2, 2);
}

ServiceConfig base_config(int threads = 2) {
  ServiceConfig cfg;
  cfg.solver = base_solver();
  cfg.threads = threads;
  return cfg;
}

TEST(SolveService, FactorJobWarmsCache) {
  SolveService svc(base_config());
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 11);
  const SolveReply fr = svc.submit_factor(a).get();
  EXPECT_FALSE(fr.cache_hit);
  EXPECT_EQ(fr.x.rows(), 0);
  const auto b = random_matrix(32, 1, 12);
  EXPECT_TRUE(svc.submit_solve(a, b).get().cache_hit);
  EXPECT_TRUE(svc.submit_factor(a).get().cache_hit);
}

TEST(SolveService, HashCollisionOwnsItsOwnFactorization) {
  // A constant cache hash makes every matrix collide. With the one worker
  // gated, the first matrix's factorization stays pending when the second,
  // a different matrix of the same size, arrives under the same hash: the
  // byte compare tells them apart, so it factors on its own instead of
  // attaching.
  ServiceConfig cfg = base_config(1);
  cfg.cache_hash = [](const Matrix<double>&) -> std::uint64_t { return 42; };
  const Solver reference(cfg.solver);
  SolveService svc(cfg);
  const auto a1 = gen::generate(gen::MatrixKind::Random, 48, 1501);
  const auto a2 = gen::generate(gen::MatrixKind::Random, 48, 1502);
  const auto b1 = random_matrix(48, 1, 1503);
  const auto b2 = random_matrix(48, 2, 1504);
  const auto pending = [](std::size_t count) {
    return [count](const ServiceStats& s) {
      return s.queue_depth == 0 && s.pending_factorizations == count;
    };
  };
  JobHandle first, second;
  {
    luqr::testing::WorkerGate gate(svc.engine());
    first = svc.submit_solve(a1, b1);
    settle_until(svc, pending(1), "one pending factorization");
    second = svc.submit_solve(a2, b2);
    settle_until(svc, pending(2), "two pending factorizations");
  }
  expect_bitwise(first.get().x, reference.solve(a1, b1).x,
                 "first of a colliding pair");
  const SolveReply r2 = second.get();
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_GT(r2.factor_us, 0u);  // not an attached waiter
  expect_bitwise(r2.x, reference.solve(a2, b2).x, "second of a colliding pair");
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.factors_coarse + s.factors_inline_parallel, 2u);
}

TEST(SolveService, SingleFlightDeduplicatesConcurrentMisses) {
  // Many concurrent jobs on the same (uncached) matrix: exactly one
  // factorization runs; everyone gets bitwise-correct answers. A batch and a
  // factor job follow the first solve, so they park as waiters on its
  // pending factorization too.
  ServiceConfig cfg = base_config(2);
  cfg.parallel_factor_tiles = 0;  // coarse path, so attaches park as waiters
  const Solver reference(cfg.solver);
  SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 41);
  std::vector<Matrix<double>> bs;
  std::vector<JobHandle> jobs;
  std::vector<Matrix<double>> member_bs = {random_matrix(64, 1, 45),
                                          random_matrix(64, 2, 46)};
  std::vector<JobHandle> batch;
  JobHandle factor;
  for (int i = 0; i < 8; ++i) {
    bs.push_back(random_matrix(64, 1, 50 + i));
    jobs.push_back(svc.submit_solve(a, bs.back()));
    if (i == 0) {
      batch = svc.submit_batch(a, member_bs, Priority::Normal);
      factor = svc.submit_factor(a);
    }
  }
  for (int i = 0; i < 8; ++i)
    expect_bitwise(jobs[static_cast<std::size_t>(i)].get().x,
                   reference.solve(a, bs[static_cast<std::size_t>(i)]).x,
                   "deduped");
  for (std::size_t k = 0; k < batch.size(); ++k)
    expect_bitwise(batch[k].get().x, reference.solve(a, member_bs[k]).x,
                   "deduped batch member");
  EXPECT_EQ(factor.get().x.rows(), 0);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.factors_coarse + s.factors_inline_parallel, 1u);
}

TEST(SolveService, CancelQueuedJobSkipsWork) {
  // One worker, inflight 1, and a slow job in front: jobs cancelled while
  // queued never run. Behind it sit a single solve and a 3-member batch of
  // which one member is cancelled; its batch-mates still run.
  ServiceConfig cfg = base_config(1);
  cfg.max_inflight = 1;
  cfg.dispatchers = 1;
  const Solver reference(cfg.solver);
  SolveService svc(cfg);
  const auto slow_a = gen::generate(gen::MatrixKind::Random, 96, 61);
  const auto slow_b = random_matrix(96, 1, 62);
  auto slow = svc.submit_solve(slow_a, slow_b);

  const auto a = gen::generate(gen::MatrixKind::Random, 32, 63);
  const auto b = random_matrix(32, 1, 64);
  auto victim = svc.submit_solve(a, b);
  const auto batch_a = gen::generate(gen::MatrixKind::Random, 32, 65);
  const std::vector<Matrix<double>> member_bs = {random_matrix(32, 1, 66),
                                                random_matrix(32, 2, 67),
                                                random_matrix(32, 1, 68)};
  auto members = svc.submit_batch(batch_a, member_bs, Priority::Normal);
  // Cancellation wins while the job is queued (the slow job occupies the
  // only inflight slot; the victim sits in the admission queue or engine).
  const bool won = victim.cancel();
  const bool member_won = members[1].cancel();
  if (won) {
    EXPECT_EQ(victim.status(), JobStatus::Cancelled);
    EXPECT_THROW(victim.get(), Error);
  }
  (void)slow.get();
  svc.drain();
  for (std::size_t k = 0; k < members.size(); ++k) {
    if (k == 1 && member_won) {
      EXPECT_EQ(members[k].status(), JobStatus::Cancelled);
      continue;
    }
    ASSERT_EQ(members[k].status(), JobStatus::Done) << k;
    expect_bitwise(members[k].get().x, reference.solve(batch_a, member_bs[k]).x,
                   "batch member behind a cancelled one");
  }
  const ServiceStats s = svc.stats();
  const std::uint64_t batch_done = member_won ? 2u : 3u;
  if (won) {
    EXPECT_EQ(s.cancelled, member_won ? 2u : 1u);
    EXPECT_EQ(s.completed, 1u + batch_done);
  } else {
    EXPECT_EQ(s.cancelled, member_won ? 1u : 0u);
    EXPECT_EQ(s.completed, 2u + batch_done);
  }
  EXPECT_FALSE(victim.cancel());  // terminal either way: cancel loses now
}

TEST(SolveService, RejectWhenFullPolicy) {
  ServiceConfig cfg = base_config(1);
  cfg.queue_capacity = 2;
  cfg.max_inflight = 1;
  cfg.reject_when_full = true;
  SolveService svc(cfg);
  // The gate holds the one worker while the jobs arrive, so the queue
  // cannot drain between submissions.
  luqr::testing::WorkerGate gate(svc.engine());
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 12; ++i) {
    const auto a = gen::generate(gen::MatrixKind::Random, 48, 100 + i);
    const auto b = random_matrix(48, 1, 200 + i);
    jobs.push_back(svc.submit_solve(a, b));
  }
  gate.release();
  int done = 0, rejected = 0;
  for (auto& j : jobs) {
    j.wait();
    if (j.status() == JobStatus::Done) ++done;
    if (j.status() == JobStatus::Rejected) {
      ++rejected;
      EXPECT_THROW(j.get(), Error);
    }
  }
  EXPECT_EQ(done + rejected, 12);
  EXPECT_GT(rejected, 0);  // 12 jobs into capacity 2 + inflight 1 must spill
  EXPECT_EQ(svc.stats().rejected, static_cast<std::uint64_t>(rejected));
}

TEST(SolveService, BlockingBackpressureCompletesEverything) {
  ServiceConfig cfg = base_config(2);
  cfg.queue_capacity = 2;
  cfg.max_inflight = 2;
  cfg.reject_when_full = false;
  SolveService svc(cfg);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 16; ++i) {
    const auto a = gen::generate(gen::MatrixKind::Random, 32, 300 + i);
    const auto b = random_matrix(32, 1, 400 + i);
    jobs.push_back(svc.submit_solve(a, b));  // blocks when the queue fills
  }
  for (auto& j : jobs) EXPECT_EQ(JobStatus::Done, (j.wait(), j.status()));
  EXPECT_EQ(svc.stats().completed, 16u);
  EXPECT_EQ(svc.stats().rejected, 0u);
}

TEST(SolveService, InteractiveOvertakesBatchTraffic) {
  ServiceConfig cfg = base_config(1);
  cfg.max_inflight = 1;
  SolveService svc(cfg);
  // The gate holds the one worker until the urgent job is queued, so the
  // batch jobs cannot drain before it arrives.
  luqr::testing::WorkerGate gate(svc.engine());
  std::vector<JobHandle> batch;
  for (int i = 0; i < 12; ++i) {
    const auto a = gen::generate(gen::MatrixKind::Random, 64, 500 + i);
    const auto b = random_matrix(64, 1, 600 + i);
    batch.push_back(svc.submit_solve(a, b, Priority::Batch));
  }
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 700);
  const auto b = random_matrix(32, 1, 701);
  auto urgent = svc.submit_solve(a, b, Priority::Interactive);
  gate.release();
  (void)urgent.get();
  // The urgent job jumped the queue: batch work must still be outstanding.
  int not_done = 0;
  for (auto& j : batch)
    if (j.status() != JobStatus::Done) ++not_done;
  EXPECT_GT(not_done, 0);
  for (auto& j : batch) (void)j.get();
}

TEST(SolveService, TelemetryAndIdleHooks) {
  SolveService svc(base_config());
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 801);
  for (int i = 0; i < 5; ++i)
    (void)svc.submit_solve(a, random_matrix(32, 1, 810 + i)).get();
  svc.drain();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.pending_factorizations, 0u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_LE(s.latency_p50_us, s.latency_p99_us);
  EXPECT_GE(s.latency_p99_us, 1u);
  EXPECT_GT(s.jobs_per_second, 0.0);
  EXPECT_GT(s.engine_tasks_executed, 0u);
  EXPECT_EQ(s.workers, 2);
  EXPECT_GE(s.cache.hits, 4u);
  EXPECT_GT(s.cache.hit_rate(), 0.5);
  // Engine drain hooks: drain() settles jobs before the final task retires,
  // so quiescence is reached via wait_idle(), after which idle() holds.
  svc.engine().wait_idle();
  EXPECT_TRUE(svc.engine().idle());
}

TEST(SolveService, FineGrainedBatchAndFactorJobs) {
  // Large-matrix path: a batch and a factor job on fresh matrices factor
  // fine-grained on the shared engine, and the factor job's matrix then
  // serves a bitwise-correct cache hit. (test_routes checks the
  // fine-grained submit_solve owner.)
  ServiceConfig cfg = base_config(2);
  cfg.parallel_factor_tiles = 4;  // 96/16 = 6 tile rows take the fine path
  const Solver reference(cfg.solver);
  SolveService svc(cfg);
  const auto batch_a = gen::generate(gen::MatrixKind::Random, 96, 903);
  const std::vector<Matrix<double>> member_bs = {random_matrix(96, 1, 904),
                                                random_matrix(96, 2, 905)};
  auto members = svc.submit_batch(batch_a, member_bs, Priority::Normal);
  for (std::size_t k = 0; k < members.size(); ++k)
    expect_bitwise(members[k].get().x, reference.solve(batch_a, member_bs[k]).x,
                   "fine-grained batch member");
  const auto factor_a = gen::generate(gen::MatrixKind::Random, 96, 906);
  EXPECT_EQ(svc.submit_factor(factor_a).get().x.rows(), 0);
  const auto factor_b = random_matrix(96, 1, 907);
  const SolveReply hit = svc.submit_solve(factor_a, factor_b).get();
  EXPECT_TRUE(hit.cache_hit);
  expect_bitwise(hit.x, reference.solve(factor_a, factor_b).x,
                 "hit on a fine-grained factor job");
  const ServiceStats after = svc.stats();
  EXPECT_EQ(after.factors_inline_parallel, 2u);
  EXPECT_EQ(after.factors_coarse, 0u);
}

TEST(SolveServiceStress, MixedClientsMatchReferenceBitwise) {
  // The acceptance-grade stress shape, sized for TSan: 8 client threads x
  // 25 requests each (200 total) over a shared pool of matrices with mixed
  // sizes, priorities, multi-RHS widths, and occasional batches. Every
  // result must be bitwise identical to the one-shot facade.
  ServiceConfig cfg = base_config(4);
  cfg.queue_capacity = 64;
  cfg.dispatchers = 2;
  const Solver reference(cfg.solver);

  constexpr int kPool = 6;
  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::vector<Matrix<double>> pool;
  std::vector<int> sizes = {16, 24, 32, 48, 53, 64};
  for (int i = 0; i < kPool; ++i)
    pool.push_back(gen::generate(gen::MatrixKind::Random,
                                 sizes[static_cast<std::size_t>(i)], 1100 + i));

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  SolveService svc(cfg);
  SolveService* svcp = &svc;
  auto client = [&](int id) {
    for (int r = 0; r < kPerClient; ++r) {
      const int pick = (id * 7 + r * 3) % kPool;
      const Matrix<double>& a = pool[static_cast<std::size_t>(pick)];
      const int cols = 1 + (r % 3);
      const auto b = random_matrix(a.rows(), cols,
                                   static_cast<std::uint64_t>(id) * 1000 + r);
      const auto prio = static_cast<Priority>(r % 3);
      try {
        Matrix<double> got;
        if (r % 5 == 4) {
          std::vector<Matrix<double>> bs = {b, random_matrix(a.rows(), 1,
                                                             9000 + id * 31 + r)};
          auto handles = svcp->submit_batch(a, bs, prio);
          got = handles[0].get().x;
          (void)handles[1].get();
        } else {
          got = svcp->submit_solve(a, b, prio).get().x;
        }
        const auto want = reference.solve(a, b).x;
        for (int j = 0; j < want.cols(); ++j)
          for (int i = 0; i < want.rows(); ++i)
            if (got(i, j) != want(i, j)) {
              mismatches.fetch_add(1);
              return;
            }
      } catch (...) {
        failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  svc.drain();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients * kPerClient) +
                             s.batch_members - s.batches);
  EXPECT_GT(s.cache.hits, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Mixed precision through the service
// ---------------------------------------------------------------------------

TEST(SolveService, ReducedPrecisionRepliesCarryReportsAndCounters) {
  ServiceConfig cfg = base_config();
  cfg.solver = SolverConfig(base_solver()).precision(core::Precision::F32_IR);
  const Solver reference(cfg.solver);
  SolveService svc(cfg);

  const auto a = gen::generate(gen::MatrixKind::Random, 48, 71);
  const auto b = random_matrix(48, 1, 72);
  const SolveReply cold = svc.submit_solve(a, b).get();
  EXPECT_EQ(cold.report.precision, core::Precision::F32_IR);
  EXPECT_TRUE(cold.report.converged);
  EXPECT_FALSE(cold.report.fell_back);
  expect_bitwise(cold.x, reference.solve(a, b).x, "f32_ir cold");

  // Warm hit: same factors, same refinement trajectory, same report.
  const SolveReply warm = svc.submit_solve(a, b).get();
  EXPECT_TRUE(warm.cache_hit);
  expect_bitwise(warm.x, cold.x, "f32_ir warm");
  EXPECT_EQ(warm.report.refine_iterations, cold.report.refine_iterations);

  // An ill-conditioned job reports its fallback through the service.
  const auto hard = gen::generate(gen::MatrixKind::Hilb, 64, 73);
  const SolveReply hr = svc.submit_solve(hard, random_matrix(64, 1, 74)).get();
  EXPECT_TRUE(hr.report.fell_back);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_GE(s.refine_fallbacks, 1u);
}

TEST(SolveService, BatchMembersShareOnePrecisionReport) {
  ServiceConfig cfg = base_config();
  cfg.solver = SolverConfig(base_solver()).precision(core::Precision::F32);
  SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 81);
  std::vector<Matrix<double>> bs = {random_matrix(32, 1, 82),
                                    random_matrix(32, 2, 83)};
  auto handles = svc.submit_batch(a, bs, Priority::Normal);
  for (auto& h : handles) {
    const SolveReply r = h.get();
    EXPECT_EQ(r.report.precision, core::Precision::F32);
  }
  EXPECT_EQ(svc.stats().submitted, 2u);
}

TEST(SolveService, ConcurrentReducedPrecisionClientsStayIsolated) {
  // Two services at different precisions, hammered concurrently over the
  // SAME matrix bytes: every reply must match its own service's one-shot
  // reference bitwise. A precision leak between the caches (or a report
  // data race — this test runs under the CI TSan job) would show up as a
  // mismatch between f64-accurate and f32-accurate solutions.
  ServiceConfig cfg64 = base_config();
  ServiceConfig cfg32 = base_config();
  cfg32.solver = SolverConfig(base_solver()).precision(core::Precision::F32);
  const Solver ref64(cfg64.solver);
  const Solver ref32(cfg32.solver);
  SolveService svc64(cfg64);
  SolveService svc32(cfg32);

  const auto a = gen::generate(gen::MatrixKind::Random, 48, 91);
  std::atomic<int> mismatches{0};
  auto client = [&](int id) {
    for (int r = 0; r < 6; ++r) {
      const auto b = random_matrix(48, 1, 7000 + id * 100 + r);
      const bool low = (id + r) % 2 == 0;
      const auto got = (low ? svc32 : svc64).submit_solve(a, b).get();
      const auto want = (low ? ref32 : ref64).solve(a, b).x;
      if (got.report.precision !=
          (low ? core::Precision::F32 : core::Precision::F64)) {
        mismatches.fetch_add(1);
        return;
      }
      for (int i = 0; i < 48; ++i)
        if (got.x(i, 0) != want(i, 0)) {
          mismatches.fetch_add(1);
          return;
        }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // 4 clients x 6 requests alternate precisions: 12 jobs land on each.
  EXPECT_EQ(svc64.stats().submitted, 12u);
  EXPECT_EQ(svc32.stats().submitted, 12u);
}


// ---------------------------------------------------------------------------
// Model-based randomized test
// ---------------------------------------------------------------------------

TEST(SolveServiceModel, SeededRandomOpsKeepBooksAndBits) {
  // One client submits a seeded random mix of solves, factors, batches,
  // submit_many calls, cancels of earlier handles and born-expired solves
  // against a pool of four matrices, two of them tall enough for the
  // fine-grained path, under the chaos scheduler. submit_many members draw
  // their matrices from the pool by shared pointer, repeats included, and
  // are cancel targets like every other handle. The model records what
  // each handle asked for and whether its cancel() won. After drain()
  // every handle must be terminal
  // in a state the model allows, the service's books must equal the
  // handles' states, and every Done solve must be bitwise equal to one-shot
  // Solver::solve. The watchdog is off: a born-expired job's hard wall is
  // 8 us, and a watchdog scan that reached it before the dispatcher would
  // fail it instead of shedding it.
  constexpr int kOps = 60;
  constexpr int kPool = 4;
  const int sizes[kPool] = {24, 32, 48, 64};
  // Route coverage summed over the seeds: the mix must actually reach
  // cache hits, both factor grains, chunk tasks, submit_many members served
  // through an attached pending factorization, won cancels and sheds.
  std::uint64_t hits = 0, fine = 0, coarse = 0, chunked = 0, many_attached = 0,
                cancels_won = 0, sheds = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ServiceConfig cfg = base_config(2);
    cfg.chaos_seed = seed;
    cfg.parallel_factor_tiles = 3;  // the 48 and 64 matrices factor fine-grained
    cfg.watchdog_period_ms = 0;
    const Solver reference(cfg.solver);
    std::vector<Matrix<double>> pool;
    for (int i = 0; i < kPool; ++i)
      pool.push_back(gen::generate(gen::MatrixKind::Random, sizes[i],
                                   seed * 10 + static_cast<std::uint64_t>(i)));
    std::vector<std::shared_ptr<const Matrix<double>>> shared;
    for (const Matrix<double>& a : pool)
      shared.push_back(std::make_shared<const Matrix<double>>(a));

    struct Entry {
      JobHandle handle;
      int pick = 0;
      Matrix<double> b;  // no rows for a factor job
      bool expired = false;
      bool cancel_won = false;
      bool many = false;  // a submit_many member
    };
    std::vector<Entry> model;
    Rng rng(seed);
    SolveService svc(cfg);
    for (int op = 0; op < kOps; ++op) {
      const int pick = static_cast<int>(rng.below(kPool));
      const Matrix<double>& a = pool[static_cast<std::size_t>(pick)];
      const auto prio = static_cast<Priority>(rng.below(3));
      const std::uint64_t bseed =
          seed * 100000 + static_cast<std::uint64_t>(op) * 8;
      switch (rng.below(6)) {
        case 0: {
          const int cols = 1 + static_cast<int>(rng.below(2));
          Entry e{{}, pick, random_matrix(a.rows(), cols, bseed)};
          e.handle = svc.submit_solve(a, e.b, prio);
          model.push_back(std::move(e));
          break;
        }
        case 1:
          model.push_back(Entry{svc.submit_factor(a, prio), pick, {}});
          break;
        case 2: {
          std::vector<Matrix<double>> bs;
          const int members = 1 + static_cast<int>(rng.below(3));
          for (int k = 0; k < members; ++k)
            bs.push_back(random_matrix(a.rows(), 1 + k % 2, bseed + k));
          std::vector<JobHandle> hs = svc.submit_batch(a, bs, prio);
          for (int k = 0; k < members; ++k)
            model.push_back(Entry{hs[static_cast<std::size_t>(k)], pick,
                                  bs[static_cast<std::size_t>(k)]});
          break;
        }
        case 3:
          if (!model.empty()) {
            Entry& e = model[rng.below(model.size())];
            if (e.handle.cancel()) e.cancel_won = true;
          }
          break;
        case 4: {
          std::vector<std::shared_ptr<const Matrix<double>>> as;
          std::vector<Matrix<double>> bs;
          std::vector<int> picks;
          const int members = 1 + static_cast<int>(rng.below(4));
          for (int k = 0; k < members; ++k) {
            picks.push_back(static_cast<int>(rng.below(kPool)));
            as.push_back(shared[static_cast<std::size_t>(picks.back())]);
            bs.push_back(
                random_matrix(as.back()->rows(), 1 + k % 2, bseed + k));
          }
          std::vector<JobHandle> hs = svc.submit_many(as, bs, prio);
          for (int k = 0; k < members; ++k) {
            model.push_back(Entry{hs[static_cast<std::size_t>(k)],
                                  picks[static_cast<std::size_t>(k)],
                                  bs[static_cast<std::size_t>(k)]});
            model.back().many = true;
          }
          break;
        }
        default: {
          SubmitOptions opt;
          opt.priority = prio;
          opt.deadline_us = 1;  // born expired: must never run
          Entry e{{}, pick, random_matrix(a.rows(), 1, bseed)};
          e.expired = true;
          e.handle = svc.submit_solve(a, e.b, opt);
          model.push_back(std::move(e));
          break;
        }
      }
    }
    svc.drain();

    std::uint64_t done = 0, cancelled = 0, shed = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
      Entry& e = model[i];
      const JobStatus st = e.handle.status();
      ASSERT_TRUE(st == JobStatus::Done || st == JobStatus::Cancelled ||
                  st == JobStatus::Shed)
          << "handle " << i << " status " << static_cast<int>(st);
      if (e.cancel_won) {
        EXPECT_EQ(st, JobStatus::Cancelled) << i;
      }
      if (e.expired) {
        EXPECT_TRUE(st == JobStatus::Shed || st == JobStatus::Cancelled) << i;
      }
      done += st == JobStatus::Done;
      cancelled += st == JobStatus::Cancelled;
      shed += st == JobStatus::Shed;
      if (st != JobStatus::Done) continue;
      const SolveReply reply = e.handle.get();
      const Matrix<double>& x = reply.x;
      // Neither a hit nor the owner (who pays factor_us): attached.
      many_attached += e.many && !reply.cache_hit && reply.factor_us == 0;
      if (e.b.rows() == 0) {
        EXPECT_EQ(x.rows(), 0) << i;
        continue;
      }
      const Matrix<double>& a = pool[static_cast<std::size_t>(e.pick)];
      expect_bitwise(x, reference.solve(a, e.b).x, "model solve");
    }
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.submitted, model.size());
    EXPECT_EQ(s.submitted,
              s.completed + s.failed + s.cancelled + s.rejected + s.shed);
    EXPECT_EQ(s.completed, done);
    EXPECT_EQ(s.cancelled, cancelled);
    EXPECT_EQ(s.shed, shed);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.pending_factorizations, 0u);  // every owner flushed its entry
    hits += s.cache.hits;
    fine += s.factors_inline_parallel;
    coarse += s.factors_coarse;
    chunked += s.batched_jobs;
    sheds += s.shed;
    for (const Entry& e : model) cancels_won += e.cancel_won;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(fine, 0u);
  EXPECT_GT(coarse, 0u);
  EXPECT_GT(chunked, 0u);
  EXPECT_GT(many_attached, 0u);
  EXPECT_GT(cancels_won, 0u);
  EXPECT_GT(sheds, 0u);
}

}  // namespace
}  // namespace luqr::serve
