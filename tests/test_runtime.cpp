// Tests for the dataflow engine (dependency inference, continuations,
// priorities, work-stealing, retirement, stress) and the task-parallel
// hybrid driver (the engine sink agrees bitwise with the inline sink).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <numeric>

#include "api/solver.hpp"
#include "core/hybrid.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::rt {
namespace {

using luqr::testing::random_matrix;

TEST(Engine, RunsIndependentTasks) {
  Engine engine(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    engine.submit([&count] { count.fetch_add(1); }, {});
  engine.wait_all();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(engine.tasks_executed(), 100u);
}

TEST(Engine, ReadAfterWriteOrdering) {
  Engine engine(4);
  int datum = 0;
  int seen = -1;
  engine.submit([&datum] { datum = 42; }, {{&datum, Access::Write}});
  engine.submit([&datum, &seen] { seen = datum; }, {{&datum, Access::Read}});
  engine.wait_all();
  EXPECT_EQ(seen, 42);
}

TEST(Engine, WriteAfterReadOrdering) {
  Engine engine(4);
  int datum = 1;
  std::vector<int> reads(8, -1);
  for (int i = 0; i < 8; ++i)
    engine.submit([&datum, &reads, i] { reads[static_cast<std::size_t>(i)] = datum; },
                  {{&datum, Access::Read}});
  engine.submit([&datum] { datum = 2; }, {{&datum, Access::Write}});
  engine.wait_all();
  for (int r : reads) EXPECT_EQ(r, 1);  // all readers ran before the writer
}

TEST(Engine, WriteAfterWriteChain) {
  Engine engine(4);
  std::vector<int> order;
  int datum = 0;
  for (int i = 0; i < 20; ++i)
    engine.submit([&order, i] { order.push_back(i); },
                  {{&datum, Access::ReadWrite}});
  engine.wait_all();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // RW chain serializes in submission order
}

TEST(Engine, IndependentDataRunConcurrently) {
  // Two RW chains on different data must not serialize against each other;
  // just verify both complete and each chain kept its order.
  Engine engine(2);
  int a = 0, b = 0;
  std::vector<int> order_a, order_b;
  for (int i = 0; i < 10; ++i) {
    engine.submit([&order_a, i] { order_a.push_back(i); }, {{&a, Access::ReadWrite}});
    engine.submit([&order_b, i] { order_b.push_back(i); }, {{&b, Access::ReadWrite}});
  }
  engine.wait_all();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order_a[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order_b[static_cast<std::size_t>(i)], i);
  }
}

TEST(Engine, WaitOnSpecificTask) {
  Engine engine(2);
  int x = 0;
  const TaskId id = engine.submit([&x] { x = 7; }, {{&x, Access::Write}});
  engine.wait(id);
  EXPECT_EQ(x, 7);
  engine.wait(id);  // idempotent
  engine.wait_all();
}

TEST(Engine, DiamondDependency) {
  Engine engine(4);
  int top = 0, left = 0, right = 0, bottom = 0;
  engine.submit([&] { top = 1; }, {{&top, Access::Write}});
  engine.submit([&] { left = top + 1; },
                {{&top, Access::Read}, {&left, Access::Write}});
  engine.submit([&] { right = top + 2; },
                {{&top, Access::Read}, {&right, Access::Write}});
  engine.submit([&] { bottom = left + right; },
                {{&left, Access::Read}, {&right, Access::Read},
                 {&bottom, Access::Write}});
  engine.wait_all();
  EXPECT_EQ(bottom, 5);
}

TEST(Engine, StressManySmallTasks) {
  Engine engine(4);
  constexpr int kData = 32;
  std::vector<long> data(kData, 0);
  for (int round = 0; round < 200; ++round)
    for (int d = 0; d < kData; ++d)
      engine.submit([&data, d] { ++data[static_cast<std::size_t>(d)]; },
                    {{&data[static_cast<std::size_t>(d)], Access::ReadWrite}});
  engine.wait_all();
  for (long v : data) EXPECT_EQ(v, 200);
}

TEST(Engine, SingleWorkerIsCorrect) {
  Engine engine(1);
  int x = 0;
  for (int i = 0; i < 50; ++i)
    engine.submit([&x] { ++x; }, {{&x, Access::ReadWrite}});
  engine.wait_all();
  EXPECT_EQ(x, 50);
}

TEST(Engine, ZeroWorkersThrows) { EXPECT_THROW(Engine(0), Error); }

// ---------------------------------------------------------------------------
// Continuations, priorities, stealing, retirement, tracing
// ---------------------------------------------------------------------------

TEST(Engine, TasksSubmittingTasksSingleWorker) {
  // A continuation chain on one worker must never deadlock (regression for
  // the decision-as-task driver): each task submits the next before it
  // finishes, so outstanding work never reaches zero early.
  Engine engine(1);
  std::atomic<int> count{0};
  std::function<void(int)> spawn = [&](int depth) {
    count.fetch_add(1);
    if (depth < 2000) engine.submit([&spawn, depth] { spawn(depth + 1); }, {});
  };
  engine.submit([&spawn] { spawn(0); }, {});
  engine.wait_all();
  EXPECT_EQ(count.load(), 2001);
}

TEST(Engine, ContinuationSubmissionKeepsDataOrdering) {
  // Tasks submitted from inside a task must see the same inferred
  // dependences as external submissions: an RW chain built by a
  // continuation serializes in submission order.
  Engine engine(4);
  int datum = 0;
  std::vector<int> order;
  engine.submit(
      [&] {
        for (int i = 0; i < 50; ++i)
          engine.submit([&order, i] { order.push_back(i); },
                        {{&datum, Access::ReadWrite}});
      },
      {});
  engine.wait_all();
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Engine, PriorityTasksOvertakeNormalOnes) {
  // One worker, held busy while we queue bulk tasks and then one
  // high-priority task: the priority lane must be drained first.
  Engine engine(1);
  std::atomic<bool> gate{false};
  std::vector<int> order;  // only the single worker writes; main reads after
  engine.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  }, {});
  for (int i = 0; i < 4; ++i)
    engine.submit([&order, i] { order.push_back(i); }, {});
  engine.submit([&order] { order.push_back(99); }, {}, {"urgent", 2});
  gate.store(true);
  engine.wait_all();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.front(), 99);  // priority 2 beat every earlier bulk task
}

TEST(Engine, PriorityLanesOrderedHighestFirst) {
  Engine engine(1);
  std::atomic<bool> gate{false};
  std::vector<int> order;
  engine.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  }, {});
  engine.submit([&order] { order.push_back(0); }, {});
  engine.submit([&order] { order.push_back(1); }, {}, {"p1", 1});
  engine.submit([&order] { order.push_back(2); }, {}, {"p2", 2});
  gate.store(true);
  engine.wait_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);  // priority 2 lane first
  EXPECT_EQ(order[1], 1);  // then priority 1
  EXPECT_EQ(order[2], 0);  // bulk last
}

TEST(Engine, StealPathStressManyTinyTasks) {
  // One root task floods its own deque with tiny children; the other
  // workers have nothing else, so the children can only complete through
  // the steal path.
  Engine engine(4);
  constexpr int kChildren = 3000;
  std::atomic<long> sum{0};
  engine.submit(
      [&] {
        for (int i = 0; i < kChildren; ++i)
          engine.submit(
              [&sum, i] {
                volatile long spin = 0;
                for (int s = 0; s < 2000; ++s) spin += s;
                (void)spin;
                sum.fetch_add(i);
              },
              {});
      },
      {});
  engine.wait_all();
  EXPECT_EQ(sum.load(), static_cast<long>(kChildren) * (kChildren - 1) / 2);
  EXPECT_EQ(engine.tasks_executed(), static_cast<std::uint64_t>(kChildren) + 1);
  EXPECT_GT(engine.steals(), 0u);
}

TEST(Engine, RetiresTasksAndPrunesDataHistory) {
  // Memory must be O(live frontier): after the graph drains, no task nodes
  // and no per-datum access histories remain (the pre-refactor engine kept
  // both forever).
  Engine engine(2);
  std::vector<long> data(4, 0);
  for (int i = 0; i < 5000; ++i) {
    const int d = i % 4;
    engine.submit([&data, d] { ++data[static_cast<std::size_t>(d)]; },
                  {{&data[static_cast<std::size_t>(d)], Access::ReadWrite}});
  }
  engine.wait_all();
  for (long v : data) EXPECT_EQ(v, 1250);
  EXPECT_EQ(engine.tasks_executed(), 5000u);
  EXPECT_EQ(engine.live_tasks(), 0u);
  EXPECT_EQ(engine.tracked_data(), 0u);
}

TEST(Engine, WaitOnRetiredTaskReturnsImmediately) {
  Engine engine(2);
  int x = 0;
  const TaskId id = engine.submit([&x] { x = 1; }, {{&x, Access::Write}});
  engine.wait_all();
  engine.wait(id);  // retired: must not block
  EXPECT_EQ(x, 1);
}

TEST(Engine, TraceRecordsExecutedTasks) {
  Engine engine(2, EngineOptions{/*trace=*/true});
  int datum = 0;
  engine.submit([] {}, {{&datum, Access::Write}}, {"writer", 2, 7});
  engine.submit([] {}, {{&datum, Access::Read}}, {"reader", 0, 8});
  engine.wait_all();
  const auto events = engine.trace();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "writer");
  EXPECT_EQ(events[0].tag, 7);
  EXPECT_EQ(events[0].priority, 2);
  EXPECT_EQ(events[1].name, "reader");
  EXPECT_EQ(events[1].tag, 8);
  for (const auto& e : events) EXPECT_LE(e.start_us, e.end_us);

  const std::string path = "engine_trace_test.json";
  engine.write_chrome_trace(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char first = 0;
  ASSERT_EQ(std::fread(&first, 1, 1, f), 1u);
  EXPECT_EQ(first, '[');
  std::fclose(f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel hybrid driver
// ---------------------------------------------------------------------------

void expect_bitwise_equal_solve(const Matrix<double>& a, const Matrix<double>& b,
                                const core::HybridOptions& opt, double alpha,
                                int nb, int threads) {
  MaxCriterion c1(alpha), c2(alpha);
  const auto seq = core::hybrid_solve(a, b, c1, nb, opt);
  const auto par = Solver(SolverConfig()
                              .hybrid_options(opt)
                              .tile_size(nb)
                              .criterion(c2)
                              .backend(Backend::Parallel)
                              .threads(threads))
                       .solve(a, b);
  ASSERT_EQ(seq.stats.lu_steps, par.stats.lu_steps);
  ASSERT_EQ(seq.stats.qr_steps, par.stats.qr_steps);
  for (int j = 0; j < seq.x.cols(); ++j)
    for (int i = 0; i < seq.x.rows(); ++i)
      ASSERT_EQ(seq.x(i, j), par.x(i, j)) << "element " << i << "," << j;
}

// Factor a fresh tiling of `a` with the given scheduler and return the tiles.
TileMatrix<double> factor_tiles(const Matrix<double>& a, double alpha, int nb,
                                const core::HybridOptions& opt, int threads,
                                const SchedulerOptions& sched,
                                core::FactorizationStats* stats_out = nullptr,
                                core::TransformLog* log = nullptr) {
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, nb);
  MaxCriterion criterion(alpha);
  auto stats = parallel_hybrid_factor(tiles, criterion, opt, threads, log, sched);
  if (stats_out) *stats_out = std::move(stats);
  return tiles;
}

void expect_tiles_equal(const TileMatrix<double>& x, const TileMatrix<double>& y,
                        const char* label) {
  ASSERT_EQ(x.mt(), y.mt());
  ASSERT_EQ(x.nt(), y.nt());
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i)
      ASSERT_EQ(x.at(i, j), y.at(i, j)) << label << " element " << i << "," << j;
}

TEST(ParallelHybrid, BitwiseMatchesSequentialAllLu) {
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 96, 1);
  const auto b = random_matrix(96, 1, 2);
  expect_bitwise_equal_solve(a, b, {}, 1e30, 16, 4);
}

TEST(ParallelHybrid, BitwiseMatchesSequentialMixed) {
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 3);
  const auto b = random_matrix(96, 2, 4);
  core::HybridOptions opt;
  opt.grid_p = 2;
  opt.grid_q = 2;
  expect_bitwise_equal_solve(a, b, opt, 20.0, 16, 4);
}

TEST(ParallelHybrid, BitwiseMatchesSequentialAllQr) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 5);
  const auto b = random_matrix(64, 1, 6);
  core::HybridOptions opt;
  opt.grid_p = 2;
  expect_bitwise_equal_solve(a, b, opt, 0.0, 16, 3);
}

TEST(ParallelHybrid, SingleThreadAgrees) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 7);
  const auto b = random_matrix(64, 1, 8);
  expect_bitwise_equal_solve(a, b, {}, 10.0, 16, 1);
}

TEST(ParallelHybrid, QrStepsWithAllTrees) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 9);
  const auto b = random_matrix(64, 1, 10);
  for (hqr::LocalTree local : {hqr::LocalTree::FlatTS, hqr::LocalTree::Greedy}) {
    core::HybridOptions opt;
    opt.grid_p = 2;
    opt.tree.local = local;
    AlwaysQR crit;
    const auto r = Solver(SolverConfig()
                              .hybrid_options(opt)
                              .tile_size(16)
                              .criterion(crit)
                              .backend(Backend::Parallel)
                              .threads(4))
                       .solve(a, b);
    EXPECT_LT(verify::relative_residual(a, r.x, b), 1e-13)
        << hqr::to_string(local);
  }
}

TEST(ParallelHybrid, EngineSinkMatchesSerialBitwise) {
  // The engine sink reproduces the inline sink's factors and TransformLog
  // exactly: tiles, step decisions, LU replay data, and every QR operation
  // (kind, killer, killed, T-factor contents) — the data
  // Factorization::solve replays on cache hits.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 21);
  core::HybridOptions opt;
  opt.grid_p = 2;
  opt.grid_q = 2;
  const double alpha = 20.0;
  const int nb = 16, threads = 4;

  TileMatrix<double> serial_tiles = TileMatrix<double>::from_dense(a, nb);
  core::TransformLog serial_log;
  MaxCriterion serial_crit(alpha);
  const auto serial_stats =
      core::hybrid_factor(serial_tiles, serial_crit, opt, &serial_log);
  ASSERT_GT(serial_stats.lu_steps, 0);
  ASSERT_GT(serial_stats.qr_steps, 0);

  core::FactorizationStats stats;
  core::TransformLog log;
  const auto tiles = factor_tiles(a, alpha, nb, opt, threads, {}, &stats, &log);
  ASSERT_EQ(stats.lu_steps, serial_stats.lu_steps);
  ASSERT_EQ(stats.qr_steps, serial_stats.qr_steps);
  expect_tiles_equal(tiles, serial_tiles, "engine");
  ASSERT_EQ(log.size(), serial_log.size());
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].lu, serial_log[k].lu) << "step " << k;
    EXPECT_EQ(log[k].piv, serial_log[k].piv) << "step " << k;
    EXPECT_EQ(log[k].domain_rows, serial_log[k].domain_rows) << "step " << k;
    ASSERT_EQ(log[k].qr_ops.size(), serial_log[k].qr_ops.size()) << "step " << k;
    for (std::size_t o = 0; o < log[k].qr_ops.size(); ++o) {
      const auto& got = log[k].qr_ops[o];
      const auto& want = serial_log[k].qr_ops[o];
      EXPECT_EQ(got.kind, want.kind) << "step " << k << " op " << o;
      EXPECT_EQ(got.killer, want.killer) << "step " << k << " op " << o;
      EXPECT_EQ(got.killed, want.killed) << "step " << k << " op " << o;
      ASSERT_NE(got.t, nullptr);
      ASSERT_NE(want.t, nullptr);
      for (int j = 0; j < nb; ++j)
        for (int i = 0; i < nb; ++i)
          ASSERT_EQ((*got.t)(i, j), (*want.t)(i, j))
              << "step " << k << " op " << o << " T(" << i << "," << j << ")";
    }
  }
}

TEST(ParallelHybrid, PrioritiesOffStillBitwiseIdentical) {
  const auto a = gen::generate(gen::MatrixKind::Random, 80, 23);
  core::HybridOptions opt;
  opt.grid_p = 2;
  SchedulerOptions plain;
  SchedulerOptions unprioritized;
  unprioritized.priorities = false;
  const auto x = factor_tiles(a, 20.0, 16, opt, 4, plain);
  const auto y = factor_tiles(a, 20.0, 16, opt, 4, unprioritized);
  expect_tiles_equal(x, y, "priorities-off");
}

TEST(ParallelHybrid, TrackGrowthMatchesSerialBitwise) {
  // Both sinks reduce the growth factor over the same final-writer tile
  // norms, so it is identical for all-LU and for mixed LU/QR runs.
  for (double alpha : {1e30, 20.0}) {
    const auto a = gen::generate(gen::MatrixKind::Random, 96, 25);
    core::HybridOptions opt;
    opt.grid_p = 2;
    opt.grid_q = 2;
    opt.track_growth = true;

    TileMatrix<double> serial_tiles = TileMatrix<double>::from_dense(a, 16);
    MaxCriterion serial_crit(alpha);
    const auto serial_stats = core::hybrid_factor(serial_tiles, serial_crit, opt);
    ASSERT_GE(serial_stats.growth_factor, 1.0);

    core::FactorizationStats stats;
    factor_tiles(a, alpha, 16, opt, 4, {}, &stats);
    EXPECT_EQ(stats.growth_factor, serial_stats.growth_factor)
        << "alpha " << alpha;
  }
}

TEST(ParallelHybrid, SchedulerStatsReportTelemetry) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 27);
  SchedulerOptions sched;
  sched.trace = true;
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, 16);
  MaxCriterion criterion(20.0);
  SchedulerStats stats;
  parallel_hybrid_factor(tiles, criterion, {}, 3, nullptr, sched, &stats);
  EXPECT_GT(stats.tasks_executed, 0u);
  ASSERT_EQ(stats.trace.size(), stats.tasks_executed);
  // Every step contributes a tagged panel task.
  int panels = 0;
  for (const auto& e : stats.trace)
    if (e.name == "panel") ++panels;
  EXPECT_EQ(panels, 4);  // 64 / 16 tiles
}

TEST(Engine, IdleAndWaitIdleHooks) {
  Engine engine(2);
  EXPECT_TRUE(engine.idle());
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i)
    engine.submit([&ran] { ran.fetch_add(1); }, {});
  engine.wait_idle();
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(ran.load(), 16);
  // Reusable after quiescence (the shared-engine lifecycle).
  engine.submit([&ran] { ran.fetch_add(1); }, {});
  engine.wait_idle();
  EXPECT_EQ(ran.load(), 17);
}

TEST(ExternalEngineFactor, MatchesOwnedPoolBitwise) {
  const auto a = gen::generate(gen::MatrixKind::Random, 80, 71);
  core::HybridOptions opt;
  opt.grid_p = 2;

  TileMatrix<double> owned_tiles = TileMatrix<double>::from_dense(a, 16);
  MaxCriterion c0(20.0);
  core::TransformLog owned_log;
  const auto owned_stats =
      parallel_hybrid_factor(owned_tiles, c0, opt, 3, &owned_log);

  Engine engine(3);
  for (int run = 0; run < 2; ++run) {  // the shared engine is reusable
    TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, 16);
    MaxCriterion criterion(20.0);
    core::TransformLog log;
    const auto stats =
        parallel_hybrid_factor_on(engine, tiles, criterion, opt, &log);
    EXPECT_EQ(stats.lu_steps, owned_stats.lu_steps);
    EXPECT_EQ(stats.qr_steps, owned_stats.qr_steps);
    for (int tj = 0; tj < tiles.nt(); ++tj)
      for (int ti = 0; ti < tiles.mt(); ++ti) {
        const auto got = tiles.tile(ti, tj);
        const auto want = owned_tiles.tile(ti, tj);
        for (int j = 0; j < 16; ++j)
          for (int i = 0; i < 16; ++i)
            ASSERT_EQ(got(i, j), want(i, j))
                << "run " << run << " tile " << ti << ","
                << tj;
      }
    ASSERT_EQ(log.size(), owned_log.size());
    engine.wait_idle();
    EXPECT_TRUE(engine.idle());
  }
}

TEST(ExternalEngineFactor, ErrorsAreIsolatedPerRun) {
  // A criterion that blows up mid-factorization: the error must reach the
  // caller of *this* run, and must not park itself in the shared engine's
  // global error slot (wait_all would rethrow it into an innocent caller).
  struct Bomb : Criterion {
    int calls = 0;
    bool accept_lu(const PanelInfo&) override {
      if (++calls == 2) throw Error("bomb");
      return true;
    }
    std::string name() const override { return "bomb"; }
  };

  Engine engine(2);
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 73);
  for (int run = 0; run < 2; ++run) {
    TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, 16);
    Bomb bomb;
    EXPECT_THROW(parallel_hybrid_factor_on(engine, tiles, bomb, {}), Error)
        << "run " << run;
    // The shared engine survives unpoisoned and keeps serving.
    engine.wait_all();  // must NOT rethrow the bomb
    TileMatrix<double> ok_tiles = TileMatrix<double>::from_dense(a, 16);
    MaxCriterion fine(20.0);
    const auto stats = parallel_hybrid_factor_on(engine, ok_tiles, fine, {});
    EXPECT_EQ(stats.lu_steps + stats.qr_steps, 4);
  }
}

TEST(ExternalEngineFactor, RejectsTracing) {
  Engine engine(2);
  const auto a = gen::generate(gen::MatrixKind::Random, 32, 75);
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, 16);
  MaxCriterion criterion(20.0);
  SchedulerOptions sched;
  sched.trace = true;
  EXPECT_THROW(parallel_hybrid_factor_on(engine, tiles, criterion, {}, nullptr, sched),
               Error);
}

}  // namespace
}  // namespace luqr::rt
