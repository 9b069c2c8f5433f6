// Tests for the dataflow correctness auditor: declared-access validation
// (runtime/audit.hpp), happens-before certification (runtime/hb_checker.hpp),
// and adversarial schedule exploration (EngineOptions::chaos_seed).
//
// The planted-bug tests are the point of the subsystem: tasks that touch
// tiles they never declared MUST be caught, with a report naming the task,
// the tile, and the declared set. The clean-run tests prove the production
// driver's declarations are complete (the full hybrid factorization passes
// the audit and the certifier at several shapes), and the chaos tests prove
// the declared dependences — not scheduler luck — are what make the parallel
// factorization deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.hpp"
#include "core/solve.hpp"
#include "gen/generators.hpp"
#include "kernels/access.hpp"
#include "runtime/audit.hpp"
#include "runtime/engine.hpp"
#include "runtime/hb_checker.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "test_helpers.hpp"

namespace luqr::rt {
namespace {

using luqr::testing::random_matrix;

EngineOptions audit_options(std::uint64_t chaos_seed = 0) {
  EngineOptions o;
  o.audit = true;
  o.chaos_seed = chaos_seed;
  return o;
}

// ---------------------------------------------------------------------------
// Datum registry
// ---------------------------------------------------------------------------

TEST(AuditRegistry, RegistrationIsScoped) {
  const std::size_t before = audit_registered_count();
  TileMatrix<double> a(2, 2, 8);
  {
    ScopedTileRegistration reg(a);
    EXPECT_EQ(audit_registered_count(), before + 4);
    ResolvedDatum r;
    ASSERT_TRUE(audit_resolve(a.tile_key(1, 0), &r));
    EXPECT_EQ(r.key, a.tile_key(1, 0));
    EXPECT_EQ(r.label, "tile(1,0)");
  }
  EXPECT_EQ(audit_registered_count(), before);
  ResolvedDatum r;
  EXPECT_FALSE(audit_resolve(a.tile_key(1, 0), &r));
}

TEST(AuditRegistry, InteriorPointersResolveToContainingDatum) {
  double buf[64] = {};
  ScopedDatumRegistration reg(buf, sizeof(buf), "buf");
  ResolvedDatum r;
  ASSERT_TRUE(audit_resolve(&buf[63], &r));
  EXPECT_EQ(r.key, static_cast<const void*>(buf));
  EXPECT_EQ(r.label, "buf");
  EXPECT_FALSE(audit_resolve(buf + 64, &r));  // one past the end: outside
}

// ---------------------------------------------------------------------------
// Access auditing: planted bugs must be caught, confined tasks must pass
// ---------------------------------------------------------------------------

TEST(AccessAudit, UndeclaredTileWriteIsCaught) {
  Engine engine(2, audit_options());
  TileMatrix<double> a(2, 2, 8);
  ScopedTileRegistration reg(a);

  // The planted bug: "rogue" declares tile(0,0) but writes tile(1,1).
  engine.submit(
      [&a] {
        a.tile(0, 0).data[0] = 1.0;  // declared: fine
        a.tile(1, 1).data[0] = 2.0;  // undeclared write: must throw
      },
      {{a.tile_key(0, 0), Access::ReadWrite}}, {"rogue", 0, 7});

  try {
    engine.wait_all();
    FAIL() << "undeclared write went undetected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rogue"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile(1,1)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile(0,0):RW"), std::string::npos) << msg;
  }

  const auto violations = engine.access_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, AuditViolation::Kind::UndeclaredAccess);
  EXPECT_EQ(violations[0].task_name, "rogue");
  EXPECT_EQ(violations[0].tag, 7);
  EXPECT_EQ(violations[0].datum, a.tile_key(1, 1));
  EXPECT_EQ(violations[0].datum_label, "tile(1,1)");
}

TEST(AccessAudit, UndeclaredReadIsCaught) {
  Engine engine(2, audit_options());
  TileMatrix<double> a(2, 1, 8);
  ScopedTileRegistration reg(a);
  engine.submit(
      [&a] { (void)std::as_const(a).tile(1, 0); },
      {{a.tile_key(0, 0), Access::Read}}, {"peeker"});
  EXPECT_THROW(engine.wait_all(), Error);
  const auto violations = engine.access_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, AuditViolation::Kind::UndeclaredAccess);
}

TEST(AccessAudit, WriteThroughReadOnlyDeclarationIsCaught) {
  Engine engine(2, audit_options());
  TileMatrix<double> a(1, 1, 8);
  ScopedTileRegistration reg(a);
  engine.submit([&a] { a.tile(0, 0).data[0] = 3.0; },
                {{a.tile_key(0, 0), Access::Read}}, {"sneaky-writer"});
  try {
    engine.wait_all();
    FAIL() << "write through a Read declaration went undetected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Read-only"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sneaky-writer"), std::string::npos) << msg;
  }
  const auto violations = engine.access_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, AuditViolation::Kind::ReadOnlyWrite);
}

TEST(AccessAudit, ReadThroughWriteDeclarationIsAllowed) {
  // A Write/ReadWrite declaration fully orders the task against every other
  // access of the datum, so reading through it is sound (the driver's panel
  // tasks read tiles they declare RW all the time).
  Engine engine(2, audit_options());
  TileMatrix<double> a(1, 1, 8);
  ScopedTileRegistration reg(a);
  engine.submit([&a] { (void)std::as_const(a).tile(0, 0); },
                {{a.tile_key(0, 0), Access::Write}}, {"reader"});
  engine.wait_all();
  EXPECT_TRUE(engine.access_violations().empty());
}

TEST(AccessAudit, UnregisteredScratchIsIgnored) {
  Engine engine(2, audit_options());
  double scratch = 0.0;
  engine.submit([&scratch] { scratch = 1.0; }, {}, {"scratch-user"});
  engine.wait_all();
  EXPECT_TRUE(engine.access_violations().empty());
  EXPECT_EQ(scratch, 1.0);
}

TEST(AccessAudit, ConfinedTasksPassAndAreCounted) {
  Engine engine(3, audit_options());
  TileMatrix<double> a(2, 2, 8);
  ScopedTileRegistration reg(a);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 2; ++i)
      engine.submit([&a, i, j] { a.tile(i, j).data[0] = i + 2.0 * j; },
                    {{a.tile_key(i, j), Access::Write}}, {"writer"});
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 2; ++i)
      engine.submit([&a, i, j] { (void)std::as_const(a).tile(i, j); },
                    {{a.tile_key(i, j), Access::Read}}, {"checker"});
  engine.wait_all();
  EXPECT_EQ(engine.audited_tasks(), 8u);
  EXPECT_TRUE(engine.access_violations().empty());
  EXPECT_TRUE(engine.certify_happens_before().empty());
}

TEST(AccessAudit, DisabledByDefaultInstallsNoListener) {
  Engine engine(2);
  EXPECT_FALSE(engine.auditing());
  std::atomic<bool> listener_seen{true};
  engine.submit(
      [&listener_seen] { listener_seen = kern::t_access_listener != nullptr; },
      {});
  engine.wait_all();
  EXPECT_FALSE(listener_seen.load());
  EXPECT_EQ(engine.audited_tasks(), 0u);
  EXPECT_TRUE(engine.access_violations().empty());
  EXPECT_TRUE(engine.certify_happens_before().empty());
}

// ---------------------------------------------------------------------------
// Happens-before certification (recorder-level)
// ---------------------------------------------------------------------------

ObservedAccess obs(const void* key, bool write, std::string label) {
  ObservedAccess o;
  o.key = key;
  o.write = write;
  o.label = std::move(label);
  return o;
}

TEST(HappensBefore, UnorderedWriteWriteConflictIsReported) {
  HbRecorder hb;
  int x = 0;
  hb.on_submit(1, "w1", -1, 0, {});
  hb.on_submit(2, "w2", -1, 0, {});
  hb.on_complete(1, {obs(&x, true, "x")});
  hb.on_complete(2, {obs(&x, true, "x")});
  const auto v = hb.certify();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, AuditViolation::Kind::UnorderedConflict);
  EXPECT_NE(v[0].message().find("write-write"), std::string::npos)
      << v[0].message();
  EXPECT_NE(v[0].message().find("no happens-before path"), std::string::npos)
      << v[0].message();
}

TEST(HappensBefore, UnorderedReadWriteConflictIsReported) {
  HbRecorder hb;
  int x = 0;
  hb.on_submit(1, "r", -1, 0, {});
  hb.on_submit(2, "w", -1, 0, {});
  hb.on_complete(1, {obs(&x, false, "x")});
  hb.on_complete(2, {obs(&x, true, "x")});
  const auto v = hb.certify();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, AuditViolation::Kind::UnorderedConflict);
}

TEST(HappensBefore, DeclaredDependencyOrdersTheConflict) {
  HbRecorder hb;
  int x = 0;
  hb.on_submit(1, "w1", -1, 0, {{&x, Access::Write}});
  hb.on_submit(2, "w2", -1, 0, {{&x, Access::Write}});
  hb.on_complete(1, {obs(&x, true, "x")});
  hb.on_complete(2, {obs(&x, true, "x")});
  EXPECT_TRUE(hb.certify().empty());
}

TEST(HappensBefore, TransitiveDeclaredPathOrdersTheConflict) {
  // t1 -> t2 via a, t2 -> t3 via b; t1 and t3 also both write x, which no
  // single declared edge covers — the path a,b must be found.
  HbRecorder hb;
  int a = 0, b = 0, x = 0;
  hb.on_submit(1, "t1", -1, 0, {{&a, Access::Write}});
  hb.on_submit(2, "t2", -1, 0, {{&a, Access::Read}, {&b, Access::Write}});
  hb.on_submit(3, "t3", -1, 0, {{&b, Access::Read}});
  hb.on_complete(1, {obs(&x, true, "x")});
  hb.on_complete(2, {});
  hb.on_complete(3, {obs(&x, true, "x")});
  EXPECT_TRUE(hb.certify().empty());

  // Cut the middle link and the same accesses become an unordered conflict.
  HbRecorder broken;
  broken.on_submit(1, "t1", -1, 0, {{&a, Access::Write}});
  broken.on_submit(2, "t2", -1, 0, {{&b, Access::Write}});
  broken.on_submit(3, "t3", -1, 0, {{&b, Access::Read}});
  broken.on_complete(1, {obs(&x, true, "x")});
  broken.on_complete(2, {});
  broken.on_complete(3, {obs(&x, true, "x")});
  const auto v = broken.certify();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].other_name, "t1");
  EXPECT_EQ(v[0].task_name, "t3");
}

TEST(HappensBefore, CreationEdgeOrdersParentBeforeChild) {
  // A task submitted from inside another task cannot start before its
  // creator's submit point, so creator -> child is a happens-before edge.
  HbRecorder hb;
  int x = 0;
  hb.on_submit(1, "parent", -1, 0, {});
  hb.on_submit(2, "child", -1, 1, {});
  hb.on_complete(1, {obs(&x, true, "x")});
  hb.on_complete(2, {obs(&x, true, "x")});
  EXPECT_TRUE(hb.certify().empty());
}

TEST(HappensBefore, PurelyDeclaredSequencesAreSkipped) {
  // Declared-but-unobserved accesses (tasks that declare conservatively and
  // never touch the datum) must not produce conflicts on their own.
  HbRecorder hb;
  int x = 0;
  hb.on_submit(1, "w1", -1, 0, {{&x, Access::Write}});
  hb.on_submit(2, "w2", -1, 0, {{&x, Access::Write}});
  hb.on_complete(1, {});
  hb.on_complete(2, {});
  EXPECT_TRUE(hb.certify().empty());
  EXPECT_EQ(hb.recorded_tasks(), 2u);
}

TEST(HappensBefore, EngineCertifiesObservedAccessOfFailedTask) {
  // A task that performs an undeclared access throws (access audit), but its
  // observed footprint is still recorded — and the certifier then proves the
  // deeper problem: nothing orders that access against the declared writer.
  Engine engine(2, audit_options());
  TileMatrix<double> a(1, 1, 8);
  ScopedTileRegistration reg(a);
  engine.submit([&a] { a.tile(0, 0).data[0] = 1.0; },
                {{a.tile_key(0, 0), Access::Write}}, {"writer"});
  engine.submit([&a] { (void)std::as_const(a).tile(0, 0); }, {}, {"racer"});
  EXPECT_THROW(engine.wait_all(), Error);
  ASSERT_EQ(engine.access_violations().size(), 1u);
  const auto hb = engine.certify_happens_before();
  ASSERT_EQ(hb.size(), 1u);
  EXPECT_EQ(hb[0].kind, AuditViolation::Kind::UnorderedConflict);
}

// ---------------------------------------------------------------------------
// The production driver under audit: full factorizations must be clean
// ---------------------------------------------------------------------------

constexpr core::LuVariant kVariants[] = {core::LuVariant::A1, core::LuVariant::A2,
                                         core::LuVariant::B1, core::LuVariant::B2};

void expect_tiles_bitwise(const TileMatrix<double>& got,
                          const TileMatrix<double>& want, const std::string& label) {
  for (int j = 0; j < got.cols(); ++j)
    for (int i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got.at(i, j), want.at(i, j))
          << label << " element " << i << "," << j;
}

// Audited engine run of every LU variant: clean, and bitwise equal to the
// inline sink. The random criterion mixes LU and QR steps with trailing work
// behind both. Returns the per-variant (LU, QR) step counts.
std::vector<std::pair<int, int>> expect_clean_audited_factorization(int n, int nb) {
  const auto dense = gen::generate(gen::MatrixKind::Random, n, 17);
  std::vector<std::pair<int, int>> steps;
  for (core::LuVariant variant : kVariants) {
    core::HybridOptions opt;
    opt.grid_p = 2;
    opt.grid_q = 2;
    opt.variant = variant;
    const std::string label = "variant " + std::to_string(static_cast<int>(variant));

    TileMatrix<double> serial = TileMatrix<double>::from_dense(dense, nb);
    RandomCriterion serial_crit(0.5);
    const auto serial_stats = core::hybrid_factor(serial, serial_crit, opt);

    TileMatrix<double> tiles = TileMatrix<double>::from_dense(dense, nb);
    RandomCriterion criterion(0.5);
    SchedulerOptions sched;
    sched.audit = true;
    SchedulerStats stats;
    const auto fstats =
        parallel_hybrid_factor(tiles, criterion, opt, 3, nullptr, sched, &stats);
    EXPECT_GT(stats.audited_tasks, 0u) << label << ": audit did not run";
    EXPECT_EQ(stats.audit_access_violations, 0u) << label;
    EXPECT_EQ(stats.audit_hb_violations, 0u) << label;
    EXPECT_EQ(fstats.lu_steps, serial_stats.lu_steps) << label;
    expect_tiles_bitwise(tiles, serial, label);
    steps.emplace_back(fstats.lu_steps, fstats.qr_steps);
  }
  return steps;
}

TEST(DriverAudit, HybridFactorizationPassesMixedSteps) {
  for (const auto& [lu, qr] : expect_clean_audited_factorization(96, 16)) {
    EXPECT_GT(lu, 0);
    EXPECT_GT(qr, 0);
  }
}

TEST(DriverAudit, HybridFactorizationPassesNonMultipleShape) {
  expect_clean_audited_factorization(130, 32);
}

TEST(DriverAudit, AllQrFactorizationPasses) {
  const auto dense = gen::generate(gen::MatrixKind::Random, 96, 19);
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(dense, 16);
  core::HybridOptions opt;
  opt.grid_p = 2;
  AlwaysQR criterion;
  SchedulerOptions sched;
  sched.audit = true;
  SchedulerStats stats;
  parallel_hybrid_factor(tiles, criterion, opt, 3, nullptr, sched, &stats);
  EXPECT_GT(stats.audited_tasks, 0u);
  EXPECT_EQ(stats.audit_access_violations, 0u);
  EXPECT_EQ(stats.audit_hb_violations, 0u);
}

// ---------------------------------------------------------------------------
// Adversarial schedule exploration: chaos must never change results
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, EightPerturbedSchedulesMatchSerialBitwise) {
  // Every LU variant, eight perturbed schedules each: audit-clean and
  // bitwise equal to the inline sink.
  const int n = 96, nb = 16;
  const auto dense = gen::generate(gen::MatrixKind::Random, n, 29);

  for (core::LuVariant variant : kVariants) {
    core::HybridOptions opt;
    opt.variant = variant;
    TileMatrix<double> serial = TileMatrix<double>::from_dense(dense, nb);
    RandomCriterion serial_crit(0.5);
    const auto serial_stats = core::hybrid_factor(serial, serial_crit, opt);

    for (std::uint64_t seed : {1ull, 2ull, 3ull, 0x9e3779b9ull, 42ull,
                               0xdeadbeefull, 7ull, 1234567ull}) {
      const std::string label = "variant " +
                                std::to_string(static_cast<int>(variant)) +
                                " seed " + std::to_string(seed);
      TileMatrix<double> tiles = TileMatrix<double>::from_dense(dense, nb);
      RandomCriterion criterion(0.5);
      SchedulerOptions sched;
      sched.chaos_seed = seed;
      sched.audit = true;
      SchedulerStats sstats;
      const auto stats =
          parallel_hybrid_factor(tiles, criterion, opt, 4, nullptr, sched, &sstats);
      EXPECT_GT(sstats.audited_tasks, 0u) << label;
      EXPECT_EQ(sstats.audit_access_violations, 0u) << label;
      EXPECT_EQ(sstats.audit_hb_violations, 0u) << label;
      ASSERT_EQ(stats.qr_steps, serial_stats.qr_steps) << label;
      expect_tiles_bitwise(tiles, serial, label);
    }
  }
}

TEST(ChaosSchedule, AuditAndChaosComposeCleanly) {
  // The CI TSan job runs this: randomized draining + per-task delays widen
  // the explored interleavings while every access is validated.
  const auto dense = gen::generate(gen::MatrixKind::Random, 64, 31);
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(dense, 16);
  MaxCriterion criterion(4.0);
  SchedulerOptions sched;
  sched.audit = true;
  sched.chaos_seed = 0xc0ffee;
  SchedulerStats stats;
  parallel_hybrid_factor(tiles, criterion, {}, 4, nullptr, sched, &stats);
  EXPECT_GT(stats.audited_tasks, 0u);
  EXPECT_EQ(stats.audit_access_violations, 0u);
  EXPECT_EQ(stats.audit_hb_violations, 0u);
}

TEST(ChaosSchedule, PlainTaskGraphStaysCorrectUnderChaos) {
  // A dependency chain interleaved with independent noise: under chaos the
  // pop order is scrambled but the chain order must hold.
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    Engine engine(4, [seed] {
      EngineOptions o;
      o.chaos_seed = seed;
      return o;
    }());
    int chain = 0;
    std::atomic<int> noise{0};
    for (int step = 0; step < 50; ++step) {
      engine.submit([&chain, step] {
        ASSERT_EQ(chain, step);
        ++chain;
      }, {{&chain, Access::ReadWrite}}, {"link"});
      for (int k = 0; k < 4; ++k)
        engine.submit([&noise] { noise.fetch_add(1); }, {}, {"noise"});
    }
    engine.wait_all();
    EXPECT_EQ(chain, 50);
    EXPECT_EQ(noise.load(), 200);
  }
}

// ---------------------------------------------------------------------------
// The wait()-from-inside-a-task footgun is now an enforced precondition
// ---------------------------------------------------------------------------

TEST(EngineGuards, WaitFromInsideATaskThrows) {
  Engine engine(2);
  const TaskId first = engine.submit([] {}, {});
  engine.submit([&engine, first] { engine.wait(first); }, {});
  try {
    engine.wait_all();
    FAIL() << "wait() from inside a task was not rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("inside a task"), std::string::npos)
        << e.what();
  }
}

TEST(EngineGuards, WaitAllFromInsideATaskThrows) {
  Engine engine(2);
  engine.submit([&engine] { engine.wait_all(); }, {});
  EXPECT_THROW(engine.wait_all(), Error);
}

TEST(EngineGuards, WaitFromAnotherEnginesTaskIsAllowed) {
  // The guard is per-engine: a task of engine A may legitimately drive and
  // wait on a private engine B (nested parallelism).
  Engine outer(2);
  outer.submit([] {
    Engine inner(2);
    const TaskId t = inner.submit([] {}, {});
    inner.wait(t);
    inner.wait_all();
  }, {});
  outer.wait_all();
}

}  // namespace
}  // namespace luqr::rt
