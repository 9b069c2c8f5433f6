// Tests for the batched small-problem backend (test_routes checks the
// batch and submit_many routes against the serial retained solve): chunk
// planning, per-member error isolation (library and service), the serve
// submit_many route (chunks through the admission queue: cache-hit skim,
// cancel while queued, full-queue rejection, drain at shutdown, telemetry),
// and 8-seed chaos + audit on the chunked engine tasks. Sized to stay sanitizer-friendly — the CI
// asan/tsan/ubsan jobs run this whole binary.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "api/batch.hpp"
#include "core/batch.hpp"
#include "fault/fault.hpp"
#include "gen/generators.hpp"
#include "runtime/audit.hpp"
#include "runtime/engine.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"

namespace luqr {
namespace {

using luqr::testing::expect_bitwise;
using luqr::testing::random_matrix;

SolverConfig small_config() {
  return SolverConfig().criterion(CriterionSpec::max(50.0)).tile_size(16);
}

// Mixed small orders, including non-tile-multiples; distinct seeds so no
// two systems share cache identity.
std::vector<Matrix<double>> mixed_matrices() {
  std::vector<Matrix<double>> as;
  for (int n : {16, 24, 33, 48, 64, 24, 48})
    as.push_back(gen::generate(gen::MatrixKind::Random, n, 4000 + n + 13 * static_cast<int>(as.size())));
  return as;
}

std::vector<Matrix<double>> rhs_for(const std::vector<Matrix<double>>& as) {
  std::vector<Matrix<double>> bs;
  for (std::size_t i = 0; i < as.size(); ++i)
    bs.push_back(random_matrix(as[i].rows(), 1, 9000 + static_cast<int>(i)));
  return bs;
}

// ---------------------------------------------------------------------------
// Chunk planning (pure, engine-free)
// ---------------------------------------------------------------------------

TEST(BatchPlanning, PlanChunksCoversEveryItemExactlyOnce) {
  EXPECT_TRUE(core::plan_chunks(0, 8, 2).empty());
  const auto one = core::plan_chunks(5, 100, 2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0u);
  EXPECT_EQ(one[0].end, 5u);

  const auto chunks = core::plan_chunks(23, 8, 2);
  ASSERT_EQ(chunks.size(), 3u);
  std::size_t next = 0;
  for (const core::Chunk& c : chunks) {
    EXPECT_EQ(c.begin, next);
    EXPECT_GT(c.end, c.begin);
    next = c.end;
  }
  EXPECT_EQ(next, 23u);
}

TEST(BatchPlanning, AutoChunkSizeScalesWithCountAndLanes) {
  EXPECT_EQ(core::auto_chunk_size(1, 1), 1);
  EXPECT_EQ(core::auto_chunk_size(32, 1), 8);   // 4 chunks per lane
  EXPECT_EQ(core::auto_chunk_size(4096, 4), 256);
  EXPECT_EQ(core::auto_chunk_size(1 << 20, 1), 256);  // capped
  // The auto plan covers everything too.
  const auto chunks = core::plan_chunks(1000, 0, 4);
  std::size_t total = 0;
  for (const core::Chunk& c : chunks) total += c.size();
  EXPECT_EQ(total, 1000u);
}

TEST(BatchPlanning, BucketByOrderGroupsStably) {
  const auto buckets = core::bucket_by_order({64, 16, 64, 32, 16, 64});
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], (std::vector<std::size_t>{0, 2, 5}));  // 64s
  EXPECT_EQ(buckets[1], (std::vector<std::size_t>{1, 4}));     // 16s
  EXPECT_EQ(buckets[2], (std::vector<std::size_t>{3}));        // 32s
  EXPECT_TRUE(core::bucket_by_order({}).empty());
}

TEST(BatchPlanning, ScratchEstimateIsPositiveAndMonotonicInTile) {
  const std::size_t small = core::chunk_scratch_bytes_f64(64, 16);
  const std::size_t big = core::chunk_scratch_bytes_f64(256, 128);
  EXPECT_GT(small, 0u);
  EXPECT_GT(big, small);
  EXPECT_GT(core::chunk_scratch_bytes_f32(64, 16), 0u);
  EXPECT_EQ(core::chunk_scratch_bytes_f64(0, 16), 0u);
}

// ---------------------------------------------------------------------------
// Library endpoints: error isolation
// ---------------------------------------------------------------------------

TEST(BatchLibrary, MalformedMemberFailsAloneLibrary) {
  const Solver solver(small_config());
  auto as = mixed_matrices();
  auto bs = rhs_for(as);
  bs[2] = random_matrix(as[2].rows() + 3, 1, 42);  // rhs row mismatch
  const auto outcomes = batch::factor_solve_many(solver, as, bs);
  for (std::size_t i = 0; i < as.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_THROW(std::rethrow_exception(outcomes[i].error), Error);
      continue;
    }
    ASSERT_TRUE(outcomes[i].ok()) << i;
    expect_bitwise(outcomes[i].x, solver.solve(as[i], bs[i]).x, "neighbor");
  }
  // Null factorization entries fail alone in solve_many as well.
  const auto factored = batch::factor_many(solver, as);
  std::vector<batch::FactorizationPtr> facs;
  for (const auto& o : factored) facs.push_back(o.factorization);
  facs[4] = nullptr;
  const auto solved = batch::solve_many(solver, facs, rhs_for(as));
  EXPECT_FALSE(solved[4].ok());
  EXPECT_TRUE(solved[3].ok());
  EXPECT_TRUE(solved[5].ok());
}

TEST(BatchLibrary, SingularMemberDoesNotPoisonNeighbors) {
  // Singular inputs never throw in luqr (the criterion falls back to QR, or
  // non-finite values propagate into x); what batching must guarantee is
  // that the healthy neighbors still match the one-shot solver bitwise.
  const Solver solver(small_config());
  auto as = mixed_matrices();
  auto bs = rhs_for(as);
  Matrix<double> singular(32, 32);  // rank 1: every column identical
  const auto col = random_matrix(32, 1, 5);
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 32; ++i) singular(i, j) = col(i, 0);
  as[3] = singular;
  bs[3] = random_matrix(32, 1, 6);
  const auto outcomes = batch::factor_solve_many(solver, as, bs);
  for (std::size_t i = 0; i < as.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i;
    if (i == 3) continue;  // its x may be non-finite; neighbors must be exact
    expect_bitwise(outcomes[i].x, solver.solve(as[i], bs[i]).x, "neighbor");
  }
}

TEST(BatchLibrary, EmptyBatchAndExternalCriterionEdges) {
  const Solver solver(small_config());
  EXPECT_TRUE(batch::factor_many(solver, {}).empty());
  // Size mismatch is a caller bug on the whole call, not a per-member error.
  const auto as = mixed_matrices();
  EXPECT_THROW(batch::factor_solve_many(solver, as, {}), Error);
}

// ---------------------------------------------------------------------------
// serve::SolveService::submit_many
// ---------------------------------------------------------------------------

serve::ServiceConfig service_config(int threads = 2) {
  serve::ServiceConfig cfg;
  cfg.solver = small_config();
  cfg.threads = threads;
  return cfg;
}

TEST(SubmitMany, CacheHitsAreSkimmedAtSubmission) {
  const auto cfg = service_config();
  serve::SolveService svc(cfg);
  const auto primed = gen::generate(gen::MatrixKind::Random, 32, 11);
  const auto pb = random_matrix(32, 1, 12);
  svc.submit_solve(primed, pb).get();  // warm the cache

  std::vector<Matrix<double>> as{primed,
                                 gen::generate(gen::MatrixKind::Random, 32, 21),
                                 gen::generate(gen::MatrixKind::Random, 32, 22)};
  auto handles = svc.submit_many(as, rhs_for(as));
  const serve::SolveReply hit = handles[0].get();
  EXPECT_TRUE(hit.cache_hit);
  handles[1].get();
  handles[2].get();
  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.batch_hits_skimmed, 1u);
  // All three members execute in chunks; only the two misses factor.
  EXPECT_EQ(s.batched_jobs, 3u);
}

TEST(SubmitMany, MalformedMemberFailsAloneService) {
  const auto cfg = service_config();
  const Solver reference(cfg.solver);
  serve::SolveService svc(cfg);
  auto as = mixed_matrices();
  auto bs = rhs_for(as);
  bs[1] = random_matrix(as[1].rows() + 1, 1, 50);     // rhs mismatch
  as[5] = random_matrix(as[5].rows(), as[5].cols() + 2, 51);  // not square
  auto handles = svc.submit_many(as, bs);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i == 1 || i == 5) {
      EXPECT_THROW(handles[i].get(), Error) << i;
      continue;
    }
    expect_bitwise(handles[i].get().x, reference.solve(as[i], bs[i]).x,
                   "healthy member");
  }
  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.completed, handles.size() - 2);
}

// One worker held by a gate and one inflight slot: the first chunk waits in
// the engine holding the slot, so later chunks wait in the admission queue
// (or at the dispatcher, before their members begin).
serve::ServiceConfig gated_config() {
  auto cfg = service_config(1);
  cfg.max_inflight = 1;
  return cfg;
}

std::vector<Matrix<double>> distinct_matrices(int count, int n, int seed) {
  std::vector<Matrix<double>> as;
  for (int s = 0; s < count; ++s)
    as.push_back(gen::generate(gen::MatrixKind::Random, n, seed + s));
  return as;
}

TEST(SubmitMany, CancelWinsWhileQueued) {
  serve::SolveService svc(gated_config());
  luqr::testing::WorkerGate gate(svc.engine());
  const auto first = distinct_matrices(3, 16, 600);
  auto running = svc.submit_many(first, rhs_for(first));
  const auto second = distinct_matrices(1, 16, 610);
  auto queued = svc.submit_many(second, rhs_for(second));
  ASSERT_TRUE(queued[0].cancel());
  gate.release();
  EXPECT_THROW(queued[0].get(), Error);
  for (auto& h : running) h.get();
  svc.drain();  // the cancel is counted when its owner observes it
  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.batched_jobs, 3u);  // the cancelled member never executed
  EXPECT_EQ(s.batches_executed, 1u);
}

TEST(SubmitMany, TallMemberFactorsFineGrained) {
  // The grain is decided per job on every route: a member with at least
  // parallel_factor_tiles tile rows factors fine-grained on the shared
  // engine, its short chunk-mate coarse inside the chunk task.
  auto cfg = service_config(2);
  cfg.parallel_factor_tiles = 4;  // 96 / 16 = 6 tile rows
  const Solver reference(cfg.solver);
  serve::SolveService svc(cfg);
  const std::vector<Matrix<double>> as = {
      gen::generate(gen::MatrixKind::Random, 96, 1301),
      gen::generate(gen::MatrixKind::Random, 32, 1302)};
  const auto bs = rhs_for(as);
  auto handles = svc.submit_many(as, bs);
  for (std::size_t i = 0; i < as.size(); ++i)
    expect_bitwise(handles[i].get().x, reference.solve(as[i], bs[i]).x,
                   "graded member");
  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.factors_inline_parallel, 1u);
  EXPECT_EQ(s.factors_coarse, 1u);
  EXPECT_EQ(s.batched_jobs, as.size());
}

TEST(SubmitMany, FullQueueRejectsMembers) {
  auto cfg = gated_config();
  cfg.queue_capacity = 1;
  cfg.reject_when_full = true;
  serve::SolveService svc(cfg);
  luqr::testing::WorkerGate gate(svc.engine());
  // 64 misses of one order on one worker: four chunks of 16. At most three
  // are held — one in the engine behind the gate, one at the dispatcher
  // waiting for the slot, one in the queue — so at least one is rejected.
  const auto as = distinct_matrices(64, 16, 900);
  auto handles = svc.submit_many(as, rhs_for(as));
  gate.release();
  std::size_t rejected = 0, done = 0;
  for (auto& h : handles) {
    h.wait();
    rejected += h.status() == serve::JobStatus::Rejected ? 1 : 0;
    done += h.status() == serve::JobStatus::Done ? 1 : 0;
  }
  EXPECT_GE(rejected, 16u);
  EXPECT_EQ(rejected % 16, 0u);  // whole chunks
  EXPECT_EQ(done + rejected, handles.size());
  svc.drain();
  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.submitted, handles.size());
  EXPECT_EQ(s.submitted,
            s.completed + s.failed + s.cancelled + s.rejected + s.shed);
}

TEST(SubmitMany, ShutdownDrainsQueuedChunks) {
  std::vector<serve::JobHandle> handles;
  {
    serve::SolveService svc(gated_config());
    luqr::testing::WorkerGate gate(svc.engine());
    // Four chunks of 10: at least two wait in the queue when it closes.
    const auto as = distinct_matrices(40, 16, 700);
    handles = svc.submit_many(as, rhs_for(as));
    EXPECT_GE(svc.stats().queue_depth, 2u);
    gate.release();
  }  // the destructor closes the queue, dispatches what it holds, drains
  for (auto& h : handles) EXPECT_EQ(h.status(), serve::JobStatus::Done);
}

TEST(SubmitMany, PoisonedMemberEvictsItsFactorization) {
  // A gemm NaN during a chunk's factorization: the member's solution is
  // non-finite, and output screening must evict the poisoned factorization
  // so it never serves a hit. submit_many members have no retry budget, so
  // the result comes back as-is; the next solve on the matrix refactors
  // cleanly instead of replaying the poison and retrying.
  fault::FaultPlan plan(17);
  plan.arm({fault::site::kGemmNan, 1.0, /*max_fires=*/1});
  const auto cfg = service_config();
  const Solver reference(cfg.solver);
  serve::SolveService svc(cfg);
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 1701);
  const auto b = random_matrix(48, 1, 1702);
  serve::SolveReply poisoned;
  {
    fault::ScopedPlan guard(plan);
    auto handles = svc.submit_many(std::vector<Matrix<double>>{a},
                                   std::vector<Matrix<double>>{b});
    ASSERT_EQ(handles.size(), 1u);
    poisoned = handles[0].get();
  }
  EXPECT_EQ(plan.fires(fault::site::kGemmNan), 1u);
  bool finite = true;
  for (int i = 0; i < poisoned.x.rows(); ++i)
    finite = finite && std::isfinite(poisoned.x(i, 0));
  EXPECT_FALSE(finite);
  EXPECT_EQ(svc.stats().cache.entries, 0u);

  const Matrix<double> x = svc.submit_solve(a, b).get().x;
  expect_bitwise(x, reference.solve(a, b).x, "solve after eviction");
  EXPECT_EQ(svc.stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// Chaos + audit on the chunked tasks
// ---------------------------------------------------------------------------

TEST(BatchChaos, EightSeedsBitwiseIdenticalAndAuditClean) {
  const auto as = mixed_matrices();
  const auto bs = rhs_for(as);
  // Serial reference, no engine involved.
  const Solver serial(small_config().backend(Backend::Serial));
  std::vector<Matrix<double>> want;
  for (std::size_t i = 0; i < as.size(); ++i)
    want.push_back(serial.factor(as[i]).solve(bs[i]));

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rt::EngineOptions opts;
    opts.audit = true;
    opts.chaos_seed = seed * 7919 + 3;
    auto engine = std::make_shared<rt::Engine>(2, opts);
    const Solver solver(small_config().engine(engine));
    const auto outcomes = batch::factor_many(solver, as);
    for (std::size_t i = 0; i < as.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << "seed " << seed << " @ " << i;
      expect_bitwise(outcomes[i].factorization->solve(bs[i]), want[i],
                     "chaos chunk");
    }
    engine->wait_idle();
    EXPECT_TRUE(engine->access_violations().empty()) << "seed " << seed;
    EXPECT_TRUE(engine->certify_happens_before().empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace luqr
