// Tests for the serve::FactorizationCache: verified content addressing,
// LRU eviction under a byte budget, deliberate hash collisions on
// equal-size matrices (via an injected constant hash), config-fingerprint
// separation, oversize rejection, and concurrent hit/miss traffic (this
// binary runs under the CI ThreadSanitizer job).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "gen/generators.hpp"
#include "serve/cache.hpp"
#include "test_helpers.hpp"

namespace luqr::serve {
namespace {

using luqr::testing::factor_serial;
using luqr::testing::random_matrix;

std::shared_ptr<const core::Factorization> factor_of(const Matrix<double>& a,
                                                     int nb = 8) {
  MaxCriterion crit(50.0);
  return std::make_shared<const core::Factorization>(
      factor_serial(a, crit, nb));
}

constexpr const char* kFp = "cfg-A";

TEST(FactorizationCache, HitRequiresExactContent) {
  FactorizationCache cache(std::size_t{64} << 20);
  const auto a = random_matrix(16, 16, 1);
  EXPECT_EQ(cache.find(a, kFp), nullptr);
  cache.insert(a, kFp, factor_of(a));
  ASSERT_NE(cache.find(a, kFp), nullptr);

  // One ulp of difference must miss (content addressing is bitwise).
  auto a2 = a;
  a2(3, 5) = std::nextafter(a2(3, 5), 1e300);
  EXPECT_EQ(cache.find(a2, kFp), nullptr);
  // A different config fingerprint is a different factorization.
  EXPECT_EQ(cache.find(a, "cfg-B"), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(FactorizationCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  const auto a1 = random_matrix(16, 16, 11);
  const auto a2 = random_matrix(16, 16, 12);
  const auto a3 = random_matrix(16, 16, 13);
  const auto f1 = factor_of(a1);
  // Budget for two entries (plus slack), not three.
  FactorizationCache cache(2 * f1->memory_bytes() + f1->memory_bytes() / 2);
  cache.insert(a1, kFp, f1);
  cache.insert(a2, kFp, factor_of(a2));
  cache.insert(a3, kFp, factor_of(a3));  // evicts a1 (LRU)
  EXPECT_EQ(cache.find(a1, kFp), nullptr);
  EXPECT_NE(cache.find(a2, kFp), nullptr);
  EXPECT_NE(cache.find(a3, kFp), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, s.byte_budget);
}

TEST(FactorizationCache, LruTouchOnFindProtectsHotEntries) {
  const auto a1 = random_matrix(16, 16, 21);
  const auto a2 = random_matrix(16, 16, 22);
  const auto a3 = random_matrix(16, 16, 23);
  const auto f1 = factor_of(a1);
  FactorizationCache cache(2 * f1->memory_bytes() + f1->memory_bytes() / 2);
  cache.insert(a1, kFp, f1);
  cache.insert(a2, kFp, factor_of(a2));
  ASSERT_NE(cache.find(a1, kFp), nullptr);   // refresh a1
  cache.insert(a3, kFp, factor_of(a3));      // now a2 is the LRU victim
  EXPECT_NE(cache.find(a1, kFp), nullptr);
  EXPECT_EQ(cache.find(a2, kFp), nullptr);
  EXPECT_NE(cache.find(a3, kFp), nullptr);
}

TEST(FactorizationCache, HashCollisionsOnEqualSizeMatricesStayCorrect) {
  // Force every key onto one hash bucket: equal-size, different-content
  // matrices collide by construction, and only the verified content
  // comparison keeps them apart.
  FactorizationCache cache(std::size_t{64} << 20,
                           [](const Matrix<double>&) -> std::uint64_t {
                             return 42;
                           });
  const auto a1 = random_matrix(16, 16, 31);
  const auto a2 = random_matrix(16, 16, 32);
  const auto a3 = random_matrix(16, 16, 33);
  cache.insert(a1, kFp, factor_of(a1));
  cache.insert(a2, kFp, factor_of(a2));

  const auto h1 = cache.find(a1, kFp);
  const auto h2 = cache.find(a2, kFp);
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_NE(h1, h2);
  // Each handle retains the matrix it was factored from.
  EXPECT_DOUBLE_EQ(h1->matrix()(0, 0), a1(0, 0));
  EXPECT_DOUBLE_EQ(h2->matrix()(0, 0), a2(0, 0));
  // A colliding-but-absent matrix is a miss, not a wrong hit.
  EXPECT_EQ(cache.find(a3, kFp), nullptr);
}

TEST(FactorizationCache, SameBytesDifferentPrecisionNeverCrossServe) {
  // The same input bytes factored at different working precisions are
  // distinct cache identities. The service separates them through the
  // config fingerprint (which embeds the precision); even with every key
  // forced onto one hash bucket, a probe with one precision's fingerprint
  // must never serve the other's factors.
  FactorizationCache cache(std::size_t{64} << 20,
                           [](const Matrix<double>&) -> std::uint64_t {
                             return 7;
                           });
  const auto a = random_matrix(24, 24, 41);
  const char* fp64 = "tile=8;prec=0;ir=20:0";
  const char* fp32 = "tile=8;prec=1;ir=20:0";
  const char* fp_ir = "tile=8;prec=2;ir=20:0";

  const auto f64 = std::make_shared<const core::Factorization>(
      Solver(SolverConfig().tile_size(8).backend(Backend::Serial)).factor(a));
  const auto f32 = std::make_shared<const core::Factorization>(
      Solver(SolverConfig().tile_size(8).backend(Backend::Serial).precision(
                 core::Precision::F32))
          .factor(a));
  const auto fir = std::make_shared<const core::Factorization>(
      Solver(SolverConfig().tile_size(8).backend(Backend::Serial).precision(
                 core::Precision::F32_IR))
          .factor(a));

  cache.insert(a, fp64, f64);
  cache.insert(a, fp32, f32);
  cache.insert(a, fp_ir, fir);
  EXPECT_EQ(cache.stats().entries, 3u);

  const auto h64 = cache.find(a, fp64);
  const auto h32 = cache.find(a, fp32);
  const auto hir = cache.find(a, fp_ir);
  ASSERT_NE(h64, nullptr);
  ASSERT_NE(h32, nullptr);
  ASSERT_NE(hir, nullptr);
  EXPECT_EQ(h64->precision(), core::Precision::F64);
  EXPECT_EQ(h32->precision(), core::Precision::F32);
  EXPECT_EQ(hir->precision(), core::Precision::F32_IR);
  // An unknown precision fingerprint over the same bytes is a miss, never a
  // nearest-match hit.
  EXPECT_EQ(cache.find(a, "tile=8;prec=1;ir=5:1e-10"), nullptr);
}

TEST(FactorizationCache, OversizeEntriesAreNotAdmitted) {
  const auto a = random_matrix(16, 16, 41);
  const auto f = factor_of(a);
  FactorizationCache cache(f->memory_bytes() / 2);
  cache.insert(a, kFp, f);
  EXPECT_EQ(cache.find(a, kFp), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.oversize_rejects, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(FactorizationCache, InsertDeduplicatesEqualEntries) {
  FactorizationCache cache(std::size_t{64} << 20);
  const auto a = random_matrix(16, 16, 51);
  cache.insert(a, kFp, factor_of(a));
  cache.insert(a, kFp, factor_of(a));  // same matrix, same config: kept once
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
}

TEST(FactorizationCache, ConcurrentHitsMissesAndEvictions) {
  // 8 threads hammer a budget-limited cache with overlapping inserts and
  // finds; under TSan this doubles as the data-race check. Correctness
  // invariant: every successful find returns a factorization of exactly
  // the queried matrix.
  const int kMatrices = 6;
  std::vector<Matrix<double>> pool;
  std::vector<std::shared_ptr<const core::Factorization>> facs;
  for (int i = 0; i < kMatrices; ++i) {
    pool.push_back(random_matrix(16, 16, 100 + static_cast<std::uint64_t>(i)));
    facs.push_back(factor_of(pool.back()));
  }
  // Budget for about half the pool, so eviction churns continuously.
  FactorizationCache cache(3 * facs[0]->memory_bytes() +
                           facs[0]->memory_bytes() / 2);

  std::atomic<int> wrong{0};
  auto worker = [&](int id) {
    for (int r = 0; r < 300; ++r) {
      const int pick = (id * 5 + r * 7) % kMatrices;
      const auto& a = pool[static_cast<std::size_t>(pick)];
      if (auto hit = cache.find(a, kFp)) {
        const Matrix<double>& m = hit->matrix();
        if (m.rows() != a.rows() || m(1, 2) != a(1, 2)) wrong.fetch_add(1);
      } else {
        cache.insert(a, kFp, facs[static_cast<std::size_t>(pick)]);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  const CacheStats s = cache.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, s.byte_budget);
}

TEST(FactorizationCache, ClearResetsContentsButKeepsCounters) {
  FactorizationCache cache(std::size_t{64} << 20);
  const auto a = random_matrix(16, 16, 61);
  cache.insert(a, kFp, factor_of(a));
  ASSERT_NE(cache.find(a, kFp), nullptr);
  cache.clear();
  EXPECT_EQ(cache.find(a, kFp), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.hits, 1u);  // counters are monotonic service telemetry
}

}  // namespace
}  // namespace luqr::serve
