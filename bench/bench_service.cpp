// bench_service — serving-path performance of serve::SolveService.
//
// Reports (and emits via --json <path>, bench_common.hpp schema):
//   - cold request latency: factor + solve of a never-seen matrix
//   - cache-hit request latency: same matrix again (factor skipped)
//   - their ratio (the factor-once-solve-many win; CI asserts a floor)
//   - the same cold/hit pair on QR-heavy systems (Gaussian, max(100)), and
//     the QR-heavy hit over the all-LU hit (CI asserts a ceiling: both
//     replay at the exact RHS width, so a one-column hit is O(n^2) either
//     way)
//   - the same systems without the service (no hashing or screening of
//     A): Solver::factor and the one-column Factorization::solve, QR-heavy
//     over all-LU
//   - batched vs individual throughput for many small solves on one matrix
//   - a mixed multi-client stress summary (jobs/s, p50/p99)
//
// Scales via LUQR_N (matrix order, default 256), LUQR_NB (tile size,
// default 32) and LUQR_SAMPLES. n defaults large enough that the cold
// request is factorization-dominated — the regime the cache exists for.
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"

using namespace luqr;

namespace {

serve::ServiceConfig service_config(int nb, int threads = 0) {
  serve::ServiceConfig cfg;
  cfg.solver = SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb);
  cfg.threads = threads;
  return cfg;
}

double solve_once_seconds(serve::SolveService& svc, const Matrix<double>& a,
                          const Matrix<double>& b) {
  Timer t;
  (void)svc.submit_solve(a, b).get();
  return t.seconds();
}

struct ColdHit {
  double cold = 1e30, hit = 1e30;  // best-of seconds
};

// Cold (never-seen matrix: factor + solve) and cache-hit (same matrix
// again: solve only) one-column request latency on `kind` systems.
ColdHit cold_and_hit(const bench::Config& c, gen::MatrixKind kind) {
  ColdHit r;
  serve::SolveService svc(service_config(c.nb));
  const int n = c.n_max;
  const auto b = bench::rhs_for(n);
  // Cold: a never-seen matrix per sample (each pays factor + solve).
  for (int s = 0; s < c.samples; ++s) {
    const auto a = gen::generate(kind, n, 5000 + static_cast<std::uint64_t>(s));
    r.cold = std::min(r.cold, solve_once_seconds(svc, a, b));
  }
  // Hit: one matrix, repeatedly (first request primes the cache).
  const auto a = gen::generate(kind, n, 4242);
  (void)svc.submit_solve(a, b).get();
  for (int s = 0; s < 5 * c.samples; ++s)
    r.hit = std::min(r.hit, solve_once_seconds(svc, a, b));
  if (svc.stats().cache.hits == 0)
    std::fprintf(stderr, "warning: no cache hits?!\n");
  return r;
}

struct FactorSolve {
  double factor = 1e30, solve = 1e30;  // best-of seconds
};

// The service's solver on one `kind` system, apart from the service:
// Solver::factor, and the one-column solve from the retained factorization.
FactorSolve factor_and_solve(const bench::Config& c, gen::MatrixKind kind) {
  FactorSolve r;
  const Solver solver(service_config(c.nb).solver);
  const auto a = gen::generate(kind, c.n_max, 4242);
  const auto b = bench::rhs_for(c.n_max);
  for (int s = 0; s < c.samples; ++s) {
    Timer t;
    (void)solver.factor(a);
    r.factor = std::min(r.factor, t.seconds());
  }
  const core::Factorization fac = solver.factor(a);
  for (int s = 0; s < 5 * c.samples; ++s) {
    Timer t;
    (void)fac.solve(b);
    r.solve = std::min(r.solve, t.seconds());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Config c = bench::config(/*default_n=*/256, /*default_nb=*/32);
  bench::JsonReport report("bench_service", argc, argv);
  report.config("n", c.n_max);
  report.config("nb", c.nb);
  report.config("samples", c.samples);

  const int n = c.n_max;
  std::printf("bench_service: n=%d nb=%d samples=%d\n\n", n, c.nb, c.samples);

  // -- cold vs cache-hit latency ------------------------------------------
  // Diagonally dominant systems: the all-LU regime. A cold request pays the
  // O(n^3) factorization, a cache hit only the O(n^2) exact-width replay —
  // the factor-once-solve-many contrast the cache exists for.
  const ColdHit lu = cold_and_hit(c, gen::MatrixKind::DiagDominant);
  const double hit_speedup = lu.cold / lu.hit;
  std::printf("cold  factor+solve   %8.3f ms\n", 1e3 * lu.cold);
  std::printf("warm  cache-hit      %8.3f ms   (%.1fx)\n", 1e3 * lu.hit,
              hit_speedup);
  report.row("cold_request").metric("ms", 1e3 * lu.cold).metric("n", n);
  report.row("cache_hit_request").metric("ms", 1e3 * lu.hit).metric("n", n);
  report.row("cache_hit_speedup").metric("speedup", hit_speedup).metric("n", n);

  // Gaussian systems under max(100): most steps choose QR, so a hit replays
  // Q^T through UNMQR/TSMQR/TTMQR instead of row swaps and TRSMs.
  const ColdHit qr = cold_and_hit(c, gen::MatrixKind::Random);
  const double qr_over_lu = qr.hit / lu.hit;
  std::printf("cold  factor+solve QR-heavy %8.3f ms\n", 1e3 * qr.cold);
  std::printf("warm  cache-hit QR-heavy    %8.3f ms   (%.2fx the all-LU hit)\n",
              1e3 * qr.hit, qr_over_lu);
  report.row("cold_request_qr").metric("ms", 1e3 * qr.cold).metric("n", n);
  report.row("cache_hit_request_qr").metric("ms", 1e3 * qr.hit).metric("n", n);
  report.row("qr_hit_over_lu_hit").metric("ratio", qr_over_lu).metric("n", n);

  // The same two kinds of system without the service.
  const FactorSolve lu_fs = factor_and_solve(c, gen::MatrixKind::DiagDominant);
  const FactorSolve qr_fs = factor_and_solve(c, gen::MatrixKind::Random);
  const double factor_ratio = qr_fs.factor / lu_fs.factor;
  const double solve_ratio = qr_fs.solve / lu_fs.solve;
  std::printf("factor         QR-heavy %8.3f ms   all-LU %8.3f ms   (%.2fx)\n",
              1e3 * qr_fs.factor, 1e3 * lu_fs.factor, factor_ratio);
  std::printf("1-column solve QR-heavy %8.3f ms   all-LU %8.3f ms   (%.2fx)\n",
              1e3 * qr_fs.solve, 1e3 * lu_fs.solve, solve_ratio);
  report.row("qr_factor_over_lu_factor")
      .metric("ratio", factor_ratio)
      .metric("qr_ms", 1e3 * qr_fs.factor)
      .metric("lu_ms", 1e3 * lu_fs.factor)
      .metric("n", n);
  report.row("qr_solve_over_lu_solve")
      .metric("ratio", solve_ratio)
      .metric("qr_ms", 1e3 * qr_fs.solve)
      .metric("lu_ms", 1e3 * lu_fs.solve)
      .metric("n", n);

  // -- batched vs individual small solves ---------------------------------
  {
    const int kSolves = 32;
    const int small_n = std::max(32, n / 4);
    serve::SolveService svc(service_config(c.nb));
    const auto a = gen::generate(gen::MatrixKind::Random, small_n, 777);
    std::vector<Matrix<double>> bs;
    for (int i = 0; i < kSolves; ++i)
      bs.push_back(bench::rhs_for(small_n, 900 + static_cast<std::uint64_t>(i)));
    (void)svc.submit_factor(a).get();  // prime the cache for both shapes

    const double individual = bench::best_of(c.samples, 1, [&] {
      std::vector<serve::JobHandle> handles;
      handles.reserve(bs.size());
      for (const auto& b : bs) handles.push_back(svc.submit_solve(a, b));
      for (auto& h : handles) (void)h.get();
    });
    const double batched = bench::best_of(c.samples, 1, [&] {
      auto handles = svc.submit_batch(a, bs);
      for (auto& h : handles) (void)h.get();
    });
    const double batch_speedup = individual / batched;
    std::printf("\n%d solves of n=%d   individual %8.3f ms | batched %8.3f ms "
                "(%.2fx)\n",
                kSolves, small_n, 1e3 * individual, 1e3 * batched, batch_speedup);
    report.row("individual_solves")
        .metric("ms", 1e3 * individual)
        .metric("count", kSolves)
        .metric("n", small_n);
    report.row("batched_solves")
        .metric("ms", 1e3 * batched)
        .metric("count", kSolves)
        .metric("n", small_n);
    report.row("batch_speedup").metric("speedup", batch_speedup).metric("n", small_n);
  }

  // -- mixed multi-client stress ------------------------------------------
  {
    const int kClients = 4, kRequests = 16, kPool = 4;
    serve::ServiceConfig cfg = service_config(c.nb);
    cfg.queue_capacity = 64;
    serve::SolveService svc(cfg);
    std::vector<Matrix<double>> pool;
    for (int i = 0; i < kPool; ++i)
      pool.push_back(gen::generate(gen::MatrixKind::Random, 32 + 32 * i,
                                   6000 + static_cast<std::uint64_t>(i)));
    Timer wall;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRequests; ++r) {
          const auto& a = pool[static_cast<std::size_t>((t + r) % kPool)];
          (void)svc
              .submit_solve(a, bench::rhs_for(a.rows(),
                                              static_cast<std::uint64_t>(t) * 100 + r),
                            static_cast<serve::Priority>(r % 3))
              .get();
        }
      });
    }
    for (auto& t : threads) t.join();
    svc.drain();
    const double secs = wall.seconds();
    const serve::ServiceStats s = svc.stats();
    const double jobs_per_sec = static_cast<double>(kClients * kRequests) / secs;
    std::printf("\nstress %dx%d        %8.1f jobs/s | p50=%lluus p99=%lluus | "
                "cache hit %.0f%% | workspace %.1f KB\n",
                kClients, kRequests, jobs_per_sec,
                static_cast<unsigned long long>(s.latency_p50_us),
                static_cast<unsigned long long>(s.latency_p99_us),
                100.0 * s.cache.hit_rate(),
                static_cast<double>(s.workspace_bytes) / 1024.0);
    report.row("stress_mixed")
        .metric("jobs_per_sec", jobs_per_sec)
        .metric("p50_us", static_cast<long>(s.latency_p50_us))
        .metric("p99_us", static_cast<long>(s.latency_p99_us))
        .metric("cache_hit_rate", s.cache.hit_rate())
        .metric("workspace_bytes", static_cast<long>(s.workspace_bytes));
  }

  report.write();
  return 0;
}
