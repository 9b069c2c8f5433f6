// bench_batch — batched small-problem throughput (luqr::batch + submit_many).
//
// The headline comparison is the steady-state serving regime batching is
// built for: a warm pool of 32 distinct n=64 systems (factorization cache
// primed), 256 solve jobs cycling over the pool, pushed through
// serve::SolveService as (a) 256 individual submit_solve calls and (b) one
// zero-copy submit_many call over shared_ptr handles. Per job, individual
// submission pays hash + cache probe + a solo solve + a dispatcher
// round-trip; submit_many keys each distinct matrix once (pointer dedup),
// skims the hits into solve-only chunks, and fuses same-factorization
// members into wide multi-column solves — structure the per-job API cannot
// express.
// CI asserts submit_many_speedup >= 3x on this row.
//
// Also reported (informational): the same comparison cold (256 distinct
// systems, fresh service per sample — factorization compute dominates both
// sides, so the ratio is near 1 by construction), the library endpoints
// factor_many / solve_many / factor_solve_many against one-shot Solver
// loops, and a mixed-size sweep across the per-order chunk groups.
//
// Scales via LUQR_N (order, default 64), LUQR_NB (tile, default 64 — a
// single-tile factor at the default order) and LUQR_SAMPLES.
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"

using namespace luqr;

namespace {

constexpr int kCount = 256;
constexpr int kPool = 32;

SolverConfig solver_config(int nb) {
  return SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb);
}

std::vector<Matrix<double>> systems(int count, int n, std::uint64_t seed0) {
  std::vector<Matrix<double>> as;
  as.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    as.push_back(gen::generate(gen::MatrixKind::Random, n,
                               seed0 + static_cast<std::uint64_t>(i)));
  return as;
}

std::vector<Matrix<double>> rhss(const std::vector<Matrix<double>>& as,
                                 std::uint64_t seed0) {
  std::vector<Matrix<double>> bs;
  bs.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i)
    bs.push_back(bench::rhs_for(as[i].rows(), seed0 + i));
  return bs;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Config c = bench::config(/*default_n=*/64, /*default_nb=*/64);
  bench::JsonReport report("bench_batch", argc, argv);
  report.config("n", c.n_max);
  report.config("nb", c.nb);
  report.config("samples", c.samples);
  report.config("count", kCount);
  report.config("pool", kPool);

  const int n = c.n_max;
  std::printf("bench_batch: %d jobs, n=%d nb=%d samples=%d\n\n", kCount, n,
              c.nb, c.samples);

  serve::ServiceConfig cfg;
  cfg.solver = solver_config(c.nb);

  // -- headline: warm pool, submit_many vs per-job submission -------------
  // One long-lived service per mode; the pool's factorizations are primed
  // into the cache before timing. Every sample then re-solves kCount jobs
  // cycling over the pool with fresh right-hand sides.
  {
    std::vector<std::shared_ptr<const Matrix<double>>> pool;
    for (int i = 0; i < kPool; ++i)
      pool.push_back(std::make_shared<const Matrix<double>>(gen::generate(
          gen::MatrixKind::Random, n, 3000 + static_cast<std::uint64_t>(i))));
    std::vector<std::shared_ptr<const Matrix<double>>> as;
    std::vector<Matrix<double>> bs;
    for (int i = 0; i < kCount; ++i) {
      as.push_back(pool[static_cast<std::size_t>(i) % kPool]);
      bs.push_back(bench::rhs_for(n, 8000 + static_cast<std::uint64_t>(i)));
    }

    const auto prime = [&](serve::SolveService& svc) {
      std::vector<serve::JobHandle> handles;
      for (const auto& a : pool)
        handles.push_back(svc.submit_solve(*a, bench::rhs_for(n, 1)));
      for (auto& h : handles) (void)h.get();
    };

    serve::SolveService svc_ind(cfg);
    prime(svc_ind);
    const double individual = bench::best_of(c.samples, 1, [&] {
      std::vector<serve::JobHandle> handles;
      handles.reserve(as.size());
      for (std::size_t i = 0; i < as.size(); ++i)
        handles.push_back(svc_ind.submit_solve(*as[i], bs[i]));
      for (auto& h : handles) (void)h.get();
    });

    serve::SolveService svc_many(cfg);
    prime(svc_many);
    const double many = bench::best_of(c.samples, 1, [&] {
      auto handles = svc_many.submit_many(as, bs);
      for (auto& h : handles) (void)h.get();
    });

    const double jobs_individual = kCount / individual;
    const double jobs_many = kCount / many;
    const double speedup = individual / many;
    std::printf("warm pool (%d distinct, cache primed):\n", kPool);
    std::printf("individual submit    %8.3f ms  (%8.0f jobs/s)\n",
                1e3 * individual, jobs_individual);
    std::printf("submit_many          %8.3f ms  (%8.0f jobs/s)  %.2fx\n",
                1e3 * many, jobs_many, speedup);
    report.row("individual_submit")
        .metric("ms", 1e3 * individual)
        .metric("jobs_per_sec", jobs_individual)
        .metric("n", n)
        .metric("count", kCount);
    report.row("submit_many")
        .metric("ms", 1e3 * many)
        .metric("jobs_per_sec", jobs_many)
        .metric("n", n)
        .metric("count", kCount);
    report.row("submit_many_speedup").metric("speedup", speedup).metric("n", n);
  }

  const auto as = systems(kCount, n, 3000);
  const auto bs = rhss(as, 8000);

  // -- cold, all-distinct (informational) ---------------------------------
  // Fresh service per sample: every factorization is a cache miss in both
  // modes. Factor compute dominates, so the ratio only shows scheduling
  // amortization at the margin.
  {
    const double individual = bench::best_of(c.samples, 1, [&] {
      serve::SolveService svc(cfg);
      std::vector<serve::JobHandle> handles;
      handles.reserve(as.size());
      for (std::size_t i = 0; i < as.size(); ++i)
        handles.push_back(svc.submit_solve(as[i], bs[i]));
      for (auto& h : handles) (void)h.get();
    });
    const double many = bench::best_of(c.samples, 1, [&] {
      serve::SolveService svc(cfg);
      auto handles = svc.submit_many(as, bs);
      for (auto& h : handles) (void)h.get();
    });
    std::printf("\ncold, %d distinct systems:\n", kCount);
    std::printf("individual submit    %8.3f ms  (%8.0f jobs/s)\n",
                1e3 * individual, kCount / individual);
    std::printf("submit_many          %8.3f ms  (%8.0f jobs/s)  %.2fx\n",
                1e3 * many, kCount / many, individual / many);
    report.row("cold_individual_submit")
        .metric("ms", 1e3 * individual)
        .metric("jobs_per_sec", kCount / individual)
        .metric("n", n);
    report.row("cold_submit_many")
        .metric("ms", 1e3 * many)
        .metric("jobs_per_sec", kCount / many)
        .metric("speedup", individual / many)
        .metric("n", n);
  }

  // -- library endpoints vs one-shot Solver loops -------------------------
  {
    const Solver solver(solver_config(c.nb));
    const double loop_factor = bench::best_of(c.samples, 1, [&] {
      for (const auto& a : as) (void)solver.factor(a);
    });
    const double many_factor = bench::best_of(c.samples, 1, [&] {
      (void)batch::factor_many(solver, as);
    });
    std::printf("\nfactor loop          %8.3f ms\n", 1e3 * loop_factor);
    std::printf("factor_many          %8.3f ms  (%.2fx)\n", 1e3 * many_factor,
                loop_factor / many_factor);
    report.row("factor_loop").metric("ms", 1e3 * loop_factor).metric("n", n);
    report.row("factor_many")
        .metric("ms", 1e3 * many_factor)
        .metric("speedup", loop_factor / many_factor)
        .metric("n", n);

    const auto factored = batch::factor_many(solver, as);
    std::vector<batch::FactorizationPtr> facs;
    facs.reserve(factored.size());
    for (const auto& o : factored) facs.push_back(o.factorization);
    const double loop_solve = bench::best_of(c.samples, 1, [&] {
      for (std::size_t i = 0; i < facs.size(); ++i) (void)facs[i]->solve(bs[i]);
    });
    const double many_solve = bench::best_of(c.samples, 1, [&] {
      (void)batch::solve_many(solver, facs, bs);
    });
    std::printf("solve loop           %8.3f ms\n", 1e3 * loop_solve);
    std::printf("solve_many           %8.3f ms  (%.2fx)\n", 1e3 * many_solve,
                loop_solve / many_solve);
    report.row("solve_loop").metric("ms", 1e3 * loop_solve).metric("n", n);
    report.row("solve_many")
        .metric("ms", 1e3 * many_solve)
        .metric("speedup", loop_solve / many_solve)
        .metric("n", n);

    const double loop_both = bench::best_of(c.samples, 1, [&] {
      for (std::size_t i = 0; i < as.size(); ++i) (void)solver.solve(as[i], bs[i]);
    });
    const double many_both = bench::best_of(c.samples, 1, [&] {
      (void)batch::factor_solve_many(solver, as, bs);
    });
    std::printf("factor+solve loop    %8.3f ms\n", 1e3 * loop_both);
    std::printf("factor_solve_many    %8.3f ms  (%.2fx)\n", 1e3 * many_both,
                loop_both / many_both);
    report.row("factor_solve_loop").metric("ms", 1e3 * loop_both).metric("n", n);
    report.row("factor_solve_many")
        .metric("ms", 1e3 * many_both)
        .metric("speedup", loop_both / many_both)
        .metric("n", n);
  }

  // -- mixed sizes across per-order chunk groups --------------------------
  {
    std::vector<Matrix<double>> mixed;
    for (int i = 0; i < 96; ++i) {
      const int sizes[] = {16, 32, 48, 64, 96, 128};
      mixed.push_back(gen::generate(gen::MatrixKind::Random, sizes[i % 6],
                                    7000 + static_cast<std::uint64_t>(i)));
    }
    const auto mixed_bs = rhss(mixed, 9500);
    const double mixed_many = bench::best_of(c.samples, 1, [&] {
      serve::SolveService svc(cfg);
      auto handles = svc.submit_many(mixed, mixed_bs);
      for (auto& h : handles) (void)h.get();
    });
    const double mixed_jobs = static_cast<double>(mixed.size()) / mixed_many;
    std::printf("\nmixed 16..128 x%zu   %8.3f ms  (%8.0f jobs/s)\n", mixed.size(),
                1e3 * mixed_many, mixed_jobs);
    report.row("submit_many_mixed")
        .metric("ms", 1e3 * mixed_many)
        .metric("jobs_per_sec", mixed_jobs)
        .metric("count", static_cast<int>(mixed.size()));
  }

  report.write();
  return 0;
}
