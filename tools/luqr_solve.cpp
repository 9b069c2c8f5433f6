// luqr_solve — command-line hybrid solver over Matrix Market files, built on
// the luqr::Solver facade.
//
//   luqr_solve A.mtx [b.mtx] [options]
//
//   --criterion max|sum|mumps|random|always-lu|always-qr   (default max)
//   --alpha <v>        criterion threshold / LU probability (default 100)
//   --lu-fraction <t>  auto-tune alpha to hit this LU-step fraction in [0,1]
//                      (overrides --alpha; max/sum/mumps only)
//   --nb <v>           tile size (default 64)
//   --grid PxQ         logical process grid (default 4x4)
//   --variant A1|A2|B1|B2                                  (default A1)
//   --threads <n>      run the parallel backend with n worker threads
//                      (default: serial backend)
//   --no-priorities    disable critical-path task priorities
//   --lookahead N      priority-lane lookahead depth: updates feeding the
//                      next N panel decisions overtake bulk trailing work
//                      (default 2; parallel backend)
//   --trace f.json     write a Chrome-tracing JSON of the parallel
//                      factorization's tasks (open via chrome://tracing)
//   --audit            run the parallel factorization under the dataflow
//                      correctness auditor: validate every task's actual
//                      accesses against its declared set and certify after
//                      the drain that all conflicting pairs are ordered by
//                      declared dependencies (violations abort with details)
//   --chaos-seed N     adversarial schedule exploration: seed N randomizes
//                      queue draining order and injects per-task delays
//                      (results stay bitwise identical; pairs with --audit)
//   --profile          print a per-kernel-class breakdown (gemm / trsm /
//                      getrf / geqrt / ...) of this run from the always-on
//                      kernel profiler: calls, wall time, share and model
//                      GFLOP/s per class, serial or parallel; with --threads
//                      also critical-path length and per-lane task counts
//   --refine <n>       iterative-refinement sweeps (default 0)
//   --precision P      working precision: f64 (default), f32 (single
//                      precision throughout), or f32_ir (factor in f32,
//                      refine the solve back to f64 accuracy; falls back to
//                      an f64 refactorization when refinement stalls)
//   --out x.mtx        write the solution (default: print summary only)
//
// Without b.mtx, a right-hand side with known solution x = ones is
// manufactured so the forward error can be reported too.
#include <cstdio>
#include <cstring>
#include <string>

#include "io/matrix_market.hpp"
#include "luqr.hpp"
#include "obs/kprof.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s A.mtx [b.mtx] [--criterion C] [--alpha V] [--lu-fraction T]\n"
               "       [--nb V] [--grid PxQ] [--variant A1|A2|B1|B2] [--threads N]\n"
               "       [--no-priorities] [--lookahead N]\n"
               "       [--trace f.json] [--profile] [--audit] [--chaos-seed N]\n"
               "       [--refine N] [--precision f64|f32|f32_ir] [--out x.mtx]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace luqr;
  if (argc < 2) usage(argv[0]);

  std::string a_path, b_path, out_path, trace_path;
  std::string criterion = "max", variant = "A1";
  std::string precision = "f64";
  double alpha = 100.0, lu_fraction = -1.0;
  int nb = 64, refine = 0, grid_p = 4, grid_q = 4, threads = 0, lookahead = -1;
  bool priorities = true, profile = false, audit = false;
  unsigned long long chaos_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--criterion") {
      criterion = need_value();
    } else if (arg == "--alpha") {
      alpha = std::strtod(need_value(), nullptr);
    } else if (arg == "--lu-fraction") {
      lu_fraction = std::strtod(need_value(), nullptr);
    } else if (arg == "--nb") {
      nb = std::atoi(need_value());
    } else if (arg == "--threads") {
      threads = std::atoi(need_value());
    } else if (arg == "--refine") {
      refine = std::atoi(need_value());
    } else if (arg == "--precision") {
      precision = need_value();
    } else if (arg == "--variant") {
      variant = need_value();
    } else if (arg == "--no-priorities") {
      priorities = false;
    } else if (arg == "--lookahead") {
      lookahead = std::atoi(need_value());
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--chaos-seed") {
      chaos_seed = std::strtoull(need_value(), nullptr, 10);
    } else if (arg == "--trace") {
      trace_path = need_value();
    } else if (arg == "--grid") {
      const char* v = need_value();
      if (std::sscanf(v, "%dx%d", &grid_p, &grid_q) != 2) usage(argv[0]);
    } else if (arg == "--out") {
      out_path = need_value();
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
    } else if (a_path.empty()) {
      a_path = arg;
    } else if (b_path.empty()) {
      b_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (a_path.empty()) usage(argv[0]);

  try {
    const Matrix<double> a = io::read_matrix_market_file(a_path);
    LUQR_REQUIRE(a.rows() == a.cols(), "system matrix must be square");
    const int n = a.rows();

    bool manufactured = b_path.empty();
    Matrix<double> b(n, 1);
    if (manufactured) {
      // b = A * ones: known solution for forward-error reporting.
      Matrix<double> ones(n, 1, 1.0);
      kern::gemm(kern::Trans::No, kern::Trans::No, 1.0, a.cview(), ones.cview(),
                 0.0, b.view());
    } else {
      b = io::read_matrix_market_file(b_path);
      LUQR_REQUIRE(b.rows() == n, "rhs row count mismatch");
    }

    LUQR_REQUIRE(threads >= 0, "--threads must be nonnegative");
    SolverConfig config;
    config.tile_size(nb).grid(grid_p, grid_q);
    if (variant == "A2") config.variant(core::LuVariant::A2);
    else if (variant == "B1") config.variant(core::LuVariant::B1);
    else if (variant == "B2") config.variant(core::LuVariant::B2);
    else LUQR_REQUIRE(variant == "A1", "unknown variant: " + variant);
    if (threads > 0) config.backend(Backend::Parallel).threads(threads);
    else config.backend(Backend::Serial);
    if (precision == "f32") config.precision(core::Precision::F32);
    else if (precision == "f32_ir") config.precision(core::Precision::F32_IR);
    else LUQR_REQUIRE(precision == "f64", "unknown precision: " + precision);

    rt::SchedulerOptions sched;
    sched.priorities = priorities;
    if (lookahead >= 0) sched.lookahead = lookahead;
    if (!trace_path.empty()) {
      LUQR_REQUIRE(threads > 0, "--trace requires the parallel backend (--threads)");
      sched.trace = true;
      sched.trace_path = trace_path;
    }
    if (audit) {
      LUQR_REQUIRE(threads > 0, "--audit requires the parallel backend (--threads)");
      sched.audit = true;
    }
    if (chaos_seed != 0) {
      LUQR_REQUIRE(threads > 0,
                   "--chaos-seed requires the parallel backend (--threads)");
      sched.chaos_seed = chaos_seed;
    }
    rt::SchedulerStats sched_stats;
    if (profile)
      LUQR_REQUIRE(obs::kernel_profiler_enabled(),
                   "--profile reads the kernel profiler, which LUQR_KPROF=0 "
                   "disabled in this environment");
    config.scheduler(sched);
    if (threads > 0) config.scheduler_stats(&sched_stats);

    CriterionSpec spec = CriterionSpec::parse(criterion, alpha);
    if (lu_fraction >= 0.0) {
      // Tune up front (rather than inside factor()) so the tuned alpha can
      // be reported and is not re-derived on every solve.
      const Solver tuner(SolverConfig(config).criterion(spec)
                             .autotune_target_lu_fraction(lu_fraction));
      spec = tuner.effective_criterion(a);
      std::printf("auto-tuned alpha: %g (target LU fraction %.2f)\n", spec.alpha,
                  lu_fraction);
    }
    config.criterion(spec);
    const Solver solver(config);

    // Profiler baseline: the registry counters are process-monotonic, so
    // this run's contribution is the snapshot diff around factor+solve.
    const obs::KernelProfile prof_before = obs::kernel_profile();

    Timer timer;
    const core::Factorization fac = solver.factor(a);
    const double t_factor = timer.seconds();
    timer.reset();
    core::SolveReport report;
    const Matrix<double> x = fac.solve(b, &report, refine);
    const double t_solve = timer.seconds();

    std::printf("luqr_solve: N=%d nb=%d criterion=%s grid=%dx%d variant=%s "
                "backend=%s\n",
                n, nb, spec.name().c_str(), grid_p, grid_q, variant.c_str(),
                threads > 0 ? "parallel" : "serial");
    if (threads > 0)
      std::printf("threads: %d%s\n", solver.resolve_threads(),
                  priorities ? "" : "   (no priorities)");
    if (!trace_path.empty())
      std::printf("task trace written to %s\n", trace_path.c_str());
    if (audit)
      std::printf("audit: %llu tasks validated; access audit and "
                  "happens-before certification passed\n",
                  static_cast<unsigned long long>(sched_stats.audited_tasks));
    if (chaos_seed != 0)
      std::printf("chaos schedule: seed %llu\n", chaos_seed);
    if (profile) {
      // Per-kernel-class breakdown straight from the always-on profiler
      // (obs::KernelScope around every kernel dispatch): exact call counts,
      // wall time and model flops for this factor+solve — no trace
      // reconstruction, and it works for the serial backend too.
      const obs::KernelProfile prof_after = obs::kernel_profile();
      double busy = 0.0;
      std::uint64_t calls_total = 0;
      for (int c = 0; c < obs::kKernelClassCount; ++c) {
        busy += static_cast<double>(prof_after[static_cast<std::size_t>(c)].time_us -
                                    prof_before[static_cast<std::size_t>(c)].time_us) *
                1e-6;
        calls_total += prof_after[static_cast<std::size_t>(c)].calls -
                       prof_before[static_cast<std::size_t>(c)].calls;
      }
      std::printf("\nprofile (kernel time %.3fs across %llu kernel calls):\n",
                  busy, static_cast<unsigned long long>(calls_total));
      std::printf("  %-10s %10s %10s %7s %9s\n", "class", "calls", "time(s)",
                  "share", "gflop/s");
      for (int c = 0; c < obs::kKernelClassCount; ++c) {
        const auto& b0 = prof_before[static_cast<std::size_t>(c)];
        const auto& b1 = prof_after[static_cast<std::size_t>(c)];
        const std::uint64_t calls = b1.calls - b0.calls;
        if (calls == 0) continue;
        const double secs = static_cast<double>(b1.time_us - b0.time_us) * 1e-6;
        const double flops = static_cast<double>(b1.flops - b0.flops);
        std::printf("  %-10s %10llu %10.4f %6.1f%% %9.2f\n",
                    obs::kernel_class_label(static_cast<obs::KernelClass>(c)),
                    static_cast<unsigned long long>(calls), secs,
                    busy > 0 ? 100.0 * secs / busy : 0.0,
                    secs > 0 ? flops * 1e-9 / secs : 0.0);
      }
      if (threads > 0) {
        std::printf("  critical path: %llu tasks   lookahead: %d\n",
                    static_cast<unsigned long long>(sched_stats.critical_path),
                    sched.lookahead);
        std::printf("  lane tasks:");
        for (std::size_t l = 0; l < sched_stats.lane_tasks.size(); ++l)
          std::printf(" L%zu=%llu", l,
                      static_cast<unsigned long long>(sched_stats.lane_tasks[l]));
        std::printf("\n");
      }
    }
    std::printf("steps: %d LU + %d QR (%.1f%% LU)\n", fac.stats().lu_steps,
                fac.stats().qr_steps, 100.0 * fac.stats().lu_fraction());
    std::printf("factor: %.3fs   solve(+%d refinements): %.3fs\n", t_factor,
                refine, t_solve);
    if (fac.precision() != core::Precision::F64)
      std::printf("precision: %s   refine iterations: %d   %s\n",
                  core::to_string(fac.precision()).c_str(),
                  report.refine_iterations,
                  report.fell_back
                      ? "fell back to f64 refactorization"
                      : (report.converged ? "converged" : "NOT converged"));
    std::printf("HPL3: %.3e   relative residual: %.3e\n", verify::hpl3(a, x, b),
                verify::relative_residual(a, x, b));
    if (manufactured) {
      double err = 0.0;
      for (int i = 0; i < n; ++i) err = std::max(err, std::abs(x(i, 0) - 1.0));
      std::printf("forward error vs ones: %.3e\n", err);
    }
    if (!out_path.empty()) {
      io::write_matrix_market_file(out_path, x);
      std::printf("solution written to %s\n", out_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
