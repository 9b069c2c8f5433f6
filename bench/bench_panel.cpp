// bench_panel — blocked vs seed critical-path kernels.
//
// The factorization's critical path retires through the panel kernels
// (GETRF / GEQRT) and the triangular solves (TRSM); every trailing update
// and the next Propagate decision wait on them. This bench times the blocked
// implementations against the seed's unblocked loops across tile sizes and
// records the speedups the CI perf-smoke job asserts (>= 1.5x for getrf and
// geqrt at nb >= 128).
//
//   rows: {getrf,getrf_tall,geqrt,trsm_left,trsm_right}_{blocked,seed,speedup}
//   nb:   {32, 64, 128, 256}
//
// Scale knobs:
//   LUQR_SAMPLES   best-of-N samples per row              (default 3)
//   LUQR_FLOPS     target flops per timing sample         (default 2e8)
//
// Machine-readable record: `--json BENCH_panel.json` (kept at the repo root
// alongside BENCH_kernels.json; regenerate with build/bench_panel).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/pack.hpp"

namespace {

using namespace luqr;
using namespace luqr::kern;

int g_samples = 3;
double g_target_flops = 2e8;

Matrix<double> rnd(int m, int n, std::uint64_t seed) {
  Matrix<double> a(m, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a(i, j) = rng.gaussian();
  return a;
}

Matrix<double> rnd_lower(int n, std::uint64_t seed) {
  Matrix<double> a(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) a(i, j) = rng.gaussian();
    a(j, j) += 4.0;
  }
  return a;
}

Matrix<double> rnd_upper(int n, std::uint64_t seed) {
  Matrix<double> a(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) a(i, j) = rng.gaussian();
    a(j, j) += 4.0;
  }
  return a;
}

long reps_for(double flops) {
  return std::max(1L, static_cast<long>(g_target_flops / flops));
}

TextTable& table() {
  static TextTable t = [] {
    TextTable t0;
    t0.header({"kernel", "nb", "GFLOP/s", "best s", "reps"});
    return t0;
  }();
  return t;
}

template <typename F>
double run_case(bench::JsonReport& report, const std::string& name, int nb,
                double flops, F&& fn) {
  const long reps = reps_for(flops);
  const double secs = bench::best_of(g_samples, reps, fn);
  const double gflops = flops / secs / 1e9;
  table().row({name, std::to_string(nb), fmt_fixed(gflops, 2),
               fmt_sci(secs, 3), std::to_string(reps)});
  report.row(name)
      .metric("nb", nb)
      .metric("gflops", gflops)
      .metric("best_seconds", secs)
      .metric("reps", reps)
      .metric("samples", g_samples);
  return gflops;
}

void speedup_row(bench::JsonReport& report, const std::string& base, int nb,
                 double blocked, double seed) {
  const double speedup = blocked / seed;
  table().row({base + "_speedup", std::to_string(nb),
               fmt_fixed(speedup, 2) + "x", "", ""});
  report.row(base + "_speedup").metric("nb", nb).metric("speedup", speedup);
}

// Blocked vs seed GETRF on an m x nb panel (m == nb: a tile; m == 4*nb: the
// stacked domain-panel shape the hybrid driver factors every step).
void bench_getrf(bench::JsonReport& report, const char* base, int m, int nb) {
  const auto a0 = rnd(m, nb, 11);
  std::vector<int> piv;
  // flops of an m x n LU panel: n^2 (m - n/3).
  const double flops =
      static_cast<double>(nb) * nb * (m - static_cast<double>(nb) / 3.0);
  const double blocked = run_case(report, std::string(base) + "_blocked", nb,
                                  flops, [&] {
                                    auto a = a0;
                                    getrf_blocked(a.view(), piv);
                                  });
  const double seed = run_case(report, std::string(base) + "_seed", nb, flops,
                               [&] {
                                 auto a = a0;
                                 getrf_unblocked(a.view(), piv);
                               });
  speedup_row(report, base, nb, blocked, seed);
}

void bench_geqrt(bench::JsonReport& report, int nb) {
  const auto a0 = rnd(nb, nb, 14);
  Matrix<double> t(nb, nb);
  const double flops = (4.0 / 3.0) * nb * nb * nb;
  const double blocked = run_case(report, "geqrt_blocked", nb, flops, [&] {
    auto a = a0;
    geqrt_blocked(a.view(), t.view());
  });
  const double seed = run_case(report, "geqrt_seed", nb, flops, [&] {
    auto a = a0;
    geqrt_unblocked(a.view(), t.view());
  });
  speedup_row(report, "geqrt", nb, blocked, seed);
}

void bench_trsm(bench::JsonReport& report, int nb) {
  // Each rep solves a fresh copy of B (a triangular solve is in-place;
  // re-solving the same buffer would hand the two paths different operand
  // values and eventually denormals). The copy is O(nb^2) against the
  // solve's O(nb^3) and identical for both paths.
  // Left / Lower / Unit — the SWPTRSM apply of every LU step.
  {
    const auto l = rnd_lower(nb, 12);
    const auto b0 = rnd(nb, nb, 13);
    const double flops = 1.0 * nb * nb * nb;
    const double blocked =
        run_case(report, "trsm_left_blocked", nb, flops, [&] {
          auto b = b0;
          trsm_blocked(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
                       l.cview(), b.view());
        });
    const double seed = run_case(report, "trsm_left_seed", nb, flops, [&] {
      auto b = b0;
      trsm_unblocked(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
                     l.cview(), b.view());
    });
    speedup_row(report, "trsm_left", nb, blocked, seed);
  }
  // Right / Upper / NonUnit — the eliminate solve of every LU step.
  {
    const auto u = rnd_upper(nb, 15);
    const auto b0 = rnd(nb, nb, 16);
    const double flops = 1.0 * nb * nb * nb;
    const double blocked =
        run_case(report, "trsm_right_blocked", nb, flops, [&] {
          auto b = b0;
          trsm_blocked(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
                       u.cview(), b.view());
        });
    const double seed = run_case(report, "trsm_right_seed", nb, flops, [&] {
      auto b = b0;
      trsm_unblocked(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
                     u.cview(), b.view());
    });
    speedup_row(report, "trsm_right", nb, blocked, seed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_samples = static_cast<int>(env_long("LUQR_SAMPLES", 3));
  g_target_flops = env_double("LUQR_FLOPS", 2e8);

  bench::JsonReport report("bench_panel", argc, argv);
  report.config("panel_jb", kPanelJB);
  report.config("panel_small_n", kPanelSmallN);
  report.config("trsm_kb", kTrsmKB);
  report.config("trsm_small_m", kTrsmSmallM);
  std::printf("panel blocking: jb=%d small_n=%d; trsm: kb=%d small_m=%d\n",
              kPanelJB, kPanelSmallN, kTrsmKB, kTrsmSmallM);
  report.config("samples", g_samples);
  report.config("target_flops", g_target_flops);

  for (int nb : {32, 64, 128, 256}) {
    bench_getrf(report, "getrf", nb, nb);
    bench_getrf(report, "getrf_tall", 4 * nb, nb);
    bench_geqrt(report, nb);
    bench_trsm(report, nb);
  }

  std::printf("%s", table().str().c_str());
  report.write();
  return 0;
}
