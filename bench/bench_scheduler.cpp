// bench_scheduler — the task-parallel hybrid driver on its fixed lane
// grading.
//
// Factors a LUQR_TILES x LUQR_TILES tile matrix (default 32x32, nb from
// LUQR_NB, default 16) with LUQR_THREADS workers (default: the hardware
// concurrency) and reports factor time, tasks/second, steals, the DAG
// critical path and how many tasks each priority lane (0-4) executed.
//
//   LUQR_TILES    tile rows/cols of the square part    (default 32)
//   LUQR_NB       tile size                            (default 16)
//   LUQR_THREADS  worker threads                (default hardware threads)
//   LUQR_ALPHA    max-criterion threshold              (default 20)
//   LUQR_SAMPLES  timed runs                           (default 3)
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace luqr;
  const int tiles = static_cast<int>(env_long("LUQR_TILES", 32));
  const int nb = static_cast<int>(env_long("LUQR_NB", 16));
  const int threads = static_cast<int>(env_long(
      "LUQR_THREADS",
      static_cast<long>(std::max(1u, std::thread::hardware_concurrency()))));
  const double alpha = static_cast<double>(env_long("LUQR_ALPHA", 20));
  const int samples = static_cast<int>(env_long("LUQR_SAMPLES", 3));
  const int n = tiles * nb;

  std::printf("bench_scheduler: %dx%d tiles (N=%d, nb=%d), %d threads, "
              "max criterion alpha=%g, best of %d\n\n",
              tiles, tiles, n, nb, threads, alpha, samples);

  const auto dense = gen::generate(gen::MatrixKind::Random, n, 7);
  core::HybridOptions opt;
  opt.grid_p = 4;
  opt.grid_q = 4;

  double best_seconds = 1e30;
  rt::SchedulerStats stats;
  for (int s = 0; s < samples + 1; ++s) {  // first run is warmup
    TileMatrix<double> a = TileMatrix<double>::from_dense(dense, nb);
    MaxCriterion criterion(alpha);
    stats = {};
    Timer timer;
    rt::parallel_hybrid_factor(a, criterion, opt, threads, nullptr, {}, &stats);
    const double t = timer.seconds();
    if (s > 0) best_seconds = std::min(best_seconds, t);
  }
  const double tasks_per_sec =
      static_cast<double>(stats.tasks_executed) / best_seconds;

  std::printf("%10s %12s %10s %10s %8s   lane tasks\n", "factor(s)",
              "tasks/sec", "tasks", "steals", "critpath");
  std::printf("%10.4f %12.0f %10llu %10llu %8llu  ", best_seconds,
              tasks_per_sec,
              static_cast<unsigned long long>(stats.tasks_executed),
              static_cast<unsigned long long>(stats.steals),
              static_cast<unsigned long long>(stats.critical_path));
  for (std::size_t l = 0; l < stats.lane_tasks.size(); ++l)
    std::printf(" L%zu=%llu", l,
                static_cast<unsigned long long>(stats.lane_tasks[l]));
  std::printf("\n");

  bench::JsonReport report("bench_scheduler", argc, argv);
  report.config("tiles", tiles);
  report.config("nb", nb);
  report.config("threads", threads);
  report.config("alpha", alpha);
  report.config("samples", samples);
  auto& row = report.row("parallel_factor")
                  .metric("factor_seconds", best_seconds)
                  .metric("tasks_per_sec", tasks_per_sec)
                  .metric("tasks", static_cast<long>(stats.tasks_executed))
                  .metric("steals", static_cast<long>(stats.steals))
                  .metric("critical_path", static_cast<long>(stats.critical_path));
  for (std::size_t l = 0; l < stats.lane_tasks.size(); ++l)
    row.metric("lane" + std::to_string(l) + "_tasks",
               static_cast<long>(stats.lane_tasks[l]));
  report.write();
  return 0;
}
