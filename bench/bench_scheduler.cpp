// bench_scheduler — lookahead-graded vs plain priority lanes on the
// task-parallel hybrid driver.
//
// Factors a LUQR_TILES x LUQR_TILES tile matrix (default 32x32, nb from
// LUQR_NB, default 16) with LUQR_THREADS workers (default 8) under both
// lane policies and reports factor time, tasks/second, steal counts, and
// the decision lookahead depth (how many steps behind the panel task the
// oldest still-running update is — measured from a traced run, so it is
// reported separately from the untraced timing runs).
//
//   LUQR_TILES    tile rows/cols of the square part    (default 32)
//   LUQR_NB       tile size                            (default 16)
//   LUQR_THREADS  worker threads                       (default 8)
//   LUQR_ALPHA    max-criterion threshold              (default 20)
//   LUQR_SAMPLES  timed runs per mode                  (default 3)
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace luqr;

struct ModeResult {
  double best_seconds = 0.0;
  double tasks_per_sec = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t critical_path = 0;
  std::uint64_t high_lane_tasks = 0;  // tasks executed from lanes > 0
  double lookahead_avg = 0.0;
  int lookahead_max = 0;
};

// Decision lookahead from a traced run: for each panel task of step k, the
// oldest step with a task still unfinished when the panel started.
void lookahead_from_trace(const std::vector<rt::TraceEvent>& events,
                          ModeResult* out) {
  double sum = 0.0;
  int count = 0;
  for (const auto& panel : events) {
    if (panel.name != "panel" || panel.tag <= 0) continue;
    int oldest = panel.tag;
    for (const auto& e : events)
      if (e.tag >= 0 && e.tag < oldest && e.end_us > panel.start_us)
        oldest = e.tag;
    const int depth = panel.tag - oldest;
    sum += depth;
    out->lookahead_max = std::max(out->lookahead_max, depth);
    ++count;
  }
  out->lookahead_avg = count > 0 ? sum / count : 0.0;
}

ModeResult run_mode(const Matrix<double>& dense, int nb, int threads,
                    double alpha, int samples, rt::SchedulerOptions sched) {
  ModeResult r;
  core::HybridOptions opt;
  opt.grid_p = 4;
  opt.grid_q = 4;

  r.best_seconds = 1e30;
  for (int s = 0; s < samples + 1; ++s) {  // first run is warmup
    TileMatrix<double> tiles = TileMatrix<double>::from_dense(dense, nb);
    MaxCriterion criterion(alpha);
    rt::SchedulerStats stats;
    Timer timer;
    rt::parallel_hybrid_factor(tiles, criterion, opt, threads, nullptr, sched,
                               &stats);
    const double t = timer.seconds();
    if (s == 0) continue;
    r.best_seconds = std::min(r.best_seconds, t);
    r.tasks = stats.tasks_executed;
    r.steals = stats.steals;
    r.critical_path = stats.critical_path;
    r.high_lane_tasks = 0;
    for (std::size_t l = 1; l < stats.lane_tasks.size(); ++l)
      r.high_lane_tasks += stats.lane_tasks[l];
  }
  r.tasks_per_sec = static_cast<double>(r.tasks) / r.best_seconds;

  // Separate traced run for the lookahead analysis (tracing adds per-task
  // overhead, so it never pollutes the timing above).
  {
    TileMatrix<double> tiles = TileMatrix<double>::from_dense(dense, nb);
    MaxCriterion criterion(alpha);
    rt::SchedulerOptions traced = sched;
    traced.trace = true;
    rt::SchedulerStats stats;
    rt::parallel_hybrid_factor(tiles, criterion, opt, threads, nullptr, traced,
                               &stats);
    lookahead_from_trace(stats.trace, &r);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int tiles = static_cast<int>(env_long("LUQR_TILES", 32));
  const int nb = static_cast<int>(env_long("LUQR_NB", 16));
  const int threads = static_cast<int>(env_long("LUQR_THREADS", 8));
  const double alpha = static_cast<double>(env_long("LUQR_ALPHA", 20));
  const int samples = static_cast<int>(env_long("LUQR_SAMPLES", 3));
  const int n = tiles * nb;

  std::printf("bench_scheduler: %dx%d tiles (N=%d, nb=%d), %d threads, "
              "max criterion alpha=%g, best of %d\n\n",
              tiles, tiles, n, nb, threads, alpha, samples);

  const auto dense = luqr::gen::generate(luqr::gen::MatrixKind::Random, n, 7);

  // Ablation baseline: the lookahead grading off (L = 0 keeps only the
  // panel/gate lane split).
  rt::SchedulerOptions cont_opts;
  cont_opts.lookahead = 0;
  rt::SchedulerOptions look_opts;  // default: lookahead-graded priority lanes

  const ModeResult cont = run_mode(dense, nb, threads, alpha, samples, cont_opts);
  const ModeResult look = run_mode(dense, nb, threads, alpha, samples, look_opts);

  auto print_mode = [](const char* name, const ModeResult& r) {
    std::printf("%-16s %10.4f %12.0f %10llu %10llu %8llu %8llu %5.1f/%d\n",
                name, r.best_seconds, r.tasks_per_sec,
                static_cast<unsigned long long>(r.tasks),
                static_cast<unsigned long long>(r.steals),
                static_cast<unsigned long long>(r.critical_path),
                static_cast<unsigned long long>(r.high_lane_tasks),
                r.lookahead_avg, r.lookahead_max);
  };
  std::printf("%-16s %10s %12s %10s %10s %8s %8s %10s\n", "mode", "factor(s)",
              "tasks/sec", "tasks", "steals", "critpath", "hi-lane",
              "lookahead");
  print_mode("continuation", cont);
  print_mode("cont+lookahead", look);
  std::printf("\nlookahead speedup over continuation: %.3fx\n",
              cont.best_seconds / look.best_seconds);

  bench::JsonReport report("bench_scheduler", argc, argv);
  report.config("tiles", tiles);
  report.config("nb", nb);
  report.config("threads", threads);
  report.config("alpha", alpha);
  report.config("samples", samples);
  auto record = [&report](const char* mode, const ModeResult& r) {
    report.row(mode)
        .metric("factor_seconds", r.best_seconds)
        .metric("tasks_per_sec", r.tasks_per_sec)
        .metric("tasks", static_cast<long>(r.tasks))
        .metric("steals", static_cast<long>(r.steals))
        .metric("critical_path", static_cast<long>(r.critical_path))
        .metric("high_lane_tasks", static_cast<long>(r.high_lane_tasks))
        .metric("lookahead_avg", r.lookahead_avg)
        .metric("lookahead_max", r.lookahead_max);
  };
  record("continuation", cont);
  record("continuation_lookahead", look);
  report.row("lookahead_speedup")
      .metric("speedup", cont.best_seconds / look.best_seconds);
  report.write();
  return 0;
}
