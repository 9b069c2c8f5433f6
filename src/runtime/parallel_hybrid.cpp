#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "core/step_graph.hpp"
#include "runtime/audit.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel_hybrid.hpp"

namespace luqr::rt {

using core::HybridOptions;

namespace {

EngineOptions engine_options(const SchedulerOptions& sched) {
  EngineOptions o;
  o.trace = sched.trace;
  o.audit = sched.audit;
  o.chaos_seed = sched.chaos_seed;
  return o;
}

// The lane of each task role, graded by how directly the task gates the
// panel/decision chain. With d = j - k - 1 the distance of trailing column j
// from the next panel, updates run in lane max(0, 2 - d), so the columns
// feeding the next two panel decisions overtake bulk trailing work; an apply
// gates every update of its column, so it runs one lane above them. The
// per-step gate kernels sit one lane above the frontier updates, the panel
// chain on top. The convert of tile column j gates step 0's tasks on that
// column: column 0 (the first panel) runs with the panel chain, later
// columns a lane lower each. Pure scheduling hints: results never depend on
// them.
constexpr int kPanelLane = 4;
static_assert(kPanelLane == kPriorityLanes - 1,
              "the engine has exactly the lanes the grading uses");

int lane(const core::TaskInfo& t) {
  const int d = t.j - t.k - 1;
  switch (t.role) {
    case core::TaskRole::Convert: return std::max(0, kPanelLane - t.j);
    case core::TaskRole::Panel: return kPanelLane;
    case core::TaskRole::Gate: return kPanelLane - 1;
    case core::TaskRole::Apply: return std::max(0, kPanelLane - 1 - d);
    case core::TaskRole::Update: return std::max(0, kPanelLane - 2 - d);
  }
  return 0;
}

// The engine sink: submits each task of the step graph to the dataflow
// engine, which orders it by the declared dependences. The engine may be
// this run's own pool or a caller's long-lived shared pool (the serve
// subsystem's mode); the run treats both alike and never touches the
// engine-wide error slot or quiescence: every task is guarded into this
// run's error slot, and the run ends with a completion task that reads
// every tile — it runs strictly after all of this run's tasks, and only
// them.
class EngineSink final : public core::TaskSink {
 public:
  // `all_tiles`: a read of every tile of the factored matrix (the
  // completion task's dependences).
  EngineSink(Engine& engine, std::vector<Dep> all_tiles)
      : engine_(engine), all_tiles_(std::move(all_tiles)) {}

  // The task's exception lands in this run's error slot, so one job's
  // failure never poisons another job sharing the pool. A failed decision
  // task cuts the step chain, so it sends the completion task in the
  // chain's stead (otherwise the waiting driver thread would never wake).
  void emit(std::function<void()> fn, const std::vector<Dep>& deps,
            const core::TaskInfo& info) override {
    const bool decision = info.role == core::TaskRole::Panel;
    engine_.submit(
        [this, decision, fn = std::move(fn)] {
          try {
            fn();
          } catch (...) {
            record_error(std::current_exception());
            if (decision) submit_completion();
          }
        },
        deps, TaskAttrs(info.name, lane(info), info.k));
  }

  // Runs inside the decision task: the next step's panel is submitted from
  // the dataflow itself, so the submitting thread never joins.
  void advance(std::function<void()> next) override {
    if (next)
      next();
    else
      submit_completion();  // chain end
  }

  void record_error(std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!error_) error_ = std::move(e);
  }

  // The run's last task. Reading every tile orders it after every task of
  // this run (each declares at least one tile access; a convert task writes
  // its whole tile column) and after nothing else on a shared engine.
  // Idempotent — failure paths and the chain end may race to send it.
  void submit_completion() {
    if (completion_sent_.exchange(true)) return;
    completion_.set_value(engine_.submit([] {}, all_tiles_, {"job-done", 0, -1}));
  }

  // Block until the completion task has retired (so its predecessors — the
  // whole run — have too), then rethrow this run's first failure.
  void wait() {
    engine_.wait(completion_.get_future().get());
    std::lock_guard<std::mutex> lk(error_mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Engine& engine_;
  const std::vector<Dep> all_tiles_;
  std::mutex error_mu_;
  std::exception_ptr error_;  // first failure of this run
  std::atomic<bool> completion_sent_{false};
  std::promise<TaskId> completion_;  // the completion task, once submitted
};

// Emit the step graph into the engine, wait for its completion task, and
// collect telemetry. `owned`: the engine is this run's private pool, so it is
// quiescent once the run completes — the precondition of the trace copy and
// of happens-before certification.
template <typename T>
core::FactorizationStatsT<T> drive(Engine& engine, bool owned,
                                   TileMatrix<T>& a, Criterion& criterion,
                                   const HybridOptions& options,
                                   core::TransformLogT<T>* log,
                                   const SchedulerOptions& sched,
                                   SchedulerStats* sched_stats,
                                   const core::DenseSource<T>* source) {
  core::StepGraph<T> graph(a, &criterion, options, log, source);

  // Audit mode: register every tile of the working matrix so each task's
  // actual accesses resolve back to tile coordinates. Scratch the tasks own
  // privately (panel backups, T factors) stays unregistered and unaudited.
  // The registration must outlive the task graph, which completes before
  // drive() returns.
  std::unique_ptr<ScopedTileRegistration> audit_tiles;
  if (engine.auditing())
    audit_tiles = std::make_unique<ScopedTileRegistration>(a);

  std::vector<Dep> all_tiles;
  all_tiles.reserve(static_cast<std::size_t>(a.mt()) * a.nt());
  for (int j = 0; j < a.nt(); ++j)
    for (int i = 0; i < a.mt(); ++i)
      all_tiles.push_back({a.tile_key(i, j), Access::Read});
  EngineSink sink(engine, std::move(all_tiles));

  try {
    // Seed step 0; each step's decision task submits the next.
    if (graph.steps() > 0)
      graph.emit(sink, 0);
    else
      sink.advance(nullptr);
  } catch (...) {
    // The run must stay alive until its in-flight tasks finish: record,
    // send the completion task, and fall through to the wait below.
    sink.record_error(std::current_exception());
    sink.submit_completion();
  }
  sink.wait();

  if (sched_stats) {
    sched_stats->tasks_executed = engine.tasks_executed();
    sched_stats->steals = engine.steals();
    sched_stats->critical_path = engine.critical_path_length();
    sched_stats->lane_tasks = engine.lane_executed();
    if (engine.auditing()) {
      sched_stats->audited_tasks = engine.audited_tasks();
      sched_stats->audit_access_violations = engine.access_violations().size();
    }
  }
  if (!owned) return graph.take_stats();

  if (sched.trace) {
    if (sched_stats) sched_stats->trace = engine.trace();
    if (!sched.trace_path.empty()) engine.write_chrome_trace(sched.trace_path);
  }
  // Happens-before certification: with the run complete, prove every
  // conflicting access pair was ordered by a declared-dependency path. A
  // shared engine's recorded history interleaves other jobs' tasks, so
  // certification there is the engine owner's call (the per-task access
  // audit above still ran either way).
  if (engine.auditing()) {
    const auto hb = engine.certify_happens_before();
    if (sched_stats) sched_stats->audit_hb_violations = hb.size();
    if (!hb.empty()) throw Error(hb.front().message());
  }
  return graph.take_stats();
}

}  // namespace

template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor(
    TileMatrix<T>& a, Criterion& criterion, const HybridOptions& options,
    int num_threads, detail::non_deduced<core::TransformLogT<T>*> log,
    const SchedulerOptions& sched, SchedulerStats* sched_stats,
    detail::non_deduced<const core::DenseSource<T>*> source) {
  Engine engine(num_threads, engine_options(sched));
  return drive(engine, /*owned=*/true, a, criterion, options, log, sched,
               sched_stats, source);
}

template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor_on(
    Engine& engine, TileMatrix<T>& a, Criterion& criterion,
    const HybridOptions& options,
    detail::non_deduced<core::TransformLogT<T>*> log,
    const SchedulerOptions& sched, SchedulerStats* sched_stats,
    detail::non_deduced<const core::DenseSource<T>*> source) {
  LUQR_REQUIRE(!sched.trace,
               "per-task tracing needs a quiescent engine of its own; it is "
               "unavailable on a shared engine");
  return drive(engine, /*owned=*/false, a, criterion, options, log, sched,
               sched_stats, source);
}

template core::FactorizationStatsT<double> parallel_hybrid_factor(
    TileMatrix<double>&, Criterion&, const HybridOptions&, int,
    core::TransformLogT<double>*, const SchedulerOptions&, SchedulerStats*,
    const core::DenseSource<double>*);
template core::FactorizationStatsT<float> parallel_hybrid_factor(
    TileMatrix<float>&, Criterion&, const HybridOptions&, int,
    core::TransformLogT<float>*, const SchedulerOptions&, SchedulerStats*,
    const core::DenseSource<float>*);
template core::FactorizationStatsT<double> parallel_hybrid_factor_on(
    Engine&, TileMatrix<double>&, Criterion&, const HybridOptions&,
    core::TransformLogT<double>*, const SchedulerOptions&, SchedulerStats*,
    const core::DenseSource<double>*);
template core::FactorizationStatsT<float> parallel_hybrid_factor_on(
    Engine&, TileMatrix<float>&, Criterion&, const HybridOptions&,
    core::TransformLogT<float>*, const SchedulerOptions&, SchedulerStats*,
    const core::DenseSource<float>*);

}  // namespace luqr::rt
