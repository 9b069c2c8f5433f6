// luqr::Solver — the library's front door.
//
// The paper presents one algorithm behind many knobs (criterion, alpha,
// pivot scope, LU variant, reduction trees, grid); this facade folds every
// knob into one validated SolverConfig and drives both execution backends
// behind one entry point:
//
//   luqr::Solver solver(luqr::SolverConfig()
//                           .criterion(luqr::CriterionSpec::max(100.0))
//                           .tile_size(64)
//                           .grid(4, 4)
//                           .backend(luqr::Backend::Auto));
//   auto result = solver.solve(a, b);                 // one-shot
//
//   auto fac = solver.factor(a);                      // solve-many workloads
//   auto x1 = fac.solve(b1);                          // const + thread-safe:
//   auto x2 = fac.solve(b2);                          // factor once, serve
//                                                     // many RHS concurrently
//
// The Serial and Parallel backends run the same step graph (the inline and
// the engine sink of core/step_graph.hpp), so their factors — and every
// solve drawn from them — are bitwise identical (a property the test suite
// asserts).
#pragma once

#include <memory>

#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "criteria/criteria.hpp"
#include "hqr/trees.hpp"
#include "kernels/dense.hpp"
#include "runtime/scheduler.hpp"

namespace luqr::rt {
class Engine;
struct SchedulerStats;
}

namespace luqr {

using core::Precision;
using core::RefineOptions;
using core::SolveReport;

/// Execution backend of a Solver. Serial runs the step graph inline on the
/// calling thread; Parallel runs it on the dataflow task engine with a
/// worker pool; Auto picks Parallel when more than one hardware thread is
/// available and the problem has enough tiles to keep the workers busy.
enum class Backend { Serial, Parallel, Auto };

/// Validated, builder-style configuration for luqr::Solver. Every setter
/// returns *this so configs read as a chain; scalar preconditions are
/// enforced in the setters, cross-field ones in validate() (run by the
/// Solver constructor). All checks throw luqr::Error via LUQR_REQUIRE.
class SolverConfig {
 public:
  /// Robustness criterion, by value-type description (the normal path).
  SolverConfig& criterion(const CriterionSpec& spec) {
    criterion_ = spec;
    external_ = nullptr;
    return *this;
  }
  /// Advanced: bring your own (possibly stateful) Criterion instance. The
  /// reference is non-owning — it must outlive every Solver call — and its
  /// state advances across factorizations, exactly like passing a mutable
  /// Criterion& to the low-level drivers. Incompatible with auto-tuning.
  SolverConfig& criterion(Criterion& external) {
    external_ = &external;
    return *this;
  }
  SolverConfig& tile_size(int nb) {
    LUQR_REQUIRE(nb > 0, "tile size must be positive");
    tile_size_ = nb;
    return *this;
  }
  SolverConfig& grid(int p, int q) {
    LUQR_REQUIRE(p > 0 && q > 0, "grid dimensions must be positive");
    grid_p_ = p;
    grid_q_ = q;
    return *this;
  }
  SolverConfig& variant(core::LuVariant v) {
    variant_ = v;
    return *this;
  }
  SolverConfig& pivot_scope(core::PivotScope s) {
    scope_ = s;
    return *this;
  }
  SolverConfig& trees(const hqr::TreeConfig& t) {
    tree_ = t;
    return *this;
  }
  SolverConfig& backend(Backend b) {
    backend_ = b;
    return *this;
  }
  /// Worker threads for the Parallel backend; 0 = hardware concurrency.
  SolverConfig& threads(int n) {
    LUQR_REQUIRE(n >= 0, "thread count must be nonnegative (0 = auto)");
    threads_ = n;
    return *this;
  }
  /// Iterative-refinement sweeps applied by solve() (0 = plain solve).
  SolverConfig& refinement_sweeps(int n) {
    LUQR_REQUIRE(n >= 0, "refinement sweep count must be nonnegative");
    refinement_sweeps_ = n;
    return *this;
  }
  /// Working precision. F64 (default) is the historical all-double path.
  /// F32 converts the input to single precision and factors/solves there —
  /// the hybrid LU-vs-QR criterion decides per panel exactly as in f64,
  /// on statistics widened to double. F32_IR adds LU-IR on top: solves
  /// compute f64 residuals against the retained original, push corrections
  /// through the f32 factors, and iterate to f64-level accuracy, falling
  /// back to an f64 refactorization (reported, never silent) on stall.
  SolverConfig& precision(Precision p) {
    precision_ = p;
    return *this;
  }
  /// F32_IR: cap on refinement iterations per solve (default 20).
  SolverConfig& refine_max_iterations(int n) {
    LUQR_REQUIRE(n >= 1, "refinement iteration cap must be positive");
    refine_.max_iterations = n;
    return *this;
  }
  /// F32_IR: scaled-residual convergence target (0 = auto: 4·N·eps_f64).
  SolverConfig& refine_tolerance(double tol) {
    LUQR_REQUIRE(tol >= 0.0, "refinement tolerance must be nonnegative");
    refine_.tolerance = tol;
    return *this;
  }
  /// Auto-tune the criterion threshold so the LU-step fraction on the input
  /// matrix lands near `fraction` (paper §VII). Requires a tunable
  /// (Max/Sum/Mumps) criterion spec.
  SolverConfig& autotune_target_lu_fraction(double fraction) {
    LUQR_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                 "target LU fraction must be in [0, 1]");
    autotune_target_ = fraction;
    has_autotune_ = true;
    return *this;
  }
  SolverConfig& exact_inv_norm(bool on) {
    exact_inv_norm_ = on;
    return *this;
  }
  SolverConfig& track_growth(bool on) {
    track_growth_ = on;
    return *this;
  }
  /// Run options for the Parallel backend: the per-task timing trace
  /// (rt::SchedulerOptions::trace_path writes a Chrome-tracing JSON file
  /// after each parallel factorization), the dataflow auditor and chaos
  /// schedules. Task priority lanes are fixed by task role, not configured
  /// (runtime/parallel_hybrid.hpp).
  SolverConfig& scheduler(const rt::SchedulerOptions& s) {
    scheduler_ = s;
    return *this;
  }
  /// Telemetry out-param: after every Parallel-backend factorization the
  /// engine's scheduler statistics (tasks, steals, critical path length,
  /// per-lane counts, and — with the trace enabled — per-task timings) are
  /// written here. Non-owning; must outlive the Solver calls. Serial-backend
  /// runs leave it untouched.
  SolverConfig& scheduler_stats(rt::SchedulerStats* stats) {
    sched_stats_ = stats;
    return *this;
  }
  /// Shared-engine handle: run every Parallel-backend factorization on this
  /// long-lived engine instead of constructing a per-call worker pool — the
  /// serve subsystem's mode, where many Solver calls (possibly concurrent)
  /// multiplex onto one pool. The engine defines the worker count (threads()
  /// is ignored) and must outlive the Solver. Incompatible with the per-task
  /// trace, which needs a quiescent engine of its own.
  SolverConfig& engine(std::shared_ptr<rt::Engine> e) {
    engine_ = std::move(e);
    return *this;
  }

  const CriterionSpec& criterion() const { return criterion_; }
  Criterion* external_criterion() const { return external_; }
  int tile_size() const { return tile_size_; }
  int grid_p() const { return grid_p_; }
  int grid_q() const { return grid_q_; }
  core::LuVariant variant() const { return variant_; }
  core::PivotScope pivot_scope() const { return scope_; }
  const hqr::TreeConfig& trees() const { return tree_; }
  Backend backend() const { return backend_; }
  int threads() const { return threads_; }
  int refinement_sweeps() const { return refinement_sweeps_; }
  Precision precision() const { return precision_; }
  const RefineOptions& refine() const { return refine_; }
  bool has_autotune_target() const { return has_autotune_; }
  double autotune_target_lu_fraction() const { return autotune_target_; }
  bool exact_inv_norm() const { return exact_inv_norm_; }
  bool track_growth() const { return track_growth_; }
  const rt::SchedulerOptions& scheduler() const { return scheduler_; }
  rt::SchedulerStats* scheduler_stats() const { return sched_stats_; }
  const std::shared_ptr<rt::Engine>& engine() const { return engine_; }

  /// Adopt every knob a low-level HybridOptions carries (used by the
  /// delegating free-function wrappers).
  SolverConfig& hybrid_options(const core::HybridOptions& o);
  /// Project the config back onto the low-level driver options.
  core::HybridOptions hybrid_options() const;

  /// Cross-field validation: auto-tuning needs a tunable criterion spec, a
  /// shared engine cannot trace, reduced precision needs a criterion spec.
  void validate() const;

 private:
  CriterionSpec criterion_{};
  Criterion* external_ = nullptr;
  int tile_size_ = 64;
  int grid_p_ = 1, grid_q_ = 1;
  core::LuVariant variant_ = core::LuVariant::A1;
  core::PivotScope scope_ = core::PivotScope::Domain;
  hqr::TreeConfig tree_{};
  Backend backend_ = Backend::Auto;
  int threads_ = 0;
  int refinement_sweeps_ = 0;
  Precision precision_ = Precision::F64;
  RefineOptions refine_{};
  double autotune_target_ = 0.0;
  bool has_autotune_ = false;
  bool exact_inv_norm_ = false;
  bool track_growth_ = false;
  rt::SchedulerOptions scheduler_{};
  rt::SchedulerStats* sched_stats_ = nullptr;
  std::shared_ptr<rt::Engine> engine_;
};

/// Session-style entry point: configure once, then factor / solve any number
/// of systems. A Solver is immutable after construction and safe to share
/// across threads; each factor()/solve() call is independent.
class Solver {
 public:
  Solver() : Solver(SolverConfig{}) {}
  explicit Solver(SolverConfig config);  ///< validates; throws luqr::Error

  const SolverConfig& config() const { return config_; }

  /// The criterion spec a factorization of `a` will actually use: the
  /// configured spec, with the threshold auto-tuned on `a` when an
  /// autotune_target_lu_fraction is set (useful for reporting the tuned
  /// alpha before solving).
  CriterionSpec effective_criterion(const Matrix<double>& a) const;

  /// Factor A (square) on the configured backend and retain everything
  /// needed to serve fresh right-hand sides. The returned handle is
  /// backend-agnostic: Serial and Parallel produce bitwise-identical
  /// factorizations, and Factorization::solve is const and thread-safe, so
  /// one factorization can serve many concurrent RHS batches.
  core::Factorization factor(const Matrix<double>& a) const;

  /// One-shot convenience: solve A X = B (B may have several columns) with
  /// the fused-RHS driver, plus the configured refinement sweeps.
  core::SolveResult solve(const Matrix<double>& a,
                          const Matrix<double>& b) const;

  /// The backend a problem with `n_tiles` tile rows would run on (resolves
  /// Auto; exposed for tests and tools).
  Backend resolve_backend(int n_tiles) const;
  /// The worker-pool size the Parallel backend would use.
  int resolve_threads() const;

 private:
  /// Criterion instance for one factorization pass: the configured external
  /// instance, or a fresh one from the (possibly tuned) spec parked in
  /// `owned` for lifetime.
  Criterion* resolve_criterion(const Matrix<double>& a,
                               std::unique_ptr<Criterion>& owned) const;

  SolverConfig config_;
};

}  // namespace luqr
