// Task-parallel hybrid LU-QR factorization on the dataflow engine.
//
// The engine sink for the step graph (core/step_graph.hpp): every task the
// graph emits — panel/decision, LU apply/eliminate/update, QR restore,
// factor and update kernels, for all four LU variants — is submitted to the
// engine, which infers its order from the declared tile dependences.
// core::hybrid_factor runs the same graph through the inline sink, so the
// two produce bitwise-identical factors, logs and statistics.
//
// The panel task is the paper's Propagate selection task: it decides
// LU-vs-QR *inside the dataflow* and submits the step's updates plus the
// next step's panel itself, so the submitting thread never joins and the
// workers keep lookahead across as many steps as the dependences allow.
// SchedulerOptions grades the tasks into critical-path priority lanes and
// enables the per-task timing trace and the auditor (runtime/scheduler.hpp).
#pragma once

#include "core/hybrid.hpp"
#include "criteria/criteria.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::rt {

namespace detail {
/// Keeps a parameter out of template-argument deduction (so callers may
/// pass nullptr for the optional TransformLog without naming T).
template <typename U>
struct NonDeduced {
  using type = U;
};
template <typename U>
using non_deduced = typename NonDeduced<U>::type;
}  // namespace detail

/// Engine-level telemetry of one parallel factorization (optional out-param
/// of parallel_hybrid_factor; filled after the graph drains). On an owned
/// engine (parallel_hybrid_factor) every field describes exactly this run;
/// on a caller-provided shared engine (parallel_hybrid_factor_on) all of
/// them — including critical_path and lane_tasks — are engine-lifetime
/// totals across every job the pool has executed, not per-run deltas (a
/// running max cannot be rewound, and concurrent jobs interleave).
struct SchedulerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  /// Longest dependence chain of the submitted task graph (in tasks) — the
  /// DAG critical path the lookahead lanes are racing.
  std::uint64_t critical_path = 0;
  /// Tasks executed per engine priority lane (index = priority).
  std::vector<std::uint64_t> lane_tasks;
  /// Per-task timing (only when SchedulerOptions::trace was set). Tasks are
  /// tagged with their step index k.
  std::vector<TraceEvent> trace;
  /// Audit mode only (SchedulerOptions::audit): tasks that ran under the
  /// access auditor, and the violation counts of the two analyses. A clean
  /// audited run reports audited_tasks > 0 and both counts zero (nonzero
  /// counts also make the factorization throw).
  std::uint64_t audited_tasks = 0;
  std::uint64_t audit_access_violations = 0;
  std::uint64_t audit_hb_violations = 0;
};

/// Parallel equivalent of core::hybrid_factor: same options (every variant,
/// HybridOptions::track_growth), bitwise-identical tiles, statistics and
/// growth factor.
///
/// When `log` is non-null, every transformation is recorded exactly as the
/// inline sink records it (same replay order, bitwise-identical factors), so
/// the result can seed a retained core::Factorization that serves fresh
/// right-hand sides later.
/// Instantiated for double and float; the float instantiation backs the
/// Precision::F32/F32_IR paths (criterion statistics are gathered in double
/// regardless of T, so the LU-vs-QR decisions match the f64 run shape-wise).
template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor(
    TileMatrix<T>& a, Criterion& criterion, const core::HybridOptions& options,
    int num_threads, detail::non_deduced<core::TransformLogT<T>*> log = nullptr,
    const SchedulerOptions& sched = {}, SchedulerStats* sched_stats = nullptr);

/// Same factorization, but on a caller-provided long-lived engine instead of
/// a per-call worker pool — the serve subsystem's mode: many factorizations
/// multiplex onto one shared pool, concurrently if the caller wishes (their
/// task graphs touch disjoint tiles, so the engine keeps them independent).
/// Returns once this run's tasks have all completed; errors are captured per
/// run and rethrown here, never parked in the shared engine's global error
/// slot. SchedulerOptions::trace is unsupported (it needs a quiescent
/// engine); SchedulerStats, when requested, reports engine-wide lifetime
/// totals (see the struct comment), not this run's share.
template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor_on(
    Engine& engine, TileMatrix<T>& a, Criterion& criterion,
    const core::HybridOptions& options,
    detail::non_deduced<core::TransformLogT<T>*> log = nullptr,
    const SchedulerOptions& sched = {}, SchedulerStats* sched_stats = nullptr);

}  // namespace luqr::rt
