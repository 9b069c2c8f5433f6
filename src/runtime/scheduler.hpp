// Scheduler knobs for the task-parallel driver (shared with the api layer).
//
// The driver runs the paper's continuation style: each step's panel
// task decides LU-vs-QR inside the dataflow and submits the step's updates
// plus the next step's panel, so workers keep lookahead across steps. These
// knobs control the engine's critical-path priorities, the per-task timing
// trace, and the correctness auditor.
#pragma once

#include <cstdint>
#include <string>

namespace luqr::rt {

/// Scheduling configuration for parallel_hybrid_factor.
struct SchedulerOptions {
  /// Give critical-path tasks (panel/decision, and the updates that unblock
  /// the next panel column) elevated engine priority.
  bool priorities = true;
  /// Lookahead depth of the priority grading (with priorities on): update
  /// tasks on trailing column k+1+d run in lane max(0, lookahead - d), so
  /// the columns feeding the next `lookahead` panel decisions overtake bulk
  /// trailing work; the panel chain itself sits two lanes above that and the
  /// per-step gate kernels (eliminates, QR factor kernels, restores) one.
  /// Clamped to the engine's lane budget (rt::kPriorityLanes). 0 keeps only
  /// the panel/gate split.
  int lookahead = 2;
  /// Record per-task timing in the engine (needed for trace_path and for
  /// SchedulerStats::trace).
  bool trace = false;
  /// When tracing, write a Chrome-tracing JSON file here after the
  /// factorization drains (open via chrome://tracing or Perfetto).
  std::string trace_path;
  /// Run the factorization under the dataflow correctness auditor: every
  /// tile is registered with the audit registry, every task's actual
  /// accesses are validated against its declared set, and after the drain
  /// the happens-before certifier proves all conflicting access pairs are
  /// ordered by declared dependencies. Violations throw luqr::Error.
  /// Costs time and O(total tasks) memory — keep out of benchmarks.
  bool audit = false;
  /// Nonzero: seed the engine's adversarial schedule exploration (randomized
  /// queue draining + per-task delays; see rt::EngineOptions::chaos_seed).
  /// Results must stay bitwise identical — the audit harness asserts it.
  std::uint64_t chaos_seed = 0;
};

}  // namespace luqr::rt
