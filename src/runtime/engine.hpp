// A superscalar dataflow task engine — the PaRSEC stand-in.
//
// The paper implements the hybrid algorithm on PaRSEC's parameterized task
// graphs, extended with selection (Propagate) tasks because the LU/QR fork
// is only known at run time. This engine achieves the same dynamic-DAG
// capability differently: tasks are inserted online (StarPU/OmpSs style) and
// dependencies are inferred automatically from declared data accesses —
// a task that writes a tile runs after every earlier task that read or wrote
// it; readers of a tile run after its last writer.
//
// Scheduling model:
//   - Each worker owns a ready deque: tasks that become ready on a worker
//     (successors it unblocks, or tasks it submits from inside a running
//     task) are pushed to its own deque and popped LIFO for cache locality;
//     idle workers steal from other deques FIFO (oldest task first).
//   - Tasks carry a priority (0..kPriorityLanes-1), and each priority has a
//     shared FIFO lane. Ready tasks with priority > 0 go to their lane, which
//     every worker checks (highest lane first) before its own deque, so
//     critical-path work (the hybrid driver's panel/decision chain and the
//     updates that gate the next two panels) overtakes bulk trailing
//     updates. Lane 0 is the injection queue: priority-0 tasks submitted
//     from non-worker threads land there, drained after the worker's own
//     deque and before stealing.
//   - Every task's DAG depth is computed at submit time: 1 + the maximum
//     depth over its inferred predecessors. The depth of a datum's last
//     writer is kept in the datum history, so chains survive individual
//     task retirement — but once a datum's whole history is pruned (no live
//     task references it), a later chain through it starts fresh: depths
//     measure the *live* graph, which is also what bounds engine memory.
//     The running maximum is the critical path length — exported, together
//     with per-lane executed-task counts, as telemetry and in the Chrome
//     trace.
//   - submit() is safe from inside a running task (continuations): the
//     hybrid driver's Propagate task decides LU-vs-QR and submits the next
//     step's graph without the submitting thread ever joining.
//   - Completed tasks are retired: their graph node is erased and the
//     per-datum access history is pruned, so engine memory is O(live
//     frontier), not O(total tasks submitted) — essential for solve-many
//     workloads that keep a factorization's engine busy for a long time.
//   - With EngineOptions::trace set, every executed task records
//     {name, tag, priority, worker, start, end}; write_chrome_trace()
//     exports the Chrome-tracing JSON ("chrome://tracing" / Perfetto).
//
// Thread-safety: submit may be called from any thread, including from
// inside running tasks. wait()/wait_all() must not be called from inside a
// task (the waiting worker could never drain the task it waits on) — this
// historical footgun is now an enforced precondition: both throw
// luqr::Error when called on a worker thread. Task functions must confine
// themselves to their declared accesses; with EngineOptions::audit set this
// contract is *checked* — every audited task runs with a
// kern::AccessListener installed, observed accesses on registered datums
// (runtime/audit.hpp) are validated against the declared Dep set, and
// certify_happens_before() proves post-run that every conflicting access
// pair is ordered by a declared-dependency path (runtime/hb_checker.hpp).
// EngineOptions::chaos_seed randomizes queue draining and injects per-task
// delays to explore adversarial-but-legal schedules (dependences are always
// respected, so results must not change — the audit harness asserts it).
// trace()/write_chrome_trace() are safe on a live engine (per-worker event
// buffers carry their own locks); consume_trace() drains them incrementally
// for long-lived shared engines.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/task_sink.hpp"
#include "kernels/workspace.hpp"

namespace luqr::rt {

/// Declared accesses (data-only; defined beside the step graph that
/// declares them).
using Access = core::Access;
using Dep = core::Dep;

using TaskId = std::uint64_t;

/// Number of scheduling priority levels: exactly the lanes the hybrid
/// driver's grading uses (panel 4 > gates 3 > near-frontier updates > bulk
/// 0; runtime/parallel_hybrid.hpp asserts it), which also hold the serve
/// layer's three client priorities. Priority 0 runs from the per-worker
/// deques and the injection queue; priorities 1..kPriorityLanes-1 each have
/// a shared lane, drained highest-first before any deque work.
inline constexpr int kPriorityLanes = 5;

/// Optional task attributes: a display name for traces, a scheduling
/// priority (0 = bulk work, higher runs earlier; clamped to
/// [0, kPriorityLanes-1]), a caller-defined tag recorded in the trace
/// (the hybrid driver tags every task with its step index k), and a span
/// id (`job`) that flows into TraceEvent and the Chrome export so engine
/// tasks can be correlated with the serve-layer job that submitted them
/// (0 = no span).
struct TaskAttrs {
  std::string name;
  int priority = 0;
  int tag = -1;
  std::uint64_t job = 0;

  TaskAttrs() = default;
  TaskAttrs(std::string name_, int priority_ = 0, int tag_ = -1,
            std::uint64_t job_ = 0)
      : name(std::move(name_)), priority(priority_), tag(tag_), job(job_) {}
  TaskAttrs(const char* name_) : name(name_) {}  // NOLINT: implicit by design
};

/// One executed task, as recorded when tracing is enabled. Times are
/// microseconds since engine construction. `depth` is the task's DAG depth
/// (longest predecessor chain + 1, computed at submit time); `job` is the
/// span id carried by TaskAttrs (0 = none).
struct TraceEvent {
  std::string name;
  int tag = -1;
  int priority = 0;
  int depth = 0;
  int worker = 0;
  std::uint64_t job = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
};

struct EngineOptions {
  bool trace = false;  ///< record a TraceEvent per executed task
  /// Validate every task's actual data accesses against its declared Dep set
  /// (see runtime/audit.hpp) and record the full submission history for
  /// certify_happens_before(). Off by default: disabled, the only residual
  /// cost is one thread-local pointer test at each instrumentation point.
  bool audit = false;
  /// Nonzero: adversarial schedule exploration. Seeds per-worker RNGs that
  /// randomize the order queues are drained in (priority lanes, own deque,
  /// injection queue, steal victims — including pop direction) and inject
  /// small per-task delays. Dependences are still honored exactly, so any
  /// result change under chaos is a declaration bug.
  std::uint64_t chaos_seed = 0;
};

struct AuditViolation;  // runtime/audit.hpp
struct AuditState;      // engine.cpp: violation log + happens-before recorder

/// Dataflow engine with a fixed worker pool.
class Engine {
 public:
  explicit Engine(int num_threads, EngineOptions options = {});
  ~Engine();  // drains all tasks, then joins the workers

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Insert a task. It becomes ready once every inferred predecessor has
  /// completed. Returns an id usable with wait(). Callable from any thread,
  /// including from inside a running task.
  TaskId submit(std::function<void()> fn, const std::vector<Dep>& deps,
                TaskAttrs attrs = {});

  /// Block until the given task has completed (ids of retired tasks return
  /// immediately). Must not be called from inside a task — enforced: throws
  /// luqr::Error when called on one of this engine's worker threads.
  void wait(TaskId id);

  /// Block until every submitted task has completed. If any task threw, the
  /// first captured exception is rethrown here (and the engine keeps
  /// draining the remaining tasks first, so the graph state is quiescent).
  void wait_all();

  /// True when no submitted task is pending or running. A long-lived shared
  /// engine (the serve subsystem) polls this between job waves.
  bool idle() const;

  /// Block until the engine is quiescent. Unlike wait_all() this neither
  /// consumes nor rethrows task errors — on a shared engine each job owns
  /// its errors (the drivers capture them per job), so the drain hook must
  /// not steal another caller's exception.
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Total tasks executed so far (telemetry for tests/benches).
  std::uint64_t tasks_executed() const;
  /// Ready tasks taken from another worker's deque (telemetry).
  std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  /// Longest dependence chain over every task submitted so far (the DAG
  /// critical path length, in tasks; computed incrementally at submit time).
  std::uint64_t critical_path_length() const;
  /// Tasks executed per priority lane (index = priority, size
  /// kPriorityLanes) — shows how much work the critical-path lanes carried.
  std::vector<std::uint64_t> lane_executed() const;
  /// Graph nodes not yet retired (0 once quiescent — memory is O(frontier)).
  std::size_t live_tasks() const;
  /// Per-datum access histories not yet pruned.
  std::size_t tracked_data() const;
  /// Total bytes of kernel-workspace arena capacity across the worker pool
  /// (telemetry: the steady-state scratch footprint; allocated once per
  /// worker, not per task).
  std::size_t workspace_bytes() const;
  /// Workers currently executing a task body (live gauge; racy by nature).
  int busy_workers() const { return busy_.load(std::memory_order_relaxed); }
  /// Ready-but-unstarted tasks per priority lane, sampled live. Index 0
  /// counts the worker deques and the injection queue (lane 0); index p >= 1
  /// is the shared lane for priority p.
  std::vector<std::size_t> ready_depths() const;

  /// True when constructed with EngineOptions::audit.
  bool auditing() const { return audit_ != nullptr; }
  /// Tasks that ran under the access auditor (0 when audit is off).
  std::uint64_t audited_tasks() const;
  /// Access-audit violations recorded so far (each was also thrown inside
  /// the offending task; kept here so telemetry survives drivers that
  /// capture task errors per job).
  std::vector<AuditViolation> access_violations() const;
  /// Prove every conflicting access pair of the run is ordered by a declared
  /// dependency path (see runtime/hb_checker.hpp). Audit mode, quiescent
  /// engine only; returns one violation per unordered pair.
  std::vector<AuditViolation> certify_happens_before() const;

  /// All recorded trace events, merged across workers and sorted by start
  /// time. Safe on a live engine: each worker's event buffer has its own
  /// mutex, so this observes every task finished so far mid-run (a task
  /// still executing appears once it completes).
  std::vector<TraceEvent> trace() const;
  /// Incremental flush: drain and return the events recorded since the last
  /// consume_trace() call, leaving the per-worker buffers empty. Lets a
  /// long-lived shared engine stream its trace without unbounded growth.
  std::vector<TraceEvent> consume_trace();
  /// Write the recorded events as Chrome-tracing JSON (same liveness
  /// guarantee as trace()).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Task {
    TaskId id = 0;
    std::function<void()> fn;
    std::string name;
    int priority = 0;
    int tag = -1;
    std::uint64_t job = 0;  // span id from TaskAttrs (0 = none)
    int depth = 0;  // 1 + max predecessor depth, fixed at submit
    int unresolved = 0;
    std::vector<TaskId> successors;
    std::vector<const void*> keys;  // declared data, for pruning at retirement
    std::vector<Dep> declared;      // full Dep set; audit mode only
  };

  // Last-writer / readers-since-last-write tracking per datum. writer_depth
  // keeps the last writer's DAG depth even after that task retires, so depth
  // chains survive retirement as long as the datum stays tracked.
  struct DataState {
    TaskId last_writer = 0;
    bool has_writer = false;
    int writer_depth = 0;
    std::vector<TaskId> readers;
  };

  struct Worker {
    mutable std::mutex mu;
    std::deque<Task*> ready;  // owner: push/pop back (LIFO); thief: pop front
    // Guards `events` so trace() works on a live engine (mutable: sampled
    // from const telemetry getters).
    mutable std::mutex events_mu;
    std::vector<TraceEvent> events;
    // Per-worker kernel scratch arena: packed GEMM panels and compact-WY
    // intermediates grow it to the high-water mark once, then every task on
    // this worker bump-allocates from it (installed as the thread's arena
    // for the lifetime of worker_loop).
    kern::Workspace workspace;
    // Chaos mode: this worker's private schedule-perturbation RNG state
    // (only ever touched by the owning thread).
    std::uint64_t chaos_state = 0;
    std::thread thread;
  };

  struct SharedQueue {
    mutable std::mutex mu;
    std::deque<Task*> ready;  // FIFO
  };

  void worker_loop(int self);
  Task* try_pop(int self);
  Task* try_pop_chaos(int self);
  void run_task(Task* task, int self);
  void finish_task(Task* task);
  // Route a ready task to the right queue. Caller must hold mu_ (that is
  // what makes the ready_count_ increment visible to the sleep predicate).
  void push_ready(Task* task, std::size_t* pushed);
  // Drop `finished` from one datum's history; erase the whole entry once no
  // live task references it. Caller must hold mu_, with `finished` already
  // removed from tasks_.
  void prune_datum(const void* key, TaskId finished);
  std::uint64_t now_us() const;

  mutable std::mutex mu_;             // graph state: tasks_, data_, counters
  std::condition_variable ready_cv_;  // workers: work available / shutdown
  std::condition_variable done_cv_;   // waiters: task/all done
  std::unordered_map<TaskId, Task> tasks_;
  std::unordered_map<const void*, DataState> data_;
  TaskId next_id_ = 1;
  std::uint64_t outstanding_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t critical_path_ = 0;                 // max task depth so far
  std::uint64_t lane_executed_[kPriorityLanes] = {};  // per-priority counts
  bool shutdown_ = false;
  std::exception_ptr first_error_;

  // Shared lanes: lanes_[p] holds ready tasks of priority p; lanes_[0] is
  // the injection queue (priority-0 submissions from non-worker threads).
  SharedQueue lanes_[kPriorityLanes];
  std::atomic<int> high_count_{0};  // ready tasks in lanes 1..kPriorityLanes-1
  std::atomic<long long> ready_count_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<int> busy_{0};  // workers currently inside a task body
  bool tracing_ = false;
  bool chaos_ = false;
  std::unique_ptr<AuditState> audit_;  // non-null iff EngineOptions::audit
  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace luqr::rt
