// luqr::serve::SolveService — a concurrent solve service over the dataflow
// engine.
//
// The library's execution layers compose into a serving system here:
// clients submit factor/solve jobs asynchronously (futures-style JobHandle)
// into a bounded priority queue with backpressure; dispatcher threads admit
// them onto one persistent shared rt::Engine whose worker pool executes
// every job, with client priorities mapped onto the engine's ready lanes so
// interactive traffic overtakes batch traffic twice (once in the queue,
// once in the engine). A content-hash-keyed FactorizationCache turns
// repeated coefficient matrices into factor-free solves, concurrent misses
// on the same matrix are deduplicated through a pending-factorization map
// (one factor run, everyone else attaches), and submit_batch fuses many
// independent right-hand sides against one matrix into a single wide solve
// instead of N engine round-trips. Every cached solve, one column or many,
// replays the factorization at the exact RHS width (Factorization::solve),
// on QR-heavy and all-LU factorizations alike.
//
//   serve::ServiceConfig cfg;
//   cfg.solver.criterion(CriterionSpec::max(100.0)).tile_size(64);
//   cfg.threads = 8;
//   serve::SolveService svc(cfg);
//   auto job = svc.submit_solve(a, b, serve::Priority::Interactive);
//   ... do other work ...
//   Matrix<double> x = job.get().x;       // blocks; rethrows job errors
//
// Guarantees:
//   - Results are bitwise identical to one-shot luqr::Solver::solve with
//     the same SolverConfig, whether the job was a cache hit, a cache miss,
//     an attached duplicate, or a batch member (the test suite asserts it).
//   - A job error fails that job's handle only; the shared engine and every
//     other job are unaffected.
//   - cancel() before execution wins: the job's work is skipped (a pending
//     factorization other jobs wait on still completes).
//
// Shutdown: the destructor stops accepting work, lets the dispatchers
// drain what was accepted, waits for every job to reach a terminal state,
// then retires the engine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/solver.hpp"
#include "serve/cache.hpp"
#include "serve/job_queue.hpp"
#include "serve/telemetry.hpp"

namespace luqr::rt {
class Engine;
}

namespace luqr::obs {
class Counter;
class EngineSampler;
class Gauge;
class Histogram;
}  // namespace luqr::obs

namespace luqr::serve {

/// Client priority of a job; maps 1:1 onto the engine's scheduling lanes
/// (and onto the admission queue's lanes).
enum class Priority { Batch = 0, Normal = 1, Interactive = 2 };

/// Lifecycle of a job. Queued -> Running -> Done/Failed is the normal path;
/// Cancelled only happens before execution begins; Rejected happens under
/// the reject-when-full admission policy, or for a submit that races
/// service shutdown (the queue closed before it was accepted). Shed is the
/// SLO path: the service determined the job could not meet its deadline
/// (expired while queued, or Batch admission during Degraded health) and
/// dropped it without running it.
enum class JobStatus { Queued, Running, Done, Failed, Cancelled, Rejected, Shed };

/// Service health, exported as the luqr_serve_health gauge and consulted by
/// admission control. Healthy serves everything; Degraded (watchdog trips
/// or memory pressure) sheds Batch work at admission until a quiet recovery
/// window elapses; Draining means the destructor is retiring the service.
enum class Health { Healthy = 0, Degraded = 1, Draining = 2 };

/// Per-job submission options (deadline-aware overloads of submit_*).
struct SubmitOptions {
  Priority priority = Priority::Normal;
  /// Soft SLO deadline, relative to submission. A job that has not *started*
  /// executing when it expires is shed (JobStatus::Shed) instead of running
  /// uselessly late — checked at dequeue and again at execution start. 0
  /// disables the deadline.
  std::uint64_t deadline_us = 0;
  /// Retry budget for transient failures (injected faults, allocation
  /// pressure); -1 inherits ServiceConfig::max_retries.
  int max_retries = -1;
};

/// What a completed job hands back.
struct SolveReply {
  Matrix<double> x;        ///< solution (empty for factor-only jobs)
  bool cache_hit = false;  ///< served from the factorization cache
  /// Service-unique span id, assigned at submit and carried through every
  /// engine task this job spawns (visible in TraceEvent::job and the Chrome
  /// trace args).
  std::uint64_t job_id = 0;
  std::uint64_t queue_us = 0;  ///< submit -> execution start
  std::uint64_t exec_us = 0;   ///< execution start -> done
  /// Span phase breakdown. factor_us is 0 for cache hits and for jobs that
  /// attached to another job's in-flight factorization (the owner paid it);
  /// batch members fused into one wide solve share the phase times.
  std::uint64_t factor_us = 0;  ///< factorization wall time this job paid
  std::uint64_t solve_us = 0;   ///< triangular solve(s) wall time
  std::uint64_t refine_us = 0;  ///< F32_IR refinement loop (== report.refine_us)
  /// Which precision served the solve and how refinement went (F32_IR);
  /// batch members fused into one wide solve share one report.
  SolveReport report;
};

namespace detail {
struct JobState;
}

/// Future-style handle to a submitted job. Copyable; all copies share one
/// job. get() consumes the solution (call it once).
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  JobStatus status() const;
  void wait() const;

  /// Bounded waits: block until the job is terminal or the timeout/deadline
  /// passes. Return true when the job reached a terminal state, false on
  /// timeout (the job keeps running; the handle stays usable).
  bool wait_for(std::uint64_t timeout_us) const;
  bool wait_until(std::chrono::steady_clock::time_point deadline) const;

  /// Block until terminal, then return the reply (moves the solution out).
  /// Failed rethrows the job's exception; Cancelled/Rejected throw Error.
  SolveReply get();

  /// Request cancellation. Returns true when the job was still queued (its
  /// work will be skipped); false once execution has begun or finished.
  bool cancel();

 private:
  friend class SolveService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

struct ServiceConfig {
  /// Factorization/solve configuration (criterion, tile size, variant,
  /// grids, refinement, ...). Everything here is part of the cache identity:
  /// two services with different solver configs never share cached factors.
  /// Must use a CriterionSpec (an external Criterion& instance is stateful
  /// across calls and therefore unservable).
  SolverConfig solver;

  int threads = 0;      ///< engine workers; 0 = hardware concurrency
  int dispatchers = 1;  ///< queue-to-engine dispatcher threads

  std::size_t queue_capacity = 1024;  ///< bounded admission queue (all lanes)
  /// Admission policy when the queue is full: false = submit blocks until
  /// space (backpressure), true = the job is Rejected immediately.
  bool reject_when_full = false;

  std::size_t cache_bytes = std::size_t{256} << 20;  ///< factorization cache budget
  FactorizationCache::HashFn cache_hash = nullptr;   ///< injectable (tests)

  /// Jobs admitted onto the engine but not yet finished; dispatchers stall
  /// beyond this, letting the queue (and its backpressure) absorb overload.
  /// 0 = twice the worker count.
  int max_inflight = 0;

  /// Matrices with at least this many tile rows factor fine-grained on the
  /// shared engine (the dispatcher drives the parallel task graph and
  /// blocks until it completes); smaller ones factor as one coarse task on
  /// a worker, which is the right grain for request-sized systems. 0
  /// disables the fine-grained path. Requires > 1 worker.
  int parallel_factor_tiles = 8;

  /// Period of the obs::EngineSampler that publishes the service engine's
  /// health gauges (luqr_engine_* with {engine="serve"}) into the global
  /// metrics registry. 0 disables the sampler thread.
  int sampler_period_ms = 100;

  /// Reject non-finite inputs (NaN/Inf anywhere in A or b) at submission
  /// with a clear Error instead of letting them poison a factorization that
  /// could then be cached and served to other clients. One O(n^2) Frobenius
  /// pass per submitted matrix.
  bool screen_inputs = true;
  /// Screen single-solve results: a non-finite solution evicts its
  /// factorization from the cache (it must never serve another hit) and the
  /// solve retries from scratch; with the retry budget exhausted the result
  /// is returned as-is (a legitimately singular system can produce Inf).
  bool screen_outputs = true;

  /// Default retry budget for transient failures (injected faults,
  /// allocation pressure); deterministic failures (singular systems, shape
  /// errors) never retry. Retries re-enqueue with exponential backoff:
  /// retry_backoff_us, 2x, 4x, ... Per-job override: SubmitOptions.
  int max_retries = 2;
  std::uint64_t retry_backoff_us = 500;

  /// Watchdog scan period. The watchdog runs deferred retries, detects jobs
  /// exceeding their hard wall (watchdog_wall_multiple x deadline, or
  /// hard_wall_us for deadline-less jobs), force-fails them so clients never
  /// hang, marks the service Degraded on trips, and recovers health after
  /// degraded_recovery_periods quiet scans. 0 disables the watchdog AND
  /// retry-with-backoff (there is no thread to run either).
  int watchdog_period_ms = 5;
  int watchdog_wall_multiple = 8;
  /// Hard wall for jobs without a deadline, relative to submission; 0 =
  /// unbounded (such jobs are never watchdog-failed).
  std::uint64_t hard_wall_us = 0;
  int degraded_recovery_periods = 50;

  /// Nonzero: adversarial schedule exploration on the service engine
  /// (EngineOptions::chaos_seed) — race tests shake cancel/retry/shed
  /// interleavings with it. Results are unchanged by construction.
  std::uint64_t chaos_seed = 0;
};

/// Telemetry snapshot (see SolveService::stats); counters are monotonic
/// since service construction.
struct ServiceStats {
  std::uint64_t submitted = 0, completed = 0, failed = 0, cancelled = 0,
                rejected = 0;
  /// Resilience counters: SLO sheds, transient-failure retries, watchdog
  /// hard-wall trips, memory-pressure degradations, injected faults
  /// observed by the retry machinery.
  std::uint64_t shed = 0, retries = 0, watchdog_trips = 0,
                memory_pressure = 0, faults_injected = 0;
  Health health = Health::Healthy;
  /// Live inflight admission limit (shrinks under memory pressure, recovers
  /// one slot per quiet watchdog scan, capped at the configured maximum).
  int inflight_limit = 0;
  std::uint64_t batches = 0, batch_members = 0, fused_rhs_columns = 0;
  /// submit_many telemetry: jobs executed through chunked batch tasks,
  /// chunk tasks executed, cache hits skimmed off at submission (served
  /// without staging), and the mean jobs per executed chunk — the batch
  /// fill, the number that says whether staging actually amortizes.
  std::uint64_t batched_jobs = 0, batches_executed = 0, batch_hits_skimmed = 0;
  double batch_fill_mean = 0.0;
  std::uint64_t factors_coarse = 0, factors_inline_parallel = 0;
  std::size_t queue_depth = 0, queue_capacity = 0, inflight = 0,
              pending_factorizations = 0;
  CacheStats cache;
  /// Jobs submitted per working precision (one service runs one precision;
  /// the split matters when aggregating across services) and how many
  /// F32_IR solves had to fall back to an f64 refactorization.
  std::uint64_t jobs_f64 = 0, jobs_f32 = 0, jobs_f32_ir = 0;
  std::uint64_t refine_fallbacks = 0;
  std::uint64_t latency_p50_us = 0, latency_p99_us = 0, latency_max_us = 0;
  double latency_mean_us = 0.0;
  std::uint64_t exec_p50_us = 0, exec_p99_us = 0;
  double jobs_per_second = 0.0;  ///< completed / uptime
  double uptime_seconds = 0.0;
  std::uint64_t engine_tasks_executed = 0, engine_steals = 0;
  std::size_t workspace_bytes = 0;
  int workers = 0;
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig config);
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueue "solve A x = b" (b may have several columns). Throws Error on
  /// shape mismatch or (with screen_inputs) non-finite input; returns a
  /// handle that may report Rejected under the reject-when-full policy or
  /// Shed when a deadline/SLO decision dropped it.
  JobHandle submit_solve(Matrix<double> a, Matrix<double> b,
                         const SubmitOptions& opt = {});
  JobHandle submit_solve(Matrix<double> a, Matrix<double> b, Priority priority);

  /// Enqueue "factor A and warm the cache" (the reply's x is empty).
  JobHandle submit_factor(Matrix<double> a, const SubmitOptions& opt = {});
  JobHandle submit_factor(Matrix<double> a, Priority priority);

  /// Enqueue many independent solves against one matrix as a single fused
  /// job: one factorization (or cache hit) and one wide multi-RHS solve
  /// serve every member. Returns one handle per right-hand side.
  std::vector<JobHandle> submit_batch(Matrix<double> a,
                                      std::vector<Matrix<double>> bs,
                                      Priority priority = Priority::Batch);

  /// Enqueue many independent small systems (a_i x_i = b_i), one handle per
  /// pair. Cache hits are skimmed off at submission and served through the
  /// normal per-job path; misses accumulate in a size-bucketed staging area
  /// and execute as chunked batch tasks — one engine task factors and
  /// solves a whole shape-homogeneous chunk inside a single workspace
  /// frame, so queue/engine/workspace cost is paid per chunk, not per job.
  /// A bucket flushes when it reaches BatchOptions::flush_count jobs or
  /// when its oldest job has waited flush_deadline_us (bounded latency for
  /// sparse arrivals; cfg.solver.batch() carries both knobs).
  ///
  /// Per-member error isolation: a malformed pair (non-square a, rhs row
  /// mismatch) fails its own handle only — bulk submission never throws
  /// away the whole call for one bad member. Results are bitwise identical
  /// to submit_solve (and to one-shot Solver::solve) for every member.
  std::vector<JobHandle> submit_many(std::vector<Matrix<double>> as,
                                     std::vector<Matrix<double>> bs,
                                     Priority priority = Priority::Batch);

  /// Zero-copy bulk submission: members reference their system matrices by
  /// shared_ptr, so a client solving many right-hand sides against a pool
  /// of repeated systems passes the same pointer for each repeat. Repeats
  /// within one call are deduplicated by pointer — hashed and cache-probed
  /// once per distinct matrix instead of once per member — and members that
  /// share a factorization are fused into one multi-column solve inside
  /// the chunk task (F64 without refinement sweeps; fused columns are
  /// bitwise identical to per-member solves). This is the structure the
  /// per-job API cannot express: submit_solve must hash, probe, and
  /// schedule every repeat from scratch.
  std::vector<JobHandle> submit_many(
      std::vector<std::shared_ptr<const Matrix<double>>> as,
      std::vector<Matrix<double>> bs, Priority priority = Priority::Batch);

  /// Block until every accepted job has reached a terminal state.
  void drain();

  /// Current health (atomic snapshot; also exported as luqr_serve_health).
  Health health() const;

  ServiceStats stats() const;
  rt::Engine& engine();
  const std::string& config_fingerprint() const { return config_fp_; }

 private:
  /// One factorization in flight: the first missing job computes it; equal-
  /// matrix jobs arriving meanwhile park a continuation here instead of
  /// factoring again (single-flight). Continuations run when the owner
  /// finishes — with the factorization, or with the error that killed it.
  struct Pending {
    std::uint64_t hash = 0;
    std::shared_ptr<Matrix<double>> a;
    std::vector<std::function<void(
        const std::shared_ptr<const core::Factorization>&, std::exception_ptr)>>
        waiters;
  };

  /// Queue element: one client request (or one fused batch of them).
  struct Job {
    enum class Kind { Solve, Factor, Batch };
    Kind kind = Kind::Solve;
    Priority priority = Priority::Normal;
    std::shared_ptr<Matrix<double>> a;
    Matrix<double> b;                                       // Solve
    std::shared_ptr<detail::JobState> state;                // Solve/Factor
    std::vector<Matrix<double>> batch_b;                    // Batch
    std::vector<std::shared_ptr<detail::JobState>> batch_states;  // Batch
  };

  /// One staged submit_many member: accepted and hashed. Cache misses wait
  /// in their size bucket until the chunk flushes; skimmed cache hits carry
  /// their factorization (`fac` non-null) and bypass the buckets entirely —
  /// grouped into immediately-flushed solve chunks with no staging latency.
  struct Staged {
    std::shared_ptr<const Matrix<double>> a;
    Matrix<double> b;
    std::shared_ptr<detail::JobState> state;
    std::shared_ptr<const core::Factorization> fac;  ///< set on a skim hit
    std::uint64_t hash = 0;
    Priority priority = Priority::Batch;
  };

  /// Staging bucket: same-order jobs awaiting count or deadline flush.
  struct StageBucket {
    std::vector<Staged> jobs;
    std::uint64_t oldest_us = 0;  ///< staging time of the oldest member
  };

  using FacPtr = std::shared_ptr<const core::Factorization>;
  using Waiters = std::vector<std::function<void(
      const std::shared_ptr<const core::Factorization>&, std::exception_ptr)>>;

  /// Phase timings a completing job carries into complete_ok (refine_us
  /// rides in the SolveReport; queue_us is derived from the job state).
  struct Phases {
    std::uint64_t factor_us = 0;
    std::uint64_t solve_us = 0;
  };

  /// A retry waiting out its backoff in the watchdog's queue. Carries the
  /// failure that triggered it so a retry that cannot be re-enqueued
  /// (service shutting down) still settles its job with a real error.
  struct RetryItem {
    std::uint64_t due_us = 0;
    Job job;
    std::exception_ptr error;
  };

  std::uint64_t now_us() const;
  JobHandle enqueue(Job job);
  void dispatcher_loop();
  void dispatch(Job job);
  bool watchdog_enabled() const { return cfg_.watchdog_period_ms > 0; }
  // Build a job state carrying the deadline / hard-wall / retry budget and
  // register it with the watchdog when it has a wall to enforce.
  std::shared_ptr<detail::JobState> new_job_state(const SubmitOptions& opt,
                                                  bool retryable);
  void register_job(const std::shared_ptr<detail::JobState>& state);
  // Throws Error when screening is on and m carries a NaN/Inf.
  void screen_input(const Matrix<double>& m) const;
  // Every member has a hard wall (the watchdog will recover it if it is
  // lost) — the precondition for honoring an injected job drop.
  bool job_guarded(const Job& job) const;
  // Transient-failure classification, with side effects: injected faults
  // count toward faults_injected, allocation pressure triggers the
  // memory-pressure response. Deterministic errors return false.
  bool classify_transient(const std::exception_ptr& err);
  // Consume one unit of the job's retry budget and park it in the watchdog's
  // backoff queue. False when the job cannot retry (no budget, cancelled,
  // expired, batch kind, or no watchdog to run it) — caller settles instead.
  bool maybe_retry(Job job, std::exception_ptr err);
  void requeue_retry(RetryItem item);
  void watchdog_loop();
  void scan_hard_walls(std::uint64_t now);
  void on_memory_pressure();
  void set_health(Health h);
  void set_degraded();
  void acquire_inflight_slot();
  void release_inflight_slot();
  // Matrices at least parallel_factor_tiles tiles tall factor fine-grained
  // on the shared engine — the one place that decides; the fine path must
  // only ever run on a dispatcher thread (it blocks on the engine).
  bool wants_fine_grained(const Matrix<double>& a) const;
  // Factorize *a and publish it to the cache (hash `h` precomputed). Never
  // throws; failure lands in `error`.
  FacPtr compute_factorization(const std::shared_ptr<Matrix<double>>& a,
                               bool fine, std::uint64_t h,
                               std::exception_ptr& error);
  // Atomically unpublish `p` (no new waiter can attach after this) and
  // take whatever waiters it collected.
  Waiters take_pending_waiters(const std::shared_ptr<Pending>& p);
  void flush_pending(const std::shared_ptr<Pending>& p, const FacPtr& fac,
                     std::exception_ptr error);
  bool job_fully_cancelled(const Job& job) const;
  void settle_job_cancelled(const Job& job);
  // Cancelled owner of a pending entry: factor only for parked waiters,
  // then settle. Shared by the dispatcher (fine) and owner-task (coarse)
  // paths.
  void settle_cancelled_owner(const Job& job, const std::shared_ptr<Pending>& p,
                              bool fine);
  // factor_us/t_begin_us carry span data for jobs whose factorization ran
  // on the dispatcher (the fine-grained path): the job's execution start is
  // backdated to t_begin_us so its exec span contains the factor phase.
  void dispatch_with_factorization(Job job, FacPtr fac, bool hit,
                                   std::uint64_t factor_us = 0,
                                   std::uint64_t t_begin_us = 0);
  void attach_to_pending(Pending& p, Job job);
  void fail_job(const Job& job, std::exception_ptr error);
  void submit_owner_task(Job job, std::shared_ptr<Pending> p);
  // Shared tail of every batch path: fuse the live members' RHS columns,
  // solve wide, split, release the inflight slot, settle every member.
  void fuse_solve_settle(const std::vector<std::shared_ptr<detail::JobState>>& states,
                         const std::vector<Matrix<double>>& bs,
                         const std::vector<std::size_t>& live, const FacPtr& fac,
                         bool cache_hit, std::uint64_t factor_us);
  void submit_solve_task(std::shared_ptr<detail::JobState> state,
                         Matrix<double> b, FacPtr fac, bool cache_hit,
                         Priority priority, std::uint64_t factor_us,
                         std::uint64_t t_begin_us = 0);
  void submit_batch_task(std::vector<std::shared_ptr<detail::JobState>> states,
                         std::vector<Matrix<double>> bs, FacPtr fac,
                         bool cache_hit, Priority priority,
                         std::uint64_t factor_us,
                         std::uint64_t t_begin_us = 0);
  // submit_many machinery: the flusher thread turns staged buckets into
  // chunk tasks (on count, deadline, or shutdown); each chunk task factors
  // and solves its members serially in one workspace frame with per-member
  // error isolation.
  void flusher_loop();
  void execute_staged(std::vector<Staged> group);
  void submit_chunk_task(std::vector<Staged> chunk);
  // Queued -> Running arbitration against cancel(). start_us != 0 backdates
  // the execution start (the fine-grained path begins executing on the
  // dispatcher, before its solve task runs).
  bool try_begin(const std::shared_ptr<detail::JobState>& state,
                 std::uint64_t start_us = 0);
  void complete_ok(const std::shared_ptr<detail::JobState>& state,
                   Matrix<double> x, bool cache_hit, const SolveReport& report,
                   const Phases& phases);
  void complete_ok(const std::shared_ptr<detail::JobState>& state,
                   Matrix<double> x, bool cache_hit) {
    complete_ok(state, std::move(x), cache_hit, SolveReport{}, Phases{});
  }
  void complete_error(const std::shared_ptr<detail::JobState>& state,
                      std::exception_ptr error);
  void complete_cancelled(const std::shared_ptr<detail::JobState>& state);
  void complete_rejected(const std::shared_ptr<detail::JobState>& state);
  void complete_shed(const std::shared_ptr<detail::JobState>& state);
  // Settle a job try_begin refused: Cancelled when cancel() won, Shed when
  // the deadline vetoed execution (status still Queued).
  void settle_skipped(const std::shared_ptr<detail::JobState>& state);
  void on_terminal();

  ServiceConfig cfg_;
  std::string config_fp_;
  /// FNV-1a of config_fp_, folded into every matrix content hash so the
  /// cache index and the pending-factorization map key by configuration
  /// (precision included) as well as content — two services sharing bytes
  /// but not precision can never cross-serve, even on a full hash collision
  /// (the verified probe also compares config_fp_ exactly).
  std::uint64_t config_fp_hash_ = 0;
  int workers_ = 1;
  int max_inflight_ = 2;
  std::shared_ptr<rt::Engine> engine_;
  std::unique_ptr<Solver> coarse_solver_;  // serial factor, runs inside a task
  std::unique_ptr<Solver> fine_solver_;    // parallel factor on the shared engine
  FactorizationCache cache_;
  JobQueue<Job> queue_;

  mutable std::mutex mu_;  // pending_, inflight_, inflight_limit_, active_
  std::condition_variable inflight_cv_;
  std::condition_variable drain_cv_;
  std::unordered_multimap<std::uint64_t, std::shared_ptr<Pending>> pending_;
  int inflight_ = 0;
  /// Live admission limit: starts at max_inflight_, halves (floor 1) under
  /// memory pressure, recovers one slot per quiet watchdog scan.
  int inflight_limit_ = 2;
  std::uint64_t active_ = 0;  // accepted jobs not yet terminal

  /// Watchdog machinery. watchdog_mu_ guards the stop flag and the backoff
  /// retry queue; jobs_mu_ guards the walled-job registry the hard-wall scan
  /// walks (registration must not contend with retry traffic). The watchdog
  /// stops *after* drain() in the destructor: pending retries either
  /// re-enqueue or settle with their stored error, so drain terminates.
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::vector<RetryItem> retry_queue_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
  std::mutex jobs_mu_;
  std::vector<std::weak_ptr<detail::JobState>> live_jobs_;
  std::atomic<int> health_{0};
  /// Trouble flag for health recovery: set by watchdog trips and memory
  /// pressure, cleared (and checked) once per watchdog scan.
  std::atomic<bool> trouble_{false};

  std::vector<std::thread> dispatchers_;
  std::chrono::steady_clock::time_point start_;

  // submit_many staging area. stage_mu_ orders bucket mutation against the
  // flusher and shutdown; full buckets move to flush_ready_ so the client
  // thread never executes chunks (and never blocks on inflight slots).
  std::mutex stage_mu_;
  std::condition_variable stage_cv_;
  std::map<int, StageBucket> staging_;           // keyed by matrix order
  std::vector<std::vector<Staged>> flush_ready_;  // count-full groups
  bool stage_closed_ = false;
  std::thread flusher_;

  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, failed_{0},
      cancelled_{0}, rejected_{0};
  std::atomic<std::uint64_t> shed_{0}, retries_{0}, watchdog_trips_{0},
      memory_pressure_{0}, faults_injected_{0};
  std::atomic<std::uint64_t> batches_{0}, batch_members_{0}, fused_cols_{0};
  std::atomic<std::uint64_t> batched_jobs_{0}, batches_executed_{0},
      batch_hits_skimmed_{0};
  std::atomic<std::uint64_t> factors_coarse_{0}, factors_inline_{0};
  PrecisionCounters precision_jobs_;
  std::atomic<std::uint64_t> refine_fallbacks_{0};
  LatencyHistogram latency_;  // submit -> terminal
  LatencyHistogram exec_;     // execution start -> done

  /// Registry handles (resolved once at construction; the registry owns the
  /// metrics and they are process-wide — services aggregate into the same
  /// series, while the per-instance counters above back stats()).
  struct ObsHandles {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* faults_injected = nullptr;
    obs::Counter* watchdog_trips = nullptr;
    obs::Counter* memory_pressure = nullptr;
    obs::Gauge* health = nullptr;
    obs::Histogram* latency_us = nullptr;
    obs::Histogram* exec_us = nullptr;
    obs::Histogram* queue_us = nullptr;
    obs::Histogram* factor_us = nullptr;
    obs::Histogram* solve_us = nullptr;
    obs::Histogram* refine_us = nullptr;
  };
  ObsHandles obs_;
  /// Publishes this service's engine gauges ({engine="serve"}) on a
  /// background thread; stopped before the engine retires.
  std::unique_ptr<obs::EngineSampler> sampler_;
};

}  // namespace luqr::serve
