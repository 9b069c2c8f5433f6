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
// repeated coefficient matrices into factor-free solves, and concurrent
// misses on the same matrix are deduplicated through a pending-
// factorization map (one factor run, everyone else attaches).
//
// Every job is one shared matrix plus a list of members, each a right-hand
// side (none for a factor job) with its own handle: submit_solve and
// submit_factor queue a list of one, submit_batch a list of N, and
// submit_many stages one job per distinct matrix pointer. Once the job's
// factorization is in hand (cache hit, attached in-flight factorization, or
// its own), one tail solves and settles every member, on every route.
// There is one fusion rule: at F64 without refinement sweeps, a job's
// members fuse into one wide solve (column j of a wide solve is bitwise the
// solve of column j alone); every other configuration solves member by
// member (refined precisions iterate on the joint residual, which fusing
// would couple). Every solved member is output-screened. Every cached
// solve, one column or many, replays the factorization at the exact RHS
// width (Factorization::solve), on QR-heavy and all-LU factorizations
// alike.
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

#include <algorithm>
#include <array>
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
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/job_queue.hpp"

namespace luqr::rt {
class Engine;
}

namespace luqr::obs {
class EngineSampler;
}

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
  /// Screen the results of every solve (submit_solve, submit_batch and
  /// submit_many members): a non-finite solution evicts its factorization
  /// from the cache (it must never serve another hit) and the solve retries
  /// from scratch; with the retry budget exhausted (batch and submit_many
  /// members have none) the result is returned as-is (a legitimately
  /// singular system can produce Inf).
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

/// Telemetry snapshot (see SolveService::stats). Every counter and latency
/// field is read from the service's own registry series, labelled
/// {service="k"} with k = SolveService::service_id(); counters are
/// monotonic since service construction.
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
  /// F32_IR solves that had to fall back to an f64 refactorization.
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

  /// Enqueue many independent solves against one matrix as a single job:
  /// one factorization (or cache hit) serves every member, and at F64
  /// without refinement sweeps one wide multi-RHS solve does too (refined
  /// precisions solve member by member). Members are not retried. Returns
  /// one handle per right-hand side.
  std::vector<JobHandle> submit_batch(Matrix<double> a,
                                      std::vector<Matrix<double>> bs,
                                      Priority priority = Priority::Batch);

  /// Enqueue many independent small systems (a_i x_i = b_i), one handle per
  /// pair. Cache hits are skimmed off at submission and ride solve-only
  /// chunk tasks flushed at once; misses accumulate in a size-bucketed
  /// staging area and execute as chunked batch tasks — one engine task
  /// factors and solves a whole shape-homogeneous chunk inside a single
  /// workspace frame, so queue/engine/workspace cost is paid per chunk, not
  /// per member. Members are output-screened like every solve but not
  /// retried. A bucket flushes when it reaches BatchOptions::flush_count
  /// members or when its oldest has waited flush_deadline_us (bounded
  /// latency for sparse arrivals; cfg.solver.batch() carries both knobs).
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
  /// within one call form one job — hashed and cache-probed once per
  /// distinct matrix instead of once per member — whose members fuse into
  /// one multi-column solve inside the chunk task (F64 without refinement
  /// sweeps; fused columns are bitwise identical to per-member solves). A
  /// job split at a chunk boundary fuses within each chunk. This is the
  /// structure the per-job API cannot express: submit_solve must hash,
  /// probe, and schedule every repeat from scratch.
  std::vector<JobHandle> submit_many(
      std::vector<std::shared_ptr<const Matrix<double>>> as,
      std::vector<Matrix<double>> bs, Priority priority = Priority::Batch);

  /// Block until every accepted job has reached a terminal state.
  void drain();

  /// Current health (atomic snapshot; also exported as luqr_serve_health).
  Health health() const;

  ServiceStats stats() const;
  /// Process-wide sequence number of this service: the value of the
  /// `service` label on every registry series it publishes.
  std::uint64_t service_id() const { return id_; }
  rt::Engine& engine();
  const std::string& config_fingerprint() const { return config_fp_; }

 private:
  using FacPtr = std::shared_ptr<const core::Factorization>;
  using Waiters =
      std::vector<std::function<void(const FacPtr&, std::exception_ptr)>>;

  /// One factorization in flight: the first missing job computes it; equal-
  /// matrix jobs arriving meanwhile park a continuation here instead of
  /// factoring again (single-flight). Continuations run when the owner
  /// finishes — with the factorization, or with the error that killed it.
  struct Pending {
    std::uint64_t hash = 0;
    std::shared_ptr<const Matrix<double>> a;
    Waiters waiters;
  };

  /// One client request inside a queued job: its right-hand side and its
  /// handle's state. A factor member has a 0x0 b and is never solved.
  struct Member {
    Matrix<double> b;
    std::shared_ptr<detail::JobState> state;
  };

  /// A shared matrix plus the members its one factorization serves
  /// (submit_solve/submit_factor: one member; submit_batch: N; submit_many:
  /// one job per distinct matrix pointer per call).
  struct Job {
    Priority priority = Priority::Normal;
    std::shared_ptr<const Matrix<double>> a;
    std::vector<Member> members;
  };

  /// A submit_many job with its submission skim probe. Cache misses wait in
  /// their size bucket until the chunk flushes; skim hits carry their
  /// factorization and bypass the buckets entirely — grouped into
  /// immediately-flushed solve chunks with no staging latency.
  struct Staged {
    Job job;
    std::uint64_t hash = 0;
    FacPtr fac;  ///< set on a skim hit
  };

  /// Staging bucket: same-order jobs awaiting count or deadline flush.
  struct StageBucket {
    std::vector<Staged> jobs;
    std::size_t members = 0;      ///< members across jobs (the flush count)
    std::uint64_t oldest_us = 0;  ///< staging time of the oldest member
  };

  /// One member's share of a solve_run (fused members share report,
  /// solve_us and error). `poisoned` marks a non-finite x under output
  /// screening.
  struct Solved {
    Matrix<double> x;
    SolveReport report;
    std::exception_ptr error;
    std::uint64_t solve_us = 0;
    bool poisoned = false;
  };

  /// A job between the tail's two halves: which members began, how its
  /// factorization was found, and one result per member (a factor member's
  /// stays empty). A failed factorization leaves its error on every member.
  struct Outcome {
    std::vector<bool> live;
    std::vector<Solved> solved;
    bool hit = false;
    std::uint64_t factor_us = 0;  ///< 0 when served by the cache or a peer
    /// The error last classified, and whether it was transient: fused
    /// members and a failed factorization share one error, counted once.
    std::exception_ptr classified;
    bool transient = false;

    bool any_live() const {
      return std::find(live.begin(), live.end(), true) != live.end();
    }
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
  void enqueue(Job job);
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
  // Consume one unit of the member's retry budget and park it, as a job of
  // one, in the watchdog's backoff queue. False when it cannot retry (no
  // budget, cancelled, expired, or no watchdog to run it) — the caller
  // settles it instead. The member's state stays usable either way.
  bool retry_member(const Job& job, Member& m, std::exception_ptr err);
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
  FacPtr compute_factorization(const std::shared_ptr<const Matrix<double>>& a,
                               bool fine, std::uint64_t h,
                               std::exception_ptr& error);
  // Atomically unpublish `p` (no new waiter can attach after this) and
  // take whatever waiters it collected.
  Waiters take_pending_waiters(const std::shared_ptr<Pending>& p);
  void flush_pending(const std::shared_ptr<Pending>& p, const FacPtr& fac,
                     std::exception_ptr error);
  bool job_fully_cancelled(const Job& job) const;
  // Owner of a pending entry whose members all were refused before its
  // work began: factor only for parked waiters, then settle. Shared by the
  // dispatcher (fine) and owner-task (coarse) paths.
  void settle_cancelled_owner(const Job& job, const std::shared_ptr<Pending>& p,
                              bool fine);
  void attach_to_pending(Pending& p, Job job);
  void submit_owner_task(Job job, std::shared_ptr<Pending> p);
  // The job tail, in two halves with the inflight slot released between
  // them; every route runs it. begin_members runs try_begin on every member
  // (start_us != 0 backdates the start: the fine-grained path begins
  // executing on the dispatcher). The solve half is solve_members — solve
  // the live members on `fac` as one solve_run, screen the outputs, evict a
  // poisoned factorization — or fail_members when the factorization itself
  // failed (`transient` classified by the caller). The settle half,
  // settle_members, drives every member terminal or into a retry. finish
  // releases a one-job route's slot and settles; a chunk task releases its
  // one slot and then settles each of its jobs. run_tail runs the tail
  // where a factorization landed: inline for a job without right-hand
  // sides, otherwise in one engine task.
  Outcome begin_members(const Job& job, std::uint64_t start_us = 0);
  void solve_members(const Job& job, const FacPtr& fac, Outcome& out);
  void fail_members(Outcome& out, const std::exception_ptr& error,
                    bool transient);
  void settle_members(Job& job, Outcome& out);
  void finish(Job& job, Outcome& out);
  void run_tail(Job job, FacPtr fac, bool hit, std::uint64_t factor_us = 0,
                std::uint64_t t_begin_us = 0);
  // The one routine that solves a job's live right-hand sides on `fac`
  // (solve_members calls it on every route). A lone member solves its own
  // b; several fuse into one wide solve at F64 without refinement sweeps
  // and solve one by one otherwise. Never throws.
  std::vector<Solved> solve_run(const core::Factorization& fac,
                                const std::vector<const Matrix<double>*>& bs);
  // submit_many machinery: the flusher thread turns staged buckets into
  // chunk tasks (on count, deadline, or shutdown), carving jobs at chunk
  // boundaries; each chunk task runs the tail for its jobs serially in one
  // workspace frame, one job's failure isolated from the next.
  void flusher_loop();
  // Move up to `count` members off the front of `s` into a new staged job
  // on the same matrix and probe.
  static Staged split_front(Staged& s, std::size_t count);
  void execute_staged(std::vector<Staged> group);
  void submit_chunk_task(std::vector<Staged> chunk);
  // Queued -> Running arbitration against cancel(). start_us != 0 backdates
  // the execution start.
  bool try_begin(const std::shared_ptr<detail::JobState>& state,
                 std::uint64_t start_us = 0);
  // The one routine that moves a job to a terminal state. Exactly-once:
  // a late settler (the watchdog racing the job's own completion) backs
  // off without touching counters. When cancel() already won, the job is
  // accounted Cancelled whatever `to` says, so callers settle a job
  // try_begin refused as Shed (its deadline vetoed it unless a cancel
  // won). Done takes the reply (x, cache_hit, report, factor_us,
  // solve_us), Failed the error.
  void settle(const std::shared_ptr<detail::JobState>& state, JobStatus to,
              std::exception_ptr error = nullptr, SolveReply reply = {});
  void on_terminal();

  ServiceConfig cfg_;
  std::uint64_t id_ = 0;  ///< value of the `service` label on its series
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

  /// Registry handles, resolved once at construction under the label
  /// {service="k"} (k = id_). They are this service's only telemetry
  /// storage: settle() and the other event sites bump them, stats() reads
  /// them. The registry never removes series, so a destroyed service's
  /// series keep their final values (about 31 KB of counter and histogram
  /// shards per constructed service, plus names and labels).
  struct ObsHandles {
    /// Terminal-status counters indexed by JobStatus (Queued and Running
    /// stay null): completed, failed, cancelled, rejected, shed.
    std::array<obs::Counter*, static_cast<int>(JobStatus::Shed) + 1> settled{};
    obs::Counter* submitted = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* faults_injected = nullptr;
    obs::Counter* watchdog_trips = nullptr;
    obs::Counter* memory_pressure = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batch_members = nullptr;
    obs::Counter* fused_rhs_columns = nullptr;
    obs::Counter* batched_jobs = nullptr;
    obs::Counter* batch_chunks = nullptr;
    obs::Counter* batch_hits_skimmed = nullptr;
    obs::Counter* factors_coarse = nullptr;
    obs::Counter* factors_fine = nullptr;
    obs::Counter* refine_fallbacks = nullptr;
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
