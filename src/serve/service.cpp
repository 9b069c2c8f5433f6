#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <new>
#include <unordered_map>
#include <utility>

#include "core/batch.hpp"
#include "fault/fault.hpp"
#include "kernels/norms.hpp"
#include "kernels/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "runtime/engine.hpp"

namespace luqr::serve {

namespace detail {

// Shared between the client's JobHandle and whichever thread executes the
// job. All transitions happen under mu; terminal states notify cv.
struct JobState {
  std::mutex mu;
  std::condition_variable cv;
  JobStatus status = JobStatus::Queued;
  SolveReply reply;
  std::exception_ptr error;
  std::uint64_t job_id = 0;  ///< span id, assigned at submit; immutable after
  std::uint64_t t_submit_us = 0;
  std::uint64_t t_start_us = 0;
  /// Deadline / hard wall on the service clock (absolute; 0 = none). Both
  /// are set before the job is published and immutable after.
  std::uint64_t deadline_us = 0;
  std::uint64_t hard_wall_us = 0;
  /// Retry budget (under mu): attempts consumed vs the per-job limit.
  int attempts = 0;
  int max_retries = 0;
  /// Exactly-once settlement: the first settle() call wins; late settlers
  /// (a watchdog force-fail racing the task's own completion, or vice
  /// versa) observe the flag and back off without touching counters.
  bool settled = false;
};

}  // namespace detail

namespace {

using detail::JobState;

// Process-wide job span ids: every submitted job (any service) gets a
// distinct nonzero id, carried through its engine tasks as TaskAttrs::job
// so traces and metrics correlate across layers.
std::atomic<std::uint64_t> g_job_seq{0};

// Process-wide service sequence: the `service` label of each service's
// registry series, so concurrent services never share a series.
std::atomic<std::uint64_t> g_service_seq{0};

// Smallest chunk submit_many cuts a group into (the last chunk is ragged; a
// group below the floor runs as one chunk).
constexpr int kMinChunk = 8;

bool is_terminal(JobStatus s) {
  return s == JobStatus::Done || s == JobStatus::Failed ||
         s == JobStatus::Cancelled || s == JobStatus::Rejected ||
         s == JobStatus::Shed;
}

// The Frobenius norm is the one lange() mode whose single accumulator
// propagates both NaN and Inf (One/Inf/Max lose NaN through std::max), so
// one O(n^2) pass answers "is every element finite".
bool finite_matrix(const Matrix<double>& m) {
  if (m.rows() == 0 || m.cols() == 0) return true;
  return std::isfinite(kern::lange(kern::Norm::Fro, m.view()));
}

constexpr const char* kNonFinite =
    "serve: input contains non-finite values (NaN or Inf); set "
    "ServiceConfig::screen_inputs=false to disable input screening";

// A factor member's b is 0x0; every other member is solved, even an n x 0
// one (its reply is an n x 0 solution, as from one-shot Solver::solve).
bool solves(const Matrix<double>& b) { return b.rows() > 0 || b.cols() > 0; }

// Pure transient/deterministic split (no counters): injected faults and
// allocation pressure are worth retrying; everything else (singularity,
// validation, logic errors) would fail identically again.
bool transient_exception(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const fault::InjectedFault&) {
    return true;
  } catch (const std::bad_alloc&) {
    return true;
  } catch (...) {
    return false;
  }
}

// Every knob that shapes a factorization (and its replayed solves), flat
// text: part of the cache identity next to the matrix content hash.
std::string fingerprint(const SolverConfig& c) {
  char buf[384];
  const CriterionSpec& spec = c.criterion();
  std::snprintf(
      buf, sizeof(buf),
      "crit=%d:%.17g:%llu;nb=%d;grid=%dx%d;variant=%d;scope=%d;tree=%d/%d;"
      "exact=%d;growth=%d;refine=%d;tune=%d:%.17g;prec=%d;ir=%d:%.17g",
      static_cast<int>(spec.kind), spec.alpha,
      static_cast<unsigned long long>(spec.seed), c.tile_size(), c.grid_p(),
      c.grid_q(), static_cast<int>(c.variant()),
      static_cast<int>(c.pivot_scope()), static_cast<int>(c.trees().local),
      static_cast<int>(c.trees().dist), c.exact_inv_norm() ? 1 : 0,
      c.track_growth() ? 1 : 0, c.refinement_sweeps(),
      c.has_autotune_target() ? 1 : 0,
      c.has_autotune_target() ? c.autotune_target_lu_fraction() : 0.0,
      static_cast<int>(c.precision()), c.refine().max_iterations,
      c.refine().tolerance);
  return buf;
}

// FNV-1a of the fingerprint text — folded into every content hash so even
// the 64-bit pre-verification key separates configurations (in particular,
// same matrix bytes under different precisions never share a key).
std::uint64_t fingerprint_hash(const std::string& fp) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : fp) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

JobStatus JobHandle::status() const {
  LUQR_REQUIRE(state_ != nullptr, "empty JobHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

void JobHandle::wait() const {
  LUQR_REQUIRE(state_ != nullptr, "empty JobHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return is_terminal(state_->status); });
}

bool JobHandle::wait_for(std::uint64_t timeout_us) const {
  return wait_until(std::chrono::steady_clock::now() +
                    std::chrono::microseconds(timeout_us));
}

bool JobHandle::wait_until(std::chrono::steady_clock::time_point deadline) const {
  LUQR_REQUIRE(state_ != nullptr, "empty JobHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_until(lock, deadline,
                               [this] { return is_terminal(state_->status); });
}

SolveReply JobHandle::get() {
  LUQR_REQUIRE(state_ != nullptr, "empty JobHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return is_terminal(state_->status); });
  switch (state_->status) {
    case JobStatus::Done: return std::move(state_->reply);
    case JobStatus::Failed: std::rethrow_exception(state_->error);
    case JobStatus::Cancelled: throw Error("serve: job was cancelled");
    case JobStatus::Rejected:
      throw Error("serve: job rejected (queue full or service shutting down)");
    case JobStatus::Shed:
      throw Error("serve: job shed (deadline exceeded or service degraded)");
    default: throw Error("serve: job in non-terminal state");  // unreachable
  }
}

bool JobHandle::cancel() {
  if (state_ == nullptr) return false;
  bool won = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->status == JobStatus::Queued) {
      state_->status = JobStatus::Cancelled;
      won = true;
    }
  }
  if (won) state_->cv.notify_all();
  // Counters and drain accounting happen when the job's owner (dispatcher
  // or engine task) observes the cancellation.
  return won;
}

// ---------------------------------------------------------------------------
// SolveService — lifecycle
// ---------------------------------------------------------------------------

SolveService::SolveService(ServiceConfig config)
    : cfg_(std::move(config)),
      id_(g_service_seq.fetch_add(1, std::memory_order_relaxed)),
      cache_(cfg_.cache_bytes, cfg_.cache_hash,
             {{"service", std::to_string(id_)}}),
      queue_(cfg_.queue_capacity) {
  LUQR_REQUIRE(cfg_.solver.external_criterion() == nullptr,
               "serve: the service needs a CriterionSpec-configured solver "
               "(an external Criterion instance is stateful across jobs)");
  LUQR_REQUIRE(cfg_.solver.engine() == nullptr,
               "serve: the service owns its engine; do not set one on the "
               "solver config");
  cfg_.solver.validate();

  if (cfg_.threads > 0) {
    workers_ = cfg_.threads;
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    workers_ = hw > 0 ? static_cast<int>(hw) : 1;
  }
  rt::EngineOptions eopt;
  eopt.chaos_seed = cfg_.chaos_seed;
  engine_ = std::make_shared<rt::Engine>(workers_, eopt);
  max_inflight_ = cfg_.max_inflight > 0 ? cfg_.max_inflight : 2 * workers_;
  inflight_limit_ = max_inflight_;
  config_fp_ = fingerprint(cfg_.solver);
  config_fp_hash_ = fingerprint_hash(config_fp_);

  // Request-sized factorizations run serially inside an engine task...
  coarse_solver_ = std::make_unique<Solver>(
      SolverConfig(cfg_.solver).backend(Backend::Serial));
  // ...big ones as a fine-grained task graph on the same shared engine,
  // driven by the dispatcher (Serial and Parallel factors are bitwise
  // identical, so the split is invisible to results and to the cache).
  if (cfg_.parallel_factor_tiles > 0 && workers_ > 1) {
    fine_solver_ = std::make_unique<Solver>(
        SolverConfig(cfg_.solver).backend(Backend::Parallel).engine(engine_));
  }

  // Every series carries this service's label: stats() reads them back,
  // and the exporters see each service apart (sum across labels for the
  // process total).
  obs::Registry& reg = obs::Registry::global();
  const obs::Labels label{{"service", std::to_string(id_)}};
  const auto counter = [&](const char* name, const char* help) {
    return &reg.counter(name, label, help);
  };
  const auto histogram = [&](const char* name, const char* help) {
    return &reg.histogram(name, label, help);
  };
  obs_.submitted = counter("luqr_serve_jobs_submitted_total",
                           "Jobs accepted for execution");
  obs_.settled[static_cast<int>(JobStatus::Done)] =
      counter("luqr_serve_jobs_completed_total", "Jobs that reached Done");
  obs_.settled[static_cast<int>(JobStatus::Failed)] =
      counter("luqr_serve_jobs_failed_total", "Jobs that threw");
  obs_.settled[static_cast<int>(JobStatus::Cancelled)] = counter(
      "luqr_serve_jobs_cancelled_total", "Jobs cancelled before execution");
  obs_.settled[static_cast<int>(JobStatus::Rejected)] =
      counter("luqr_serve_jobs_rejected_total", "Jobs rejected at admission");
  obs_.settled[static_cast<int>(JobStatus::Shed)] =
      counter("luqr_serve_shed_total",
              "Jobs shed by SLO control (deadline expired while queued, or "
              "Batch admission while Degraded)");
  obs_.retries = counter("luqr_serve_retries_total",
                         "Transient-failure retries re-enqueued with backoff");
  obs_.faults_injected =
      counter("luqr_serve_faults_injected_total",
              "Injected faults observed by the serve retry machinery");
  obs_.watchdog_trips =
      counter("luqr_serve_watchdog_trips_total",
              "Jobs force-failed for exceeding their hard wall");
  obs_.memory_pressure = counter(
      "luqr_serve_memory_pressure_total",
      "Allocation-pressure events (cache evicted, inflight limit halved)");
  obs_.batches = counter("luqr_serve_batches_total", "submit_batch calls");
  obs_.batch_members =
      counter("luqr_serve_batch_members_total", "submit_batch members");
  obs_.fused_rhs_columns =
      counter("luqr_serve_fused_rhs_columns_total",
              "Right-hand-side columns solved inside a fused wide solve");
  obs_.batched_jobs = counter("luqr_serve_batched_jobs_total",
                              "submit_many members executed in chunk tasks");
  obs_.batch_chunks = counter("luqr_serve_batch_chunks_total",
                              "Engine tasks that executed submit_many members");
  obs_.batch_hits_skimmed =
      counter("luqr_serve_batch_hits_skimmed_total",
              "submit_many members served by a cache hit found at submission");
  const char* factors_help = "Factorizations computed, by grain";
  obs_.factors_coarse = &reg.counter("luqr_serve_factors_total",
                                     {label[0], {"grain", "coarse"}},
                                     factors_help);
  obs_.factors_fine = &reg.counter("luqr_serve_factors_total",
                                   {label[0], {"grain", "fine"}}, factors_help);
  obs_.refine_fallbacks =
      counter("luqr_serve_refine_fallbacks_total",
              "F32_IR solves that fell back to an f64 refactorization");
  obs_.health = &reg.gauge("luqr_serve_health", label,
                           "Service health: 0 healthy, 1 degraded, 2 draining");
  obs_.health->set(0.0);
  obs_.latency_us = histogram("luqr_serve_job_latency_us",
                              "Job submit -> terminal, microseconds");
  obs_.exec_us = histogram("luqr_serve_job_exec_us",
                           "Job execution start -> done, microseconds");
  obs_.queue_us = histogram("luqr_serve_job_queue_us",
                            "Job submit -> execution start, microseconds");
  obs_.factor_us = histogram(
      "luqr_serve_job_factor_us",
      "Factorization wall time paid by completed jobs (0 on cache hits)");
  obs_.solve_us = histogram("luqr_serve_job_solve_us",
                            "Triangular-solve wall time per job");
  obs_.refine_us = histogram(
      "luqr_serve_job_refine_us",
      "F32_IR refinement wall time per job (0 outside F32_IR)");
  if (cfg_.sampler_period_ms > 0) {
    obs::EngineSampler::Options sopt;
    sopt.label = "serve";
    sopt.period_ms = cfg_.sampler_period_ms;
    sampler_ = std::make_unique<obs::EngineSampler>(*engine_, sopt);
  }

  start_ = std::chrono::steady_clock::now();
  const int n_dispatchers = std::max(1, cfg_.dispatchers);
  dispatchers_.reserve(static_cast<std::size_t>(n_dispatchers));
  for (int i = 0; i < n_dispatchers; ++i)
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  if (watchdog_enabled()) watchdog_ = std::thread([this] { watchdog_loop(); });
}

SolveService::~SolveService() {
  // Stop accepting, dispatch what was accepted, wait for every job to reach
  // a terminal state, then retire the engine (its destructor drains and
  // joins the workers). The solvers hold engine references too, so they go
  // first — the pool must be fully joined before any other member (mutexes,
  // condition variables) is destroyed under it.
  set_health(Health::Draining);
  queue_.close();
  for (std::thread& t : dispatchers_) t.join();
  drain();
  // The watchdog outlives drain() on purpose: jobs parked in its backoff
  // queue are still active, and only the watchdog can settle them (the
  // closed queue rejects their re-enqueue, so they fail with their stored
  // error, active_ reaches zero, and drain returns).
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  sampler_.reset();  // samples the engine; must stop before it retires
  fine_solver_.reset();
  coarse_solver_.reset();
  engine_.reset();
}

rt::Engine& SolveService::engine() { return *engine_; }

std::uint64_t SolveService::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return active_ == 0; });
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

void SolveService::admit(std::size_t members) {
  obs_.submitted->add(members);
  std::lock_guard<std::mutex> lock(mu_);
  active_ += members;
}

void SolveService::enqueue(Jobs jobs) {
  // Keep the states: a push that fails has consumed the entry. A chunk's
  // jobs all carry their submit_many call's priority.
  std::vector<std::shared_ptr<JobState>> states;
  for (const Job& job : jobs)
    for (const Member& m : job.members) states.push_back(m.state);
  const Priority priority = jobs.front().priority;
  admit(states.size());
  // Degraded admission control: Batch work is the first thing to go — the
  // service keeps its remaining capacity for Interactive/Normal traffic
  // until a quiet recovery window restores health.
  if (priority == Priority::Batch && health() == Health::Degraded) {
    for (const auto& st : states) settle(st, JobStatus::Shed);
    return;
  }
  const int lane = static_cast<int>(priority);
  const bool accepted = cfg_.reject_when_full
                            ? queue_.try_push(std::move(jobs), lane)
                            : queue_.push(std::move(jobs), lane);
  if (!accepted)
    for (const auto& st : states) settle(st, JobStatus::Rejected);
}

std::shared_ptr<JobState> SolveService::new_job_state(const SubmitOptions& opt,
                                                      bool retryable) {
  auto s = std::make_shared<JobState>();
  s->job_id = g_job_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  s->t_submit_us = now_us();
  s->max_retries =
      retryable ? (opt.max_retries >= 0 ? opt.max_retries : cfg_.max_retries)
                : 0;
  if (opt.deadline_us != 0) s->deadline_us = s->t_submit_us + opt.deadline_us;
  if (watchdog_enabled()) {
    // Hard wall: the point past which the watchdog declares the job lost and
    // force-fails it. A multiple of the client's deadline when one exists,
    // the configured absolute wall otherwise, unbounded when neither is set.
    const std::uint64_t mult =
        static_cast<std::uint64_t>(std::max(1, cfg_.watchdog_wall_multiple));
    if (s->deadline_us != 0)
      s->hard_wall_us = s->t_submit_us + opt.deadline_us * mult;
    else if (cfg_.hard_wall_us != 0)
      s->hard_wall_us = s->t_submit_us + cfg_.hard_wall_us;
  }
  if (s->hard_wall_us != 0) {  // the watchdog's hard-wall scan walks these
    std::lock_guard<std::mutex> lock(jobs_mu_);
    live_jobs_.push_back(s);
  }
  return s;
}

void SolveService::screen_input(const Matrix<double>& m) const {
  if (cfg_.screen_inputs && !finite_matrix(m)) throw Error(kNonFinite);
}

std::vector<JobHandle> SolveService::submit_job(
    Matrix<double> a, std::vector<Matrix<double>> bs, const SubmitOptions& opt,
    bool retryable) {
  LUQR_REQUIRE(a.rows() == a.cols(), "serve: system matrix must be square");
  for (const auto& b : bs)
    LUQR_REQUIRE(b.rows() == a.rows(), "serve: rhs row count mismatch");
  screen_input(a);
  for (const auto& b : bs) screen_input(b);
  if (bs.empty()) bs.emplace_back();  // a factor job: one member, never solved
  Job job;
  job.priority = opt.priority;
  job.hash = cache_.hash_of(a) ^ config_fp_hash_;
  job.a = std::make_shared<Matrix<double>>(std::move(a));
  std::vector<JobHandle> handles;
  handles.reserve(bs.size());
  job.members.reserve(bs.size());
  for (auto& b : bs) {
    job.members.push_back({std::move(b), new_job_state(opt, retryable)});
    handles.push_back(JobHandle(job.members.back().state));
  }
  Jobs entry;
  entry.push_back(std::move(job));
  enqueue(std::move(entry));
  return handles;
}

JobHandle SolveService::submit_solve(Matrix<double> a, Matrix<double> b,
                                     const SubmitOptions& opt) {
  std::vector<Matrix<double>> bs;
  bs.push_back(std::move(b));
  return submit_job(std::move(a), std::move(bs), opt, /*retryable=*/true)[0];
}

JobHandle SolveService::submit_solve(Matrix<double> a, Matrix<double> b,
                                     Priority priority) {
  return submit_solve(std::move(a), std::move(b), SubmitOptions{priority});
}

JobHandle SolveService::submit_factor(Matrix<double> a,
                                      const SubmitOptions& opt) {
  return submit_job(std::move(a), {}, opt, /*retryable=*/true)[0];
}

JobHandle SolveService::submit_factor(Matrix<double> a, Priority priority) {
  return submit_factor(std::move(a), SubmitOptions{priority});
}

std::vector<JobHandle> SolveService::submit_batch(Matrix<double> a,
                                                  std::vector<Matrix<double>> bs,
                                                  Priority priority) {
  LUQR_REQUIRE(!bs.empty(), "serve: empty batch");
  obs_.batches->add(1);
  obs_.batch_members->add(bs.size());
  return submit_job(std::move(a), std::move(bs), SubmitOptions{priority},
                    /*retryable=*/false);
}

std::vector<JobHandle> SolveService::submit_many(std::vector<Matrix<double>> as,
                                                 std::vector<Matrix<double>> bs,
                                                 Priority priority) {
  std::vector<std::shared_ptr<const Matrix<double>>> shared;
  shared.reserve(as.size());
  for (auto& a : as)
    shared.push_back(std::make_shared<const Matrix<double>>(std::move(a)));
  return submit_many(std::move(shared), std::move(bs), priority);
}

std::vector<JobHandle> SolveService::submit_many(
    std::vector<std::shared_ptr<const Matrix<double>>> as,
    std::vector<Matrix<double>> bs, Priority priority) {
  LUQR_REQUIRE(as.size() == bs.size(),
               "serve: submit_many needs one rhs per matrix");
  LUQR_REQUIRE(!as.empty(), "serve: empty submit_many");
  std::vector<JobHandle> handles;
  handles.reserve(as.size());

  // One job per distinct matrix pointer, in first-seen order, members in
  // submission order. This is what the shared_ptr form buys: a client's
  // repeated systems hash and cache-probe once per distinct matrix, not per
  // member, and a chunk solves a job's members as one run.
  std::vector<Job> jobs;
  std::unordered_map<const Matrix<double>*, std::size_t> seen;
  for (std::size_t i = 0; i < as.size(); ++i) {
    auto state = new_job_state(SubmitOptions{priority}, /*retryable=*/false);
    handles.push_back(JobHandle(state));

    // Malformed members fail alone: bulk submission never throws the whole
    // call away for one bad pair.
    const Matrix<double>* a = as[i].get();
    const char* bad = nullptr;
    if (a == nullptr)
      bad = "serve: null system matrix";
    else if (a->rows() != a->cols())
      bad = "serve: system matrix must be square";
    else if (bs[i].rows() != a->rows())
      bad = "serve: rhs row count mismatch";
    else if (cfg_.screen_inputs &&
             (!finite_matrix(*a) || !finite_matrix(bs[i])))
      bad = kNonFinite;
    if (bad != nullptr) {
      admit(1);
      settle(state, JobStatus::Failed, std::make_exception_ptr(Error(bad)));
      continue;
    }

    const auto slot = seen.emplace(a, jobs.size());
    if (slot.second) {
      Job job;
      job.priority = priority;
      job.a = std::move(as[i]);
      job.hash = cache_.hash_of(*a) ^ config_fp_hash_;
      job.skimmed = true;
      job.fac = cache_.find_hashed(*a, config_fp_, job.hash, /*count_miss=*/true);
      jobs.push_back(std::move(job));
    }
    Job& job = jobs[slot.first->second];
    if (job.fac != nullptr) obs_.batch_hits_skimmed->add(1);
    job.members.push_back({std::move(bs[i]), std::move(state)});
  }

  // Misses group by order, orders in first-seen order; a cache hit needs no
  // factorization, so the hits ride one solve-only group after them instead
  // of sharing chunks with misses.
  std::vector<Job> misses, hits;
  for (Job& job : jobs)
    (job.fac != nullptr ? hits : misses).push_back(std::move(job));
  std::vector<int> orders;
  for (const Job& job : misses) orders.push_back(job.a->rows());
  for (const std::vector<std::size_t>& bucket : core::bucket_by_order(orders)) {
    std::vector<Job> group;
    for (const std::size_t k : bucket) group.push_back(std::move(misses[k]));
    enqueue_chunks(std::move(group));
  }
  if (!hits.empty()) enqueue_chunks(std::move(hits));
  return handles;
}

void SolveService::enqueue_chunks(std::vector<Job> group) {
  // The library's auto chunk policy optimizes engine overlap (~4 chunks
  // per lane), which shatters a small group into single-member chunks —
  // per-job overhead with extra steps. The service floors the chunk size
  // instead: overlap comes from concurrent chunks in flight, amortization
  // from fill. Chunks are planned over members; a job that straddles a
  // boundary splits there.
  std::size_t members = 0;
  for (const Job& job : group) members += job.members.size();
  const int chunk_size =
      std::max(core::auto_chunk_size(members, workers_), kMinChunk);
  std::size_t next = 0;
  for (const core::Chunk& c :
       core::plan_chunks(members, chunk_size, workers_)) {
    Jobs chunk;
    for (std::size_t want = c.size(); want > 0;) {
      // The chunk takes up to `want` members off the front of the next job.
      Job& from = group[next];
      std::vector<Member>& ms = from.members;
      const auto end =
          ms.begin() + static_cast<std::ptrdiff_t>(std::min(want, ms.size()));
      chunk.push_back(
          {from.priority, from.a, from.hash, from.skimmed, from.fac, {}});
      chunk.back().members.assign(std::make_move_iterator(ms.begin()),
                                  std::make_move_iterator(end));
      ms.erase(ms.begin(), end);
      want -= chunk.back().members.size();
      if (ms.empty()) ++next;
    }
    enqueue(std::move(chunk));
  }
}

// ---------------------------------------------------------------------------
// State transitions
// ---------------------------------------------------------------------------

void SolveService::begin_members(Run& run) {
  // Queued -> Running, arbitrated against cancel() per member.
  const std::uint64_t t = run.start_us != 0 ? run.start_us : now_us();
  run.live.assign(run.job.members.size(), false);
  run.solved.resize(run.job.members.size());
  for (std::size_t i = 0; i < run.job.members.size(); ++i) {
    JobState& st = *run.job.members[i].state;
    std::lock_guard<std::mutex> lock(st.mu);
    // A cancelled member stays Cancelled; SLO veto: a member whose deadline
    // passed while it waited must not start — it stays Queued, and
    // settle_members sheds it.
    if (st.status != JobStatus::Queued ||
        (st.deadline_us != 0 && t > st.deadline_us))
      continue;
    st.status = JobStatus::Running;
    st.t_start_us = t;
    run.live[i] = true;
  }
}

// Counters and histograms update *before* the state turns terminal (inside
// the same critical section), and active_ drops before the waiter wakes: a
// client returning from get() (or drain()) sees final telemetry.
void SolveService::settle(const std::shared_ptr<JobState>& state, JobStatus to,
                          std::exception_ptr error, SolveReply reply) {
  const std::uint64_t t = now_us();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->settled) return;
    state->settled = true;
    // cancel() already won the client-visible state (a member that
    // begin_members refused, or a watchdog force-fail of a job cancelled
    // while queued): account it as cancelled.
    if (state->status == JobStatus::Cancelled) to = JobStatus::Cancelled;
    if (to != JobStatus::Rejected)
      obs_.latency_us->record(t - state->t_submit_us);
    if (to == JobStatus::Done) {
      reply.job_id = state->job_id;
      reply.queue_us = state->t_start_us - state->t_submit_us;
      reply.exec_us = t - state->t_start_us;
      reply.refine_us = reply.report.refine_us;
      obs_.exec_us->record(reply.exec_us);
      obs_.queue_us->record(reply.queue_us);
      obs_.factor_us->record(reply.factor_us);
      obs_.solve_us->record(reply.solve_us);
      obs_.refine_us->record(reply.refine_us);
      state->reply = std::move(reply);
    } else if (to == JobStatus::Failed) {
      state->error = std::move(error);
    }
    obs_.settled[static_cast<int>(to)]->add(1);
    state->status = to;
  }
  {
    // Notify under the lock: a drain()er may destroy this service right
    // after waking, so the broadcast must complete before its wait returns.
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    drain_cv_.notify_all();
  }
  state->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void SolveService::acquire_inflight_slot() {
  std::unique_lock<std::mutex> lock(mu_);
  // The live limit, not the configured one: memory pressure shrinks it and
  // quiet watchdog scans grow it back.
  inflight_cv_.wait(lock, [this] { return inflight_ < inflight_limit_; });
  ++inflight_;
}

void SolveService::release_inflight_slot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  inflight_cv_.notify_one();
}

void SolveService::dispatcher_loop() {
  Jobs jobs;
  while (queue_.pop(jobs)) {
    dispatch(std::move(jobs));
    jobs = Jobs{};  // drop matrix buffers before blocking on the next pop
  }
}

SolveService::Waiters SolveService::take_pending_waiters(
    const std::shared_ptr<Pending>& p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto range = pending_.equal_range(p->hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == p) {
      pending_.erase(it);
      break;
    }
  }
  Waiters waiters = std::move(p->waiters);
  p->waiters.clear();
  return waiters;
}

bool SolveService::wants_fine_grained(const Matrix<double>& a) const {
  const int nb = cfg_.solver.tile_size();
  return fine_solver_ != nullptr &&
         (a.rows() + nb - 1) / nb >= cfg_.parallel_factor_tiles;
}

// Settlement discipline for every execution path: finish the computation,
// release the inflight slot, and only then drive job states terminal. A
// client observing a terminal state (or drain() observing active_ == 0) is
// thus guaranteed the slot is already back and the counters are final.

void SolveService::solve_members(Run& run) {
  std::vector<std::size_t> index;
  std::vector<const Matrix<double>*> bs;
  for (std::size_t i = 0; i < run.job.members.size(); ++i) {
    if (!run.live[i] || !solves(run.job.members[i].b)) continue;
    index.push_back(i);
    bs.push_back(&run.job.members[i].b);
  }
  if (bs.empty()) return;
  std::vector<Solved> solved(bs.size());
  try {
    // Fault site: transient serve-layer failure during the solve; the
    // catch keeps it out of the engine (and feeds the retry machinery).
    fault::maybe_throw(fault::site::kServeTask);
    solved = solve_run(*run.fac, bs);
  } catch (...) {
    for (Solved& r : solved) r.error = std::current_exception();
  }
  // Poisoned-result containment: a non-finite solution (injected NaN, or a
  // factorization corrupted under pressure) must never let its
  // factorization serve another cache hit. Evict; the settle half retries
  // from scratch, and a legitimately non-finite result (singular system)
  // returns as-is once the budget is spent.
  bool evict = false;
  for (std::size_t k = 0; k < solved.size(); ++k) {
    solved[k].poisoned =
        solved[k].error == nullptr && !finite_matrix(solved[k].x);
    evict = evict || solved[k].poisoned;
    run.solved[index[k]] = std::move(solved[k]);
  }
  if (evict) cache_.erase_hashed(run.fac->matrix(), config_fp_, run.job.hash);
}

void SolveService::settle_members(Run& run) {
  for (std::size_t i = 0; i < run.job.members.size(); ++i) {
    Member& m = run.job.members[i];
    Solved& r = run.solved[i];
    if (!run.live[i]) {
      settle(m.state, JobStatus::Shed);
    } else if (r.error != nullptr) {
      if (r.error != run.error) {
        run.error = r.error;
        run.transient = classify_transient(r.error);
      }
      if (!(run.transient && retry_member(run.job, m, r.error)))
        settle(m.state, JobStatus::Failed, r.error);
    } else if (!(r.poisoned && retry_member(run.job, m, nullptr))) {
      SolveReply reply;
      reply.x = std::move(r.x);
      reply.cache_hit = run.hit;
      reply.report = r.report;
      reply.factor_us = run.factor_us;
      reply.solve_us = r.solve_us;
      settle(m.state, JobStatus::Done, nullptr, std::move(reply));
    }
  }
}

std::vector<SolveService::Solved> SolveService::solve_run(
    const core::Factorization& fac,
    const std::vector<const Matrix<double>*>& bs) {
  const int sweeps = cfg_.solver.refinement_sweeps();
  std::vector<Solved> out(bs.size());
  // Fusing is bitwise-safe only at F64 without refinement sweeps: column j
  // of a multi-RHS solve equals the solve of column j alone (the per-column
  // sweeps are independent). Refined precisions iterate on the joint
  // residual, so fusing there would couple members.
  const bool fuse = bs.size() > 1 &&
                    cfg_.solver.precision() == Precision::F64 && sweeps == 0;
  if (!fuse) {
    for (std::size_t i = 0; i < bs.size(); ++i) {
      Solved& r = out[i];
      const std::uint64_t t_solve = now_us();
      try {
        r.x = fac.solve(*bs[i], &r.report, sweeps);
        if (r.report.fell_back) obs_.refine_fallbacks->add(1);
      } catch (...) {
        r.error = std::current_exception();
      }
      r.solve_us = now_us() - t_solve;
    }
    return out;
  }
  // Column-major storage: concatenating and splitting the members' columns
  // is one contiguous copy per member.
  const int n = bs.front()->rows();
  int width = 0;
  for (const Matrix<double>* b : bs) width += b->cols();
  const std::uint64_t t_solve = now_us();
  try {
    Matrix<double> bcat(n, width);
    double* dst = bcat.data();
    for (const Matrix<double>* b : bs)
      dst = std::copy_n(b->data(), static_cast<std::size_t>(n) * b->cols(),
                        dst);
    SolveReport report;
    const Matrix<double> xcat = fac.solve(bcat, &report, sweeps);
    obs_.fused_rhs_columns->add(static_cast<std::uint64_t>(width));
    const double* src = xcat.data();
    for (std::size_t i = 0; i < bs.size(); ++i) {
      Matrix<double> x(n, bs[i]->cols());
      const std::size_t count = static_cast<std::size_t>(n) * x.cols();
      std::copy_n(src, count, x.data());
      src += count;
      out[i].x = std::move(x);
      out[i].report = report;
    }
  } catch (...) {
    for (Solved& r : out) r.error = std::current_exception();
  }
  const std::uint64_t wide_us = now_us() - t_solve;
  for (Solved& r : out) r.solve_us = wide_us;
  return out;
}

void SolveService::dispatch(Jobs jobs) {
  // Members cancelled while queued settle here, and members whose deadline
  // passed while they queued are shed: neither consumes an inflight slot or
  // any engine time. A job left without members leaves its entry.
  const std::uint64_t now = now_us();
  const auto settled_at_dequeue = [this, now](const Member& m) {
    bool cancelled;
    {
      std::lock_guard<std::mutex> lock(m.state->mu);
      cancelled = m.state->status == JobStatus::Cancelled;
    }
    const bool expired =
        m.state->deadline_us != 0 && now > m.state->deadline_us;
    if (!cancelled && !expired) return false;
    settle(m.state, JobStatus::Shed);  // a won cancel accounts Cancelled
    return true;
  };
  for (Job& job : jobs)
    job.members.erase(std::remove_if(job.members.begin(), job.members.end(),
                                     settled_at_dequeue),
                      job.members.end());
  jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                            [](const Job& job) { return job.members.empty(); }),
             jobs.end());
  if (jobs.empty()) return;

  if (fault::plan() != nullptr) {
    fault::maybe_delay(fault::site::kServeDelay);
    // Honor an injected drop only when the watchdog guards every member
    // (hard wall set): the entry vanishes here — before any slot is held or
    // any pending factorization registered — and the hard-wall scan
    // recovers it, so clients never hang.
    bool guarded = watchdog_enabled();
    for (const Job& job : jobs)
      for (const Member& m : job.members)
        guarded = guarded && m.state->hard_wall_us != 0;
    if (guarded && fault::should_fire(fault::site::kServeDrop)) return;
  }

  acquire_inflight_slot();
  std::vector<Run> runs;
  runs.reserve(jobs.size());
  for (Job& job : jobs) {
    Run run;
    run.job = std::move(job);
    if (!resolve(run)) continue;  // parked: its continuation holds no slot
    if (run.owned != nullptr && wants_fine_grained(*run.job.a)) {
      // Fine-grained owners factor right here (the dispatcher is a
      // non-worker thread, so it may block on the engine). Re-check
      // cancellation first: the slot wait above can be long, and a job
      // cancelled during it must not burn an O(n^3) factorization — unless
      // waiters already parked on the pending entry and need it. The job
      // starts executing here; its span's exec phase is backdated to this
      // point so it contains the factorization.
      bool live = false;
      for (const Member& m : run.job.members) {
        std::lock_guard<std::mutex> lock(m.state->mu);
        live = live || m.state->status != JobStatus::Cancelled;
      }
      run.start_us = now_us();
      factor_owned(run, /*fine=*/true, live);
      run.owned = nullptr;
    }
    runs.push_back(std::move(run));
  }
  if (runs.empty()) {
    release_inflight_slot();  // every job parked on a peer's factorization
    return;
  }
  launch(std::move(runs), /*holds_slot=*/true);
}

bool SolveService::resolve(Run& run) {
  Job& job = run.job;
  if (job.fac != nullptr) {  // the submission skim already hit
    run.fac = std::move(job.fac);
    run.hit = true;
    return true;
  }
  // Cache hit, attach to an in-flight factorization of the same matrix, or
  // become the owner of a new one. Every O(n^2) byte compare (the verified
  // cache probe and the pending candidates' identity checks) runs *outside*
  // mu_ — the service lock guards only map transitions, so job completions,
  // slot releases and other dispatchers never stall behind a compare. The
  // retry loop absorbs the races that opens: a candidate that completes
  // mid-verify sends us back to the cache probe; an entry published after
  // the snapshot gets verified on the next pass. (A factorization that
  // completes entirely inside the probe-to-insert window can still slip
  // through and be factored twice — benign: insert dedupes and results are
  // identical.) A skimmed job's miss was counted at submission.
  const std::uint64_t h = job.hash;
  bool count_miss = !job.skimmed;  // later passes re-examine one lookup
  for (;;) {
    if (FacPtr fac = cache_.find_hashed(*job.a, config_fp_, h, count_miss)) {
      run.fac = std::move(fac);
      run.hit = true;
      return true;
    }
    count_miss = false;

    std::vector<std::shared_ptr<Pending>> candidates;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto range = pending_.equal_range(h);
      for (auto it = range.first; it != range.second; ++it)
        candidates.push_back(it->second);
    }
    std::shared_ptr<Pending> match;
    for (const auto& c : candidates) {
      if (matrices_equal(*c->a, *job.a)) {  // non-matches are hash collisions
        match = c;
        break;
      }
    }

    std::lock_guard<std::mutex> lock(mu_);
    auto range = pending_.equal_range(h);
    if (match) {
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == match) {
          attach_to_pending(*match, std::move(job));
          return false;  // attach only queued a closure; holding the lock is fine
        }
      }
      continue;  // the match completed while we verified: re-probe
    }
    bool unseen = false;
    for (auto it = range.first; it != range.second; ++it) {
      bool known = false;
      for (const auto& c : candidates) known = known || c == it->second;
      unseen = unseen || !known;
    }
    if (unseen) continue;  // new entry since the snapshot: verify it first
    run.owned = std::make_shared<Pending>();
    run.owned->hash = h;
    run.owned->a = job.a;
    pending_.emplace(h, run.owned);
    return true;
  }
}

void SolveService::factor_owned(Run& run, bool fine, bool live) {
  // An owner whose members were all refused claims its entry atomically —
  // erasing it and taking its waiters in one step, so no waiter can attach
  // to a half-dead entry — and factors only if someone was already waiting.
  Waiters waiters;
  if (!live) {
    waiters = take_pending_waiters(run.owned);
    if (waiters.empty()) return;
  }
  const std::uint64_t t_factor = now_us();
  try {
    // Fault site: a transient serve-layer failure during factorization.
    // Inside the try on purpose — the service's own catch absorbs it, so an
    // injected throw can never poison the shared engine.
    fault::maybe_throw(fault::site::kServeTask);
    Solver& solver = fine ? *fine_solver_ : *coarse_solver_;
    run.fac = std::make_shared<core::Factorization>(solver.factor(*run.job.a));
    cache_.insert_hashed(*run.job.a, config_fp_, run.job.hash, run.fac);
    (fine ? obs_.factors_fine : obs_.factors_coarse)->add(1);
  } catch (...) {
    run.error = std::current_exception();
  }
  run.factor_us = now_us() - t_factor;
  if (live) waiters = take_pending_waiters(run.owned);
  for (auto& w : waiters) w(run.fac, run.error);
  if (live && run.error) run.transient = classify_transient(run.error);
}

void SolveService::attach_to_pending(Pending& p, Job job) {
  // Single-flight: this job parks a continuation on the in-flight
  // factorization instead of computing its own. Runs on whichever thread
  // finishes the factorization; submitting engine tasks from there is safe.
  // The waiter keeps the job's matrix: when the owner's factorization dies
  // of a transient fault, each retryable member re-enqueues independently
  // (one of the retries becomes the next owner; the rest attach again).
  // The owner already classified the error, so only its kind is read here.
  p.waiters.push_back([this, job = std::move(job)](
                          const FacPtr& fac, std::exception_ptr err) mutable {
    std::vector<Run> runs(1);
    runs[0].job = std::move(job);
    runs[0].fac = fac;
    runs[0].transient = err != nullptr && transient_exception(err);
    runs[0].error = std::move(err);
    launch(std::move(runs), /*holds_slot=*/false);
  });
}

void SolveService::launch(std::vector<Run> runs, bool holds_slot) {
  int priority = 0;
  for (const Run& r : runs)
    priority = std::max(priority, static_cast<int>(r.job.priority));
  const std::uint64_t job_id = runs.front().job.members.front().state->job_id;
  engine_->submit(
      [this, runs = std::move(runs), holds_slot]() mutable {
        execute(runs, holds_slot);
      },
      {}, {"serve-job", priority, -1, job_id});
}

void SolveService::execute(std::vector<Run>& runs, bool holds_slot) {
  std::size_t live = 0, batched = 0;  // batched: live submit_many members
  for (Run& r : runs) {
    begin_members(r);
    const auto began =
        static_cast<std::size_t>(std::count(r.live.begin(), r.live.end(), true));
    live += began;
    if (r.job.skimmed) batched += began;
  }
  {
    // One workspace frame for the whole task, pre-grown to the shape's
    // pack-scratch high-water: every matrix after the first bump-allocates
    // the exact bytes the first one released (the pack data is per-matrix;
    // the allocation is per-task).
    kern::Workspace& ws = kern::tls_workspace();
    kern::Workspace::Frame frame(ws);
    if (live > 0) {
      const int n = runs.front().job.a->rows();
      const int nb = cfg_.solver.tile_size();
      try {
        ws.reserve(cfg_.solver.precision() == Precision::F64
                       ? core::chunk_scratch_bytes_f64(n, nb)
                       : core::chunk_scratch_bytes_f32(n, nb));
      } catch (const std::bad_alloc&) {
        // The reservation is only a pre-grow optimization; under
        // allocation pressure (or an injected alloc fault) fall through —
        // allocations below retry, and failures isolate to their job
        // instead of escaping into the engine.
      }
    }
    for (Run& r : runs) {
      if (r.owned != nullptr) factor_owned(r, /*fine=*/false, r.any_live());
      if (!r.any_live()) continue;
      if (r.error == nullptr) {
        solve_members(r);
        continue;
      }
      for (Solved& m : r.solved) m.error = r.error;
    }
  }
  if (batched > 0) {
    obs_.batched_jobs->add(batched);
    obs_.batch_chunks->add(1);
  }
  // The entry's one slot goes back before any of its members settles.
  if (holds_slot) release_inflight_slot();
  for (Run& r : runs) settle_members(r);
}

// ---------------------------------------------------------------------------
// Resilience: retries, watchdog, health
// ---------------------------------------------------------------------------

Health SolveService::health() const {
  return static_cast<Health>(health_.load(std::memory_order_relaxed));
}

void SolveService::set_health(Health h) {
  health_.store(static_cast<int>(h), std::memory_order_relaxed);
  obs_.health->set(static_cast<double>(static_cast<int>(h)));
}

void SolveService::set_degraded() {
  // Only Healthy degrades; Draining (shutdown) is never overwritten.
  int expected = static_cast<int>(Health::Healthy);
  if (health_.compare_exchange_strong(expected,
                                      static_cast<int>(Health::Degraded),
                                      std::memory_order_relaxed))
    obs_.health->set(static_cast<double>(static_cast<int>(Health::Degraded)));
  trouble_.store(true, std::memory_order_relaxed);
}

bool SolveService::classify_transient(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const fault::InjectedFault&) {
    obs_.faults_injected->add(1);
    return true;
  } catch (const std::bad_alloc&) {
    on_memory_pressure();
    return true;
  } catch (...) {
    return false;
  }
}

void SolveService::on_memory_pressure() {
  obs_.memory_pressure->add(1);
  // Graceful degradation instead of cascading failure: give back half the
  // cache (entries in use stay alive via shared_ptr) and halve concurrent
  // admissions so each inflight job sees more headroom. Quiet watchdog
  // scans restore the limit one slot at a time.
  cache_.evict_to(cache_.stats().bytes / 2);
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_limit_ = std::max(1, inflight_limit_ / 2);
  }
  inflight_cv_.notify_all();
  set_degraded();
}

bool SolveService::retry_member(const Job& job, Member& m,
                                std::exception_ptr err) {
  if (!watchdog_enabled()) return false;  // nobody to run the backoff queue
  if (err == nullptr)
    err = std::make_exception_ptr(
        Error("serve: non-finite solution (retries exhausted)"));
  const std::shared_ptr<JobState>& state = m.state;
  std::uint64_t due;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->settled) return false;
    if (state->status == JobStatus::Cancelled) return false;
    if (state->attempts >= state->max_retries) return false;
    const std::uint64_t now = now_us();
    if (state->deadline_us != 0 && now >= state->deadline_us) return false;
    ++state->attempts;
    // Back to Queued: the retry re-enters the normal dispatch pipeline, so
    // cancel(), deadlines, and the watchdog all keep working on it.
    state->status = JobStatus::Queued;
    due = now + (cfg_.retry_backoff_us
                 << (static_cast<unsigned>(state->attempts) - 1));
  }
  obs_.retries->add(1);
  Job retry;
  retry.priority = job.priority;
  retry.a = job.a;
  retry.hash = job.hash;
  retry.members.push_back({std::move(m.b), state});
  bool parked = false;
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    if (!watchdog_stop_) {
      retry_queue_.push_back(RetryItem{due, std::move(retry), std::move(err)});
      parked = true;
    }
  }
  if (parked) {
    watchdog_cv_.notify_all();
    return true;
  }
  // The watchdog already stopped (destructor tail): no backoff is possible,
  // and the caller settles with the original error.
  return false;
}

void SolveService::requeue_retry(RetryItem item) {
  // Keep what settlement needs before the push consumes the job. A retry
  // cancelled during its backoff settles at dispatch like any queued job.
  std::vector<std::shared_ptr<JobState>> states;
  states.reserve(item.job.members.size());
  for (const Member& m : item.job.members) states.push_back(m.state);
  const int lane = static_cast<int>(item.job.priority);
  Jobs entry;
  entry.push_back(std::move(item.job));
  if (queue_.try_push(std::move(entry), lane)) return;
  // Queue closed (shutdown) or full under overload: the retry loses its
  // attempt and the job settles with the failure that triggered it (a
  // cancelled one is accounted as cancelled).
  for (const auto& st : states) settle(st, JobStatus::Failed, item.error);
}

void SolveService::scan_hard_walls(std::uint64_t now) {
  std::vector<std::shared_ptr<JobState>> expired;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = live_jobs_.begin();
    while (it != live_jobs_.end()) {
      std::shared_ptr<JobState> s = it->lock();
      if (s == nullptr) {
        it = live_jobs_.erase(it);  // every handle dropped; job long settled
        continue;
      }
      bool done;
      {
        std::lock_guard<std::mutex> sl(s->mu);
        done = s->settled;
        if (!done && now > s->hard_wall_us) expired.push_back(s);
      }
      if (done)
        it = live_jobs_.erase(it);
      else
        ++it;
    }
  }
  for (const auto& s : expired) {
    obs_.watchdog_trips->add(1);
    set_degraded();
    // Force-settle: whatever happened to this job (dropped, stalled, lost),
    // its client must not hang. If the real completion races in first, the
    // settled flag makes this a no-op; if it arrives later, likewise.
    settle(s, JobStatus::Failed,
           std::make_exception_ptr(
               Error("serve: watchdog hard wall exceeded; job force-failed "
                     "(service degraded)")));
  }
}

void SolveService::watchdog_loop() {
  const auto period = std::chrono::milliseconds(
      std::max(1, cfg_.watchdog_period_ms));
  int quiet_scans = 0;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    if (!watchdog_stop_) watchdog_cv_.wait_for(lock, period);
    const bool stopping = watchdog_stop_;
    // Move due retries out (all of them when stopping: the closed queue
    // rejects them and requeue_retry settles each with its stored error).
    const std::uint64_t now = now_us();
    std::vector<RetryItem> due;
    auto it = retry_queue_.begin();
    while (it != retry_queue_.end()) {
      if (stopping || it->due_us <= now) {
        due.push_back(std::move(*it));
        it = retry_queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (auto& r : due) requeue_retry(std::move(r));
    if (stopping) return;

    scan_hard_walls(now);

    // Health recovery: a full quiet window (no trips, no pressure) since
    // the last trouble promotes Degraded back to Healthy; every quiet scan
    // also restores one admission slot clawed back under pressure.
    if (trouble_.exchange(false, std::memory_order_relaxed)) {
      quiet_scans = 0;
    } else {
      ++quiet_scans;
      {
        std::lock_guard<std::mutex> ml(mu_);
        if (inflight_limit_ < max_inflight_) {
          ++inflight_limit_;
          inflight_cv_.notify_all();
        }
      }
      if (quiet_scans >= std::max(1, cfg_.degraded_recovery_periods)) {
        int expected = static_cast<int>(Health::Degraded);
        if (health_.compare_exchange_strong(expected,
                                            static_cast<int>(Health::Healthy),
                                            std::memory_order_relaxed))
          obs_.health->set(0.0);
      }
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

ServiceStats SolveService::stats() const {
  const auto settled = [this](JobStatus st) {
    return obs_.settled[static_cast<int>(st)]->value();
  };
  ServiceStats s;
  s.submitted = obs_.submitted->value();
  s.completed = settled(JobStatus::Done);
  s.failed = settled(JobStatus::Failed);
  s.cancelled = settled(JobStatus::Cancelled);
  s.rejected = settled(JobStatus::Rejected);
  s.shed = settled(JobStatus::Shed);
  s.retries = obs_.retries->value();
  s.watchdog_trips = obs_.watchdog_trips->value();
  s.memory_pressure = obs_.memory_pressure->value();
  s.faults_injected = obs_.faults_injected->value();
  s.health = health();
  s.batches = obs_.batches->value();
  s.batch_members = obs_.batch_members->value();
  s.fused_rhs_columns = obs_.fused_rhs_columns->value();
  s.batched_jobs = obs_.batched_jobs->value();
  s.batches_executed = obs_.batch_chunks->value();
  s.batch_hits_skimmed = obs_.batch_hits_skimmed->value();
  s.batch_fill_mean = s.batches_executed > 0
                          ? static_cast<double>(s.batched_jobs) /
                                static_cast<double>(s.batches_executed)
                          : 0.0;
  s.factors_coarse = obs_.factors_coarse->value();
  s.factors_inline_parallel = obs_.factors_fine->value();
  s.queue_depth = queue_.depth();
  s.queue_capacity = queue_.capacity();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.inflight = static_cast<std::size_t>(inflight_);
    s.inflight_limit = inflight_limit_;
    s.pending_factorizations = pending_.size();
  }
  s.cache = cache_.stats();
  s.refine_fallbacks = obs_.refine_fallbacks->value();
  const obs::HistogramData latency = obs_.latency_us->snapshot();
  s.latency_p50_us = latency.quantile(0.50);
  s.latency_p99_us = latency.quantile(0.99);
  s.latency_max_us = latency.max;
  s.latency_mean_us = latency.mean();
  const obs::HistogramData exec = obs_.exec_us->snapshot();
  s.exec_p50_us = exec.quantile(0.50);
  s.exec_p99_us = exec.quantile(0.99);
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  s.jobs_per_second =
      s.uptime_seconds > 0.0 ? static_cast<double>(s.completed) / s.uptime_seconds
                             : 0.0;
  s.engine_tasks_executed = engine_->tasks_executed();
  s.engine_steals = engine_->steals();
  s.workspace_bytes = engine_->workspace_bytes();
  s.workers = workers_;
  return s;
}

}  // namespace luqr::serve
