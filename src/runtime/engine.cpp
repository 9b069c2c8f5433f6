#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "obs/kprof.hpp"
#include "runtime/audit.hpp"
#include "runtime/engine.hpp"
#include "runtime/hb_checker.hpp"

namespace luqr::rt {

/// Everything audit mode records: the access-violation log and the full
/// submission history for happens-before certification. Behind a
/// unique_ptr so non-audit engines pay nothing.
struct AuditState {
  ViolationLog log;
  HbRecorder hb;
  std::atomic<std::uint64_t> audited{0};
};

namespace {

// Which engine (if any) the current thread is a worker of. Submissions from
// a worker go to its own deque (LIFO); everything else goes to lanes_[0].
thread_local Engine* t_engine = nullptr;
thread_local int t_worker = -1;
// Id of the task the current thread is executing (0 between tasks / on
// non-worker threads). Read at submit time to record creation edges for the
// happens-before certifier.
thread_local TaskId t_current_task = 0;

// splitmix64: turns the user's chaos seed into well-mixed per-worker states
// (any seed, including small integers, yields independent streams).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t chaos_next(std::uint64_t& s) {  // xorshift64
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

Engine::Engine(int num_threads, EngineOptions options)
    : tracing_(options.trace), chaos_(options.chaos_seed != 0),
      start_(std::chrono::steady_clock::now()) {
  LUQR_REQUIRE(num_threads > 0, "engine needs at least one worker");
  if (options.audit) audit_ = std::make_unique<AuditState>();
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.push_back(std::make_unique<Worker>());
    if (chaos_)
      workers_.back()->chaos_state =
          mix64(options.chaos_seed + static_cast<std::uint64_t>(t) + 1);
  }
  // Threads start only after every Worker exists: the steal scan walks all
  // of workers_.
  for (int t = 0; t < num_threads; ++t)
    workers_[static_cast<std::size_t>(t)]->thread =
        std::thread([this, t] { worker_loop(t); });
}

Engine::~Engine() {
  // Drain without rethrowing (a destructor must not throw); an unobserved
  // task error is dropped here.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return outstanding_ == 0; });
    shutdown_ = true;
  }
  ready_cv_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

std::uint64_t Engine::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void Engine::push_ready(Task* task, std::size_t* pushed) {
  if (task->priority == 0 && t_engine == this && t_worker >= 0) {
    Worker& self = *workers_[static_cast<std::size_t>(t_worker)];
    std::lock_guard<std::mutex> lk(self.mu);
    self.ready.push_back(task);  // LIFO for the owner
  } else {
    SharedQueue& lane = lanes_[task->priority];
    std::lock_guard<std::mutex> lk(lane.mu);
    lane.ready.push_back(task);
    if (task->priority > 0) high_count_.fetch_add(1, std::memory_order_relaxed);
  }
  ready_count_.fetch_add(1, std::memory_order_relaxed);
  ++*pushed;
}

TaskId Engine::submit(std::function<void()> fn, const std::vector<Dep>& deps,
                      TaskAttrs attrs) {
  std::size_t pushed = 0;
  TaskId id = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    id = next_id_++;
    Task& task = tasks_[id];
    task.id = id;
    task.fn = std::move(fn);
    task.name = std::move(attrs.name);
    task.priority = std::min(std::max(attrs.priority, 0), kPriorityLanes - 1);
    task.tag = attrs.tag;
    task.job = attrs.job;
    task.keys.reserve(deps.size());
    ++outstanding_;

    if (audit_) {
      task.declared = deps;
      audit_->hb.on_submit(id, task.name, task.tag, t_current_task, deps);
    }

    // Infer predecessors from the access history of each datum. Retired
    // (completed) predecessors are simply absent from tasks_. A duplicate
    // predecessor only inflates the counter symmetrically (the successor
    // edge is added once per inference), so we de-duplicate locally.
    std::vector<TaskId> preds;
    auto add_pred = [&](TaskId p) {
      if (p == 0 || p == id) return;
      if (tasks_.find(p) == tasks_.end()) return;  // completed and retired
      if (std::find(preds.begin(), preds.end(), p) != preds.end()) return;
      preds.push_back(p);
    };

    // DAG depth: 1 + the deepest predecessor. Writer depths are read from
    // the datum history (they survive the writer's retirement); reader
    // depths from the live task table (readers in the history are always
    // live — retirement prunes them).
    int pred_depth = 0;
    for (const Dep& d : deps) {
      task.keys.push_back(d.key);
      DataState& st = data_[d.key];
      if (d.mode == Access::Read) {
        if (st.has_writer) {
          add_pred(st.last_writer);
          pred_depth = std::max(pred_depth, st.writer_depth);
        }
        st.readers.push_back(id);
      } else {
        // Write / ReadWrite: after the last writer and every reader since.
        if (st.has_writer) {
          add_pred(st.last_writer);
          pred_depth = std::max(pred_depth, st.writer_depth);
        }
        for (TaskId r : st.readers)
          if (r != id) {
            add_pred(r);
            pred_depth = std::max(pred_depth, tasks_.at(r).depth);
          }
        st.readers.clear();
        st.last_writer = id;
        st.has_writer = true;
      }
    }
    task.depth = pred_depth + 1;
    for (const Dep& d : deps) {
      if (d.mode == Access::Read) continue;
      data_[d.key].writer_depth = task.depth;
    }
    critical_path_ = std::max(critical_path_, static_cast<std::uint64_t>(task.depth));

    task.unresolved = static_cast<int>(preds.size());
    for (TaskId p : preds) tasks_[p].successors.push_back(id);

    if (task.unresolved == 0) push_ready(&task, &pushed);
  }
  if (pushed > 0) ready_cv_.notify_one();
  return id;
}

Engine::Task* Engine::try_pop(int self) {
  if (ready_count_.load(std::memory_order_relaxed) <= 0) return nullptr;
  if (chaos_) return try_pop_chaos(self);
  auto take_front = [this](SharedQueue& q) -> Task* {
    std::lock_guard<std::mutex> lk(q.mu);
    if (q.ready.empty()) return nullptr;
    Task* t = q.ready.front();
    q.ready.pop_front();
    ready_count_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  };
  // 1. Priority lanes, highest first (FIFO within a lane).
  if (high_count_.load(std::memory_order_relaxed) > 0) {
    for (int p = kPriorityLanes - 1; p >= 1; --p) {
      if (Task* t = take_front(lanes_[p])) {
        high_count_.fetch_sub(1, std::memory_order_relaxed);
        return t;
      }
    }
  }
  // 2. Own deque, LIFO (depth-first: freshest continuation work, warm tiles).
  {
    Worker& me = *workers_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lk(me.mu);
    if (!me.ready.empty()) {
      Task* t = me.ready.back();
      me.ready.pop_back();
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      return t;
    }
  }
  // 3. Lane 0: external submissions, FIFO.
  if (Task* t = take_front(lanes_[0])) return t;
  // 4. Steal, FIFO from the victim's front (the oldest — and for LIFO
  //    owners, least cache-warm — task).
  const int n = static_cast<int>(workers_.size());
  for (int i = 1; i < n; ++i) {
    Worker& victim = *workers_[static_cast<std::size_t>((self + i) % n)];
    std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.ready.empty()) {
      Task* t = victim.ready.front();
      victim.ready.pop_front();
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

// Adversarial draining: visit the four sources (priority lanes, own deque,
// injection queue, steal scan) in a seed-dependent order, with the lane scan
// start, pop direction, and steal victim rotation all perturbed. Only ready
// tasks are ever popped — the dependences are enforced upstream — so every
// schedule this produces is legal; anything that changes results under it
// is a declaration bug.
Engine::Task* Engine::try_pop_chaos(int self) {
  std::uint64_t& s = workers_[static_cast<std::size_t>(self)]->chaos_state;
  auto take = [this](SharedQueue& q, bool front) -> Task* {
    std::lock_guard<std::mutex> lk(q.mu);
    if (q.ready.empty()) return nullptr;
    Task* t = front ? q.ready.front() : q.ready.back();
    if (front)
      q.ready.pop_front();
    else
      q.ready.pop_back();
    ready_count_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  };
  int order[4] = {0, 1, 2, 3};
  for (int i = 3; i > 0; --i)
    std::swap(order[i],
              order[chaos_next(s) % static_cast<std::uint64_t>(i + 1)]);
  const int n = static_cast<int>(workers_.size());
  for (int source : order) {
    switch (source) {
      case 0: {  // lanes 1.., rotated scan start, random end
        if (high_count_.load(std::memory_order_relaxed) <= 0) break;
        const int start =
            static_cast<int>(chaos_next(s) % (kPriorityLanes - 1));
        for (int l = 0; l < kPriorityLanes - 1; ++l) {
          Task* t = take(lanes_[1 + (start + l) % (kPriorityLanes - 1)],
                         (chaos_next(s) & 1) != 0);
          if (t != nullptr) {
            high_count_.fetch_sub(1, std::memory_order_relaxed);
            return t;
          }
        }
        break;
      }
      case 1: {  // own deque, random end
        Worker& me = *workers_[static_cast<std::size_t>(self)];
        const bool front = (chaos_next(s) & 1) != 0;
        std::lock_guard<std::mutex> lk(me.mu);
        if (!me.ready.empty()) {
          Task* t = front ? me.ready.front() : me.ready.back();
          if (front)
            me.ready.pop_front();
          else
            me.ready.pop_back();
          ready_count_.fetch_sub(1, std::memory_order_relaxed);
          return t;
        }
        break;
      }
      case 2: {  // lane 0 (injection queue), random end
        Task* t = take(lanes_[0], (chaos_next(s) & 1) != 0);
        if (t != nullptr) return t;
        break;
      }
      case 3: {  // steal scan, rotated victim start, random end
        if (n <= 1) break;
        const int start =
            static_cast<int>(chaos_next(s) % static_cast<std::uint64_t>(n - 1));
        for (int i = 0; i < n - 1; ++i) {
          const int offset = 1 + (start + i) % (n - 1);  // in [1, n-1]: never self
          Worker& victim = *workers_[static_cast<std::size_t>((self + offset) % n)];
          const bool front = (chaos_next(s) & 1) != 0;
          std::lock_guard<std::mutex> lk(victim.mu);
          if (!victim.ready.empty()) {
            Task* t = front ? victim.ready.front() : victim.ready.back();
            if (front)
              victim.ready.pop_front();
            else
              victim.ready.pop_back();
            ready_count_.fetch_sub(1, std::memory_order_relaxed);
            steals_.fetch_add(1, std::memory_order_relaxed);
            return t;
          }
        }
        break;
      }
    }
  }
  return nullptr;
}

void Engine::worker_loop(int self) {
  t_engine = this;
  t_worker = self;
  // Hand every kernel that runs on this worker the worker's own arena:
  // scratch is allocated once per worker, not once per task.
  kern::install_tls_workspace(
      &workers_[static_cast<std::size_t>(self)]->workspace);
  for (;;) {
    Task* task = try_pop(self);
    if (task == nullptr) {
      std::unique_lock<std::mutex> lock(mu_);
      ready_cv_.wait(lock, [this] {
        return shutdown_ || ready_count_.load(std::memory_order_relaxed) > 0;
      });
      if (shutdown_ && ready_count_.load(std::memory_order_relaxed) <= 0)
        return;
      continue;
    }
    run_task(task, self);
  }
}

void Engine::run_task(Task* task, int self) {
  // Once popped, the task's fn/name/tag are exclusively ours; only
  // `successors` may still be appended to concurrently (under mu_).
  std::function<void()> fn = std::move(task->fn);
  busy_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent ev;
  if (tracing_) {
    ev.name = task->name;
    ev.tag = task->tag;
    ev.priority = task->priority;
    ev.depth = task->depth;
    ev.worker = self;
    ev.job = task->job;
    ev.start_us = now_us();
  }
  if (chaos_) {
    // Perturb the interleaving, not just the pop order: occasionally stall
    // before running so a concurrently-ready task on another worker can
    // overtake this one.
    std::uint64_t& s = workers_[static_cast<std::size_t>(self)]->chaos_state;
    const std::uint64_t r = chaos_next(s);
    if ((r & 63) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else if ((r & 7) == 0) {
      const int yields = 1 + static_cast<int>((r >> 3) & 3);
      for (int i = 0; i < yields; ++i) std::this_thread::yield();
    }
  }
  // Audit scope: install this task's auditor as the thread's access
  // listener; every registered-datum access the task performs is checked
  // against its declared Dep set (and collected for the happens-before
  // certifier). Restored before finish_task so retirement bookkeeping is
  // never attributed to the task.
  std::unique_ptr<TaskAuditor> auditor;
  kern::AccessListener* prev_listener = nullptr;
  if (audit_) {
    auditor = std::make_unique<TaskAuditor>(task->id, task->name, task->tag,
                                            &task->declared, &audit_->log);
    prev_listener = kern::install_access_listener(auditor.get());
    audit_->audited.fetch_add(1, std::memory_order_relaxed);
  }
  // Fault sites: jitter (delay) or park (stall) this task before its body
  // runs. Pure sleeps — the task still executes and completes, so the DAG
  // stays sound; a paired serve watchdog wall is what detects the stall.
  if (fault::plan() != nullptr) {
    fault::maybe_delay(fault::site::kTaskDelay);
    fault::maybe_delay(fault::site::kTaskStall);
  }
  const TaskId prev_task = t_current_task;
  t_current_task = task->id;
  try {
    fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  t_current_task = prev_task;
  if (auditor) {
    kern::install_access_listener(prev_listener);
    audit_->hb.on_complete(task->id, auditor->take_observed());
  }
  if (tracing_) {
    ev.end_us = now_us();
    Worker& me = *workers_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lk(me.events_mu);
    me.events.push_back(std::move(ev));
  }
  busy_.fetch_sub(1, std::memory_order_relaxed);
  finish_task(task);
}

void Engine::finish_task(Task* task) {
  std::size_t pushed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Retire the graph node first (the node handle keeps `task` alive to
    // the end of this block), so prune_datum and add_pred treat this id as
    // completed.
    auto node = tasks_.extract(task->id);
    for (TaskId s : task->successors) {
      Task& succ = tasks_.at(s);
      if (--succ.unresolved == 0) push_ready(&succ, &pushed);
    }
    for (const void* key : task->keys) prune_datum(key, task->id);
    --outstanding_;
    ++executed_;
    ++lane_executed_[task->priority];
  }
  if (pushed == 1)
    ready_cv_.notify_one();
  else if (pushed > 1)
    ready_cv_.notify_all();
  done_cv_.notify_all();
}

void Engine::prune_datum(const void* key, TaskId finished) {
  auto it = data_.find(key);
  if (it == data_.end()) return;
  DataState& st = it->second;
  st.readers.erase(std::remove(st.readers.begin(), st.readers.end(), finished),
                   st.readers.end());
  // The entry only matters while a future submit could infer an edge from
  // it: a live reader (write-after-read) or a live writer (read/write-after-
  // write). Once every referenced task has retired, drop the history.
  const bool writer_live = st.has_writer && tasks_.count(st.last_writer) != 0;
  if (st.readers.empty() && !writer_live) data_.erase(it);
}

void Engine::wait(TaskId id) {
  // Worker threads only ever execute task bodies, so being on one means the
  // caller is inside a task: blocking here can deadlock the pool (the waiting
  // worker may be the one that must drain `id`). The documented footgun is
  // now an enforced precondition — restructure as a continuation (submit the
  // follow-up work from the task) instead.
  LUQR_REQUIRE(!(t_engine == this && t_worker >= 0),
               "Engine::wait() called from inside a task: a blocked worker "
               "cannot drain the task it waits on; submit a continuation "
               "instead");
  std::unique_lock<std::mutex> lock(mu_);
  // Completed tasks are retired from tasks_, so absence means done (ids
  // never submitted also return immediately, as before).
  done_cv_.wait(lock, [this, id] { return tasks_.find(id) == tasks_.end(); });
}

void Engine::wait_all() {
  LUQR_REQUIRE(!(t_engine == this && t_worker >= 0),
               "Engine::wait_all() called from inside a task: a blocked "
               "worker cannot drain the tasks it waits on; submit a "
               "continuation instead");
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

bool Engine::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_ == 0;
}

void Engine::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

std::uint64_t Engine::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

std::uint64_t Engine::critical_path_length() const {
  std::lock_guard<std::mutex> lock(mu_);
  return critical_path_;
}

std::vector<std::uint64_t> Engine::lane_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(lane_executed_,
                                    lane_executed_ + kPriorityLanes);
}

std::size_t Engine::live_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

std::size_t Engine::tracked_data() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.size();
}

std::uint64_t Engine::audited_tasks() const {
  return audit_ ? audit_->audited.load(std::memory_order_relaxed) : 0;
}

std::vector<AuditViolation> Engine::access_violations() const {
  return audit_ ? audit_->log.snapshot() : std::vector<AuditViolation>{};
}

std::vector<AuditViolation> Engine::certify_happens_before() const {
  return audit_ ? audit_->hb.certify() : std::vector<AuditViolation>{};
}

std::size_t Engine::workspace_bytes() const {
  std::size_t total = 0;
  for (const auto& w : workers_) total += w->workspace.bytes_reserved();
  return total;
}

std::vector<TraceEvent> Engine::trace() const {
  // Live-safe: each worker's event buffer has its own lock, taken briefly
  // per worker. A task still running simply hasn't recorded its event yet.
  std::vector<TraceEvent> all;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->events_mu);
    all.insert(all.end(), w->events.begin(), w->events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return all;
}

std::vector<TraceEvent> Engine::consume_trace() {
  std::vector<TraceEvent> all;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->events_mu);
    all.insert(all.end(), std::make_move_iterator(w->events.begin()),
               std::make_move_iterator(w->events.end()));
    w->events.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return all;
}

std::vector<std::size_t> Engine::ready_depths() const {
  std::vector<std::size_t> depths(kPriorityLanes, 0);
  for (int p = 0; p < kPriorityLanes; ++p) {
    std::lock_guard<std::mutex> lk(lanes_[p].mu);
    depths[static_cast<std::size_t>(p)] = lanes_[p].ready.size();
  }
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    depths[0] += w->ready.size();
  }
  return depths;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Engine::write_chrome_trace(const std::string& path) const {
  const std::vector<TraceEvent> events = trace();
  const std::vector<std::uint64_t> lanes = lane_executed();
  const std::uint64_t cp = critical_path_length();
  std::FILE* f = std::fopen(path.c_str(), "w");
  LUQR_REQUIRE(f != nullptr, "cannot open trace file: " + path);
  std::fputs("[\n", f);
  std::uint64_t last_end = 0;
  for (const TraceEvent& e : events) {
    const std::string name = json_escape(e.name);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":%llu,"
                 "\"dur\":%llu,\"pid\":0,\"tid\":%d,"
                 "\"args\":{\"tag\":%d,\"priority\":%d,\"depth\":%d,"
                 "\"job\":%llu,\"class\":\"%s\"}},\n",
                 name.c_str(), static_cast<unsigned long long>(e.start_us),
                 static_cast<unsigned long long>(e.end_us - e.start_us),
                 e.worker, e.tag, e.priority, e.depth,
                 static_cast<unsigned long long>(e.job),
                 obs::task_class_name(e.name.c_str()));
    last_end = std::max(last_end, e.end_us);
  }
  // Scheduler summary: the DAG critical path length and how many tasks each
  // priority lane carried (a global instant event, shown by Perfetto /
  // chrome://tracing in the args pane).
  std::fprintf(f,
               "{\"name\":\"scheduler-summary\",\"cat\":\"telemetry\","
               "\"ph\":\"i\",\"ts\":%llu,\"pid\":0,\"tid\":0,\"s\":\"g\","
               "\"args\":{\"critical_path_length\":%llu",
               static_cast<unsigned long long>(last_end),
               static_cast<unsigned long long>(cp));
  for (std::size_t p = 0; p < lanes.size(); ++p)
    std::fprintf(f, ",\"lane%zu_tasks\":%llu", p,
                 static_cast<unsigned long long>(lanes[p]));
  std::fputs("}}\n]\n", f);
  std::fclose(f);
}

}  // namespace luqr::rt
