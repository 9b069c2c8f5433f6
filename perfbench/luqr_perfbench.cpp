// luqr_perfbench — seeded end-to-end benchmark of the luqr solver stack.
//
//   luqr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--ops <n>] [--trace-dir <dir>]
//
// Workloads (see README.md for why each exists):
//   hybrid-default  Solver::factor + one-column Factorization::solve,
//                   Gaussian n=1024, nb=128, max(100), Parallel, 3 workers
//   lu-fine         same loop, diagonally dominant n=1024, nb=64 (all LU)
//   serve-requests  SolveService, closed loop of 4 outstanding submit_solve
//                   requests (one blocked client thread each); 3/4 repeat a
//                   primed pool (cache hits), 1/4 perturb one pool entry
//                   (cold factorizations)
//   serve-batch     SolveService nb=32, closed loop of 256-member
//                   submit_many bursts, half pool repeats, half fresh
//
// Every number is taken outside the library: the harness times its own
// calls into the public API and reads state the library exports
// (obs::kernel_profile, rt::SchedulerStats, Factorization::stats,
// serve::ServiceStats, SolveReply phase fields). Inputs are generated here
// from the seed, before timing. Every solution is checked against an HPL3
// limit, and a seeded sample of serve replies is compared bitwise with a
// one-shot Solver::solve.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced then
// a traced phase and prints the per-layer metrics, the tracing overhead and
// the traced-run reconciliation, and writes the harness's spans to
// <trace-dir>/<workload>-seed<n>.json. --ops replaces the time limit by a
// fixed operation count and prints a DETERMINISM record (the self-test's
// input). The last stdout line is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when any operation failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "obs/kprof.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "serve/service.hpp"
#include "verify/verify.hpp"

using namespace luqr;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 3;           // engine workers in every workload
constexpr double kHpl3Limit = 16.0;   // HPL's own pass threshold
constexpr int kBitwiseSamples = 8;    // serve replies re-solved one-shot
// serve-batch completion-poll period: a member finishing before the one the
// client waits on is seen within this long.
constexpr std::uint64_t kPollUs = 200;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeded inputs (independent of the library's own generators, so a change
// to them cannot change the benchmark's inputs).
// ---------------------------------------------------------------------------
std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x100000001b3ULL + stream;
  return splitmix(s);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return splitmix(s_); }
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }  // [0, 1)
  int below(int n) { return int(next() % std::uint64_t(n)); }
  double gauss() {
    const double u1 = 1.0 - uniform(), u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

Matrix<double> gaussian(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> m(rows, cols);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) m(i, j) = rng.gauss();
  return m;
}

// Column diagonally dominant: every max-criterion test passes (all LU).
Matrix<double> diag_dominant(int n, std::uint64_t seed) {
  Matrix<double> m = gaussian(n, n, seed);
  for (int j = 0; j < n; ++j) {
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += std::fabs(m(i, j));
    m(j, j) = s + 1.0;
  }
  return m;
}

// FNV-1a over raw bytes: the request-sequence digest of the self-test.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  }
  void add(const Matrix<double>& m) {
    const int dims[2] = {m.rows(), m.cols()};
    add(dims, sizeof dims);
    add(m.data(), sizeof(double) * std::size_t(m.rows()) * m.cols());
  }
};

bool bitwise_equal(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * std::size_t(a.rows()) * a.cols()) == 0;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------
// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest of the preferred percentile and its fallbacks that leaves at
// least ten samples beyond it (a percentile with fewer is noise). Each
// workload's preferred percentile leaves at least twice that many in a run
// of the configured length, so the fallbacks serve only shorter runs.
double tail(const std::vector<double>& v, double preferred, double* used) {
  for (double q : {preferred, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (q > preferred) continue;
    if (double(v.size()) * (1.0 - q) >= 10.0 || q == 0.5) {
      *used = q;
      return quantile(v, q);
    }
  }
  *used = 0.5;
  return median(v);
}

// ---------------------------------------------------------------------------
// Spans: the harness's own trace, recorded around its calls into each layer
// in the traced phase only, kept in memory and written at exit.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  // Called between phases only, never while clients record.
  void enable(bool on) { on_ = on; }
  int open(const char* name, int parent, std::uint64_t request) {
    if (!on_) return -1;
    const double start = us(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, 0.0, parent, request});
    return int(spans_.size()) - 1;
  }
  // Close at an already-taken timestamp (a completion seen earlier).
  void close(int id, Clock::time_point t) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::size_t(id)].end_us = us(t);
  }
  void close(int id) { close(id, Clock::now()); }
  std::size_t size() const { return spans_.size(); }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%d,\"request\":%llu}%s\n",
                   i, s.name, s.start_us, s.end_us, s.parent,
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_us, end_us;
    int parent;
    std::uint64_t request;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point epoch_;
  bool on_ = false;
  std::mutex mu_;  // guards spans_ (serve-requests records from its slots)
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Kernel-profiler deltas
// ---------------------------------------------------------------------------
struct KernelTotals {
  double ms[obs::kKernelClassCount] = {};
  double gflop[obs::kKernelClassCount] = {};
  double calls[obs::kKernelClassCount] = {};
  void add_delta(const obs::KernelProfile& a, const obs::KernelProfile& b) {
    for (int c = 0; c < obs::kKernelClassCount; ++c) {
      ms[c] += double(b[c].time_us - a[c].time_us) * 1e-3;
      gflop[c] += double(b[c].flops - a[c].flops) * 1e-9;
      calls[c] += double(b[c].calls - a[c].calls);
    }
  }
  void add(const KernelTotals& o) {
    for (int c = 0; c < obs::kKernelClassCount; ++c) {
      ms[c] += o.ms[c];
      gflop[c] += o.gflop[c];
      calls[c] += o.calls[c];
    }
  }
  static double sum(const double (&v)[obs::kKernelClassCount]) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  }
  double total_ms() const { return sum(ms); }
};

double gflops(double gflop, double ms) { return ms > 0 ? gflop / (1e-3 * ms) : 0.0; }

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  long ops = 0;  // > 0: fixed operation count instead of the time limit
  std::string trace_dir = ".bench_build/traces";
};

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const char* unit) {
    items.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
};

// A sample and when it completed (ms since its phase began).
struct Timed {
  double at_ms, value;
};

std::vector<double> values(const std::vector<Timed>& v) {
  std::vector<double> out;
  for (const Timed& t : v) out.push_back(t.value);
  return out;
}

// Per-system samples shared by every workload.
struct Samples {
  Clock::time_point begin, end;  // of the phase
  std::vector<Timed> latency, hit, miss;
  std::vector<Timed> busy;  // time with work outstanding, credited at completion
  double hpl3_max = 0.0;
  double length_ms = 0.0;  // of the phases appended so far

  double at(Clock::time_point t) const { return ms_between(begin, t); }
  // Append a later phase, as if it had followed this one without a pause.
  void append(const Samples& f) {
    for (auto [to, from] : {std::pair{&latency, &f.latency}, std::pair{&hit, &f.hit},
                            std::pair{&miss, &f.miss}, std::pair{&busy, &f.busy}})
      for (const Timed& t : *from) to->push_back({length_ms + t.at_ms, t.value});
    hpl3_max = std::max(hpl3_max, f.hpl3_max);
    length_ms += ms_between(f.begin, f.end);
  }
  std::size_t systems() const { return latency.size(); }
  double busy_ms() const {
    double b = 0;
    for (const Timed& t : busy) b += t.value;
    return b;
  }
  double pooled_median() const { return median(values(latency)); }
};

// The speed of a shared virtual machine drifts within a run, so each
// end-to-end figure but the tail is computed on kWindows equal slices of the
// phase and the median over slices is reported: a stall within four of the
// ten slices leaves it inside the range of the other six.
constexpr int kWindows = 10;

std::vector<std::vector<double>> slices(const std::vector<Timed>& v, double end_ms) {
  std::vector<std::vector<double>> w(kWindows);
  for (const Timed& t : v) {
    const int k = end_ms > 0 ? int(kWindows * t.at_ms / end_ms) : 0;
    w[std::size_t(std::clamp(k, 0, kWindows - 1))].push_back(t.value);
  }
  return w;
}

// Per-slice figures: one value per non-empty slice.
std::vector<double> per_slice_median(const std::vector<Timed>& v, double end_ms) {
  std::vector<double> per;
  for (const auto& w : slices(v, end_ms))
    if (!w.empty()) per.push_back(median(w));
  return per;
}


void end_to_end(const Samples& s, double setup_s, double tail_q, Metrics& m) {
  double end_ms = 0;
  for (const Timed& t : s.latency) end_ms = std::max(end_ms, t.at_ms);
  const auto lat = slices(s.latency, end_ms);
  const auto busy = slices(s.busy, end_ms);
  std::vector<double> rate;
  for (int k = 0; k < kWindows; ++k) {
    double b = 0;
    for (double v : busy[std::size_t(k)]) b += v;
    if (b > 0) rate.push_back(1e3 * double(lat[std::size_t(k)].size()) / b);
  }
  const auto p50 = per_slice_median(s.latency, end_ms);
  const auto hit = per_slice_median(s.hit, end_ms);
  const auto miss = per_slice_median(s.miss, end_ms);
  std::fprintf(stderr, "perfbench: per slice:");
  using Named = std::pair<const char*, const std::vector<double>*>;
  for (const auto& [name, v] : {Named{"systems_per_s", &rate}, Named{"latency_p50_ms", &p50},
                                Named{"hit_latency_p50_ms", &hit},
                                Named{"miss_latency_p50_ms", &miss}}) {
    std::fprintf(stderr, " %s", name);
    for (double x : *v) std::fprintf(stderr, " %.4g", x);
  }
  std::fprintf(stderr, "\n");
  // The tail is taken over the whole phase: a slice holds too few samples
  // beyond a high percentile.
  double used = tail_q;
  m.set("setup_s", setup_s, "s");
  m.set("systems_per_s", median(rate), "1/s");
  m.set("latency_p50_ms", median(p50), "ms");
  m.set("latency_tail_ms", tail(values(s.latency), tail_q, &used), "ms");
  m.set("hit_latency_p50_ms", median(hit), "ms");
  m.set("miss_latency_p50_ms", median(miss), "ms");
  std::fprintf(stderr,
               "perfbench: %zu systems (%zu hit, %zu miss) in %d slices, tail = "
               "p%g of all systems, hpl3_max = %.4g\n",
               s.systems(), s.hit.size(), s.miss.size(), kWindows, 100 * used,
               s.hpl3_max);
}

void check_hpl3(const Matrix<double>& a, const Matrix<double>& x,
                const Matrix<double>& b, Samples& s, Outcome& out,
                const char* what) {
  const double h = verify::hpl3(a, x, b);
  if (!(h <= kHpl3Limit)) {
    out.fail(std::string(what) + ": HPL3 " + std::to_string(h) + " over limit");
    return;
  }
  s.hpl3_max = std::max(s.hpl3_max, h);
}

bool time_up(Clock::time_point t0, const Options& o, long done) {
  if (o.ops > 0) return done >= o.ops;
  return ms_between(t0, Clock::now()) >= 1e3 * o.seconds;
}

// An untraced run measures in kWindows segments of equal length, one per
// slice. Before each segment the workload's objects are torn down (not
// timed: that is not set-up) and set up afresh `reps` times, each timed;
// the segment runs on the last of them. The set-up samples so spread over
// the whole run, like every other figure, and their median is returned.
// One untimed set-up comes first: it touches the allocator's memory for the
// first time, which a shared virtual machine serves at a speed that varies
// from run to run. A fixed operation count (--ops) runs as one segment.
template <typename Teardown, typename Setup, typename Segment>
double run_segments(const Options& o, int reps, Teardown&& teardown, Setup&& setup,
                    Segment&& segment) {
  setup();
  const int n = o.ops > 0 ? 1 : kWindows;
  Options seg = o;
  seg.seconds = o.seconds / n;
  std::vector<double> s;
  for (int k = 0; k < n; ++k) {
    for (int r = 0; r < reps; ++r) {
      teardown();
      const auto t0 = Clock::now();
      setup();
      s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    }
    segment(seg);
  }
  std::fprintf(stderr, "perfbench: set-up samples (s):");
  for (double v : s) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  return median(s);
}

// Per-layer metrics every workload prints; a layer a workload does not run
// reads 0 there (see README.md).
struct Layers {
  KernelTotals kernels, solve_kernels;
  double systems = 0;  // normaliser of the per-system figures
  double factor_ms_p50 = 0, solve_ms_p50 = 0;
  double lu_steps = 0, qr_steps = 0, hpl3_max = 0;
  double tasks = 0, critical_path = 0, steals = 0;
  double busy_share = 0, idle_ms = 0, task_us_p50 = 0, nonkernel_ms = 0,
         outside_engine_ms = 0;
  double submit_us_p50 = 0, queue_ms_p50 = 0, cache_hit_ratio = 0,
         batch_fill = 0, batch_chunks = 0;
  double retries = 0, shed = 0, rejected = 0, failed = 0;
  double overhead_pct = 0, spans = 0;

  void emit(Metrics& m) const {
    const double per = systems > 0 ? 1.0 / systems : 0.0;
    m.set("kernels.total_ms", kernels.total_ms() * per, "ms");
    m.set("kernels.calls", KernelTotals::sum(kernels.calls) * per, "count");
    m.set("kernels.gflops", gflops(KernelTotals::sum(kernels.gflop), kernels.total_ms()),
          "GF/s");
    m.set("kernels.solve.total_ms", solve_kernels.total_ms() * per, "ms");
    m.set("kernels.solve.gflops",
          gflops(KernelTotals::sum(solve_kernels.gflop), solve_kernels.total_ms()), "GF/s");
    static const obs::KernelClass kTimed[] = {
        obs::KernelClass::Gemm,  obs::KernelClass::Trsm,  obs::KernelClass::Getrf,
        obs::KernelClass::Laswp, obs::KernelClass::Geqrt, obs::KernelClass::Unmqr,
        obs::KernelClass::Tsqrt, obs::KernelClass::Tsmqr, obs::KernelClass::Ttqrt,
        obs::KernelClass::Ttmqr, obs::KernelClass::Lange};
    for (obs::KernelClass c : kTimed) {
      const int i = int(c);
      const std::string base = std::string("kernels.") + obs::kernel_class_label(c);
      m.set(base + ".ms", kernels.ms[i] * per, "ms");
      m.set(base + ".calls", kernels.calls[i] * per, "count");
      m.set(base + ".gflops", gflops(kernels.gflop[i], kernels.ms[i]), "GF/s");
    }
    m.set("core.factor_ms_p50", factor_ms_p50, "ms");
    m.set("core.solve_ms_p50", solve_ms_p50, "ms");
    m.set("core.in_task_nonkernel_ms", nonkernel_ms, "ms");
    m.set("core.outside_engine_ms", outside_engine_ms, "ms");
    m.set("criteria.lu_steps", lu_steps, "count");
    m.set("criteria.qr_steps", qr_steps, "count");
    m.set("criteria.hpl3_max", hpl3_max, "1");
    m.set("runtime.tasks", tasks, "count");
    m.set("runtime.critical_path", critical_path, "count");
    m.set("runtime.steals", steals, "count");
    m.set("runtime.busy_share", busy_share, "ratio");
    m.set("runtime.idle_ms", idle_ms, "ms");
    m.set("runtime.task_us_p50", task_us_p50, "us");
    m.set("serve.submit_us_p50", submit_us_p50, "us");
    m.set("serve.queue_ms_p50", queue_ms_p50, "ms");
    m.set("serve.cache_hit_ratio", cache_hit_ratio, "ratio");
    m.set("serve.batch_fill", batch_fill, "count");
    m.set("serve.batch_chunks", batch_chunks, "count");
    m.set("serve.retries", retries, "count");
    m.set("serve.shed", shed, "count");
    m.set("serve.rejected", rejected, "count");
    m.set("serve.failed", failed, "count");
    m.set("trace.overhead_pct", overhead_pct, "%");
    m.set("trace.spans", spans, "count");
  }
};

struct Determinism {
  Digest sequence;
  std::map<std::string, double> counts;
};

// Shared tail of every traced run: print the per-layer metrics and the
// tracing overhead, and write the span file.
void finish_trace(const Options& o, const SpanLog& spans, Layers& l, Metrics& m,
                  Outcome& out) {
  l.spans = double(spans.size());
  l.emit(m);
  std::fprintf(stderr, "perfbench: tracing overhead on latency_p50_ms: %+.2f%%\n",
               l.overhead_pct);
  const std::string path =
      o.trace_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
  if (!spans.write(path)) out.fail("cannot write span file " + path);
}

// ---------------------------------------------------------------------------
// Dense workloads: Solver::factor + one-column Factorization::solve
// ---------------------------------------------------------------------------
struct DenseSpec {
  int n, nb;
  bool diag_dominant;
  double tail_q;   // latency_tail_ms percentile (>= 10 samples beyond it)
  int setup_reps;  // per segment; at most about two seconds of set-up in a run
};

struct DenseSystem {
  Matrix<double> a, b;
};

constexpr int kDensePool = 6;  // distinct systems, cycled

SolverConfig dense_config(const DenseSpec& d, bool traced, rt::SchedulerStats* ss) {
  rt::SchedulerOptions so;
  so.trace = traced;
  SolverConfig cfg = SolverConfig()
                         .criterion(CriterionSpec::max(100.0))
                         .tile_size(d.nb)
                         .backend(Backend::Parallel)
                         .threads(kWorkers)
                         .scheduler(so);
  if (ss) cfg.scheduler_stats(ss);
  return cfg;
}

// Engine-trace accounting of one parallel factorization. Trace times count
// from the construction of the factorization's own engine.
struct FactorTrace {
  double task_ms = 0, idle_ms = 0, span_ms = 0;
  double last_end_ms = 0;  // end of the last task, since engine construction
  double overlap_ms = 0;   // nonzero when a worker ran two tasks at once
  std::vector<double> task_us;
};

FactorTrace account(const std::vector<rt::TraceEvent>& ev) {
  FactorTrace t;
  if (ev.empty()) return t;
  std::uint64_t lo = ev.front().start_us, hi = ev.front().end_us;
  std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> per_worker;
  for (const auto& e : ev) {
    lo = std::min(lo, e.start_us);
    hi = std::max(hi, e.end_us);
    t.task_us.push_back(double(e.end_us - e.start_us));
    t.task_ms += double(e.end_us - e.start_us) * 1e-3;
    per_worker[e.worker].push_back({e.start_us, e.end_us});
  }
  t.span_ms = double(hi - lo) * 1e-3;
  t.last_end_ms = double(hi) * 1e-3;
  // Idle = gaps between consecutive tasks of each worker inside the span.
  // Task time plus idle time is workers x span unless a worker's tasks
  // overlap or a worker id is out of range; overlap_ms is the difference.
  for (int w = 0; w < kWorkers; ++w) {
    auto it = per_worker.find(w);
    if (it == per_worker.end()) {
      t.idle_ms += t.span_ms;
      continue;
    }
    auto& iv = it->second;
    std::sort(iv.begin(), iv.end());
    std::uint64_t cursor = lo;
    for (const auto& [s, e] : iv) {
      if (s > cursor) t.idle_ms += double(s - cursor) * 1e-3;
      cursor = std::max(cursor, e);
    }
    t.idle_ms += double(hi - cursor) * 1e-3;
  }
  t.overlap_ms = t.task_ms + t.idle_ms - kWorkers * t.span_ms;
  return t;
}

struct DenseTraceAcc {
  KernelTotals factor_kernels, solve_kernels;
  std::vector<double> task_us;
  double wall_ms = 0, task_ms = 0, idle_ms = 0, outside_ms = 0, tasks = 0,
         steals = 0, critical_path = 0, lu = 0, qr = 0, factors = 0;
  // Worst violation of each reconciliation check, as a share of workers x
  // wall (see run_dense).
  double worst_excess = 0, worst_overlap = 0, worst_late = 0;
};

void run_dense_phase(const Solver& solver, const std::vector<DenseSystem>& pool,
                     const Options& o, SpanLog& spans, Samples& s, Outcome& out,
                     rt::SchedulerStats* ss, DenseTraceAcc* acc,
                     std::vector<double>& factor_ms, std::vector<double>& solve_ms,
                     Determinism* det) {
  const auto t_begin = Clock::now();
  s.begin = t_begin;
  long i = 0;
  while (!time_up(t_begin, o, i)) {
    const DenseSystem& sys = pool[std::size_t(i % kDensePool)];
    ++out.attempted;
    const int root = spans.open("system", -1, std::uint64_t(i));
    obs::KernelProfile k0, k1, k2;
    if (acc) k0 = obs::kernel_profile();
    try {
      int sp = spans.open("factor", root, std::uint64_t(i));
      const auto t0 = Clock::now();
      core::Factorization fac = solver.factor(sys.a);
      const auto t1 = Clock::now();
      spans.close(sp, t1);
      if (acc) k1 = obs::kernel_profile();
      sp = spans.open("solve", root, std::uint64_t(i));
      Matrix<double> x = fac.solve(sys.b);
      const auto t2 = Clock::now();
      spans.close(sp, t2);
      spans.close(root, t2);
      if (acc) k2 = obs::kernel_profile();
      factor_ms.push_back(ms_between(t0, t1));
      solve_ms.push_back(ms_between(t1, t2));
      const double at = s.at(t2), lat = ms_between(t0, t2);
      s.latency.push_back({at, lat});
      s.miss.push_back({at, lat});
      s.hit.push_back({at, ms_between(t1, t2)});
      s.busy.push_back({at, lat});
      check_hpl3(sys.a, x, sys.b, s, out, "dense solve");
      if (det) {
        det->sequence.add(sys.a);
        det->sequence.add(sys.b);
        det->counts["criteria.lu_steps"] += fac.stats().lu_steps;
        det->counts["criteria.qr_steps"] += fac.stats().qr_steps;
      }
      if (acc) {
        acc->factor_kernels.add_delta(k0, k1);
        acc->solve_kernels.add_delta(k1, k2);
        const FactorTrace ft = account(ss->trace);
        const double wall = ms_between(t0, t1);
        KernelTotals fk;
        fk.add_delta(k0, k1);
        const double outside = kWorkers * (wall - ft.span_ms);
        const double nonkernel = ft.task_ms - fk.total_ms();
        const double whole = kWorkers * wall;
        acc->worst_excess = std::max(acc->worst_excess, -nonkernel / whole);
        acc->worst_overlap =
            std::max(acc->worst_overlap, std::fabs(ft.overlap_ms) / whole);
        acc->worst_late =
            std::max(acc->worst_late, kWorkers * (ft.last_end_ms - wall) / whole);
        acc->wall_ms += wall;
        acc->task_ms += ft.task_ms;
        acc->idle_ms += ft.idle_ms;
        acc->outside_ms += outside;
        acc->task_us.insert(acc->task_us.end(), ft.task_us.begin(), ft.task_us.end());
        acc->tasks += double(ss->tasks_executed);
        acc->steals += double(ss->steals);
        acc->critical_path += double(ss->critical_path);
        acc->lu += fac.stats().lu_steps;
        acc->qr += fac.stats().qr_steps;
        acc->factors += 1;
        if (det) {
          det->counts["runtime.tasks"] += double(ss->tasks_executed);
          det->counts["runtime.critical_path"] += double(ss->critical_path);
        }
      }
    } catch (const std::exception& e) {
      out.fail(std::string("dense system: ") + e.what());
    }
    ++i;
  }
  s.end = Clock::now();
}

void run_dense(const DenseSpec& d, const Options& o, Metrics& m, Outcome& out,
              Determinism* det) {
  // Inputs first, outside every timer.
  std::vector<DenseSystem> pool;
  for (int p = 0; p < kDensePool; ++p) {
    const std::uint64_t sa = stream_seed(o.seed, 100 + std::uint64_t(p));
    pool.push_back({d.diag_dominant ? diag_dominant(d.n, sa) : gaussian(d.n, d.n, sa),
                    gaussian(d.n, 1, stream_seed(o.seed, 200 + std::uint64_t(p)))});
  }
  SpanLog spans(Clock::now());

  // Set-up: Solver construction plus the first factorization and solve.
  std::unique_ptr<Solver> solver;
  const auto set_up = [&] {
    solver = std::make_unique<Solver>(dense_config(d, false, nullptr));
    (void)solver->factor(pool[0].a).solve(pool[0].b);
  };
  std::vector<double> f_ms, s_ms;
  if (!o.trace) {
    Samples all;
    const double setup_s = run_segments(
        o, d.setup_reps, [&] { solver.reset(); }, set_up, [&](const Options& seg) {
          Samples s;
          run_dense_phase(*solver, pool, seg, spans, s, out, nullptr, nullptr, f_ms,
                          s_ms, det);
          all.append(s);
        });
    end_to_end(all, setup_s, d.tail_q, m);
    return;
  }

  set_up();
  Samples plain;
  Options phase = o;
  if (o.ops == 0) phase.seconds = o.seconds / 3.0;
  run_dense_phase(*solver, pool, phase, spans, plain, out, nullptr, nullptr, f_ms,
                  s_ms, nullptr);

  rt::SchedulerStats ss;
  const Solver traced(dense_config(d, true, &ss));
  (void)traced.factor(pool[0].a).solve(pool[0].b);  // warm the traced path
  Samples s;
  DenseTraceAcc acc;
  std::vector<double> tf_ms, ts_ms;
  if (o.ops == 0) phase.seconds = o.seconds - phase.seconds;
  spans.enable(true);
  run_dense_phase(traced, pool, phase, spans, s, out, &ss, &acc, tf_ms, ts_ms, det);
  spans.enable(false);

  Layers l;
  const double nf = std::max(1.0, acc.factors);
  l.kernels = acc.factor_kernels;
  l.kernels.add(acc.solve_kernels);
  l.solve_kernels = acc.solve_kernels;
  l.systems = acc.factors;
  l.factor_ms_p50 = median(tf_ms);
  l.solve_ms_p50 = median(ts_ms);
  l.lu_steps = acc.lu / nf;
  l.qr_steps = acc.qr / nf;
  l.hpl3_max = std::max(plain.hpl3_max, s.hpl3_max);
  l.tasks = acc.tasks / nf;
  l.critical_path = acc.critical_path / nf;
  l.steals = acc.steals / nf;
  l.busy_share = acc.factor_kernels.total_ms() / (kWorkers * acc.wall_ms);
  l.idle_ms = acc.idle_ms / nf;
  l.task_us_p50 = median(acc.task_us);
  l.nonkernel_ms = (acc.task_ms - acc.factor_kernels.total_ms()) / nf;
  l.outside_engine_ms = acc.outside_ms / nf;
  l.overhead_pct = 100.0 * (s.pooled_median() / plain.pooled_median() - 1.0);

  // Reconciliation. Workers x factor wall splits into kernel time (kernel
  // profiler), in-task non-kernel time (engine task durations minus kernel
  // time), idle time inside the engine span (gap walk over each worker's
  // tasks) and time outside the engine span (harness wall minus the span).
  // The split adds up by construction; what is checked is that no part is
  // negative, each against a different clock: kernel time within task time
  // (profiler against engine), no worker in two tasks at once (engine trace
  // against itself), and the engine's last task ending within the harness's
  // factor call (engine clock against harness clock; the engine is built
  // inside the call, so its clock starts after the harness's).
  constexpr double kReconcileTol = 0.02;
  std::fprintf(stderr,
               "perfbench: reconciliation per factorization (workers x wall = "
               "%.3f ms): kernel %.3f + in-task non-kernel %.3f + idle in "
               "engine span %.3f + outside engine span %.3f; worst share of "
               "the whole: kernel over task time %.4f, worker overlap %.4f, "
               "engine past harness wall %.4f (tolerance %.2f each)\n",
               kWorkers * acc.wall_ms / nf, acc.factor_kernels.total_ms() / nf,
               l.nonkernel_ms, l.idle_ms, l.outside_engine_ms, acc.worst_excess,
               acc.worst_overlap, acc.worst_late, kReconcileTol);
  if (acc.worst_excess > kReconcileTol || acc.worst_overlap > kReconcileTol ||
      acc.worst_late > kReconcileTol)
    out.fail("traced-run reconciliation outside tolerance");
  finish_trace(o, spans, l, m, out);
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------
serve::ServiceConfig serve_config(int nb) {
  serve::ServiceConfig cfg;
  cfg.solver = SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb);
  cfg.threads = kWorkers;
  return cfg;
}

// One-shot reference solver with the service's solver configuration.
Solver reference_solver(const serve::ServiceConfig& cfg) {
  return Solver(SolverConfig(cfg.solver).threads(kWorkers));
}

struct ServeStatsDelta {
  serve::ServiceStats a, b;
  double d(std::uint64_t serve::ServiceStats::*f) const { return double(b.*f - a.*f); }
};

// Criterion decisions on a set of matrices, factored outside timing with
// the service's solver configuration (exact; predicted never to change).
void pool_criteria(const serve::ServiceConfig& cfg,
                   const std::vector<std::shared_ptr<const Matrix<double>>>& pool,
                   Layers& l, Determinism* det) {
  const Solver s(SolverConfig(cfg.solver).backend(Backend::Serial));
  for (const auto& a : pool) {
    const auto f = s.factor(*a);
    l.lu_steps += f.stats().lu_steps;
    l.qr_steps += f.stats().qr_steps;
  }
  if (det) {
    det->counts["criteria.lu_steps"] = l.lu_steps;
    det->counts["criteria.qr_steps"] = l.qr_steps;
  }
}

bool terminal(serve::JobStatus s) {
  return s != serve::JobStatus::Queued && s != serve::JobStatus::Running;
}

// Per-request records of a serve phase.
struct ServeRecord {
  Matrix<double> x;
  bool done = false;
};

struct ServePhase {
  Samples s;
  std::vector<double> submit_us, queue_ms, factor_ms, solve_ms;
};

// Per-layer figures of a traced serve phase, from the service's exported
// statistics, the kernel profile and the replies' phase fields.
Layers serve_layers(serve::SolveService& svc, const ServeStatsDelta& st,
                    const KernelTotals& k, const ServePhase& plain,
                    const ServePhase& traced) {
  Layers l;
  l.kernels = k;
  l.systems = double(traced.s.systems());
  const double per = l.systems > 0 ? 1.0 / l.systems : 0.0;
  l.tasks = st.d(&serve::ServiceStats::engine_tasks_executed) * per;
  l.steals = st.d(&serve::ServiceStats::engine_steals) * per;
  l.critical_path = double(svc.engine().critical_path_length());
  l.busy_share = k.total_ms() / (kWorkers * traced.s.busy_ms());
  const double lookups = double((st.b.cache.hits + st.b.cache.misses) -
                                (st.a.cache.hits + st.a.cache.misses));
  l.cache_hit_ratio =
      lookups > 0 ? double(st.b.cache.hits - st.a.cache.hits) / lookups : 0.0;
  l.batch_fill = st.b.batch_fill_mean;
  l.batch_chunks = st.d(&serve::ServiceStats::batches_executed) * per;
  l.retries = st.d(&serve::ServiceStats::retries);
  l.shed = st.d(&serve::ServiceStats::shed);
  l.rejected = st.d(&serve::ServiceStats::rejected);
  l.failed = st.d(&serve::ServiceStats::failed);
  l.factor_ms_p50 = median(traced.factor_ms);
  l.solve_ms_p50 = median(traced.solve_ms);
  l.submit_us_p50 = median(traced.submit_us);
  l.queue_ms_p50 = median(traced.queue_ms);
  l.hpl3_max = std::max(plain.s.hpl3_max, traced.s.hpl3_max);
  l.overhead_pct = 100.0 * (traced.s.pooled_median() / plain.s.pooled_median() - 1.0);
  return l;
}

// --- serve-requests --------------------------------------------------------
struct Request {
  int pool = 0;
  bool miss = false;
  int row = 0, col = 0;
  double delta = 0;
  int rhs = 0;
  serve::Priority priority = serve::Priority::Normal;
};

constexpr int kReqPool = 20;
constexpr int kReqRhs = 4;
constexpr int kWindow = 4;
constexpr int kReqOrders[] = {128, 192, 256, 384, 512};

struct RequestInputs {
  std::vector<std::shared_ptr<const Matrix<double>>> pool;
  std::vector<std::vector<Matrix<double>>> rhs;  // [pool][kReqRhs]
  std::vector<Request> seq;

  Matrix<double> matrix(const Request& r) const {
    Matrix<double> a = *pool[std::size_t(r.pool)];
    if (r.miss) a(r.row, r.col) += r.delta;
    return a;
  }
  const Matrix<double>& b(const Request& r) const {
    return rhs[std::size_t(r.pool)][std::size_t(r.rhs)];
  }
};

RequestInputs request_inputs(std::uint64_t seed, std::size_t max_requests) {
  RequestInputs in;
  for (int p = 0; p < kReqPool; ++p) {
    const int n = kReqOrders[p % 5];
    in.pool.push_back(std::make_shared<const Matrix<double>>(
        gaussian(n, n, stream_seed(seed, 300 + std::uint64_t(p)))));
    in.rhs.emplace_back();
    for (int r = 0; r < kReqRhs; ++r)
      in.rhs.back().push_back(
          gaussian(n, 1, stream_seed(seed, 1000 + std::uint64_t(p * kReqRhs + r))));
  }
  // The mix is fixed by position, so every run holds the same share of each
  // order and of misses (a median over a mix of orders is only steady when
  // the mix is); the seed picks matrices, perturbations and right-hand
  // sides. Request i has order kReqOrders[i % 5]; every fourth request of
  // an order is a miss.
  Rng rng(stream_seed(seed, 7));
  for (std::size_t i = 0; i < max_requests; ++i) {
    Request r;
    r.pool = int(i % 5) + 5 * rng.below(kReqPool / 5);
    r.miss = (i / 5) % 4 == 3;
    const int n = in.pool[std::size_t(r.pool)]->rows();
    r.row = rng.below(n);
    r.col = rng.below(n);
    r.delta = 1e-3 * (1.0 + rng.uniform());
    r.rhs = rng.below(kReqRhs);
    r.priority = serve::Priority(int(i % 3));
    in.seq.push_back(r);
  }
  return in;
}

// One closed-loop slot of the request window: a thread that submits request
// first + slot, first + slot + kWindow, ... and blocks on each until it
// completes, so every request is timed to its own completion without
// polling. Slots share nothing but the service and the span log.
struct Slot {
  ServePhase ph;
  Outcome out;
  std::size_t end = 0;  // one past the last request index this slot issued
};

void run_slot(serve::SolveService& svc, const RequestInputs& in, std::size_t first,
              int k, const Options& o, Clock::time_point t_begin, SpanLog& spans,
              std::vector<ServeRecord>& rec, Slot& sl) {
  const std::size_t last =
      o.ops > 0 ? std::min(in.seq.size(), first + std::size_t(o.ops)) : in.seq.size();
  for (std::size_t i = first + std::size_t(k); i < last; i += kWindow) {
    if (o.ops == 0 && time_up(t_begin, o, 0)) break;
    ++sl.out.attempted;
    sl.end = i + 1;
    // Nothing may escape a client thread: any error fails this request.
    try {
      const Request& r = in.seq[i];
      Matrix<double> a = in.matrix(r);  // materialised outside the timer
      Matrix<double> b = in.b(r);
      serve::SubmitOptions so;
      so.priority = r.priority;
      const int root = spans.open("request", -1, i);
      int sp = spans.open("submit", root, i);
      const auto t0 = Clock::now();
      serve::JobHandle h = svc.submit_solve(std::move(a), std::move(b), so);
      const auto t1 = Clock::now();
      spans.close(sp, t1);
      sl.ph.submit_us.push_back(1e3 * ms_between(t0, t1));
      sp = spans.open("wait", root, i);
      h.wait();
      const auto t_done = Clock::now();
      spans.close(sp, t_done);
      sp = spans.open("get", root, i);
      serve::SolveReply rep = h.get();
      spans.close(sp);
      spans.close(root);
      const double lat = ms_between(t0, t_done), at = ms_between(t_begin, t_done);
      sl.ph.s.latency.push_back({at, lat});
      (rep.cache_hit ? sl.ph.s.hit : sl.ph.s.miss).push_back({at, lat});
      sl.ph.queue_ms.push_back(double(rep.queue_us) * 1e-3);
      if (rep.cache_hit) sl.ph.solve_ms.push_back(double(rep.solve_us) * 1e-3);
      if (rep.factor_us > 0) sl.ph.factor_ms.push_back(double(rep.factor_us) * 1e-3);
      ServeRecord& sr = rec[i];
      sr.x = std::move(rep.x);
      sr.done = true;
    } catch (const std::exception& e) {
      sl.out.fail(std::string("request: ") + e.what());
    } catch (...) {
      sl.out.fail("request: unknown exception");
    }
  }
}

void run_requests_phase(serve::SolveService& svc, const RequestInputs& in,
                        std::size_t first, const Options& o, SpanLog& spans,
                        ServePhase& ph, std::vector<ServeRecord>& rec,
                        Outcome& out, std::size_t* next_out) {
  const auto t_begin = Clock::now();
  std::vector<Slot> slots(kWindow);
  {
    std::vector<std::thread> clients;
    for (int k = 0; k < kWindow; ++k)
      clients.emplace_back(run_slot, std::ref(svc), std::cref(in), first, k,
                           std::cref(o), t_begin, std::ref(spans), std::ref(rec),
                           std::ref(slots[std::size_t(k)]));
    for (auto& t : clients) t.join();
  }
  ph.s.begin = t_begin;
  ph.s.end = Clock::now();
  *next_out = first;
  for (Slot& sl : slots) {
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(ph.s.latency, sl.ph.s.latency);
    append(ph.s.hit, sl.ph.s.hit);
    append(ph.s.miss, sl.ph.s.miss);
    append(ph.submit_us, sl.ph.submit_us);
    append(ph.queue_ms, sl.ph.queue_ms);
    append(ph.solve_ms, sl.ph.solve_ms);
    append(ph.factor_ms, sl.ph.factor_ms);
    out.attempted += sl.out.attempted;
    out.failed += sl.out.failed;
    append(out.errors, sl.out.errors);
    *next_out = std::max(*next_out, sl.end);
  }
  // The window is always full, so every gap between completions is busy.
  std::sort(ph.s.latency.begin(), ph.s.latency.end(),
            [](const Timed& a, const Timed& b) { return a.at_ms < b.at_ms; });
  double prev = 0;
  for (const Timed& t : ph.s.latency) {
    ph.s.busy.push_back({t.at_ms, t.at_ms - prev});
    prev = t.at_ms;
  }
}

// Check every completed request's HPL3 and a seeded sample bitwise against
// one-shot Solver::solve, outside timing.
void verify_requests(const serve::ServiceConfig& cfg, const RequestInputs& in,
                     const std::vector<ServeRecord>& rec, std::uint64_t seed,
                     Samples& s, Outcome& out) {
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    if (!rec[i].done) continue;
    done.push_back(i);
    const Request& r = in.seq[i];
    check_hpl3(in.matrix(r), rec[i].x, in.b(r), s, out, "serve request");
  }
  const Solver ref = reference_solver(cfg);
  Rng rng(stream_seed(seed, 11));
  for (int k = 0; k < kBitwiseSamples && !done.empty(); ++k) {
    const std::size_t i = done[std::size_t(rng.below(int(done.size())))];
    const Request& r = in.seq[i];
    if (!bitwise_equal(ref.solve(in.matrix(r), in.b(r)).x, rec[i].x))
      out.fail("serve reply differs bitwise from one-shot Solver::solve");
  }
}

void run_serve_requests(const Options& o, Metrics& m, Outcome& out, Determinism* det) {
  const serve::ServiceConfig cfg = serve_config(64);
  const RequestInputs in = request_inputs(o.seed, 1 << 16);
  SpanLog spans(Clock::now());

  // Set-up: service construction plus priming the cache with the pool.
  std::unique_ptr<serve::SolveService> svc;
  const auto set_up = [&] {
    svc = std::make_unique<serve::SolveService>(cfg);
    std::vector<serve::JobHandle> hs;
    for (int p = 0; p < kReqPool; ++p)
      hs.push_back(svc->submit_solve(*in.pool[std::size_t(p)],
                                     in.rhs[std::size_t(p)][0]));
    for (auto& h : hs) (void)h.get();
  };
  std::vector<ServeRecord> rec(in.seq.size());
  std::size_t next = 0;
  if (!o.trace) {
    Samples all;
    const double setup_s = run_segments(
        o, 1, [&] { svc.reset(); }, set_up, [&](const Options& seg) {
          ServePhase ph;
          run_requests_phase(*svc, in, next, seg, spans, ph, rec, out, &next);
          all.append(ph.s);
        });
    verify_requests(cfg, in, rec, o.seed, all, out);
    end_to_end(all, setup_s, 0.99, m);
    return;
  }

  set_up();
  ServePhase plain;
  Options phase = o;
  if (o.ops == 0) phase.seconds = o.seconds / 3.0;
  run_requests_phase(*svc, in, 0, phase, spans, plain, rec, out, &next);

  if (o.ops == 0) phase.seconds = o.seconds - phase.seconds;
  ServePhase traced;
  ServeStatsDelta st;
  st.a = svc->stats();
  const obs::KernelProfile k0 = obs::kernel_profile();
  spans.enable(true);
  const std::size_t first = next;
  run_requests_phase(*svc, in, first, phase, spans, traced, rec, out, &next);
  spans.enable(false);
  const obs::KernelProfile k1 = obs::kernel_profile();
  st.b = svc->stats();
  verify_requests(cfg, in, rec, o.seed, traced.s, out);

  KernelTotals k;
  k.add_delta(k0, k1);
  Layers l = serve_layers(*svc, st, k, plain, traced);
  pool_criteria(cfg, in.pool, l, det);
  if (det) {
    for (std::size_t i = first; i < next; ++i) {
      const Request& r = in.seq[i];
      det->sequence.add(in.matrix(r));
      det->sequence.add(in.b(r));
      const int priority = int(r.priority);
      det->sequence.add(&priority, sizeof priority);
    }
    det->counts["serve.hits"] = double(traced.s.hit.size());
    det->counts["serve.misses"] = double(traced.s.miss.size());
  }
  finish_trace(o, spans, l, m, out);
}

// --- serve-batch -----------------------------------------------------------
constexpr int kBurst = 256;
constexpr int kBatchPool = 64;
constexpr int kBatchOrders[] = {32, 48, 64, 96};

struct BatchInputs {
  std::vector<std::shared_ptr<const Matrix<double>>> pool;   // primed
  std::vector<std::shared_ptr<const Matrix<double>>> bases;  // never submitted
  std::vector<std::vector<Matrix<double>>> rhs;              // [order][4]
};

struct Member {
  bool fresh;
  int index;  // pool or base index
  int row, col;
  double delta;
  int rhs;
};

BatchInputs batch_inputs(std::uint64_t seed) {
  BatchInputs in;
  for (int p = 0; p < kBatchPool; ++p) {
    const int n = kBatchOrders[p % 4];
    in.pool.push_back(std::make_shared<const Matrix<double>>(
        gaussian(n, n, stream_seed(seed, 5000 + std::uint64_t(p)))));
    in.bases.push_back(std::make_shared<const Matrix<double>>(
        gaussian(n, n, stream_seed(seed, 6000 + std::uint64_t(p)))));
  }
  for (int o = 0; o < 4; ++o) {
    in.rhs.emplace_back();
    for (int r = 0; r < 4; ++r)
      in.rhs.back().push_back(gaussian(kBatchOrders[o], 1,
                                       stream_seed(seed, 7000 + std::uint64_t(4 * o + r))));
  }
  return in;
}

// Member j of a burst has order kBatchOrders[j % 4]; even members repeat a
// pool matrix of that order, odd ones perturb a never-submitted base.
std::vector<Member> burst_members(Rng& rng) {
  std::vector<Member> ms;
  for (int j = 0; j < kBurst; ++j) {
    const int order = j % 4;
    const int n = kBatchOrders[order];
    Member mb;
    mb.fresh = (j / 4) % 2 == 1;
    mb.index = order + 4 * rng.below(kBatchPool / 4);
    mb.row = rng.below(n);
    mb.col = rng.below(n);
    mb.delta = 1e-3 * (1.0 + rng.uniform());
    mb.rhs = rng.below(4);
    ms.push_back(mb);
  }
  return ms;
}

std::shared_ptr<const Matrix<double>> member_matrix(const BatchInputs& in,
                                                    const Member& mb) {
  if (!mb.fresh) return in.pool[std::size_t(mb.index)];
  auto a = std::make_shared<Matrix<double>>(*in.bases[std::size_t(mb.index)]);
  (*a)(mb.row, mb.col) += mb.delta;
  return a;
}

struct BatchSample {
  std::shared_ptr<const Matrix<double>> a;
  Matrix<double> b, x;
};

void run_batch_phase(serve::SolveService& svc, const BatchInputs& in, Rng& rng,
                     const Options& o, SpanLog& spans, ServePhase& ph,
                     std::vector<BatchSample>& sample, Rng& pick, Outcome& out,
                     Determinism* det) {
  const auto t_begin = Clock::now();
  ph.s.begin = t_begin;
  long burst = 0;
  while (!time_up(t_begin, o, burst)) {
    const std::vector<Member> members = burst_members(rng);
    std::vector<std::shared_ptr<const Matrix<double>>> as;
    std::vector<Matrix<double>> bs;
    for (const Member& mb : members) {
      as.push_back(member_matrix(in, mb));
      bs.push_back(in.rhs[std::size_t(mb.index % 4)][std::size_t(mb.rhs)]);
      if (det) {
        det->sequence.add(*as.back());
        det->sequence.add(bs.back());
      }
    }
    const std::vector<std::shared_ptr<const Matrix<double>>> keep_as = as;
    const std::vector<Matrix<double>> keep_bs = bs;
    out.attempted += kBurst;
    const int root = spans.open("burst", -1, std::uint64_t(burst));
    const int sp = spans.open("submit_many", root, std::uint64_t(burst));
    const auto t0 = Clock::now();
    std::vector<serve::JobHandle> hs;
    try {
      hs = svc.submit_many(std::move(as), std::move(bs));
    } catch (const std::exception& e) {
      out.fail(std::string("submit_many: ") + e.what());
      ++burst;
      continue;
    }
    const auto t1 = Clock::now();
    spans.close(sp, t1);
    ph.submit_us.push_back(1e3 * ms_between(t0, t1));
    std::vector<std::size_t> pending(hs.size());
    for (std::size_t k = 0; k < hs.size(); ++k) pending[k] = k;
    std::vector<Matrix<double>> xs(hs.size());
    Clock::time_point t_last = t1;
    while (!pending.empty()) {
      hs[pending.front()].wait_for(kPollUs);
      for (std::size_t q = 0; q < pending.size();) {
        const std::size_t k = pending[q];
        if (!terminal(hs[k].status())) {
          ++q;
          continue;
        }
        const auto t_done = Clock::now();  // the member's own completion
        t_last = t_done;
        try {
          serve::SolveReply rep = hs[k].get();
          const double lat = ms_between(t0, t_done);
          const double at = ph.s.at(t_done);
          ph.s.latency.push_back({at, lat});
          (rep.cache_hit ? ph.s.hit : ph.s.miss).push_back({at, lat});
          ph.queue_ms.push_back(double(rep.queue_us) * 1e-3);
          if (rep.cache_hit) ph.solve_ms.push_back(double(rep.solve_us) * 1e-3);
          if (rep.factor_us > 0) ph.factor_ms.push_back(double(rep.factor_us) * 1e-3);
          xs[k] = std::move(rep.x);
        } catch (const std::exception& e) {
          out.fail(std::string("batch member: ") + e.what());
        }
        pending[q] = pending.back();
        pending.pop_back();
      }
    }
    spans.close(root, t_last);
    ph.s.busy.push_back({ph.s.at(t_last), ms_between(t0, t_last)});
    // Verify every member (client think time, outside the burst's timer).
    for (std::size_t k = 0; k < xs.size(); ++k)
      if (xs[k].rows() > 0)
        check_hpl3(*keep_as[k], xs[k], keep_bs[k], ph.s, out, "batch member");
    if (sample.size() < std::size_t(kBitwiseSamples) && pick.below(8) == 0) {
      const std::size_t k = std::size_t(pick.below(kBurst));
      if (xs[k].rows() > 0) sample.push_back({keep_as[k], keep_bs[k], xs[k]});
    }
    ++burst;
  }
  ph.s.end = Clock::now();
}

void verify_batch_sample(const serve::ServiceConfig& cfg,
                         const std::vector<BatchSample>& sample, Outcome& out) {
  const Solver ref = reference_solver(cfg);
  for (const BatchSample& bsm : sample)
    if (!bitwise_equal(ref.solve(*bsm.a, bsm.b).x, bsm.x))
      out.fail("batch member differs bitwise from one-shot Solver::solve");
}

void run_serve_batch(const Options& o, Metrics& m, Outcome& out, Determinism* det) {
  const serve::ServiceConfig cfg = serve_config(32);
  const BatchInputs in = batch_inputs(o.seed);
  SpanLog spans(Clock::now());

  // Set-up: service construction plus priming the cache with the pool.
  std::unique_ptr<serve::SolveService> svc;
  const auto set_up = [&] {
    svc = std::make_unique<serve::SolveService>(cfg);
    std::vector<Matrix<double>> bs;
    for (int p = 0; p < kBatchPool; ++p) bs.push_back(in.rhs[std::size_t(p % 4)][0]);
    auto pool = in.pool;
    for (auto& h : svc->submit_many(std::move(pool), std::move(bs))) (void)h.get();
  };
  Rng rng(stream_seed(o.seed, 13)), pick(stream_seed(o.seed, 17));
  std::vector<BatchSample> sample;
  if (!o.trace) {
    Samples all;
    // Set-up is about 10 ms here, so it is repeated most.
    const double setup_s = run_segments(
        o, 3, [&] { svc.reset(); }, set_up, [&](const Options& seg) {
          ServePhase ph;
          run_batch_phase(*svc, in, rng, seg, spans, ph, sample, pick, out, det);
          all.append(ph.s);
        });
    verify_batch_sample(cfg, sample, out);
    // p90: the p99 of a burst's members is its two or three stragglers,
    // which a scheduling hiccup of a single burst sets.
    end_to_end(all, setup_s, 0.90, m);
    return;
  }

  set_up();
  ServePhase plain;
  Options phase = o;
  if (o.ops == 0) phase.seconds = o.seconds / 3.0;
  run_batch_phase(*svc, in, rng, phase, spans, plain, sample, pick, out, nullptr);

  if (o.ops == 0) phase.seconds = o.seconds - phase.seconds;
  ServePhase traced;
  ServeStatsDelta st;
  st.a = svc->stats();
  const obs::KernelProfile k0 = obs::kernel_profile();
  spans.enable(true);
  run_batch_phase(*svc, in, rng, phase, spans, traced, sample, pick, out, det);
  spans.enable(false);
  const obs::KernelProfile k1 = obs::kernel_profile();
  st.b = svc->stats();
  verify_batch_sample(cfg, sample, out);

  KernelTotals k;
  k.add_delta(k0, k1);
  Layers l = serve_layers(*svc, st, k, plain, traced);
  pool_criteria(cfg, in.pool, l, det);
  if (det) {
    det->counts["serve.hits"] = double(traced.s.hit.size());
    det->counts["serve.misses"] = double(traced.s.miss.size());
  }
  finish_trace(o, spans, l, m, out);
}

// ---------------------------------------------------------------------------
// Command line and result
// ---------------------------------------------------------------------------
void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const Outcome& out, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    std::printf("%s", i ? ", " : "");
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", vu.first);
    print_json_string(vu.second);
    std::printf("}");
  }
  std::printf("}}\n");
}

void print_determinism(const Determinism& d) {
  std::printf("DETERMINISM {\"sequence\": \"%016llx\"",
              static_cast<unsigned long long>(d.sequence.h));
  for (const auto& [k, v] : d.counts) std::printf(", \"%s\": %.17g", k.c_str(), v);
  std::printf("}\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v != "0";
    else if (k == "--ops") o.ops = std::stol(v);
    else if (k == "--trace-dir") o.trace_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    if (!parse(argc, argv, o)) {
      std::fprintf(stderr,
                   "usage: luqr_perfbench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> [--ops <n>] [--trace-dir <dir>]\n");
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "luqr_perfbench: malformed numeric argument\n");
    return 2;
  }
  Metrics m;
  Outcome out;
  Determinism det;
  Determinism* dp = o.ops > 0 ? &det : nullptr;
  try {
    if (o.workload == "hybrid-default")
      run_dense({1024, 128, false, 0.75, 1}, o, m, out, dp);
    else if (o.workload == "lu-fine")
      // p90, not p95: in a set of runs that met host steal, p95 spread by
      // 0.28 where p50 spread by 0.16.
      run_dense({1024, 64, true, 0.90, 3}, o, m, out, dp);
    else if (o.workload == "serve-requests")
      run_serve_requests(o, m, out, dp);
    else if (o.workload == "serve-batch")
      run_serve_batch(o, m, out, dp);
    else {
      std::fprintf(stderr, "luqr_perfbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    out.fail(std::string("harness: ") + e.what());
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  if (out.attempted == 0) out.fail("no operation attempted");
  if (dp) print_determinism(det);
  print_result(out, m);
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
