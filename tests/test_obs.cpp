// Tests for the observability layer (src/obs): wait-free sharded metric
// recording under concurrency, histogram quantile bounds, Prometheus and
// JSON exposition round-trips, the always-on kernel profiler, engine
// sampler start/stop races, live trace with job metadata, and end-to-end
// job spans surfaced through serve::SolveReply. Sized to stay
// sanitizer-friendly — the CI TSan job runs this whole binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "obs/kprof.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "runtime/engine.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"

namespace luqr::obs {
namespace {

using luqr::testing::random_matrix;

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(ObsCounter, ConcurrentShardedRecordingIsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
}

TEST(ObsGauge, SetAndConcurrentAdd) {
  Gauge g;
  g.set(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(0.5);
    });
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), 10.0 + 4 * 1000 * 0.5);
  g.add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0 + 4 * 1000 * 0.5);
}

TEST(ObsHistogram, ConcurrentRecordKeepsCountAndSum) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t + 1));
    });
  for (auto& th : threads) th.join();
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, std::uint64_t{kThreads} * kPerThread);
  // sum of t+1 for t in [0,8) is 36, times kPerThread recordings each.
  EXPECT_EQ(d.sum, std::uint64_t{36} * kPerThread);
  EXPECT_EQ(d.max, std::uint64_t{kThreads});
}

TEST(ObsHistogram, QuantileBounds) {
  Histogram h;
  // 90 fast recordings and 10 slow ones: p50 must sit in the fast bucket's
  // range, p99 in the slow one's. Power-of-2 buckets overestimate by at
  // most 2x, and the top quantile clamps to the observed max.
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(5000);
  const HistogramData d = h.snapshot();
  EXPECT_GE(d.quantile(0.5), 100u);
  EXPECT_LE(d.quantile(0.5), HistogramData::bucket_edge(Histogram::bucket_of(100)));
  EXPECT_GE(d.quantile(0.99), 5000u);
  EXPECT_LE(d.quantile(0.99), 5000u);  // clamped to observed max
  EXPECT_EQ(d.quantile(1.0), 5000u);
  EXPECT_EQ(d.max, 5000u);
  EXPECT_DOUBLE_EQ(d.mean(), (90.0 * 100 + 10.0 * 5000) / 100.0);
}

TEST(ObsHistogram, BucketEdgesArePowerOfTwoMinusOne) {
  EXPECT_EQ(HistogramData::bucket_edge(0), 1u);
  EXPECT_EQ(HistogramData::bucket_edge(1), 3u);
  EXPECT_EQ(HistogramData::bucket_edge(9), 1023u);
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 0);
  EXPECT_EQ(Histogram::bucket_of(2), 1);
  // Every value lands in a bucket whose edge is >= the value.
  for (std::uint64_t v : {1u, 7u, 100u, 4096u, 1000000u})
    EXPECT_GE(HistogramData::bucket_edge(Histogram::bucket_of(v)), v);
}

TEST(ObsRegistry, SameNameAndLabelsReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("test_series", {{"k", "v"}});
  Counter& b = reg.counter("test_series", {{"k", "v"}});
  Counter& c = reg.counter("test_series", {{"k", "other"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(c.value(), 0u);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 2u);
}

// The (name, labels) index: identity per kind over many series, distinct
// objects for distinct labels, snapshot order = registration order, and the
// first non-empty help sticks.
TEST(ObsRegistry, KeyedLookupKeepsIdentityOrderAndHelp) {
  Registry reg;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> hists;
  for (int k = 0; k < 300; ++k) {
    const Labels l{{"service", std::to_string(k)}};
    counters.push_back(&reg.counter("c_total", l));
    gauges.push_back(&reg.gauge("g", l));
    hists.push_back(&reg.histogram("h_us", l));
  }
  for (int k = 0; k < 300; ++k) {
    const Labels l{{"service", std::to_string(k)}};
    EXPECT_EQ(&reg.counter("c_total", l), counters[size_t(k)]);
    EXPECT_EQ(&reg.gauge("g", l), gauges[size_t(k)]);
    EXPECT_EQ(&reg.histogram("h_us", l), hists[size_t(k)]);
    if (k > 0) {
      EXPECT_NE(counters[size_t(k)], counters[size_t(k - 1)]);
      EXPECT_NE(gauges[size_t(k)], gauges[size_t(k - 1)]);
      EXPECT_NE(hists[size_t(k)], hists[size_t(k - 1)]);
    }
  }
  // Label order is part of the key; the name alone is not.
  Counter& ab = reg.counter("pair", {{"a", "1"}, {"b", "2"}});
  Counter& ba = reg.counter("pair", {{"b", "2"}, {"a", "1"}});
  EXPECT_NE(&ab, &ba);
  EXPECT_NE(&reg.counter("pair"), &ab);
  // Help: empty on first registration, filled by a later one, then kept.
  reg.counter("late_help_total", {}, "");
  reg.counter("late_help_total", {}, "first");
  reg.counter("late_help_total", {}, "second");
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 300u + 3u + 1u);
  ASSERT_EQ(snap.gauges.size(), 300u);
  ASSERT_EQ(snap.histograms.size(), 300u);
  for (size_t k = 0; k < 300; ++k) {
    EXPECT_EQ(snap.counters[k].labels[0].second, std::to_string(k));
    EXPECT_EQ(snap.gauges[k].labels[0].second, std::to_string(k));
    EXPECT_EQ(snap.histograms[k].labels[0].second, std::to_string(k));
  }
  EXPECT_EQ(snap.counters[300].labels, (Labels{{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(snap.counters[301].labels, (Labels{{"b", "2"}, {"a", "1"}}));
  EXPECT_TRUE(snap.counters[302].labels.empty());
  EXPECT_EQ(snap.counters[303].name, "late_help_total");
  EXPECT_EQ(snap.counters[303].help, "first");
}

TEST(ObsRegistry, ConcurrentRegistrationIsRaceFree) {
  Registry reg;
  std::vector<std::thread> threads;
  std::atomic<int> total{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&reg, &total, t] {
      for (int i = 0; i < 200; ++i) {
        Counter& c = reg.counter("shared", {{"lane", std::to_string(i % 4)}});
        c.add(1);
        reg.gauge("g" + std::to_string(t)).set(t);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& th : threads) th.join();
  const Snapshot snap = reg.snapshot();
  std::uint64_t sum = 0;
  for (const auto& c : snap.counters) sum += c.value;
  EXPECT_EQ(sum, static_cast<std::uint64_t>(total.load()));
  EXPECT_EQ(snap.counters.size(), 4u);  // one per lane label
  EXPECT_EQ(snap.gauges.size(), 8u);
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

TEST(ObsExport, PrometheusRoundTrip) {
  Registry reg;
  reg.counter("rt_jobs_total", {{"kind", "solve"}}, "jobs").add(7);
  reg.gauge("rt_depth", {}, "queue depth").set(3.5);
  Histogram& h = reg.histogram("rt_lat_us", {}, "latency");
  for (int i = 0; i < 10; ++i) h.record(100);
  h.record(5000);

  const std::string text = to_prometheus(reg.snapshot());

  // Parse the exposition back and verify the numbers survive.
  std::istringstream in(text);
  std::string line;
  bool saw_counter = false, saw_gauge = false, saw_count = false,
       saw_sum = false, saw_inf = false;
  std::uint64_t last_bucket = 0;
  int help_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP", 0) == 0) ++help_lines;
    if (line.rfind("rt_jobs_total{kind=\"solve\"} ", 0) == 0) {
      EXPECT_EQ(std::stoull(line.substr(line.rfind(' ') + 1)), 7u);
      saw_counter = true;
    }
    if (line.rfind("rt_depth ", 0) == 0) {
      EXPECT_DOUBLE_EQ(std::stod(line.substr(line.rfind(' ') + 1)), 3.5);
      saw_gauge = true;
    }
    if (line.rfind("rt_lat_us_bucket{", 0) == 0) {
      // Cumulative buckets must be non-decreasing.
      const std::uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(v, last_bucket);
      last_bucket = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) {
        EXPECT_EQ(v, 11u);
        saw_inf = true;
      }
    }
    if (line.rfind("rt_lat_us_count ", 0) == 0) {
      EXPECT_EQ(std::stoull(line.substr(line.rfind(' ') + 1)), 11u);
      saw_count = true;
    }
    if (line.rfind("rt_lat_us_sum ", 0) == 0) {
      EXPECT_EQ(std::stoull(line.substr(line.rfind(' ') + 1)), 6000u);
      saw_sum = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(help_lines, 3);  // one HELP per family, never repeated
}

TEST(ObsExport, JsonSnapshotContainsSeries) {
  Registry reg;
  reg.counter("js_total", {{"class", "gemm"}}).add(42);
  Histogram& h = reg.histogram("js_us");
  h.record(100);
  const std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("\"ts_us\""), std::string::npos);
  EXPECT_NE(json.find("\"js_total\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"js_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check.
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsExport, SnapshotWriterProducesFilesAndStops) {
  const std::string json_path = ::testing::TempDir() + "luqr_obs_snap.json";
  const std::string prom_path = ::testing::TempDir() + "luqr_obs_snap.prom";
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
  {
    SnapshotWriter::Options opt;
    opt.json_path = json_path;
    opt.prom_path = prom_path;
    opt.period_ms = 20;
    SnapshotWriter writer(opt);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    writer.stop();
    EXPECT_GE(writer.snapshots_written(), 1u);
    writer.stop();  // idempotent
  }
  std::ifstream jf(json_path), pf(prom_path);
  EXPECT_TRUE(jf.good());
  EXPECT_TRUE(pf.good());
  std::string first_line;
  std::getline(jf, first_line);
  EXPECT_NE(first_line.find("ts_us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kernel profiler
// ---------------------------------------------------------------------------

TEST(ObsKprof, SolveIncrementsKernelCounters) {
  if (!kernel_profiler_enabled()) GTEST_SKIP() << "LUQR_KPROF=0 in environment";
  const KernelProfile before = kernel_profile();

  const auto a = random_matrix(96, 96, 7001);
  const auto b = random_matrix(96, 1, 7002);
  const Solver solver(SolverConfig()
                          .criterion(CriterionSpec::max(50.0))
                          .tile_size(32)
                          .backend(Backend::Serial));
  const auto r = solver.solve(a, b);
  ASSERT_EQ(r.x.rows(), 96);

  const KernelProfile after = kernel_profile();
  std::uint64_t call_delta = 0, time_before = 0, time_after = 0;
  for (int k = 0; k < kKernelClassCount; ++k) {
    EXPECT_GE(after[size_t(k)].calls, before[size_t(k)].calls)
        << kernel_class_label(static_cast<KernelClass>(k));
    EXPECT_GE(after[size_t(k)].time_us, before[size_t(k)].time_us);
    call_delta += after[size_t(k)].calls - before[size_t(k)].calls;
    time_before += before[size_t(k)].time_us;
    time_after += after[size_t(k)].time_us;
  }
  EXPECT_GT(call_delta, 0u);  // a 96x96 tiled solve dispatches many kernels
  EXPECT_GE(time_after, time_before);
}

TEST(ObsKprof, ExactWidthSolveCountsGemmCalls) {
  // The wide solve's replay and back-substitution GEMMs go through the
  // profiled kern::gemm entry: a one-column solve of a retained all-LU
  // factorization must show up in the gemm class.
  if (!kernel_profiler_enabled()) GTEST_SKIP() << "LUQR_KPROF=0 in environment";
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 96, 7003);
  const Solver solver(SolverConfig()
                          .criterion(CriterionSpec::max(100.0))
                          .tile_size(32)
                          .backend(Backend::Serial));
  const core::Factorization fac = solver.factor(a);
  ASSERT_EQ(fac.stats().qr_steps, 0);
  const auto b = random_matrix(96, 1, 7004);
  const auto gemm = static_cast<std::size_t>(KernelClass::Gemm);
  const std::uint64_t before = kernel_profile()[gemm].calls;
  const auto x = fac.solve(b);
  ASSERT_EQ(x.rows(), 96);
  EXPECT_GT(kernel_profile()[gemm].calls, before);
}

TEST(ObsKprof, ClassLabelsAreStable) {
  std::set<std::string> labels;
  for (int k = 0; k < kKernelClassCount; ++k) {
    const char* l = kernel_class_label(static_cast<KernelClass>(k));
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(labels.insert(l).second) << "duplicate label " << l;
  }
  EXPECT_EQ(labels.count("gemm"), 1u);
  EXPECT_EQ(labels.count("getrf"), 1u);
}

// ---------------------------------------------------------------------------
// Driver series
// ---------------------------------------------------------------------------

TEST(ObsDriver, FactorAddsConvertTime) {
  // Solver::factor tiles A in the step graph's convert stage; its tasks sum
  // their time into the registry.
  Counter& convert = Registry::global().counter("luqr_driver_convert_us_total");
  for (Backend backend : {Backend::Serial, Backend::Parallel}) {
    const std::uint64_t before = convert.value();
    const auto a = random_matrix(512, 512, 7101);
    const Solver solver(SolverConfig()
                            .criterion(CriterionSpec::max(100.0))
                            .tile_size(64)
                            .backend(backend)
                            .threads(2));
    (void)solver.factor(a);
    EXPECT_GT(convert.value(), before) << static_cast<int>(backend);
  }
}

// ---------------------------------------------------------------------------
// Engine sampler + live trace
// ---------------------------------------------------------------------------

TEST(ObsSampler, StartStopRacesWithRunningEngine) {
  rt::Engine engine(2);
  std::atomic<bool> quit{false};
  std::thread load([&engine, &quit] {
    while (!quit.load(std::memory_order_relaxed)) {
      std::vector<rt::TaskId> ids;
      ids.reserve(16);
      for (int i = 0; i < 16; ++i)
        ids.push_back(engine.submit(
            [] {
              volatile double x = 1.0;
              for (int j = 0; j < 500; ++j) x = x * 1.0000001;
            },
            {}, {"obs-load"}));
      for (auto id : ids) engine.wait(id);
    }
  });
  // Rapid start/stop cycles while the engine is live; also two concurrent
  // samplers with distinct labels (distinct gauge series, no aliasing).
  for (int cycle = 0; cycle < 5; ++cycle) {
    EngineSampler::Options opt;
    opt.label = "test-a";
    opt.period_ms = 5;
    EngineSampler a(engine, opt);
    opt.label = "test-b";
    EngineSampler b(engine, opt);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    a.stop();
    a.stop();  // idempotent
    // b stops via destructor
  }
  quit.store(true);
  load.join();
  Registry& reg = Registry::global();
  const Snapshot snap = reg.snapshot();
  bool saw_a = false, saw_b = false;
  for (const auto& g : snap.gauges)
    for (const auto& l : g.labels) {
      if (l.second == "test-a") saw_a = true;
      if (l.second == "test-b") saw_b = true;
    }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(ObsTrace, LiveConsumeCarriesJobIds) {
  rt::EngineOptions opt;
  opt.trace = true;
  rt::Engine engine(2, opt);
  for (int i = 0; i < 8; ++i) {
    engine.wait(engine.submit(
        [] {}, {},
        {"traced", /*priority=*/0, /*tag=*/i, /*job=*/std::uint64_t(100 + i)}));
  }
  // consume_trace drains incrementally on a live engine: first call sees
  // the events, the second sees only what ran in between (nothing here).
  const auto events = engine.consume_trace();
  ASSERT_EQ(events.size(), 8u);
  std::set<std::uint64_t> jobs;
  for (const auto& e : events) {
    EXPECT_EQ(e.name, "traced");
    EXPECT_LE(e.start_us, e.end_us);
    jobs.insert(e.job);
  }
  EXPECT_EQ(jobs.size(), 8u);
  EXPECT_EQ(*jobs.begin(), 100u);
  EXPECT_TRUE(engine.consume_trace().empty());
  // trace() after consume_trace() reflects the drained state too.
  EXPECT_TRUE(engine.trace().empty());
}

// ---------------------------------------------------------------------------
// Serve job spans
// ---------------------------------------------------------------------------

TEST(ObsSpans, ReplyPhasesRespectWallClock) {
  serve::ServiceConfig cfg;
  cfg.solver = SolverConfig()
                   .criterion(CriterionSpec::max(50.0))
                   .tile_size(16)
                   .grid(2, 2);
  cfg.threads = 2;
  cfg.sampler_period_ms = 10;  // exercise the embedded sampler too
  serve::SolveService svc(cfg);

  std::vector<serve::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    // Alternate two matrices: both hit and miss paths produce spans.
    const auto a = random_matrix(32, 32, 9100 + (i % 2));
    const auto b = random_matrix(32, 1, 9200 + i);
    handles.push_back(svc.submit_solve(a, b));
  }
  std::set<std::uint64_t> ids;
  for (auto& h : handles) {
    const serve::SolveReply reply = h.get();
    EXPECT_GT(reply.job_id, 0u);
    EXPECT_TRUE(ids.insert(reply.job_id).second) << "job ids must be unique";
    // The span invariant: phase work is contained in the job's wall time.
    const std::uint64_t wall = reply.queue_us + reply.exec_us;
    EXPECT_LE(reply.factor_us + reply.solve_us, wall);
    EXPECT_LE(reply.refine_us, reply.exec_us + 1);
    if (reply.cache_hit) {
      EXPECT_EQ(reply.factor_us, 0u);
    }
  }

  // The spans also aggregate into global registry histograms.
  const Snapshot snap = Registry::global().snapshot();
  bool saw_latency = false;
  for (const auto& h : snap.histograms)
    if (h.name == "luqr_serve_job_latency_us" && h.data.count >= 6)
      saw_latency = true;
  EXPECT_TRUE(saw_latency);
  bool saw_submitted = false;
  for (const auto& c : snap.counters)
    if (c.name == "luqr_serve_jobs_submitted_total" && c.value >= 6)
      saw_submitted = true;
  EXPECT_TRUE(saw_submitted);
}

TEST(ObsSpans, BatchMembersShareJobPhases) {
  serve::ServiceConfig cfg;
  cfg.solver = SolverConfig().criterion(CriterionSpec::max(50.0)).tile_size(16);
  cfg.threads = 2;
  cfg.sampler_period_ms = 0;  // and without the sampler
  serve::SolveService svc(cfg);

  const auto a = random_matrix(32, 32, 9500);
  std::vector<Matrix<double>> bs;
  for (int i = 0; i < 4; ++i) bs.push_back(random_matrix(32, 1, 9600 + i));
  auto handles = svc.submit_batch(a, std::move(bs));
  ASSERT_EQ(handles.size(), 4u);
  for (auto& h : handles) {
    const serve::SolveReply reply = h.get();
    EXPECT_GT(reply.job_id, 0u);
    const std::uint64_t wall = reply.queue_us + reply.exec_us;
    EXPECT_LE(reply.factor_us + reply.solve_us, wall);
  }
}

TEST(ObsSpans, EachServiceCountsInItsOwnLabelledSeries) {
  // Two services live at once, traffic on one only: the registry keeps a
  // label set per service, and each service's stats() reads its own.
  serve::ServiceConfig cfg;
  cfg.solver = SolverConfig().criterion(CriterionSpec::max(50.0)).tile_size(16);
  cfg.threads = 2;
  cfg.sampler_period_ms = 0;
  serve::SolveService busy(cfg);
  serve::SolveService idle(cfg);
  ASSERT_NE(busy.service_id(), idle.service_id());

  std::vector<serve::JobHandle> handles;
  for (int i = 0; i < 5; ++i)
    handles.push_back(busy.submit_solve(random_matrix(32, 32, 9700 + (i % 2)),
                                        random_matrix(32, 1, 9800 + i)));
  handles.push_back(busy.submit_factor(random_matrix(32, 32, 9702)));
  for (auto& h : handles) h.get();

  const serve::ServiceStats bs = busy.stats();
  EXPECT_EQ(bs.submitted, 6u);
  EXPECT_EQ(bs.completed, 6u);
  EXPECT_GT(bs.latency_max_us, 0u);

  const serve::ServiceStats is = idle.stats();
  for (const std::uint64_t v :
       {is.submitted, is.completed, is.failed, is.cancelled, is.rejected,
        is.shed, is.retries, is.watchdog_trips, is.memory_pressure,
        is.faults_injected, is.batches, is.batch_members, is.fused_rhs_columns,
        is.batched_jobs, is.batches_executed, is.batch_hits_skimmed,
        is.factors_coarse, is.factors_inline_parallel, is.refine_fallbacks,
        is.latency_p50_us, is.latency_p99_us, is.latency_max_us,
        is.exec_p50_us, is.exec_p99_us})
    EXPECT_EQ(v, 0u);
  EXPECT_EQ(is.latency_mean_us, 0.0);

  const Snapshot snap = Registry::global().snapshot();
  const auto label = [](const serve::SolveService& svc) {
    return Labels{{"service", std::to_string(svc.service_id())}};
  };
  const auto counter = [&](const char* name, const Labels& labels) {
    for (const auto& c : snap.counters)
      if (c.name == name && c.labels == labels) return c.value;
    ADD_FAILURE() << "no series " << name;
    return ~std::uint64_t{0};
  };
  const auto latency = [&](const Labels& labels) {
    for (const auto& h : snap.histograms)
      if (h.name == "luqr_serve_job_latency_us" && h.labels == labels)
        return h.data;
    ADD_FAILURE() << "no latency series";
    return HistogramData{};
  };
  for (const auto* svc : {&busy, &idle}) {
    const serve::ServiceStats st = svc->stats();
    EXPECT_EQ(counter("luqr_serve_jobs_submitted_total", label(*svc)),
              st.submitted);
    EXPECT_EQ(counter("luqr_serve_jobs_completed_total", label(*svc)),
              st.completed);
    const HistogramData lat = latency(label(*svc));
    EXPECT_EQ(lat.count, st.completed);  // every job here reached Done
    EXPECT_EQ(lat.quantile(0.50), st.latency_p50_us);
    EXPECT_EQ(lat.max, st.latency_max_us);
    // Each service's cache counts in its own series too, and its stats()
    // reads them back.
    EXPECT_EQ(counter("luqr_cache_hits_total", label(*svc)), st.cache.hits);
    EXPECT_EQ(counter("luqr_cache_misses_total", label(*svc)),
              st.cache.misses);
    EXPECT_EQ(counter("luqr_cache_inserts_total", label(*svc)),
              st.cache.inserts);
    double entries = -1.0;
    for (const auto& g : snap.gauges)
      if (g.name == "luqr_cache_entries" && g.labels == label(*svc))
        entries = g.value;
    EXPECT_EQ(entries, static_cast<double>(st.cache.entries));
  }
  // Two distinct solve matrices and one factor matrix: three entries, and
  // every job probed at least once (a repeat that attached to a pending
  // factorization probed and missed). The idle service's cache saw none.
  const serve::ServiceStats busy_st = busy.stats();
  EXPECT_GE(busy_st.cache.misses, 3u);
  EXPECT_GE(busy_st.cache.hits + busy_st.cache.misses, 6u);
  EXPECT_EQ(busy_st.cache.inserts, 3u);
  EXPECT_EQ(busy_st.cache.entries, 3u);
  const serve::ServiceStats idle_st = idle.stats();
  EXPECT_EQ(idle_st.cache.hits + idle_st.cache.misses + idle_st.cache.inserts,
            0u);
  EXPECT_EQ(idle_st.cache.entries, 0u);
}

}  // namespace
}  // namespace luqr::obs
