// luqr_serve — stress driver for the serve::SolveService subsystem.
//
//   luqr_serve [options]
//
//   --clients N       client threads (default 8)
//   --requests M      requests per client (default 25; total = N*M)
//   --sizes a,b,c     matrix-order pool (default 32,48,64,96)
//   --pool K          distinct matrices in the pool (default 8; reuse
//                     across requests is what exercises the cache)
//   --nb V            tile size (default 32)
//   --threads T       engine workers (default: hardware)
//   --dispatchers D   queue dispatchers (default 1)
//   --queue Q         admission-queue capacity (default 256)
//   --cache-mb MB     factorization-cache budget (default 256)
//   --reject          reject-when-full admission instead of blocking
//   --batch K         fold every K-th request into a K-member fused batch
//                     (default 0 = no batching)
//   --many K          fold every K-th request into a K-member submit_many
//                     call with mixed pool picks (default 0 = off); this
//                     exercises the chunked submit_many route
//   --small-mix       small-problem preset: sizes 16..128, submit_many
//                     groups of 8, verification on — the chunked-batch
//                     stress shape CI runs under TSan
//   --verify          check every result bitwise against a one-shot
//                     luqr::Solver reference (results are collected during
//                     the run and verified after it, outside the timed
//                     region, so the throughput numbers measure the service)
//   --stress          acceptance preset: >= 8 clients x >= 25 requests,
//                     --verify on, nonzero exit on any mismatch/failure
//   --seed S          matrix/rhs seed base (default 1)
//   --metrics-json F  write periodic JSON metrics snapshots to F (atomic
//                     tmp+rename; luqr_top watches this file)
//   --metrics-prom F  write periodic Prometheus text snapshots to F
//   --metrics-period MS  snapshot period in ms (default 500)
//
// Resilience harnesses (self-contained modes; other load flags ignored):
//   --fault-sweep     run a seeded chaos sweep: every fault site family
//                     armed (alloc failures, NaN/singular kernel faults,
//                     task delays/stalls, serve throws/drops/delays), a
//                     mixed workload of every job shape (solves, factor
//                     jobs, submit_batch, submit_many) with deadlines +
//                     cancellations per seed, then assert the accounting balance
//                     (submitted == completed+failed+cancelled+rejected+
//                     shed) and that a fresh solve on the SAME service is
//                     bitwise-identical to a one-shot Solver after the
//                     plan is uninstalled (no residual poisoning)
//   --sweep-seeds N   seeds per sweep (default 16)
//   --fault-seed S    first sweep seed (default 1)
//   --slo-demo        overload demo: flood of tight-deadline Batch jobs +
//                     closed-loop trickle of loose-deadline Interactive
//                     jobs; assert Interactive p99 stays under its
//                     deadline while Batch sheds absorb the overload
//
// Prints the full service telemetry snapshot at the end (queue depth,
// cache hit rate, latency percentiles, jobs/s, workspace bytes); exits
// nonzero if any job failed, any verification mismatched, or (stress mode)
// the run shape fell short of the acceptance floor.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "luqr.hpp"
#include "obs/export.hpp"
#include "serve/service.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--clients N] [--requests M] [--sizes a,b,c] [--pool K]\n"
               "       [--nb V] [--threads T] [--dispatchers D] [--queue Q]\n"
               "       [--cache-mb MB] [--reject] [--batch K] [--many K]\n"
               "       [--small-mix] [--verify] [--stress] [--seed S]\n"
               "       [--metrics-json F] [--metrics-prom F] "
               "[--metrics-period MS]\n"
               "       [--fault-sweep] [--sweep-seeds N] [--fault-seed S] "
               "[--slo-demo]\n",
               argv0);
  std::exit(2);
}

std::vector<int> parse_sizes(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos
                                                ? std::string::npos
                                                : comma - pos);
    out.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool bitwise_equal(const luqr::Matrix<double>& a, const luqr::Matrix<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

// Seeded chaos sweep: every instrumented fault family armed at once against
// a mixed workload. The point is not that any particular fault fires but
// that whatever does fire, the service neither crashes, hangs, loses a job
// from its books, nor keeps a poisoned factorization around afterwards.
int run_fault_sweep(std::uint64_t first_seed, int nseeds, int nb) {
  using namespace luqr;
  serve::ServiceConfig cfg;
  cfg.solver =
      SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb).grid(2, 2);
  cfg.threads = 2;
  cfg.dispatchers = 2;
  cfg.queue_capacity = 128;
  cfg.cache_bytes = 32u << 20;
  cfg.max_retries = 2;
  cfg.retry_backoff_us = 200;
  cfg.watchdog_period_ms = 2;
  cfg.watchdog_wall_multiple = 4;
  // Every job gets a hard wall, so dropped jobs are always guarded: the
  // watchdog force-fails them instead of letting a client hang.
  cfg.hard_wall_us = 400000;
  const Solver reference(cfg.solver);

  const int sizes[4] = {24, 32, 48, 64};
  constexpr int kClients = 3, kRequests = 14, kPool = 6;
  int bad_seeds = 0;

  for (int s = 0; s < nseeds; ++s) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(s);
    fault::FaultPlan plan(seed);
    plan.arm({fault::site::kWorkspaceAlloc, 0.02});
    plan.arm({fault::site::kTileAlloc, 0.02});
    plan.arm({fault::site::kGemmNan, 0.01, 3});
    plan.arm({fault::site::kGetrfSingular, 0.01, 2});
    plan.arm({fault::site::kTaskDelay, 0.05, ~std::uint64_t{0}, 0, 200});
    plan.arm({fault::site::kTaskStall, 0.01, 4, 0, 5000});
    plan.arm({fault::site::kServeTask, 0.05});
    plan.arm({fault::site::kServeDrop, 0.02, 4});
    plan.arm({fault::site::kServeDelay, 0.05, ~std::uint64_t{0}, 0, 200});

    std::vector<Matrix<double>> pool;
    for (int i = 0; i < kPool; ++i)
      pool.push_back(gen::generate(gen::MatrixKind::Random, sizes[i % 4],
                                   seed * 100 + static_cast<std::uint64_t>(i)));

    serve::SolveService svc(cfg);
    std::mutex hmu;
    std::vector<serve::JobHandle> handles;
    {
      fault::ScopedPlan guard(plan);
      auto client = [&](int id) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(id));
        for (int r = 0; r < kRequests; ++r) {
          std::vector<serve::JobHandle> mine;
          try {
            if (r % 5 == 4) {
              // A submit_many group: queued chunks + chunk tasks under
              // fault fire (members are non-retryable; they must still
              // settle one way or the other).
              std::vector<Matrix<double>> as, bs;
              for (int k = 0; k < 4; ++k) {
                const Matrix<double>& a = pool[static_cast<std::size_t>(
                    static_cast<int>(rng.uniform() * kPool) % kPool)];
                Matrix<double> b(a.rows(), 1);
                for (int i = 0; i < a.rows(); ++i) b(i, 0) = rng.gaussian();
                as.push_back(a);
                bs.push_back(std::move(b));
              }
              mine = svc.submit_many(as, bs, serve::Priority::Batch);
            } else if (r % 5 == 1) {
              // A 2-3 member submit_batch: one queued job whose members
              // share a factorization (non-retryable, settled one by one).
              const Matrix<double>& a = pool[static_cast<std::size_t>(
                  (id * kRequests + r) % kPool)];
              std::vector<Matrix<double>> bs;
              const int members = 2 + static_cast<int>(rng.uniform() * 2);
              for (int k = 0; k < members; ++k) {
                Matrix<double> b(a.rows(), 1 + k % 2);
                for (int j = 0; j < b.cols(); ++j)
                  for (int i = 0; i < a.rows(); ++i) b(i, j) = rng.gaussian();
                bs.push_back(std::move(b));
              }
              mine = svc.submit_batch(a, std::move(bs),
                                      static_cast<serve::Priority>(r % 3));
            } else {
              const Matrix<double>& a = pool[static_cast<std::size_t>(
                  (id * kRequests + r) % kPool)];
              serve::SubmitOptions opt;
              opt.priority = static_cast<serve::Priority>(r % 3);
              if (r % 7 == 3) opt.deadline_us = 1;  // born expired: must shed
              else if (r % 7 == 5) opt.deadline_us = 100000;
              if (r % 5 == 3) {
                mine.push_back(svc.submit_factor(a, opt));  // warms the cache
              } else {
                Matrix<double> b(a.rows(), 1 + r % 2);
                for (int j = 0; j < b.cols(); ++j)
                  for (int i = 0; i < a.rows(); ++i) b(i, j) = rng.gaussian();
                mine.push_back(svc.submit_solve(a, std::move(b), opt));
              }
            }
            if (r % 6 == 2 && !mine.empty()) mine.front().cancel();
            for (auto& h : mine) h.wait_for(50000);  // bounded; drain settles
          } catch (const std::exception& e) {
            std::fprintf(stderr, "sweep seed %llu client %d: submit: %s\n",
                         static_cast<unsigned long long>(seed), id, e.what());
          }
          std::lock_guard<std::mutex> lock(hmu);
          for (auto& h : mine) handles.push_back(std::move(h));
        }
      };
      std::vector<std::thread> ts;
      for (int c = 0; c < kClients; ++c) ts.emplace_back(client, c);
      for (auto& t : ts) t.join();
      svc.drain();
    }  // plan uninstalled; service still alive

    bool ok = true;
    for (const auto& h : handles) {
      const serve::JobStatus st = h.status();
      if (st == serve::JobStatus::Queued || st == serve::JobStatus::Running) {
        std::fprintf(stderr, "seed %llu: non-terminal job after drain\n",
                     static_cast<unsigned long long>(seed));
        ok = false;
      }
    }
    const serve::ServiceStats st = svc.stats();
    const std::uint64_t settled =
        st.completed + st.failed + st.cancelled + st.rejected + st.shed;
    if (st.submitted != settled) {
      std::fprintf(stderr,
                   "seed %llu: accounting IMBALANCE submitted=%llu settled=%llu "
                   "(done=%llu fail=%llu cancel=%llu reject=%llu shed=%llu)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(st.submitted),
                   static_cast<unsigned long long>(settled),
                   static_cast<unsigned long long>(st.completed),
                   static_cast<unsigned long long>(st.failed),
                   static_cast<unsigned long long>(st.cancelled),
                   static_cast<unsigned long long>(st.rejected),
                   static_cast<unsigned long long>(st.shed));
      ok = false;
    }
    // Every pending factorization an owner registered was flushed (factor
    // error, all members refused, shutdown alike).
    if (st.pending_factorizations != 0) {
      std::fprintf(stderr, "seed %llu: %zu pending factorizations left\n",
                   static_cast<unsigned long long>(seed),
                   st.pending_factorizations);
      ok = false;
    }

    // Post-sweep correctness on the SAME service: a fresh system must come
    // back bitwise-identical to the one-shot reference — no poisoned cache
    // entry, stuck degraded admission, or leaked fault state.
    try {
      Matrix<double> a =
          gen::generate(gen::MatrixKind::Random, 48, seed * 1000 + 999);
      Matrix<double> b(48, 2);
      Rng brng(seed * 1000 + 998);
      for (int j = 0; j < 2; ++j)
        for (int i = 0; i < 48; ++i) b(i, j) = brng.gaussian();
      Matrix<double> got = svc.submit_solve(a, b, serve::SubmitOptions{}).get().x;
      if (!bitwise_equal(got, reference.solve(a, b).x)) {
        std::fprintf(stderr, "seed %llu: post-sweep solve NOT bitwise-equal\n",
                     static_cast<unsigned long long>(seed));
        ok = false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "seed %llu: post-sweep solve failed: %s\n",
                   static_cast<unsigned long long>(seed), e.what());
      ok = false;
    }

    std::printf("seed %-4llu %s  fires=%llu (alloc=%llu nan=%llu sing=%llu "
                "throw=%llu drop=%llu)  done=%llu fail=%llu cancel=%llu "
                "shed=%llu retries=%llu trips=%llu pressure=%llu health=%d\n",
                static_cast<unsigned long long>(seed), ok ? "ok  " : "FAIL",
                static_cast<unsigned long long>(plan.total_fires()),
                static_cast<unsigned long long>(
                    plan.fires(fault::site::kWorkspaceAlloc) +
                    plan.fires(fault::site::kTileAlloc)),
                static_cast<unsigned long long>(plan.fires(fault::site::kGemmNan)),
                static_cast<unsigned long long>(
                    plan.fires(fault::site::kGetrfSingular)),
                static_cast<unsigned long long>(plan.fires(fault::site::kServeTask)),
                static_cast<unsigned long long>(plan.fires(fault::site::kServeDrop)),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.cancelled),
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(st.watchdog_trips),
                static_cast<unsigned long long>(st.memory_pressure),
                static_cast<int>(st.health));
    if (!ok) ++bad_seeds;
  }
  std::printf("fault-sweep: %d/%d seeds clean\n", nseeds - bad_seeds, nseeds);
  return bad_seeds == 0 ? 0 : 1;
}

// Overload demo: Batch flood with deadlines it cannot possibly meet plus a
// closed-loop Interactive trickle with a loose deadline. Healthy behavior is
// load shedding doing its job: Batch sheds absorb the overload while the
// Interactive p99 stays inside its SLO.
int run_slo_demo(int nb, const std::string& prom_path) {
  using namespace luqr;
  serve::ServiceConfig cfg;
  cfg.solver =
      SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb).grid(2, 2);
  cfg.threads = 2;
  cfg.dispatchers = 2;
  cfg.queue_capacity = 512;
  cfg.max_inflight = 2;  // scarce admission: the overload has to queue
  const std::uint64_t kBatchDeadlineUs = 5000;
  const std::uint64_t kInterDeadlineUs = 1000000;
  constexpr int kBatchJobs = 150, kInterJobs = 40;

  std::unique_ptr<obs::SnapshotWriter> writer;
  if (!prom_path.empty()) {
    obs::SnapshotWriter::Options wopt;
    wopt.prom_path = prom_path;
    wopt.period_ms = 200;
    writer = std::make_unique<obs::SnapshotWriter>(wopt);
  }

  std::vector<std::uint64_t> inter_lat_us;
  std::uint64_t sheds = 0;
  int inter_failed = 0;
  {
    serve::SolveService svc(cfg);

    std::thread flood([&] {
      // Distinct matrices (the cache cannot absorb the flood for free),
      // generated BEFORE submission so the burst hits the queue at once —
      // queue wait, not generation, is what blows the tight deadline.
      Rng rng(7);
      std::vector<Matrix<double>> as, bs;
      for (int i = 0; i < kBatchJobs; ++i) {
        as.push_back(gen::generate(gen::MatrixKind::Random, 96,
                                   1000 + static_cast<std::uint64_t>(i)));
        Matrix<double> b(96, 1);
        for (int r = 0; r < 96; ++r) b(r, 0) = rng.gaussian();
        bs.push_back(std::move(b));
      }
      for (int i = 0; i < kBatchJobs; ++i) {
        serve::SubmitOptions opt;
        opt.priority = serve::Priority::Batch;
        opt.deadline_us = kBatchDeadlineUs;
        svc.submit_solve(std::move(as[static_cast<std::size_t>(i)]),
                         std::move(bs[static_cast<std::size_t>(i)]), opt);
      }
    });

    std::thread trickle([&] {
      // Closed loop: one request at a time, latency measured submit->done.
      const Matrix<double> a = gen::generate(gen::MatrixKind::Random, 32, 42);
      Rng rng(8);
      for (int i = 0; i < kInterJobs; ++i) {
        Matrix<double> b(32, 1);
        for (int r = 0; r < 32; ++r) b(r, 0) = rng.gaussian();
        serve::SubmitOptions opt;
        opt.priority = serve::Priority::Interactive;
        opt.deadline_us = kInterDeadlineUs;
        const auto t0 = std::chrono::steady_clock::now();
        serve::JobHandle h = svc.submit_solve(a, std::move(b), opt);
        h.wait();
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        inter_lat_us.push_back(static_cast<std::uint64_t>(us));
        if (h.status() != serve::JobStatus::Done) ++inter_failed;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    flood.join();
    trickle.join();
    svc.drain();
    sheds = svc.stats().shed;
  }
  if (writer) writer->stop();

  std::sort(inter_lat_us.begin(), inter_lat_us.end());
  const std::uint64_t p99 =
      inter_lat_us[inter_lat_us.size() * 99 / 100 >= inter_lat_us.size()
                       ? inter_lat_us.size() - 1
                       : inter_lat_us.size() * 99 / 100];
  const std::uint64_t p50 = inter_lat_us[inter_lat_us.size() / 2];
  std::printf("slo-demo: batch=%d (deadline %llums) interactive=%d "
              "(deadline %llums)\n",
              kBatchJobs, static_cast<unsigned long long>(kBatchDeadlineUs / 1000),
              kInterJobs, static_cast<unsigned long long>(kInterDeadlineUs / 1000));
  std::printf("interactive latency  p50=%lluus p99=%lluus (SLO %lluus)\n",
              static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(kInterDeadlineUs));
  std::printf("batch sheds          %llu\n",
              static_cast<unsigned long long>(sheds));

  bool ok = true;
  if (inter_failed != 0) {
    std::fprintf(stderr, "slo-demo: %d interactive jobs not Done\n", inter_failed);
    ok = false;
  }
  if (p99 >= kInterDeadlineUs) {
    std::fprintf(stderr, "slo-demo: interactive p99 %lluus breaches SLO\n",
                 static_cast<unsigned long long>(p99));
    ok = false;
  }
  if (sheds == 0) {
    std::fprintf(stderr, "slo-demo: no sheds — overload was not shed\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace luqr;

  int clients = 8, requests = 25, pool_size = 8, nb = 32, threads = 0;
  int dispatchers = 1, batch_every = 0, many_every = 0;
  std::size_t queue_capacity = 256, cache_mb = 256;
  bool reject = false, verify_results = false, stress = false, small_mix = false;
  bool fault_sweep = false, slo_demo = false;
  int sweep_seeds = 16;
  std::uint64_t fault_seed = 1;
  std::uint64_t seed = 1;
  std::vector<int> sizes = {32, 48, 64, 96};
  std::string metrics_json, metrics_prom;
  int metrics_period_ms = 500;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--clients") clients = std::atoi(need_value());
    else if (arg == "--requests") requests = std::atoi(need_value());
    else if (arg == "--sizes") sizes = parse_sizes(need_value());
    else if (arg == "--pool") pool_size = std::atoi(need_value());
    else if (arg == "--nb") nb = std::atoi(need_value());
    else if (arg == "--threads") threads = std::atoi(need_value());
    else if (arg == "--dispatchers") dispatchers = std::atoi(need_value());
    else if (arg == "--queue") queue_capacity = static_cast<std::size_t>(std::atol(need_value()));
    else if (arg == "--cache-mb") cache_mb = static_cast<std::size_t>(std::atol(need_value()));
    else if (arg == "--reject") reject = true;
    else if (arg == "--batch") batch_every = std::atoi(need_value());
    else if (arg == "--many") many_every = std::atoi(need_value());
    else if (arg == "--small-mix") small_mix = true;
    else if (arg == "--verify") verify_results = true;
    else if (arg == "--stress") stress = true;
    else if (arg == "--seed") seed = static_cast<std::uint64_t>(std::atoll(need_value()));
    else if (arg == "--metrics-json") metrics_json = need_value();
    else if (arg == "--metrics-prom") metrics_prom = need_value();
    else if (arg == "--metrics-period") metrics_period_ms = std::atoi(need_value());
    else if (arg == "--fault-sweep") fault_sweep = true;
    else if (arg == "--sweep-seeds") sweep_seeds = std::atoi(need_value());
    else if (arg == "--fault-seed") fault_seed = static_cast<std::uint64_t>(std::atoll(need_value()));
    else if (arg == "--slo-demo") slo_demo = true;
    else usage(argv[0]);
  }
  if (fault_sweep || slo_demo) {
    if (sweep_seeds < 1) usage(argv[0]);
    try {
      return fault_sweep ? run_fault_sweep(fault_seed, sweep_seeds, 16)
                         : run_slo_demo(16, metrics_prom);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (small_mix) {
    sizes = {16, 32, 48, 64, 96, 128};
    if (many_every <= 0) many_every = 8;
    pool_size = std::max(pool_size, 2 * static_cast<int>(sizes.size()));
    verify_results = true;
  }
  if (stress) {
    clients = std::max(clients, 8);
    requests = std::max(requests, 25);
    verify_results = true;
  }
  if (clients < 1 || requests < 1 || pool_size < 1 || sizes.empty()) usage(argv[0]);

  try {
    serve::ServiceConfig cfg;
    cfg.solver =
        SolverConfig().criterion(CriterionSpec::max(100.0)).tile_size(nb).grid(2, 2);
    cfg.threads = threads;
    cfg.dispatchers = dispatchers;
    cfg.queue_capacity = queue_capacity;
    cfg.cache_bytes = cache_mb << 20;
    cfg.reject_when_full = reject;

    // Matrix pool (mixed sizes) and, when verifying, bitwise references.
    std::vector<Matrix<double>> pool;
    pool.reserve(static_cast<std::size_t>(pool_size));
    for (int i = 0; i < pool_size; ++i) {
      const int n = sizes[static_cast<std::size_t>(i) % sizes.size()];
      pool.push_back(gen::generate(gen::MatrixKind::Random, n,
                                   seed + static_cast<std::uint64_t>(i)));
    }
    const Solver reference(cfg.solver);

    const int total = clients * requests;
    std::printf("luqr_serve: %d clients x %d requests = %d jobs | pool=%d "
                "sizes=%zu nb=%d | queue=%zu (%s) cache=%zuMB | %s%s\n",
                clients, requests, total, pool_size, sizes.size(), nb,
                queue_capacity, reject ? "reject" : "block", cache_mb,
                verify_results ? "verify" : "no-verify", stress ? " [stress]" : "");

    std::atomic<long> mismatches{0}, failures{0}, rejected{0}, done{0};
    // Per-client record of what came back, verified after the timed run.
    struct Outcome {
      int pick = 0;
      Matrix<double> b, x;
    };
    std::vector<std::vector<Outcome>> outcomes(static_cast<std::size_t>(clients));

    // Live exporters: snapshot the global registry (kernel profiler, engine
    // sampler gauges, serve counters/histograms) on a period while the run
    // is hot; stop() flushes a final post-drain snapshot.
    std::unique_ptr<obs::SnapshotWriter> metrics_writer;
    if (!metrics_json.empty() || !metrics_prom.empty()) {
      obs::SnapshotWriter::Options wopt;
      wopt.json_path = metrics_json;
      wopt.prom_path = metrics_prom;
      wopt.period_ms = metrics_period_ms;
      metrics_writer = std::make_unique<obs::SnapshotWriter>(wopt);
    }

    Timer wall;
    {
      serve::SolveService svc(cfg);
      auto client = [&](int id) {
        Rng rng(seed * 977 + static_cast<std::uint64_t>(id));
        for (int r = 0; r < requests; ++r) {
          const int pick = static_cast<int>(rng.uniform() * pool_size) % pool_size;
          const Matrix<double>& a = pool[static_cast<std::size_t>(pick)];
          const auto prio = static_cast<serve::Priority>(r % 3);
          const std::uint64_t rhs_seed =
              seed + 7919u * static_cast<std::uint64_t>(id) + static_cast<std::uint64_t>(r);
          try {
            std::vector<serve::JobHandle> handles;
            std::vector<Matrix<double>> bs;
            std::vector<int> picks;  // pool index per handle, for verification
            if (many_every > 0 && r % many_every == 0) {
              // K independent systems with mixed pool picks in one
              // submit_many call: queued as per-order chunks plus a chunk
              // of its cache hits.
              std::vector<Matrix<double>> as;
              for (int k = 0; k < many_every; ++k) {
                const int p = static_cast<int>(rng.uniform() * pool_size) % pool_size;
                const Matrix<double>& ak = pool[static_cast<std::size_t>(p)];
                Matrix<double> b(ak.rows(), 1);
                Rng brng(rhs_seed + static_cast<std::uint64_t>(k) * 131);
                for (int i = 0; i < ak.rows(); ++i) b(i, 0) = brng.gaussian();
                picks.push_back(p);
                as.push_back(ak);
                bs.push_back(std::move(b));
              }
              handles = svc.submit_many(as, bs, prio);
            } else if (batch_every > 0 && r % batch_every == 0) {
              for (int k = 0; k < batch_every; ++k) {
                Matrix<double> b(a.rows(), 1);
                Rng brng(rhs_seed + static_cast<std::uint64_t>(k) * 131);
                for (int i = 0; i < a.rows(); ++i) b(i, 0) = brng.gaussian();
                picks.push_back(pick);
                bs.push_back(std::move(b));
              }
              handles = svc.submit_batch(a, bs, prio);
            } else {
              Matrix<double> b(a.rows(), 1 + r % 2);
              Rng brng(rhs_seed);
              for (int j = 0; j < b.cols(); ++j)
                for (int i = 0; i < a.rows(); ++i) b(i, j) = brng.gaussian();
              picks.push_back(pick);
              bs.push_back(b);
              handles.push_back(svc.submit_solve(a, std::move(b), prio));
            }
            for (std::size_t h = 0; h < handles.size(); ++h) {
              handles[h].wait();
              if (handles[h].status() == serve::JobStatus::Rejected) {
                rejected.fetch_add(1);
                continue;
              }
              Matrix<double> x = handles[h].get().x;
              done.fetch_add(1);
              if (verify_results)
                outcomes[static_cast<std::size_t>(id)].push_back(
                    Outcome{picks[h], std::move(bs[h]), std::move(x)});
            }
          } catch (const std::exception& e) {
            // get() rethrows the job's original exception of any type.
            failures.fetch_add(1);
            std::fprintf(stderr, "client %d request %d: %s\n", id, r, e.what());
          } catch (...) {
            failures.fetch_add(1);
            std::fprintf(stderr, "client %d request %d: unknown error\n", id, r);
          }
        }
      };
      std::vector<std::thread> pool_threads;
      pool_threads.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) pool_threads.emplace_back(client, c);
      for (auto& t : pool_threads) t.join();
      svc.drain();
      const double secs = wall.seconds();

      // Verification runs after the timed region: the reference solves are
      // O(n^3) each and must not pollute the service throughput numbers.
      if (verify_results) {
        for (const auto& per_client : outcomes) {
          for (const Outcome& o : per_client) {
            const Matrix<double>& a = pool[static_cast<std::size_t>(o.pick)];
            const Matrix<double> want = reference.solve(a, o.b).x;
            bool ok = o.x.rows() == want.rows() && o.x.cols() == want.cols();
            for (int j = 0; ok && j < want.cols(); ++j)
              for (int i = 0; i < want.rows(); ++i)
                if (o.x(i, j) != want(i, j)) {
                  ok = false;
                  break;
                }
            if (!ok) mismatches.fetch_add(1);
          }
        }
      }

      const serve::ServiceStats s = svc.stats();
      std::printf("\n-- results ------------------------------------------\n");
      std::printf("wall time          %.3fs   (%.1f jobs/s end-to-end)\n", secs,
                  static_cast<double>(done.load()) / secs);
      std::printf("completed          %llu (ok %ld, rejected %ld, failed %llu)\n",
                  static_cast<unsigned long long>(s.completed), done.load(),
                  rejected.load(), static_cast<unsigned long long>(s.failed));
      std::printf("verify             %s (%ld mismatches)\n",
                  verify_results ? (mismatches.load() ? "FAILED" : "bitwise ok")
                                 : "off",
                  mismatches.load());
      std::printf("\n-- service telemetry --------------------------------\n");
      std::printf("queue              depth=%zu capacity=%zu inflight=%zu\n",
                  s.queue_depth, s.queue_capacity, s.inflight);
      std::printf("cache              hits=%llu misses=%llu (%.1f%% hit rate), "
                  "%zu entries, %.1f/%.0f MB, %llu evictions\n",
                  static_cast<unsigned long long>(s.cache.hits),
                  static_cast<unsigned long long>(s.cache.misses),
                  100.0 * s.cache.hit_rate(), s.cache.entries,
                  static_cast<double>(s.cache.bytes) / (1 << 20),
                  static_cast<double>(s.cache.byte_budget) / (1 << 20),
                  static_cast<unsigned long long>(s.cache.evictions));
      std::printf("factorizations     %llu coarse, %llu fine-grained, "
                  "%zu pending\n",
                  static_cast<unsigned long long>(s.factors_coarse),
                  static_cast<unsigned long long>(s.factors_inline_parallel),
                  s.pending_factorizations);
      std::printf("batching           %llu batches / %llu members / %llu fused "
                  "rhs columns\n",
                  static_cast<unsigned long long>(s.batches),
                  static_cast<unsigned long long>(s.batch_members),
                  static_cast<unsigned long long>(s.fused_rhs_columns));
      std::printf("chunked batching   %llu jobs / %llu chunks (fill mean %.1f), "
                  "%llu cache hits skimmed\n",
                  static_cast<unsigned long long>(s.batched_jobs),
                  static_cast<unsigned long long>(s.batches_executed),
                  s.batch_fill_mean,
                  static_cast<unsigned long long>(s.batch_hits_skimmed));
      std::printf("latency (us)       p50=%llu p99=%llu max=%llu mean=%.0f\n",
                  static_cast<unsigned long long>(s.latency_p50_us),
                  static_cast<unsigned long long>(s.latency_p99_us),
                  static_cast<unsigned long long>(s.latency_max_us),
                  s.latency_mean_us);
      std::printf("exec (us)          p50=%llu p99=%llu\n",
                  static_cast<unsigned long long>(s.exec_p50_us),
                  static_cast<unsigned long long>(s.exec_p99_us));
      std::printf("throughput         %.1f jobs/s over %.3fs uptime\n",
                  s.jobs_per_second, s.uptime_seconds);
      std::printf("engine             %d workers, %llu tasks, %llu steals, "
                  "%.1f KB workspace\n",
                  s.workers,
                  static_cast<unsigned long long>(s.engine_tasks_executed),
                  static_cast<unsigned long long>(s.engine_steals),
                  static_cast<double>(s.workspace_bytes) / 1024.0);

      if (s.failed != 0 || failures.load() != 0) return 1;
      if (mismatches.load() != 0) return 1;
      if (stress && done.load() < 200) {
        std::fprintf(stderr, "stress: fewer than 200 verified jobs completed\n");
        return 1;
      }
    }
    if (metrics_writer) {
      metrics_writer->stop();  // flushes a final post-drain snapshot
      std::printf("metrics            %llu snapshots -> %s%s%s\n",
                  static_cast<unsigned long long>(
                      metrics_writer->snapshots_written()),
                  metrics_json.c_str(),
                  (!metrics_json.empty() && !metrics_prom.empty()) ? ", " : "",
                  metrics_prom.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
