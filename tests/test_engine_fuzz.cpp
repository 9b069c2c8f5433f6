// Fuzz tests for the dataflow engine: random task graphs over a shared
// data array, executed concurrently, must produce exactly the state that
// sequential execution in submission order produces — the defining
// superscalar property the hybrid driver's correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/access.hpp"
#include "runtime/audit.hpp"
#include "runtime/engine.hpp"

namespace luqr::rt {
namespace {

// Slot values wrap modulo 2^64: the long graphs overflow any signed type.
using Value = std::uint64_t;

// One randomly generated task: reads some slots, read-writes one target.
struct FuzzTask {
  std::vector<int> reads;
  int target = 0;
  Value coeff = 0;
};

std::vector<FuzzTask> make_graph(int tasks, int slots, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FuzzTask> graph;
  graph.reserve(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    FuzzTask ft;
    const int nreads = static_cast<int>(rng.below(4));
    for (int r = 0; r < nreads; ++r)
      ft.reads.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(slots))));
    ft.target = static_cast<int>(rng.below(static_cast<std::uint64_t>(slots)));
    ft.coeff = 1 + rng.below(7);
    graph.push_back(std::move(ft));
  }
  return graph;
}

// target <- target * coeff + sum(reads) (mod 2^64) — deliberately non-commutative
// across tasks so any ordering violation changes the result.
void apply(const FuzzTask& t, std::vector<Value>& data) {
  Value acc = 0;
  for (int r : t.reads) acc += data[static_cast<std::size_t>(r)];
  auto& slot = data[static_cast<std::size_t>(t.target)];
  slot = slot * t.coeff + acc;
}

// apply() plus explicit access reports, for the audited-fuzz tests below
// (kernel entry points report automatically; these synthetic task bodies
// must report by hand to come under the auditor's eye).
void audited_apply(const FuzzTask& t, std::vector<Value>& data) {
  for (int r : t.reads)
    kern::note_access(&data[static_cast<std::size_t>(r)], sizeof(Value), false);
  kern::note_access(&data[static_cast<std::size_t>(t.target)], sizeof(Value), true);
  apply(t, data);
}

// One RAII registration per slot, so the auditor can resolve and label them.
std::vector<std::unique_ptr<ScopedDatumRegistration>> register_slots(
    std::vector<Value>& data) {
  std::vector<std::unique_ptr<ScopedDatumRegistration>> regs;
  regs.reserve(data.size());
  for (std::size_t s = 0; s < data.size(); ++s)
    regs.push_back(std::make_unique<ScopedDatumRegistration>(
        &data[s], sizeof(Value), "slot" + std::to_string(s)));
  return regs;
}

// A fresh adversarial schedule every run: the chaos seed comes from
// std::random_device and is printed on any failure so the offending
// interleaving can be replayed exactly.
std::uint64_t fresh_chaos_seed() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) | rd();
}

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, MatchesSequentialSemantics) {
  const int seed = GetParam();
  const int slots = 12, tasks = 300;
  const auto graph = make_graph(tasks, slots, static_cast<std::uint64_t>(seed));

  // Sequential reference.
  std::vector<Value> expected(slots, 1);
  for (const auto& t : graph) apply(t, expected);

  // Concurrent execution with declared accesses.
  for (int threads : {1, 2, 4}) {
    std::vector<Value> data(slots, 1);
    {
      Engine engine(threads);
      for (const auto& t : graph) {
        std::vector<Dep> deps;
        for (int r : t.reads) deps.push_back({&data[static_cast<std::size_t>(r)], Access::Read});
        deps.push_back({&data[static_cast<std::size_t>(t.target)], Access::ReadWrite});
        engine.submit([&data, &t] { apply(t, data); }, deps);
      }
      engine.wait_all();
    }
    EXPECT_EQ(data, expected) << "seed " << seed << " threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(0, 12));

TEST(EngineFuzz, ContinuationSubmissionMatchesSequential) {
  // The same random graphs, but submitted in bursts *from inside running
  // tasks* (the continuation-driven driver's pattern): each burst's
  // submitter task enqueues the next burst. Submission order — and hence
  // the sequential reference semantics — is unchanged.
  for (int seed : {31, 32, 33}) {
    const int slots = 10, tasks = 240, burst = 30;
    const auto graph = make_graph(tasks, slots, static_cast<std::uint64_t>(seed));
    std::vector<Value> expected(slots, 1);
    for (const auto& t : graph) apply(t, expected);

    for (int threads : {2, 4}) {
      std::vector<Value> data(slots, 1);
      {
        Engine engine(threads);
        std::function<void(int)> submit_burst = [&](int first) {
          const int last = std::min(first + burst, tasks);
          for (int i = first; i < last; ++i) {
            const auto& t = graph[static_cast<std::size_t>(i)];
            std::vector<Dep> deps;
            for (int r : t.reads)
              deps.push_back({&data[static_cast<std::size_t>(r)], Access::Read});
            deps.push_back(
                {&data[static_cast<std::size_t>(t.target)], Access::ReadWrite});
            engine.submit([&data, &t] { apply(t, data); }, deps);
          }
          if (last < tasks)
            engine.submit([&submit_burst, last] { submit_burst(last); }, {});
        };
        engine.submit([&submit_burst] { submit_burst(0); }, {});
        engine.wait_all();
        EXPECT_EQ(engine.live_tasks(), 0u) << "seed " << seed;
        EXPECT_EQ(engine.tracked_data(), 0u) << "seed " << seed;
      }
      EXPECT_EQ(data, expected) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(EngineFuzz, RandomPrioritiesPreserveSemantics) {
  // Priorities reorder execution but must never override a data dependence.
  for (int seed : {41, 42}) {
    const int slots = 8, tasks = 200;
    const auto graph = make_graph(tasks, slots, static_cast<std::uint64_t>(seed));
    std::vector<Value> expected(slots, 1);
    for (const auto& t : graph) apply(t, expected);

    Rng prio_rng(static_cast<std::uint64_t>(seed) * 77);
    std::vector<Value> data(slots, 1);
    {
      Engine engine(4);
      for (const auto& t : graph) {
        std::vector<Dep> deps;
        for (int r : t.reads)
          deps.push_back({&data[static_cast<std::size_t>(r)], Access::Read});
        deps.push_back(
            {&data[static_cast<std::size_t>(t.target)], Access::ReadWrite});
        engine.submit([&data, &t] { apply(t, data); }, deps,
                      {"fuzz", static_cast<int>(prio_rng.below(3))});
      }
      engine.wait_all();
    }
    EXPECT_EQ(data, expected) << "seed " << seed;
  }
}

TEST(EngineFuzz, InterleavedSubmissionAndWaiting) {
  // Submit in bursts with waits between them (the hybrid driver's pattern);
  // semantics must be unchanged.
  const int slots = 8;
  const auto graph = make_graph(200, slots, 999);
  std::vector<Value> expected(slots, 1);
  for (const auto& t : graph) apply(t, expected);

  std::vector<Value> data(slots, 1);
  {
    Engine engine(3);
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const auto& t = graph[i];
      std::vector<Dep> deps;
      for (int r : t.reads) deps.push_back({&data[static_cast<std::size_t>(r)], Access::Read});
      deps.push_back({&data[static_cast<std::size_t>(t.target)], Access::ReadWrite});
      const TaskId id = engine.submit([&data, &t] { apply(t, data); }, deps);
      if (i % 37 == 0) engine.wait(id);
      if (i % 101 == 0) engine.wait_all();
    }
    engine.wait_all();
  }
  EXPECT_EQ(data, expected);
}

TEST(EngineFuzz, AuditedChaosGraphsMatchSequentialAndCertify) {
  // The full correctness stack on random graphs: every task audited, the
  // schedule adversarially perturbed, the result compared against the
  // sequential reference, and the drained DAG certified race-free.
  for (int seed : {51, 52, 53}) {
    const std::uint64_t chaos = fresh_chaos_seed();
    const int slots = 10, tasks = 200;
    const auto graph = make_graph(tasks, slots, static_cast<std::uint64_t>(seed));
    std::vector<Value> expected(slots, 1);
    for (const auto& t : graph) apply(t, expected);

    std::vector<Value> data(slots, 1);
    const auto regs = register_slots(data);
    {
      EngineOptions opts;
      opts.audit = true;
      opts.chaos_seed = chaos;
      Engine engine(4, opts);
      for (const auto& t : graph) {
        std::vector<Dep> deps;
        for (int r : t.reads)
          deps.push_back({&data[static_cast<std::size_t>(r)], Access::Read});
        deps.push_back(
            {&data[static_cast<std::size_t>(t.target)], Access::ReadWrite});
        engine.submit([&data, &t] { audited_apply(t, data); }, deps, {"fuzz"});
      }
      engine.wait_all();
      EXPECT_EQ(engine.audited_tasks(), static_cast<std::uint64_t>(tasks));
      EXPECT_TRUE(engine.access_violations().empty())
          << "graph seed " << seed << " chaos seed " << chaos;
      EXPECT_TRUE(engine.certify_happens_before().empty())
          << "graph seed " << seed << " chaos seed " << chaos;
    }
    EXPECT_EQ(data, expected) << "graph seed " << seed << " chaos seed " << chaos;
  }
}

TEST(EngineFuzz, AuditCatchesRandomlyPlantedUndeclaredAccess) {
  // Plant one under-declared task at a random position in each graph: it
  // writes a slot it never declared (or declared Read-only). The audit must
  // catch it regardless of where the chaos schedule places it.
  for (int seed : {61, 62, 63}) {
    const std::uint64_t chaos = fresh_chaos_seed();
    const int slots = 8, tasks = 120;
    const auto graph = make_graph(tasks, slots, static_cast<std::uint64_t>(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 131);
    const int rogue = static_cast<int>(rng.below(tasks));

    std::vector<Value> data(slots, 1);
    const auto regs = register_slots(data);
    EngineOptions opts;
    opts.audit = true;
    opts.chaos_seed = chaos;
    Engine engine(4, opts);
    for (int i = 0; i < tasks; ++i) {
      const auto& t = graph[static_cast<std::size_t>(i)];
      std::vector<Dep> deps;
      for (int r : t.reads)
        deps.push_back({&data[static_cast<std::size_t>(r)], Access::Read});
      deps.push_back(
          {&data[static_cast<std::size_t>(t.target)], Access::ReadWrite});
      const int off = (t.target + 1) % slots;  // never the declared target
      const bool planted = i == rogue;
      engine.submit(
          [&data, &t, off, planted] {
            audited_apply(t, data);
            if (planted)
              kern::note_access(&data[static_cast<std::size_t>(off)],
                                sizeof(Value), true);
          },
          deps, planted ? TaskAttrs{"planted-rogue"} : TaskAttrs{"fuzz"});
    }
    try {
      engine.wait_all();
      FAIL() << "planted rogue escaped: graph seed " << seed << " chaos seed "
             << chaos;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("planted-rogue"), std::string::npos)
          << e.what() << " (chaos seed " << chaos << ")";
    }
    EXPECT_FALSE(engine.access_violations().empty());
  }
}

}  // namespace
}  // namespace luqr::rt
