// Process-wide metrics registry: named counters, gauges, and power-of-2
// histograms with wait-free, thread-sharded record paths.
//
// Every layer publishes through it, and it is the only store of their
// telemetry: each serve::SolveService keeps its counters and latency
// histograms here under its own {service="k"} label and reads its stats()
// back from those series.  The file is a dependency-free leaf (std only)
// so the kernel layer may include it without violating the "kernels cannot
// include upward" rule (see kernels/access.hpp).
//
// Usage pattern: resolve metric handles once at setup time (registration
// takes a mutex), keep the returned reference, and record through it on the
// hot path (a relaxed fetch_add on a thread-local shard).  Metrics live for
// the lifetime of the process; references never dangle.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace luqr {
namespace obs {

// Number of cache-line-padded shards per counter/histogram.  Threads are
// assigned shards round-robin; concurrent recorders on different shards
// never touch the same cache line.
inline constexpr int kShards = 8;

// Power-of-2 histogram bucket count.  Bucket 0 holds values in [0, 1];
// bucket b holds (2^b, 2^(b+1)].  48 buckets cover ~2^48 microseconds.
inline constexpr int kHistogramBuckets = 48;

// Stable per-thread shard index in [0, kShards).
int this_thread_shard();

// Monotonic counter.  add() is wait-free (relaxed fetch_add on the calling
// thread's shard); value() sums shards and may race benignly with adders.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

// Point-in-time value.  Typically written by a single sampler thread and
// read by exporters; set/add are safe from any thread.
class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  void add(double d) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, pack(unpack(cur) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const { return unpack(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t pack(double v) {
    std::uint64_t b = 0;
    static_assert(sizeof(b) == sizeof(v), "double must be 64-bit");
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double unpack(std::uint64_t b) {
    double v = 0;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

// Read-side view of a histogram: raw (non-cumulative) bucket counts plus
// count/sum/max, produced by Histogram::snapshot().
struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  // Upper edge of bucket b: 2^(b+1) - 1 (bucket 0 -> 1).
  static std::uint64_t bucket_edge(int b) {
    return (std::uint64_t{1} << (b + 1)) - 1;
  }
  double mean() const { return count ? double(sum) / double(count) : 0.0; }
  // Value at or below which a fraction q of recordings fall; returns the
  // containing bucket's upper edge clamped to the observed max.
  std::uint64_t quantile(double q) const;
};

// Power-of-2 histogram of non-negative integer values (typically
// microseconds).  record() is wait-free on the calling thread's shard.
class Histogram {
 public:
  void record(std::uint64_t v) {
    Shard& s = shards_[this_thread_shard()];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = s.max.load(std::memory_order_relaxed);
    while (v > m &&
           !s.max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }
  HistogramData snapshot() const {
    HistogramData d;
    for (const auto& s : shards_) {
      for (int b = 0; b < kHistogramBuckets; ++b)
        d.buckets[size_t(b)] += s.buckets[size_t(b)].load(std::memory_order_relaxed);
      d.count += s.count.load(std::memory_order_relaxed);
      d.sum += s.sum.load(std::memory_order_relaxed);
      std::uint64_t m = s.max.load(std::memory_order_relaxed);
      if (m > d.max) d.max = m;
    }
    return d;
  }
  std::uint64_t count() const { return snapshot().count; }
  double mean() const { return snapshot().mean(); }
  std::uint64_t max() const { return snapshot().max; }
  std::uint64_t quantile(double q) const { return snapshot().quantile(q); }

  static int bucket_of(std::uint64_t v) {
    int b = 0;
    while (v > 1 && b < kHistogramBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Shard, kShards> shards_{};
};

// Metric labels, e.g. {{"class", "gemm"}}.  Order is preserved in exposition.
using Labels = std::vector<std::pair<std::string, std::string>>;

struct CounterSample {
  std::string name;
  Labels labels;
  std::string help;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  Labels labels;
  std::string help;
  double value = 0;
};
struct HistogramSample {
  std::string name;
  Labels labels;
  std::string help;
  HistogramData data;
};

// A point-in-time copy of every registered metric.
struct Snapshot {
  std::uint64_t ts_us = 0;  // wall-clock microseconds since the Unix epoch
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

// Name -> metric map.  Registration is mutex-guarded and idempotent: the
// same (name, labels) pair always returns the same object, so independent
// subsystems may resolve the same series.  Metrics are never removed.
// Lookups go through a (name, labels) index, so resolving the k-th series
// does not scan the k-1 before it.
class Registry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       const std::string& help = "");

  Snapshot snapshot() const;

  // The process-wide registry used by all built-in instrumentation.
  static Registry& global();

 private:
  template <typename Metric>
  struct Entry {
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<Metric> metric;
  };
  // One metric kind: entries in registration order (the snapshot order),
  // indexed by (name, labels) so a lookup costs O(log series).
  template <typename Metric>
  struct Series {
    std::vector<Entry<Metric>> entries;
    std::map<std::pair<std::string, Labels>, std::size_t> index;
  };
  template <typename Metric>
  static Metric& find_or_create(Series<Metric>& series, const std::string& name,
                                const Labels& labels, const std::string& help);

  mutable std::mutex mu_;
  Series<Counter> counters_;
  Series<Gauge> gauges_;
  Series<Histogram> histograms_;
};

}  // namespace obs
}  // namespace luqr
