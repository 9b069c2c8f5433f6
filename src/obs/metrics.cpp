#include "obs/metrics.hpp"

#include <chrono>

namespace luqr {
namespace obs {

int this_thread_shard() {
  static std::atomic<unsigned> next{0};
  thread_local int shard =
      int(next.fetch_add(1, std::memory_order_relaxed) % unsigned(kShards));
  return shard;
}

std::uint64_t HistogramData::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target = std::uint64_t(q * double(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[size_t(b)];
    if (seen >= target) {
      const std::uint64_t edge = bucket_edge(b);
      return edge < max ? edge : max;
    }
  }
  return max;
}

template <typename Metric>
Metric& Registry::find_or_create(Series<Metric>& series, const std::string& name,
                                 const Labels& labels, const std::string& help) {
  const auto [it, inserted] =
      series.index.try_emplace({name, labels}, series.entries.size());
  if (inserted) {
    series.entries.push_back(
        Entry<Metric>{name, labels, help, std::make_unique<Metric>()});
  }
  auto& e = series.entries[it->second];
  if (e.help.empty() && !help.empty()) e.help = help;
  return *e.metric;
}

Counter& Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_create(counters_, name, labels, help);
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_create(gauges_, name, labels, help);
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels,
                               const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_create(histograms_, name, labels, help);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.ts_us = std::uint64_t(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> lk(mu_);
  snap.counters.reserve(counters_.entries.size());
  for (const auto& e : counters_.entries)
    snap.counters.push_back({e.name, e.labels, e.help, e.metric->value()});
  snap.gauges.reserve(gauges_.entries.size());
  for (const auto& e : gauges_.entries)
    snap.gauges.push_back({e.name, e.labels, e.help, e.metric->value()});
  snap.histograms.reserve(histograms_.entries.size());
  for (const auto& e : histograms_.entries)
    snap.histograms.push_back({e.name, e.labels, e.help, e.metric->snapshot()});
  return snap;
}

Registry& Registry::global() {
  // Leaked intentionally: instrumented code may record during static
  // destruction of other objects (worker threads joining at exit).
  static Registry* g = new Registry();
  return *g;
}

}  // namespace obs
}  // namespace luqr
