#include "serve/cache.hpp"

#include <atomic>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"

namespace luqr::serve {

namespace {

// Process-wide sequence labelling caches built without an owner label.
std::atomic<std::uint64_t> g_cache_seq{0};

}  // namespace

bool matrices_equal(const Matrix<double>& a, const Matrix<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::size_t bytes =
      static_cast<std::size_t>(a.rows()) * a.cols() * sizeof(double);
  return bytes == 0 || std::memcmp(a.data(), b.data(), bytes) == 0;
}

std::uint64_t FactorizationCache::content_hash(const Matrix<double>& a) {
  // FNV-1a, 64-bit, one word per element (not per byte — hashing sits on
  // the cache-hit critical path, and an n^2 payload at a byte per round
  // would cost more than the solve it saves). Bitwise content keying is
  // exactly right here: the factorization is a function of the bits, and a
  // matrix that differs in the last ulp must miss.
  //
  // Four independent FNV lanes, folded at the end: a single lane is a
  // serial xor-multiply dependency chain (~5 cycles per word), which for an
  // n = 64 payload costs more than the batched solve it keys. The lanes
  // break the chain so the multiplies pipeline. Keys are in-memory only, so
  // changing the hash value is free.
  const std::uint64_t prime = 1099511628211ull;
  std::uint64_t lane[4] = {14695981039346656037ull, 0x9e3779b97f4a7c15ull,
                           0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull};
  lane[0] = (lane[0] ^ static_cast<std::uint64_t>(a.rows())) * prime;
  lane[1] = (lane[1] ^ static_cast<std::uint64_t>(a.cols())) * prime;
  const double* p = a.data();
  const std::size_t count = static_cast<std::size_t>(a.rows()) * a.cols();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, sizeof(w));  // bit patterns of four elements
    lane[0] = (lane[0] ^ w[0]) * prime;
    lane[1] = (lane[1] ^ w[1]) * prime;
    lane[2] = (lane[2] ^ w[2]) * prime;
    lane[3] = (lane[3] ^ w[3]) * prime;
  }
  for (; i < count; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    lane[i % 4] = (lane[i % 4] ^ w) * prime;
  }
  std::uint64_t h = lane[0];
  h = (h ^ lane[1]) * prime;
  h = (h ^ lane[2]) * prime;
  h = (h ^ lane[3]) * prime;
  return h;
}

FactorizationCache::FactorizationCache(std::size_t byte_budget, HashFn hash,
                                       obs::Labels labels)
    : budget_(byte_budget), hash_(hash != nullptr ? hash : &content_hash) {
  if (labels.empty())
    labels = {{"cache", std::to_string(g_cache_seq.fetch_add(1))}};
  obs::Registry& reg = obs::Registry::global();
  hits_ = &reg.counter("luqr_cache_hits_total", labels,
                       "Factorization cache hits (verified probes)");
  misses_ = &reg.counter("luqr_cache_misses_total", labels,
                         "Factorization cache misses (first probe per lookup)");
  inserts_ = &reg.counter("luqr_cache_inserts_total", labels,
                          "Factorizations admitted into the cache");
  evictions_ = &reg.counter("luqr_cache_evictions_total", labels,
                            "LRU evictions");
  oversize_ = &reg.counter("luqr_cache_oversize_rejects_total", labels,
                           "Factorizations larger than the whole budget");
  bytes_gauge_ = &reg.gauge("luqr_cache_bytes", labels, "Bytes cached");
  entries_gauge_ = &reg.gauge("luqr_cache_entries", labels, "Entries cached");
}

FactorizationCache::~FactorizationCache() {
  // A retired owner's series keep their counts, but hold no bytes.
  clear();
}

void FactorizationCache::publish_locked() {
  bytes_gauge_->set(static_cast<double>(bytes_));
  entries_gauge_->set(static_cast<double>(lru_.size()));
}

bool FactorizationCache::matches(const Entry& e, std::uint64_t hash,
                                 const Matrix<double>& a,
                                 const std::string& config_fp) {
  return e.hash == hash && e.config_fp == config_fp &&
         matrices_equal(e.fac->matrix(), a);
}

std::shared_ptr<const core::Factorization> FactorizationCache::find(
    const Matrix<double>& a, const std::string& config_fp) {
  return find_hashed(a, config_fp, hash_(a));
}

std::shared_ptr<const core::Factorization> FactorizationCache::find_hashed(
    const Matrix<double>& a, const std::string& config_fp, std::uint64_t h,
    bool count_miss) {
  std::lock_guard<std::mutex> lock(mu_);
  auto range = index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    if (!matches(*it->second, h, a, config_fp)) continue;  // hash collision
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    hits_->add(1);
    return it->second->fac;
  }
  if (count_miss) misses_->add(1);
  return nullptr;
}

void FactorizationCache::insert(const Matrix<double>& a,
                                const std::string& config_fp,
                                std::shared_ptr<const core::Factorization> fac) {
  insert_hashed(a, config_fp, hash_(a), std::move(fac));
}

void FactorizationCache::insert_hashed(
    const Matrix<double>& a, const std::string& config_fp, std::uint64_t h,
    std::shared_ptr<const core::Factorization> fac) {
  if (fac == nullptr) return;
  const std::size_t bytes = fac->memory_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > budget_) {
    oversize_->add(1);
    return;
  }
  auto range = index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    if (!matches(*it->second, h, a, config_fp)) continue;
    // Already cached (e.g. the benign duplicate-factor race): keep the
    // first copy but refresh its recency — it was just used.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (bytes_ + bytes > budget_ && !lru_.empty()) evict_lru_locked();
  lru_.push_front(Entry{h, config_fp, std::move(fac), bytes});
  index_.emplace(h, lru_.begin());
  bytes_ += bytes;
  inserts_->add(1);
  publish_locked();
}

void FactorizationCache::evict_lru_locked() {
  auto victim = std::prev(lru_.end());
  auto range = index_.equal_range(victim->hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == victim) {
      index_.erase(it);
      break;
    }
  }
  bytes_ -= victim->bytes;
  evictions_->add(1);
  lru_.erase(victim);
  publish_locked();
}

bool FactorizationCache::erase(const Matrix<double>& a,
                               const std::string& config_fp) {
  return erase_hashed(a, config_fp, hash_(a));
}

bool FactorizationCache::erase_hashed(const Matrix<double>& a,
                                      const std::string& config_fp,
                                      std::uint64_t h) {
  std::lock_guard<std::mutex> lock(mu_);
  auto range = index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    if (!matches(*it->second, h, a, config_fp)) continue;
    auto victim = it->second;
    index_.erase(it);
    bytes_ -= victim->bytes;
    lru_.erase(victim);
    publish_locked();
    return true;
  }
  return false;
}

void FactorizationCache::evict_to(std::size_t target_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  while (bytes_ > target_bytes && !lru_.empty()) evict_lru_locked();
}

CacheStats FactorizationCache::stats() const {
  CacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.inserts = inserts_->value();
  s.evictions = evictions_->value();
  s.oversize_rejects = oversize_->value();
  s.byte_budget = budget_;
  std::lock_guard<std::mutex> lock(mu_);
  s.bytes = bytes_;
  s.entries = lru_.size();
  return s;
}

void FactorizationCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  publish_locked();
}

}  // namespace luqr::serve
