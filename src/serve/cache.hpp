// Content-hash-keyed, byte-budgeted LRU cache of retained factorizations.
//
// The serve subsystem's factor-once-solve-many accelerator: a job whose
// coefficient matrix (and factorization-relevant config) was seen before
// skips the O(N^3) factorization entirely and goes straight to
// Factorization::solve. Keys are a 64-bit content hash of the matrix bytes;
// because hashes can collide, every hit is verified by an exact
// dimensions-plus-bytes comparison against the candidate's retained
// original (Factorization::matrix()), so a collision costs a memcmp, never
// a wrong answer — a property the tests force with an injected constant
// hash function.
//
// Entries are charged Factorization::memory_bytes() against a byte budget;
// insertion evicts least-recently-used entries until the new entry fits. A
// factorization bigger than the whole budget is not admitted (callers keep
// their shared_ptr and simply never see it again). Entries are handed out
// as shared_ptr<const Factorization>, so eviction never invalidates a
// solve in flight.
//
// All operations are mutex-guarded and O(1) amortized plus the verify
// memcmp. Hits, misses, inserts, evictions and oversize rejects are counted
// once, in metrics-registry series under the owner's label (a service
// passes {service="k"}; a standalone cache labels itself {cache="k"}), and
// stats() reads them back. Bytes and entries are policy state under the
// mutex, published as gauges under the same label.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/factorization.hpp"
#include "obs/metrics.hpp"

namespace luqr::serve {

/// Exact (dims + bits) matrix equality — the one definition of "same
/// matrix" the serve layer uses everywhere: cache hit verification and the
/// service's pending-factorization dedup must never disagree about
/// identity.
bool matrices_equal(const Matrix<double>& a, const Matrix<double>& b);

/// Snapshot of the cache's telemetry counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t oversize_rejects = 0;  ///< entries bigger than the whole budget
  std::size_t bytes = 0;               ///< currently cached
  std::size_t entries = 0;
  std::size_t byte_budget = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class FactorizationCache {
 public:
  /// Content-hash function over a dense matrix; injectable so tests can
  /// force collisions deterministically. nullptr selects content_hash().
  using HashFn = std::uint64_t (*)(const Matrix<double>&);

  /// `labels` names the owner on every registry series this cache
  /// publishes; empty selects a process-unique {cache="k"}.
  explicit FactorizationCache(std::size_t byte_budget, HashFn hash = nullptr,
                              obs::Labels labels = {});
  ~FactorizationCache();

  FactorizationCache(const FactorizationCache&) = delete;
  FactorizationCache& operator=(const FactorizationCache&) = delete;

  /// FNV-1a over the dimensions and raw column-major bytes (the default
  /// HashFn).
  static std::uint64_t content_hash(const Matrix<double>& a);

  /// The hash this cache would key `a` under (the service shares it with
  /// its pending-factorization map so both use the injected function).
  std::uint64_t hash_of(const Matrix<double>& a) const { return hash_(a); }

  /// Verified lookup: hash, then exact dims+bytes+config comparison.
  /// A hit refreshes the entry's LRU position. nullptr on miss.
  std::shared_ptr<const core::Factorization> find(const Matrix<double>& a,
                                                  const std::string& config_fp);

  /// find() with the content hash already computed (callers that key other
  /// structures — the service's pending map — off the same hash avoid
  /// hashing the payload twice on the hot path). Hits are always counted
  /// (they correspond to actually serving from the cache); `count_miss =
  /// false` suppresses the miss counter for re-probes of one logical
  /// lookup whose first probe already recorded it.
  std::shared_ptr<const core::Factorization> find_hashed(
      const Matrix<double>& a, const std::string& config_fp, std::uint64_t h,
      bool count_miss = true);

  /// Admit a factorization of `a` (dedupes against an equal existing entry;
  /// evicts LRU entries until the budget holds it; skips oversize entries).
  void insert(const Matrix<double>& a, const std::string& config_fp,
              std::shared_ptr<const core::Factorization> fac);

  /// insert() with the content hash already computed (pairs with
  /// find_hashed: the service hashes a job's matrix exactly once).
  void insert_hashed(const Matrix<double>& a, const std::string& config_fp,
                     std::uint64_t h,
                     std::shared_ptr<const core::Factorization> fac);

  /// Drop the entry for `a` (exact-match verified). Used by the service's
  /// poisoned-result containment: a factorization that produced a
  /// non-finite solution must never serve another hit. Returns true when an
  /// entry was removed.
  bool erase(const Matrix<double>& a, const std::string& config_fp);

  /// erase() with the key precomputed — required by callers (the service)
  /// that insert under a derived key (content hash XOR config fingerprint)
  /// rather than the plain content hash; erase() would recompute the plain
  /// hash and miss those entries.
  bool erase_hashed(const Matrix<double>& a, const std::string& config_fp,
                    std::uint64_t h);

  /// Evict LRU entries until at most `target_bytes` remain resident. The
  /// service's memory-pressure response (entries handed out stay valid —
  /// shared_ptr — so in-flight solves are unaffected).
  void evict_to(std::size_t target_bytes);

  CacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string config_fp;
    std::shared_ptr<const core::Factorization> fac;
    std::size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  static bool matches(const Entry& e, std::uint64_t hash, const Matrix<double>& a,
                      const std::string& config_fp);
  void evict_lru_locked();

  // Publish bytes_/lru_.size() to the gauges (mu_ held).
  void publish_locked();

  const std::size_t budget_;
  const HashFn hash_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, LruList::iterator> index_;
  std::size_t bytes_ = 0;
  /// Registry series under the owner's label: the only counter storage.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
  obs::Counter* oversize_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* entries_gauge_;
};

}  // namespace luqr::serve
