// Bounded, collision-safe LRU caches for the serving layer (serve/serving.h).
//
// A CacheKey carries both a 64-bit digest (the bucket hash) and the full
// canonical content string the digest was computed from. Lookups bucket by
// the digest but ALWAYS compare the full canonical string before declaring
// a hit — a digest collision between two distinct keys can cost a miss,
// never a cross-served value. Tests force collisions via WithDigest to
// pin that property down.
//
// LruCache<V> is a classic intrusive-list LRU over a digest-bucketed index:
// Get promotes to most-recently-used, Put evicts from the cold end when the
// entry bound is exceeded, EraseIf sweeps entries for explicit invalidation
// (the result cache drops a database's entries when it is re-registered).
// The serving engine calls the caches from concurrent request threads, so a
// large cache (capacity >= kShardThreshold) is split into kShards shards,
// each an independent LRU with its own mutex, picked by the key digest's
// top bits; the capacity is divided among them. A small cache keeps one
// shard and therefore exact LRU order — the rule depends on the capacity
// alone, never on the traffic.
//
// A sharded cache also rations promotion, as memcached does: a hit moves
// its entry to the front only if the entry may have left the front
// quarter of its shard. Every front insertion ticks a per-shard clock and
// stamps the entry, so an entry's position is at most the ticks since its
// stamp; below a quarter of the shard's capacity the splice is skipped.
// Hot entries then cost a hit no list writes, and an entry hit at least
// once per capacity/4 insertions into its shard is never evicted.

#ifndef CQCS_SERVE_CACHE_H_
#define CQCS_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cqcs::serve {

/// A cache key: full canonical content plus its 64-bit digest. Equality
/// compares the canonical string (the digest is only a bucket accelerator).
struct CacheKey {
  std::string canonical;
  uint64_t digest = 0;

  /// The normal constructor: digest = FNV-1a over the canonical bytes.
  static CacheKey FromCanonical(std::string canonical) {
    CacheKey k;
    k.digest = DigestBytes(canonical);
    k.canonical = std::move(canonical);
    return k;
  }

  /// Test hook: a key with a forced digest, for exercising bucket
  /// collisions between distinct canonicals.
  static CacheKey WithDigest(std::string canonical, uint64_t digest) {
    CacheKey k;
    k.canonical = std::move(canonical);
    k.digest = digest;
    return k;
  }

  static uint64_t DigestBytes(const std::string& s) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  bool operator==(const CacheKey& other) const {
    // Canonical-first on purpose: a hit is a hit only on full content.
    return canonical == other.canonical;
  }
};

/// Monotonic counters a cache keeps about itself. Snapshot via stats().
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  ///< entries dropped by EraseIf
  size_t entries = 0;          ///< current size (snapshot, not monotonic)
};

/// Bounded LRU map from CacheKey to shared_ptr<const V>. Thread-safe.
template <typename V>
class LruCache {
 public:
  /// Capacities at or above this are split into kShards shards.
  static constexpr size_t kShardThreshold = 1024;
  static constexpr unsigned kShardBits = 4;
  static constexpr size_t kShards = size_t{1} << kShardBits;

  /// `capacity` bounds the entry count; 0 disables the cache entirely
  /// (every Get misses, every Put is dropped). A sharded cache bounds each
  /// shard by its share of `capacity` (the shares sum to it exactly); its
  /// eviction order is approximately LRU (see the file comment).
  explicit LruCache(size_t capacity)
      : capacity_(capacity),
        shard_count_(capacity >= kShardThreshold ? kShards : 1),
        shards_(std::make_unique<Shard[]>(shard_count_)) {
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& shard = shards_[i];
      shard.capacity =
          capacity / shard_count_ + (i < capacity % shard_count_ ? 1 : 0);
      shard.promote_window = shard_count_ == 1 ? 0 : shard.capacity / 4;
    }
  }

  size_t shard_count() const { return shard_count_; }

  /// The cached value, promoting the entry to most-recently-used (rationed
  /// in a sharded cache); nullptr on miss. Hits require full canonical-key
  /// equality, never digest equality alone.
  std::shared_ptr<const V> Get(const CacheKey& key) {
    Shard& shard = ShardFor(key.digest);
    MutexLock lock(shard.mu);
    auto it = shard.Find(key);
    if (it == shard.entries.end()) {
      ++shard.stats.misses;
      return nullptr;
    }
    if (shard.tick - it->promoted_at >= shard.promote_window) {
      shard.MoveToFront(it);
    }
    ++shard.stats.hits;
    return it->value;
  }

  /// Inserts (or replaces) the value for `key`, evicting from the cold end
  /// of its shard past the shard's capacity bound.
  void Put(const CacheKey& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    Shard& shard = ShardFor(key.digest);
    Dropped dropped;  // declared before the lock: released after it
    MutexLock lock(shard.mu);
    auto it = shard.Find(key);
    if (it != shard.entries.end()) {
      dropped.push_back(std::exchange(it->value, std::move(value)));
      shard.MoveToFront(it);
      return;
    }
    shard.entries.push_front(Entry{key, std::move(value), ++shard.tick});
    shard.index.emplace(key.digest, shard.entries.begin());
    ++shard.stats.insertions;
    while (shard.entries.size() > shard.capacity) {
      dropped.push_back(shard.Remove(std::prev(shard.entries.end())));
      ++shard.stats.evictions;
    }
  }

  /// Drops every entry whose key satisfies `pred`, in every shard; returns
  /// how many. The invalidation sweep for database updates.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t dropped = 0;
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& shard = shards_[i];
      Dropped values;  // declared before the lock: released after it
      MutexLock lock(shard.mu);
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        auto next = std::next(it);
        if (pred(it->key)) values.push_back(shard.Remove(it));
        it = next;
      }
      shard.stats.invalidations += values.size();
      dropped += values.size();
    }
    return dropped;
  }

  /// Entries over all shards; each shard is read under its own lock, so a
  /// concurrent Put may or may not be counted.
  size_t size() const {
    size_t total = 0;
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& shard = shards_[i];
      MutexLock lock(shard.mu);
      total += shard.entries.size();
    }
    return total;
  }

  CacheStats stats() const {
    CacheStats s;
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& shard = shards_[i];
      MutexLock lock(shard.mu);
      s.hits += shard.stats.hits;
      s.misses += shard.stats.misses;
      s.insertions += shard.stats.insertions;
      s.evictions += shard.stats.evictions;
      s.invalidations += shard.stats.invalidations;
      s.entries += shard.entries.size();
    }
    return s;
  }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const V> value;
    uint64_t promoted_at = 0;  ///< shard tick when last put at the front
  };
  using EntryList = std::list<Entry>;
  /// Values leaving a shard. One can be the last owner of a compiled plan,
  /// whose destructor frees many blocks, so they are released after the
  /// shard's lock, not under it.
  using Dropped = std::vector<std::shared_ptr<const V>>;

  /// One independent LRU. Cache-line aligned so neighbouring shards' locks
  /// do not share a line.
  struct alignas(64) Shard {
    Mutex mu;
    size_t capacity = 0;  ///< set once by the constructor
    /// Hits within this many ticks of the entry's stamp skip promotion;
    /// 0 (one shard) means exact LRU. Set once by the constructor.
    size_t promote_window = 0;
    /// Front insertions (new entries and promotions) so far.
    uint64_t tick CQCS_GUARDED_BY(mu) = 0;
    EntryList entries CQCS_GUARDED_BY(mu);  // front = most recently used
    std::unordered_multimap<uint64_t, typename EntryList::iterator> index
        CQCS_GUARDED_BY(mu);
    CacheStats stats CQCS_GUARDED_BY(mu);

    /// Entries sharing a digest live in the multimap bucket; the full
    /// canonical comparison picks the right one (or none).
    typename EntryList::iterator Find(const CacheKey& key) CQCS_REQUIRES(mu) {
      auto [lo, hi] = index.equal_range(key.digest);
      for (auto it = lo; it != hi; ++it) {
        if (it->second->key == key) return it->second;
      }
      return entries.end();
    }

    void MoveToFront(typename EntryList::iterator it) CQCS_REQUIRES(mu) {
      entries.splice(entries.begin(), entries, it);
      it->promoted_at = ++tick;
    }

    /// Unlinks the entry and hands back its value, for the caller to
    /// release once the lock is dropped.
    std::shared_ptr<const V> Remove(typename EntryList::iterator it)
        CQCS_REQUIRES(mu) {
      auto [lo, hi] = index.equal_range(it->key.digest);
      for (auto idx = lo; idx != hi; ++idx) {
        if (idx->second == it) {
          index.erase(idx);
          break;
        }
      }
      std::shared_ptr<const V> value = std::move(it->value);
      entries.erase(it);
      return value;
    }
  };

  /// The top digest bits pick the shard; within a shard the index buckets
  /// on the whole digest.
  Shard& ShardFor(uint64_t digest) const {
    return shards_[shard_count_ == 1 ? 0 : digest >> (64 - kShardBits)];
  }

  const size_t capacity_;
  const size_t shard_count_;
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace cqcs::serve

#endif  // CQCS_SERVE_CACHE_H_
