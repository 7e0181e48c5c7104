/**
 * @file
 * Response memoization for arccd: an LRU keyed by canonical request.
 *
 * The key is the full canonical string, not its 64-bit hash -- a hash
 * collision may cost the daemon a cache slot, never a wrong answer.
 * Capacity is bounded both by entry count and by total bytes of
 * stored keys + values, so a few huge campaign responses cannot pin
 * unbounded memory behind a generous entry budget.
 *
 * Thread-safe; every operation is O(1) under one mutex.  Counters
 * (hits / misses / evictions) feed the daemon's "stats" responses and
 * the arcc_load repeat-leg assertion that a warmed sweep is >= 90%
 * cache-served.
 */

#ifndef ARCC_SERVICE_CACHE_HH
#define ARCC_SERVICE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace arcc
{

/** LRU map from canonical request to response line. */
class ResponseCache
{
  public:
    struct Options
    {
        /** Maximum resident entries (>= 1). */
        std::size_t maxEntries = 4096;
        /** Maximum total bytes of keys + values (>= 1). */
        std::size_t maxBytes = 256ULL << 20;
    };

    ResponseCache() : ResponseCache(Options()) {}
    explicit ResponseCache(const Options &options);

    /**
     * Look up `key`, refreshing its recency.
     * @return true and fill `out` on a hit.
     */
    bool get(const std::string &key, std::string &out);

    /** get() without touching the hit / miss counters: a second look
     *  at a key whose counted lookup already missed. */
    bool getUncounted(const std::string &key, std::string &out);

    /** Insert (or refresh) `key` -> `value`, evicting LRU entries
     *  until both budgets hold.  A value larger than maxBytes on its
     *  own is simply not cached. */
    void put(const std::string &key, std::string value);

    std::size_t entries() const;
    std::size_t bytes() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;

  private:
    using Entry = std::pair<std::string, std::string>;

    /** Look up and refresh `key` (mutex_ held). */
    bool find(const std::string &key, std::string &out);
    /** Drop LRU entries until the budgets hold (mutex_ held). */
    void shrink();

    Options options_;
    mutable std::mutex mutex_;
    /** Front = most recently used. */
    std::list<Entry> lru_;
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace arcc

#endif // ARCC_SERVICE_CACHE_HH
