/**
 * @file
 * ResponseCache implementation.
 */

#include "service/cache.hh"

#include "common/logging.hh"

namespace arcc
{

ResponseCache::ResponseCache(const Options &options) : options_(options)
{
    ARCC_ASSERT(options_.maxEntries >= 1 && options_.maxBytes >= 1);
}

bool
ResponseCache::get(const std::string &key, std::string &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const bool hit = find(key, out);
    ++(hit ? hits_ : misses_);
    return hit;
}

bool
ResponseCache::getUncounted(const std::string &key, std::string &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return find(key, out);
}

bool
ResponseCache::find(const std::string &key, std::string &out)
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->second;
    return true;
}

void
ResponseCache::put(const std::string &key, std::string value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t cost = key.size() + value.size();
    if (cost > options_.maxBytes)
        return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        bytes_ -= it->second->first.size() + it->second->second.size();
        bytes_ += cost;
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        shrink();
        return;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    bytes_ += cost;
    shrink();
}

void
ResponseCache::shrink()
{
    while (lru_.size() > options_.maxEntries ||
           bytes_ > options_.maxBytes) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.first.size() + victim.second.size();
        index_.erase(victim.first);
        lru_.pop_back();
        ++evictions_;
    }
}

std::size_t
ResponseCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

std::size_t
ResponseCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

std::uint64_t
ResponseCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResponseCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
ResponseCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

} // namespace arcc
