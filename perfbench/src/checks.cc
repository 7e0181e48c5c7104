/**
 * @file
 * Output checks of the benchmark workloads.
 */

#include "checks.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace perfbench
{

namespace
{

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

} // namespace

std::string
simResultBytes(const arcc::SimResult &r)
{
    std::string out;
    putU64(out, r.cores.size());
    for (const arcc::CoreResult &c : r.cores) {
        putU64(out, c.benchmark.size());
        out += c.benchmark;
        putU64(out, c.instrs);
        putDouble(out, c.ipc);
        putU64(out, c.llcAccesses);
        putU64(out, c.llcMisses);
        putU64(out, c.traceLaps);
    }
    putDouble(out, r.ipcSum);
    putDouble(out, r.elapsedNs);
    putDouble(out, r.power.dynamicNj);
    putDouble(out, r.power.backgroundNj);
    putDouble(out, r.power.refreshNj);
    putDouble(out, r.avgPowerMw);
    putU64(out, r.llcStats.hits);
    putU64(out, r.llcStats.misses);
    putU64(out, r.llcStats.evictions);
    putU64(out, r.llcStats.pairedFills);
    putU64(out, r.llcStats.pairedWritebacks);
    putU64(out, r.memReads);
    putU64(out, r.memWrites);
    putU64(out, r.scrubReads);
    putU64(out, r.scrubWrites);
    return out;
}

bool
FirstSeenCheck::check(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = first_.emplace(key, value);
    return inserted || it->second == value;
}

void
ShadowMemory::write(std::uint64_t addr,
                    std::span<const std::uint8_t> data)
{
    std::copy(data.begin(), data.end(), bytes_.begin() + addr);
}

ReadVerdict
ShadowMemory::check(std::uint64_t addr,
                    const arcc::ReadResult &read) const
{
    if (read.status == arcc::DecodeStatus::Detected)
        return ReadVerdict::Due;
    if (read.data.size() != arcc::kLineBytes ||
        std::memcmp(read.data.data(), bytes_.data() + addr,
                    arcc::kLineBytes) != 0)
        return ReadVerdict::Mismatch;
    return ReadVerdict::Ok;
}

bool
DigestCheck::verify(std::uint64_t plain) const
{
    return std::all_of(seen_.begin(), seen_.end(),
                       [&](std::uint64_t d) { return d == plain; });
}

bool
responseOk(const std::string &response)
{
    return response.rfind("{\"ok\":true", 0) == 0;
}

int
latencyPasses(const arcc::MixJob &job, const std::string &reference)
{
    int lo = 1;
    int hi = std::max(1, job.config.latencyPasses);
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        arcc::SystemConfig cfg = job.config;
        cfg.latencyPasses = mid;
        if (simResultBytes(arcc::simulateMix(job.mix, cfg, job.oracle)) ==
            reference)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace perfbench
