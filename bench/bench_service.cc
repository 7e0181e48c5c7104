/**
 * @file
 * bench_service -- memoization economics of the arccd service core.
 *
 * Drives the shared standardServiceRequests() set through SimService
 * twice -- once cold (every request simulates) and once warm (every
 * request is cache-served) -- and reports both latencies per request.
 * The point of the memoized daemon is that a repeated sweep costs
 * string lookups instead of simulations; the speedup column is that
 * claim, measured (>= 10x is the ballpark even at short budgets; real
 * budgets are orders of magnitude beyond).
 *
 * stdout holds one JSON row per request with the canonical-request
 * hash and the response CRC, plus one summary row with the cache
 * counters -- all thread-count invariant, so CI diffs the whole
 * stdout across ARCC_THREADS.  The cold / cached latency table goes
 * to stderr, and the bench exits 1 unless the cached sweep is at
 * least 10x cheaper.  ARCC_BENCH_INSTRS scales the sim requests,
 * ARCC_BENCH_SERVICE_CHANNELS the campaign slices.
 */

#include <chrono>

#include "bench_common.hh"
#include "common/crc32c.hh"
#include "service/sim_service.hh"

using namespace arcc;
using namespace arcc::bench;

namespace
{

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::uint32_t
responseCrc(const std::string &body)
{
    return crc32c({reinterpret_cast<const std::uint8_t *>(
                       body.data()),
                   body.size()});
}

} // namespace

int
main()
{
    const std::uint64_t instrs = instrBudget();
    const std::uint64_t channels =
        envU64("ARCC_BENCH_SERVICE_CHANNELS", 256);

    SimService::Options opts;
    opts.workers = 1; // evaluate() computes on the calling thread.
    SimService service(opts);

    const std::vector<ServiceRequest> set =
        standardServiceRequests(instrs, channels);

    std::printf("service memoization: %zu requests, %llu instrs, "
                "%llu campaign channels\n\n",
                set.size(),
                static_cast<unsigned long long>(instrs),
                static_cast<unsigned long long>(channels));

    TextTable table;
    table.header({"Request", "Cold ms", "Cached ms", "Speedup"});

    double coldTotal = 0.0, warmTotal = 0.0, minSpeedup = 0.0;
    bool first = true;
    for (const ServiceRequest &req : set) {
        const std::string line = req.canonical();

        auto t0 = std::chrono::steady_clock::now();
        const ServiceResponse cold = service.evaluate(line);
        const double coldMs = msSince(t0);

        t0 = std::chrono::steady_clock::now();
        const ServiceResponse warm = service.evaluate(line);
        const double warmMs = msSince(t0);

        if (cold.body != warm.body)
            fatal("cached response differs from cold for %s",
                  line.c_str());
        if (cold.body.rfind("{\"ok\":true", 0) != 0)
            fatal("request failed: %s", cold.body.c_str());

        const double speedup = warmMs > 0.0 ? coldMs / warmMs : 0.0;
        coldTotal += coldMs;
        warmTotal += warmMs;
        if (first || speedup < minSpeedup)
            minSpeedup = speedup;
        first = false;

        char hashHex[24];
        std::snprintf(hashHex, sizeof hashHex, "\"%016llx\"",
                      static_cast<unsigned long long>(req.hash()));
        table.row({line.substr(0, 44), TextTable::num(coldMs, 3),
                   TextTable::num(warmMs, 3),
                   TextTable::num(speedup, 1)});
        jsonRow("service",
                {{"request_hash", hashHex},
                 {"resp_bytes", jsonNum(static_cast<std::uint64_t>(
                                    cold.body.size()))},
                 {"resp_crc", jsonNum(static_cast<std::uint64_t>(
                                  responseCrc(cold.body)))}});
    }
    table.print(stderr);
    std::fprintf(stderr,
                 "\ntotals: cold %.1f ms, cached %.1f ms, min "
                 "speedup %.0fx\n",
                 coldTotal, warmTotal, minSpeedup);

    const ServiceStats stats = service.stats();
    std::printf("\ncache: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.cacheMisses));
    jsonRow("service_summary",
            {{"requests", jsonNum(static_cast<std::uint64_t>(
                  set.size()))},
             {"hits", jsonNum(stats.cacheHits)},
             {"misses", jsonNum(stats.cacheMisses)}});

    // The economics claim, asserted: a cache-served sweep must be at
    // least 10x cheaper in aggregate than the cold one.  Per-request
    // jitter is why this is on the totals, not the minimum.
    if (warmTotal * 10.0 > coldTotal) {
        std::fprintf(stderr,
                     "bench_service: warm sweep %.1f ms is not 10x "
                     "cheaper than cold %.1f ms\n",
                     warmTotal, coldTotal);
        return 1;
    }
    return 0;
}
