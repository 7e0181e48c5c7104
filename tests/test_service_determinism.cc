/**
 * @file
 * Determinism tests for the arccd service: the response body of every
 * request is a pure function of its canonical form -- independent of
 * the engine's thread count, the cache state, the number of service
 * workers, and the order requests arrive in.
 *
 * The engine already promises bit-identical simulation at any thread
 * count; this suite checks the service stack *preserves* that promise
 * end to end (no timestamps, no thread counts, no cached-flags leaking
 * into bodies), using the same standardServiceRequests() set that
 * arcc_load drives.  CI runs the "determinism" ctest label under
 * ARCC_THREADS=1 and 4 on top of the 1/2/7-thread engines built here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/sim_engine.hh"
#include "service/request.hh"
#include "service/sim_service.hh"

namespace arcc
{
namespace
{

/** The shared request set, scaled down so the suite stays quick. */
std::vector<std::string>
requestLines()
{
    std::vector<std::string> lines;
    for (const ServiceRequest &req :
         standardServiceRequests(/*instrs=*/20000,
                                 /*campaignChannels=*/32))
        lines.push_back(req.canonical());
    return lines;
}

/** Evaluate every line on a fresh service over `threads` engine
 *  executors and return the response bodies in request order. */
std::vector<std::string>
evaluateAll(const std::vector<std::string> &lines, int threads,
            int workers)
{
    SimEngine engine{SimEngine::Options{threads}};
    SimService::Options opts;
    opts.engine = &engine;
    opts.workers = workers;
    SimService service(opts);
    std::vector<std::string> bodies;
    for (const std::string &line : lines)
        bodies.push_back(service.evaluate(line).body);
    return bodies;
}

TEST(ServiceDeterminism, ThreadCountNeverChangesABody)
{
    const std::vector<std::string> lines = requestLines();
    const std::vector<std::string> base =
        evaluateAll(lines, 1, 1);
    for (const std::string &body : base)
        ASSERT_EQ(body.rfind("{\"ok\":true", 0), 0u) << body;
    for (int threads : {2, 7}) {
        const std::vector<std::string> bodies =
            evaluateAll(lines, threads, 2);
        ASSERT_EQ(bodies.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(bodies[i], base[i])
                << threads << " threads, request " << lines[i];
    }
}

TEST(ServiceDeterminism, CacheStateNeverChangesABody)
{
    const std::vector<std::string> lines = requestLines();
    SimEngine engine{SimEngine::Options{2}};
    SimService::Options opts;
    opts.engine = &engine;
    opts.workers = 2;
    SimService service(opts);

    std::vector<std::string> cold;
    for (const std::string &line : lines)
        cold.push_back(service.evaluate(line).body);
    // Warm pass in *reverse* order: every response is cache-served
    // yet byte-identical to its cold twin.
    for (std::size_t i = lines.size(); i-- > 0;)
        EXPECT_EQ(service.evaluate(lines[i]).body, cold[i]);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cacheHits, lines.size());
    EXPECT_EQ(stats.cacheMisses, lines.size());
}

TEST(ServiceDeterminism, ConcurrentArrivalNeverChangesABody)
{
    const std::vector<std::string> lines = requestLines();
    const std::vector<std::string> base = evaluateAll(lines, 1, 1);

    SimEngine engine{SimEngine::Options{2}};
    SimService::Options opts;
    opts.engine = &engine;
    opts.workers = 3;
    SimService service(opts);

    // Four pseudo-clients submit the whole set concurrently, each
    // starting at a different rotation, so identical requests race
    // through the cache / singleflight from interleaved arrivals.
    const int kClients = 4;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t outstanding = kClients * lines.size();
    std::map<std::pair<int, std::size_t>, std::string> bodies;
    for (int c = 0; c < kClients; ++c) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::size_t idx = (i + c) % lines.size();
            service.submit(
                /*clientId=*/c + 1, lines[idx],
                [&, c, idx](const ServiceResponse &resp) {
                    std::lock_guard<std::mutex> lock(mutex);
                    bodies[{c, idx}] = resp.body;
                    if (--outstanding == 0)
                        done.notify_all();
                });
        }
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return outstanding == 0; });

    for (int c = 0; c < kClients; ++c)
        for (std::size_t i = 0; i < lines.size(); ++i)
            EXPECT_EQ((bodies[{c, i}]), base[i])
                << "client " << c << ", request " << lines[i];
}

} // namespace
} // namespace arcc
