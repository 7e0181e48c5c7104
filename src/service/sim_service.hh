/**
 * @file
 * SimService: the daemon's scheduler + memoizer, transport-free.
 *
 * One SimService owns the response cache, the singleflight table, and
 * a small pool of evaluation workers in front of a shared SimEngine.
 * The socket server (service/server.hh) is a thin framing layer over
 * `submit`; tests and bench_service call `evaluate` directly -- same
 * path, no sockets.
 *
 * ## Fair queueing
 *
 * Every client gets its own FIFO; workers pick the next job
 * round-robin over the non-empty FIFOs.  A client that pipelines a
 * thousand requests therefore delays another client by at most one
 * in-flight request per worker, while each client's own requests
 * still evaluate in submission order whenever the round-robin returns
 * to it.  In-flight work is bounded by the worker count; everything
 * else waits in its client's FIFO.
 *
 * ## Memoization and singleflight
 *
 * Sim responses are memoized in a ResponseCache keyed by the
 * canonical request string.  Identical requests *in flight* are
 * coalesced: the first computes, later arrivals park their callbacks
 * on the flight and are answered from the one computation (counted as
 * `coalesced`, and their worker moves on instead of blocking).
 *
 * ## Determinism contract
 *
 * The response body of a mix / trace / campaign request is a pure
 * function of its canonical form: no timestamps, no thread counts, no
 * cached-or-not marker.  Cold, cached, and coalesced evaluations are
 * byte-identical, at any engine width -- the property
 * tests/test_service_determinism.cc pins.  Cache effectiveness is
 * observable only through the separate "stats" request, which is
 * never memoized and never part of a determinism digest.
 */

#ifndef ARCC_SERVICE_SIM_SERVICE_HH
#define ARCC_SERVICE_SIM_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hh"
#include "service/request.hh"

namespace arcc
{

class SimEngine;

/** One answered request. */
struct ServiceResponse
{
    /** The response line (no trailing newline). */
    std::string body;
    /** True when the request asked the daemon to exit; the transport
     *  acts on it after delivering the body. */
    bool shutdown = false;
};

/** Scheduler counters, sampled atomically under the service locks. */
struct ServiceStats
{
    std::uint64_t received = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    std::uint64_t cacheEntries = 0;
    std::uint64_t cacheBytes = 0;
};

/** The memoizing, fair-queued evaluation core of arccd. */
class SimService
{
  public:
    struct Options
    {
        /** Evaluation worker threads (>= 1): the in-flight bound. */
        int workers = 2;
        ResponseCache::Options cache;
        /** Engine campaign requests shard their trials on; nullptr =
         *  global().  Mix and trace requests are one serial
         *  simulation each, run on the evaluating worker. */
        SimEngine *engine = nullptr;
    };

    /** Fires exactly once per submitted request, from a worker
     *  thread.  Must not block for long and must not re-enter the
     *  service. */
    using Callback = std::function<void(const ServiceResponse &)>;

    SimService() : SimService(Options()) {}
    explicit SimService(const Options &options);

    /** Fails every queued job with an error response, then joins the
     *  workers (in-flight evaluations finish first). */
    ~SimService();

    /**
     * Enqueue one request line on `clientId`'s FIFO.
     * @param clientId fair-queueing identity (one per connection).
     * @param line     raw request line (parsed on a worker).
     * @param done     completion callback; see Callback.
     */
    void submit(std::uint64_t clientId, std::string line,
                Callback done);

    /** Synchronous evaluation on the calling thread -- the full
     *  memoized/coalesced path minus the client FIFOs.  The calling
     *  thread does the compute on a miss. */
    ServiceResponse evaluate(const std::string &line);

    ServiceStats stats() const;

  private:
    struct Job
    {
        std::string line;
        Callback done;
    };

    /** One in-flight computation; later identical requests park
     *  their callbacks here. */
    struct Flight
    {
        std::vector<Callback> waiters;
    };

    void workerLoop();
    /** Pop the next job round-robin (queueMutex_ held). */
    bool popJob(Job &out);
    /** Parse, memoize/coalesce, compute; fires `done` (and any
     *  coalesced waiters) exactly once unless the job was parked. */
    void process(const std::string &line, const Callback &done);
    /** The uncached compute: simulate and serialize. */
    std::string computeBody(const ServiceRequest &req) const;
    std::string statsBody() const;

    Options options_;
    SimEngine *engine_;
    ResponseCache cache_;

    mutable std::mutex queueMutex_;
    std::condition_variable queueReady_;
    bool stopping_ = false;
    std::map<std::uint64_t, std::deque<Job>> queues_;
    /** Round-robin ring of clients with non-empty FIFOs. */
    std::deque<std::uint64_t> ring_;

    mutable std::mutex flightMutex_;
    std::map<std::string, Flight> flights_;

    mutable std::mutex statMutex_;
    std::uint64_t received_ = 0;
    std::uint64_t ok_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t coalesced_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace arcc

#endif // ARCC_SERVICE_SIM_SERVICE_HH
