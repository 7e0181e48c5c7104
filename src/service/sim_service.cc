/**
 * @file
 * SimService implementation.
 */

#include "service/sim_service.hh"

#include <exception>
#include <future>

#include "common/json.hh"
#include "common/logging.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"

namespace arcc
{

namespace
{

std::string
errorBody(const std::string &message)
{
    return "{\"ok\":false,\"error\":" + json::quote(message) + "}";
}

const WorkloadMix &
mixByName(const std::string &name)
{
    for (const WorkloadMix &m : table73Mixes())
        if (m.name == name)
            return m;
    panic("validated mix \"%s\" disappeared", name.c_str());
}

MemoryConfig
memoryConfigByName(const std::string &name)
{
    if (name == "baseline")
        return baselineConfig();
    if (name == "arcc")
        return arccConfig();
    if (name == "arcc4")
        return arccConfig4();
    if (name == "arcc8")
        return arccConfig8();
    panic("validated config \"%s\" disappeared", name.c_str());
}

PageUpgradeOracle
oracleFor(const ServiceRequest &req, const MemoryConfig &mem)
{
    using S = PageUpgradeOracle::Scenario;
    if (req.fraction >= 0.0)
        return PageUpgradeOracle::forFraction(req.fraction, mem);
    if (req.fault == "none")
        return PageUpgradeOracle{};
    if (req.fault == "lane")
        return PageUpgradeOracle::forScenario(S::Lane, mem);
    if (req.fault == "device")
        return PageUpgradeOracle::forScenario(S::Device, mem);
    if (req.fault == "bank")
        return PageUpgradeOracle::forScenario(S::Bank, mem);
    if (req.fault == "column")
        return PageUpgradeOracle::forScenario(S::Column, mem);
    panic("validated fault \"%s\" disappeared", req.fault.c_str());
}

/** The deterministic sim-result payload: counters and model outputs
 *  only, never timing or thread counts. */
std::string
simResultJson(const SimResult &res)
{
    std::string out = "{\"avg_power_mw\":" +
                      json::number(res.avgPowerMw);
    out += ",\"cores\":[";
    for (std::size_t i = 0; i < res.cores.size(); ++i) {
        const CoreResult &c = res.cores[i];
        if (i)
            out += ",";
        out += "{\"benchmark\":" + json::quote(c.benchmark);
        out += ",\"instrs\":" + std::to_string(c.instrs);
        out += ",\"ipc\":" + json::number(c.ipc);
        out += ",\"llc_accesses\":" + std::to_string(c.llcAccesses);
        out += ",\"llc_misses\":" + std::to_string(c.llcMisses);
        out += ",\"trace_laps\":" + std::to_string(c.traceLaps);
        out += "}";
    }
    out += "],\"elapsed_ns\":" + json::number(res.elapsedNs);
    out += ",\"ipc_sum\":" + json::number(res.ipcSum);
    out += ",\"mem_reads\":" + std::to_string(res.memReads);
    out += ",\"mem_writes\":" + std::to_string(res.memWrites);
    out += ",\"scrub_reads\":" + std::to_string(res.scrubReads);
    out += ",\"scrub_writes\":" + std::to_string(res.scrubWrites);
    out += "}";
    return out;
}

} // anonymous namespace

SimService::SimService(const Options &options)
    : options_(options),
      engine_(options.engine ? options.engine : &SimEngine::global()),
      cache_(options.cache)
{
    ARCC_ASSERT(options_.workers >= 1);
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SimService::~SimService()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueReady_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    // Workers are gone; whatever never got picked up is answered with
    // an error so no client callback is dropped on the floor.
    const ServiceResponse stopped{errorBody("service stopped"), false};
    for (auto &[client, queue] : queues_) {
        for (Job &job : queue)
            job.done(stopped);
    }
}

void
SimService::submit(std::uint64_t clientId, std::string line,
                   Callback done)
{
    {
        std::lock_guard<std::mutex> lock(statMutex_);
        ++received_;
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (!stopping_) {
            std::deque<Job> &queue = queues_[clientId];
            if (queue.empty())
                ring_.push_back(clientId);
            queue.push_back(Job{std::move(line), std::move(done)});
            queueReady_.notify_one();
            return;
        }
    }
    {
        std::lock_guard<std::mutex> lock(statMutex_);
        ++errors_;
    }
    done(ServiceResponse{errorBody("service stopped"), false});
}

ServiceResponse
SimService::evaluate(const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(statMutex_);
        ++received_;
    }
    std::promise<ServiceResponse> promise;
    std::future<ServiceResponse> future = promise.get_future();
    process(line, [&promise](const ServiceResponse &r) {
        promise.set_value(r);
    });
    return future.get();
}

ServiceStats
SimService::stats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lock(statMutex_);
        s.received = received_;
        s.ok = ok_;
        s.errors = errors_;
        s.coalesced = coalesced_;
    }
    s.cacheHits = cache_.hits();
    s.cacheMisses = cache_.misses();
    s.evictions = cache_.evictions();
    s.cacheEntries = cache_.entries();
    s.cacheBytes = cache_.bytes();
    return s;
}

void
SimService::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueReady_.wait(lock, [this] {
                return stopping_ || !ring_.empty();
            });
            if (stopping_)
                return;
            if (!popJob(job))
                continue;
        }
        process(job.line, job.done);
    }
}

bool
SimService::popJob(Job &out)
{
    if (ring_.empty())
        return false;
    const std::uint64_t client = ring_.front();
    ring_.pop_front();
    const auto it = queues_.find(client);
    ARCC_ASSERT(it != queues_.end() && !it->second.empty());
    out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty())
        queues_.erase(it);
    else
        ring_.push_back(client); // round-robin: to the back of the ring.
    return true;
}

void
SimService::process(const std::string &line, const Callback &done)
{
    ServiceRequest req;
    std::string error;
    if (!ServiceRequest::parse(line, req, error)) {
        {
            std::lock_guard<std::mutex> lock(statMutex_);
            ++errors_;
        }
        done(ServiceResponse{errorBody(error), false});
        return;
    }

    if (req.kind == ServiceRequestKind::Stats) {
        const std::string body = statsBody();
        {
            std::lock_guard<std::mutex> lock(statMutex_);
            ++ok_;
        }
        done(ServiceResponse{body, false});
        return;
    }
    if (req.kind == ServiceRequestKind::Shutdown) {
        {
            std::lock_guard<std::mutex> lock(statMutex_);
            ++ok_;
        }
        done(ServiceResponse{"{\"ok\":true,\"kind\":\"shutdown\"}",
                             true});
        return;
    }

    const std::string key = req.canonical();
    {
        std::lock_guard<std::mutex> lock(flightMutex_);
        std::string cached;
        if (cache_.get(key, cached)) {
            {
                std::lock_guard<std::mutex> slock(statMutex_);
                ++ok_;
            }
            done(ServiceResponse{std::move(cached), false});
            return;
        }
        const auto it = flights_.find(key);
        if (it != flights_.end()) {
            it->second.waiters.push_back(done);
            std::lock_guard<std::mutex> slock(statMutex_);
            ++coalesced_;
            return;
        }
        flights_.emplace(key, Flight{});
    }

    // The expensive part, outside every lock.
    std::string body;
    bool okBody = true;
    try {
        body = computeBody(req);
    } catch (const std::exception &e) {
        okBody = false;
        body = errorBody(e.what());
    }
    if (okBody)
        cache_.put(key, body);

    std::vector<Callback> waiters;
    {
        std::lock_guard<std::mutex> lock(flightMutex_);
        waiters = std::move(flights_[key].waiters);
        flights_.erase(key);
    }
    {
        std::lock_guard<std::mutex> lock(statMutex_);
        const std::uint64_t answered = 1 + waiters.size();
        if (okBody)
            ok_ += answered;
        else
            errors_ += answered;
    }
    const ServiceResponse response{std::move(body), false};
    done(response);
    for (const Callback &w : waiters)
        w(response);
}

std::string
SimService::computeBody(const ServiceRequest &req) const
{
    std::string body = "{\"ok\":true,\"kind\":\"";
    if (req.kind == ServiceRequestKind::Campaign) {
        const CampaignDriver driver(req.campaign, engine_);
        const CampaignRunResult run = driver.run();
        const CampaignAggregate &agg = run.aggregate;
        body += "campaign\",\"request_hash\":" +
                std::to_string(req.hash());
        body += ",\"result\":{\"affected_mean\":" +
                json::number(agg.meanAffected());
        body += ",\"aggregate_hash\":" + std::to_string(agg.hash());
        body += ",\"digest\":" +
                std::to_string(run.digest(req.campaign));
        body += ",\"due_candidates\":" +
                std::to_string(agg.dueCandidates);
        body += ",\"faults_sampled\":" +
                std::to_string(agg.faultsSampled);
        body += ",\"sdc_candidates\":" +
                std::to_string(agg.sdcCandidates);
        body += ",\"trials\":" + std::to_string(agg.trials);
        body += ",\"trials_with_fault\":" +
                std::to_string(agg.trialsWithFault);
        body += "}}";
        return body;
    }

    SystemConfig cfg;
    cfg.mem = memoryConfigByName(req.config);
    cfg.instrsPerCore = req.instrs;
    cfg.sectoredLlc = req.sectored;
    cfg.seed = req.seed;
    const PageUpgradeOracle oracle = oracleFor(req, cfg.mem);

    SimResult res;
    if (req.kind == ServiceRequestKind::Mix) {
        res = simulateMix(mixByName(req.mix), cfg, oracle);
        body += "mix";
    } else {
        std::vector<StreamSpec> streams;
        for (const std::string &path : req.tracePaths)
            streams.push_back(traceStreamSpec(path, /*baseIpc=*/1.0));
        res = simulateStreams(std::move(streams), cfg, oracle);
        body += "trace";
    }
    body += "\",\"request_hash\":" + std::to_string(req.hash());
    body += ",\"result\":" + simResultJson(res);
    body += "}";
    return body;
}

std::string
SimService::statsBody() const
{
    const ServiceStats s = stats();
    std::string out = "{\"ok\":true,\"kind\":\"stats\",\"stats\":{";
    out += "\"cache_bytes\":" + std::to_string(s.cacheBytes);
    out += ",\"cache_entries\":" + std::to_string(s.cacheEntries);
    out += ",\"coalesced\":" + std::to_string(s.coalesced);
    out += ",\"errors\":" + std::to_string(s.errors);
    out += ",\"evictions\":" + std::to_string(s.evictions);
    out += ",\"hits\":" + std::to_string(s.cacheHits);
    out += ",\"misses\":" + std::to_string(s.cacheMisses);
    out += ",\"ok\":" + std::to_string(s.ok);
    out += ",\"received\":" + std::to_string(s.received);
    out += ",\"workers\":" + std::to_string(options_.workers);
    out += "}}";
    return out;
}

} // namespace arcc
