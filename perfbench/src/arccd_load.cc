/**
 * @file
 * arccd: the real daemon on its Unix socket, one closed-loop client
 * connection, daemon and client pinned to one CPU.
 *
 * The daemon runs one evaluation worker and a one-thread engine, and it
 * shares its CPU with the client thread, so every hand-off of a request
 * (client -> reader -> worker -> writer -> client) is a context switch
 * on that CPU.  Spread over several CPUs, each hand-off would wake an
 * idle virtual CPU instead, and on a shared host that wake-up latency
 * moved the request median by 40% and the throughput by 60% between
 * runs of the same code.
 *
 * Requests come from a warm pool (small-budget mix and campaign
 * requests, Zipf-like popularity) except that every 20th request of a
 * client is a mix request nobody issued before, so the cold share is a
 * fixed fraction of what was attempted and cold misses put a
 * simulation-driven tail under the service.  Every response must be
 * ok:true and byte-identical to the first response to the same line.
 */

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "checks.hh"
#include "common/json.hh"
#include "engine/sim_engine.hh"
#include "probes.hh"
#include "service/request.hh"
#include "service/sim_service.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Pin the calling thread to the highest CPU it may run on (CPU 0
 *  takes most device interrupts).  Every thread that calls this from
 *  the same starting mask lands on the same CPU. */
void
pinToOneCpu()
{
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c)
        if (CPU_ISSET(c, &set)) {
            CPU_ZERO(&set);
            CPU_SET(c, &set);
            ::sched_setaffinity(0, sizeof set, &set);
            return;
        }
}

/** Blocking newline-framed client over one Unix socket. */
class LineClient
{
  public:
    LineClient() = default;
    ~LineClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    bool
    connect(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.empty() || path.size() >= sizeof addr.sun_path)
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd_);
            fd_ = -1;
            return false;
        }
        return true;
    }

    bool
    sendLine(const std::string &line)
    {
        std::string out = line;
        out.push_back('\n');
        std::size_t sent = 0;
        while (sent < out.size()) {
            const ssize_t n = ::send(fd_, out.data() + sent,
                                     out.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string &out)
    {
        for (;;) {
            const std::size_t nl = pending_.find('\n');
            if (nl != std::string::npos) {
                out.assign(pending_, 0, nl);
                pending_.erase(0, nl + 1);
                return true;
            }
            char buf[65536];
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            pending_.append(buf, static_cast<std::size_t>(n));
        }
    }

    bool
    roundTrip(const std::string &line, std::string &response)
    {
        return sendLine(line) && readLine(response);
    }

  private:
    int fd_ = -1;
    std::string pending_;
};

/**
 * A child arccd process serving one socket with one worker on a
 * one-thread engine (ARCC_THREADS=1), pinned like the client (see the
 * file comment).  Its cache holds 1024 entries: the 40 pool lines are
 * refreshed far more often than cold inserts age them out, so hits stay
 * hits and the daemon's resident set levels off instead of growing with
 * throughput.
 */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Spawn and wait for its "listening" line; false sets `error`. */
    bool
    start(const std::string &binary, const std::string &socket,
          std::string &error)
    {
        socket_ = socket;
        int fds[2];
        if (::pipe(fds) != 0) {
            error = "pipe failed";
            return false;
        }
        std::vector<char *> env;
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "ARCC_THREADS=", 13) != 0)
                env.push_back(*e);
        env.push_back(const_cast<char *>("ARCC_THREADS=1"));
        env.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) {
            error = "fork failed";
            ::close(fds[0]);
            ::close(fds[1]);
            return false;
        }
        if (pid_ == 0) {
            pinToOneCpu();
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            const char *argv[] = {binary.c_str(),    "--socket",
                                  socket.c_str(),    "--workers",
                                  "1",               "--cache-entries",
                                  "1024",            "--cache-mb",
                                  "64",              nullptr};
            ::execve(binary.c_str(), const_cast<char *const *>(argv),
                     env.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        out_ = fds[0];
        std::string seen;
        const auto t0 = Clock::now();
        while (seen.find("listening") == std::string::npos) {
            pollfd p{out_, POLLIN, 0};
            if (secondsSince(t0) > 30.0 || ::poll(&p, 1, 1000) < 0) {
                error = "arccd did not start listening";
                return false;
            }
            if (!(p.revents & (POLLIN | POLLHUP)))
                continue;
            char buf[512];
            const ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0) {
                error = "arccd exited before listening: " + seen;
                return false;
            }
            seen.append(buf, static_cast<std::size_t>(n));
        }
        return true;
    }

    pid_t pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    /** Ask for shutdown, then reap (SIGKILL after 20 s). */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        {
            LineClient c;
            std::string ignored;
            if (c.connect(socket_))
                c.roundTrip("{\"kind\":\"shutdown\"}", ignored);
        }
        const auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 20.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            drain();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        if (out_ >= 0)
            ::close(out_);
        out_ = -1;
        ::unlink(socket_.c_str());
    }

  private:
    /** Keep the daemon's stdout pipe from filling. */
    void
    drain()
    {
        pollfd p{out_, POLLIN, 0};
        char buf[512];
        while (out_ >= 0 && ::poll(&p, 1, 0) > 0 && (p.revents & POLLIN) &&
               ::read(out_, buf, sizeof buf) > 0) {
        }
    }

    pid_t pid_ = -1;
    int out_ = -1;
    std::string socket_;
};

/** The daemon's cache counters. */
struct DaemonStats
{
    std::uint64_t hits = 0, misses = 0, coalesced = 0;
};

bool
sampleStats(const std::string &socket, DaemonStats &s)
{
    LineClient c;
    std::string resp;
    if (!c.connect(socket) || !c.roundTrip("{\"kind\":\"stats\"}", resp))
        return false;
    arcc::json::Value doc;
    std::string error;
    if (!arcc::json::parse(resp, doc, error))
        return false;
    const arcc::json::Value *stats = doc.find("stats");
    if (!stats)
        return false;
    const arcc::json::Value *h = stats->find("hits");
    const arcc::json::Value *m = stats->find("misses");
    const arcc::json::Value *c2 = stats->find("coalesced");
    if (!h || !m || !c2 || !h->isUint || !m->isUint || !c2->isUint)
        return false;
    s = {h->uintValue, m->uintValue, c2->uintValue};
    return true;
}

/** What the client saw. */
struct LoadTotals
{
    /** Round trips of untraced requests. */
    std::vector<double> reqMs;
    /** Round trips of traced requests. */
    std::vector<double> tracedMs;
    std::uint64_t attempted = 0, failed = 0;
    double wallS = 0.0;
    bool correct = true;
};

/** Pipeline every pool line on one connection (cache warm-up). */
bool
warmPool(const std::string &socket, const std::vector<std::string> &pool,
         FirstSeenCheck &check)
{
    LineClient c;
    if (!c.connect(socket))
        return false;
    for (const std::string &line : pool)
        if (!c.sendLine(line))
            return false;
    bool ok = true;
    for (const std::string &line : pool) {
        std::string resp;
        if (!c.readLine(resp))
            return false;
        ok = ok && responseOk(resp) && check.check(line, resp);
    }
    return ok;
}

/**
 * One closed-loop client (stream `client`) until `seconds` (or
 * `requests` requests), on its own thread pinned next to the daemon.
 * With spans enabled every request is traced, or with `alternate`
 * every other run of kColdEvery requests (each run holds one cold
 * request).
 */
LoadTotals
runClient(const std::string &socket, const std::vector<std::string> &pool,
          std::uint64_t seed, std::uint64_t client, double seconds,
          std::uint64_t requests, bool alternate, FirstSeenCheck &check,
          SpanLog &spans)
{
    LoadTotals t;
    const auto start = Clock::now();
    std::thread thread([&] {
        pinToOneCpu();
        std::vector<Span> local;
        LineClient conn;
        if (!conn.connect(socket)) {
            t.attempted = t.failed = 1;
            return;
        }
        RequestStream stream(seed, client, pool);
        std::string resp;
        for (std::uint64_t k = 0;
             requests ? k < requests : secondsSince(start) < seconds; ++k) {
            const std::string line = stream.next();
            const std::uint64_t t0 = nowNs();
            const bool sent = conn.roundTrip(line, resp);
            const std::uint64_t t1 = nowNs();
            ++t.attempted;
            if (!sent || !responseOk(resp)) {
                ++t.failed;
                if (!sent)
                    break;
                continue;
            }
            if (!check.check(line, resp))
                t.correct = false;
            const bool traced =
                spans.enabled() &&
                (!alternate || (k / RequestStream::kColdEvery) % 2);
            (traced ? t.tracedMs : t.reqMs)
                .push_back(static_cast<double>(t1 - t0) * 1e-6);
            if (traced)
                local.push_back({stream.lastCold() ? "arccd.cold_request"
                                                   : "arccd.request",
                                 spans.newOp(), 0, t0, t1, 1});
        }
        spans.addAll(std::move(local));
    });
    thread.join();
    t.wallS = secondsSince(start);
    return t;
}

/** Mean microseconds of `reps` passes of body over `items` items. */
template <typename Body>
double
meanUs(SpanLog &spans, const char *name, std::uint64_t op,
       std::uint64_t items, int reps, Body body)
{
    const std::uint64_t t0 = nowNs();
    for (int r = 0; r < reps; ++r)
        body();
    const std::uint64_t t1 = nowNs();
    spans.add({name, op, 0, t0, t1, items * reps});
    return static_cast<double>(t1 - t0) * 1e-3 /
           static_cast<double>(items * reps);
}

/** service/server metrics: in-process probes plus the socket's cost. */
void
serviceMetrics(const Daemon &daemon, const std::vector<std::string> &pool,
               const DaemonStats &window, std::uint64_t seed,
               SpanLog &spans, Outcome &out)
{
    const std::uint64_t op = spans.newOp();
    const std::uint64_t n = pool.size();
    std::vector<arcc::ServiceRequest> parsed(n);
    std::string error;
    bool ok = true;
    const double parseUs = meanUs(spans, "service.parse", op, n, 50, [&] {
        for (std::uint64_t i = 0; i < n; ++i)
            ok = arcc::ServiceRequest::parse(pool[i], parsed[i], error) && ok;
    });
    std::uint64_t bytes = 0;
    const double canonicalUs =
        meanUs(spans, "service.canonical", op, n, 50, [&] {
            for (const arcc::ServiceRequest &r : parsed)
                bytes += r.canonical().size();
        });

    // In-process evaluate, configured like the daemon: first pass over
    // pool + cold lines misses, the second pass over the pool hits.
    arcc::SimEngine engine(arcc::SimEngine::Options{1});
    arcc::SimService::Options serviceOptions;
    serviceOptions.workers = 1;
    serviceOptions.engine = &engine;
    arcc::SimService svc(serviceOptions);
    std::vector<std::string> cold;
    for (std::uint64_t k = 0; k < 8; ++k)
        cold.push_back(coldRequest(seed, 1000, k));
    std::uint64_t t0 = nowNs();
    for (const std::string &line : cold)
        ok = responseOk(svc.evaluate(line).body) && ok;
    std::uint64_t t1 = nowNs();
    spans.add({"service.evaluate_miss", op, 0, t0, t1, cold.size()});
    const double missMs =
        static_cast<double>(t1 - t0) * 1e-6 / static_cast<double>(cold.size());
    for (const std::string &line : pool)
        ok = responseOk(svc.evaluate(line).body) && ok;
    const double hitUs = meanUs(spans, "service.evaluate_hit", op, n, 20, [&] {
        for (const std::string &line : pool)
            ok = responseOk(svc.evaluate(line).body) && ok;
    });

    // The same hits through the socket from a client pinned like the
    // workload's: what framing and the fair queue add on top of
    // evaluate().
    double socketUs = 0.0;
    std::thread([&] {
        pinToOneCpu();
        LineClient c;
        std::string resp;
        if (!c.connect(daemon.socket())) {
            ok = false;
            return;
        }
        socketUs = meanUs(spans, "server.socket_hit", op, n, 20, [&] {
            for (const std::string &line : pool)
                ok = c.roundTrip(line, resp) && responseOk(resp) && ok;
        });
    }).join();
    if (!ok)
        out.correct = false;

    const double lookups = static_cast<double>(window.hits + window.misses);
    out.layer("service.parse_us", parseUs, "us");
    out.layer("service.canonical_us", canonicalUs, "us");
    out.layer("service.hit_us", hitUs, "us");
    out.layer("service.miss_ms", missMs, "ms");
    out.layer("service.hit_ratio",
              lookups > 0 ? static_cast<double>(window.hits) / lookups : 0.0,
              "ratio");
    out.layer("service.coalesced", static_cast<double>(window.coalesced),
              "count");
    out.layer("server.framing_us", socketUs - hitUs, "us");
}

std::string
socketPath(const Options &options, int n)
{
    return options.workDir + "/arccd-" + std::to_string(::getpid()) + "-" +
           std::to_string(n) + ".sock";
}

} // namespace

std::vector<std::string>
arccdPool(std::uint64_t seed)
{
    static const char *const kFaults[] = {"none", "lane", "device", "bank",
                                          "column"};
    constexpr std::size_t kPool = 40;
    arcc::Rng rng(arcc::Rng::mix64(seed ^ 0x706f6f6cULL));
    std::vector<std::string> pool;
    while (pool.size() < kPool) {
        arcc::ServiceRequest r;
        if (pool.size() % 5 == 4) {
            r.kind = arcc::ServiceRequestKind::Campaign;
            r.campaign.channels = 256ULL << rng.below(3);
            r.campaign.seed = 1 + rng.below(1ULL << 20);
            r.campaign.epochTrials = 128;
            r.campaign.shardTrials = 64;
        } else {
            r.kind = arcc::ServiceRequestKind::Mix;
            r.mix = arcc::table73Mixes()[rng.below(12)].name;
            r.config = rng.below(4) == 0 ? "baseline" : "arcc";
            r.fault = r.config == "baseline" ? "none"
                                             : kFaults[rng.below(5)];
            r.instrs = 10000 * (1 + rng.below(2));
            r.seed = 1 + rng.below(1ULL << 20);
        }
        const std::string line = r.canonical();
        if (std::find(pool.begin(), pool.end(), line) == pool.end())
            pool.push_back(line);
    }
    return pool;
}

std::string
coldRequest(std::uint64_t seed, std::uint64_t client, std::uint64_t k)
{
    static const char *const kFaults[] = {"none", "device", "bank"};
    arcc::Rng rng(arcc::Rng::mix64(seed ^ arcc::Rng::mix64(client) ^
                                   arcc::Rng::mix64(k + 0x636f6c64ULL)));
    arcc::ServiceRequest r;
    r.kind = arcc::ServiceRequestKind::Mix;
    r.mix = arcc::table73Mixes()[rng.below(12)].name;
    r.fault = kFaults[rng.below(3)];
    r.instrs = 20000;
    // Pool seeds stay below 2^21; this one is unique per (client, k).
    r.seed = (1ULL << 40) + (client << 32) + k;
    return r.canonical();
}

RequestStream::RequestStream(std::uint64_t seed, std::uint64_t client,
                             const std::vector<std::string> &pool)
    : rng_(arcc::Rng::mix64(seed ^ arcc::Rng::mix64(client + 1))),
      seed_(seed), client_(client), pool_(pool)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        sum += 1.0 / static_cast<double>(i + 1);
        cdf_.push_back(sum);
    }
    for (double &c : cdf_)
        c /= sum;
}

std::string
RequestStream::next()
{
    const std::uint64_t k = issued_++;
    lastCold_ = k % kColdEvery == kColdEvery - 1;
    if (lastCold_)
        return coldRequest(seed_, client_, k / kColdEvery);
    const double u = rng_.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return pool_[std::min<std::size_t>(it - cdf_.begin(), pool_.size() - 1)];
}

Outcome
runArccd(const Options &options, SpanLog &spans)
{
    Outcome out;
    const std::vector<std::string> pool = arccdPool(options.seed);
    FirstSeenCheck check;

    // Warm-up: a first daemon serves one untimed second of load, so
    // timings start on busy cores.  Set-up: start the daemon and warm
    // the pool, seven more times (the last daemon serves the window);
    // report the median.
    std::vector<double> setups;
    Daemon daemon;
    for (int rep = 0; rep <= 7; ++rep) {
        daemon.stop();
        const auto t0 = Clock::now();
        std::string error;
        if (!daemon.start(options.arccdPath, socketPath(options, rep),
                          error)) {
            out.note("arccd: " + error);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
        if (!warmPool(daemon.socket(), pool, check))
            out.correct = false;
        if (rep > 0)
            setups.push_back(secondsSince(t0));
        else if (!runClient(daemon.socket(), pool, options.seed, 200, 1.0,
                            0, false, check, spans)
                      .correct)
            out.correct = false;
    }

    DaemonStats before, after;
    if (!options.trace) {
        sampleStats(daemon.socket(), before);
        const LoadTotals t =
            runClient(daemon.socket(), pool, options.seed, 0,
                      options.seconds, 0, false, check, spans);
        sampleStats(daemon.socket(), after);
        const Tail tail = pickTail(t.reqMs.size(), 0.99);
        out.attempted = t.attempted;
        out.failed = t.failed;
        out.correct = out.correct && t.correct;
        out.e2e("setup_s", median(setups), "s");
        out.e2e("peak_rss_mb", processPeakRssMb(daemon.pid()), "MB");
        out.e2e("op_ms_p50", quantile(t.reqMs, 0.5), "ms");
        out.e2e("op_ms_tail", quantile(t.reqMs, tail.q), "ms");
        out.e2e("work_per_s", static_cast<double>(t.reqMs.size()) / t.wallS,
                "1/s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "arccd: %zu requests from one pinned client, "
                      "tail = %s, daemon hits %llu / misses %llu",
                      t.reqMs.size(), tail.label.c_str(),
                      static_cast<unsigned long long>(after.hits -
                                                      before.hits),
                      static_cast<unsigned long long>(after.misses -
                                                      before.misses));
        out.note(line);
        daemon.stop();
        return out;
    }
    // Every other run of requests traced: the ratio of the traced and
    // untraced requests' medians is the tracing overhead.
    spans.enable(true);
    sampleStats(daemon.socket(), before);
    const LoadTotals t = runClient(daemon.socket(), pool, options.seed, 0,
                                   options.seconds, 0, true, check, spans);
    sampleStats(daemon.socket(), after);
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.correct = out.correct && t.correct;
    out.layer("bench.trace_overhead_pct",
              100.0 * (median(t.tracedMs) / median(t.reqMs) - 1.0), "%");
    serviceMetrics(daemon,
                   pool,
                   {after.hits - before.hits, after.misses - before.misses,
                    after.coalesced - before.coalesced},
                   options.seed, spans, out);
    daemon.stop();
    return out;
}

void
serviceLayerProbe(const Options &options, SpanLog &spans, Outcome &out)
{
    const std::vector<std::string> pool = arccdPool(options.seed);
    FirstSeenCheck check;
    Daemon daemon;
    std::string error;
    if (!daemon.start(options.arccdPath, socketPath(options, 9), error) ||
        !warmPool(daemon.socket(), pool, check)) {
        out.correct = false;
        return;
    }
    DaemonStats before, after;
    sampleStats(daemon.socket(), before);
    const LoadTotals t = runClient(daemon.socket(), pool, options.seed, 0,
                                   0.0, 400, false, check, spans);
    sampleStats(daemon.socket(), after);
    if (!t.correct || t.failed)
        out.correct = false;
    serviceMetrics(daemon,
                   pool,
                   {after.hits - before.hits, after.misses - before.misses,
                    after.coalesced - before.coalesced},
                   options.seed, spans, out);
}

} // namespace perfbench
