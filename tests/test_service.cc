/**
 * @file
 * Tests for the arccd service stack: strict JSON, request parsing /
 * canonicalization, the LRU response cache, the SimService scheduler,
 * and the Unix-socket server end to end.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "cpu/trace.hh"
#include "engine/sim_engine.hh"
#include "service/cache.hh"
#include "service/request.hh"
#include "service/server.hh"
#include "service/sim_service.hh"

namespace arcc
{
namespace
{

// --- strict JSON --------------------------------------------------------

TEST(Json, ParsesScalarsExactly)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse("18446744073709551615", v, err)) << err;
    EXPECT_TRUE(v.isUint);
    EXPECT_EQ(v.uintValue, ~std::uint64_t{0});
    ASSERT_TRUE(json::parse("-9223372036854775808", v, err));
    EXPECT_TRUE(v.isInt);
    EXPECT_FALSE(v.isUint);
    ASSERT_TRUE(json::parse("0.5", v, err));
    EXPECT_FALSE(v.isInt);
    EXPECT_DOUBLE_EQ(v.number, 0.5);
}

TEST(Json, RejectsTheSharpEdges)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\":1,\"a\":2}", v, err));
    EXPECT_TRUE(err.find("duplicate") != std::string::npos) << err;
    EXPECT_FALSE(json::parse("{\"a\":1} trailing", v, err));
    EXPECT_FALSE(json::parse("042", v, err));
    EXPECT_FALSE(json::parse("18446744073709551616", v, err));
    EXPECT_FALSE(json::parse("\"\\ud800\"", v, err));
    EXPECT_FALSE(json::parse(std::string(40, '[') +
                                 std::string(40, ']'),
                             v, err));
    EXPECT_FALSE(json::parse("", v, err));
}

// --- request parsing ----------------------------------------------------

TEST(ServiceRequest, DefaultsMaterialize)
{
    ServiceRequest req;
    std::string err;
    ASSERT_TRUE(ServiceRequest::parse("{\"kind\":\"mix\"}", req, err))
        << err;
    EXPECT_EQ(req.kind, ServiceRequestKind::Mix);
    EXPECT_EQ(req.config, "arcc");
    EXPECT_EQ(req.mix, "Mix1");
    EXPECT_EQ(req.fault, "none");
    EXPECT_EQ(req.instrs, 1'000'000u);
    EXPECT_EQ(req.seed, 42u);
    EXPECT_FALSE(req.sectored);
}

TEST(ServiceRequest, RejectsWithoutFatal)
{
    const char *bad[] = {
        "not json at all",
        "{\"kind\":\"mix\",\"typo_key\":1}",
        "{\"kind\":\"warp\"}",
        "{\"kind\":\"mix\",\"config\":\"chipkill\"}",
        "{\"kind\":\"mix\",\"config\":\"ARCC\"}",
        "{\"kind\":\"mix\",\"config\":\"lot9\"}",
        "{\"kind\":\"mix\",\"mix\":\"Mix99\"}",
        "{\"kind\":\"mix\",\"mix\":\"mix1\"}",
        "{\"kind\":\"mix\",\"fault\":\"gamma-ray\"}",
        "{\"kind\":\"mix\",\"fault\":\"fraction\"}",
        "{\"kind\":\"mix\",\"fraction\":1.5}",
        "{\"kind\":\"mix\",\"fraction\":0.5,\"fault\":\"device\"}",
        "{\"kind\":\"mix\",\"instrs\":0}",
        "{\"kind\":\"mix\",\"instrs\":-5}",
        "{\"kind\":\"mix\",\"seed\":\"forty-two\"}",
        "{\"kind\":\"stats\",\"seed\":1}",
        "{\"kind\":\"campaign\",\"channels\":0}",
        "{\"kind\":\"campaign\",\"group_devices\":7}",
        "{\"kind\":\"campaign\",\"epoch_trials\":4,"
        "\"shard_trials\":8}",
        "{\"kind\":\"campaign\",\"years\":0}",
        "{\"kind\":\"campaign\",\"channels\":1,\"boost\":1e9,"
        "\"years\":1000}",
        "{\"kind\":\"campaign\",\"boost\":140000,\"years\":20}",
        "{\"kind\":\"trace\"}",
        "{\"kind\":\"trace\",\"paths\":[\"/nonexistent/a\","
        "\"/nonexistent/b\",\"/nonexistent/c\",\"/nonexistent/d\"]}",
    };
    for (const char *line : bad) {
        ServiceRequest req;
        std::string err;
        EXPECT_FALSE(ServiceRequest::parse(line, req, err)) << line;
        EXPECT_FALSE(err.empty()) << line;
    }
}

TEST(ServiceRequest, SpellingsCanonicalizeIdentically)
{
    const char *spellings[] = {
        "{\"kind\":\"mix\",\"mix\":\"Mix3\",\"seed\":7}",
        "{ \"seed\" : 7 , \"mix\" : \"Mix3\" , \"kind\" : \"mix\" }",
        "{\"mix\":\"Mix3\",\"kind\":\"mix\",\"seed\":7,"
        "\"sectored\":false}",
        "{\"kind\":\"mix\",\"mix\":\"Mix3\",\"seed\":7,"
        "\"fraction\":-1.0}",
    };
    ServiceRequest first;
    std::string err;
    ASSERT_TRUE(ServiceRequest::parse(spellings[0], first, err));
    for (const char *line : spellings) {
        ServiceRequest req;
        ASSERT_TRUE(ServiceRequest::parse(line, req, err)) << line;
        EXPECT_EQ(req.canonical(), first.canonical()) << line;
        EXPECT_EQ(req.hash(), first.hash()) << line;
    }
}

TEST(ServiceRequest, CanonicalRoundTrips)
{
    const char *lines[] = {
        "{\"kind\":\"mix\"}",
        "{\"kind\":\"mix\",\"config\":\"baseline\",\"mix\":\"Mix7\","
        "\"fault\":\"bank\",\"instrs\":12345,\"sectored\":true}",
        "{\"kind\":\"mix\",\"fraction\":0.25}",
        "{\"kind\":\"mix\",\"config\":\"arcc\",\"fault\":\"none\"}",
        "{\"kind\":\"mix\",\"config\":\"arcc4\",\"fault\":\"lane\"}",
        "{\"kind\":\"mix\",\"config\":\"arcc8\",\"mix\":\"Mix12\","
        "\"fault\":\"device\"}",
        "{\"kind\":\"mix\",\"fault\":\"column\"}",
        "{\"kind\":\"campaign\",\"channels\":64,\"seed\":9,"
        "\"epoch_trials\":32,\"shard_trials\":16}",
        "{\"kind\":\"stats\"}",
        "{\"kind\":\"shutdown\"}",
    };
    for (const char *line : lines) {
        ServiceRequest req, again;
        std::string err;
        ASSERT_TRUE(ServiceRequest::parse(line, req, err)) << line;
        const std::string canon = req.canonical();
        ASSERT_TRUE(ServiceRequest::parse(canon, again, err))
            << canon << ": " << err;
        EXPECT_EQ(again.canonical(), canon);
        EXPECT_EQ(again.hash(), req.hash());
    }
}

// --- trace requests and content identity --------------------------------

class TraceRequestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Four tiny synthetic traces, one per core.
        for (int core = 0; core < 4; ++core) {
            std::string path = ::testing::TempDir() +
                               "svc_trace_c" +
                               std::to_string(core) + ".trc";
            captureSyntheticTrace("mcf2006", 1ULL << 30, core, 42,
                                  2000,
                                  path, /*binary=*/core % 2 == 0);
            paths_.push_back(path);
        }
    }

    std::string
    traceLine() const
    {
        std::string line = "{\"kind\":\"trace\",\"paths\":[";
        for (std::size_t i = 0; i < paths_.size(); ++i) {
            if (i)
                line += ",";
            line += json::quote(paths_[i]);
        }
        line += "],\"instrs\":2000}";
        return line;
    }

    std::vector<std::string> paths_;
};

TEST_F(TraceRequestTest, ContentChangesTheCanonicalForm)
{
    ServiceRequest before;
    std::string err;
    ASSERT_TRUE(ServiceRequest::parse(traceLine(), before, err))
        << err;
    ASSERT_EQ(before.traceCrcs.size(), 4u);

    // Append a byte to one file: same path, different content --
    // the canonical form (and therefore the cache key) must change.
    {
        std::FILE *f = std::fopen(paths_[1].c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputc('x', f);
        std::fclose(f);
    }
    ServiceRequest after;
    ASSERT_TRUE(ServiceRequest::parse(traceLine(), after, err));
    EXPECT_NE(after.canonical(), before.canonical());
    EXPECT_NE(after.hash(), before.hash());

    // The stale canonical form now *fails* to parse: its embedded
    // trace_crcs no longer match the bytes on disk.
    ServiceRequest stale;
    EXPECT_FALSE(
        ServiceRequest::parse(before.canonical(), stale, err));
    EXPECT_TRUE(err.find("changed") != std::string::npos) << err;

    // The fresh canonical form round-trips.
    ServiceRequest again;
    ASSERT_TRUE(
        ServiceRequest::parse(after.canonical(), again, err));
    EXPECT_EQ(again.canonical(), after.canonical());
}

TEST_F(TraceRequestTest, BadTraceIsAnErrorResponseNotAnExit)
{
    // A malformed, an empty and a torn trace each fail their own
    // request: the service answers every one, caches none, and keeps
    // serving.
    SimService::Options opts;
    opts.workers = 1;
    SimService service(opts);
    const std::pair<std::string, const char *> cases[] = {
        {"1000 R 5\nzzz Q 5\n", "line 2: 'zzz' is not a hex address"},
        {"# comments only\n", "contains no accesses"},
        {std::string(kTraceMagic, sizeof kTraceMagic) + "abc",
         "is truncated: 3 payload bytes"},
    };
    const std::string path = ::testing::TempDir() + "svc_bad_trace.trc";
    for (const auto &[bytes, message] : cases) {
        SCOPED_TRACE(message);
        {
            std::ofstream out(path, std::ios::binary);
            out << bytes;
        }
        std::string line = "{\"kind\":\"trace\",\"paths\":[";
        for (int core = 0; core < 4; ++core)
            line.append(core ? "," : "").append(json::quote(path));
        line += "],\"instrs\":2000}";
        const ServiceResponse resp = service.evaluate(line);
        EXPECT_EQ(resp.body.rfind("{\"ok\":false", 0), 0u) << resp.body;
        EXPECT_NE(resp.body.find(message), std::string::npos)
            << resp.body;
    }
    std::remove(path.c_str());

    const ServiceResponse stats = service.evaluate("{\"kind\":\"stats\"}");
    EXPECT_EQ(stats.body.rfind("{\"ok\":true", 0), 0u) << stats.body;
    EXPECT_EQ(service.stats().errors, 3u);
    EXPECT_EQ(service.stats().cacheEntries, 0u);
}

// --- the response cache -------------------------------------------------

TEST(ResponseCache, LruEvictionOrder)
{
    ResponseCache::Options opts;
    opts.maxEntries = 2;
    ResponseCache cache(opts);
    cache.put("a", "1");
    cache.put("b", "2");
    std::string out;
    ASSERT_TRUE(cache.get("a", out)); // refresh a: b is now LRU.
    cache.put("c", "3");              // evicts b.
    EXPECT_TRUE(cache.get("a", out));
    EXPECT_TRUE(cache.get("c", out));
    EXPECT_FALSE(cache.get("b", out));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(ResponseCache, ByteBudgetHolds)
{
    ResponseCache::Options opts;
    opts.maxEntries = 100;
    opts.maxBytes = 64;
    ResponseCache cache(opts);
    // Keys count toward the budget too: each entry is 2 + 33 bytes,
    // so the second insert must evict the first to stay under 64.
    cache.put("k1", std::string(33, 'x'));
    cache.put("k2", std::string(33, 'y'));
    EXPECT_LE(cache.bytes(), 64u);
    EXPECT_EQ(cache.entries(), 1u); // k1 evicted to fit k2.
    // An entry bigger than the whole budget is not cached at all.
    cache.put("k3", std::string(100, 'z'));
    std::string out;
    EXPECT_FALSE(cache.get("k3", out));
}

TEST(ResponseCache, RefreshedValueReplaces)
{
    ResponseCache cache;
    cache.put("k", "old");
    cache.put("k", "new");
    std::string out;
    ASSERT_TRUE(cache.get("k", out));
    EXPECT_EQ(out, "new");
    EXPECT_EQ(cache.entries(), 1u);
}

// --- SimService ---------------------------------------------------------

class SimServiceTest : public ::testing::Test
{
  protected:
    SimServiceTest() : engine_(SimEngine::Options{2})
    {
        opts_.engine = &engine_;
        opts_.workers = 2;
    }

    SimEngine engine_;
    SimService::Options opts_;
};

TEST_F(SimServiceTest, MalformedLineGetsErrorAndServiceLives)
{
    SimService service(opts_);
    const ServiceResponse bad = service.evaluate("{{{nope");
    EXPECT_EQ(bad.body.rfind("{\"ok\":false", 0), 0u) << bad.body;
    // The daemon answered instead of dying; real work still runs.
    const ServiceResponse good = service.evaluate(
        "{\"kind\":\"mix\",\"instrs\":5000}");
    EXPECT_EQ(good.body.rfind("{\"ok\":true", 0), 0u) << good.body;
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.received, 2u);
}

TEST_F(SimServiceTest, MemoizationServesByteIdenticalResponses)
{
    SimService service(opts_);
    const std::string line = "{\"kind\":\"mix\",\"instrs\":5000}";
    const ServiceResponse cold = service.evaluate(line);
    const ServiceResponse warm = service.evaluate(line);
    EXPECT_EQ(cold.body, warm.body);
    // A different spelling of the same request is also a cache hit.
    const ServiceResponse spelled = service.evaluate(
        "{ \"instrs\" : 5000, \"kind\" : \"mix\" }");
    EXPECT_EQ(spelled.body, cold.body);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 1u);
    EXPECT_EQ(stats.cacheHits, 2u);
}

TEST_F(SimServiceTest, EvaluateCountsEachRequestOnce)
{
    // evaluate() looks a line up once: the miss computes, the repeat
    // is a hit, and neither is counted again.
    SimService service(opts_);
    const std::string line = "{\"kind\":\"mix\",\"instrs\":5000}";
    EXPECT_EQ(service.evaluate(line).body, service.evaluate(line).body);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cacheMisses, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.ok, 2u);
    EXPECT_EQ(stats.received, 2u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.errors, 0u);
}

TEST_F(SimServiceTest, StatsRequestIsNeverMemoized)
{
    SimService service(opts_);
    const ServiceResponse s1 = service.evaluate("{\"kind\":\"stats\"}");
    const ServiceResponse s2 = service.evaluate("{\"kind\":\"stats\"}");
    EXPECT_EQ(s1.body.rfind("{\"ok\":true", 0), 0u);
    // The counters moved between the two samples, so the bodies
    // differ -- proof the stats path bypasses the cache.
    EXPECT_NE(s1.body, s2.body);
    EXPECT_EQ(service.stats().cacheMisses, 0u);
}

TEST_F(SimServiceTest, ShutdownRequestSetsTheFlag)
{
    SimService service(opts_);
    const ServiceResponse resp =
        service.evaluate("{\"kind\":\"shutdown\"}");
    EXPECT_TRUE(resp.shutdown);
    EXPECT_EQ(resp.body.rfind("{\"ok\":true", 0), 0u);
}

TEST_F(SimServiceTest, CampaignRequestComputes)
{
    SimService service(opts_);
    const ServiceResponse resp = service.evaluate(
        "{\"kind\":\"campaign\",\"channels\":16,"
        "\"epoch_trials\":16,\"shard_trials\":8}");
    ASSERT_EQ(resp.body.rfind("{\"ok\":true", 0), 0u) << resp.body;
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(resp.body, doc, err)) << err;
    const json::Value *result = doc.find("result");
    ASSERT_NE(result, nullptr);
    const json::Value *trials = result->find("trials");
    ASSERT_NE(trials, nullptr);
    EXPECT_EQ(trials->uintValue, 16u);
}

// --- the socket server end to end ---------------------------------------

/** Minimal blocking line client for the end-to-end tests. */
class TestClient
{
  public:
    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool
    connect(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        // A response that never comes fails the read instead of
        // hanging the test.
        const timeval timeout{20, 0};
        return fd_ >= 0 &&
               ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                            sizeof timeout) == 0 &&
               ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    bool
    sendLine(const std::string &line)
    {
        const std::string out = line + "\n";
        return ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(out.size());
    }

    /** Send all of `bytes` without reading; false when the socket
     *  takes nothing for `stallMs` (the daemon stopped reading). */
    bool
    sendAllWithin(const std::string &bytes, int stallMs)
    {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            pollfd p{fd_, POLLOUT, 0};
            if (::poll(&p, 1, stallMs) <= 0)
                return false;
            const ssize_t n =
                ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
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
                out = pending_.substr(0, nl);
                pending_.erase(0, nl + 1);
                return true;
            }
            char buf[4096];
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            pending_.append(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string pending_;
};

class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        engine_ = std::make_unique<SimEngine>(SimEngine::Options{2});
        ArccdServer::Options opts;
        opts.socketPath = ::testing::TempDir() + "arccd_test_" +
                          std::to_string(::getpid()) + ".sock";
        opts.service.engine = engine_.get();
        opts.service.workers = 2;
        server_ = std::make_unique<ArccdServer>(opts);
        std::string error;
        ASSERT_TRUE(server_->start(error)) << error;
    }

    void
    TearDown() override
    {
        server_->stop();
    }

    std::unique_ptr<SimEngine> engine_;
    std::unique_ptr<ArccdServer> server_;
};

TEST_F(ServerTest, PipelinedRequestsComeBackInOrder)
{
    TestClient client;
    ASSERT_TRUE(client.connect(server_->socketPath()));
    // Three distinct requests plus a malformed line in the middle:
    // the error must come back *in position*, and the daemon must
    // keep serving the rest of the pipeline.
    const std::vector<std::string> lines = {
        "{\"kind\":\"mix\",\"instrs\":5000}",
        "this is not json",
        "{\"kind\":\"mix\",\"mix\":\"Mix2\",\"instrs\":5000}",
        "{\"kind\":\"stats\"}",
    };
    for (const std::string &line : lines)
        ASSERT_TRUE(client.sendLine(line));
    std::vector<std::string> responses(lines.size());
    for (std::string &r : responses)
        ASSERT_TRUE(client.readLine(r));
    EXPECT_EQ(responses[0].rfind("{\"ok\":true", 0), 0u);
    EXPECT_EQ(responses[1].rfind("{\"ok\":false", 0), 0u);
    EXPECT_EQ(responses[2].rfind("{\"ok\":true", 0), 0u);
    EXPECT_NE(responses[3].find("\"stats\""), std::string::npos);
    // Responses 0 and 2 are different requests -> different bodies.
    EXPECT_NE(responses[0], responses[2]);
}

TEST_F(ServerTest, HitsAndMissesInterleavedComeBackInTheirSlots)
{
    // The reader answers hits itself and a worker answers misses, so
    // a hit pipelined behind a slow miss must wait for it: every
    // response in its request's slot, whichever thread answered.
    TestClient client;
    ASSERT_TRUE(client.connect(server_->socketPath()));
    const std::string hit = "{\"kind\":\"mix\",\"instrs\":5000}";
    std::string warm;
    ASSERT_TRUE(client.sendLine(hit));
    ASSERT_TRUE(client.readLine(warm));
    ASSERT_EQ(warm.rfind("{\"ok\":true", 0), 0u) << warm;

    const std::string slowMiss =
        "{\"kind\":\"mix\",\"mix\":\"Mix4\",\"instrs\":200000}";
    const std::string miss =
        "{\"kind\":\"mix\",\"mix\":\"Mix5\",\"instrs\":5000}";
    const std::vector<std::string> lines = {
        slowMiss, hit, "not json", hit, "{\"kind\":\"stats\"}", miss, hit,
    };
    for (const std::string &line : lines)
        ASSERT_TRUE(client.sendLine(line));
    std::vector<std::string> responses(lines.size());
    for (std::string &r : responses)
        ASSERT_TRUE(client.readLine(r));

    SimService::Options opts;
    opts.engine = engine_.get();
    SimService fresh(opts);
    EXPECT_EQ(responses[0], fresh.evaluate(slowMiss).body);
    EXPECT_EQ(responses[1], warm);
    EXPECT_EQ(responses[2].rfind("{\"ok\":false", 0), 0u) << responses[2];
    EXPECT_EQ(responses[3], warm);
    EXPECT_EQ(responses[4].rfind("{\"ok\":true,\"kind\":\"stats\"", 0),
              0u)
        << responses[4];
    EXPECT_EQ(responses[5], fresh.evaluate(miss).body);
    EXPECT_EQ(responses[6], warm);
}

TEST_F(ServerTest, EachRequestIsCountedOnce)
{
    // One miss, then nine pipelined copies of it: each is parsed and
    // looked up once, by whichever thread answers it.
    TestClient client;
    ASSERT_TRUE(client.connect(server_->socketPath()));
    const std::string line = "{\"kind\":\"mix\",\"instrs\":5000}";
    std::string resp;
    ASSERT_TRUE(client.sendLine(line));
    ASSERT_TRUE(client.readLine(resp));
    for (int i = 0; i < 9; ++i)
        ASSERT_TRUE(client.sendLine(line));
    for (int i = 0; i < 9; ++i)
        ASSERT_TRUE(client.readLine(resp));
    ASSERT_TRUE(client.sendLine("{\"kind\":\"stats\"}"));
    ASSERT_TRUE(client.readLine(resp));

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(resp, doc, err)) << err;
    const json::Value *stats = doc.find("stats");
    ASSERT_NE(stats, nullptr) << resp;
    const auto counter = [&](const char *name) {
        const json::Value *v = stats->find(name);
        return v && v->isUint ? v->uintValue : ~std::uint64_t{0};
    };
    EXPECT_EQ(counter("misses"), 1u) << resp;
    EXPECT_EQ(counter("hits"), 9u) << resp;
    EXPECT_EQ(counter("ok"), 10u) << resp;
    EXPECT_EQ(counter("coalesced"), 0u) << resp;
    EXPECT_EQ(counter("errors"), 0u) << resp;
    EXPECT_EQ(counter("received"), 11u) << resp;
}

TEST_F(ServerTest, AClientThatPipelinesWithoutReadingIsNotStalled)
{
    // 20,000 hits (580 KB of requests, 13.7 MB of responses) sent
    // before reading any response: more than the socket buffers hold
    // either way.  The reader must keep reading while the responses
    // back up, so the client's send completes and every response
    // then arrives in order.
    TestClient client;
    ASSERT_TRUE(client.connect(server_->socketPath()));
    const std::string hit = "{\"kind\":\"mix\",\"instrs\":5000}";
    std::string warm;
    ASSERT_TRUE(client.sendLine(hit));
    ASSERT_TRUE(client.readLine(warm));

    constexpr int kLines = 20000;
    std::string burst;
    for (int i = 0; i < kLines; ++i)
        burst += hit + "\n";
    ASSERT_TRUE(client.sendAllWithin(burst, /*stallMs=*/10000))
        << "the daemon stopped reading a pipelining client";
    int same = 0;
    std::string resp;
    for (int i = 0; i < kLines; ++i) {
        ASSERT_TRUE(client.readLine(resp));
        same += resp == warm;
    }
    EXPECT_EQ(same, kLines);
}

TEST_F(ServerTest, TwoClientsGetIdenticalAnswers)
{
    TestClient a, b;
    ASSERT_TRUE(a.connect(server_->socketPath()));
    ASSERT_TRUE(b.connect(server_->socketPath()));
    const std::string line = "{\"kind\":\"mix\",\"instrs\":5000}";
    ASSERT_TRUE(a.sendLine(line));
    ASSERT_TRUE(b.sendLine(line));
    std::string ra, rb;
    ASSERT_TRUE(a.readLine(ra));
    ASSERT_TRUE(b.readLine(rb));
    EXPECT_EQ(ra, rb);
}

TEST_F(ServerTest, ShutdownRequestTripsTheLatch)
{
    TestClient client;
    ASSERT_TRUE(client.connect(server_->socketPath()));
    ASSERT_TRUE(client.sendLine("{\"kind\":\"shutdown\"}"));
    std::string resp;
    ASSERT_TRUE(client.readLine(resp));
    EXPECT_EQ(resp.rfind("{\"ok\":true", 0), 0u);
    server_->waitForShutdown(); // must return, not hang.
}

} // namespace
} // namespace arcc
