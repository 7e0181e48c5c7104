/**
 * @file
 * Benchmark plumbing: percentiles, spans, environment stamp, output.
 */

#include "harness.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "ecc/simd.hh"
#include "engine/sim_engine.hh"

namespace perfbench
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
Outcome::hasLayer(const std::string &name) const
{
    for (const Metric &m : layers)
        if (m.name == name)
            return true;
    return false;
}

// ----- percentiles --------------------------------------------------

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

Tail
pickTail(std::size_t n, double ceiling)
{
    static const Tail ladder[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
    for (const Tail &t : ladder) {
        if (t.q > ceiling + 1e-12)
            continue;
        const auto rank = static_cast<std::size_t>(
            std::ceil(t.q * static_cast<double>(n)));
        if (n >= rank && n - rank >= 10)
            return t;
    }
    return ladder[3];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ----- spans --------------------------------------------------------

std::uint64_t
SpanLog::newOp()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextOp_++;
}

void
SpanLog::add(Span span)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
SpanLog::addAll(std::vector<Span> &&spans)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (Span &s : spans)
        spans_.push_back(std::move(s));
    spans.clear();
}

double
SpanLog::totalNs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.ns();
    return sum;
}

std::uint64_t
SpanLog::totalCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t sum = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.count;
    return sum;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    for (const Span &s : spans_)
        out << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
            << ",\"cause\":" << s.cause << ",\"t0\":" << s.t0
            << ",\"t1\":" << s.t1 << ",\"count\":" << s.count << "}\n";
    return static_cast<bool>(out);
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

// ----- process facts ------------------------------------------------

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the parent's
    // high-water mark across fork + exec.
    return processPeakRssMb(::getpid());
}

double
processPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = -1.0;
            fields >> kb;
            return kb < 0 ? -1.0 : kb / 1024.0;
        }
    }
    return -1.0;
}

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

namespace
{

/** Cache size in KiB of the given level from sysfs (0 when unknown). */
long
cacheKb(int level)
{
    for (int idx = 0; idx < 8; ++idx) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(idx) + "/";
        std::ifstream lv(base + "level");
        int l = 0;
        if (!(lv >> l))
            break;
        if (l != level)
            continue;
        std::ifstream sz(base + "size");
        std::string s;
        if (!(sz >> s) || s.empty())
            return 0;
        long v = std::atol(s.c_str());
        if (s.back() == 'M')
            v *= 1024;
        return v;
    }
    return 0;
}

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

} // namespace

std::string
environmentJson(const Options &options)
{
    std::ostringstream o;
    o << "{\"rev\":\"" << options.rev << "\",\"src_digest\":\""
      << options.srcDigest << "\",\"compiler\":\"" << PERFBENCH_COMPILER
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"sanitizer\":" << (sanitized() ? "true" : "false")
      << ",\"nproc\":" << hardwareThreads() << ",\"engine_threads\":"
      << arcc::SimEngine::global().threads() << ",\"simd_tier\":\""
      << arcc::simd::tierName(arcc::simd::activeTier())
      << "\",\"l2_kb\":" << cacheKb(2) << ",\"l3_kb\":" << cacheKb(3)
      << "}";
    return o.str();
}

bool
benchmarkableBuild(std::string &why)
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo") {
        why = "build type is \"" + type + "\", not Release";
        return false;
    }
    if (sanitized()) {
        why = "sanitizer-instrumented build";
        return false;
    }
#ifndef NDEBUG
    why = "assertions enabled (NDEBUG unset)";
    return false;
#endif
    return true;
}

// ----- output -------------------------------------------------------

namespace
{

/** Every digit of a measured value. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
resultLine(const Outcome &outcome, bool trace)
{
    const std::vector<Metric> &metrics =
        trace ? outcome.layers : outcome.endToEnd;
    std::string out = "{\"correct\":";
    out += outcome.correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(outcome.attempted);
    out += ",\"failed\":" + std::to_string(outcome.failed);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ",";
        out += "\"" + metrics[i].name + "\":{\"value\":" +
               number(metrics[i].value) + ",\"unit\":\"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
