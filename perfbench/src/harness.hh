/**
 * @file
 * Shared plumbing of the repository benchmark: run options, the
 * metric record a workload returns, latency percentiles, the in-memory
 * span log, the environment stamp and the result line.
 *
 * All timings are host time (std::chrono::steady_clock).  Modelled
 * outputs (IPC, mW) never enter a metric; they are printed as checks.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (span timestamps). */
std::uint64_t nowNs();

/** Seconds elapsed since t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed window. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: per-layer metrics. */
    bool trace = false;
    /** Source revision stamp (git rev when known). */
    std::string rev = "unknown";
    /** Digest of the library sources the binary was built from. */
    std::string srcDigest = "unknown";
    /** Directory for span files and scratch state (sockets, logs). */
    std::string workDir = ".bench_build/perfbench/work";
    /** The arccd daemon binary. */
    std::string arccdPath;
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    /** False when any output was wrong (a silent mismatch). */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Untraced run: the end-to-end metrics. */
    std::vector<Metric> endToEnd;
    /** Traced run: the per-layer metrics. */
    std::vector<Metric> layers;
    /** Human-readable lines printed ahead of the result line. */
    std::vector<std::string> notes;

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, value, unit});
    }

    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        layers.push_back({name, value, unit});
    }

    /** True when a layer metric of this name was already recorded. */
    bool hasLayer(const std::string &name) const;

    void note(const std::string &line) { notes.push_back(line); }
};

// ----- percentiles --------------------------------------------------

/** Nearest-rank quantile of the samples (0 when empty). */
double quantile(std::vector<double> samples, double q);

/** A chosen tail percentile. */
struct Tail
{
    double q = 0.5;
    /** "p50", "p90", "p99" or "p99.9". */
    std::string label = "p50";
};

/**
 * The highest of p50, p90, p99 and p99.9 that is at most `ceiling`
 * and leaves at least 10 of `n` samples beyond its nearest rank, so a
 * reported tail always rests on ten or more observations.  p50 when no
 * percentile qualifies.
 */
Tail pickTail(std::size_t n, double ceiling = 0.999);

/** Median of the samples (helper for repeated set-up timings). */
double median(std::vector<double> samples);

// ----- spans --------------------------------------------------------

/**
 * One timed interval around a call into a library layer.  Spans of one
 * workload operation share `op`; a probe span's `cause` names the
 * workload operation whose inputs it replays (0 when the probe runs on
 * standalone inputs).  `count` is the number of calls the span covers.
 */
struct Span
{
    std::string name;
    std::uint64_t op = 0;
    std::uint64_t cause = 0;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    std::uint64_t count = 1;

    double ns() const { return static_cast<double>(t1 - t0); }
};

/**
 * Spans kept in memory for the whole run and written out at the end.
 * Recording is off unless enabled, so the untraced path pays one
 * branch per operation.  Thread-safe; busy threads buffer their spans
 * locally and hand them over with addAll().
 */
class SpanLog
{
  public:
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** A fresh operation id (never 0). */
    std::uint64_t newOp();

    void add(Span span);
    void addAll(std::vector<Span> &&spans);

    /** Summed duration (ns) and call count of every span so named. */
    double totalNs(const std::string &name) const;
    std::uint64_t totalCount(const std::string &name) const;

    /** Write one JSON object per span; false on an I/O error. */
    bool write(const std::string &path) const;

    std::size_t size() const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::uint64_t nextOp_ = 1;
    std::vector<Span> spans_;
};

// ----- process facts ------------------------------------------------

/** Peak resident set of this process (MB). */
double peakRssMb();

/** Peak resident set of another process from /proc (MB; -1 on error). */
double processPeakRssMb(pid_t pid);

/** Hardware thread count the benchmark sizes its callers by. */
int hardwareThreads();

/**
 * The environment stamp as one JSON object: revision, source digest,
 * compiler, build type, nproc, engine threads, SIMD tier, host L2/L3.
 */
std::string environmentJson(const Options &options);

/**
 * True when this binary is an optimized, uninstrumented build; false
 * sets `why`.  Timings from Debug or sanitizer builds are refused.
 */
bool benchmarkableBuild(std::string &why);

// ----- output -------------------------------------------------------

/** The last stdout line: {"correct","attempted","failed","metrics"}. */
std::string resultLine(const Outcome &outcome, bool trace);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
