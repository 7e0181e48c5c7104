/**
 * @file
 * scrub_rw: a single caller reading and writing an ARCC-over-commercial
 * ArccMemory page by page, with a scrubParallel sweep every
 * ScrubRwShape::scrubEvery batches.
 *
 * The memory holds seeded content and seeded faults: one whole-device
 * fault present at boot (its rank stays upgraded after the boot scrub)
 * and bank / column / cell faults that appear after boot on one device
 * of the other rank (the first in-window scrub upgrades those pages).
 * Every read is checked against a shadow copy of the last write.
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "arcc/scrubber.hh"
#include "checks.hh"
#include "probes.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using arcc::kLineBytes;
using arcc::kLinesPerPage;
using arcc::kPageBytes;

/** What a stretch of batches and scrubs did. */
struct RwTotals
{
    /** Batch times of untraced batches. */
    std::vector<double> batchMs;
    /** Batch times of traced batches. */
    std::vector<double> tracedMs;
    std::uint64_t readLines = 0, writeLines = 0, scrubLines = 0;
    double rwNs = 0.0, scrubNs = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    /** Decode work of the batch reads (accessBatch stats sink). */
    arcc::MemoryStats reads;
    /** Device touches of the line writes (stats() deltas). */
    arcc::MemoryStats writes;
    std::uint64_t dues = 0;
};

void
fillBytes(arcc::Rng &rng, std::uint8_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const std::uint64_t v = rng.next();
        std::memcpy(out + i, &v, std::min<std::size_t>(8, n - i));
    }
}

/** One booted memory with its shadow copy and reusable scratch. */
class RwInstance
{
  public:
    /** The set-up: content, boot fault, boot scrub, field faults. */
    RwInstance(const ScrubRwShape &shape, std::uint64_t seed)
        : shape_(shape), mem_(shape.config()), shadow_(mem_.capacity()),
          addrs_(kLinesPerPage), page_(kPageBytes)
    {
        arcc::Rng rng(arcc::Rng::mix64(seed ^ 0x636f6e74656e74ULL));
        std::vector<std::uint8_t> group;
        for (std::uint64_t addr = 0; addr < mem_.capacity();
             addr += group.size()) {
            group.resize(mem_.groupBytes(
                mem_.pageTable().mode(mem_.pageOf(addr))));
            fillBytes(rng, group.data(), group.size());
            mem_.writeGroup(addr, group);
            shadow_.write(addr, group);
        }
        const ScrubRwFaults faults = scrubRwFaults(seed, mem_.config());
        for (const arcc::FunctionalFault &f : faults.boot)
            mem_.injectFault(f);
        arcc::Scrubber().bootScrubParallel(mem_);
        for (const arcc::FunctionalFault &f : faults.field)
            mem_.injectFault(f);
    }

    arcc::ArccMemory &memory() { return mem_; }
    const ShadowMemory &shadow() const { return shadow_; }
    std::uint64_t pages() const { return mem_.capacity() / kPageBytes; }

    /** One page-sized batch. */
    void
    step(const RwOp &op, bool traced, RwTotals &t, SpanLog &spans)
    {
        const std::uint64_t base = op.page * kPageBytes;
        for (std::uint64_t i = 0; i < kLinesPerPage; ++i)
            addrs_[i] = base + i * kLineBytes;
        const std::uint64_t id = traced ? spans.newOp() : 0;
        ++t.attempted;
        if (!op.write) {
            const std::uint64_t t0 = nowNs();
            mem_.accessBatch(addrs_, t.reads, ws_, results_);
            const std::uint64_t t1 = nowNs();
            record(t, spans, "arcc.read_batch", id, t0, t1);
            t.readLines += kLinesPerPage;
            bool due = false;
            for (std::uint64_t i = 0; i < kLinesPerPage; ++i) {
                const ReadVerdict v = shadow_.check(addrs_[i], results_[i]);
                due = due || v == ReadVerdict::Due;
                if (v == ReadVerdict::Mismatch)
                    t.correct = false;
            }
            if (due) {
                ++t.failed;
                ++t.dues;
            }
            return;
        }
        arcc::Rng rng(op.dataSeed);
        fillBytes(rng, page_.data(), page_.size());
        const arcc::MemoryStats before = mem_.stats();
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kLinesPerPage; ++i)
            mem_.write(addrs_[i], {page_.data() + i * kLineBytes,
                                   kLineBytes});
        const std::uint64_t t1 = nowNs();
        record(t, spans, "arcc.write_batch", id, t0, t1);
        const arcc::MemoryStats &after = mem_.stats();
        t.writes.writes += after.writes - before.writes;
        t.writes.deviceWrites += after.deviceWrites - before.deviceWrites;
        t.writeLines += kLinesPerPage;
        shadow_.write(base, page_);
    }

    /** One scrubParallel sweep over the whole memory. */
    void
    scrub(bool traced, RwTotals &t, SpanLog &spans)
    {
        const std::uint64_t id = traced ? spans.newOp() : 0;
        ++t.attempted;
        const std::uint64_t t0 = nowNs();
        const arcc::ScrubReport r = scrubber_.scrubParallel(mem_);
        const std::uint64_t t1 = nowNs();
        if (traced)
            spans.add({"arcc.scrub", id, 0, t0, t1, r.linesScrubbed});
        t.scrubNs += static_cast<double>(t1 - t0);
        t.scrubLines += r.linesScrubbed;
        if (r.duesFound) {
            ++t.failed;
            t.dues += r.duesFound;
        }
    }

    /**
     * Cycles of scrubEvery batches plus a scrub until `seconds` have
     * passed (seconds <= 0: exactly `cycles` cycles).  With spans
     * enabled every operation is traced, or with `alternate` every
     * other one (odd batches, odd cycles' scrubs).
     */
    void
    run(RwOpStream &ops, double seconds, int cycles, bool alternate,
        RwTotals &t, SpanLog &spans)
    {
        const auto start = Clock::now();
        for (int c = 0;; ++c) {
            if (seconds > 0 ? c > 0 && secondsSince(start) >= seconds
                            : c >= cycles)
                break;
            for (std::uint64_t b = 0; b < shape_.scrubEvery; ++b)
                step(ops.next(), spans.enabled() && (!alternate || b % 2),
                     t, spans);
            scrub(spans.enabled() && (!alternate || c % 2), t, spans);
        }
    }

  private:
    static void
    record(RwTotals &t, SpanLog &spans, const char *name, std::uint64_t id,
           std::uint64_t t0, std::uint64_t t1)
    {
        if (id)
            spans.add({name, id, 0, t0, t1, kLinesPerPage});
        t.rwNs += static_cast<double>(t1 - t0);
        (id ? t.tracedMs : t.batchMs)
            .push_back(static_cast<double>(t1 - t0) * 1e-6);
    }

    ScrubRwShape shape_;
    arcc::ArccMemory mem_;
    ShadowMemory shadow_;
    arcc::Scrubber scrubber_;
    arcc::MemoryWorkspace ws_;
    std::vector<std::uint64_t> addrs_;
    std::vector<arcc::ReadResult> results_;
    std::vector<std::uint8_t> page_;
};

/**
 * Set up `timed` + 1 times, keeping the last instance.  The first,
 * untimed, set-up doubles as the warm-up (it keeps every core busy with
 * the boot scrub); `setupS` is the median of the others.
 */
std::unique_ptr<RwInstance>
setUp(const ScrubRwShape &shape, std::uint64_t seed, int timed,
      double &setupS)
{
    std::unique_ptr<RwInstance> inst;
    std::vector<double> times;
    for (int r = 0; r <= timed; ++r) {
        inst.reset(); // one memory at a time keeps peak RSS honest.
        const auto t0 = Clock::now();
        inst = std::make_unique<RwInstance>(shape, seed);
        if (r > 0)
            times.push_back(secondsSince(t0));
    }
    setupS = median(times);
    return inst;
}

/** arcc/engine layer metrics of a traced stretch, plus the probes. */
void
arccMetrics(RwInstance &inst, const RwTotals &t, std::uint64_t seed,
            SpanLog &spans, Outcome &out)
{
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.layer("arcc.write_ns_line",
              per(spans.totalNs("arcc.write_batch"),
                  spans.totalCount("arcc.write_batch")),
              "ns");
    out.layer("arcc.read_ns_line",
              per(spans.totalNs("arcc.read_batch"),
                  spans.totalCount("arcc.read_batch")),
              "ns");
    out.layer("arcc.scrub_ns_line",
              per(spans.totalNs("arcc.scrub"), spans.totalCount("arcc.scrub")),
              "ns");
    out.layer("arcc.devices_per_read",
              per(t.reads.deviceReads, t.reads.reads), "count");
    out.layer("arcc.devices_per_write",
              per(t.writes.deviceWrites, t.writes.writes), "count");
    out.layer("arcc.corrected_per_kline",
              per(1000.0 * t.reads.corrected, t.readLines), "count");
    out.layer("arcc.dues", t.dues, "count");
    out.layer("arcc.upgraded_share",
              inst.memory().pageTable().upgradedFraction(), "ratio");

    // Upgrade cost: up to 32 relaxed pages from a seeded start, each
    // re-encoded by setPageMode; the data must survive.
    arcc::ArccMemory &mem = inst.memory();
    const std::uint64_t pages = inst.pages();
    arcc::Rng rng(seed ^ 0x7570677261646573ULL);
    std::uint64_t p = rng.below(pages), upgraded = 0;
    const std::uint64_t op = spans.newOp();
    double upgradeNs = 0.0;
    for (std::uint64_t seen = 0; seen < pages && upgraded < 32;
         ++seen, p = (p + 1) % pages) {
        if (mem.pageTable().mode(p) != arcc::PageMode::Relaxed)
            continue;
        const std::uint64_t t0 = nowNs();
        mem.setPageMode(p, arcc::PageMode::Upgraded);
        const std::uint64_t t1 = nowNs();
        spans.add({"arcc.upgrade_page", op, 0, t0, t1, 1});
        upgradeNs += static_cast<double>(t1 - t0);
        ++upgraded;
        for (std::uint64_t i = 0; i < kLinesPerPage; ++i) {
            const std::uint64_t a = p * kPageBytes + i * kLineBytes;
            if (inst.shadow().check(a, mem.read(a)) != ReadVerdict::Ok)
                out.correct = false;
        }
    }
    out.layer("arcc.upgrade_us_page", per(upgradeNs * 1e-3, upgraded),
              "us");

    // Serial vs sharded scrub of the same memory: same report, and
    // the ratio of their host times.
    const arcc::Scrubber scrubber;
    std::uint64_t t0 = nowNs();
    const arcc::ScrubReport serial = scrubber.scrub(mem);
    std::uint64_t t1 = nowNs();
    spans.add({"engine.scrub_serial", op, 0, t0, t1, serial.linesScrubbed});
    const double serialNs = static_cast<double>(t1 - t0);
    t0 = nowNs();
    const arcc::ScrubReport parallel = scrubber.scrubParallel(mem);
    t1 = nowNs();
    spans.add(
        {"engine.scrub_parallel", op, 0, t0, t1, parallel.linesScrubbed});
    if (!(serial == parallel))
        out.correct = false;
    out.layer("engine.scrub_speedup",
              per(serialNs, static_cast<double>(t1 - t0)), "ratio");
}

} // namespace

arcc::FunctionalConfig
ScrubRwShape::config() const
{
    arcc::FunctionalConfig c = arcc::FunctionalConfig::arccSmall();
    c.banks = banks;
    c.rows = rows;
    return c;
}

ScrubRwShape
scrubRwShape()
{
    return {8, 128, 8192};
}

ScrubRwShape
scrubRwProbeShape()
{
    return {2, 32, 256};
}

ScrubRwFaults
scrubRwFaults(std::uint64_t seed, const arcc::FunctionalConfig &config)
{
    arcc::Rng rng(arcc::Rng::mix64(seed ^ 0x6661756c7473ULL));
    const arcc::FaultKind kinds[] = {arcc::FaultKind::StuckAt1,
                                     arcc::FaultKind::StuckAt0,
                                     arcc::FaultKind::Corrupt};
    auto fault = [&](int channel, int rank, int device,
                     arcc::FaultScope scope) {
        arcc::FunctionalFault f;
        f.channel = channel;
        f.rank = rank;
        f.device = device;
        f.scope = scope;
        f.kind = kinds[rng.below(3)];
        f.mask = static_cast<std::uint8_t>(1 + rng.below(255));
        f.bank = static_cast<int>(rng.below(config.banks));
        f.row = static_cast<int>(rng.below(config.rows));
        f.col = static_cast<int>(rng.below(config.linesPerRow()));
        return f;
    };
    const int rankA = static_cast<int>(rng.below(2));
    ScrubRwFaults out;
    out.boot.push_back(fault(static_cast<int>(rng.below(config.channels)),
                             rankA,
                             static_cast<int>(rng.below(
                                 config.devicesPerRank)),
                             arcc::FaultScope::Device));
    const int channel = static_cast<int>(rng.below(config.channels));
    const int device = static_cast<int>(rng.below(config.devicesPerRank));
    const int rankB = 1 - rankA;
    out.field.push_back(
        fault(channel, rankB, device, arcc::FaultScope::Bank));
    out.field.push_back(
        fault(channel, rankB, device, arcc::FaultScope::Column));
    for (int i = 0; i < 4; ++i)
        out.field.push_back(
            fault(channel, rankB, device, arcc::FaultScope::Cell));
    return out;
}

RwOpStream::RwOpStream(std::uint64_t seed, std::uint64_t pages)
    : rng_(arcc::Rng::mix64(seed ^ 0x72776f7073ULL)), pages_(pages)
{
}

RwOp
RwOpStream::next()
{
    RwOp op;
    op.write = rng_.below(3) == 0;
    op.page = rng_.below(pages_);
    op.dataSeed = rng_.next();
    return op;
}

Outcome
runScrubRw(const Options &options, SpanLog &spans)
{
    Outcome out;
    double setupS = 0.0;
    std::unique_ptr<RwInstance> inst =
        setUp(scrubRwShape(), options.seed, 3, setupS);
    RwOpStream ops(options.seed, inst->pages());

    if (!options.trace) {
        RwTotals t;
        inst->run(ops, options.seconds, 0, false, t, spans);
        const Tail tail = pickTail(t.batchMs.size(), 0.99);
        out.attempted = t.attempted;
        out.failed = t.failed;
        out.correct = t.correct;
        out.e2e("setup_s", setupS, "s");
        out.e2e("peak_rss_mb", peakRssMb(), "MB");
        out.e2e("op_ms_p50", quantile(t.batchMs, 0.5), "ms");
        out.e2e("op_ms_tail", quantile(t.batchMs, tail.q), "ms");
        out.e2e("work_per_s",
                static_cast<double>(t.readLines + t.writeLines) /
                    ((t.rwNs + t.scrubNs) * 1e-9),
                "1/s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "scrub_rw: %zu batches, tail = %s of the batch time, "
                      "%llu scrubbed lines at %.0f lines/s",
                      t.batchMs.size(), tail.label.c_str(),
                      static_cast<unsigned long long>(t.scrubLines),
                      t.scrubLines / (t.scrubNs * 1e-9));
        out.note(line);
        return out;
    }
    // Every other batch traced: the ratio of the traced and untraced
    // batches' medians is the tracing overhead.
    RwTotals t;
    spans.enable(true);
    inst->run(ops, options.seconds, 0, true, t, spans);
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.correct = t.correct;
    out.layer("bench.trace_overhead_pct",
              100.0 * (median(t.tracedMs) / median(t.batchMs) - 1.0), "%");
    arccMetrics(*inst, t, options.seed, spans, out);
    eccLayerProbe(options.seed, spans, out);
    return out;
}

void
arccLayerProbe(std::uint64_t seed, const ScrubRwShape &shape, int cycles,
               SpanLog &spans, Outcome &out)
{
    double setupS = 0.0;
    std::unique_ptr<RwInstance> inst = setUp(shape, seed, 0, setupS);
    RwOpStream ops(seed, inst->pages());
    RwTotals t;
    inst->run(ops, 0.0, cycles, false, t, spans);
    if (!t.correct || t.failed)
        out.correct = false;
    arccMetrics(*inst, t, seed, spans, out);
}

} // namespace perfbench
