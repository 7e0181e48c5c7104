/**
 * @file
 * Heap-allocation audits for the steady-state decode paths and the
 * lifetime trial loops.
 *
 * The contract is that the ECC hot loops -- syndrome screens, encodes,
 * decodes, the scrub-style batch sweep, line writes, the VECC batch --
 * perform *zero* heap allocations once their workspaces are warm,
 * including when one workspace serves upgraded (36-device) and relaxed
 * (18-device) groups in turn: an encoded line is one flat buffer, so
 * switching group widths reuses its capacity.  The fault Monte Carlos'
 * trial loops reuse one Trial, so once its buffers have grown they
 * allocate nothing per trial.  This binary replaces the global
 * operator new/delete with counting wrappers and measures allocation
 * deltas across the hot regions, and live-byte peaks across whole
 * simulations.
 *
 * Assertions are collected into plain flags inside the measured
 * regions (a failing gtest assertion allocates its message, which
 * would double-report), then asserted afterwards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <new>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "arcc/arcc_memory.hh"
#include "arcc/scrubber.hh"
#include "arcc/vecc.hh"
#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"
#include "ecc/gf256_simd.hh"
#include "ecc/reed_solomon.hh"
#include "engine/sim_engine.hh"
#include "faults/lifetime_mc.hh"
#include "reliability/sdc_model.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_allocBytes{0};
/** Bytes held by live operator-new blocks, and their high-water mark
 *  (malloc_usable_size, so frees subtract what allocs added). */
std::atomic<std::int64_t> g_liveBytes{0};
std::atomic<std::int64_t> g_peakBytes{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    const std::int64_t bytes =
        static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live =
        g_liveBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t peak = g_peakBytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peakBytes.compare_exchange_weak(peak, live,
                                              std::memory_order_relaxed))
        ;
    return p;
}

void
countedFree(void *p)
{
    if (p)
        g_liveBytes.fetch_sub(malloc_usable_size(p),
                              std::memory_order_relaxed);
    std::free(p);
}

} // anonymous namespace

// Counting global allocator.  Aligned variants are left at their
// defaults (nothing in the measured paths uses over-aligned types);
// the replaced forms pair new/malloc with delete/free consistently.
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace arcc
{
namespace
{

/** Allocation count across a callable, after one warm-up run. */
template <class F>
std::uint64_t
allocationsIn(F &&hot)
{
    hot(); // warm-up: builds tables, fills buffer capacities.
    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    hot();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocFree, RsEncodeSyndromeAndDecodeLoops)
{
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(1);

    std::vector<std::uint8_t> clean(36);
    for (int i = 0; i < 32; ++i)
        clean[i] = static_cast<std::uint8_t>(rng.below(256));
    rs.encode(clean);
    std::vector<std::uint8_t> word = clean;
    const std::vector<int> erasures = {7};

    bool ok = true;
    const std::uint64_t allocs = allocationsIn([&] {
        for (int t = 0; t < 200; ++t) {
            // Clean-word syndrome screen.
            ok = ok && !rs.computeSyndromes(
                           clean, std::span<std::uint8_t>(ws.synd.data(),
                                                          rs.r()));
            // Encode.
            word = clean;
            rs.encode(word);
            // Corrupted decode: 2 errors, full capability.
            word[5] ^= 0x7b;
            word[20] ^= 0x11;
            RsDecodeView res = rs.decode(word, ws);
            ok = ok && res.status == DecodeStatus::Corrected &&
                 word == clean;
            // Erasure + error decode.
            word[7] = 0xaa;
            word[20] ^= 0x31;
            res = rs.decode(word, ws, -1, erasures);
            ok = ok && res.status == DecodeStatus::Corrected &&
                 word == clean;
            // Beyond capability: Detected, rolled back.
            word[1] ^= 1;
            word[2] ^= 2;
            word[3] ^= 3;
            word[4] ^= 4;
            word[5] ^= 5;
            res = rs.decode(word, ws, 2);
            ok = ok && res.status == DecodeStatus::Detected;
            word = clean;
        }
    });

    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u)
        << "the RS workspace paths must not touch the heap";
}

TEST(AllocFree, SoaBatchDecodeSteadyState)
{
    // The SoA staging buffers live inside RsWorkspace precisely so
    // the batched screen + decode never touches the heap: stage a
    // full block of lanes, corrupt a few, decode, repeat.
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(5);

    constexpr int kLanes = RsWorkspace::kSoaLanes;
    std::vector<std::uint8_t> words(
        static_cast<std::size_t>(kLanes) * 36);
    for (int l = 0; l < kLanes; ++l) {
        std::uint8_t *w = words.data() +
                          static_cast<std::size_t>(l) * 36;
        for (int i = 0; i < 32; ++i)
            w[i] = static_cast<std::uint8_t>(rng.below(256));
        rs.encode(std::span<std::uint8_t>(w, 36));
    }

    RsLaneResult results[kLanes];
    bool ok = true;
    const std::uint64_t allocs = allocationsIn([&] {
        for (int t = 0; t < 200; ++t) {
            gfsimd::soaScatter(words.data(), 36, 36, kLanes,
                               ws.soa.data(), kLanes);
            // Lanes 3 and 17 take correctable hits; the rest screen
            // clean through the vector syndrome pass.
            ws.soa[static_cast<std::size_t>(9) * kLanes + 3] ^= 0x5a;
            ws.soa[static_cast<std::size_t>(30) * kLanes + 17] ^= 0x01;
            ws.soa[static_cast<std::size_t>(2) * kLanes + 17] ^= 0xc3;
            rs.decodeSoa(ws.soa.data(), kLanes, kLanes, ws, -1, {},
                         results);
            for (int l = 0; l < kLanes; ++l) {
                const RsLaneResult &r = results[l];
                ok = ok &&
                     r.status == (l == 3 || l == 17
                                      ? DecodeStatus::Corrected
                                      : DecodeStatus::Clean) &&
                     r.symbolsCorrected == (l == 3 ? 1
                                            : l == 17 ? 2
                                                      : 0);
                const std::uint8_t *w =
                    words.data() + static_cast<std::size_t>(l) * 36;
                for (int s = 0; s < 36; ++s)
                    ok = ok &&
                         ws.soa[static_cast<std::size_t>(s) * kLanes +
                                l] == w[s];
            }
        }
    });

    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u)
        << "the SoA batch decode must not touch the heap";
}

TEST(AllocFree, ScrubStyleBatchSweepSteadyState)
{
    // The scrubber's per-page pattern: batched group decode, raw
    // pattern checks, group re-encode -- through caller-owned
    // workspaces, page after page.
    ArccMemory mem(FunctionalConfig::arccSmall());
    ScrubScratch scratch;
    MemoryStats stats;
    const std::uint64_t pages = mem.pageTable().pages();

    // Fill with random content so the all-0 raw check genuinely
    // fails, as it does mid-scrub on live data.
    {
        Rng rng(3);
        const std::uint64_t group = mem.groupBytes(
            mem.pageTable().mode(0));
        std::vector<std::uint8_t> data(group);
        for (std::uint64_t base = 0; base < mem.capacity();
             base += group) {
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.range(1, 255));
            mem.writeGroup(base, data);
        }
    }

    bool ok = true;
    auto sweep = [&](std::uint64_t page) {
        const std::uint64_t base = page * kPageBytes;
        scratch.addrs.resize(kLinesPerPage);
        for (std::uint64_t i = 0; i < kLinesPerPage; ++i)
            scratch.addrs[i] = base + i * kLineBytes;
        mem.accessBatch(scratch.addrs, stats, scratch.mem,
                        scratch.lines);
        for (const ReadResult &r : scratch.lines)
            ok = ok && r.status == DecodeStatus::Clean;

        const std::uint64_t group =
            mem.groupBytes(mem.pageTable().mode(page));
        for (std::uint64_t off = 0; off < kPageBytes; off += group) {
            ok = ok && mem.rawCheck(base + off, 0x00,
                                    scratch.mem.line) == false;
            // Reassemble and re-encode the first group's data.
            scratch.data.clear();
            const std::uint64_t lines_per_group = group / kLineBytes;
            const std::uint64_t g = off / group;
            for (std::uint64_t l = 0; l < lines_per_group; ++l) {
                const ReadResult &r =
                    scratch.lines[g * lines_per_group + l];
                scratch.data.insert(scratch.data.end(),
                                    r.data.begin(), r.data.end());
            }
            mem.writeGroup(base + off, scratch.data, stats,
                           scratch.mem);
        }
    };

    const std::uint64_t allocs = allocationsIn([&] {
        for (std::uint64_t p = 0; p < pages; ++p)
            sweep(p);
    });

    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u)
        << "the batched sweep must be allocation-free in steady state";

    // One-page batches alternating an upgraded and a relaxed page
    // through one workspace, as a mixed-mode memory is swept: every
    // staged group switches between 36 and 18 devices per call.
    mem.setPageMode(1, PageMode::Relaxed);
    bool mixed_ok = true;
    const std::uint64_t mixed = allocationsIn([&] {
        for (std::uint64_t call = 0; call < 128; ++call) {
            const std::uint64_t base = (call % 2) * kPageBytes;
            for (std::uint64_t i = 0; i < kLinesPerPage; ++i)
                scratch.addrs[i] = base + i * kLineBytes;
            mem.accessBatch(scratch.addrs, stats, scratch.mem,
                            scratch.lines);
            for (const ReadResult &r : scratch.lines)
                mixed_ok = mixed_ok && r.status == DecodeStatus::Clean;
        }
    });

    EXPECT_TRUE(mixed_ok);
    EXPECT_EQ(mixed, 0u) << "alternating upgraded and relaxed batches "
                            "must be allocation-free in steady state";
}

TEST(AllocFree, LineWriteSteadyState)
{
    // Line writes: a relaxed page encodes the line directly, an
    // upgraded page reads, decodes and re-encodes its whole group
    // (read-modify-write) -- both through the thread's
    // MemoryWorkspace, so neither touches the heap once warm.
    ArccMemory mem(FunctionalConfig::arccSmall());
    mem.setPageMode(1, PageMode::Relaxed);
    ASSERT_EQ(mem.pageTable().mode(0), PageMode::Upgraded);

    Rng rng(4);
    std::vector<std::uint8_t> lines(kLinesPerPage * kLineBytes);
    for (auto &b : lines)
        b = static_cast<std::uint8_t>(rng.below(256));

    for (std::uint64_t page : {0, 1}) {
        SCOPED_TRACE("page " + std::to_string(page));
        const std::uint64_t allocs = allocationsIn([&] {
            for (std::uint64_t i = 0; i < kLinesPerPage; ++i)
                mem.write(page * kPageBytes + i * kLineBytes,
                          std::span<const std::uint8_t>(
                              lines.data() + i * kLineBytes, kLineBytes));
        });
        EXPECT_EQ(allocs, 0u)
            << "line writes must be allocation-free in steady state";
        for (std::uint64_t i = 0; i < kLinesPerPage; ++i) {
            const ReadResult r = mem.read(page * kPageBytes + i * kLineBytes);
            EXPECT_EQ(r.status, DecodeStatus::Clean);
            EXPECT_TRUE(std::equal(r.data.begin(), r.data.end(),
                                   lines.begin() + i * kLineBytes));
        }
    }

    // Writes alternating between the upgraded and the relaxed page:
    // the workspace's line buffer switches between 36 and 18 devices
    // on every call.
    const std::uint64_t mixed = allocationsIn([&] {
        for (std::uint64_t w = 0; w < 2 * kLinesPerPage; ++w) {
            const std::uint64_t i = w / 2;
            mem.write((w % 2) * kPageBytes + i * kLineBytes,
                      std::span<const std::uint8_t>(
                          lines.data() + i * kLineBytes, kLineBytes));
        }
    });
    EXPECT_EQ(mixed, 0u) << "alternating upgraded and relaxed line "
                            "writes must be allocation-free in steady "
                            "state";
}

TEST(AllocFree, VeccBatchSteadyState)
{
    VeccMemory mem(VeccGeometry::vecc18(), 32, 1.0, 3);
    Rng rng(2);
    std::vector<std::uint8_t> data(mem.lineBytes());
    for (std::uint64_t l = 0; l < 32; ++l) {
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(256));
        mem.write(l, data);
    }
    // A dead device forces every line through the tier-2 pass, so
    // both phases of the batch are exercised.
    mem.killDevice(4);

    std::vector<std::uint64_t> lines;
    for (std::uint64_t l = 0; l < 32; ++l)
        lines.push_back(l);
    std::vector<VeccReadResult> results;

    bool ok = true;
    const std::uint64_t allocs = allocationsIn([&] {
        mem.readBatch(lines, results);
        for (const VeccReadResult &r : results)
            ok = ok && r.status == DecodeStatus::Corrected &&
                 r.tier2Fetched;
    });

    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u)
        << "the VECC batch must be allocation-free in steady state";
}

TEST(AllocFree, TraceStreamReplayIsChunkBoundedNotFileBound)
{
    // The streaming-trace contract: replaying a large binary trace
    // through TraceStream keeps resident memory O(chunk) -- the
    // reader must never slurp the file.  Enforced two ways: the total
    // bytes the stream allocates (chunk buffer + path) stay far below
    // the file size, and the steady-state replay loop performs zero
    // allocations (refills reuse the chunk buffer).
    const std::uint64_t kRecords = 100'000;
    const std::size_t kChunk = 512; // 8 KiB buffer.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("arcc_test_alloc_trace." + std::to_string(::getpid()) +
          ".bin"))
            .string();
    {
        std::ofstream out(path, std::ios::binary);
        TraceWriter writer(out, /*binary=*/true);
        Rng rng(7);
        CoreWorkload::Access a;
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            a.addr = rng.below(1ULL << 34);
            a.isWrite = rng.chance(0.3);
            a.instrGap = rng.below(500);
            writer.append(a);
        }
    }
    const std::uint64_t file_bytes = std::filesystem::file_size(path);
    ASSERT_EQ(file_bytes, sizeof kTraceMagic +
              kRecords * kTraceRecordBytes); // 1.6 MB

    std::uint64_t checksum = 0;
    std::uint64_t laps = 0;
    std::uint64_t stream_bytes = 0;
    std::uint64_t steady_allocs = 0;
    {
        const std::uint64_t bytes_before =
            g_allocBytes.load(std::memory_order_relaxed);
        std::string error;
        const std::unique_ptr<TraceStream> stream =
            TraceStream::open(path, error, kChunk);
        for (std::uint64_t i = 0; stream && i < kRecords; ++i) // cold.
            checksum += stream->next().addr;
        stream_bytes = g_allocBytes.load(std::memory_order_relaxed) -
                       bytes_before;

        const std::uint64_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        for (std::uint64_t i = 0; stream && i < kRecords; ++i) // warm.
            checksum += stream->next().addr;
        steady_allocs = g_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
        laps = stream ? stream->laps() : 0;
    }

    EXPECT_NE(checksum, 0u);
    EXPECT_EQ(laps, 2u);
    EXPECT_EQ(steady_allocs, 0u)
        << "a warm TraceStream lap must not touch the heap";
    // O(chunk): construction + a full cold lap allocate about one
    // chunk buffer (8 KiB), not the 1.6 MB file.  The bound leaves
    // room for the path strings but is 25x below O(file).
    EXPECT_LT(stream_bytes, 64 * 1024u)
        << "TraceStream must hold one chunk, not the file";
    std::remove(path.c_str());
}

TEST(AllocFree, TextTraceReplayIsChunkBoundedNotFileBound)
{
    // The same contract for a text trace, through the StreamSpec
    // factory the simulator uses: lines are parsed into one chunk of
    // records as the replay reaches them, never loaded whole.  stdio's
    // read buffer and getline's line buffer come from malloc, outside
    // this count; both are bounded by the longest line, not the file.
    const std::uint64_t kRecords = 100'000;
    const std::size_t kChunk = 512;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("arcc_test_alloc_trace." + std::to_string(::getpid()) +
          ".txt"))
            .string();
    {
        std::ofstream out(path);
        out << "# a text trace\n";
        Rng rng(7);
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            out << std::hex << rng.below(1ULL << 34) << std::dec
                << (rng.chance(0.3) ? " W " : " R ") << rng.below(500)
                << '\n';
        }
    }

    std::uint64_t checksum = 0;
    std::uint64_t laps = 0;
    std::uint64_t stream_bytes = 0;
    std::uint64_t steady_allocs = 0;
    {
        const std::uint64_t bytes_before =
            g_allocBytes.load(std::memory_order_relaxed);
        StreamSpec spec = traceStreamSpec(path, 1.0, kChunk);
        for (std::uint64_t i = 0; i < kRecords; ++i) // cold lap.
            checksum += spec.next().addr;
        stream_bytes = g_allocBytes.load(std::memory_order_relaxed) -
                       bytes_before;

        const std::uint64_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        for (std::uint64_t i = 0; i < kRecords; ++i) // warm lap.
            checksum += spec.next().addr;
        steady_allocs = g_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
        laps = spec.laps();
    }

    EXPECT_NE(checksum, 0u);
    EXPECT_EQ(laps, 2u);
    EXPECT_EQ(steady_allocs, 0u)
        << "a warm text-trace lap must not touch the heap";
    EXPECT_LT(stream_bytes, 64 * 1024u)
        << "a text trace must stream one chunk, not load the file";
    std::remove(path.c_str());
}

/**
 * A trial below `window` from which the next `run` trials are never
 * longer, or hold more non-lane faults or a higher codeword group: a
 * run of trials from there grows every buffer of its Trial to full
 * size on the first one.
 */
std::uint64_t
longestTrial(const TrialKernel &kernel, std::uint64_t window,
             std::uint64_t run)
{
    Trial trial;
    std::vector<std::size_t> counts;
    std::vector<bool> lanes;
    std::vector<int> top_group;
    for (std::uint64_t t = 0; t < window + run; ++t) {
        kernel.draw(t, trial);
        counts.push_back(trial.events.size());
        lanes.push_back(std::any_of(
            trial.events.begin(), trial.events.end(),
            [](const FaultEvent &e) { return e.type == FaultType::Lane; }));
        int top = -1;
        for (const ConcreteFault &f : trial.faults)
            top = std::max(top, f.group);
        top_group.push_back(top);
    }
    const int groups =
        *std::max_element(top_group.begin(), top_group.end());
    std::vector<std::uint64_t> longest_first(window);
    for (std::uint64_t t = 0; t < window; ++t)
        longest_first[t] = t;
    // std::sort, not std::stable_sort: the latter's buffer comes from
    // the nothrow operator new this binary does not replace.
    std::sort(longest_first.begin(), longest_first.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  return counts[a] > counts[b] ||
                         (counts[a] == counts[b] && a < b);
              });
    for (std::uint64_t t : longest_first)
        if (!lanes[t] && top_group[t] == groups &&
            *std::max_element(counts.begin() + t,
                              counts.begin() + t + run) == counts[t])
            return t;
    ADD_FAILURE() << "no trial below " << window << " heads its run";
    return 0;
}

TEST(AllocFree, CampaignTrialsAllocateNothingPerTrial)
{
    // runTrials reuses one Trial, so past its buffers' growth it
    // allocates per call (the aggregate's sketches), never per trial:
    // 4,096 trials take no more allocations than 256 when both runs
    // start at a trial that grows every buffer to full size.
    CampaignSpec spec; // boost 100, 5 years, 18-device groups.
    spec.channels = 1 << 14;
    spec.seed = 20130223;
    SimEngine engine(SimEngine::Options{1});
    const CampaignDriver driver(spec, &engine);
    const TrialKernel kernel(
        spec.geom, spec.rates.scaled(spec.rateBoost),
        spec.years * kHoursPerYear, spec.seed,
        {spec.devicesPerGroup, spec.rowsPerBank, spec.colsPerBank});
    const std::uint64_t first = longestTrial(kernel, 8192, 4096);

    const auto allocationsOver = [&](std::uint64_t trials) {
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        const CampaignAggregate agg =
            driver.runTrials(first, first + trials);
        const std::uint64_t allocs =
            g_allocs.load(std::memory_order_relaxed) - before;
        EXPECT_EQ(agg.trials, trials);
        return allocs;
    };
    const std::uint64_t short_run = allocationsOver(256);
    const std::uint64_t long_run = allocationsOver(4096);
    EXPECT_LE(long_run, short_run)
        << short_run << " allocations over 256 trials, " << long_run
        << " over 4096";
}

TEST(AllocFree, EngineShardsAllocateNothing)
{
    // A forEachShard call keeps its record on the caller's stack and
    // every executor claims shards from the record's cursor, so once
    // the workers are up a call allocates nothing per shard or per
    // call, on 1 executor or on 4.
    for (int threads : {1, 4}) {
        SimEngine engine(SimEngine::Options{threads});
        EXPECT_EQ(allocationsIn([&] {
                      engine.forEachShard(4096, 1,
                                          [](const ShardRange &) {});
                  }),
                  0u)
            << threads << " executor(s)";
    }
}

TEST(AllocFree, LifetimeMcAllocatesPerShardNotPerChannel)
{
    // Each LifetimeMc shard draws its 64 channels into the engine
    // thread's Trial (Trial::forThisThread()), so a curve's
    // allocations grow with the shards (the shard's partial curve),
    // never with the channels: at 100x rates, where every channel
    // holds faults, the 60 more shards of 3,840 more channels take at
    // most 1 allocation each for either curve.  Each size is measured
    // on its second call: the first grows the thread's Trial to that
    // run's largest channel, which earlier tests in this binary may
    // already have done.  Any allocation per channel fails this.
    LifetimeMcConfig cfg;
    cfg.rates = cfg.rates.scaled(100.0);
    SimEngine engine(SimEngine::Options{1});
    PerTypeOverhead per_type{};
    per_type.fill(0.01);

    const auto allocationsOver = [&](int channels, auto curve) {
        cfg.channels = channels;
        const LifetimeMc mc(cfg, &engine);
        curve(mc);
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        const std::vector<double> avg = curve(mc);
        const std::uint64_t allocs =
            g_allocs.load(std::memory_order_relaxed) - before;
        EXPECT_GT(avg.back(), 0.0);
        return allocs;
    };
    const auto affected = [](const LifetimeMc &mc) {
        return mc.affectedFraction().avgFraction;
    };
    const auto overhead = [&](const LifetimeMc &mc) {
        return mc.cumulativeOverheadByYear(per_type, 0.5);
    };
    const double bound =
        1.0 * (4096 - 256) / static_cast<double>(SimEngine::kDefaultShard);
    const std::uint64_t affected_short = allocationsOver(256, affected);
    const std::uint64_t affected_long = allocationsOver(4096, affected);
    EXPECT_LE(static_cast<double>(affected_long - affected_short), bound)
        << affected_short << " allocations over 256 channels, "
        << affected_long << " over 4096";
    const std::uint64_t overhead_short = allocationsOver(256, overhead);
    const std::uint64_t overhead_long = allocationsOver(4096, overhead);
    EXPECT_LE(static_cast<double>(overhead_long - overhead_short), bound)
        << overhead_short << " allocations over 256 channels, "
        << overhead_long << " over 4096";
}

TEST(AllocFree, TrialLoopsReuseTheThreadsTrialAcrossShards)
{
    // LifetimeMc and the SDC Monte Carlo draw every shard's trials
    // into the engine thread's Trial, so once a first call has grown
    // its buffers, a shard costs only its partial: 1 allocation for
    // LifetimeMc's curve vector and none for the SDC partial, which is
    // plain counters.  Counted as the difference between a large and a
    // small warm call, so per-call vectors cancel, at 100x rates
    // (LifetimeMc) and boost 2000 (about 500 faults per SDC trial).  A
    // Trial built per shard regrows its buffers in every shard (15 and
    // 44 allocations) and fails this.
    SimEngine engine(SimEngine::Options{1});
    const auto allocationsIn = [](auto &&body) {
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        body();
        return g_allocs.load(std::memory_order_relaxed) - before;
    };
    const auto extraPerShard = [&](int small, int large, auto run) {
        run(large); // grows the Trial.
        const std::uint64_t few = allocationsIn([&] { run(small); });
        const std::uint64_t many = allocationsIn([&] { run(large); });
        return static_cast<double>(many - few) /
               static_cast<double>((large - small) /
                                   SimEngine::kDefaultShard);
    };

    LifetimeMcConfig cfg;
    cfg.rates = cfg.rates.scaled(100.0);
    double affected = 0.0;
    const double lifetime = extraPerShard(256, 4096, [&](int channels) {
        cfg.channels = channels;
        affected = LifetimeMc(cfg, &engine).affectedFraction()
                       .avgFraction.back();
    });
    EXPECT_GT(affected, 0.0);
    EXPECT_LE(lifetime, 1.0);

    const SdcModel model(SdcModelConfig::arccMachine());
    McSdcResult sdc;
    const double mc = extraPerShard(128, 1024, [&](int trials) {
        sdc = model.mcArccSdcEventsDetailed(7.0, 2000.0, trials, 99,
                                            &engine);
    });
    EXPECT_GT(sdc.faultsSampled, 100u * sdc.trials);
    EXPECT_GT(sdc.events, 0u);
    EXPECT_LE(mc, 0.0);
}

/** Peak live heap bytes a callable adds above the level it starts at. */
template <class F>
std::int64_t
peakHeapIn(F &&body)
{
    const std::int64_t base = g_liveBytes.load(std::memory_order_relaxed);
    g_peakBytes.store(base, std::memory_order_relaxed);
    body();
    return g_peakBytes.load(std::memory_order_relaxed) - base;
}

TEST(AllocFree, SimulateMixPeakHeapIsFlatInTheBudget)
{
    // The system simulator draws each access when its core reaches it
    // and keeps no per-access record, so its heap is set by the
    // configuration (LLC, channel state, generators), not by the run
    // length: a 10x longer run peaks within 64 KiB of the short one.
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.seed = 20130223;
    const PageUpgradeOracle lane = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Lane, cfg.mem);
    auto peakAt = [&](std::uint64_t instrs) {
        cfg.instrsPerCore = instrs;
        return peakHeapIn(
            [&] { simulateMix(table73Mixes()[0], cfg, lane); });
    };
    const std::int64_t short_run = peakAt(200'000);
    const std::int64_t long_run = peakAt(2'000'000);
    EXPECT_GT(short_run, 0);
    EXPECT_LE(std::abs(long_run - short_run), 64 * 1024)
        << "peak heap " << short_run << " B at 200k instructions per "
        << "core, " << long_run << " B at 2M";
}

} // namespace
} // namespace arcc
