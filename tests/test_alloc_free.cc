/**
 * @file
 * Heap-allocation audits for the steady-state decode paths.
 *
 * The PR contract is that the ECC hot loops -- syndrome screens,
 * encodes, decodes, the scrub-style batch sweep, line writes, the VECC
 * batch -- perform *zero* heap allocations once their workspaces are
 * warm.
 * This binary replaces the global operator new/delete with counting
 * wrappers and measures allocation deltas across the hot regions, and
 * live-byte peaks across whole simulations.
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
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"
#include "ecc/gf256_simd.hh"
#include "ecc/reed_solomon.hh"

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
            // Clean-word syndrome screen (the per-access fast path).
            ok = ok && rs.syndromesZero(clean);
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
        BinaryTraceWriter writer(out);
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
        TraceStream stream(path, kChunk);
        for (std::uint64_t i = 0; i < kRecords; ++i) // cold lap.
            checksum += stream.next().addr;
        stream_bytes = g_allocBytes.load(std::memory_order_relaxed) -
                       bytes_before;

        const std::uint64_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        for (std::uint64_t i = 0; i < kRecords; ++i) // warm lap.
            checksum += stream.next().addr;
        steady_allocs = g_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
        laps = stream.laps();
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
