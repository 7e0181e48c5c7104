/**
 * @file
 * VECC tests (Chapter 5.2): tier-1 fast-path detection, tier-2
 * virtualised correction, access amplification accounting, and the
 * extended-syndrome decoder underneath it.
 */

#include <gtest/gtest.h>

#include "arcc/vecc.hh"
#include "common/rng.hh"

namespace arcc
{
namespace
{

std::vector<std::uint8_t>
randomData(Rng &rng, int n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.below(256));
    return v;
}

// --- extended-syndrome decoding (the substrate) -------------------------

TEST(DecodeWithSyndromes, MatchesPlainDecodeForInlineSyndromes)
{
    ReedSolomon rs(36, 32);
    RsWorkspace ws;
    Rng rng(1);
    for (int t = 0; t < 200; ++t) {
        std::vector<std::uint8_t> w(36);
        for (int i = 0; i < 32; ++i)
            w[i] = static_cast<std::uint8_t>(rng.below(256));
        rs.encode(w);
        auto orig = w;
        w[7] ^= 0x3c;
        std::vector<std::uint8_t> synd(4);
        for (int j = 0; j < 4; ++j)
            synd[j] = rs.evalAt(w, j);
        auto res = rs.decodeWithSyndromes(w, synd, ws, 1);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(w, orig);
    }
}

TEST(DecodeWithSyndromes, VirtualisedChecksExtendTheCapability)
{
    // RS(18,16) alone cannot reliably handle two bad symbols; with two
    // virtualised evaluations (alpha^2, alpha^3) it corrects them.
    ReedSolomon rs(18, 16);
    RsWorkspace ws;
    Rng rng(2);
    for (int t = 0; t < 300; ++t) {
        std::vector<std::uint8_t> w(18);
        for (int i = 0; i < 16; ++i)
            w[i] = static_cast<std::uint8_t>(rng.below(256));
        rs.encode(w);
        auto orig = w;
        std::uint8_t t2[2] = {rs.evalAt(w, 2), rs.evalAt(w, 3)};

        int p1 = static_cast<int>(rng.below(18));
        int p2;
        do {
            p2 = static_cast<int>(rng.below(18));
        } while (p2 == p1);
        w[p1] ^= static_cast<std::uint8_t>(rng.range(1, 255));
        w[p2] ^= static_cast<std::uint8_t>(rng.range(1, 255));

        std::vector<std::uint8_t> synd(4);
        synd[0] = rs.evalAt(w, 0);
        synd[1] = rs.evalAt(w, 1);
        synd[2] = GF256::add(rs.evalAt(w, 2), t2[0]);
        synd[3] = GF256::add(rs.evalAt(w, 3), t2[1]);
        auto res = rs.decodeWithSyndromes(w, synd, ws, 2);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(w, orig);
    }
}

TEST(DecodeWithSyndromes, AllZeroSyndromesIsClean)
{
    ReedSolomon rs(18, 16);
    RsWorkspace ws;
    std::vector<std::uint8_t> w(18, 0);
    std::vector<std::uint8_t> synd(4, 0);
    EXPECT_EQ(rs.decodeWithSyndromes(w, synd, ws).status,
              DecodeStatus::Clean);
}

// --- VeccMemory ----------------------------------------------------------

class VeccSweep : public ::testing::TestWithParam<bool>
{
  protected:
    VeccGeometry
    geom() const
    {
        return GetParam() ? VeccGeometry::vecc9()
                          : VeccGeometry::vecc18();
    }
};

TEST_P(VeccSweep, CleanReadsStayOnTheFastPath)
{
    VeccMemory mem(geom(), 64);
    Rng rng(3);
    std::vector<std::vector<std::uint8_t>> golden;
    for (std::uint64_t l = 0; l < 64; ++l) {
        golden.push_back(randomData(rng, mem.lineBytes()));
        mem.write(l, golden.back());
    }
    for (std::uint64_t l = 0; l < 64; ++l) {
        auto r = mem.read(l);
        EXPECT_EQ(r.status, DecodeStatus::Clean);
        EXPECT_FALSE(r.tier2Fetched);
        EXPECT_EQ(r.deviceAccesses, geom().devices)
            << "error-free reads touch only the inline rank";
        EXPECT_EQ(r.data, golden[l]);
    }
    EXPECT_EQ(mem.stats().tier2Fetches, 0u);
}

TEST_P(VeccSweep, DeviceKillIsCorrectedViaTier2)
{
    VeccMemory mem(geom(), 64);
    Rng rng(4);
    std::vector<std::vector<std::uint8_t>> golden;
    for (std::uint64_t l = 0; l < 64; ++l) {
        golden.push_back(randomData(rng, mem.lineBytes()));
        mem.write(l, golden.back());
    }
    mem.killDevice(geom().devices / 2);
    for (std::uint64_t l = 0; l < 64; ++l) {
        auto r = mem.read(l);
        EXPECT_EQ(r.status, DecodeStatus::Corrected) << l;
        EXPECT_TRUE(r.tier2Fetched);
        EXPECT_EQ(r.deviceAccesses, 2 * geom().devices)
            << "the error path costs a second rank access";
        EXPECT_EQ(r.data, golden[l]) << l;
    }
}

TEST_P(VeccSweep, WritebackAmplificationFollowsT2HitRate)
{
    // t2HitRate 0 -> every write pays the extra tier-2 write;
    // t2HitRate 1 -> none do.
    for (double hit : {0.0, 1.0}) {
        VeccMemory mem(geom(), 32, hit, 7);
        Rng rng(5);
        for (std::uint64_t l = 0; l < 32; ++l)
            mem.write(l, randomData(rng, mem.lineBytes()));
        if (hit == 0.0)
            EXPECT_EQ(mem.stats().tier2Writebacks, 32u);
        else
            EXPECT_EQ(mem.stats().tier2Writebacks, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, VeccSweep,
                         ::testing::Values(false, true));

TEST(Vecc, TwoDeadDevicesDetectedBy18Device)
{
    // 2 inline + 2 tier-2 checks, correction capped at 2: two dead
    // devices are right at the limit and correctable; three are not.
    VeccMemory mem(VeccGeometry::vecc18(), 16);
    Rng rng(6);
    std::vector<std::vector<std::uint8_t>> golden;
    for (std::uint64_t l = 0; l < 16; ++l) {
        golden.push_back(randomData(rng, mem.lineBytes()));
        mem.write(l, golden.back());
    }
    mem.killDevice(1);
    mem.killDevice(9);
    for (std::uint64_t l = 0; l < 16; ++l) {
        auto r = mem.read(l);
        EXPECT_EQ(r.status, DecodeStatus::Corrected);
        EXPECT_EQ(r.data, golden[l]);
    }
    mem.killDevice(14);
    int dues = 0;
    for (std::uint64_t l = 0; l < 16; ++l) {
        auto r = mem.read(l);
        if (r.status == DecodeStatus::Detected)
            ++dues;
        else
            EXPECT_NE(r.data, golden[l])
                << "a silent decode of 3 kills cannot be right";
    }
    EXPECT_GT(dues, 8) << "three dead devices mostly flag DUEs";
}

TEST_P(VeccSweep, ReadBatchMatchesPerLineReads)
{
    // The batched tier-2 API must be indistinguishable from per-line
    // reads: same data, statuses, access accounting and stats -- with
    // and without a dead device forcing the tier-2 pass.
    for (bool kill : {false, true}) {
        VeccMemory a(geom(), 48, 0.5, 21);
        VeccMemory b(geom(), 48, 0.5, 21);
        Rng rng(9);
        for (std::uint64_t l = 0; l < 48; ++l) {
            auto data = randomData(rng, a.lineBytes());
            a.write(l, data);
            b.write(l, data);
        }
        if (kill) {
            a.killDevice(1);
            b.killDevice(1);
        }

        std::vector<std::uint64_t> lines;
        for (std::uint64_t l = 0; l < 48; ++l)
            lines.push_back((l * 7) % 48); // shuffled, with reuse
        std::vector<VeccReadResult> batch;
        a.readBatch(lines, batch);

        ASSERT_EQ(batch.size(), lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            VeccReadResult single = b.read(lines[i]);
            EXPECT_EQ(batch[i].status, single.status) << i;
            EXPECT_EQ(batch[i].tier2Fetched, single.tier2Fetched);
            EXPECT_EQ(batch[i].deviceAccesses, single.deviceAccesses);
            EXPECT_EQ(batch[i].data, single.data) << i;
        }
        EXPECT_EQ(a.stats().reads, b.stats().reads);
        EXPECT_EQ(a.stats().deviceAccesses, b.stats().deviceAccesses);
        EXPECT_EQ(a.stats().tier2Fetches, b.stats().tier2Fetches);
        EXPECT_EQ(a.stats().corrected, b.stats().corrected);
        EXPECT_EQ(a.stats().dues, b.stats().dues);
    }
}

TEST(Vecc, NineDeviceGeometryHalvesTheFaultFreeCost)
{
    VeccMemory v18(VeccGeometry::vecc18(), 32, 1.0);
    VeccMemory v9(VeccGeometry::vecc9(), 32, 1.0);
    Rng rng(8);
    for (std::uint64_t l = 0; l < 32; ++l) {
        v18.write(l, randomData(rng, v18.lineBytes()));
        v9.write(l, randomData(rng, v9.lineBytes()));
    }
    auto base18 = v18.stats().deviceAccesses;
    auto base9 = v9.stats().deviceAccesses;
    for (std::uint64_t l = 0; l < 32; ++l) {
        v18.read(l);
        v9.read(l);
    }
    auto reads18 = v18.stats().deviceAccesses - base18;
    auto reads9 = v9.stats().deviceAccesses - base9;
    EXPECT_EQ(reads18, 32u * 18u);
    EXPECT_EQ(reads9, 32u * 9u)
        << "the Chapter 5.2 ARCC+VECC relaxed mode halves the "
           "devices per access";
}

} // namespace
} // namespace arcc
