/**
 * @file
 * Functional ARCC memory implementation.
 */

#include "arcc/arcc_memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace arcc
{

const char *
toString(SchemeKind k)
{
    switch (k) {
      case SchemeKind::CommercialSccdcd:  return "commercial SCCDCD";
      case SchemeKind::DoubleChipSparing: return "double chip sparing";
      case SchemeKind::ArccCommercial:    return "ARCC (commercial)";
      case SchemeKind::ArccDcs:           return "ARCC (chip sparing)";
      case SchemeKind::LotEcc9:           return "LOT-ECC 9-device";
      case SchemeKind::ArccLotEcc:        return "ARCC (LOT-ECC)";
    }
    return "?";
}

int
FunctionalConfig::linesPerRow() const
{
    return pagesPerRow * static_cast<int>(kLinesPerPage) / channels;
}

std::uint64_t
FunctionalConfig::capacity() const
{
    return static_cast<std::uint64_t>(channels) * ranksPerChannel *
           banks * rows * linesPerRow() * kLineBytes;
}

FunctionalConfig
FunctionalConfig::arccSmall()
{
    FunctionalConfig c;
    c.scheme = SchemeKind::ArccCommercial;
    c.channels = 2;
    c.ranksPerChannel = 2;
    c.devicesPerRank = 18;
    c.banks = 2;
    c.rows = 16;
    return c; // 2*2*2*16*64 lines = 512 KB, 128 pages.
}

FunctionalConfig
FunctionalConfig::baselineSmall()
{
    FunctionalConfig c = arccSmall();
    c.scheme = SchemeKind::CommercialSccdcd;
    c.ranksPerChannel = 1;
    c.devicesPerRank = 36;
    c.rows = 32;
    return c;
}

FunctionalConfig
FunctionalConfig::arccWide()
{
    FunctionalConfig c = arccSmall();
    c.scheme = SchemeKind::ArccDcs;
    c.channels = 4;
    c.allowLevel2 = true;
    c.rows = 8;
    return c;
}

FunctionalConfig
FunctionalConfig::lotSmall()
{
    FunctionalConfig c = arccSmall();
    c.scheme = SchemeKind::ArccLotEcc;
    c.devicesPerRank = 9;
    return c;
}

namespace
{

/** Fixed schemes run their single code as "Relaxed"; adaptive schemes
 *  boot every page Upgraded per Section 4.2.1. */
PageMode
bootMode(SchemeKind scheme)
{
    switch (scheme) {
      case SchemeKind::CommercialSccdcd:
      case SchemeKind::DoubleChipSparing:
      case SchemeKind::LotEcc9:
        return PageMode::Relaxed;
      default:
        return PageMode::Upgraded;
    }
}

} // anonymous namespace

MemoryWorkspace &
MemoryWorkspace::forThisThread()
{
    static thread_local MemoryWorkspace ws;
    return ws;
}

const FunctionalConfig &
ArccMemory::validated(const FunctionalConfig &c)
{
    // A zero rank, bank, row or page count is an empty memory (no
    // address, no page); channels and devices divide the geometry.
    const struct
    {
        const char *field;
        int value, min;
    } counts[] = {{"channels", c.channels, 1},
                  {"ranksPerChannel", c.ranksPerChannel, 0},
                  {"devicesPerRank", c.devicesPerRank, 1},
                  {"banks", c.banks, 0},
                  {"rows", c.rows, 0},
                  {"pagesPerRow", c.pagesPerRow, 0}};
    for (const auto &count : counts)
        if (count.value < count.min)
            fatal("ArccMemory: %s = %d, need at least %d", count.field,
                  count.value, count.min);
    // The page table only covers whole pages: a truncated tail would
    // hold addresses no page mode governs.
    if (c.capacity() % kPageBytes != 0)
        fatal("ArccMemory: capacity %llu B (channels %d x %d lines/row) "
              "is not a whole number of %llu B pages",
              static_cast<unsigned long long>(c.capacity()), c.channels,
              c.linesPerRow(), static_cast<unsigned long long>(kPageBytes));
    // The rule AddressMap enforces: every row slice holds whole lines
    // of whole pages.
    if (c.pagesPerRow * kLinesPerPage % c.channels != 0)
        fatal("ArccMemory: pagesPerRow = %d (%llu lines) does not split "
              "over channels = %d",
              c.pagesPerRow,
              static_cast<unsigned long long>(c.pagesPerRow * kLinesPerPage),
              c.channels);
    return c;
}

ArccMemory::ArccMemory(const FunctionalConfig &config)
    : config_(validated(config)),
      pageTable_(config.pages(), bootMode(config.scheme))
{
    switch (config_.scheme) {
      case SchemeKind::CommercialSccdcd:
        relaxedCodec_ = schemes::commercialSccdcd();
        break;
      case SchemeKind::DoubleChipSparing:
        relaxedCodec_ = schemes::doubleChipSparing();
        break;
      case SchemeKind::ArccCommercial:
        relaxedCodec_ = schemes::arccRelaxed();
        upgradedCodec_ = schemes::arccUpgraded();
        if (config_.allowLevel2)
            upgraded2Codec_ = schemes::arccUpgraded2();
        break;
      case SchemeKind::ArccDcs:
        relaxedCodec_ = schemes::arccRelaxed();
        upgradedCodec_ = std::make_unique<RsLineCodec>(
            36, 32, 128, 2, "ARCC+DCS upgraded RS(36,32)");
        if (config_.allowLevel2)
            upgraded2Codec_ = std::make_unique<RsLineCodec>(
                72, 64, 256, 2, "ARCC+DCS upgraded-2 RS(72,64)");
        break;
      case SchemeKind::LotEcc9:
        relaxedCodec_ = schemes::lotEcc9();
        break;
      case SchemeKind::ArccLotEcc:
        relaxedCodec_ = schemes::lotEcc9();
        upgradedCodec_ = schemes::lotEcc18();
        break;
    }

    if (relaxedCodec_->devices() != config_.devicesPerRank)
        fatal("ArccMemory: scheme %s needs %d devices/rank, config has %d",
              toString(config_.scheme), relaxedCodec_->devices(),
              config_.devicesPerRank);
    if (upgradedCodec_ &&
        upgradedCodec_->devices() > 2 * config_.devicesPerRank)
        fatal("ArccMemory: upgraded codec spans %d devices, only %d "
              "available",
              upgradedCodec_->devices(), 2 * config_.devicesPerRank);
    if (upgraded2Codec_ && config_.channels < 4)
        fatal("ArccMemory: level-2 upgrade needs 4 channels, have %d",
              config_.channels);

    slotBytes_ = relaxedCodec_->sliceBytes();
    if (upgradedCodec_)
        slotBytes_ = std::max(slotBytes_, upgradedCodec_->sliceBytes());
    if (upgraded2Codec_)
        slotBytes_ = std::max(slotBytes_, upgraded2Codec_->sliceBytes());

    linesPerRow_ = config_.linesPerRow();
    deviceStride_ = static_cast<std::size_t>(config_.banks) * config_.rows *
                    linesPerRow_ * slotBytes_;
    storage_.assign(static_cast<std::size_t>(config_.channels) *
                        config_.ranksPerChannel * config_.devicesPerRank *
                        deviceStride_,
                    0);
    spared_.assign(static_cast<std::size_t>(config_.channels) *
                       config_.ranksPerChannel,
                   {});

    // Initialise the arrays to *properly encoded* zero content so a
    // fresh memory decodes clean under every scheme (the LOT-ECC
    // checksum convention makes raw zeros inconsistent on purpose).
    PageMode mode = bootMode(config_.scheme);
    const LineCodec &codec = codecFor(mode);
    std::vector<std::uint8_t> zeros(codec.dataBytes(), 0);
    DeviceSlices slices = codec.encode(zeros);
    for (std::uint64_t base = 0; base < capacity();
         base += codec.dataBytes())
        storeGroup(base, mode, slices);
}

ArccMemory::Loc
ArccMemory::locOf(std::uint64_t addr) const
{
    ARCC_ASSERT(addr < capacity());
    std::uint64_t line = addr / kLineBytes;
    Loc loc;
    loc.channel = static_cast<int>(line % config_.channels);
    line /= config_.channels;
    loc.col = static_cast<int>(line % linesPerRow_);
    line /= linesPerRow_;
    loc.bank = static_cast<int>(line % config_.banks);
    line /= config_.banks;
    loc.rank = static_cast<int>(line % config_.ranksPerChannel);
    line /= config_.ranksPerChannel;
    loc.row = static_cast<std::uint32_t>(line);
    return loc;
}

template <class Fn>
void
ArccMemory::forEachSubLine(std::uint64_t group_base, const LineCodec &codec,
                           Fn &&fn) const
{
    // Sub-line s holds codec devices [s * dpr, (s + 1) * dpr): one
    // address decode per sub-line, then a walk down its rank's rows.
    const int dpr = config_.devicesPerRank;
    SubLine sl;
    for (sl.first = 0; sl.first < codec.devices(); sl.first += dpr) {
        sl.loc = locOf(group_base +
                       static_cast<std::uint64_t>(sl.first / dpr) *
                           kLineBytes);
        sl.devices = std::min(dpr, codec.devices() - sl.first);
        const std::size_t rank_row =
            (static_cast<std::size_t>(sl.loc.channel) *
                 config_.ranksPerChannel +
             sl.loc.rank) *
            dpr;
        const std::size_t slot =
            (static_cast<std::size_t>(sl.loc.bank) * config_.rows +
             sl.loc.row) *
                linesPerRow_ +
            sl.loc.col;
        sl.offset = rank_row * deviceStride_ + slot * slotBytes_;
        fn(sl);
    }
}

const LineCodec &
ArccMemory::codecFor(PageMode mode) const
{
    switch (mode) {
      case PageMode::Relaxed:
        return *relaxedCodec_;
      case PageMode::Upgraded:
        ARCC_ASSERT(upgradedCodec_);
        return *upgradedCodec_;
      case PageMode::Upgraded2:
        ARCC_ASSERT(upgraded2Codec_);
        return *upgraded2Codec_;
    }
    return *relaxedCodec_;
}

int
ArccMemory::subLines(PageMode mode) const
{
    return codecFor(mode).dataBytes() / static_cast<int>(kLineBytes);
}

std::uint64_t
ArccMemory::groupBytes(PageMode mode) const
{
    return codecFor(mode).dataBytes();
}

bool
ArccMemory::covers(const FunctionalFault &f, const Loc &loc)
{
    if (f.channel != loc.channel)
        return false;
    if (f.scope != FaultScope::Lane && f.rank != loc.rank)
        return false;
    switch (f.scope) {
      case FaultScope::Device:
      case FaultScope::Lane:
        return true;
      case FaultScope::Bank:
        return loc.bank == f.bank;
      case FaultScope::Row:
        return loc.bank == f.bank &&
               loc.row == static_cast<std::uint32_t>(f.row);
      case FaultScope::Column:
        return loc.bank == f.bank && loc.col == f.col;
      case FaultScope::Cell:
        return loc.bank == f.bank &&
               loc.row == static_cast<std::uint32_t>(f.row) &&
               loc.col == f.col;
    }
    return false;
}

void
ArccMemory::applyOverlay(std::span<std::uint8_t> bytes,
                         const FunctionalFault &f, const Loc &loc)
{
    switch (f.kind) {
      case FaultKind::StuckAt1:
        for (auto &b : bytes)
            b |= f.mask;
        break;
      case FaultKind::StuckAt0:
        for (auto &b : bytes)
            b &= static_cast<std::uint8_t>(~f.mask);
        break;
      case FaultKind::Corrupt: {
        // Deterministic wrong data: the same garbage on every read
        // of the same location, like a broken address decoder.
        std::uint64_t z = (static_cast<std::uint64_t>(loc.channel) << 48) ^
                          (static_cast<std::uint64_t>(loc.rank) << 40) ^
                          (static_cast<std::uint64_t>(f.device) << 32) ^
                          (static_cast<std::uint64_t>(loc.bank) << 24) ^
                          (static_cast<std::uint64_t>(loc.row) << 12) ^
                          static_cast<std::uint64_t>(loc.col);
        z += 0x9e3779b97f4a7c15ULL;
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            std::uint64_t x = z + i * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            bytes[i] = static_cast<std::uint8_t>(x >> 56);
        }
        break;
      }
    }
}

void
ArccMemory::gatherGroupInto(std::uint64_t group_base, PageMode mode,
                            DeviceSlices &out)
{
    const LineCodec &codec = codecFor(mode);
    const int slice = codec.sliceBytes();
    out.resize(codec.devices());
    forEachSubLine(group_base, codec, [&](const SubLine &sl) {
        const std::uint8_t *p = storage_.data() + sl.offset;
        for (int d = 0; d < sl.devices; ++d, p += deviceStride_)
            out[sl.first + d].assign(p, p + slice);
        // Faults in list order, as if each device applied its own.
        for (const FunctionalFault &f : faults_)
            if (f.device < sl.devices && covers(f, sl.loc))
                applyOverlay(out[sl.first + f.device], f, sl.loc);
    });
}

void
ArccMemory::storeGroup(std::uint64_t group_base, PageMode mode,
                       const DeviceSlices &slices)
{
    const LineCodec &codec = codecFor(mode);
    const int slice = codec.sliceBytes();
    ARCC_ASSERT(slices.size() ==
                static_cast<std::size_t>(codec.devices()));
    forEachSubLine(group_base, codec, [&](const SubLine &sl) {
        std::uint8_t *p = storage_.data() + sl.offset;
        for (int d = 0; d < sl.devices; ++d, p += deviceStride_)
            std::memcpy(p, slices[sl.first + d].data(), slice);
    });
}

void
ArccMemory::erasedInto(std::uint64_t group_base, PageMode mode,
                       std::vector<int> &out) const
{
    out.clear();
    if (!anySpared_)
        return;
    forEachSubLine(group_base, codecFor(mode), [&](const SubLine &sl) {
        const std::vector<int> &list =
            sparedDevices(sl.loc.channel, sl.loc.rank);
        for (int d = 0; d < sl.devices; ++d)
            if (std::find(list.begin(), list.end(), d) != list.end())
                out.push_back(sl.first + d);
    });
}

void
ArccMemory::decodeSlicesInto(DeviceSlices &slices, PageMode mode,
                             std::span<const int> erased,
                             MemoryStats &stats, LineWorkspace &ws,
                             ReadResult &out) const
{
    const LineCodec &codec = codecFor(mode);
    out.data.assign(codec.dataBytes(), 0);
    codec.decodeInto(slices, out.data, erased, ws, ws.dec);
    out.status = ws.dec.status;
    out.symbolsCorrected = ws.dec.symbolsCorrected;
    stats.deviceReads += codec.devices();
    if (ws.dec.status == DecodeStatus::Corrected)
        stats.corrected += ws.dec.symbolsCorrected;
    if (ws.dec.status == DecodeStatus::Detected)
        ++stats.dues;
}

void
ArccMemory::readGroupInto(std::uint64_t group_base, PageMode mode,
                          MemoryStats &stats, LineWorkspace &ws,
                          ReadResult &out)
{
    gatherGroupInto(group_base, mode, ws.slices);
    erasedInto(group_base, mode, ws.erased);
    decodeSlicesInto(ws.slices, mode, ws.erased, stats, ws, out);
}

ReadResult
ArccMemory::readGroup(std::uint64_t group_base, PageMode mode,
                      MemoryStats &stats)
{
    ReadResult res;
    readGroupInto(group_base, mode, stats,
                  LineWorkspace::forThisThread(), res);
    return res;
}

ReadResult
ArccMemory::read(std::uint64_t addr)
{
    ++stats_.reads;
    PageMode mode = pageTable_.mode(pageOf(addr));
    std::uint64_t group = groupBytes(mode);
    std::uint64_t base = addr & ~(group - 1);
    ReadResult whole = readGroup(base, mode, stats_);
    ReadResult line;
    extractLineInto(whole, addr, base, line);
    return line;
}

std::vector<ReadResult>
ArccMemory::accessBatch(std::span<const std::uint64_t> addrs)
{
    return accessBatch(addrs, stats_);
}

std::vector<ReadResult>
ArccMemory::accessBatch(std::span<const std::uint64_t> addrs,
                        MemoryStats &stats)
{
    std::vector<ReadResult> results;
    accessBatch(addrs, stats, MemoryWorkspace::forThisThread(), results);
    return results;
}

void
ArccMemory::accessBatch(std::span<const std::uint64_t> addrs,
                        MemoryStats &stats, MemoryWorkspace &ws,
                        std::vector<ReadResult> &results)
{
    results.resize(addrs.size());
    ws.groups.clear();
    ws.addrGroup.resize(addrs.size());

    // Pass 1: walk the stream, discover its distinct groups (the same
    // consecutive-merge rule as the old one-entry decode cache, so
    // the amortisation accounting is unchanged) and gather each one's
    // slices once.  Decoding is deferred: gathering never writes, so
    // nothing a later address reads can depend on an earlier group's
    // decode.
    std::uint64_t cached_page = ~0ULL;
    PageMode mode = PageMode::Relaxed;
    std::uint64_t cached_base = ~0ULL;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const std::uint64_t addr = addrs[i];
        ++stats.reads;
        const std::uint64_t page = pageOf(addr);
        if (page != cached_page) {
            mode = pageTable_.mode(page);
            cached_page = page;
            cached_base = ~0ULL; // group size may have changed.
        }
        const std::uint64_t group = groupBytes(mode);
        const std::uint64_t base = addr & ~(group - 1);
        if (base != cached_base) {
            const std::size_t gi = ws.groups.size();
            if (ws.groupSlices.size() <= gi) {
                ws.groupSlices.emplace_back();
                ws.groupWhole.emplace_back();
            }
            gatherGroupInto(base, mode, ws.groupSlices[gi]);
            erasedInto(base, mode, ws.line.erased);
            const bool slow = codecFor(mode).soaCodec() == nullptr ||
                              !ws.line.erased.empty();
            ws.groups.push_back({base, mode, slow});
            cached_base = base;
        }
        ws.addrGroup[i] =
            static_cast<std::uint32_t>(ws.groups.size() - 1);
    }

    // Pass 2: screen runs of groups through the SoA kernel; only the
    // lanes it flags (plus LOT / erasure groups) pay a full decode.
    screenStagedGroups(stats, ws);

    // Pass 3: per-address line extraction from the decoded groups.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const std::uint32_t gi = ws.addrGroup[i];
        extractLineInto(ws.groupWhole[gi], addrs[i],
                        ws.groups[gi].base, results[i]);
    }
}

void
ArccMemory::decodeStagedGroup(std::size_t g, MemoryStats &stats,
                              MemoryWorkspace &ws)
{
    const MemoryWorkspace::StagedGroup &sg = ws.groups[g];
    // A group the screen flagged has no erased device: it would have
    // been staged slow otherwise.
    if (sg.slow)
        erasedInto(sg.base, sg.mode, ws.line.erased);
    else
        ws.line.erased.clear();
    decodeSlicesInto(ws.groupSlices[g], sg.mode, ws.line.erased, stats,
                     ws.line, ws.groupWhole[g]);
}

void
ArccMemory::screenStagedGroups(MemoryStats &stats, MemoryWorkspace &ws)
{
    RsWorkspace &rws = ws.line.rs;
    constexpr std::size_t kLanes = RsWorkspace::kSoaLanes;
    std::size_t g = 0;
    while (g < ws.groups.size()) {
        if (ws.groups[g].slow) {
            decodeStagedGroup(g, stats, ws);
            ++g;
            continue;
        }
        const PageMode mode = ws.groups[g].mode;
        const LineCodec &codec = codecFor(mode);
        const ReedSolomon &rs = *codec.soaCodec();
        const int cw = codec.sliceBytes(); // codewords per group.
        const int dev = codec.devices();

        // Stage a run of consecutive same-mode groups into one SoA
        // block.  A slice row is symbol d of the group's cw
        // codewords, i.e. already transposed: staging is one row
        // memcpy per device.
        std::size_t h = g;
        int lanes = 0;
        while (h < ws.groups.size() && !ws.groups[h].slow &&
               ws.groups[h].mode == mode &&
               lanes + cw <= static_cast<int>(kLanes)) {
            const DeviceSlices &sl = ws.groupSlices[h];
            for (int d = 0; d < dev; ++d)
                std::memcpy(&rws.soa[static_cast<std::size_t>(d) *
                                         kLanes +
                                     lanes],
                            sl[d].data(), cw);
            lanes += cw;
            ++h;
        }

        rs.computeSyndromesSoa(rws.soa.data(), kLanes, lanes,
                               rws.syndSoa.data(),
                               rws.soaFlags.data());

        int lane0 = 0;
        for (std::size_t x = g; x < h; ++x, lane0 += cw) {
            bool flagged = false;
            for (int c = 0; c < cw; ++c)
                flagged = flagged || rws.soaFlags[lane0 + c] != 0;
            if (flagged) {
                // Same full pipeline (and stats) the serial path
                // runs; the screen cost is sunk but tiny.
                decodeStagedGroup(x, stats, ws);
                continue;
            }
            // Clean group -- the overwhelmingly common case: extract
            // the data symbols straight from the gathered slices,
            // exactly what decodeInto writes when every codeword is
            // clean.
            const DeviceSlices &sl = ws.groupSlices[x];
            ReadResult &out = ws.groupWhole[x];
            out.status = DecodeStatus::Clean;
            out.symbolsCorrected = 0;
            out.data.resize(codec.dataBytes());
            const int k = rs.k();
            for (int c = 0; c < cw; ++c)
                for (int s = 0; s < k; ++s)
                    out.data[c * k + s] = sl[s][c];
            stats.deviceReads += dev;
        }
        g = h;
    }
}

void
ArccMemory::extractLineInto(const ReadResult &whole, std::uint64_t addr,
                            std::uint64_t group_base, ReadResult &out)
{
    out.status = whole.status;
    out.symbolsCorrected = whole.symbolsCorrected;
    std::size_t off = static_cast<std::size_t>(addr - group_base) &
                      ~(kLineBytes - 1);
    out.data.assign(whole.data.begin() + off,
                    whole.data.begin() + off + kLineBytes);
}

ReadResult
ArccMemory::readWholeGroup(std::uint64_t addr)
{
    ++stats_.reads;
    PageMode mode = pageTable_.mode(pageOf(addr));
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    return readGroup(base, mode, stats_);
}

void
ArccMemory::writeGroup(std::uint64_t addr,
                       std::span<const std::uint8_t> data)
{
    writeGroup(addr, data, stats_);
}

void
ArccMemory::writeGroup(std::uint64_t addr,
                       std::span<const std::uint8_t> data,
                       MemoryStats &stats)
{
    writeGroup(addr, data, stats, MemoryWorkspace::forThisThread());
}

void
ArccMemory::writeGroup(std::uint64_t addr,
                       std::span<const std::uint8_t> data,
                       MemoryStats &stats, MemoryWorkspace &ws)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    ARCC_ASSERT(data.size() ==
                static_cast<std::size_t>(codec.dataBytes()));
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    codec.encodeInto(data, ws.line.slices, ws.line);
    storeGroup(base, mode, ws.line.slices);
    ++stats.writes;
    stats.deviceWrites += codec.devices();
}

void
ArccMemory::write(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    ARCC_ASSERT(data.size() == kLineBytes);
    ++stats_.writes;
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    MemoryWorkspace &ws = MemoryWorkspace::forThisThread();

    std::span<const std::uint8_t> group = data;
    if (subLines(mode) > 1) {
        // Read-modify-write: both (all) sub-lines of the group share
        // check symbols, so the whole group is re-encoded (this is why
        // the LLC evicts upgraded sub-lines together, Section 4.2.3).
        readGroupInto(base, mode, stats_, ws.line, ws.whole);
        std::size_t off = static_cast<std::size_t>(addr - base) &
                          ~(kLineBytes - 1);
        std::memcpy(ws.whole.data.data() + off, data.data(), kLineBytes);
        group = ws.whole.data;
    }
    codec.encodeInto(group, ws.line.slices, ws.line);
    storeGroup(base, mode, ws.line.slices);
    stats_.deviceWrites += codec.devices();
}

void
ArccMemory::setPageMode(std::uint64_t page, PageMode mode)
{
    PageMode old = pageTable_.mode(page);
    if (old == mode)
        return;
    if (mode != PageMode::Relaxed && !upgradedCodec_)
        fatal("scheme %s has no upgraded mode",
              toString(config_.scheme));
    if (mode == PageMode::Upgraded2 && !upgraded2Codec_)
        fatal("level-2 upgrade not enabled for this memory");

    // Read the whole page under the old code (correcting what we can),
    // then re-encode under the new one.  Only this page is touched.
    MemoryWorkspace &ws = MemoryWorkspace::forThisThread();
    std::uint64_t page_base = page * kPageBytes;
    ws.page.resize(kPageBytes);
    std::uint64_t old_group = groupBytes(old);
    for (std::uint64_t off = 0; off < kPageBytes; off += old_group) {
        readGroupInto(page_base + off, old, stats_, ws.line, ws.whole);
        std::memcpy(ws.page.data() + off, ws.whole.data.data(), old_group);
    }

    pageTable_.setMode(page, mode);

    const LineCodec &codec = codecFor(mode);
    std::uint64_t new_group = groupBytes(mode);
    for (std::uint64_t off = 0; off < kPageBytes; off += new_group) {
        codec.encodeInto({ws.page.data() + off, new_group}, ws.line.slices,
                         ws.line);
        storeGroup(page_base + off, mode, ws.line.slices);
        stats_.deviceWrites += codec.devices();
    }
}

void
ArccMemory::rawFill(std::uint64_t addr, std::uint8_t value)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    forEachSubLine(base, codec, [&](const SubLine &sl) {
        std::uint8_t *p = storage_.data() + sl.offset;
        for (int d = 0; d < sl.devices; ++d, p += deviceStride_)
            std::memset(p, value, codec.sliceBytes());
    });
}

bool
ArccMemory::rawCheck(std::uint64_t addr, std::uint8_t value)
{
    return rawCheck(addr, value, LineWorkspace::forThisThread());
}

bool
ArccMemory::rawCheck(std::uint64_t addr, std::uint8_t value,
                     LineWorkspace &ws)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    gatherGroupInto(base, mode, ws.slices);
    for (const auto &s : ws.slices)
        for (std::uint8_t b : s)
            if (b != value)
                return false;
    return true;
}

std::vector<std::uint8_t>
ArccMemory::rawSnapshot(std::uint64_t addr)
{
    std::vector<std::uint8_t> snap;
    rawSnapshotInto(addr, snap);
    return snap;
}

void
ArccMemory::rawSnapshotInto(std::uint64_t addr,
                            std::vector<std::uint8_t> &out)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    const int slice = codec.sliceBytes();
    out.resize(static_cast<std::size_t>(codec.devices()) * slice);
    forEachSubLine(base, codec, [&](const SubLine &sl) {
        const std::uint8_t *p = storage_.data() + sl.offset;
        for (int d = 0; d < sl.devices; ++d, p += deviceStride_)
            std::memcpy(out.data() + (sl.first + d) * slice, p, slice);
    });
}

void
ArccMemory::rawRestore(std::uint64_t addr,
                       std::span<const std::uint8_t> snapshot)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    const int slice = codec.sliceBytes();
    ARCC_ASSERT(snapshot.size() ==
                static_cast<std::size_t>(codec.devices()) * slice);
    forEachSubLine(base, codec, [&](const SubLine &sl) {
        std::uint8_t *p = storage_.data() + sl.offset;
        for (int d = 0; d < sl.devices; ++d, p += deviceStride_)
            std::memcpy(p, snapshot.data() + (sl.first + d) * slice, slice);
    });
}

void
ArccMemory::injectFault(const FunctionalFault &fault)
{
    ARCC_ASSERT(fault.channel >= 0 && fault.channel < config_.channels);
    ARCC_ASSERT(fault.device >= 0 &&
                fault.device < config_.devicesPerRank);
    faults_.push_back(fault);
}

void
ArccMemory::spareDevice(int channel, int rank, int device)
{
    auto &list = spared_[static_cast<std::size_t>(channel) *
                             config_.ranksPerChannel +
                         rank];
    if (std::find(list.begin(), list.end(), device) == list.end())
        list.push_back(device);
    anySpared_ = true;
}

const std::vector<int> &
ArccMemory::sparedDevices(int channel, int rank) const
{
    return spared_[static_cast<std::size_t>(channel) *
                       config_.ranksPerChannel +
                   rank];
}

} // namespace arcc
