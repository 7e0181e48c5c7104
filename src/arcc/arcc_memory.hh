/**
 * @file
 * The functional (bit-true) ARCC memory: simulated DRAM devices with
 * fault overlays, per-page adaptive ECC, and raw access hooks for the
 * test-pattern scrubber.
 *
 * This is the data plane of the reproduction (DESIGN.md section 7):
 * real bytes are encoded into per-device symbol slices on write (one
 * flat device-major DeviceSlices buffer per group),
 * device-level faults corrupt the slices on read, and reads decode and
 * correct through the scheme codecs of ecc_scheme.hh.  Page modes come
 * from the PageTable; upgrading a page re-reads every line under the
 * old code and re-encodes it under the stronger one, touching only the
 * page itself, exactly as Section 4.2.1 describes.
 *
 * Geometry is configurable and deliberately small by default (the
 * functional plane proves the mechanism; the performance plane in
 * src/dram and src/cpu carries the paper's Figure 7.x workloads).
 */

#ifndef ARCC_ARCC_ARCC_MEMORY_HH
#define ARCC_ARCC_ARCC_MEMORY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arcc/ecc_scheme.hh"
#include "arcc/page_table.hh"
#include "common/units.hh"

namespace arcc
{

/** Protection scheme the functional memory runs. */
enum class SchemeKind
{
    /** Fixed RS(36,32), correct 1 / detect 2 (the baseline). */
    CommercialSccdcd,
    /** Fixed RS(36,32) with spare-device remap, correct up to 2. */
    DoubleChipSparing,
    /** ARCC over commercial chipkill: RS(18,16) <-> RS(36,32). */
    ArccCommercial,
    /** ARCC over double chip sparing (enables the Ch 5.1 level 2). */
    ArccDcs,
    /** Fixed nine-device LOT-ECC. */
    LotEcc9,
    /** ARCC over LOT-ECC: 9-device <-> 18-device (Ch 5.2). */
    ArccLotEcc,
};

/** Display name. */
const char *toString(SchemeKind k);

/** Functional-plane geometry and scheme selection. */
struct FunctionalConfig
{
    SchemeKind scheme = SchemeKind::ArccCommercial;
    int channels = 2;
    int ranksPerChannel = 2;
    /** Devices in one channel's rank (36 / 18 / 9 by scheme). */
    int devicesPerRank = 18;
    int banks = 2;
    int rows = 16;
    int pagesPerRow = 2;
    /** Allow the Chapter 5.1 second upgrade level (needs 4 channels). */
    bool allowLevel2 = false;

    /** Lines per channel-row slice. */
    int linesPerRow() const;
    /** Total data capacity in bytes. */
    std::uint64_t capacity() const;
    /** 4KB pages. */
    std::uint64_t pages() const { return capacity() / kPageBytes; }

    /** Small ARCC-over-commercial config (512 KB, 128 pages). */
    static FunctionalConfig arccSmall();
    /** Small commercial SCCDCD baseline (36-device channels). */
    static FunctionalConfig baselineSmall();
    /** Four-channel config for the Chapter 5.1 second level. */
    static FunctionalConfig arccWide();
    /** ARCC over LOT-ECC (9-device ranks). */
    static FunctionalConfig lotSmall();
};

/** How a faulty device corrupts its output. */
enum class FaultKind
{
    StuckAt1,
    StuckAt0,
    /** Wrong data of full weight (e.g. a broken address decoder). */
    Corrupt,
};

/** Footprint of an injected functional fault. */
enum class FaultScope
{
    Device, ///< the device's whole array.
    Lane,   ///< this device position in every rank of the channel.
    Bank,   ///< one bank.
    Row,    ///< one row of one bank.
    Column, ///< one column of one bank.
    Cell,   ///< a single line slot (bit/word faults).
};

/** One injected device fault. */
struct FunctionalFault
{
    int channel = 0;
    int rank = 0;
    int device = 0;
    FaultScope scope = FaultScope::Device;
    FaultKind kind = FaultKind::Corrupt;
    int bank = 0;
    int row = 0;
    int col = 0;
    /** Bits affected within each slice byte (stuck-at kinds). */
    std::uint8_t mask = 0xff;
};

/** Result of a functional read. */
struct ReadResult
{
    DecodeStatus status = DecodeStatus::Clean;
    int symbolsCorrected = 0;
    std::vector<std::uint8_t> data;
};

/**
 * Per-worker scratch for the allocation-free memory paths: the codec
 * workspace plus the decoded-group staging buffers.  One per shard /
 * worker, reused across batches.
 */
struct MemoryWorkspace
{
    LineWorkspace line;
    /** Whole-group decode staging (the line write's read-modify-write
     *  and setPageMode's re-read). */
    ReadResult whole;
    /** One page of data between setPageMode's re-read and re-encode. */
    std::vector<std::uint8_t> page;

    /**
     * The calling thread's default workspace, behind the ArccMemory
     * entry points that take none (the constructor, write, read,
     * readWholeGroup, setPageMode, rawCheck and the owning accessBatch
     * and writeGroup overloads).
     */
    static MemoryWorkspace &forThisThread();

    // ----- batch staging (ArccMemory::accessBatch) -------------------
    //
    // The batched read gathers every distinct group of the address
    // stream up front, decodes runs of them per SoA block (see
    // accessBatch), and extracts lines at the end.  All capacity is
    // reused across batches, so a steady-state sweep allocates
    // nothing after its first page.

    /** One gathered-but-not-yet-decoded ECC group. */
    struct StagedGroup
    {
        std::uint64_t base;
        PageMode mode;
        /** Needs the per-group codec decode (LOT wire format or
         *  erased devices) instead of the SoA block decode. */
        bool slow;
    };
    std::vector<StagedGroup> groups;
    /** Gathered line per staged group: a ring of flat buffers whose
     *  capacity survives switches between group widths. */
    std::vector<DeviceSlices> groupSlices;
    /** Decoded whole-group results, parallel to `groups`. */
    std::vector<ReadResult> groupWhole;
    /** Staged-group index serving each batch address. */
    std::vector<std::uint32_t> addrGroup;
};

/** Counters exposed for tests and examples. */
struct MemoryStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t deviceReads = 0;  ///< device touches on reads.
    std::uint64_t deviceWrites = 0; ///< device touches on writes.
    std::uint64_t corrected = 0;
    std::uint64_t dues = 0;

    /** Accumulate a delta (shard-order merge of parallel sweeps). */
    MemoryStats &
    operator+=(const MemoryStats &o)
    {
        reads += o.reads;
        writes += o.writes;
        deviceReads += o.deviceReads;
        deviceWrites += o.deviceWrites;
        corrected += o.corrected;
        dues += o.dues;
        return *this;
    }
};

/**
 * The functional memory.
 */
class ArccMemory
{
  public:
    explicit ArccMemory(const FunctionalConfig &config);

    // ----- normal data path -------------------------------------------
    /**
     * Write one 64B line (read-modify-write inside upgraded groups).
     * Allocation-free once the thread's MemoryWorkspace is warm.
     */
    void write(std::uint64_t addr, std::span<const std::uint8_t> data);

    /** Read one 64B line through the page's current code. */
    ReadResult read(std::uint64_t addr);

    /**
     * Read a batch of 64B lines, returning one result per address in
     * order.  Consecutive addresses that fall in the same ECC group
     * reuse one gather + decode, and repeated hits to one page reuse
     * its page-table lookup, so a sequential or group-local access
     * stream costs a fraction of per-line read() calls.
     *
     * Returned results (data and per-line status) are identical to
     * calling read() per address.  The decode-work counters
     * (stats().deviceReads / corrected / dues) count actual decode
     * operations and therefore come out *lower* than the per-line
     * path's: that amortisation is the point of batching.
     */
    std::vector<ReadResult>
    accessBatch(std::span<const std::uint64_t> addrs);

    /**
     * Read the full ECC group containing addr (64B for a relaxed page,
     * 128B upgraded, 256B level-2).  The scrubber works at this
     * granularity.
     */
    ReadResult readWholeGroup(std::uint64_t addr);

    /**
     * Encode and store a full group's data directly (no internal
     * read-modify-write).  data.size() must equal the group size of
     * the page's current mode.
     */
    void writeGroup(std::uint64_t addr,
                    std::span<const std::uint8_t> data);

    // ----- stats-sink variants (parallel sweeps) ----------------------
    //
    // These perform the same accesses but accumulate the decode-work
    // counters into a caller-owned MemoryStats instead of the shared
    // stats() member.  Provided the address ranges of concurrent
    // callers are disjoint (the scrubber shards by page), they are
    // safe to call from several threads at once: storage bytes of
    // distinct addresses never alias, the page table and fault list
    // are only read, and the only shared-mutable state -- stats() --
    // is not touched.  Fold the deltas back in with addStats() on the
    // calling thread, in shard order, when the sweep completes.

    /**
     * The fully allocation-free batch read: scratch comes from `ws`
     * and results land in `results`, whose per-line buffers are
     * reused across calls.  A steady-state sweep (e.g. the
     * scrubber's, over pages of either mode) allocates nothing after
     * its first batch of each mode.  Results and stats accounting are
     * identical to the owning overload's.
     */
    void accessBatch(std::span<const std::uint64_t> addrs,
                     MemoryStats &stats, MemoryWorkspace &ws,
                     std::vector<ReadResult> &results);

    /** writeGroup with an explicit stats sink, encoding through a
     *  caller-owned workspace. */
    void writeGroup(std::uint64_t addr,
                    std::span<const std::uint8_t> data,
                    MemoryStats &stats, MemoryWorkspace &ws);

    /** Fold a parallel sweep's stats delta into stats(). */
    void addStats(const MemoryStats &delta) { stats_ += delta; }

    // ----- fault injection --------------------------------------------
    void injectFault(const FunctionalFault &fault);
    const std::vector<FunctionalFault> &faults() const { return faults_; }
    void clearFaults() { faults_.clear(); }

    // ----- page-mode management (Section 4.2.1) -----------------------
    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    /** Page index of an address. */
    std::uint64_t pageOf(std::uint64_t addr) const
    {
        return addr / kPageBytes;
    }

    /**
     * Change a page's chipkill strength, re-encoding every line in the
     * page (and only in the page).  Errors found along the way are
     * corrected by the old code where possible.
     */
    void setPageMode(std::uint64_t page, PageMode mode);

    // ----- raw hooks for the scrubber (Section 4.2.2) -----------------
    /** Fill the line's slices (mode granularity) with a test byte. */
    void rawFill(std::uint64_t addr, std::uint8_t value);
    /** @return true when every slice byte reads back as `value`. */
    bool rawCheck(std::uint64_t addr, std::uint8_t value);
    /** rawCheck gathering through a caller-owned workspace. */
    bool rawCheck(std::uint64_t addr, std::uint8_t value,
                  LineWorkspace &ws);
    /** Snapshot the raw slices of the line's group: the stored line
     *  without fault overlays, in DeviceSlices layout. */
    std::vector<std::uint8_t> rawSnapshot(std::uint64_t addr);
    /** rawSnapshot into an existing buffer, reusing its storage. */
    void rawSnapshotInto(std::uint64_t addr,
                         std::vector<std::uint8_t> &out);
    /** Restore a snapshot taken by rawSnapshot (a plain store: the
     *  snapshot is already a DeviceSlices buffer). */
    void rawRestore(std::uint64_t addr,
                    std::span<const std::uint8_t> snapshot);

    // ----- double-chip-sparing support --------------------------------
    /** Mark a device of a rank as diagnosed-bad (erasure decode). */
    void spareDevice(int channel, int rank, int device);
    /** Diagnosed devices of a rank. */
    const std::vector<int> &sparedDevices(int channel, int rank) const;

    // ----- introspection ----------------------------------------------
    const FunctionalConfig &config() const { return config_; }
    const MemoryStats &stats() const { return stats_; }
    std::uint64_t capacity() const { return config_.capacity(); }

    /** Group span (bytes) a page mode reads per access. */
    std::uint64_t groupBytes(PageMode mode) const;

  private:
    struct Loc
    {
        int channel, rank, bank, col;
        std::uint32_t row;
    };

    /**
     * One 64B sub-line of an ECC group: codec devices
     * [first, first + devices) are devices [0, devices) of the slot at
     * loc, so they sit at groupStorage(base) + first * sliceBytes,
     * where the group's DeviceSlices keeps them.  The last sub-line of
     * a LOT-ECC 18-device group stores 8 of its rank's 9 devices.
     */
    struct SubLine
    {
        Loc loc;
        int first;
        int devices;
    };

    Loc locOf(std::uint64_t addr) const;

    /** Call fn(const SubLine &) for each sub-line of a group, in
     *  device order: the address decode behind the fault overlays and
     *  the erasure list. */
    template <class Fn>
    void forEachSubLine(std::uint64_t group_base, const LineCodec &codec,
                        Fn &&fn) const;

    /** First stored byte of the group at group_base: its slots are
     *  consecutive, so the group's encoded line is the
     *  devices * sliceBytes bytes from here, in DeviceSlices layout. */
    std::uint8_t *groupStorage(std::uint64_t group_base);
    const std::uint8_t *groupStorage(std::uint64_t group_base) const;

    /** Codec serving a page mode. */
    const LineCodec &codecFor(PageMode mode) const;
    /** Number of 64B sub-lines per group in a mode. */
    int subLines(PageMode mode) const;

    /** Copy the stored line of the group at group_base into `out`,
     *  reusing its storage; with `overlay`, apply the fault overlays
     *  as the devices would on a read. */
    void gatherGroupInto(std::uint64_t group_base, PageMode mode,
                         DeviceSlices &out, bool overlay) const;
    /** Store an encoded line (DeviceSlices layout) for the group at
     *  group_base. */
    void storeGroup(std::uint64_t group_base, PageMode mode,
                    std::span<const std::uint8_t> line);
    /** Erased-device indices in codec ordering for a group. */
    void erasedInto(std::uint64_t group_base, PageMode mode,
                    std::vector<int> &out) const;

    /** Whether fault f covers the slot at loc on its device (Lane
     *  faults ignore the rank). */
    static bool covers(const FunctionalFault &f, const Loc &loc);
    /** Apply fault f's overlay to a slice it covers at loc. */
    static void applyOverlay(std::span<std::uint8_t> bytes,
                             const FunctionalFault &f, const Loc &loc);

    /** Read a full group, decoding; helper for read / RMW / convert.
     *  Decode-work counters land in `stats` (usually stats_). */
    ReadResult readGroup(std::uint64_t group_base, PageMode mode,
                         MemoryStats &stats);

    /** The allocation-free core of readGroup: scratch from `ws`,
     *  result into `out` (buffers reused across calls). */
    void readGroupInto(std::uint64_t group_base, PageMode mode,
                       MemoryStats &stats, LineWorkspace &ws,
                       ReadResult &out);

    /** Decode a gathered group into `out`; codewords the decode gives
     *  up on read as zero.  Decode work is counted into `stats`. */
    void decodeSlicesInto(DeviceSlices &slices, PageMode mode,
                          std::span<const int> erased, MemoryStats &stats,
                          LineWorkspace &ws, ReadResult &out) const;

    /** Pass 2 of accessBatch: decode runs of staged RS groups
     *  through ReedSolomon::decodeSoa (the SoA screen at the active
     *  SIMD tier, then the flagged lanes), and slow groups one at a
     *  time through their codec; stats as readGroupInto. */
    void screenStagedGroups(MemoryStats &stats, MemoryWorkspace &ws);

    /** Slice one 64B line out of a decoded group's result, reusing
     *  the buffer of `out`. */
    static void extractLineInto(const ReadResult &whole,
                                std::uint64_t addr,
                                std::uint64_t group_base,
                                ReadResult &out);

    /** Fatal unless every address of the geometry has a page. */
    static const FunctionalConfig &validated(const FunctionalConfig &c);

    FunctionalConfig config_;
    std::unique_ptr<LineCodec> relaxedCodec_;
    std::unique_ptr<LineCodec> upgradedCodec_;
    std::unique_ptr<LineCodec> upgraded2Codec_;
    /** Bytes per slot: devicesPerRank slices of the scheme's one
     *  slice width. */
    std::size_t slotBytes_;
    int linesPerRow_;

    /**
     * The slab, slot-major: one slot per (channel, rank, bank, row,
     * col), holding that rank's devicesPerRank slices side by side
     * (device d at d * sliceBytes).  Slots are in line-address order
     * (slot addr / kLineBytes), so the sub-lines of a group are
     * consecutive slots and a group walk is one memcpy or memset.
     */
    std::vector<std::uint8_t> storage_;
    std::vector<FunctionalFault> faults_;
    /** sparedDevices_[channel * ranks + rank]. */
    std::vector<std::vector<int>> spared_;
    /** Whether any rank has a spared device (erasedInto's fast exit). */
    bool anySpared_ = false;

    PageTable pageTable_;
    MemoryStats stats_;
};

} // namespace arcc

#endif // ARCC_ARCC_ARCC_MEMORY_HH
