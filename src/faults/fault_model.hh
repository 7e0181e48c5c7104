/**
 * @file
 * DRAM device-level fault taxonomy, field-study failure rates, and the
 * fault-to-page geometry of Table 7.4.
 *
 * Fault modes and per-device FIT rates approximate the large DDR2 field
 * study of Sridharan & Liberty (SC'12), the paper's reference [2].  The
 * worst-case assumption of Chapter 3 is preserved: a device-level fault
 * corrupts *every* memory location under the affected circuitry, so a
 * bank fault taints every page mapped to that bank, a column fault
 * taints every page whose half-row contains the column, and so on.
 */

#ifndef ARCC_FAULTS_FAULT_MODEL_HH
#define ARCC_FAULTS_FAULT_MODEL_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"

namespace arcc
{

/** Device-level DRAM fault modes. */
enum class FaultType : int
{
    Bit = 0, ///< single bit.
    Word,    ///< single word (a few adjacent bits).
    Column,  ///< one column of one bank.
    Row,     ///< one row of one bank.
    Bank,    ///< a whole bank ("subbank" in Table 7.4).
    Device,  ///< multiple banks / the whole device.
    Lane,    ///< multi-rank: a shared data lane, hits both ranks.
};

/** Number of fault modes. */
constexpr int kNumFaultTypes = 7;

/** Display name. */
const char *toString(FaultType t);

/** All types, for iteration. */
const std::array<FaultType, kNumFaultTypes> &allFaultTypes();

/**
 * Per-device failure rates in FIT (failures per 1e9 device-hours).
 */
struct FaultRates
{
    std::array<double, kNumFaultTypes> fit{};

    double &operator[](FaultType t) { return fit[static_cast<int>(t)]; }
    double
    operator[](FaultType t) const
    {
        return fit[static_cast<int>(t)];
    }

    /** Sum over all modes. */
    double totalFit() const;

    /** Uniformly scaled copy (the paper's 1x / 2x / 4x sweeps). */
    FaultRates scaled(double factor) const;

    /**
     * DDR2 rates approximating Sridharan & Liberty SC'12.  A 36-device
     * DIMM under these rates sees ~1.8%/year any-fault incidence; the
     * paper quotes 2.95% [2] to 8% [1].
     */
    static FaultRates fieldStudy();
};

/**
 * Geometry of one *memory channel* in the paper's reliability sense:
 * the unit Figure 3.1 and Chapter 6 reason about (two ranks, 36 devices
 * each, for the commercial baseline; the ARCC configuration has the
 * same 72 devices arranged as 2 channels x 2 ranks x 18).
 */
struct DomainGeometry
{
    int ranks = 2;
    int devicesPerRank = 36;
    int banksPerDevice = 8;
    int pagesPerRow = 2;
    /** 4KB data pages in the domain. */
    std::uint64_t pages = 1048576; // 4 GB

    int totalDevices() const { return ranks * devicesPerRank; }

    /**
     * Worst-case fraction of the domain's pages affected by one fault
     * of the given type (Table 7.4 plus the small row/word/bit modes).
     */
    double pageFraction(FaultType t) const;
};

/** One fault arrival in a simulated lifetime. */
struct FaultEvent
{
    double timeHours = 0.0;
    FaultType type = FaultType::Bit;
    /** Affected rank (lane faults span all ranks). */
    int rank = 0;
    /** Affected bank within the device (bank/column/row/word/bit). */
    int bank = 0;
    /** Affected half of the rows' pages (column faults), 0 or 1. */
    int half = 0;
    /** Device within the rank. */
    int device = 0;
};

/** Buffers FaultSampler::sortEvents reuses from call to call. */
struct EventSortScratch
{
    /** An event's sort key: arrival time, then insertion index. */
    struct Key
    {
        double timeHours = 0.0;
        std::uint32_t index = 0;
    };
    std::vector<Key> keys;
    /** The events in insertion order, gathered back in key order. */
    std::vector<FaultEvent> events;
};

/**
 * Samples fault-arrival histories for one domain (Poisson arrivals per
 * mode at rate FIT x devices).
 */
class FaultSampler
{
  public:
    FaultSampler(const DomainGeometry &geom, const FaultRates &rates);

    /** Sample one lifetime of `hours`; events sorted by time. */
    std::vector<FaultEvent> sampleLifetime(double hours, Rng &rng) const;

    /**
     * The same lifetime into `events` (cleared first), sorted through
     * `scratch`: no allocation once the buffers have held a lifetime
     * this long.
     */
    void sampleLifetime(double hours, Rng &rng,
                        std::vector<FaultEvent> &events,
                        EventSortScratch &scratch) const;

    /**
     * Sort events by arrival time, keeping equal timestamps in their
     * type-major insertion order (what a stable sort gives), so the
     * sampled history is independent of the standard library's sort
     * implementation.  Exposed for the determinism regression test.
     */
    static void sortEvents(std::vector<FaultEvent> &events);

    /**
     * sortEvents through `scratch`, in O(n log n) and with no
     * allocation once the buffers have held n events.  std::sort on
     * the key (time, insertion index), a strict total order, yields
     * exactly the stable order.
     */
    static void sortEvents(std::span<FaultEvent> events,
                           EventSortScratch &scratch);

  private:
    DomainGeometry geom_;
    FaultRates rates_;
};

} // namespace arcc

#endif // ARCC_FAULTS_FAULT_MODEL_HH
