/**
 * @file
 * VECC -- Virtualized ECC (Yoon & Erez, ASPLOS 2010) -- and ARCC
 * applied to it (Chapter 5.2).
 *
 * VECC splits a codeword's check symbols in two tiers:
 *
 *  - **tier-1 (inline)**: check symbols stored in the rank's redundant
 *    devices, read with every access, used for *detection*;
 *  - **tier-2 (virtualised)**: the remaining check symbols live in the
 *    *data* space of a different rank, mapped via the page table, and
 *    are fetched only when tier-1 flags an error (or written when a
 *    dirty line leaves the LLC and its tier-2 line is not cached).
 *
 * The virtualised symbols are modelled exactly: they are evaluations
 * of the inline codeword at the extension roots alpha^r, alpha^r+1...,
 * so inline-plus-tier-2 decodes with the full syndrome set through
 * ReedSolomon::decodeWithSyndromes (see that header).
 *
 * Geometries:
 *
 *  - **VECC 18-device** (the ASPLOS configuration): RS(18,16) inline
 *    (2 detection symbols) + 2 virtualised symbols -> 4 total, single
 *    chipkill correct, double detect.  Error-free reads touch 18
 *    devices; error-path reads and tier-2 write-backs touch 36.
 *  - **ARCC+VECC relaxed, 9-device** (Chapter 5.2): RS(9,8) inline
 *    (1 detection symbol) + 1 virtualised symbol -> single chipkill
 *    correct with only nine devices per access.
 *
 * ARCC upgrades a faulty 9-device page to the 18-device layout, the
 * same lockstep-pairing trick as for commercial chipkill.
 */

#ifndef ARCC_ARCC_VECC_HH
#define ARCC_ARCC_VECC_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "ecc/reed_solomon.hh"

namespace arcc
{

/** One VECC tier geometry. */
struct VeccGeometry
{
    int devices = 18;       ///< rank size (inline symbols).
    int dataDevices = 16;   ///< data symbols per codeword.
    int tier2Symbols = 2;   ///< virtualised check symbols.

    int inlineChecks() const { return devices - dataDevices; }
    int totalChecks() const { return inlineChecks() + tier2Symbols; }

    /** The ASPLOS'10 18-device configuration. */
    static VeccGeometry vecc18();
    /** The Chapter 5.2 nine-device relaxed configuration. */
    static VeccGeometry vecc9();
};

/** Outcome of a VECC read, including the access amplification. */
struct VeccReadResult
{
    DecodeStatus status = DecodeStatus::Clean;
    /** Device accesses consumed (devices, or 2x on the error path). */
    int deviceAccesses = 0;
    /** True when the tier-2 symbols had to be fetched. */
    bool tier2Fetched = false;
    std::vector<std::uint8_t> data;
};

/** Access-accounting statistics. */
struct VeccStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t deviceAccesses = 0;
    std::uint64_t tier2Fetches = 0;
    std::uint64_t tier2Writebacks = 0;
    std::uint64_t corrected = 0;
    std::uint64_t dues = 0;
};

/**
 * A functional VECC-protected memory region: `lines` lines of
 * dataDevices symbols each, with the tier-2 symbols stored in a
 * separate table standing in for another rank's data space.
 */
class VeccMemory
{
  public:
    /**
     * @param geometry      tier geometry (vecc18 or vecc9).
     * @param lines         capacity in lines.
     * @param t2HitRate     probability a line's tier-2 symbols are
     *                      found in the LLC when a dirty write-back
     *                      needs them (spares the extra memory write).
     * @param seed          RNG seed for the t2 hit model.
     */
    VeccMemory(const VeccGeometry &geometry, std::uint64_t lines,
               double t2HitRate = 0.5, std::uint64_t seed = 1);

    /** Bytes of data per line. */
    int lineBytes() const { return geom_.dataDevices; }

    /** Write one line (data symbols only). */
    void write(std::uint64_t line,
               std::span<const std::uint8_t> data);

    /** Read one line: tier-1 fast path, tier-2 on detection. */
    VeccReadResult read(std::uint64_t line);

    /**
     * Batched read: read() per line, in order, into `out` (resized to
     * lines.size()).  Its per-line buffers are reused across calls,
     * so a steady-state caller allocates nothing after the first
     * batch.  Results and stats are identical to read() per line.
     */
    void readBatch(std::span<const std::uint64_t> lines,
                   std::vector<VeccReadResult> &out);

    /** Mark a device bad: its symbol is corrupted on every read. */
    void killDevice(int device);
    /** Clear injected faults. */
    void clearFaults() { deadDevices_.clear(); }

    const VeccStats &stats() const { return stats_; }
    const VeccGeometry &geometry() const { return geom_; }

  private:
    /** The read path: result into `res`, reusing its data buffer. */
    void readInto(std::uint64_t line, VeccReadResult &res);

    /** Apply dead-device corruption to a gathered inline word. */
    void corrupt(std::uint64_t line,
                 std::span<std::uint8_t> word) const;

    /** Gather + corrupt a line's inline word into ws_.word. */
    std::span<std::uint8_t> gather(std::uint64_t line);

    /** The tier-2 path: fetch the virtualised symbols and decode
     *  with the extended syndrome set.  `word` is ws_.word. */
    void tier2Decode(std::uint64_t line, std::span<std::uint8_t> word,
                     VeccReadResult &res);

    VeccGeometry geom_;
    ReedSolomon rs_;
    std::uint64_t lines_;
    double t2HitRate_;
    mutable Rng rng_;

    /** Inline storage: lines_ x devices symbols. */
    std::vector<std::uint8_t> inline_;
    /** Virtualised tier-2 storage: lines_ x tier2Symbols. */
    std::vector<std::uint8_t> tier2_;
    std::vector<int> deadDevices_;
    VeccStats stats_;

    /** Decode scratch (this memory is single-owner, like its Rng). */
    RsWorkspace ws_;
};

} // namespace arcc

#endif // ARCC_ARCC_VECC_HH
