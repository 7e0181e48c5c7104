/**
 * @file
 * Memory-access trace capture and replay.
 *
 * The synthetic generators in workloads.hh are statistical stand-ins
 * for SPEC (DESIGN.md section 4).  Users who *do* have real traces --
 * from a PIN tool, gem5, or a production sampler -- can feed them to
 * the same simulator through the StreamSpec factories below and
 * compare against the synthetic twins, or capture the twins' streams
 * for inspection with TraceWriter.
 *
 * Two interchangeable on-disk formats:
 *
 *  - **Text** (human-editable): one access per line,
 *
 *        <hex-address> <R|W> <instructions-since-previous-access>
 *
 *    The address may carry a 0x prefix; neither number takes a sign.
 *    '#'-prefixed lines (leading whitespace allowed) are comments;
 *    blank lines, trailing whitespace, and CRLF endings are
 *    tolerated.
 *
 *  - **Binary** (production scale): an 8-byte magic ("ARCCTRC1")
 *    followed by fixed 16-byte little-endian records -- bytes 0-7 the
 *    address, bytes 8-15 the instruction gap with the top bit set for
 *    writes.
 *
 * TraceStream reads both, told apart by the magic, through one chunk
 * buffer, so resident memory is O(chunk) no matter how long the trace
 * is.  convertTrace turns either format into the other.
 */

#ifndef ARCC_CPU_TRACE_HH
#define ARCC_CPU_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cpu/system_sim.hh"
#include "cpu/workloads.hh"

namespace arcc
{

/** Magic bytes opening a binary trace ("ARCCTRC1"). */
inline constexpr char kTraceMagic[8] = {'A', 'R', 'C', 'C',
                                        'T', 'R', 'C', '1'};
/** Bytes per binary trace record. */
inline constexpr std::size_t kTraceRecordBytes = 16;

/**
 * Write accesses to a trace stream in either format.  The format
 * carries no record count, so the writer needs no finalisation step
 * and works on non-seekable streams.
 */
class TraceWriter
{
  public:
    /** @param out    destination stream (not owned); the header -- a
     *                comment line or the binary magic -- is written
     *                immediately.
     *  @param binary true for the ARCCTRC1 format, false for text. */
    TraceWriter(std::ostream &out, bool binary);

    /** Append one access; fatal() if the stream fails, or if a binary
     *  record cannot hold the instruction gap (2^63 or more, never a
     *  realistic trace). */
    void append(const CoreWorkload::Access &access);

    /** Accesses written so far. */
    std::uint64_t count() const { return count_; }

  private:
    std::ostream &out_;
    bool binary_;
    std::uint64_t count_ = 0;
};

/**
 * Streaming replay of a trace file of either format: records are
 * decoded out of a fixed chunk buffer that is refilled from disk as
 * the replay advances, so resident memory is O(chunkRecords)
 * regardless of the file length (tests/test_alloc_free.cc enforces
 * the bound).  A text trace is parsed into the same 16-byte records
 * as it is read.  A trace that fits in one chunk is read on its first
 * lap and then replayed from the buffer.  The replay wraps around at
 * the end of the trace and counts laps.
 */
class TraceStream
{
  public:
    /** Default chunk: 4096 records = 64 KiB resident. */
    static constexpr std::size_t kDefaultChunkRecords = 4096;

    /**
     * Open and validate a trace file: the whole file is checked here,
     * so a replay never meets a bad record.
     * @return nullptr, with an `error` that names the file, when the
     *         file cannot be opened, a binary payload is not a whole
     *         number of records (a torn final write), the trace holds
     *         no accesses, or a text line is malformed or has a gap
     *         that a binary record cannot hold.
     */
    static std::unique_ptr<TraceStream>
    open(const std::string &path, std::string &error,
         std::size_t chunkRecords = kDefaultChunkRecords);

    ~TraceStream();

    TraceStream(const TraceStream &) = delete;
    TraceStream &operator=(const TraceStream &) = delete;

    /** Next access (wraps around at the end of the trace).  Throws
     *  std::runtime_error, naming the file, if the file changed under
     *  the replay (a binary trace that shrank, a text trace whose
     *  lines changed or ran out); the stream is then unusable. */
    CoreWorkload::Access next();

    /** The trace file. */
    const std::string &path() const { return path_; }
    /** Records in the file (one lap). */
    std::uint64_t records() const { return records_; }
    /** Number of times the trace has wrapped. */
    std::uint64_t laps() const { return laps_; }

  private:
    TraceStream(const std::string &path, std::size_t chunkRecords);

    /** Parse text lines up to the next access into `record`.
     *  @return false at the end of the file, or with `error` set
     *          ("line N: ...") on a malformed line. */
    bool readTextRecord(std::uint8_t *record, std::string &error);
    void refill();

    std::string path_;
    std::FILE *file_ = nullptr;
    bool binary_ = false;
    char *line_ = nullptr; ///< getline(3) buffer of a text trace.
    std::size_t line_cap_ = 0;
    std::uint64_t line_no_ = 0;
    std::size_t chunk_records_;
    std::vector<std::uint8_t> buf_;
    std::size_t buf_records_ = 0; ///< valid records in buf_.
    std::size_t pos_ = 0;         ///< next record index in buf_.
    std::uint64_t records_ = 0;
    std::uint64_t cursor_ = 0; ///< next file record index to read.
    std::uint64_t in_pass_ = 0; ///< records returned this lap.
    std::uint64_t laps_ = 0;
};

/**
 * Convert the trace file `from` (either format) into `to`: binary
 * when `binary` is true, otherwise canonical text (the exact bytes
 * TraceWriter emits).  Reads through TraceStream, so it runs in
 * O(chunk) memory.  fatal() on any error.
 * @return records converted.
 */
std::uint64_t convertTrace(const std::string &from, const std::string &to,
                           bool binary);

// --- simulateStreams plumbing ------------------------------------------

/**
 * Wrap an open trace as one simulateStreams core.  The spec's name
 * is the file's basename and its lap counter feeds
 * CoreResult::traceLaps.
 *
 * @param baseIpc the traced core's compute throughput between
 *                accesses (traces do not carry it).
 */
StreamSpec traceStreamSpec(std::shared_ptr<TraceStream> stream,
                           double baseIpc);

/** Open `path` with TraceStream::open and wrap it as above; fatal()
 *  with the open's error on a bad trace, and with next()'s error when
 *  the file changes under the replay.  (A caller that must outlive a
 *  bad trace, like SimService, wraps an open stream itself and
 *  answers the exception.) */
StreamSpec
traceStreamSpec(const std::string &path, double baseIpc,
                std::size_t chunkRecords =
                    TraceStream::kDefaultChunkRecords);

/**
 * Capture one synthetic benchmark stream into a trace file covering
 * `instrBudget` instructions.  The capture loop draws *exactly* the
 * access sequence simulateStreams consumes for the same
 * (benchmark, memBytes, coreId, seed, budget), so replaying the file
 * reproduces the live generator's SimResult bit for bit -- the
 * capture/replay closure (tests/test_property_trace.cc) -- and the
 * replay wraps exactly once per budget covered
 * (CoreResult::traceLaps).
 *
 * @param binary  true writes the ARCCTRC1 binary format, false the
 *                text format.
 * @return records written.
 */
std::uint64_t captureSyntheticTrace(const std::string &benchmark,
                                    std::uint64_t memBytes, int coreId,
                                    std::uint64_t seed,
                                    std::uint64_t instrBudget,
                                    const std::string &path,
                                    bool binary = true);

} // namespace arcc

#endif // ARCC_CPU_TRACE_HH
