/**
 * @file
 * Trace capture / replay implementation: the hardened text parser,
 * the 16-byte binary record codec, the writer, and the chunked
 * TraceStream reader that serves both formats.
 */

#include "cpu/trace.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unistd.h>

#include "common/logging.hh"

namespace arcc
{

namespace
{

/** Write flag: top bit of the gap word. */
constexpr std::uint64_t kWriteBit = 1ULL << 63;

/** Encode one access (gap below 2^63) into a 16-byte little-endian
 *  record. */
void
encodeRecord(const CoreWorkload::Access &a, std::uint8_t *out)
{
    std::uint64_t gap = a.instrGap | (a.isWrite ? kWriteBit : 0);
    for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<std::uint8_t>(a.addr >> (8 * i));
        out[8 + i] = static_cast<std::uint8_t>(gap >> (8 * i));
    }
}

/** Decode one 16-byte little-endian record. */
CoreWorkload::Access
decodeRecord(const std::uint8_t *in)
{
    std::uint64_t addr = 0;
    std::uint64_t gap = 0;
    for (int i = 7; i >= 0; --i) {
        addr = (addr << 8) | in[i];
        gap = (gap << 8) | in[8 + i];
    }
    CoreWorkload::Access a;
    a.addr = addr;
    a.isWrite = (gap & kWriteBit) != 0;
    a.instrGap = gap & ~kWriteBit;
    return a;
}

/**
 * A replay error: thrown, naming the file, so that it ends the replay
 * and not the process (see TraceStream::next).
 */
[[noreturn]] __attribute__((format(printf, 2, 3))) void
replayError(const std::string &path, const char *fmt, ...)
{
    char what[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(what, sizeof what, fmt, ap);
    va_end(ap);
    throw std::runtime_error("trace file '" + path + "' " + what);
}

/**
 * Set `error` to "line N: <before>'<text>'<after>".  `text` is cut to
 * 40 bytes and shows bytes outside printable ASCII as '?', so a
 * binary file read as text puts no raw bytes into a reply.
 * @return false, for the parser to return.
 */
bool
lineError(std::string &error, std::uint64_t line_no, const char *before,
          std::string_view text, const char *after)
{
    constexpr std::size_t kShown = 40;
    error.assign("line ").append(std::to_string(line_no));
    error.append(": ").append(before).append(1, '\'');
    for (const char c : text.substr(0, kShown))
        error.push_back(c >= ' ' && c <= '~' ? c : '?');
    error.append(text.size() > kShown ? "...'" : "'").append(after);
    return false;
}

/** Parse all of `s` as an unsigned number; no sign, no prefix. */
bool
parseWhole(std::string_view s, int base, std::uint64_t &value)
{
    const char *end = s.data() + s.size();
    const std::from_chars_result r =
        std::from_chars(s.data(), end, value, base);
    return r.ec == std::errc() && r.ptr == end;
}

/**
 * Parse one text trace line into `out` without allocating.
 * @return false for a line without an access: blank, a comment, or
 *         malformed, which also sets `error`.
 */
bool
parseLine(std::string_view line, std::uint64_t line_no,
          CoreWorkload::Access &out, std::string &error)
{
    // Tolerate CRLF endings and indentation: the payload is the slice
    // between the first and last non-whitespace characters.
    constexpr std::string_view ws = " \t\r\n\v\f";
    const std::size_t first = line.find_first_not_of(ws);
    if (first == std::string_view::npos || line[first] == '#')
        return false;
    line = line.substr(first, line.find_last_not_of(ws) - first + 1);

    // Split into exactly three whitespace-separated fields.
    std::string_view field[3];
    std::size_t pos = 0;
    for (std::string_view &f : field) {
        pos = line.find_first_not_of(ws, pos);
        if (pos == std::string_view::npos)
            return lineError(error, line_no,
                             "malformed (expected <hex-addr> <R|W> "
                             "<instr-gap>): ",
                             line, "");
        const std::size_t end =
            std::min(line.find_first_of(ws, pos), line.size());
        f = line.substr(pos, end - pos);
        pos = end;
    }
    if (line.find_first_not_of(ws, pos) != std::string_view::npos)
        return lineError(error, line_no,
                         "trailing garbage after the three fields: ",
                         line, "");

    std::string_view addr = field[0];
    if (addr.size() > 2 && addr[0] == '0' &&
        (addr[1] == 'x' || addr[1] == 'X'))
        addr.remove_prefix(2);
    if (!parseWhole(addr, 16, out.addr))
        return lineError(error, line_no, "", field[0],
                         " is not a hex address");

    if (field[1] == "W" || field[1] == "w")
        out.isWrite = true;
    else if (field[1] == "R" || field[1] == "r")
        out.isWrite = false;
    else
        return lineError(error, line_no, "access type ", field[1],
                         " is not R or W");

    if (!parseWhole(field[2], 10, out.instrGap))
        return lineError(error, line_no, "", field[2],
                         " is not an instruction gap");
    if (out.instrGap & kWriteBit)
        return lineError(error, line_no, "instruction gap ", field[2],
                         " does not fit the binary record's 63-bit "
                         "field");
    return true;
}

} // anonymous namespace

TraceWriter::TraceWriter(std::ostream &out, bool binary)
    : out_(out), binary_(binary)
{
    if (binary_)
        out_.write(kTraceMagic, sizeof kTraceMagic);
    else
        out_ << "# ARCC memory trace: <hex-addr> <R|W> <instr-gap>\n";
}

void
TraceWriter::append(const CoreWorkload::Access &access)
{
    if (binary_) {
        if (access.instrGap & kWriteBit)
            fatal("binary trace: instruction gap %llu does not fit "
                  "the record's 63-bit field",
                  static_cast<unsigned long long>(access.instrGap));
        std::uint8_t rec[kTraceRecordBytes];
        encodeRecord(access, rec);
        out_.write(reinterpret_cast<const char *>(rec), sizeof rec);
    } else {
        out_ << std::hex << access.addr << std::dec << ' '
             << (access.isWrite ? 'W' : 'R') << ' ' << access.instrGap
             << '\n';
    }
    if (!out_)
        fatal("trace write failed after %llu accesses (disk full?)",
              static_cast<unsigned long long>(count_));
    ++count_;
}

TraceStream::TraceStream(const std::string &path,
                         std::size_t chunkRecords)
    : path_(path), chunk_records_(chunkRecords ? chunkRecords : 1),
      buf_(chunk_records_ * kTraceRecordBytes)
{
}

TraceStream::~TraceStream()
{
    if (file_)
        std::fclose(file_);
    std::free(line_);
}

std::unique_ptr<TraceStream>
TraceStream::open(const std::string &path, std::string &error,
                  std::size_t chunkRecords)
{
    std::unique_ptr<TraceStream> s(new TraceStream(path, chunkRecords));
    const auto fail = [&](std::string what) {
        error.assign("trace file '").append(path).append("' ");
        error.append(what);
        return nullptr;
    };
    error.clear();
    s->file_ = std::fopen(path.c_str(), "rb");
    if (!s->file_)
        return fail(std::string("cannot be opened: ") +
                    std::strerror(errno));

    // Read the magic with pread(2), below stdio, so the buffering can
    // still be chosen.  A binary trace reads unbuffered: the chunk
    // buffer is its read buffer, every fread() is one read(2), and a
    // file that shrinks under the replay is seen.  Text is read line
    // by line through stdio's buffer.
    char magic[sizeof kTraceMagic];
    s->binary_ = ::pread(::fileno(s->file_), magic, sizeof magic, 0) ==
                     static_cast<ssize_t>(sizeof magic) &&
                 std::memcmp(magic, kTraceMagic, sizeof magic) == 0;
    if (s->binary_) {
        std::setvbuf(s->file_, nullptr, _IONBF, 0);
        long size = -1;
        if (std::fseek(s->file_, 0, SEEK_END) == 0)
            size = std::ftell(s->file_);
        if (size < static_cast<long>(sizeof kTraceMagic))
            return fail("cannot be read");
        const std::uint64_t payload =
            static_cast<std::uint64_t>(size) - sizeof kTraceMagic;
        if (payload % kTraceRecordBytes != 0) {
            char what[256];
            std::snprintf(what, sizeof what,
                          "is truncated: %llu payload bytes is not a "
                          "whole number of %zu-byte records (%llu "
                          "trailing bytes -- a torn final write?); "
                          "refusing to replay a partial record",
                          static_cast<unsigned long long>(payload),
                          kTraceRecordBytes,
                          static_cast<unsigned long long>(
                              payload % kTraceRecordBytes));
            return fail(what);
        }
        s->records_ = payload / kTraceRecordBytes;
    } else {
        // Parse every line once: that validates the whole trace and
        // counts its records, so a lap closes on its final record.
        std::uint8_t record[kTraceRecordBytes];
        while (s->readTextRecord(record, error))
            ++s->records_;
        if (!error.empty())
            return fail(error);
        if (std::ferror(s->file_))
            return fail("cannot be read");
    }
    if (s->records_ == 0)
        return fail("contains no accesses");
    s->cursor_ = s->records_; // the first refill starts a lap.
    return s;
}

bool
TraceStream::readTextRecord(std::uint8_t *record, std::string &error)
{
    ssize_t len;
    while ((len = ::getline(&line_, &line_cap_, file_)) >= 0) {
        CoreWorkload::Access a;
        if (parseLine({line_, static_cast<std::size_t>(len)},
                           ++line_no_, a, error)) {
            encodeRecord(a, record);
            return true;
        }
        if (!error.empty())
            return false;
    }
    return false;
}

void
TraceStream::refill()
{
    pos_ = 0;
    if (buf_records_ == records_)
        return; // the whole trace is in the buffer: replay it again.
    if (cursor_ == records_) {
        if (std::fseek(file_, binary_ ? sizeof kTraceMagic : 0,
                       SEEK_SET) != 0)
            replayError(path_, "cannot be rewound");
        cursor_ = 0;
        line_no_ = 0;
    }
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_records_, records_ - cursor_));
    if (binary_) {
        const std::size_t got =
            std::fread(buf_.data(), kTraceRecordBytes, want, file_);
        if (got != want)
            replayError(path_,
                        "shrank mid-replay: wanted %zu records at %llu, "
                        "got %zu",
                        want, static_cast<unsigned long long>(cursor_),
                        got);
    } else {
        std::string error;
        for (std::size_t i = 0; i < want; ++i)
            if (!readTextRecord(&buf_[i * kTraceRecordBytes], error))
                replayError(path_, "changed mid-replay: %s",
                            error.empty() ? "it ended early"
                                          : error.c_str());
    }
    cursor_ += want;
    buf_records_ = want;
}

CoreWorkload::Access
TraceStream::next()
{
    if (pos_ == buf_records_)
        refill();
    CoreWorkload::Access a =
        decodeRecord(buf_.data() + pos_ * kTraceRecordBytes);
    ++pos_;
    // The lap increments as the final record is returned, not when
    // the wrap is next read.
    if (++in_pass_ == records_) {
        in_pass_ = 0;
        ++laps_;
    }
    return a;
}

std::uint64_t
convertTrace(const std::string &from, const std::string &to,
             bool binary)
{
    std::string error;
    const std::unique_ptr<TraceStream> in = TraceStream::open(from, error);
    if (!in)
        fatal("%s", error.c_str());
    std::ofstream out(to, std::ios::binary);
    if (!out)
        fatal("cannot create trace file '%s'", to.c_str());
    TraceWriter writer(out, binary);
    for (std::uint64_t i = 0; i < in->records(); ++i)
        writer.append(in->next());
    out.flush();
    if (!out)
        fatal("writing trace file '%s' failed (disk full?)", to.c_str());
    return writer.count();
}

std::uint64_t
captureSyntheticTrace(const std::string &benchmark,
                      std::uint64_t memBytes, int coreId,
                      std::uint64_t seed, std::uint64_t instrBudget,
                      const std::string &path, bool binary)
{
    CoreWorkload wl(benchmarkProfile(benchmark), memBytes, coreId,
                    seed);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot create trace file '%s'", path.c_str());

    // The capture loop stops on the same record as simulateStreams,
    // which draws a core's next access only while the core's budget
    // is not yet covered -- the closure depends on the two
    // terminating together.
    TraceWriter writer(out, binary);
    std::uint64_t instrs = 0;
    do {
        CoreWorkload::Access a = wl.next();
        writer.append(a);
        instrs += a.instrGap;
    } while (instrs < instrBudget);
    out.flush();
    if (!out)
        fatal("writing trace file '%s' failed (disk full?)",
              path.c_str());
    return writer.count();
}

StreamSpec
traceStreamSpec(std::shared_ptr<TraceStream> stream, double baseIpc)
{
    StreamSpec spec;
    const std::string &path = stream->path();
    spec.name = path.substr(path.find_last_of("/\\") + 1);
    spec.baseIpc = baseIpc;
    spec.next = [stream]() { return stream->next(); };
    spec.laps = [stream]() { return stream->laps(); };
    return spec;
}

StreamSpec
traceStreamSpec(const std::string &path, double baseIpc,
                std::size_t chunkRecords)
{
    std::string error;
    std::shared_ptr<TraceStream> stream =
        TraceStream::open(path, error, chunkRecords);
    if (!stream)
        fatal("%s", error.c_str());
    StreamSpec spec = traceStreamSpec(std::move(stream), baseIpc);
    spec.next = [next = std::move(spec.next)]() {
        try {
            return next();
        } catch (const std::runtime_error &e) {
            fatal("%s", e.what());
        }
    };
    return spec;
}

} // namespace arcc
